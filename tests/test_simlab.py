"""Synthetic data generation, sanity metrics, and sample-size sweeps."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import nbvoi
from nbvoi import (
    InputError,
    LogisticDgm,
    SmallEffectiveSampleWarning,
    SweepConfig,
    Threshold,
    ValidationSample,
    c_statistic,
    evpi_threshold_sweep,
    generate_synthetic,
    make_thresholds,
    substream,
    synthetic_sweep,
    true_nb_of_dgm,
)
from nbvoi.io import _expit, render_csv, sweep_records
from nbvoi.resample import DATA_STREAM_ID
from nbvoi.simlab import doubling_sizes, subsample_sweep
from nbvoi.voi import ALL_METHODS

DGM = LogisticDgm(intercept=-1.55, slopes=(0.77,))


class TestLogisticDgm:
    def test_requires_a_slope(self):
        with pytest.raises(InputError):
            LogisticDgm(intercept=0.0, slopes=())

    def test_requires_finite_coefficients(self):
        with pytest.raises(InputError):
            LogisticDgm(intercept=np.inf, slopes=(1.0,))


class TestGenerateSynthetic:
    def test_prevalence_anchor(self):
        s = generate_synthetic(DGM, 200_000, substream(0, 2))
        assert s.prevalence == pytest.approx(0.20, abs=0.01)

    def test_c_statistic_anchor(self):
        s = generate_synthetic(DGM, 200_000, substream(1, 2))
        assert c_statistic(s) == pytest.approx(0.70, abs=0.01)

    def test_null_model_gives_half_risks(self):
        dgm = LogisticDgm(intercept=0.0, slopes=(0.0,))
        s = generate_synthetic(dgm, 20_000, substream(2, 2))
        assert np.all(s.risks == 0.5)
        assert s.prevalence == pytest.approx(0.5, abs=0.02)

    def test_deterministic_given_stream(self):
        a = generate_synthetic(DGM, 100, substream(3, 2))
        b = generate_synthetic(DGM, 100, substream(3, 2))
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.risks, b.risks)

    def test_multivariate_covariates(self):
        dgm = LogisticDgm(intercept=-1.0, slopes=(0.5, -0.3, 0.1))
        s = generate_synthetic(dgm, 500, substream(4, 2))
        assert s.n == 500


class TestCStatistic:
    def test_perfect_separation(self):
        s = ValidationSample([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
        assert c_statistic(s) == 1.0

    def test_constant_risks_give_half(self):
        s = ValidationSample([0, 1, 0, 1], [0.4] * 4)
        assert c_statistic(s) == 0.5

    def test_hand_example(self):
        """Events at 0.9 and 0.7 vs non-events at 0.8 and 0.1: 3 of 4
        pairs concordant."""
        s = ValidationSample([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.1])
        assert c_statistic(s) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(InputError):
            c_statistic(ValidationSample([1, 1], [0.2, 0.4]))

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(7)
        y = rng.integers(0, 2, 300)
        y[0], y[1] = 0, 1
        p = rng.random(300)
        s1 = ValidationSample(y, p)
        s2 = ValidationSample(y, p ** 2)           # strictly increasing on [0, 1]
        s3 = ValidationSample(y, 1 - (1 - p) ** 3)  # another one
        assert c_statistic(s1) == pytest.approx(c_statistic(s2), abs=1e-12)
        assert c_statistic(s1) == pytest.approx(c_statistic(s3), abs=1e-12)

    def test_matches_pairwise_brute_force_with_ties(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(5, 60))
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            p = np.round(rng.random(n), 1)  # coarse grid forces ties
            s = ValidationSample(y, p)
            ev, nev = p[y == 1], p[y == 0]
            wins = (ev[:, None] > nev[None, :]).sum()
            ties = (ev[:, None] == nev[None, :]).sum()
            brute = (wins + 0.5 * ties) / (len(ev) * len(nev))
            assert c_statistic(s) == pytest.approx(brute, rel=1e-12)


def _fresh_python(code: str, *argv: str) -> str:
    """Stdout of ``code`` run with ``argv`` in a fresh interpreter that
    imports this checkout's nbvoi."""
    src = str(Path(nbvoi.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=src), timeout=300)
    return proc.stdout


def test_import_does_not_load_scipy_stats():
    """``c_statistic`` counts instead of ranking, so ``import nbvoi`` no
    longer pays for loading ``scipy.stats``."""
    code = "import sys, nbvoi; print('scipy.stats' in sys.modules)"
    assert _fresh_python(code).strip() == "False"


@pytest.mark.parametrize("module", ["nbvoi", "nbvoi.cli"])
def test_import_does_not_load_scipy(module):
    """Importing the package loads no scipy module at all."""
    code = f"import sys, {module}; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    assert _fresh_python(code).strip() == "[]"


# Runs ``nbvoi.cli.main(sys.argv[1:])`` and prints, on its last line, the
# exit code and the scipy, multiprocessing and concurrent modules that were
# loaded.
_MAIN_AND_MODULES = """import json, sys
from nbvoi.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:
    rc = exc.code
print(json.dumps([rc, [m for m in sys.modules
                       if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')]]))
"""


@pytest.mark.filterwarnings("ignore::nbvoi.SmallEffectiveSampleWarning")
@pytest.mark.parametrize("argv", [
    pytest.param(["--version"], id="version"),
    pytest.param(["dca", "--data", "{data}", "--outcome", "y", "--risk", "p",
                  "--thresholds", "0.1,0.2", "--n-reps", "50"], id="dca"),
    pytest.param(["evpi", "--data", "{data}", "--outcome", "y", "--risk", "p",
                  "--thresholds", "0.1,0.2", "--n-reps", "50", "--method", "bayes"],
                 id="evpi_bayes"),
    pytest.param(["evpi", "--data", "{data}", "--outcome", "y", "--risk", "p",
                  "--thresholds", "0.1,0.2", "--method", "asymptotic"], id="evpi_asymptotic"),
    pytest.param(["evpi", "--data", "{data}", "--outcome", "y", "--risk", "p",
                  "--thresholds", "0.1,0.2", "--n-reps", "50", "--method", "all"], id="evpi_all"),
    pytest.param(["simulate", "--config", "{config}"], id="simulate_asymptotic"),
    pytest.param(["score", "--data", "{data}", "--outcome", "y", "--model", "{model}"],
                 id="score_model"),
])
def test_scipy_loads_only_on_the_routes_that_call_it(tmp_path, argv):
    """In a fresh interpreter, no command loads any scipy module, since no
    route calls scipy: the normal kernels and the inverse logit are numpy and
    the stdlib.  Nor does any load multiprocessing or concurrent.futures:
    only a sweep with a pool of workers needs them, and the bootstrap's
    helper threads use ``threading`` alone.  Each run exits 0 and writes
    the bytes an in-process run writes."""
    from nbvoi.cli import main

    s = generate_synthetic(LogisticDgm(intercept=-1.55, slopes=(0.77,)), 300, substream(5, 1))
    x = substream(5, 2).standard_normal(s.n)
    data = tmp_path / "data.csv"
    data.write_text("y,p,x\n" + "".join(f"{y},{float(r)!r},{float(v)!r}\n"
                                        for y, r, v in zip(s.outcomes, s.risks, x)),
                    encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "kind": "synthetic", "dgm": {"intercept": -1.55, "slopes": [0.77]}, "sizes": [100, 200],
        "thresholds": [0.1, 0.2], "n_sims": 2, "methods": ["asymptotic"], "seed": 4,
    }), encoding="utf-8")
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"intercept": -1.55, "terms": {"x": 0.77}}), encoding="utf-8")
    argv = [a.format(data=data, config=config, model=model) for a in argv]
    out = [] if argv == ["--version"] else ["--output", str(tmp_path / "fresh.out")]
    rc, loaded = json.loads(_fresh_python(_MAIN_AND_MODULES, *argv, *out).splitlines()[-1])
    assert (rc, loaded) == (0, [])
    if out:
        assert main([*argv, "--output", str(tmp_path / "in_process.out")]) == 0
        assert (tmp_path / "fresh.out").read_bytes() == (tmp_path / "in_process.out").read_bytes()


def test_expit_agrees_with_scipy():
    """The numpy inverse logit is scipy's formula 1 / (1 + exp(-x)) with
    numpy's exp, which differs from the C library's by at most 1 ulp: the
    results agree to 2.5 machine epsilons, relative (the largest gaps sit
    near x = -36.8, where 1 + exp(-x) passes 2^53).  Below -708 it is
    exp(x), where scipy's overflows to 0."""
    from scipy.special import expit

    rng = np.random.default_rng(11)
    x = np.concatenate([rng.uniform(-708, 708, 500_000), rng.normal(0, 3, 500_000),
                        [0.0, -0.0, 708.0, -708.0, np.inf, -np.inf]])
    ref = expit(x)
    assert np.all(np.abs(_expit(x) - ref) <= 2.5 * np.finfo(float).eps * ref)
    far = np.array([-708.5, -745.0, -800.0, -1e300])
    assert np.array_equal(_expit(far), np.exp(far))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_synthetic_outcomes_match_a_scipy_expit_copy(seed):
    """Every cell of the benchmark's sweep draws the same outcomes and risks
    within 2.5 epsilons of the scipy-``expit`` version of
    ``generate_synthetic``."""
    from scipy.special import expit

    from test_golden_sweep import _load

    cfg = _load("inputs").sweep_config(seed)
    dgm = LogisticDgm(**cfg["dgm"])
    slopes = np.asarray(dgm.slopes)
    for si, size in enumerate(cfg["sizes"]):
        for sim in range(cfg["n_sims"]):
            ours = generate_synthetic(dgm, size, substream((seed, si, sim), DATA_STREAM_ID))
            rng = substream((seed, si, sim), DATA_STREAM_ID)
            risks = expit(dgm.intercept + rng.standard_normal((size, len(slopes))) @ slopes)
            outcomes = (rng.random(size) < risks).astype(np.int64)
            assert np.array_equal(ours.outcomes, outcomes)
            assert np.all(np.abs(ours.risks - risks) <= 2.5 * np.finfo(float).eps * risks)


def _true_nb_quadrature(dgm: LogisticDgm, z: float) -> float:
    """Independent oracle: integrate the flagged-region payoff against the
    standard normal covariate law (single-covariate models)."""
    from math import log

    from scipy.integrate import quad
    from scipy.special import expit
    from scipy.stats import norm

    (slope,) = dgm.slopes
    c = z / (1 - z)
    x0 = (log(z / (1 - z)) - dgm.intercept) / slope
    val, _ = quad(
        lambda x: (expit(dgm.intercept + slope * x) * (1 + c) - c) * norm.pdf(x),
        x0, 12, epsabs=1e-12, epsrel=1e-12, limit=400,
    )
    return val


class TestTrueNbOfDgm:
    def test_matches_quadrature_oracle(self):
        """Exact values at the three working thresholds are 0.117644,
        0.057431, and 0.024870 (adaptive quadrature, confirmed by raw MC)."""
        rng = substream(10, 2)
        for z in (0.1, 0.2, 0.3):
            exact = _true_nb_quadrature(DGM, z)
            got = true_nb_of_dgm(DGM, Threshold(z), 500_000, rng=rng)
            assert got == pytest.approx(exact, abs=8e-4)

    def test_documented_round_anchors(self):
        rng = substream(13, 2)
        assert true_nb_of_dgm(DGM, Threshold(0.1), 500_000, rng=rng) == \
            pytest.approx(0.1176, abs=0.002)
        assert true_nb_of_dgm(DGM, Threshold(0.2), 500_000, rng=rng) == \
            pytest.approx(0.0575, abs=0.002)

    def test_treat_all_is_zero_at_prevalence_threshold(self):
        rng = substream(11, 2)
        prev = float(np.mean(generate_synthetic(DGM, 2_000_000, substream(12, 2)).risks))
        got = true_nb_of_dgm(DGM, Threshold(prev), 2_000_000, rng=rng, strategy="all")
        assert got == pytest.approx(0.0, abs=5e-4)

    def test_treat_none_is_zero(self):
        assert true_nb_of_dgm(DGM, Threshold(0.2), 10, rng=substream(0, 2),
                              strategy="none") == 0.0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(InputError):
            true_nb_of_dgm(DGM, Threshold(0.2), 10, rng=substream(0, 2),
                           strategy="harm")


class TestDoublingSizes:
    def test_default_ladder(self):
        assert doubling_sizes(23034) == (250, 500, 1000, 2000, 4000, 8000, 16000, 23034)

    def test_exact_power_ladder(self):
        assert doubling_sizes(2000) == (250, 500, 1000, 2000)

    def test_small_max(self):
        assert doubling_sizes(100) == (100,)


class TestSweepConfig:
    def test_validates_sizes(self):
        ts = (Threshold(0.2),)
        with pytest.raises(InputError):
            SweepConfig(sizes=(500, 250), thresholds=ts)
        with pytest.raises(InputError):
            SweepConfig(sizes=(), thresholds=ts)

    def test_validates_counts_and_methods(self):
        ts = (Threshold(0.2),)
        with pytest.raises(InputError):
            SweepConfig(sizes=(100,), thresholds=ts, n_sims=0)
        with pytest.raises(InputError):
            SweepConfig(sizes=(100,), thresholds=ts, methods=("bogus",))
        with pytest.raises(InputError, match="no EVPI method"):
            SweepConfig(sizes=(100,), thresholds=ts, methods=())

    def test_one_replicate_is_refused_only_for_a_bootstrap_method(self):
        """Refused on the config, before any cell draws its data."""
        ts = (Threshold(0.2),)
        for methods in (("bayesian",), ("asymptotic", "ordinary")):
            with pytest.raises(InputError, match="'n_reps'"):
                SweepConfig(sizes=(100,), thresholds=ts, n_reps=1, methods=methods)
        assert SweepConfig(sizes=(100,), thresholds=ts, n_reps=1,
                           methods=("asymptotic",)).n_reps == 1

    @pytest.mark.parametrize("field, value", [
        ("sizes", (250.7,)), ("n_sims", 2.5), ("n_reps", 2.5), ("seed", 1.5),
        ("n_workers", 1.5),
        ("sizes", ("50",)), ("sizes", (True,)), ("n_sims", True), ("n_reps", "20"),
        ("seed", "7"), ("seed", False), ("n_workers", "1"), ("n_workers", None),
    ])
    def test_fractional_integer_field_is_an_input_error_naming_it(self, field, value):
        """Neither truncated nor passed on to fail inside the sweep.  Nor is a
        string or a bool read as a number, though ``int()`` would read it: in
        a JSON config it is a mistake."""
        kw = {"sizes": (250,), "thresholds": (Threshold(0.2),), field: value}
        with pytest.raises(InputError, match=repr(field)):
            SweepConfig(**kw)

    def test_whole_numbers_spelled_as_floats_become_ints(self):
        cfg = SweepConfig(sizes=(250.0,), thresholds=(Threshold(0.2),), n_sims=3.0,
                          n_reps=20.0, seed=7.0, n_workers=1.0)
        values = (*cfg.sizes, cfg.n_sims, cfg.n_reps, cfg.seed, cfg.n_workers)
        assert values == (250, 3, 20, 7, 1)
        assert all(type(v) is int for v in values)


def _small_cfg(**kw):
    base = dict(
        sizes=(100, 400),
        thresholds=make_thresholds([0.2]),
        n_sims=4,
        n_reps=200,
        methods=("bayesian", "asymptotic"),
        seed=5,
    )
    base.update(kw)
    return SweepConfig(**base)


class TestSyntheticSweep:
    def test_structure_and_determinism(self):
        cfg = _small_cfg()
        r1 = synthetic_sweep(DGM, cfg)
        r2 = synthetic_sweep(DGM, cfg)
        assert len(r1.rows) == 2 * 1 * 2  # sizes x thresholds x methods
        assert r1.rows == r2.rows

    def test_single_sim_zero_se(self):
        cfg = _small_cfg(n_sims=1)
        res = synthetic_sweep(DGM, cfg)
        assert all(r.mc_se == 0.0 for r in res.rows)
        assert all(r.n_sims == 1 for r in res.rows)

    def test_evpi_declines_with_size(self):
        cfg = SweepConfig(
            sizes=(100, 1600), thresholds=make_thresholds([0.2]),
            n_sims=12, n_reps=300, methods=("bayesian",), seed=6,
        )
        res = synthetic_sweep(DGM, cfg)
        small = res.row(100, 0.2, "bayesian_bootstrap")
        big = res.row(1600, 0.2, "bayesian_bootstrap")
        assert big.mean_evpi < small.mean_evpi - np.hypot(small.mc_se, big.mc_se)

    def test_parallel_workers_identical(self):
        cfg1 = _small_cfg(n_workers=1)
        cfg4 = _small_cfg(n_workers=4)
        assert synthetic_sweep(DGM, cfg1).rows == synthetic_sweep(DGM, cfg4).rows

    def test_reseeding_moves_results_within_mc_error(self):
        cfg_a = _small_cfg(n_sims=10, seed=21)
        cfg_b = _small_cfg(n_sims=10, seed=22)
        ra = synthetic_sweep(DGM, cfg_a)
        rb = synthetic_sweep(DGM, cfg_b)
        for row_a, row_b in zip(ra.rows, rb.rows):
            tol = 3 * np.hypot(row_a.mc_se, row_b.mc_se) + 1e-9
            assert abs(row_a.mean_evpi - row_b.mean_evpi) <= tol


class TestSubsampleSweep:
    def _dataset(self, n=3000):
        return generate_synthetic(DGM, n, substream(30, 2))

    def test_full_size_uses_whole_dataset(self):
        data = self._dataset(500)
        cfg = SweepConfig(sizes=(500,), thresholds=make_thresholds([0.2]),
                          n_sims=1, n_reps=400, methods=("bayesian",), seed=17)
        res = subsample_sweep(data, cfg)
        # same substream as the sweep cell reproduces the cell exactly
        direct = evpi_threshold_sweep(
            data, make_thresholds([0.2]), methods=("bayesian",),
            n_reps=400, seed=(17, 0, 0),
        )
        assert res.rows[0].mean_evpi == direct[0][1].evpi
        assert res.rows[0].mc_se == 0.0

    @pytest.mark.filterwarnings("ignore::nbvoi.SmallEffectiveSampleWarning")
    def test_parallel_workers_identical(self):
        """Two workers receive the dataset by pickle and give the bytes of one."""
        data = self._dataset(600)
        runs = [subsample_sweep(data, SweepConfig(
            sizes=(150, 300, 600), thresholds=make_thresholds([0.1, 0.2]), n_sims=3,
            n_reps=100, methods=ALL_METHODS, seed=8, n_workers=w)) for w in (1, 2)]
        one, two = (render_csv(sweep_records(r)) for r in runs)
        assert one == two

    def test_rejects_oversized_request(self):
        data = self._dataset(300)
        cfg = SweepConfig(sizes=(301,), thresholds=make_thresholds([0.2]),
                          n_sims=1, n_reps=100, methods=("bayesian",), seed=0)
        with pytest.raises(InputError):
            subsample_sweep(data, cfg)

    def test_declining_evpi_on_surrogate_dataset(self):
        data = self._dataset(4000)
        cfg = SweepConfig(
            sizes=(150, 2000), thresholds=make_thresholds([0.2, 0.3]),
            n_sims=10, n_reps=300, methods=("ordinary",), seed=31,
        )
        res = subsample_sweep(data, cfg)
        for z in (0.2, 0.3):
            small = res.row(150, z, "ordinary_bootstrap")
            big = res.row(2000, z, "ordinary_bootstrap")
            assert big.mean_evpi < small.mean_evpi + np.hypot(small.mc_se, big.mc_se)

    def test_warns_on_thin_threshold_sides(self):
        data = self._dataset(200)
        cfg = SweepConfig(sizes=(40,), thresholds=make_thresholds([0.2]),
                          n_sims=2, n_reps=100, methods=("bayesian",), seed=3)
        with pytest.warns(SmallEffectiveSampleWarning):
            subsample_sweep(data, cfg)

    def test_one_warning_names_every_thin_cell(self):
        """Every risk is 0.5: all rows are flagged at 0.2 and none at 0.6,
        so every (size, threshold) cell is thin."""
        data = ValidationSample([1, 0] * 50, [0.5] * 100)
        cfg = SweepConfig(sizes=(30, 100), thresholds=make_thresholds([0.2, 0.6]),
                          n_sims=2, methods=("asymptotic",), seed=3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            subsample_sweep(data, cfg)
        thin = [w for w in caught if issubclass(w.category, SmallEffectiveSampleWarning)]
        assert len(thin) == 1
        assert str(thin[0].message).endswith("(30, 0.2), (30, 0.6), (100, 0.2), (100, 0.6)")
