"""Acceptance suite: the eight release criteria, one test each.

Every test prints a single PASS/FAIL line through the ``announce`` fixture
(capture is suspended for that write, so the verdicts land in the run log
even on passing tests) and then asserts.  Tolerances are pinned here, not
configurable.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from nbvoi import (
    BvnParams,
    LogisticDgm,
    Threshold,
    ValidationSample,
    WeightVector,
    bootstrap_nb_draws,
    bvn_cdf,
    c_statistic,
    e_max_zero_bvn,
    evpi_threshold_sweep,
    generate_synthetic,
    make_thresholds,
    moments,
    nb_all,
    nb_model,
    population_scaled,
    std_normal_cdf,
    substream,
    true_nb_of_dgm,
    weighted_nb,
)

DGM = LogisticDgm(intercept=-1.55, slopes=(0.77,))


@pytest.fixture()
def announce(capfd):
    """Report one criterion verdict, bypassing output capture."""

    def _report(num: int, label: str, failures: list,
                elapsed: float | None = None) -> None:
        status = "PASS" if not failures else "FAIL"
        suffix = f" [{elapsed:.1f}s]" if elapsed is not None else ""
        line = f"ACCEPTANCE {num} {label}: {status}{suffix}"
        if failures:
            line += " -- " + "; ".join(failures)
        with capfd.disabled():
            sys.stdout.write("\n" + line + "\n")
            sys.stdout.flush()
        assert not failures, line

    return _report


def test_criterion_1_synthetic_dgm_anchors(announce):
    """Event rate 0.20 +- 0.005, c-statistic 0.70 +- 0.005, and true-model
    NB {0.1176, 0.0575, 0.0270} +- 0.002 at z in {0.1, 0.2, 0.3}; < 30 s."""
    failures = []
    t0 = time.perf_counter()
    sample = generate_synthetic(DGM, 1_000_000, substream(1001, 2))
    if abs(sample.prevalence - 0.20) > 0.005:
        failures.append(f"event rate {sample.prevalence:.4f} not within 0.20 +- 0.005")
    cstat = c_statistic(sample)
    if abs(cstat - 0.70) > 0.005:
        failures.append(f"c-statistic {cstat:.4f} not within 0.70 +- 0.005")
    anchors = {0.1: 0.1176, 0.2: 0.0575, 0.3: 0.0270}
    for i, (z, expect) in enumerate(anchors.items()):
        got = true_nb_of_dgm(DGM, Threshold(z), 1_000_000, rng=substream((1002, i), 2))
        if abs(got - expect) > 0.002:
            failures.append(f"true NB at z={z}: {got:.6f} not within {expect} +- 0.002")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    announce(1, "synthetic DGM anchors", failures, elapsed)


def test_criterion_2_cross_method_agreement(announce):
    """On 20 samples per n in {250, 500, 1000, 2000} and thresholds
    {0.1, 0.2, 0.3}: |EVPI_bayes - EVPI_ordinary| and each
    |EVPI_bootstrap - EVPI_asymptotic| within max(3 combined MC SEs, 2e-4);
    n_reps = 1000; < 5 min."""
    failures = []
    t0 = time.perf_counter()
    ts = make_thresholds([0.1, 0.2, 0.3])
    for n_idx, n in enumerate((250, 500, 1000, 2000)):
        for k in range(20):
            samp = generate_synthetic(DGM, n, substream((4242, n_idx, k), 2))
            rows = evpi_threshold_sweep(samp, ts, n_reps=1000,
                                        seed=(4242, n_idx, k))
            by = {(t.z, r.method): r for t, r in rows}
            for z in (0.1, 0.2, 0.3):
                b = by[(z, "bayesian_bootstrap")]
                o = by[(z, "ordinary_bootstrap")]
                a = by[(z, "asymptotic")]
                tol_bo = max(3 * math.hypot(b.mc_se, o.mc_se), 2e-4)
                if abs(b.evpi - o.evpi) > tol_bo:
                    failures.append(f"bayes-vs-ordinary n={n} k={k} z={z}")
                if abs(b.evpi - a.evpi) > max(3 * b.mc_se, 2e-4):
                    failures.append(f"bayes-vs-asymptotic n={n} k={k} z={z}")
                if abs(o.evpi - a.evpi) > max(3 * o.mc_se, 2e-4):
                    failures.append(f"ordinary-vs-asymptotic n={n} k={k} z={z}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s >= 300s")
    announce(2, "cross-method agreement", failures[:5], elapsed)


def test_criterion_3_monotone_decline(announce):
    """Mean EVPI over 100 simulations at z = 0.2 strictly decreases across
    n = 250 -> 500 -> 1000 -> 2000 with >= 1 MC-SE separation between the
    endpoints, for every method; < 10 min."""
    from nbvoi import SweepConfig, synthetic_sweep

    failures = []
    t0 = time.perf_counter()
    cfg = SweepConfig(
        sizes=(250, 500, 1000, 2000), thresholds=make_thresholds([0.2]),
        n_sims=100, n_reps=1000,
        methods=("bayesian", "ordinary", "asymptotic"), seed=2024,
    )
    res = synthetic_sweep(DGM, cfg)
    for m in ("bayesian_bootstrap", "ordinary_bootstrap", "asymptotic"):
        vals = [res.row(n, 0.2, m) for n in cfg.sizes]
        means = [r.mean_evpi for r in vals]
        if not all(b < a for a, b in zip(means, means[1:])):
            failures.append(f"{m} not strictly decreasing: {means}")
        sep = means[0] - means[-1]
        se = math.hypot(vals[0].mc_se, vals[-1].mc_se)
        if sep < se:
            failures.append(f"{m} endpoint separation {sep:.2e} < 1 MC-SE {se:.2e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.1f}s >= 600s")
    announce(3, "EVPI declines with sample size", failures, elapsed)


@pytest.mark.filterwarnings("ignore::nbvoi.SmallEffectiveSampleWarning")
def test_criterion_4_nonnegativity_and_determinism(announce, tmp_path):
    """EVPI >= 0 with bounded pre-clamp value on 1,000 randomized small
    samples; identical seeds give byte-identical CLI output across two runs
    and across 1-vs-8 worker configurations."""
    failures = []
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    for k in range(1000):
        n = int(rng.integers(10, 201))
        prev = float(rng.uniform(0.02, 0.98))
        y = (rng.random(n) < prev).astype(int)
        risks = rng.random(n)
        s = ValidationSample(y, risks)
        z = float(rng.uniform(0.02, 0.9))
        method = "bayesian" if k % 2 == 0 else "ordinary"
        rows = evpi_threshold_sweep(
            s, (Threshold(z, max_z=0.99),), methods=(method, "asymptotic"),
            n_reps=400, seed=(777, k),
        )
        for _, r in rows:
            if r.evpi < 0:
                failures.append(f"negative EVPI at sample {k}")
            floor = 1e-12 + (r.mc_se if r.mc_se is not None else 1e-10)
            if r.enb_perfect - r.enb_current < -floor:
                failures.append(f"pre-clamp below floor at sample {k} ({r.method})")
    failures = failures[:5]

    # CLI determinism: identical bytes across reruns and worker counts
    data = tmp_path / "d.csv"
    samp = generate_synthetic(DGM, 300, substream(1004, 2))
    rows_txt = ["y,p"] + [f"{y},{float(r)!r}" for y, r in zip(samp.outcomes, samp.risks)]
    data.write_text("\n".join(rows_txt) + "\n", encoding="utf-8")

    def cli(*argv) -> bytes:
        proc = subprocess.run(
            [sys.executable, "-m", "nbvoi.cli", *argv],
            capture_output=True, check=False,
        )
        if proc.returncode != 0:
            failures.append(f"CLI exited {proc.returncode}: {proc.stderr[:200]}")
        return proc.stdout

    evpi_args = ("evpi", "--data", str(data), "--outcome", "y", "--risk", "p",
                 "--thresholds", "0.1,0.2", "--n-reps", "400", "--seed", "11",
                 "--out", "json")
    if cli(*evpi_args) != cli(*evpi_args):
        failures.append("evpi CLI output differs between identical runs")

    dca_args = ("dca", "--data", str(data), "--outcome", "y", "--risk", "p",
                "--thresholds", "0.05:0.2:0.05", "--n-reps", "400", "--seed", "11")
    if cli(*dca_args) != cli(*dca_args):
        failures.append("dca CLI output differs between identical runs")

    cfg = {
        "kind": "synthetic", "dgm": {"intercept": -1.55, "slopes": [0.77]},
        "sizes": [60, 120], "thresholds": [0.2], "n_sims": 4, "n_reps": 150,
        "methods": ["bayes", "asymptotic"], "seed": 9,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out_w1 = cli("simulate", "--config", str(cfg_path), "--workers", "1")
    out_w8 = cli("simulate", "--config", str(cfg_path), "--workers", "8")
    if out_w1 != out_w8:
        failures.append("simulate output differs between 1 and 8 workers")

    announce(4, "nonnegativity and determinism", failures, time.perf_counter() - t0)


def _mc_e_max_zero(mu1, mu2, s1, s2, rho, n_mc, rng):
    z = rng.standard_normal((n_mc, 2))
    x = mu1 + s1 * z[:, 0]
    y = mu2 + s2 * (rho * z[:, 0] + math.sqrt(1 - rho * rho) * z[:, 1])
    m = np.maximum(0.0, np.maximum(x, y))
    return float(m.mean()), float(m.std(ddof=1) / math.sqrt(n_mc))


def test_criterion_5_bvn_kernel_oracle(announce):
    """E[max(0,X,Y)] within 3 MC SEs of a 1e7-draw oracle on a 100-point
    random parameter grid; degenerate and E[X+] closed forms exact to 1e-8;
    independence factorization of the bivariate CDF exact to 1e-10.

    Running 100 simultaneous 3-SE checks trips on pure oracle noise about a
    quarter of the time, so a point beyond 3 SEs is confirmed against a
    second, independent 1e7-draw oracle and fails only if that one also
    exceeds 3 SEs (false-alarm probability ~7e-4; a kernel biased by more
    than the stated resolution still fails with probability ~1)."""
    failures = []
    t0 = time.perf_counter()
    rng = np.random.default_rng(31415)
    n_mc = 10_000_000
    for i in range(100):
        mu1, mu2 = rng.uniform(-1, 1, 2)
        s1, s2 = rng.uniform(0, 1, 2)
        rho = float(rng.uniform(-1, 1))
        mc, se = _mc_e_max_zero(mu1, mu2, s1, s2, rho, n_mc, rng)
        got = e_max_zero_bvn(BvnParams(mu1, mu2, s1, s2, rho))
        if abs(got - mc) > 3 * se:
            confirm_rng = np.random.default_rng((31415, i))
            mc2, se2 = _mc_e_max_zero(mu1, mu2, s1, s2, rho, n_mc, confirm_rng)
            if abs(got - mc2) > 3 * se2:
                failures.append(
                    f"point {i}: |{got:.6f} - {mc:.6f}| > 3*{se:.2e}, "
                    f"confirmed |{got:.6f} - {mc2:.6f}| > 3*{se2:.2e}"
                )
    # degenerate point mass and E[X+] closed forms
    for mu1, mu2 in [(-0.4, 0.3), (0.2, 0.1), (-1.0, -0.5)]:
        got = e_max_zero_bvn(BvnParams(mu1, mu2, 0.0, 0.0, 0.0))
        if abs(got - max(0.0, mu1, mu2)) > 1e-8:
            failures.append("degenerate point-mass case off")
    phi0 = 1.0 / math.sqrt(2 * math.pi)
    if abs(e_max_zero_bvn(BvnParams(0.0, -100.0, 1.0, 0.01, 0.0)) - phi0) > 1e-8:
        failures.append("E[X+] closed form off")
    rng2 = np.random.default_rng(27182)
    for _ in range(200):
        a, b = rng2.uniform(-5, 5, 2)
        if abs(bvn_cdf(a, b, 0.0) - std_normal_cdf(a) * std_normal_cdf(b)) > 1e-10:
            failures.append(f"factorization off at ({a:.3f}, {b:.3f})")
    announce(5, "BVN kernel oracle", failures[:5], time.perf_counter() - t0)


def test_criterion_6_moment_formula_oracle(announce):
    """Plug-in covariance matches empirical ordinary-bootstrap covariance
    (n_reps = 1e5) within 15% relative tolerance on 10 synthetic samples of
    n = 2000; the worked example (0.043, 0.075, 0.04) is reproduced."""
    failures = []
    t0 = time.perf_counter()
    hand = ValidationSample([1, 0, 1, 0, 0], [0.9, 0.8, 0.1, 0.05, 0.5])
    m = moments(hand, Threshold(0.2))
    for name, got, expect in (
        ("var_model", m.var_model, 0.043),
        ("var_all", m.var_all, 0.075),
        ("cov", m.cov, 0.04),
    ):
        if abs(got - expect) > 1e-12:
            failures.append(f"hand example {name}: {got!r} != {expect}")
    for k in range(10):
        samp = generate_synthetic(DGM, 2000, substream((1006, k), 2))
        t = Threshold(0.2)
        mat = bootstrap_nb_draws(samp, t, n_reps=100_000, method="ordinary",
                                 seed=(1006, k))
        emp = np.cov(mat.draws.T)
        mom = moments(samp, t)
        for name, got, expect in (
            ("var_model", emp[0, 0], mom.var_model),
            ("var_all", emp[1, 1], mom.var_all),
            ("cov", emp[0, 1], mom.cov),
        ):
            if abs(got - expect) > 0.15 * abs(expect):
                failures.append(f"sample {k} {name}: {got:.3e} vs {expect:.3e}")
    announce(6, "moment-formula oracle", failures[:5], time.perf_counter() - t0)


def _all_compositions(total, cells):
    if cells == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _all_compositions(total - first, cells - 1):
            yield (first,) + rest


def test_criterion_7_resample_weight_equivalence(announce):
    """For every multinomial weight vector with n <= 6 (exhaustive),
    weighted_nb equals the NB of the explicitly materialized resampled
    dataset, exactly."""
    failures = []
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    t = Threshold(0.31)
    for n in range(1, 7):
        y = rng.integers(0, 2, n)
        p = rng.random(n)
        s = ValidationSample(y, p)
        for counts in _all_compositions(n, n):
            counts = np.array(counts)
            wv = WeightVector(weights=counts / n, kind="multinomial", counts=counts)
            got_m, got_a = weighted_nb(s, wv, t)
            rep = np.repeat(np.arange(n), counts)
            resampled = ValidationSample(y[rep], p[rep])
            if got_m != nb_model(resampled, t) or got_a != nb_all(resampled, t):
                failures.append(f"n={n} counts={counts.tolist()}")
    announce(7, "resample/weight equivalence", failures[:5], time.perf_counter() - t0)


def test_criterion_8_population_scaling_arithmetic(announce):
    """Multiplier 800,000 with EVPI 0.0005 at z = 0.02: exactly 400
    true-positive equivalents and 19,600 false-positive equivalents."""
    failures = []
    tp, fp = population_scaled(0.0005, 800_000, Threshold(0.02))
    if tp != 400.0:
        failures.append(f"tp_equivalents {tp!r} != 400.0")
    if fp != 19600.0:
        failures.append(f"fp_equivalents {fp!r} != 19600.0")
    announce(8, "population scaling arithmetic", failures)
