"""CLI behavior: outputs are deterministic, formats are stable, and exit
codes distinguish input from numeric failures."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nbvoi
from nbvoi import LogisticDgm, decision_curve, generate_synthetic, make_thresholds, substream
from nbvoi.cli import main
from nbvoi.io import render_csv
from nbvoi.resample import _nb_blocks, bootstrap_nb_draws_grid, dump_draws


@pytest.fixture()
def dataset(tmp_path):
    dgm = LogisticDgm(intercept=-1.55, slopes=(0.77,))
    s = generate_synthetic(dgm, 400, substream(99, 2))
    lines = ["y,p"] + [f"{y},{float(r)!r}" for y, r in zip(s.outcomes, s.risks)]
    p = tmp_path / "data.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p, s


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDca:
    def test_csv_matches_library_bit_for_bit(self, capsys, dataset):
        path, s = dataset
        code, out, err = run(capsys, [
            "dca", "--data", str(path), "--outcome", "y", "--risk", "p",
            "--thresholds", "0.05,0.1,0.2", "--n-reps", "200", "--seed", "7",
        ])
        assert code == 0
        curve = decision_curve(s, make_thresholds([0.05, 0.1, 0.2]),
                               n_boot=200, ci_level=0.95, method="ordinary", seed=7)
        assert out == render_csv(curve.to_records())

    def test_reruns_byte_identical(self, capsys, dataset):
        path, _ = dataset
        argv = ["dca", "--data", str(path), "--outcome", "y", "--risk", "p",
                "--thresholds", "0.02:0.2:0.02", "--n-reps", "150", "--seed", "3"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_json_output(self, capsys, dataset):
        path, _ = dataset
        code, out, _ = run(capsys, [
            "dca", "--data", str(path), "--outcome", "y", "--risk", "p",
            "--thresholds", "0.1,0.2", "--n-reps", "50", "--seed", "1",
            "--out", "json",
        ])
        payload = json.loads(out)
        assert payload["n"] == 400
        assert len(payload["rows"]) == 2
        assert {"threshold", "nb_model", "nb_all", "nb_none"} <= payload["rows"][0].keys()

    def test_n_reps_zero_disables_ci(self, capsys, dataset):
        path, _ = dataset
        code, out, _ = run(capsys, [
            "dca", "--data", str(path), "--outcome", "y", "--risk", "p",
            "--thresholds", "0.1", "--n-reps", "0",
        ])
        assert code == 0
        assert "nb_model_lo" not in out

    def test_rejects_asymptotic_method(self, capsys, dataset):
        path, _ = dataset
        with pytest.raises(SystemExit):
            main(["dca", "--data", str(path), "--outcome", "y", "--risk", "p",
                  "--method", "asymptotic"])

    def test_rejects_table_output(self, capsys, dataset):
        """A decision curve has no table format, so ``--out table`` is
        refused rather than written as CSV."""
        path, _ = dataset
        with pytest.raises(SystemExit):
            main(["dca", "--data", str(path), "--outcome", "y", "--risk", "p",
                  "--out", "table"])


class TestEvpi:
    def test_table_output_rounds(self, capsys, dataset):
        path, _ = dataset
        code, out, _ = run(capsys, [
            "evpi", "--data", str(path), "--outcome", "y", "--risk", "p",
            "--thresholds", "0.1,0.2", "--n-reps", "300", "--seed", "5",
        ])
        assert code == 0
        assert "EVPI" in out and "P(useful)" in out
        assert "bayesian_bootstrap" in out and "asymptotic" in out

    def test_json_full_precision(self, capsys, dataset):
        path, _ = dataset
        code, out, _ = run(capsys, [
            "evpi", "--data", str(path), "--outcome", "y", "--risk", "p",
            "--thresholds", "0.2", "--n-reps", "300", "--seed", "5",
            "--method", "bayes", "--out", "json",
        ])
        payload = json.loads(out)
        assert payload["n_reps"] == 300
        (row,) = payload["rows"]
        assert row["method"] == "bayesian_bootstrap"
        assert isinstance(row["evpi"], float)

    def test_table_output_with_population(self, capsys, dataset):
        path, _ = dataset
        code, out, _ = run(capsys, [
            "evpi", "--data", str(path), "--outcome", "y", "--risk", "p",
            "--thresholds", "0.1,0.2", "--method", "asymptotic", "--population", "1000",
        ])
        assert code == 0
        header, rule, *rows = out.splitlines()
        assert header.split()[-2:] == ["pop", "FP"] and "pop TP" in header
        assert set(rule) == {"-", " "} and len(rows) == 2
        assert all(len(row.split()) == 9 for row in rows)

    def test_population_scaling_columns(self, capsys, dataset):
        path, _ = dataset
        code, out, _ = run(capsys, [
            "evpi", "--data", str(path), "--outcome", "y", "--risk", "p",
            "--thresholds", "0.2", "--n-reps", "200", "--seed", "5",
            "--method", "asymptotic", "--population", "800000", "--out", "csv",
        ])
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert "tp_equivalents" in header and "fp_equivalents" in header

    def test_dump_draws_writes_replicate_files(self, capsys, dataset, tmp_path):
        path, _ = dataset
        prefix = tmp_path / "draws"
        code, out, _ = run(capsys, [
            "evpi", "--data", str(path), "--outcome", "y", "--risk", "p",
            "--thresholds", "0.2", "--n-reps", "50", "--seed", "5",
            "--method", "bayes", "--dump-draws", str(prefix),
        ])
        assert code == 0
        lines = (tmp_path / "draws_bayesian_z0.2.csv").read_text().splitlines()
        assert lines[0] == "nb_model,nb_treat_all"
        assert len(lines) == 51

    def test_dump_draws_reuses_the_evpi_bootstrap(self, capsys, dataset, tmp_path, monkeypatch):
        """The dump draws each method's EVPI bootstrap again, from the same
        substreams, after the EVPI rows and one method at a time: its files
        equal a direct grid call with the same arguments, and the EVPI
        output is the same bytes with or without the dump."""
        import nbvoi.resample as resample_mod
        import nbvoi.voi as voi_mod

        path, sample = dataset
        calls = []

        def counting(table, n_reps, method, seed):
            calls.append(method)
            return _nb_blocks(table, n_reps, method, seed)

        monkeypatch.setattr(resample_mod, "_nb_blocks", counting)
        monkeypatch.setattr(voi_mod, "_nb_blocks", counting)
        prefix = tmp_path / "draws"
        argv = ["evpi", "--data", str(path), "--outcome", "y", "--risk", "p",
                "--thresholds", "0.1,0.2", "--n-reps", "50", "--seed", "5", "--method", "all"]
        code, dumped, _ = run(capsys, [*argv, "--dump-draws", str(prefix)])
        assert code == 0
        assert calls == ["bayesian", "ordinary"] * 2
        assert run(capsys, argv) == (0, dumped, "")
        ts = make_thresholds([0.1, 0.2])
        for method in ("bayesian", "ordinary"):
            draws = bootstrap_nb_draws_grid(sample, ts, n_reps=50, method=method, seed=5)
            for i, z in enumerate(("0.1", "0.2")):
                expect = tmp_path / "expect.csv"
                dump_draws(draws[:, i], expect)
                got = tmp_path / f"draws_{method}_z{z}.csv"
                assert got.read_text() == expect.read_text()

    def test_dump_draws_rejects_the_asymptotic_method(self, capsys, dataset, tmp_path):
        """The asymptotic route draws nothing, so there is nothing to dump."""
        path, _ = dataset
        code, out, err = run(capsys, [
            "evpi", "--data", str(path), "--outcome", "y", "--risk", "p",
            "--thresholds", "0.2", "--method", "asymptotic",
            "--dump-draws", str(tmp_path / "draws"),
        ])
        assert code == 2 and out == ""
        assert json.loads(err.strip().splitlines()[-1])["error"] == "input"
        assert list(tmp_path.glob("draws*")) == []

    def test_dump_draws_keeps_close_thresholds_apart(self, capsys, dataset, tmp_path):
        """Thresholds that print alike in 6 significant digits get a file each."""
        path, _ = dataset
        code, _, _ = run(capsys, [
            "evpi", "--data", str(path), "--outcome", "y", "--risk", "p",
            "--thresholds", "0.1234561,0.1234562", "--n-reps", "20", "--seed", "5",
            "--method", "bayes", "--dump-draws", str(tmp_path / "draws"),
        ])
        assert code == 0
        assert sorted(p.name for p in tmp_path.glob("draws_*")) == [
            "draws_bayesian_z0.1234561.csv", "draws_bayesian_z0.1234562.csv"]

    def test_strict_warns_on_large_mc_se(self, capsys, dataset):
        path, _ = dataset
        code, out, err = run(capsys, [
            "evpi", "--data", str(path), "--outcome", "y", "--risk", "p",
            "--thresholds", "0.2", "--n-reps", "20", "--seed", "5",
            "--method", "bayes", "--strict",
        ])
        assert code == 0
        assert "mc_se_exceeds_10pct_of_evpi" in err

    def test_reruns_byte_identical(self, capsys, dataset):
        path, _ = dataset
        argv = ["evpi", "--data", str(path), "--outcome", "y", "--risk", "p",
                "--thresholds", "0.1,0.2", "--n-reps", "200", "--seed", "5",
                "--out", "json"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


class TestScore:
    def test_scores_against_model_file(self, capsys, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("y,age\n1,2.0\n0,-1.0\n", encoding="utf-8")
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"intercept": 0.0, "terms": {"age": 1.0}}),
                         encoding="utf-8")
        code, out, _ = run(capsys, [
            "score", "--data", str(data), "--outcome", "y", "--model", str(model),
        ])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "y,risk"
        got = float(lines[1].split(",")[1])
        assert got == pytest.approx(1 / (1 + np.exp(-2.0)), rel=1e-12)

    def test_outcome_named_risk_is_refused(self, capsys, tmp_path):
        """Its column would be overwritten by the scores it is written beside."""
        data = tmp_path / "d.csv"
        data.write_text("risk,age\n1,2.0\n0,-1.0\n", encoding="utf-8")
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"intercept": 0.0, "terms": {"age": 1.0}}),
                         encoding="utf-8")
        code, out, err = run(capsys, [
            "score", "--data", str(data), "--outcome", "risk", "--model", str(model),
        ])
        assert code == 2 and out == ""
        rec = json.loads(err)
        assert rec["error"] == "input" and "'risk'" in rec["message"]


class TestSimulate:
    def _config(self, tmp_path, workers=1):
        cfg = {
            "kind": "synthetic",
            "dgm": {"intercept": -1.55, "slopes": [0.77]},
            "sizes": [80, 160],
            "thresholds": [0.2],
            "n_sims": 3,
            "n_reps": 120,
            "methods": ["bayes", "asymptotic"],
            "seed": 13,
            "workers": workers,
        }
        p = tmp_path / f"cfg{workers}.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        return p

    def test_csv_with_provenance_header(self, capsys, tmp_path):
        cfg = self._config(tmp_path)
        code, out, _ = run(capsys, ["simulate", "--config", str(cfg)])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# nbvoi ")
        assert lines[1] == "# seed: 13"
        assert lines[2].startswith("# config sha256: ")
        assert lines[3] == "size,threshold,method,mean_evpi,mc_se,n_sims"
        assert len(lines) == 4 + 2 * 1 * 2

    def test_workers_do_not_change_output(self, capsys, tmp_path):
        cfg1 = self._config(tmp_path, workers=1)
        _, out1, _ = run(capsys, ["simulate", "--config", str(cfg1)])
        _, out8, _ = run(capsys, ["simulate", "--config", str(cfg1), "--workers", "8"])
        assert out1.splitlines()[3:] == out8.splitlines()[3:]

    def test_huge_worker_count_on_one_chunk_builds_no_pool(self, capsys, tmp_path, monkeypatch):
        """A pool is no wider than the sweep's chunks of cells, and this
        config's 6 cells on one threshold are one chunk: ``"workers":
        1e308`` runs in process and writes the bytes of one worker."""
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-chunk sweep built a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        _, one, _ = run(capsys, ["simulate", "--config", str(self._config(tmp_path))])
        code, out, err = run(capsys, ["simulate", "--config", str(self._config(tmp_path, 1e308))])
        assert (code, err) == (0, "") and out == one

    def test_config_hash_leaves_out_workers(self, capsys, tmp_path):
        """Configs that differ only in ``workers``, a run setting, give the
        same bytes, header included, as does a config without it."""
        outs = [run(capsys, ["simulate", "--config", str(self._config(tmp_path, w))])[1]
                for w in (1, 2)]
        raw = json.loads(self._config(tmp_path).read_text(encoding="utf-8"))
        del raw["workers"]
        p = tmp_path / "no_workers.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        outs.append(run(capsys, ["simulate", "--config", str(p)])[1])
        assert outs[0].startswith("# nbvoi ") and outs[0] == outs[1] == outs[2]

    def test_subsample_default_ladder_and_null_paths(self, capsys, tmp_path, dataset):
        """Without ``sizes`` (or with a null one) a subsample sweep doubles
        from 250 up to the dataset's size; a null ``model`` beside ``risk``
        is left out, like a missing one."""
        path, _ = dataset
        cfg = {"kind": "subsample", "data": str(path), "outcome": "y", "risk": "p",
               "thresholds": [0.2], "n_sims": 2, "methods": ["asymptotic"], "seed": 3}
        outs = []
        for edit in ({}, {"sizes": None, "model": None}):
            p = tmp_path / "ladder.json"
            p.write_text(json.dumps(dict(cfg, **edit)), encoding="utf-8")
            code, out, _ = run(capsys, ["simulate", "--config", str(p)])
            assert code == 0
            outs.append(out.splitlines()[3:])
        assert [row.split(",")[0] for row in outs[0][1:]] == ["250", "400"]
        assert outs[0] == outs[1]

    def test_subsample_kind(self, capsys, tmp_path, dataset):
        path, _ = dataset
        cfg = {
            "kind": "subsample", "data": str(path), "outcome": "y", "risk": "p",
            "sizes": [50, 100], "thresholds": [0.2], "n_sims": 2,
            "n_reps": 100, "methods": ["ordinary"], "seed": 3,
        }
        p = tmp_path / "sub.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        code, out, _ = run(capsys, ["simulate", "--config", str(p)])
        assert code == 0
        assert "ordinary_bootstrap" in out


    @pytest.mark.parametrize("edit", [
        {"n_sims": "abc"},
        {"thresholds": ["x"]},
        {"dgm": {"intercept": "a", "slopes": [0.77]}},
        None,
    ], ids=["n_sims", "thresholds", "dgm_intercept", "top_level_array"])
    def test_malformed_config_exits_2_with_json_error(self, capsys, tmp_path, edit):
        raw = json.loads(self._config(tmp_path).read_text(encoding="utf-8"))
        raw = [raw] if edit is None else dict(raw, **edit)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        code, out, err = run(capsys, ["simulate", "--config", str(p)])
        assert code == 2 and out == ""
        rec = json.loads(err.strip().splitlines()[-1])
        assert rec["error"] == "input"


    @pytest.mark.parametrize("field, edit", [
        ("sizes", {"sizes": [80.7, 160]}),
        ("n_sims", {"n_sims": 2.9}),
        ("n_reps", {"n_reps": 120.5}),
        ("seed", {"seed": 1.5}),
        ("workers", {"workers": 1.5}),
    ])
    def test_fractional_integer_field_exits_2_naming_it(self, capsys, tmp_path, field, edit):
        raw = dict(json.loads(self._config(tmp_path).read_text(encoding="utf-8")), **edit)
        p = tmp_path / "frac.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        code, out, err = run(capsys, ["simulate", "--config", str(p)])
        assert code == 2 and out == ""
        rec = json.loads(err.strip().splitlines()[-1])
        assert rec["error"] == "input" and repr(field) in rec["message"]

    def test_integral_values_spelled_as_floats_run(self, capsys, tmp_path):
        cfg = self._config(tmp_path)
        _, expect, _ = run(capsys, ["simulate", "--config", str(cfg)])
        raw = dict(json.loads(cfg.read_text(encoding="utf-8")),
                   sizes=[80.0, 1.6e2], n_sims=3.0, n_reps=120.0, seed=13.0, workers=1.0)
        p = tmp_path / "floats.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        code, out, _ = run(capsys, ["simulate", "--config", str(p)])
        assert code == 0
        assert out.splitlines()[1:2] + out.splitlines()[3:] == (
            expect.splitlines()[1:2] + expect.splitlines()[3:])

    def test_subsample_with_risk_and_model_exits_2(self, capsys, tmp_path, dataset):
        path, _ = dataset
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"intercept": 0.0, "terms": {"p": 1.0}}), encoding="utf-8")
        cfg = {
            "kind": "subsample", "data": str(path), "outcome": "y", "risk": "p",
            "model": str(model), "sizes": [50], "thresholds": [0.2], "n_sims": 1,
            "methods": ["asymptotic"],
        }
        p = tmp_path / "both.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        code, out, err = run(capsys, ["simulate", "--config", str(p)])
        assert code == 2 and out == ""
        assert json.loads(err.strip().splitlines()[-1])["error"] == "input"


class TestExitCodes:
    def test_missing_file_exits_2_with_json_error(self, capsys):
        code, out, err = run(capsys, [
            "evpi", "--data", "/nonexistent.csv", "--outcome", "y", "--risk", "p",
        ])
        assert code == 2
        rec = json.loads(err.strip().splitlines()[-1])
        assert rec["error"] == "input"

    @pytest.mark.parametrize("content, row", [
        (b"y,p\n1,0.5\n1,1.7\n", 3),
        (b"y,p\n1,0.5\n0,0.\xff3\n1,0.2\n", 3),
        (b'y,p,note\n1,0.5,"two\nlines"\n0,abc,x\n', 4),
        (b"y,p\n1,0.5\n0," + b"1" * 200_000 + b"\n1,0.2\n", 3),
        (b"y,p," + b"n" * 200_000 + b"\n1,0.5,x\n", 1),
    ], ids=["risk_out_of_range", "not_utf8", "after_two_line_field", "field_too_large",
            "header_field_too_large"])
    def test_bad_row_reports_row_number(self, capsys, tmp_path, content, row):
        """The file line of the bad record, also at a byte that is not UTF-8,
        past a quoted field that spans two lines, and at a field longer than
        the csv module's limit, in a data line or in the header."""
        p = tmp_path / "bad.csv"
        p.write_bytes(content)
        code, out, err = run(capsys, [
            "dca", "--data", str(p), "--outcome", "y", "--risk", "p",
        ])
        assert code == 2
        rec = json.loads(err.strip().splitlines()[-1])
        assert rec["error"] == "input" and rec["row"] == row

    def test_non_finite_feature_reports_row_number(self, capsys, tmp_path):
        data = tmp_path / "feat.csv"
        data.write_text("y,age\n1,63\n0,nan\n1,50\n", encoding="utf-8")
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"intercept": -3.0, "terms": {"age": 0.05}}),
                         encoding="utf-8")
        code, out, err = run(capsys, [
            "evpi", "--data", str(data), "--outcome", "y", "--model", str(model),
        ])
        assert code == 2
        rec = json.loads(err.strip().splitlines()[-1])
        assert rec["error"] == "input"
        assert rec["row"] == 3

    def test_numeric_failure_exits_3(self, capsys, monkeypatch, dataset):
        from nbvoi.errors import NumericError
        import nbvoi.cli as cli_mod

        path, _ = dataset

        def boom(args):
            raise NumericError("synthetic numeric failure")

        monkeypatch.setattr(cli_mod, "cmd_evpi", boom)
        parser = cli_mod.build_parser()
        monkeypatch.setattr(
            cli_mod, "build_parser",
            lambda: _patch_parser_default(parser, boom),
        )
        code, out, err = run(capsys, [
            "evpi", "--data", str(path), "--outcome", "y", "--risk", "p",
        ])
        assert code == 3
        rec = json.loads(err.strip().splitlines()[-1])
        assert rec["error"] == "numeric"

    def test_os_error_naming_no_file_is_not_an_input_error(self, monkeypatch, dataset):
        """Only an error opening a named file is the user's input; any other
        OSError propagates."""
        import nbvoi.cli as cli_mod

        path, _ = dataset

        def boom(args):
            raise OSError(28, "No space left on device")

        parser = cli_mod.build_parser()
        monkeypatch.setattr(cli_mod, "build_parser",
                            lambda: _patch_parser_default(parser, boom))
        with pytest.raises(OSError, match="No space left"):
            main(["evpi", "--data", str(path), "--outcome", "y", "--risk", "p"])

    def test_failed_column_check_exits_3(self, capsys, monkeypatch, dataset):
        """A P(useful) outside [0, 1] fails the EVPI columns' own check."""
        import nbvoi.voi as voi_mod

        path, _ = dataset
        monkeypatch.setattr(voi_mod, "_p_useful",
                            lambda model, treat_all: np.full(model.shape[1], 2 * len(model)))
        code, out, err = run(capsys, [
            "evpi", "--data", str(path), "--outcome", "y", "--risk", "p",
            "--thresholds", "0.1,0.2", "--n-reps", "50", "--method", "bayes",
        ])
        assert code == 3 and out == ""
        rec = json.loads(err.strip().splitlines()[-1])
        assert rec["error"] == "numeric" and "P(useful)" in rec["message"]


# The two command-line entries: the module, and the ``[project.scripts]``
# wrapper that an installed ``nbvoi`` runs.
MODULE_ENTRY = ("-m", "nbvoi.cli")
SCRIPT_ENTRY = ("-c", "import sys; from nbvoi.cli import run; sys.exit(run())")


def _cli_process(argv, entry=MODULE_ENTRY, **env) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, importing this checkout's nbvoi."""
    src = str(Path(nbvoi.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *entry, *argv],
                          env=dict(os.environ, PYTHONPATH=path, **env),
                          capture_output=True, timeout=300)


@pytest.mark.parametrize("entry", [MODULE_ENTRY, SCRIPT_ENTRY], ids=["module", "script"])
def test_fresh_interpreter_entry_keeps_output_and_exit_codes(capsys, dataset, tmp_path, entry):
    """Through ``cli.run`` a command's stdout (a pipe here) is the bytes
    in-process ``main`` writes, ``--version`` exits 0, and a bad input
    still exits 2 with its JSON record on stderr."""
    path, _ = dataset
    argv = ["dca", "--data", str(path), "--outcome", "y", "--risk", "p",
            "--thresholds", "0.1,0.2", "--n-reps", "200", "--seed", "4"]
    proc = _cli_process(argv, entry)
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out.encode(), b"")

    proc = _cli_process(["--version"], entry)
    assert (proc.returncode, proc.stdout) == (0, f"nbvoi {nbvoi.__version__}\n".encode())

    bad = ["dca", "--data", str(tmp_path / "missing.csv"), "--outcome", "y", "--risk", "p"]
    proc = _cli_process(bad, entry)
    code, out, err = run(capsys, bad)
    assert (code, json.loads(err)["error"]) == (2, "input")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", err.encode())


def _cli_subprocess(argv, **env) -> bytes:
    proc = _cli_process(argv, **env)
    proc.check_returncode()
    return proc.stdout


def test_output_bytes_do_not_depend_on_blas_threads(tmp_path):
    s = generate_synthetic(LogisticDgm(intercept=-1.55, slopes=(0.77,)), 500,
                           substream(12, 2))
    data = tmp_path / "d.csv"
    lines = ["y,p"] + [f"{y},{float(r)!r}" for y, r in zip(s.outcomes, s.risks)]
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    common = ["--data", str(data), "--outcome", "y", "--risk", "p",
              "--thresholds", "0.01:0.2:0.01", "--n-reps", "1000", "--seed", "3"]
    for argv in (["dca", *common], ["evpi", *common, "--method", "all", "--out", "csv"]):
        one, two = (_cli_subprocess(argv, OPENBLAS_NUM_THREADS=k, OMP_NUM_THREADS=k)
                    for k in ("1", "2"))
        assert one and one == two, argv[0]


@pytest.mark.parametrize("argv, named", [
    pytest.param(["evpi", "--thresholds", "0.1:inf:0.1"], "thresholds",
                 id="threshold_range_overflows"),
    pytest.param(["evpi", "--thresholds", "0.001:0.9:8e-6", "--method", "asymptotic"],
                 "112376 thresholds", id="threshold_range_too_long"),
    pytest.param(["evpi", "--method", "bayes", "--seed", "-1"], "seed", id="evpi_negative_seed"),
    pytest.param(["evpi", "--method", "asymptotic", "--seed", "-1"], "seed",
                 id="asymptotic_negative_seed"),
    pytest.param(["dca", "--seed", "-1"], "seed", id="dca_negative_seed"),
    pytest.param(["simulate", {"seed": -1}], "seed", id="simulate_negative_seed"),
    pytest.param(["simulate", {"seed": "7"}], "'seed'", id="simulate_string_seed"),
    pytest.param(["simulate", {"methods": []}], "no EVPI method", id="simulate_no_methods"),
    pytest.param(["simulate", {"methods": ["bayes", "bayes"]}], "'bayesian' is named twice",
                 id="simulate_repeated_method"),
    pytest.param(["simulate", {"n_reps": 1}], "'n_reps'", id="simulate_one_bootstrap_replicate"),
    pytest.param(["simulate", {"n_reps": 1e308}], "'n_reps'", id="simulate_huge_n_reps"),
    pytest.param(["simulate", {"n_sims": 1e308}], "'n_sims'", id="simulate_huge_n_sims"),
    pytest.param(["simulate", {"methods": "asymptotic"}], "'methods'",
                 id="simulate_string_methods"),
    pytest.param(["simulate", {"methods": 5}], "'methods'", id="simulate_number_methods"),
    pytest.param(["simulate", {"methods": [["bayes"]]}], "'methods'",
                 id="simulate_nested_methods"),
    pytest.param(["simulate", {"methods": {"asymptotic": 1}}], "'methods'",
                 id="simulate_object_methods"),
    pytest.param(["simulate", {"thresholds": ["0.1", 0.2]}], "threshold must be a number",
                 id="simulate_string_threshold"),
    pytest.param(["simulate", {"thresholds": 0.2}], "threshold grid",
                 id="simulate_number_thresholds"),
    pytest.param(["simulate", {"max_threshold": True, "thresholds": [0.995]}], "max_z",
                 id="simulate_bool_max_threshold"),
    pytest.param(["simulate", {"max_threshold": "0.5"}], "max_z",
                 id="simulate_string_max_threshold"),
    pytest.param(["evpi", "--delimiter", "ab"], "delimiter must be one character, got 'ab'",
                 id="evpi_long_delimiter"),
    pytest.param(["evpi", "--population", "nan", "--out", "json"], "population",
                 id="nan_population_json"),
    pytest.param(["evpi", "--population", "nan", "--out", "csv"], "population",
                 id="nan_population_csv"),
    pytest.param(["evpi", "--population", "inf", "--out", "csv"], "population",
                 id="inf_population_csv"),
    pytest.param(["evpi", "--max-threshold", "nan"], "max_z", id="evpi_nan_max_threshold"),
    pytest.param(["evpi", "--max-threshold", "inf"], "max_z", id="evpi_inf_max_threshold"),
    pytest.param(["dca", "--max-threshold", "nan"], "max_z", id="dca_nan_max_threshold"),
    pytest.param(["dca", "--max-threshold", "0.1"], "threshold 0.1 >= 0.1",
                 id="dca_max_threshold_inside_the_default_grid"),
    pytest.param(["evpi", "--output", "{tmp}/absent/out.txt"], "{tmp}/absent/out.txt",
                 id="unwritable_output"),
    pytest.param(["evpi", "--method", "bayes", "--dump-draws", "{tmp}/absent/d"],
                 "{tmp}/absent/d_bayesian", id="unwritable_dump_draws"),
    pytest.param(["simulate", "--config", "{tmp}"], "{tmp}", id="config_is_a_directory"),
    pytest.param(["simulate", {"dgm": {"intercept": -1.55, "slopes": "12"}}], "slopes",
                 id="simulate_string_slopes"),
    pytest.param(["simulate", {"dgm": {"intercept": -1.55, "slopes": [True]}}], "'slopes'",
                 id="simulate_bool_slope"),
    pytest.param(["simulate", {"dgm": {"intercept": -1.55, "slopes": ["12"]}}], "'slopes'",
                 id="simulate_string_slope"),
    pytest.param(["simulate", {"dgm": {"intercept": True, "slopes": [0.77]}}], "'intercept'",
                 id="simulate_bool_intercept"),
    pytest.param(["simulate", {"dgm": {"intercept": -1.55, "slopes": 5}}], "'slopes'",
                 id="simulate_number_slopes"),
    pytest.param(["simulate", {"dgm": {"intercept": None, "slopes": [0.77]}}], "'intercept'",
                 id="simulate_null_intercept"),
    pytest.param(["simulate", {"dgm": {"intercept": 10**400, "slopes": [0.77]}}], "'intercept'",
                 id="simulate_400_digit_intercept"),
    pytest.param(["simulate", {"dgm": {"intercept": -1.55, "slopes": {"a": 1}}}], "'slopes'",
                 id="simulate_object_slopes"),
    pytest.param(["score", "--data", "{data}", "--outcome", "y", "--model", "{tmp}"], "{tmp}",
                 id="model_is_a_directory"),
    pytest.param(["score", "--data", "{data}", "--outcome", "y", "--model", [["p"]]], "'terms'",
                 id="model_term_without_coefficient"),
    pytest.param(["score", "--data", "{data}", "--outcome", "y", "--model", [5]], "'terms'",
                 id="model_term_not_a_pair"),
    pytest.param(["score", "--data", "{data}", "--outcome", "y", "--model", [["p", 1, 2]]],
                 "'terms'", id="model_term_with_extra_item"),
    pytest.param(["score", "--data", "{data}", "--outcome", "y", "--model", [["p", "0.078"]]],
                 "coefficient of 'p' must be a number, got '0.078'",
                 id="model_string_coefficient"),
    pytest.param(["score", "--data", "{data}", "--outcome", "y", "--model", [["p", True]]],
                 "coefficient of 'p' must be a number, got True", id="model_bool_coefficient"),
    pytest.param(["score", "--data", "{data}", "--outcome", "y", "--model",
                  {"intercept": 10**400, "terms": {"p": 1.0}}], "'intercept'",
                 id="model_400_digit_intercept"),
    pytest.param(["score", "--data", "{data}", "--outcome", "risk", "--model", [["p", 1.0]]],
                 "'risk'", id="score_outcome_named_risk"),
    pytest.param(["evpi", "--thresholds", "0.1:0.2:0"], "cannot parse thresholds",
                 id="threshold_range_zero_step"),
    pytest.param(["evpi", "--thresholds", "0.1:0.2:-0.01"], "cannot parse thresholds",
                 id="threshold_range_negative_step"),
    pytest.param(["dca", "--thresholds", "0.2:0.1:0.01"], "cannot parse thresholds",
                 id="threshold_range_stop_below_start"),
    pytest.param(["simulate", "--config", "{data}"], "not valid JSON", id="config_not_json"),
    pytest.param(["simulate", {"kind": "bootstrap"}], "'kind'", id="simulate_bad_kind"),
    pytest.param(["simulate", {"kind": ...}], "'kind'", id="simulate_no_kind"),
    pytest.param(["simulate", {"dgm": [-1.55, 0.77]}], "'dgm' object",
                 id="simulate_dgm_not_an_object"),
    pytest.param(["simulate", {"sizes": 5}], "'sizes' must be a sequence, got 5",
                 id="simulate_number_sizes"),
    pytest.param(["simulate", {"sizes": ...}], "'sizes' must be a sequence, got None",
                 id="simulate_no_sizes"),
    pytest.param(["simulate", {"n_sim": 2, "method": ["asymptotic"]}], "'method'",
                 id="simulate_unknown_keys"),
    pytest.param(["simulate", {"data": "data.csv"}], "'data' is not read by a synthetic",
                 id="synthetic_with_data"),
    pytest.param(["simulate", {"dgm": {"intercpt": -1.55, "slopes": [0.77]}}], "'intercpt'",
                 id="simulate_misspelt_dgm_key"),
    pytest.param(["simulate", {"kind": "subsample", "dgm": {"slopes": [1]}}],
                 "'dgm' is not read by a subsample", id="subsample_with_dgm"),
    pytest.param(["simulate", {"kind": "subsample", "data": 0}], "'data' as a string, got 0",
                 id="subsample_data_descriptor"),
    pytest.param(["simulate", {"kind": "subsample", "data": True}],
                 "'data' as a string, got True", id="subsample_bool_data"),
    pytest.param(["simulate", {"kind": "subsample", "data": ...}],
                 "'data' as a string, got None", id="subsample_without_data"),
    pytest.param(["simulate", {"kind": "subsample", "outcome": ...}],
                 "'outcome' as a string, got None", id="subsample_without_outcome"),
    pytest.param(["simulate", {"kind": "subsample", "risk": ""}], "column '' not found",
                 id="subsample_empty_risk"),
    pytest.param(["simulate", {"kind": "subsample", "risk": []}], "'risk' as a string, got []",
                 id="subsample_list_risk"),
    pytest.param(["simulate", {"kind": "subsample", "model": 5}], "'model' as a string, got 5",
                 id="subsample_number_model"),
])
def test_malformed_flag_or_config_exits_2_with_one_json_line(tmp_path, dataset, argv, named):
    """In a fresh interpreter: exit 2, no traceback, and one JSON line on
    stderr whose message names the bad value or file.  ``{tmp}`` stands for
    a fresh directory, ``{data}`` for a good data file, and a list for a
    model file with those ``terms``.  An ``evpi`` or ``dca`` row runs on two
    thresholds, or on the default grid if it sets ``--max-threshold``.  A
    ``simulate`` row's dict edits a synthetic config, or a subsample one of
    the good data file if it sets ``"kind": "subsample"``; ``...`` drops a
    key.  A dict after ``--model`` is the whole model file."""
    path, _ = dataset
    if argv[0] == "simulate" and isinstance(argv[1], dict):
        own = ({"kind": "subsample", "data": str(path), "outcome": "y", "risk": "p"}
               if argv[1].get("kind") == "subsample"
               else {"kind": "synthetic", "dgm": {"intercept": -1.55, "slopes": [0.77]}})
        raw = {**own, "sizes": [80], "thresholds": [0.2], "n_sims": 1, "n_reps": 20,
               "methods": ["bayes"], "seed": 0, **argv[1]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({k: v for k, v in raw.items() if v is not ...}),
                       encoding="utf-8")
        argv = ["simulate", "--config", str(cfg)]
    elif argv[0] in ("evpi", "dca"):
        grid = [] if "--max-threshold" in argv else ["--thresholds", "0.1,0.2"]
        argv = [argv[0], "--data", str(path), "--outcome", "y", "--risk", "p", *grid,
                "--n-reps", "50", *argv[1:]]
    elif isinstance(argv[-1], (list, dict)):
        model = tmp_path / "model.json"
        spec = argv[-1] if isinstance(argv[-1], dict) else {"intercept": 0.0, "terms": argv[-1]}
        model.write_text(json.dumps(spec), encoding="utf-8")
        argv = [*argv[:-1], str(model)]
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    argv = [a.format(tmp=tmp, data=path) for a in argv]
    named = named.format(tmp=tmp)
    proc = _cli_process(argv)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    rec = json.loads(line)
    assert rec["error"] == "input" and named in rec["message"]


def test_a_bad_population_is_refused_before_any_draw_is_dumped(capsys, dataset, tmp_path):
    path, _ = dataset
    code, out, err = run(capsys, [
        "evpi", "--data", str(path), "--outcome", "y", "--risk", "p", "--thresholds", "0.1,0.2",
        "--n-reps", "50", "--population", "-1", "--dump-draws", str(tmp_path / "d"),
    ])
    assert code == 2 and out == ""
    rec = json.loads(err)
    assert rec["error"] == "input" and "population multiplier" in rec["message"]
    assert not list(tmp_path.glob("d_*"))


@pytest.mark.parametrize("command", ["evpi", "dca"])
def test_draws_past_the_size_bound_exit_2_naming_shape_and_bytes(
        capsys, dataset, monkeypatch, command):
    """The bound is checked before the draw array is allocated; a small
    bound stands in for the real one, so nothing large is ever asked for."""
    import nbvoi.resample as resample_mod

    path, _ = dataset
    monkeypatch.setattr(resample_mod, "MAX_DRAW_BYTES", 8 * 50 * 2 * 2 - 1)
    code, out, err = run(capsys, [
        command, "--data", str(path), "--outcome", "y", "--risk", "p",
        "--thresholds", "0.1,0.2", "--n-reps", "50", "--method", "ordinary", "--out", "json",
    ])
    assert code == 2 and out == ""
    rec = json.loads(err.strip().splitlines()[-1])
    assert rec["error"] == "input"
    assert "(50, 2, 2)" in rec["message"] and "1600 bytes" in rec["message"]


def _patch_parser_default(parser, func):
    for action in parser._subparsers._group_actions[0].choices.values():
        action.set_defaults(func=func)
    return parser
