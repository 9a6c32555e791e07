"""Tests of the benchmark itself: inputs, output checks, tracing, spec.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

The checkers must pass a real job's output and fail it once it is corrupted.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from nbvoi.cli import main as cli_main  # noqa: E402


def _cli(tmp_path: Path, args: list[str]) -> str:
    out = tmp_path / "out.csv"
    assert cli_main([*args, "--output", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def _replace_field(text: str, line_no: int, col: str, new) -> str:
    """Return ``text`` with field ``col`` of data line ``line_no`` replaced."""
    lines = text.splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0].split(",")
    data = [i for i, ln in enumerate(lines) if not ln.startswith("#")][1:]
    fields = lines[data[line_no]].split(",")
    fields[header.index(col)] = new if isinstance(new, str) else repr(new)
    lines[data[line_no]] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _scale_field(text: str, line_no: int, col: str, factor: float) -> str:
    row = list(csv.DictReader(ln for ln in text.splitlines() if not ln.startswith("#")))[line_no]
    return _replace_field(text, line_no, col, float(row[col]) * factor)


def _drop_line(text: str, line_no: int) -> str:
    lines = text.splitlines()
    data = [i for i, ln in enumerate(lines) if not ln.startswith("#")][1:]
    del lines[data[line_no]]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def dca_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("dca")
    y, risks = inputs.synthetic_rows(7, "dca", inputs.DCA_ROWS)
    inputs.write_risk_csv(tmp / "dca.csv", y, risks)
    text = _cli(tmp, ["dca", "--data", str(tmp / "dca.csv"), "--outcome", "y", "--risk", "p",
                      "--n-reps", "200", "--seed", "7"])
    return text, y, risks


@pytest.fixture(scope="module")
def evpi_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("evpi")
    y, risks = inputs.synthetic_rows(7, "registry", 5_000)
    inputs.write_risk_csv(tmp / "reg.csv", y, risks)
    text = _cli(tmp, ["evpi", "--data", str(tmp / "reg.csv"), "--outcome", "y", "--risk", "p",
                      "--thresholds", "0.1,0.2,0.3", "--n-reps", "400", "--seed", "7",
                      "--out", "csv"])
    return text, y, risks


@pytest.fixture(scope="module")
def sweep_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    config = inputs.golden_sweep_config()
    (tmp / "golden.json").write_text(json.dumps(config), encoding="utf-8")
    text = _cli(tmp, ["simulate", "--config", str(tmp / "golden.json")])
    return text, config


def test_inputs_depend_only_on_seed(tmp_path):
    a, b, c = (tmp_path / d for d in "abc")
    for d, seed in ((a, 3), (b, 3), (c, 4)):
        d.mkdir()
        inputs.write_inputs("dca_grid", seed, d)
    sha = [inputs.sha256_file(d / "dca.csv") for d in (a, b, c)]
    assert sha[0] == sha[1] != sha[2]
    text = (a / "dca.csv").read_text()
    assert "np.float64" not in text and text.startswith("y,p\n")


def test_dca_checker_passes_real_output(dca_case):
    text, y, risks = dca_case
    assert checks.check_dca(text, y, risks, run.DCA_THRESHOLDS) == []


def test_dca_checker_fails_one_row_miscount(dca_case):
    text, y, risks = dca_case
    i, z = 99, run.DCA_THRESHOLDS[99]
    nb_m, _ = checks.oracle_nb(y, risks, z)
    one_row = (z / (1 - z)) / y.shape[0]  # one non-event more flagged
    bad = _replace_field(text, i, "nb_model", nb_m - one_row)
    assert checks.check_dca(bad, y, risks, run.DCA_THRESHOLDS)


@pytest.mark.parametrize("corrupt", [
    lambda t: _drop_line(t, 150),
    lambda t: _replace_field(t, 3, "nb_all_lo", "1.0"),
    lambda t: _replace_field(t, 5, "degenerate", "true"),
    lambda t: _replace_field(t, 0, "nb_all", "nan"),
    lambda t: t.replace("nb_model_hi", "nb_model_upper"),
])
def test_dca_checker_fails_corrupted_output(dca_case, corrupt):
    text, y, risks = dca_case
    assert checks.check_dca(corrupt(text), y, risks, run.DCA_THRESHOLDS)


def test_evpi_checker_passes_real_output(evpi_case):
    text, y, risks = evpi_case
    assert checks.check_evpi(text, y, risks, run.EVPI_THRESHOLDS, 400) == []


@pytest.mark.parametrize("corrupt", [
    lambda t: _drop_line(t, 4),
    lambda t: _replace_field(t, 0, "evpi", 0.01),
    lambda t: _replace_field(t, 1, "evpi", -1e-9),
    lambda t: _replace_field(t, 3, "p_useful", 1.5),
    lambda t: _replace_field(t, 2, "enb_current", "0.5"),
    lambda t: _replace_field(t, 4, "n_reps", "399"),
])
def test_evpi_checker_fails_corrupted_output(evpi_case, corrupt):
    text, y, risks = evpi_case
    assert checks.check_evpi(corrupt(text), y, risks, run.EVPI_THRESHOLDS, 400)


def test_evpi_checker_fails_one_row_miscount_in_asymptotic(evpi_case):
    text, y, risks = evpi_case
    nb_m, nb_a = checks.oracle_nb(y, risks, 0.3)
    bad = _replace_field(text, 8, "enb_current", max(0.0, nb_m, nb_a) + 1 / y.shape[0])
    assert checks.check_evpi(bad, y, risks, run.EVPI_THRESHOLDS, 400)


def test_sweep_matches_golden(sweep_case):
    text, config = sweep_case
    assert checks.check_sweep(text, config, checks.load_golden()) == []


def _golden_row(size: int, z: float) -> int:
    return [(r[0], r[1]) for r in checks.load_golden()].index((size, z))


def test_sweep_golden_admits_reordered_arithmetic(sweep_case):
    """A ~1e-16 absolute move, what a 1e-15 relative change in the NB
    values gives, passes even on a row whose EVPI is ~1e-14."""
    text, config = sweep_case
    i = _golden_row(4000, 0.2)
    mean = checks.load_golden()[i][2]
    assert mean < 1e-13
    moved = _replace_field(text, i, "mean_evpi", mean + 2e-16)
    assert checks.check_sweep(moved, config, checks.load_golden()) == []


@pytest.mark.parametrize("corrupt", [
    lambda t: _drop_line(t, 17),
    lambda t: _scale_field(t, _golden_row(250, 0.3), "mean_evpi", 1 + 1e-6),
    lambda t: _scale_field(t, _golden_row(1000, 0.01), "mean_evpi", 0.5),
    lambda t: _replace_field(t, 10, "mc_se", "-0.0001"),
    lambda t: t.replace("# seed: 0", "# seed: 1"),
])
def test_sweep_checker_fails_corrupted_output(sweep_case, corrupt):
    text, config = sweep_case
    assert checks.check_sweep(corrupt(text), config, checks.load_golden())


def test_golden_job_passes(tmp_path):
    assert run.golden_problems(run.Runner(tmp_path)) == []


def test_refuses_seconds_beyond_run_limit(monkeypatch):
    def no_child(*args, **kwargs):
        raise AssertionError("a child was started")
    monkeypatch.setattr(run.subprocess, "Popen", no_child)
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "dca_grid", "--seed", "1", "--seconds", "160", "--trace", "0"])
    assert exc.value.code == 2


def test_self_time_subtracts_child_spans():
    record = {
        "names": ["cli.main", "voi.moments", "netbenefit.nb_model"],
        # main [0, 10] > moments [1, 5] > nb_model [2, 3]; moments [6, 7]
        "spans": [[0, 0.0, 10.0, -1], [1, 1.0, 5.0, 0], [2, 2.0, 3.0, 1], [1, 6.0, 7.0, 0]],
        "counters": {}, "import_s": 1.0, "main_s": 10.0, "dump_s": 0.5,
    }
    stats = tracer.aggregate(record)
    assert stats["cli.main"]["self_s"] == pytest.approx(5.0)
    assert stats["voi.moments"] == {"calls": 2, "total_s": 5.0, "self_s": 4.0}
    m = tracer.layer_metrics(record, wall_s=12.0)
    assert m["layer.netbenefit.self_s"] == pytest.approx(1.0)
    assert m["voi.moments.calls"] == 2
    assert m["trace.coverage"] == pytest.approx(11.0 / 11.5)


def test_traced_child_records_spans_and_keeps_output(tmp_path, dca_case):
    _, y, risks = dca_case
    inputs.write_risk_csv(tmp_path / "dca.csv", y, risks)
    runner = run.Runner(tmp_path)
    args = ["dca", "--data", str(tmp_path / "dca.csv"), "--outcome", "y", "--risk", "p",
            "--n-reps", "200", "--seed", "7", "--output"]
    assert runner.cli([*args, str(tmp_path / "plain.csv")]).rc == 0
    out = tmp_path / "traced.csv"
    job = runner.spawn([sys.executable, str(Path(tracer.__file__)), str(tmp_path / "spans.json"),
                        "--", *args, str(out)])
    assert job.rc == 0, job.stderr
    assert out.read_bytes() == (tmp_path / "plain.csv").read_bytes()
    record = tracer.read_spans(tmp_path / "spans.json")
    assert record["missing"] == []
    m = tracer.layer_metrics(record, job.wall_s)
    assert m["netbenefit.nb_model.calls"] == 200
    assert m["rng.substream.calls"] == 200
    assert m["io.rows_parsed"] == inputs.DCA_ROWS
    assert m["resample.variates_drawn"] == 200 * inputs.DCA_ROWS
    assert 0.5 < m["trace.coverage"] <= 1.0


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracer.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "dca_grid", "--seed",
                           "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
