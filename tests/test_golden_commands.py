"""Golden outputs of every command, bootstrap streams included.

Each case runs one ``nbvoi`` command in-process on small inputs written by
the seeded numpy code below (never through ``nbvoi``, so a change to the
program cannot change what it is fed) and compares its output with
``golden_commands.json``: strings exactly, numbers within a relative 1e-9
or an absolute 1e-13, the rule of the benchmark's golden sweep.  A
reordered float sum passes; a changed random stream, block size or
resampling scheme fails.

A change that moves these outputs on purpose re-records the file, with the
numpy and scipy versions it ran under::

    PYTHONPATH=src python tests/test_golden_commands.py
"""

import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

from nbvoi import SmallEffectiveSampleWarning
from nbvoi.cli import main

GOLDEN = Path(__file__).with_name("golden_commands.json")
RTOL, ATOL = 1e-9, 1e-13

INTERCEPT, SLOPE = -1.55, 0.77
RISK_ROWS, SCORE_ROWS = 300, 40
MODEL = {"intercept": -5.0, "terms": {"age": 0.06, "pulse": 0.012}}
SWEEP = {
    "kind": "synthetic", "dgm": {"intercept": INTERCEPT, "slopes": [SLOPE]},
    "sizes": [60, 120], "thresholds": [0.1, 0.2, 0.3], "n_sims": 4, "n_reps": 300,
    "methods": ["bayes", "ordinary", "asymptotic"], "seed": 13, "workers": 1,
}

_RISK_ARGS = ["--data", "{risks}", "--outcome", "y", "--risk", "p", "--output", "{out}"]
COMMANDS = {
    "evpi_all_json": ["evpi", *_RISK_ARGS, "--thresholds", "0.1,0.2,0.3", "--n-reps", "400",
                      "--method", "all", "--seed", "11", "--out", "json"],
    "dca_bayes_json": ["dca", *_RISK_ARGS, "--thresholds", "0.05:0.3:0.05", "--n-reps", "300",
                       "--method", "bayes", "--seed", "12", "--out", "json"],
    "dca_ordinary_json": ["dca", *_RISK_ARGS, "--thresholds", "0.05:0.3:0.05",
                          "--n-reps", "300", "--method", "ordinary", "--seed", "12",
                          "--out", "json"],
    "evpi_population_csv": ["evpi", *_RISK_ARGS, "--thresholds", "0.01,0.1,0.2,0.5",
                            "--n-reps", "300", "--method", "all", "--seed", "14",
                            "--population", "1000", "--out", "csv"],
    "simulate_csv": ["simulate", "--config", "{config}", "--output", "{out}"],
    "score_csv": ["score", "--data", "{features}", "--outcome", "y", "--model", "{model}",
                  "--output", "{out}"],
}


def write_inputs(workdir: Path) -> dict[str, Path]:
    """The input files of the commands, the same bytes on every call."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([2024, 10])))
    x = rng.standard_normal(RISK_ROWS)
    risks = 1.0 / (1.0 + np.exp(-(INTERCEPT + SLOPE * x)))
    y = (rng.random(RISK_ROWS) < risks).astype(np.int64)
    age = np.round(60.0 + 12.0 * rng.standard_normal(SCORE_ROWS), 1)
    pulse = np.round(80.0 + 15.0 * rng.standard_normal(SCORE_ROWS), 1)
    died = rng.integers(0, 2, SCORE_ROWS)
    paths = {name: workdir / name for name in ("risks", "features", "model", "config")}
    paths["risks"].write_text("y,p\n" + "".join(
        f"{v},{p!r}\n" for v, p in zip(y.tolist(), risks.tolist())), encoding="utf-8")
    paths["features"].write_text("y,age,pulse\n" + "".join(
        f"{v},{a!r},{b!r}\n" for v, a, b in zip(died.tolist(), age.tolist(), pulse.tolist())),
        encoding="utf-8")
    paths["model"].write_text(json.dumps(MODEL), encoding="utf-8")
    paths["config"].write_text(json.dumps(SWEEP), encoding="utf-8")
    return paths


def run_command(name: str, workdir: Path):
    """The parsed output of one command: JSON as loaded, CSV as the cells of
    each line."""
    out = workdir / "out"
    paths = write_inputs(workdir)
    assert main([a.format(out=out, **paths) for a in COMMANDS[name]]) == 0
    text = out.read_text(encoding="utf-8")
    if name.endswith("_json"):
        return json.loads(text)
    return [line.split(",") for line in text.splitlines()]


def _number(value):
    """A finite JSON number, or a CSV cell that reads as one; else None."""
    if isinstance(value, bool) or value is None:
        return None
    try:
        v = float(value)
    except (TypeError, ValueError):
        return None
    return v if math.isfinite(v) else None


def mismatches(got, want, where: str = "") -> list[str]:
    """Where ``got`` differs from ``want``: a key, a length, a string or the
    type of a value, or a number by more than the tolerance."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return [f"{where}: keys {list(got) if isinstance(got, dict) else got!r} "
                    f"!= {list(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} is not a list of {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{where}[{i}]")]
    g, w = _number(got), _number(want)
    if type(got) is type(want) and (
            got == want if g is None or w is None else abs(g - w) <= max(RTOL * abs(w), ATOL)):
        return []
    return [f"{where}: {got!r} != {want!r}"]


@pytest.mark.filterwarnings("ignore::nbvoi.SmallEffectiveSampleWarning")
@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_output_matches_the_golden_record(tmp_path, name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_command(name, tmp_path)
    versions = (f"recorded under numpy {golden['numpy']}, scipy {golden['scipy']}; "
                f"running numpy {np.__version__}, scipy {scipy.__version__}")
    assert mismatches(got, golden["outputs"][name])[:10] == [], versions


def test_the_comparison_holds_strings_exactly_and_numbers_to_the_tolerance():
    want = {"a": [1.0, "model"], "b": [["0.25", "treat_all", ""]], "n": 3}
    assert mismatches({"a": [1.0 + 5e-10, "model"], "b": [["0.25000000001", "treat_all", ""]],
                       "n": 3}, want) == []
    for got in ({"a": [1.0 + 2e-9, "model"], "b": [["0.25", "treat_all", ""]], "n": 3},
                {"a": [1.0, "Model"], "b": [["0.25", "treat_all", ""]], "n": 3},
                {"a": [1.0, "model"], "b": [["0.25", "treat_all", "-"]], "n": 3},
                {"a": [1.0, "model"], "b": [["0.25", "treat_all", ""]], "n": 3.0},
                {"b": [["0.25", "treat_all", ""]], "a": [1.0, "model"], "n": 3},
                {"a": [1.0, "model", None], "b": [["0.25", "treat_all", ""]], "n": 3}):
        assert mismatches(got, want) != [], got
    assert mismatches([["1e-05", "nan"]], [["1.00000000001e-05", "nan"]]) == []


def record() -> None:
    """Run every command and write the golden file."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallEffectiveSampleWarning)
        outputs = {name: run_command(name, Path(tmp)) for name in COMMANDS}
    golden = {"numpy": np.__version__, "scipy": scipy.__version__, "outputs": outputs}
    GOLDEN.write_text(json.dumps(golden, indent=1, allow_nan=False) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(record())
