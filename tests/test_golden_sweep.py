"""The benchmark's seed-0 golden sweep, as a unit test.

``bench/golden_sweep_seed0.json`` records the asymptotic EVPI of a small
seed-0 sweep; the benchmark compares every sweep run with it.  This test
runs the same config through ``nbvoi simulate`` and applies the same check,
so a change to the asymptotic route that moves those numbers fails here
too.  Its lowest thresholds are thin at the smaller sizes, which the sweep
warns about.  The benchmark's modules are loaded by path, without writing
bytecode.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from nbvoi import SmallEffectiveSampleWarning
from nbvoi.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_golden_sweep_matches_the_recorded_values(capsys, tmp_path):
    inputs, checks = _load("inputs"), _load("checks")
    cfg = inputs.golden_sweep_config()
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    with pytest.warns(SmallEffectiveSampleWarning, match=r"\(250, 0\.01\)"):
        assert main(["simulate", "--config", str(path)]) == 0
    assert checks.check_sweep(capsys.readouterr().out, cfg, checks.load_golden()) == []
