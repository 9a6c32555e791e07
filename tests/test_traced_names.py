"""Every function the benchmark's tracer times exists in the program.

``bench/tracer.py`` skips a ``TARGETS`` name the program no longer has and
reports it, so the metrics of a removed or renamed function would read 0
unnoticed.  The tracer is loaded by path, without writing bytecode.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("layer", sorted(TARGETS))
def test_every_traced_name_resolves_in_its_module(layer):
    module = importlib.import_module(f"nbvoi.{layer}")
    assert [f for f in TARGETS[layer] if not callable(getattr(module, f, None))] == []
