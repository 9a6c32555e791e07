"""The Tier-1 warning rule of ``conftest.py`` lets a failing hypothesis
test fail on its own: the session goes on and reports every test."""

import subprocess
import sys
from pathlib import Path

FAILING = """from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
"""

PASSING = """def test_passes():
    assert True
"""


def test_failing_given_test_does_not_end_the_session(tmp_path):
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "conftest.py").write_text((Path(__file__).parent / "conftest.py").read_text())
    (tests / "test_a_fails.py").write_text(FAILING)
    (tests / "test_b_passes.py").write_text(PASSING)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "FAILED tests/test_a_fails.py::test_fails" in out
    assert "1 failed, 1 passed" in out
