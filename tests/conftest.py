"""Tier-1 runs warning-free: a warning that a test does not expect fails it.

The rule is a ``filterwarnings("error")`` mark on every test in this
directory, below the test's own marks, which still take precedence.  It is
not ``pyproject.toml``'s ``filterwarnings``, which would also reach
``bench/test_bench.py``.

hypothesis reports a failing example through ``hypothesis.extra._patching``,
whose first import (libcst, mypy_extensions) raises a DeprecationWarning.
Under a test's error rule that warning would end the whole session with an
INTERNALERROR, so the module is imported once here, with that warning
ignored.
"""

import warnings
from pathlib import Path

import pytest

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.is_relative_to(HERE):
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)
