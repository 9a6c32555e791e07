"""Tier-1 runs warning-free: a warning that a test does not expect fails it.

The rule is a ``filterwarnings("error")`` mark on every test in this
directory, below the test's own marks, which still take precedence.  It is
not ``pyproject.toml``'s ``filterwarnings``, which would also reach
``bench/test_bench.py``.
"""

from pathlib import Path

import pytest

HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.is_relative_to(HERE):
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)
