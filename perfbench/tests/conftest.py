"""Self-tests of the benchmark: ``python3 -m pytest perfbench/tests -q``
from the repository root."""

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(autouse=True)
def at_root():
    """Workload inputs are written and read relative to the root."""
    old = os.getcwd()
    os.chdir(ROOT)
    yield
    os.chdir(old)
