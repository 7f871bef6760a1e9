"""Shared fixtures: catalog operators.  The seeded sample generators live
in ``samples.py``."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from woldlab import catalog


@pytest.fixture
def shift():
    return catalog.unilateral_shift()


@pytest.fixture
def bilateral():
    return catalog.bilateral_shift()


@pytest.fixture
def fixed_plus_shift():
    return catalog.example_fixed_plus_shift()
