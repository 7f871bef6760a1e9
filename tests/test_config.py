"""Tolerance policy and certificate invariants."""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

import woldlab

from woldlab.certificates import Certificate
from woldlab.config import MAX_TOLERANCE, tolerance
from woldlab.core import BasisIndex, HVector, LaneSpec, StructuredIsometry, TailRule
from woldlab.errors import InvalidOperatorError, MalformedInputError


def test_tolerance_default():
    assert tolerance() == 1e-9


def test_tolerance_env_override(monkeypatch):
    monkeypatch.setenv("WOLDLAB_TOLERANCE", "1e-3")
    assert tolerance() == 1e-3


def test_tolerance_rejects_garbage(monkeypatch):
    monkeypatch.setenv("WOLDLAB_TOLERANCE", "soon")
    with pytest.raises(MalformedInputError):
        tolerance()
    monkeypatch.setenv("WOLDLAB_TOLERANCE", "-1")
    with pytest.raises(MalformedInputError):
        tolerance()


@pytest.mark.parametrize("raw", ["1", "inf", "nan", repr(MAX_TOLERANCE)])
def test_tolerance_rejects_vacuous_values(monkeypatch, raw):
    """At 1 every unit vector would count as zero; the bound and non-finite
    values are refused."""
    monkeypatch.setenv("WOLDLAB_TOLERANCE", raw)
    with pytest.raises(MalformedInputError, match="below"):
        tolerance()


def test_loose_tolerance_admits_sloppy_columns(monkeypatch):
    build = lambda: StructuredIsometry(
        [LaneSpec(0, "finite", 1), LaneSpec(1, "naturals")],
        {BasisIndex(0, 0): HVector.basis(0, 0, 0.999)},
        [TailRule(1, 0, 1, 1)],
    )
    with pytest.raises(InvalidOperatorError):
        build()
    monkeypatch.setenv("WOLDLAB_TOLERANCE", "0.01")
    build()


def test_tolerances_are_named_in_config():
    """No ``1e-N`` literal in the package outside ``config.py``, where each
    tolerance is named with its role (comments and strings do not count)."""
    package = Path(woldlab.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "config.py":
            continue
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        found += [f"{path.name}:{tok.start[0]}: {tok.string}" for tok in tokens
                  if tok.type == tokenize.NUMBER
                  and re.fullmatch(r"[\d.]*[eE]-\d+", tok.string)]
    assert found == []


def test_only_linalg_imports_numpy():
    """One linear-algebra layer: ``_linalg`` is the only module of the
    package that imports numpy."""
    package = Path(woldlab.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "numpy"]
    assert all(entry.startswith("_linalg.py:") for entry in found)
    assert found


def test_core_imports_no_analysis_layer():
    """``core`` sits below the analyses: no import in it, at module level or
    inside a function, names ``wold``, ``pairs``, ``catalog`` or ``cli``."""
    path = Path(woldlab.__file__).parent / "core.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ([alias.name for alias in node.names]
                     if node.module in (None, "woldlab") else [node.module])
        else:
            continue
        found += [f"{name}:{node.lineno}" for name in names
                  if name.removeprefix("woldlab.").split(".")[0]
                  in ("wold", "pairs", "catalog", "cli")]
    assert found == []


def test_certificate_invariants():
    with pytest.raises(ValueError):
        Certificate("false", witness=None)
    with pytest.raises(ValueError):
        Certificate("undecided", exact=True)
    with pytest.raises(ValueError):
        Certificate("maybe")
    cert = Certificate("true", horizon=8, exact=True)
    assert cert.is_true and not cert.is_false and not cert.is_undecided
