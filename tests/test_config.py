"""Tolerance policy and certificate invariants."""

import pytest

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


def test_certificate_invariants():
    with pytest.raises(ValueError):
        Certificate("false", witness=None)
    with pytest.raises(ValueError):
        Certificate("undecided", exact=True)
    with pytest.raises(ValueError):
        Certificate("maybe")
    cert = Certificate("true", horizon=8, exact=True)
    assert cert.is_true and not cert.is_false and not cert.is_undecided
