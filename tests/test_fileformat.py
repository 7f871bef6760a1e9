"""Operator description files, spectral JSON and vector literals."""

import pytest
from hypothesis import given, settings

from strategies import (
    operator_texts,
    spectral_data,
    spectral_texts,
    vector_literals,
)
from woldlab import catalog, fileformat
from woldlab.core import BasisIndex
from woldlab.errors import (
    DescriptionParseError,
    MalformedInputError,
    WoldlabError,
)

SAMPLE = """
# fixed point plus shift
lane 0 finite 1 label f
lane 1 naturals label e
column 0:0 = 0:0 1 0
tail 1 0 -> 1 offset 1 phase 0
"""


def test_parse_sample_operator():
    op = fileformat.parse_operator(SAMPLE, name="sample")
    assert [l.kind for l in op.lanes] == ["finite", "naturals"]
    assert op.apply(fileformat.parse_vector_literal("0:0=1")).approx_equals(
        fileformat.parse_vector_literal("0:0=1")
    )


def test_roundtrip_all_catalog_operators():
    for entry in catalog.fixtures():
        if entry.kind != "operator":
            continue
        op = entry.build()
        text = fileformat.format_operator(op)
        parsed = fileformat.parse_operator(text, name=entry.name)
        assert parsed.same_lanes(op), entry.name
        for idx in op.window_indices(5):
            e = fileformat.parse_vector_literal(f"{idx.lane}:{idx.position}=1")
            assert parsed.apply(e).approx_equals(op.apply(e), 1e-9), entry.name


def test_parse_error_reports_line():
    bad = "lane 0 naturals\nbogus directive\n"
    with pytest.raises(DescriptionParseError, match="line 2"):
        fileformat.parse_operator(bad)


def test_parse_error_on_bad_index():
    bad = "lane 0 naturals\ncolumn zero = 0:0 1 0\ntail 0 0 -> 0 offset 1 phase 0\n"
    with pytest.raises(DescriptionParseError, match="line 2"):
        fileformat.parse_operator(bad)


def test_phase_quarter_turn_is_exact():
    text = "lane 0 integers\ntail 0 0 -> 0 offset 1 phase 1/4\n"
    op = fileformat.parse_operator(text)
    image = op.apply(fileformat.parse_vector_literal("0:0=1"))
    assert image.coefficient(BasisIndex(0, 1)) == 1j


def test_parse_spectral_fraction_strings():
    u = fileformat.parse_spectral(
        '{"arcs": [{"start": "0", "length": "3/5"}], '
        '"atoms": [{"angle": "1/3", "mult": 2}]}'
    )
    assert len(u.continuous_pieces) == 1
    assert u.atoms[0][1] == 2


def test_parse_spectral_rejects_garbage():
    with pytest.raises(DescriptionParseError):
        fileformat.parse_spectral("not json")
    with pytest.raises(DescriptionParseError):
        fileformat.parse_spectral('{"arcs": [{"start": 0}]}')


def test_vector_literal_complex_coefficients():
    v = fileformat.parse_vector_literal("0:0=0.5+0.5i, 0:2=-1, 1:-3=2i")
    assert v.coefficient(BasisIndex(0, 0)) == 0.5 + 0.5j
    assert v.coefficient(BasisIndex(0, 2)) == -1
    assert v.coefficient(BasisIndex(1, -3)) == 2j


def test_vector_literal_rejects_zero():
    with pytest.raises(MalformedInputError):
        fileformat.parse_vector_literal("0:0=0")


def test_vector_literal_rejects_garbage():
    with pytest.raises(MalformedInputError):
        fileformat.parse_vector_literal("0:0")
    with pytest.raises(MalformedInputError):
        fileformat.parse_vector_literal("0:0=abc")


# -- every input parses or is refused with a WoldlabError ------------------------
#
# Derandomized, so every run tries the same inputs.

PARSER_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def _parses_or_refuses(parse, arg):
    try:
        parse(arg)
    except WoldlabError:
        pass


@PARSER_SETTINGS
@given(operator_texts)
def test_parse_operator_parses_or_refuses(text):
    _parses_or_refuses(fileformat.parse_operator, text)


@PARSER_SETTINGS
@given(spectral_data | spectral_texts)
def test_parse_spectral_parses_or_refuses(data):
    _parses_or_refuses(fileformat.parse_spectral, data)


@PARSER_SETTINGS
@given(vector_literals)
def test_parse_vector_literal_parses_or_refuses(text):
    _parses_or_refuses(fileformat.parse_vector_literal, text)
