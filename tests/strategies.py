"""Hypothesis strategies for the parsers' inputs.

Inputs are the catalog's own descriptions with tokens or values replaced,
inserted or dropped, lines of tokens drawn freely, and free text.
Replacement tokens mix the grammar's words with edge values: zero
denominators, non-finite and overflowing numbers, integers beyond any
machine size.
"""

from __future__ import annotations

import copy
import json

from hypothesis import strategies as st

from woldlab import catalog, fileformat, serialize

EDGE_TOKENS = [
    "lane", "column", "tail", "naturals", "integers", "finite", "label",
    "=", ";", "->", "offset", "phase", "#", "0", "1", "2", "-1", "1/4",
    "1/0", "0.5", "-0.5", "1e308", "-1e308", "1e400", "nan", "inf", "-inf",
    "99999999999999999999", "0:0", "1:0", "0:-1", "1:1:1", ":", "a:b",
    "0:99999999999999999999", "1+1i", "1j", "", "\"", "null",
]
token = st.one_of(st.sampled_from(EDGE_TOKENS), st.text(max_size=4))

OPERATOR_TEXTS = [fileformat.format_operator(entry.build())
                  for entry in catalog.fixtures() if entry.kind == "operator"]


@st.composite
def edited_operators(draw):
    """A catalog description with a few lines edited (a token replaced,
    inserted or dropped, or the line cut short) or new lines of tokens."""
    lines = [line.split(" ") for line in
             draw(st.sampled_from(OPERATOR_TEXTS)).splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, len(lines)))
        if n == len(lines):
            lines.insert(draw(st.integers(0, n)),
                         draw(st.lists(token, max_size=9)))
            continue
        tokens = lines[n]
        if not tokens:
            tokens.append(draw(token))
            continue
        at = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(["replace", "insert", "drop", "cut"]))
        if edit == "replace":
            tokens[at] = draw(token)
        elif edit == "insert":
            tokens.insert(at, draw(token))
        elif edit == "drop":
            del tokens[at]
        else:
            del tokens[at:]
    return "\n".join(" ".join(tokens) for tokens in lines)


operator_texts = edited_operators() | st.text(max_size=40)

spectral_value = st.sampled_from([
    "1/4", 0.5, 2, -1, 10 ** 30, float("nan"), float("inf"), "1/0", "nan",
    "1e400", "x", None, [], {},
]).map(copy.deepcopy)  # the lists and dicts get edited

SPECTRAL_DATA = [serialize.spectral_to_jsonable(entry.build())
                 for entry in catalog.fixtures() if entry.kind == "spectral"]
SPECTRAL_DATA += [
    {"arcs": [], "atoms": [{"angle": "1/3", "mult": 2}]},
    {"arcs": [{"start": "1/4", "length": "1/2"}],
     "atoms": [{"angle": 0.5, "mult": 1}, {"angle": "3/4", "mult": 3}]},
]


@st.composite
def edited_spectra(draw):
    """A well-formed description with a few entry values replaced, or an
    entry or list swapped for something else."""
    data = copy.deepcopy(draw(st.sampled_from(SPECTRAL_DATA)))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(["arcs", "atoms"]))
        items = data[key]
        if not isinstance(items, list) or not items \
                or draw(st.integers(0, 9)) == 0:
            data[key] = draw(spectral_value)
            continue
        at = draw(st.integers(0, len(items) - 1))
        if not isinstance(items[at], dict) or draw(st.integers(0, 9)) == 0:
            items[at] = draw(spectral_value)
            continue
        keys = sorted(items[at]) or ["stray"]
        if not draw(st.integers(0, 9)):
            keys = ["stray"]
        items[at][draw(st.sampled_from(keys))] = draw(spectral_value)
    return data


spectral_data = edited_spectra() | spectral_value
spectral_texts = spectral_data.map(json.dumps) | st.text(max_size=40)

vector_literals = st.lists(st.one_of(
    st.builds("{}={}".format, st.sampled_from(EDGE_TOKENS),
              st.sampled_from(EDGE_TOKENS)),
    token), max_size=4).map(",".join)
