"""Text and JSON interchange formats.

Operator description files are line based::

    # comment
    lane 0 naturals label e
    lane 1 finite 2 label c
    column 1:0 = 1:1 1 0
    column 1:1 = 1:0 1 0
    tail 0 0 -> 0 offset 1 phase 0

``lane`` declares a lane (kind ``naturals``/``integers``/``finite <n>``),
``column`` gives one explicit column as ``src = idx re im [; idx re im]...``
and ``tail`` declares a rule ``source threshold -> target offset phase`` with
the phase given in turns (1/4 means multiplication by i).

Spectral descriptions are JSON: ``{"arcs": [{"start", "length"}],
"atoms": [{"angle", "mult"}]}`` with angles as numbers or exact fraction
strings.

Vector literals for the CLI are comma-separated ``lane:position=coeff``
items where the coefficient is a real or complex number such as ``1``,
``-0.5`` or ``0.5+0.5i``.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction

from .config import EXACT_PHASE_TOL
from .core import BasisIndex, HVector, LaneSpec, StructuredIsometry, TailRule
from .errors import DescriptionParseError, MalformedInputError
from .spectral import Arc, SpectralUnitary, as_angle

_EXACT_PHASES = {
    Fraction(0): 1 + 0j,
    Fraction(1, 4): 1j,
    Fraction(1, 2): -1 + 0j,
    Fraction(3, 4): -1j,
}


def phase_from_turns(turns) -> complex:
    f = as_angle(turns)
    if f in _EXACT_PHASES:
        return _EXACT_PHASES[f]
    return cmath.exp(2j * cmath.pi * float(f))


def _parse_index(token: str, line: int) -> BasisIndex:
    try:
        lane_text, pos_text = token.split(":")
        return BasisIndex(int(lane_text), int(pos_text))
    except ValueError:
        raise DescriptionParseError(
            f"bad basis index {token!r}, expected lane:position", line
        ) from None


def parse_operator(text: str, name: str | None = None) -> StructuredIsometry:
    lanes: list[LaneSpec] = []
    columns: dict[BasisIndex, HVector] = {}
    rules: list[TailRule] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        try:
            if head == "lane":
                lane_id = int(tokens[1])
                kind = tokens[2]
                rest = tokens[3:]
                size = None
                if kind == "finite":
                    size = int(rest[0])
                    rest = rest[1:]
                label = None
                if rest:
                    if rest[0] != "label":
                        raise DescriptionParseError(
                            f"unexpected token {rest[0]!r}", line_no
                        )
                    label = " ".join(rest[1:])
                lanes.append(LaneSpec(lane_id, kind, size, label))
            elif head == "column":
                if tokens[2] != "=":
                    raise DescriptionParseError(
                        "column syntax is 'column SRC = IDX RE IM [; ...]'", line_no
                    )
                src = _parse_index(tokens[1], line_no)
                entries = []
                chunk: list[str] = []
                for token in tokens[3:] + [";"]:
                    if token == ";":
                        if chunk:
                            if len(chunk) != 3:
                                raise DescriptionParseError(
                                    "each column entry needs 'IDX RE IM'", line_no
                                )
                            idx = _parse_index(chunk[0], line_no)
                            entries.append(
                                (idx, complex(float(chunk[1]), float(chunk[2])))
                            )
                            chunk = []
                    else:
                        chunk.append(token)
                if src in columns:
                    raise DescriptionParseError(f"duplicate column for {src}", line_no)
                column = HVector(entries)
                # float products round to inf instead of raising, so an
                # overflowing squared norm shows as a non-finite sum
                if not math.isfinite(sum(c.real * c.real + c.imag * c.imag
                                         for c in column._entries.values())):
                    raise DescriptionParseError(
                        f"column {src} is not finite or its squared norm "
                        "overflows", line_no
                    )
                columns[src] = column
            elif head == "tail":
                if tokens[3] != "->" or tokens[5] != "offset" or tokens[7] != "phase":
                    raise DescriptionParseError(
                        "tail syntax is 'tail SRC THRESHOLD -> TARGET "
                        "offset N phase TURNS'", line_no
                    )
                rules.append(TailRule(
                    source_lane=int(tokens[1]),
                    threshold=int(tokens[2]),
                    target_lane=int(tokens[4]),
                    offset=int(tokens[6]),
                    phase=phase_from_turns(tokens[8]),
                ))
            else:
                raise DescriptionParseError(f"unknown directive {head!r}", line_no)
        except DescriptionParseError:
            raise
        except (MalformedInputError, ValueError, IndexError) as exc:
            raise DescriptionParseError(str(exc), line_no) from exc
    if not lanes:
        raise DescriptionParseError("no lane declarations found")
    return StructuredIsometry(lanes, columns, rules, name=name)


def format_operator(op: StructuredIsometry) -> str:
    lines = []
    for lane in op.lanes:
        parts = ["lane", str(lane.lane_id), lane.kind]
        if lane.kind == "finite":
            parts.append(str(lane.size))
        if lane.label:
            parts.extend(["label", lane.label])
        lines.append(" ".join(parts))
    for src in sorted(op.explicit_columns):
        entries = " ; ".join(
            f"{idx} {c.real!r} {c.imag!r}"
            for idx, c in op.explicit_columns[src].items()
        )
        lines.append(f"column {src} = {entries}")
    for rule in op.tail_rules:
        turns = _phase_to_turns(rule.phase)
        lines.append(
            f"tail {rule.source_lane} {rule.threshold} -> {rule.target_lane} "
            f"offset {rule.offset} phase {turns}"
        )
    return "\n".join(lines) + "\n"


def _phase_to_turns(phase: complex) -> str:
    for turns, value in _EXACT_PHASES.items():
        if abs(phase - value) < EXACT_PHASE_TOL:
            return str(turns)
    angle = cmath.phase(phase) / (2 * cmath.pi) % 1.0
    return repr(angle)


def parse_spectral(data) -> SpectralUnitary:
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise DescriptionParseError(f"bad spectral JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DescriptionParseError("spectral description must be a JSON object")
    if not all(isinstance(data.get(key, []), list) for key in ("arcs", "atoms")):
        raise DescriptionParseError('"arcs" and "atoms" must be lists')
    arcs = []
    for item in data.get("arcs", []):
        try:
            arcs.append(Arc(_read_fraction(item["start"]),
                            _read_fraction(item["length"])))
        except (KeyError, TypeError) as exc:
            raise DescriptionParseError(f"bad arc entry {item!r}") from exc
    atoms = []
    for item in data.get("atoms", []):
        try:
            atoms.append((as_angle(_read_fraction(item["angle"])),
                          int(item["mult"])))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DescriptionParseError(f"bad atom entry {item!r}") from exc
    return SpectralUnitary(tuple(arcs), tuple(atoms))


def _read_fraction(value):
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise DescriptionParseError(
                f"cannot read a fraction from {value!r}") from None
    if isinstance(value, (int, float)):
        return value
    raise MalformedInputError(f"cannot read a fraction from {value!r}")


def parse_vector_literal(text: str) -> HVector:
    entries = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise MalformedInputError(
                f"bad vector item {part!r}, expected lane:position=coeff"
            )
        index_text, coeff_text = part.split("=", 1)
        idx = _parse_index(index_text.strip(), line=0)
        coeff_text = coeff_text.strip().replace("i", "j")
        try:
            coeff = complex(coeff_text)
        except ValueError:
            raise MalformedInputError(
                f"bad coefficient {coeff_text!r} in vector literal"
            ) from None
        if not cmath.isfinite(coeff):
            raise MalformedInputError(
                f"coefficient {coeff_text!r} in vector literal is not finite"
            )
        entries.append((idx, coeff))
    vector = HVector(entries)
    if vector.is_zero():
        raise MalformedInputError("the vector literal is (numerically) zero")
    # overflow-safe: hypot scales, and the product is inf rather than raising
    norm = math.hypot(*(part for _, c in vector.items()
                        for part in (c.real, c.imag)))
    if not math.isfinite(norm * norm):
        raise MalformedInputError(
            "the vector literal is too large: its squared norm overflows"
        )
    return vector
