"""Seeded input generator for the benchmark.

Everything here is plain Python driven by the ``random.Random`` the caller
passes, so a seed always gives the same description files and vector
literals.  woldlab itself never runs here: it only ever sees the text this
module writes.

* ``random_shape`` draws an operator's structure: 1-3 lanes of naturals,
  integer and finite kinds, tail rules that permute the infinite lanes of
  each kind with varied thresholds and offsets, and dense or monomial
  explicit columns.
* ``random_isometry`` writes a description file for a shape: tail phases,
  and explicit columns that are orthonormal on the indices no tail reaches.
* ``random_vector`` writes a vector literal for the CLI ``--vector`` flag.
* ``random_spectral`` writes a spectral description: arcs and atoms at
  rational angles.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

PHASES = ("0", "1/4", "1/2", "3/4", "1/3", "1/6", "5/6")
COEFFS = ("1", "-1", "1i", "-1i", "0.5+0.5i", "0.6-0.8i", "-0.25+1i", "2")
DENOMINATORS = (2, 3, 4, 5, 6, 8, 12)


def _orthonormal_columns(rnd: random.Random, count: int, dim: int) -> list:
    """``count`` orthonormal vectors in C^dim (complex Gram-Schmidt)."""
    out: list[list[complex]] = []
    while len(out) < count:
        v = [complex(rnd.gauss(0, 1), rnd.gauss(0, 1)) for _ in range(dim)]
        for _ in range(2):
            for b in out:
                c = sum(x * y.conjugate() for x, y in zip(v, b))
                v = [x - c * y for x, y in zip(v, b)]
        n = math.sqrt(sum(abs(x) ** 2 for x in v))
        if n > 1e-3:
            out.append([x / n for x in v])
    return out


def _nat_offsets(rnd: random.Random, count: int) -> list[tuple[int, int]]:
    """(threshold, offset) per naturals rule.  The offsets may be negative
    but sum to at least zero: the sum is the dimension of ker V*, and a
    negative sum would leave more explicit columns than free indices."""
    while True:
        rules = []
        for _ in range(count):
            threshold = rnd.randint(0, 3)
            offset = rnd.choice((-1, 0, 1, 1, 2))
            if threshold + offset < 0:
                offset = -threshold
            rules.append((threshold, offset))
        if sum(o for _, o in rules) >= 0:
            return rules


@dataclass(frozen=True)
class Shape:
    """The structure of an operator: lanes (id, kind, size), tail rules
    (source, threshold, target, offset), and whether its explicit columns
    are dense or monomial.  Most of a query's cost follows from these."""

    lanes: tuple
    rules: tuple
    dense: bool


def random_shape(rnd: random.Random) -> Shape:
    lanes = []
    for lane_id in range(rnd.randint(1, 3)):
        kind = rnd.choice(("naturals", "naturals", "integers", "finite"))
        size = rnd.randint(1, 3) if kind == "finite" else None
        lanes.append((lane_id, kind, size))
    naturals = [lid for lid, kind, _ in lanes if kind == "naturals"]
    integers = [lid for lid, kind, _ in lanes if kind == "integers"]
    rules = []
    targets = naturals[:]
    rnd.shuffle(targets)
    for source, target, (threshold, offset) in zip(
            naturals, targets, _nat_offsets(rnd, len(naturals))):
        rules.append((source, threshold, target, offset))
    targets = integers[:]
    rnd.shuffle(targets)
    for source, target in zip(integers, targets):
        rules.append((source, rnd.randint(0, 2), target, rnd.randint(-2, 2)))
    return Shape(tuple(lanes), tuple(rules), rnd.random() >= 0.75)


def random_isometry(shape: Shape, rnd: random.Random) -> str:
    """Description text of a random structured isometry of this shape:
    ``rnd`` draws the phases, the column values and the labels."""
    kinds = {lid: kind for lid, kind, _ in shape.lanes}
    lines = []
    for lid, kind, size in shape.lanes:
        decl = f"lane {lid} {kind}" + (f" {size}" if size is not None else "")
        if rnd.random() < 0.3:
            decl += f" label l{lid}"
        lines.append(decl)

    sources: list[tuple[int, int]] = []  # explicit column sources
    free: list[tuple[int, int]] = []  # indices no tail rule reaches
    for source, threshold, target, offset in shape.rules:
        lines.append(f"tail {source} {threshold} -> {target} offset {offset} "
                     f"phase {rnd.choice(PHASES)}")
        if kinds[source] == "naturals":
            sources.extend((source, p) for p in range(threshold))
            free.extend((target, p) for p in range(threshold + offset))
        else:
            sources.extend((source, p) for p in range(-threshold + 1, threshold))
            free.extend((target, p) for p in
                        range(offset - threshold + 1, offset + threshold))
    for lid, kind, size in shape.lanes:
        if kind == "finite":
            sources.extend((lid, p) for p in range(size))
            free.extend((lid, p) for p in range(size))

    sources.sort()
    free.sort()
    if shape.dense:
        columns = _orthonormal_columns(rnd, len(sources), len(free))
    else:
        # monomial columns: an injection into the free indices with phases
        columns = []
        for k in rnd.sample(range(len(free)), len(sources)):
            col = [0j] * len(free)
            col[k] = cmath.exp(2j * math.pi * float(Fraction(rnd.choice(PHASES))))
            columns.append(col)
    for (slane, spos), col in zip(sources, columns):
        entries = [f"{flane}:{fpos} {c.real!r} {c.imag!r}"
                   for (flane, fpos), c in zip(free, col) if c != 0]
        lines.append(f"column {slane}:{spos} = " + " ; ".join(entries))
    return "\n".join(lines) + "\n"


def random_vector(rnd: random.Random, lanes, max_terms: int = 4,
                  reach: int = 8) -> str:
    """Vector literal with 1..max_terms distinct basis indices."""
    chosen: dict[tuple[int, int], str] = {}
    for _ in range(rnd.randint(1, max_terms)):
        lid, kind, size = rnd.choice(lanes)
        if kind == "finite":
            pos = rnd.randrange(size)
        elif kind == "naturals":
            pos = rnd.randint(0, reach)
        else:
            pos = rnd.randint(-reach, reach)
        chosen.setdefault((lid, pos), rnd.choice(COEFFS))
    return ",".join(f"{lid}:{pos}={coeff}"
                    for (lid, pos), coeff in sorted(chosen.items()))


def _angle(rnd: random.Random) -> Fraction:
    q = rnd.choice(DENOMINATORS)
    return Fraction(rnd.randrange(q), q)


def random_spectral(rnd: random.Random) -> str:
    """Spectral description JSON: 0-3 arcs and 0-2 atoms, never empty."""
    arcs = []
    for _ in range(rnd.randint(0, 3)):
        q = rnd.choice(DENOMINATORS)
        arcs.append({"start": str(_angle(rnd)),
                     "length": str(Fraction(rnd.randint(1, q), q))})
    atoms: dict[Fraction, int] = {}
    for _ in range(rnd.randint(0 if arcs else 1, 2)):
        atoms.setdefault(_angle(rnd), rnd.randint(1, 3))
    doc = {"arcs": arcs,
           "atoms": [{"angle": str(a), "mult": m}
                     for a, m in sorted(atoms.items())]}
    return json.dumps(doc, sort_keys=True) + "\n"
