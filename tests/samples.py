"""Seeded sample operators and vectors shared by the tests: catalog
listings and a generator of random structured isometries over lanes and
tail rules.  Kept out of ``conftest.py``: ``perfbench/tests`` has a
conftest of its own, and only one of the two can be imported as
``conftest`` in a run that collects both directories."""

from __future__ import annotations

import random

import numpy as np

from woldlab import catalog
from woldlab.core import (
    BasisIndex,
    HVector,
    LaneSpec,
    StructuredIsometry,
    TailRule,
)

NICE_COEFFS = [1.0, -1.0, 1j, -1j, 0.5 + 0.5j, 0.7071067811865476]
PHASES = [1.0, -1.0, 1j, -1j]


def random_structured_isometry(seed: int) -> StructuredIsometry:
    """Random lanes, a random rule permutation per lane kind, and explicit
    columns drawn from a Haar-ish unitary on the untailed index span."""
    py = random.Random(seed)
    rng = np.random.default_rng(seed)
    n_lanes = py.randint(1, 3)
    kinds = [py.choice(["naturals", "naturals", "integers", "finite"])
             for _ in range(n_lanes)]
    lanes = []
    for i, kind in enumerate(kinds):
        size = py.randint(1, 3) if kind == "finite" else None
        lanes.append(LaneSpec(i, kind, size))
    naturals = [l.lane_id for l in lanes if l.kind == "naturals"]
    integers = [l.lane_id for l in lanes if l.kind == "integers"]

    rules = []
    explicit_positions: list[BasisIndex] = []
    missed: list[BasisIndex] = []
    for group, int_kind in ((naturals, False), (integers, True)):
        targets = group[:]
        py.shuffle(targets)
        for source, target in zip(group, targets):
            if int_kind:
                threshold = py.randint(0, 1)
                offset = py.choice([-2, -1, 0, 1, 2])
                phase = py.choice(PHASES)
                rules.append(TailRule(source, threshold, target, offset, phase))
                explicit_positions.extend(
                    BasisIndex(source, p)
                    for p in range(-threshold + 1, threshold)
                )
                missed.extend(
                    BasisIndex(target, p)
                    for p in range(offset - threshold + 1, offset + threshold)
                )
            else:
                threshold = py.randint(0, 2)
                offset = py.choice([0, 1, 1, 2])
                if threshold + offset < 0:
                    offset = -threshold
                phase = py.choice(PHASES)
                rules.append(TailRule(source, threshold, target, offset, phase))
                explicit_positions.extend(
                    BasisIndex(source, p) for p in range(threshold)
                )
                missed.extend(
                    BasisIndex(target, p) for p in range(threshold + offset)
                )
    for lane in lanes:
        if lane.kind == "finite":
            explicit_positions.extend(
                BasisIndex(lane.lane_id, p) for p in range(lane.size)
            )
            missed.extend(BasisIndex(lane.lane_id, p) for p in range(lane.size))
    explicit_positions.sort()
    free = sorted(set(missed))
    columns = {}
    if explicit_positions:
        dim = len(free)
        gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, _ = np.linalg.qr(gauss)
        for k, src in enumerate(explicit_positions):
            entries = [(free[i], complex(q[i, k])) for i in range(dim)]
            columns[src] = HVector(entries)
    return StructuredIsometry(lanes, columns, rules, name=f"rand{seed}")


def random_hvector(op: StructuredIsometry, seed: int, max_terms: int = 4) -> HVector:
    py = random.Random(seed)
    entries = []
    for _ in range(py.randint(1, max_terms)):
        lane = py.choice(op.lanes)
        if lane.kind == "finite":
            pos = py.randrange(lane.size)
        elif lane.kind == "naturals":
            pos = py.randint(0, 8)
        else:
            pos = py.randint(-8, 8)
        entries.append((BasisIndex(lane.lane_id, pos), py.choice(NICE_COEFFS)))
    v = HVector(entries)
    if v.is_zero():
        return HVector.basis(op.lanes[0].lane_id, 0)
    return v


def structured_catalog_operators():
    """All structured single operators in the catalog."""
    return [(e.name, e.build())
            for e in catalog.fixtures() if e.kind == "operator"]


def catalog_pairs():
    return [(e.name, e.build()) for e in catalog.fixtures() if e.kind == "pair"]
