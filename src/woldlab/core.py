"""Structured isometries on countable orthonormal bases.

The ambient Hilbert space is described by *lanes*: disjoint families of
orthonormal basis vectors indexed by integer positions.  A lane is finite,
indexed by the naturals, or indexed by all integers.  An isometry is given
exactly by

* explicit columns for finitely many basis indices (every index below the
  tail thresholds), and
* tail rules, each sending the remaining basis vectors of a source lane to
  a single phased basis vector of a target lane at a fixed offset.

Validation certifies the isometry property with a finite amount of exact
checking: explicit columns are unit and pairwise orthogonal, tail images are
pairwise disjoint by lane arithmetic, and no explicit column may touch an
index that some tail rule produces.  Together these give V*V = I.

Two structural consequences are used throughout the package.  Totality
forces the tail rules of a valid operator to form a permutation of the
infinite lanes, and therefore the adjoint kernel of any structured isometry
is finite dimensional and computable exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .certificates import Certificate, false_certificate, true_certificate
from .config import PRUNE_TOL, SUBSPACE_ORTHONORMAL_TOL, tolerance
from .errors import (
    CompositionError,
    InvalidOperatorError,
    MalformedInputError,
    PreconditionError,
)

FINITE = "finite"
NATURALS = "naturals"
INTEGERS = "integers"

_LANE_KINDS = (FINITE, NATURALS, INTEGERS)


@dataclass(frozen=True)
class LaneSpec:
    """One family of basis vectors: ``finite(n)``, naturals, or integers."""

    lane_id: int
    kind: str
    size: int | None = None
    label: str | None = None

    def __post_init__(self):
        if self.lane_id < 0:
            raise MalformedInputError(f"lane id must be nonnegative: {self.lane_id}")
        if self.kind not in _LANE_KINDS:
            raise MalformedInputError(f"unknown lane kind {self.kind!r}")
        if self.kind == FINITE:
            if self.size is None or self.size < 1:
                raise MalformedInputError(
                    f"finite lane {self.lane_id} needs size >= 1, got {self.size}"
                )
        elif self.size is not None:
            raise MalformedInputError(
                f"{self.kind} lane {self.lane_id} must not declare a size"
            )

    @property
    def is_finite(self) -> bool:
        return self.kind == FINITE

    def contains(self, position: int) -> bool:
        if self.kind == FINITE:
            return 0 <= position < self.size
        if self.kind == NATURALS:
            return position >= 0
        return True

    def window_positions(self, n: int) -> list[int]:
        """Canonical window: naturals 0..n-1, integers -n..n, finite all."""
        if self.kind == FINITE:
            return list(range(self.size))
        if self.kind == NATURALS:
            return list(range(n))
        return list(range(-n, n + 1))


class BasisIndex(NamedTuple):
    # a NamedTuple so hashing and comparison run at tuple speed; orbit code
    # churns through millions of these
    lane: int
    position: int

    def __repr__(self):
        return f"{self.lane}:{self.position}"


class HVector:
    """Finite-support complex vector over basis indices.

    Coefficients below the pruning floor are dropped at construction, so
    supports stay genuinely finite under repeated adjoint application.
    Instances are treated as immutable values.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries=(), tol: float | None = None):
        if tol is None:
            tol = PRUNE_TOL
        acc: dict[BasisIndex, complex] = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for idx, coeff in items:
            if not isinstance(idx, BasisIndex):
                raise MalformedInputError(f"not a basis index: {idx!r}")
            acc[idx] = acc.get(idx, 0j) + complex(coeff)
        self._entries = {idx: c for idx, c in acc.items() if abs(c) > tol}

    @classmethod
    def _pruned(cls, acc: dict) -> "HVector":
        # fast path for internally accumulated dicts; skips per-entry checks
        v = object.__new__(cls)
        v._entries = {idx: c for idx, c in acc.items() if abs(c) > PRUNE_TOL}
        return v

    @classmethod
    def basis(cls, lane: int, position: int, coeff=1.0) -> "HVector":
        return cls([(BasisIndex(lane, position), coeff)])

    @classmethod
    def zero(cls) -> "HVector":
        return cls()

    def items(self) -> list[tuple[BasisIndex, complex]]:
        return sorted(self._entries.items(), key=lambda kv: kv[0])

    def support(self) -> list[BasisIndex]:
        return sorted(self._entries)

    def coefficient(self, idx: BasisIndex) -> complex:
        return self._entries.get(idx, 0j)

    def is_zero(self, tol: float | None = None) -> bool:
        if tol is None:
            return not self._entries
        return self.norm() <= tol

    def norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self._entries.values()))

    def inner(self, other: "HVector") -> complex:
        """Hermitian inner product, linear in the first argument."""
        a, b = self._entries, other._entries
        if len(b) < len(a):
            return sum(a[i] * b[i].conjugate() for i in b if i in a)
        return sum(c * b[i].conjugate() for i, c in a.items() if i in b)

    def scaled(self, scalar) -> "HVector":
        s = complex(scalar)
        return HVector._pruned({i: c * s for i, c in self._entries.items()})

    def __add__(self, other: "HVector") -> "HVector":
        acc = dict(self._entries)
        for i, c in other._entries.items():
            acc[i] = acc.get(i, 0j) + c
        return HVector._pruned(acc)

    def __sub__(self, other: "HVector") -> "HVector":
        acc = dict(self._entries)
        for i, c in other._entries.items():
            acc[i] = acc.get(i, 0j) - c
        return HVector._pruned(acc)

    def __neg__(self) -> "HVector":
        return self.scaled(-1.0)

    def normalized(self) -> "HVector":
        n = self.norm()
        if n <= tolerance():
            raise MalformedInputError("cannot normalize a (numerically) zero vector")
        return self.scaled(1.0 / n)

    def restricted_to(self, indices) -> "HVector":
        allowed = indices if isinstance(indices, (set, frozenset)) else set(indices)
        return HVector._pruned(
            {i: c for i, c in self._entries.items() if i in allowed}
        )

    def restricted_to_lanes(self, lane_ids) -> "HVector":
        allowed = set(lane_ids)
        return HVector._pruned(
            {i: c for i, c in self._entries.items() if i.lane in allowed}
        )

    def approx_equals(self, other: "HVector", tol: float | None = None) -> bool:
        if tol is None:
            tol = tolerance()
        return (self - other).norm() <= tol

    def __repr__(self):
        if not self._entries:
            return "HVector(0)"
        parts = [f"({c:.6g})e[{i}]" for i, c in self.items()]
        return "HVector(" + " + ".join(parts) + ")"


def inner(x: HVector, y: HVector) -> complex:
    """Standard Hermitian inner product over the shared support."""
    return x.inner(y)


@dataclass(frozen=True)
class TailRule:
    """Maps every source-lane position at or beyond ``threshold`` to a single
    phased basis vector: ``(source, p) -> phase * (target, p + offset)``.

    For naturals lanes the rule applies to ``p >= threshold``; for integer
    lanes to ``|p| >= threshold``.  Finite lanes never carry tail rules.
    """

    source_lane: int
    threshold: int
    target_lane: int
    offset: int
    phase: complex = 1.0 + 0j

    def __post_init__(self):
        if self.threshold < 0:
            raise MalformedInputError("tail threshold must be nonnegative")
        if abs(abs(self.phase) - 1.0) > 1e-12:
            raise MalformedInputError(
                f"tail phase must be unimodular, got |phase| = {abs(self.phase)}"
            )

    def applies(self, position: int, source_kind: str) -> bool:
        if source_kind == INTEGERS:
            return abs(position) >= self.threshold
        return position >= self.threshold

    def image_index(self, position: int) -> BasisIndex:
        return BasisIndex(self.target_lane, position + self.offset)


@dataclass(frozen=True)
class Closure:
    """Closure tag of a Subspace: the plain span of the generators, or the
    forward / full orbit of the generators under a named operator."""

    kind: str = "none"
    operator: str | None = None

    def __post_init__(self):
        if self.kind not in ("none", "forward_orbit", "full_orbit"):
            raise MalformedInputError(f"unknown closure kind {self.kind!r}")
        if self.kind != "none" and self.operator is None:
            raise MalformedInputError("orbit closures must name their operator")


def _check_orthonormal(gens: tuple[HVector, ...],
                       tol: float = SUBSPACE_ORTHONORMAL_TOL) -> None:
    """Raise on the first generator, in loop order (the norm of i, then the
    pairs (j, i) with j < i), that is not unit or not orthogonal to an
    earlier one.

    Only pairs below the first non-unit generator are reached in that
    order.  The Gram matrix of those generators, taken in blocks of rows so
    its temporaries stay small, finds the suspect pairs; each is then
    re-measured with the sparse inner product, so the verdict and the
    message are those of the plain loop.
    """
    from ._linalg import Window, blocks

    first_bad = next((i for i, g in enumerate(gens)
                      if abs(g.norm() - 1.0) > tol), len(gens))
    head = gens[:first_bad]
    if len(head) > 1:
        a = Window(head).matrix(head)
        # rounding separates the two products by far less than half the bound
        loose = 0.5 * tol
        for start, block in blocks(a):
            # gram[r, j] = <g_j, g_(start + r)>, kept for j < start + r
            gram = block.conj().T @ a[:, :start + block.shape[1]]
            suspect = np.tril(np.abs(gram) > loose, k=start - 1)
            for r, j in np.argwhere(suspect):  # row-major: the loop order
                i, j = start + int(r), int(j)
                overlap = abs(gens[j].inner(gens[i]))
                if overlap > tol:
                    raise MalformedInputError(
                        f"subspace generators {j} and {i} are not orthogonal: "
                        f"|<g{j},g{i}>| = {overlap}"
                    )
    if first_bad < len(gens):
        g = gens[first_bad]
        raise MalformedInputError(
            f"subspace generator {first_bad} is not unit: norm = {g.norm()}"
        )


class Subspace:
    """An orthonormal generator list plus a closure tag."""

    __slots__ = ("generators", "closure")

    def __init__(self, generators: Iterable[HVector], closure: Closure = Closure()):
        gens = tuple(generators)
        _check_orthonormal(gens)
        self.generators = gens
        self.closure = closure

    @property
    def dim(self) -> int:
        return len(self.generators)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, closure={self.closure.kind})"


# longest index list an error message spells out
_LISTED = 10


def _listed(first, total: int) -> str:
    """``[a, b, ...]`` of the listed indices, plus how many were left out."""
    first = list(first)
    text = "[" + ", ".join(map(repr, first)) + "]"
    if total > len(first):
        text += f" … and {total - len(first)} more"
    return text


class StructuredIsometry:
    """An isometry given by explicit columns plus tail rules; see module doc.

    All invariants are checked at construction; a failing check raises
    InvalidOperatorError naming the offending columns or rules.
    """

    def __init__(self, lanes, explicit_columns, tail_rules, name=None,
                 tol: float | None = None):
        self.lanes: tuple[LaneSpec, ...] = tuple(
            sorted(lanes, key=lambda l: l.lane_id)
        )
        self.explicit_columns: dict[BasisIndex, HVector] = dict(explicit_columns)
        self.tail_rules: tuple[TailRule, ...] = tuple(
            sorted(tail_rules, key=lambda r: r.source_lane)
        )
        self.name = name
        self._lane_by_id = {l.lane_id: l for l in self.lanes}
        self._rule_by_source = {r.source_lane: r for r in self.tail_rules}
        self._rule_by_target = {r.target_lane: r for r in self.tail_rules}
        self._validate(tolerance() if tol is None else tol)
        # flat per-lane metadata for the hot application paths
        self._domain = {}
        for l in self.lanes:
            lo = None if l.kind == INTEGERS else 0
            hi = (l.size - 1) if l.kind == FINITE else None
            self._domain[l.lane_id] = (lo, hi)
        self._tail_meta = {}
        self._intail_meta = {}
        for r in self.tail_rules:
            is_int = self.lane(r.source_lane).kind == INTEGERS
            self._tail_meta[r.source_lane] = (
                r.threshold, is_int, r.target_lane, r.offset, r.phase
            )
            self._intail_meta[r.target_lane] = (
                r.threshold, is_int, r.source_lane, r.offset,
                r.phase.conjugate(),
            )

    # -- structure queries -------------------------------------------------

    def lane(self, lane_id: int) -> LaneSpec:
        try:
            return self._lane_by_id[lane_id]
        except KeyError:
            raise MalformedInputError(f"no lane {lane_id} in this space") from None

    def has_lane(self, lane_id: int) -> bool:
        return lane_id in self._lane_by_id

    @property
    def infinite_lanes(self) -> list[LaneSpec]:
        return [l for l in self.lanes if not l.is_finite]

    def rule_from(self, lane_id: int) -> TailRule | None:
        return self._rule_by_source.get(lane_id)

    def rule_into(self, lane_id: int) -> TailRule | None:
        return self._rule_by_target.get(lane_id)

    def contains_index(self, idx: BasisIndex) -> bool:
        return self.has_lane(idx.lane) and self.lane(idx.lane).contains(idx.position)

    def window_indices(self, n: int) -> list[BasisIndex]:
        out = []
        for lane in self.lanes:
            out.extend(BasisIndex(lane.lane_id, p) for p in lane.window_positions(n))
        return out

    def core_radius(self) -> int:
        """Bound on |position| of everything explicit: column sources, column
        supports, thresholds and finite-lane extents."""
        radius = 0
        for lane in self.lanes:
            if lane.is_finite:
                radius = max(radius, lane.size)
        for rule in self.tail_rules:
            radius = max(radius, rule.threshold)
        for src, col in self.explicit_columns.items():
            radius = max(radius, abs(src.position))
            for idx in col.support():
                radius = max(radius, abs(idx.position))
        return radius

    def max_offset(self) -> int:
        return max((abs(r.offset) for r in self.tail_rules), default=0)

    def lane_cycle_drift(self) -> dict[int, int]:
        """Net offset of the rule-permutation cycle through each infinite lane.

        Positive drift means forward orbits through the lane move to +infinity.
        """
        drift: dict[int, int] = {}
        seen: set[int] = set()
        for lane in self.infinite_lanes:
            start = lane.lane_id
            if start in seen:
                continue
            cycle = [start]
            net = self._rule_by_source[start].offset
            current = self._rule_by_source[start].target_lane
            while current != start:
                cycle.append(current)
                net += self._rule_by_source[current].offset
                current = self._rule_by_source[current].target_lane
            for member in cycle:
                drift[member] = net
                seen.add(member)
        return drift

    def tail_hit(self, idx: BasisIndex) -> bool:
        """Whether some tail rule produces this basis index."""
        rule = self._rule_by_target.get(idx.lane)
        if rule is None:
            return False
        pre = idx.position - rule.offset
        source = self.lane(rule.source_lane)
        return rule.applies(pre, source.kind) and source.contains(pre)

    def untailed_indices(self) -> list[BasisIndex]:
        """All basis indices no tail rule hits.  Finite, computed exactly.

        The adjoint kernel lives inside their span, alongside the explicit
        columns.
        """
        out: list[BasisIndex] = []
        for lane in self.lanes:
            if lane.is_finite:
                out.extend(BasisIndex(lane.lane_id, p) for p in range(lane.size))
                continue
            rule = self._rule_by_target.get(lane.lane_id)
            source = self.lane(rule.source_lane)
            if source.kind == NATURALS:
                # images are positions >= threshold + offset
                misses = range(0, rule.threshold + rule.offset)
            else:
                # images are positions q with |q - offset| >= threshold
                misses = range(rule.offset - rule.threshold + 1,
                               rule.offset + rule.threshold)
            out.extend(
                BasisIndex(lane.lane_id, p) for p in misses if lane.contains(p)
            )
        return sorted(out)

    # -- validation ---------------------------------------------------------

    def _required_source_ranges(self) -> dict[int, range]:
        """Positions that need an explicit column, per lane in id order: all
        of a finite lane, and whatever its tail rule leaves uncovered on an
        infinite one."""
        ranges: dict[int, range] = {}
        for lane in self.lanes:
            if lane.is_finite:
                ranges[lane.lane_id] = range(lane.size)
                continue
            rule = self._rule_by_source.get(lane.lane_id)
            if rule is None:
                continue  # reported by _validate
            if lane.kind == NATURALS:
                ranges[lane.lane_id] = range(0, rule.threshold)
            else:
                ranges[lane.lane_id] = range(-rule.threshold + 1, rule.threshold)
        return ranges

    def _check_explicit_sources(self) -> None:
        """The explicit columns must sit exactly on the required sources.

        Counted by range arithmetic instead of materializing the required
        set, so a huge tail threshold fails at once; the message lists at
        most ``_LISTED`` indices of each kind.
        """
        ranges = self._required_source_ranges()
        got = self.explicit_columns
        extra = sorted(
            idx for idx in got
            if idx.lane not in ranges or idx.position not in ranges[idx.lane]
        )
        missing_count = (sum(len(r) for r in ranges.values())
                         - (len(got) - len(extra)))
        if not missing_count and not extra:
            return
        detail = []
        if missing_count:
            missing = (BasisIndex(lane_id, p)
                       for lane_id, positions in ranges.items()
                       for p in positions
                       if BasisIndex(lane_id, p) not in got)
            detail.append("missing columns for "
                          + _listed(itertools.islice(missing, _LISTED),
                                    missing_count))
        if extra:
            detail.append("unexpected columns for "
                          + _listed(extra[:_LISTED], len(extra)))
        raise InvalidOperatorError("; ".join(detail))

    def _validate(self, tol: float) -> None:
        ids = [l.lane_id for l in self.lanes]
        if len(set(ids)) != len(ids):
            raise InvalidOperatorError(f"duplicate lane ids: {ids}")
        if not self.lanes:
            raise InvalidOperatorError("an operator needs at least one lane")

        infinite_ids = {l.lane_id for l in self.infinite_lanes}
        sources = [r.source_lane for r in self.tail_rules]
        targets = [r.target_lane for r in self.tail_rules]
        if len(set(sources)) != len(sources):
            raise InvalidOperatorError("two tail rules share a source lane")
        if len(set(targets)) != len(targets):
            raise InvalidOperatorError(
                "two tail rules share a target lane; their images would overlap"
            )
        for rule in self.tail_rules:
            if rule.source_lane not in self._lane_by_id:
                raise InvalidOperatorError(f"tail rule from unknown lane {rule.source_lane}")
            if rule.target_lane not in self._lane_by_id:
                raise InvalidOperatorError(f"tail rule into unknown lane {rule.target_lane}")
            src = self.lane(rule.source_lane)
            tgt = self.lane(rule.target_lane)
            if src.is_finite:
                raise InvalidOperatorError(
                    f"finite lane {src.lane_id} cannot carry a tail rule"
                )
            if tgt.kind != src.kind:
                # a naturals tail feeding an integers lane (or vice versa)
                # leaves infinitely many target positions uncovered
                raise InvalidOperatorError(
                    f"tail rule {src.lane_id}->{tgt.lane_id} changes lane kind "
                    f"({src.kind} -> {tgt.kind})"
                )
            if src.kind == NATURALS and rule.threshold + rule.offset < 0:
                raise InvalidOperatorError(
                    f"tail rule on lane {src.lane_id} maps position "
                    f"{rule.threshold} outside the naturals"
                )
        if set(sources) != infinite_ids:
            missing = sorted(infinite_ids - set(sources))
            raise InvalidOperatorError(
                f"infinite lanes without a covering tail rule: {missing}"
            )
        # targets are distinct, all infinite, and equinumerous with sources,
        # hence the rules permute the infinite lanes
        if set(targets) != infinite_ids:
            raise InvalidOperatorError(
                "tail-rule targets must exhaust the infinite lanes"
            )

        self._check_explicit_sources()

        ordered = sorted(self.explicit_columns)
        for src in ordered:
            col = self.explicit_columns[src]
            for idx in col.support():
                if not self.contains_index(idx):
                    raise InvalidOperatorError(
                        f"column {src} touches index {idx} outside the declared lanes"
                    )
                if self.tail_hit(idx):
                    raise InvalidOperatorError(
                        f"column {src} overlaps the tail image at {idx}"
                    )
            n = col.norm()
            if abs(n - 1.0) > tol:
                raise InvalidOperatorError(
                    f"column {src} is not unit: norm = {n!r}"
                )
        for i, src_a in enumerate(ordered):
            for src_b in ordered[i + 1:]:
                overlap = abs(self.explicit_columns[src_a].inner(self.explicit_columns[src_b]))
                if overlap > tol:
                    raise InvalidOperatorError(
                        f"columns {src_a} and {src_b} are not orthogonal: "
                        f"|<c,c'>| = {overlap}"
                    )

    # -- the operator ---------------------------------------------------------

    def column(self, idx: BasisIndex) -> HVector:
        """Image of a single basis vector."""
        if not self.contains_index(idx):
            raise MalformedInputError(f"index {idx} outside the declared lanes")
        col = self.explicit_columns.get(idx)
        if col is not None:
            return col
        rule = self._rule_by_source[idx.lane]
        return HVector([(rule.image_index(idx.position), rule.phase)])

    def apply(self, x: HVector) -> HVector:
        acc: dict[BasisIndex, complex] = {}
        columns = self.explicit_columns
        tails = self._tail_meta
        for idx, coeff in x._entries.items():
            col = columns.get(idx)
            if col is not None:
                for out_idx, c in col._entries.items():
                    acc[out_idx] = acc.get(out_idx, 0j) + coeff * c
                continue
            meta = tails.get(idx.lane)
            if meta is not None:
                threshold, is_int, target, offset, phase = meta
                p = idx.position
                if (-p if (is_int and p < 0) else p) >= threshold:
                    out_idx = BasisIndex(target, p + offset)
                    acc[out_idx] = acc.get(out_idx, 0j) + coeff * phase
                    continue
            raise MalformedInputError(f"index {idx} outside the declared lanes")
        return HVector._pruned(acc)

    def apply_adjoint(self, x: HVector) -> HVector:
        """V* x via <V*x, e_k> = <x, V e_k>.

        Only explicit columns and the single rule targeting each support lane
        can contribute, so the computation is finite.
        """
        acc: dict[BasisIndex, complex] = {}
        for src, col in self.explicit_columns.items():
            c = x.inner(col)
            if c != 0:
                acc[src] = acc.get(src, 0j) + c
        domains = self._domain
        intails = self._intail_meta
        for idx, coeff in x._entries.items():
            dom = domains.get(idx.lane)
            if dom is None:
                raise MalformedInputError(
                    f"index {idx} outside the declared lanes"
                )
            p = idx.position
            lo, hi = dom
            if (lo is not None and p < lo) or (hi is not None and p > hi):
                raise MalformedInputError(
                    f"index {idx} outside the declared lanes"
                )
            meta = intails.get(idx.lane)
            if meta is None:
                continue
            threshold, is_int, source, offset, phase_conj = meta
            pre = p - offset
            if (-pre if (is_int and pre < 0) else pre) >= threshold:
                key = BasisIndex(source, pre)
                acc[key] = acc.get(key, 0j) + coeff * phase_conj
        return HVector._pruned(acc)

    def apply_power(self, x: HVector, n: int) -> HVector:
        """V^n x, adjoint powers for negative n."""
        v = x
        step = self.apply if n >= 0 else self.apply_adjoint
        for _ in range(abs(n)):
            v = step(v)
        return v

    def same_lanes(self, other: "StructuredIsometry") -> bool:
        return [
            (l.lane_id, l.kind, l.size) for l in self.lanes
        ] == [(l.lane_id, l.kind, l.size) for l in other.lanes]

    def lane_components(self) -> list[tuple[int, ...]]:
        """Connected components of the lane graph; see ``lane_components``."""
        return lane_components(self)

    def restricted_to_lanes(self, lane_ids) -> "StructuredIsometry":
        """Restriction to a union of lanes, when that union reduces the
        operator structurally; raises PreconditionError otherwise."""
        keep = set(lane_ids)
        if not lanes_reducing(self, keep):
            raise PreconditionError(
                f"lanes {sorted(keep)} do not reduce operator {self.name or ''}".strip()
            )
        lanes = [l for l in self.lanes if l.lane_id in keep]
        cols = {
            src: col for src, col in self.explicit_columns.items()
            if src.lane in keep
        }
        rules = [r for r in self.tail_rules if r.source_lane in keep]
        suffix = "|" + ",".join(str(i) for i in sorted(keep))
        name = (self.name + suffix) if self.name else None
        return StructuredIsometry(lanes, cols, rules, name=name)

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return (f"StructuredIsometry({len(self.lanes)} lanes, "
                f"{len(self.explicit_columns)} columns, "
                f"{len(self.tail_rules)} tails{tag})")


def lane_components(*ops: StructuredIsometry) -> list[tuple[int, ...]]:
    """Connected components of the joint lane graph of operators on the same
    lanes (edges: tail rules and cross-lane explicit columns of every
    operator).  Each component spans a subspace reducing all of them, and
    distinct components are mutually orthogonal."""
    parent = {l.lane_id: l.lane_id for l in ops[0].lanes}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        parent[find(a)] = find(b)

    for op in ops:
        for rule in op.tail_rules:
            union(rule.source_lane, rule.target_lane)
        for src, col in op.explicit_columns.items():
            for idx in col.support():
                union(src.lane, idx.lane)
    groups: dict[int, list[int]] = {}
    for lane_id in parent:
        groups.setdefault(find(lane_id), []).append(lane_id)
    return sorted(tuple(sorted(g)) for g in groups.values())


def lanes_reducing(op: StructuredIsometry, lane_ids) -> bool:
    """Whether the span of these lanes (and its complement) is invariant."""
    keep = set(lane_ids)
    for rule in op.tail_rules:
        if (rule.source_lane in keep) != (rule.target_lane in keep):
            return False
    for src, col in op.explicit_columns.items():
        inside = src.lane in keep
        for idx in col.support():
            if (idx.lane in keep) != inside:
                return False
    return True


# -- operations on pairs of operators ------------------------------------------


def apply(v: StructuredIsometry, x: HVector) -> HVector:
    return v.apply(x)


def apply_adjoint(v: StructuredIsometry, x: HVector) -> HVector:
    return v.apply_adjoint(x)


def compose(v: StructuredIsometry, w: StructuredIsometry,
            name: str | None = None) -> StructuredIsometry:
    """The product isometry ``x -> v(w(x))`` in structured form.

    Tail rules compose symbolically; positions whose w-image still lands in
    v's explicit core become explicit columns of the result.
    """
    if not v.same_lanes(w):
        raise CompositionError("operators live on different lane sets")
    rules = []
    for lane in w.infinite_lanes:
        rw = w.rule_from(lane.lane_id)
        rv = v.rule_from(rw.target_lane)
        if lane.kind == NATURALS:
            threshold = max(rw.threshold, rv.threshold - rw.offset, 0)
        else:
            threshold = max(rw.threshold, rv.threshold + abs(rw.offset), 0)
        rules.append(TailRule(
            source_lane=lane.lane_id,
            threshold=threshold,
            target_lane=rv.target_lane,
            offset=rw.offset + rv.offset,
            phase=rw.phase * rv.phase,
        ))
    columns: dict[BasisIndex, HVector] = {}
    for lane in w.lanes:
        if lane.is_finite:
            positions = range(lane.size)
        else:
            t = next(r.threshold for r in rules if r.source_lane == lane.lane_id)
            if lane.kind == NATURALS:
                positions = range(0, t)
            else:
                positions = range(-t + 1, t)
        for p in positions:
            idx = BasisIndex(lane.lane_id, p)
            columns[idx] = v.apply(w.column(idx))
    try:
        return StructuredIsometry(v.lanes, columns, rules, name=name)
    except InvalidOperatorError as exc:
        raise CompositionError(f"composition is malformed: {exc}") from exc


def _semantic_difference(a: StructuredIsometry, b: StructuredIsometry,
                         tol: float) -> BasisIndex | None:
    """First basis index (symbolic for tails) where two operators differ."""
    explicit_bound: dict[int, int] = {}
    for lane in a.infinite_lanes:
        ra, rb = a.rule_from(lane.lane_id), b.rule_from(lane.lane_id)
        deep = max(ra.threshold, rb.threshold)
        if (ra.target_lane, ra.offset) != (rb.target_lane, rb.offset) or \
                abs(ra.phase - rb.phase) > tol:
            return BasisIndex(lane.lane_id, deep)
        explicit_bound[lane.lane_id] = deep
    for lane in a.lanes:
        if lane.is_finite:
            positions = range(lane.size)
        elif lane.kind == NATURALS:
            positions = range(0, explicit_bound[lane.lane_id])
        else:
            t = explicit_bound[lane.lane_id]
            positions = range(-t + 1, t)
        for p in positions:
            idx = BasisIndex(lane.lane_id, p)
            if not a.column(idx).approx_equals(b.column(idx), tol):
                return idx
    return None


def commutes(v: StructuredIsometry, w: StructuredIsometry,
             window: int = 64) -> Certificate:
    """Whether vw = wv; exact, because tail algebra closes symbolically."""
    if not v.same_lanes(w):
        raise MalformedInputError("operators live on different lane sets")
    vw = compose(v, w)
    wv = compose(w, v)
    diff = _semantic_difference(vw, wv, tolerance())
    if diff is not None:
        return false_certificate(window, diff)
    for idx in v.window_indices(min(window, 16)):
        e = HVector([(idx, 1.0)])
        if not vw.apply(e).approx_equals(wv.apply(e)):
            return false_certificate(window, idx)
    return true_certificate(window, exact=True)


def doubly_commutes(v: StructuredIsometry, w: StructuredIsometry,
                    window: int = 64) -> Certificate:
    """Whether v*w = wv* on top of commutation.

    Checked entrywise on a window wide enough to exhaust the explicit cores,
    then symbolically on the tails, so the answer is exact.
    """
    pre = commutes(v, w, window)
    if not pre.is_true:
        raise PreconditionError(
            "doubly_commutes requires a commuting pair", witness=pre.witness
        )
    tol = tolerance()
    bound = (max(v.core_radius(), w.core_radius())
             + 2 * (v.max_offset() + w.max_offset()) + 2)
    effective = max(window, bound)
    for idx in v.window_indices(effective):
        e = HVector([(idx, 1.0)])
        lhs = v.apply_adjoint(w.apply(e))
        rhs = w.apply(v.apply_adjoint(e))
        if not lhs.approx_equals(rhs, tol):
            return false_certificate(effective, idx)
    for lane in v.infinite_lanes:
        rw = w.rule_from(lane.lane_id)
        rv_t = v.rule_into(rw.target_lane)
        lhs_desc = (rv_t.source_lane, rw.offset - rv_t.offset,
                    rw.phase * rv_t.phase.conjugate())
        rv_l = v.rule_into(lane.lane_id)
        rw_s = w.rule_from(rv_l.source_lane)
        rhs_desc = (rw_s.target_lane, rw_s.offset - rv_l.offset,
                    rw_s.phase * rv_l.phase.conjugate())
        if lhs_desc[:2] != rhs_desc[:2] or abs(lhs_desc[2] - rhs_desc[2]) > tol:
            return false_certificate(effective, BasisIndex(lane.lane_id, effective))
    return true_certificate(effective, exact=True)
