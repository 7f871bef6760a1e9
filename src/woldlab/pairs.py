"""Commuting-pair analysis: the forward closure of the non-wandering core,
its iterated exhaustion, weak bi-shift classification, the four-part pair
decomposition, and the search for doubly-commuting reducing subspaces.

All pair subspaces are window bases with stabilization flags: the objects
they approximate are limits (intersections and closed spans over all powers)
and the flags say when the limit was actually reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import _linalg, wold
from .certificates import (
    Certificate,
    false_certificate,
    true_certificate,
    undecided_certificate,
)
from .config import (
    DEFAULT_DEPTH,
    GENERATOR_ZERO_TOL,
    H0_MEMBERSHIP_TOL,
    H0_UNITARY_TOL,
    tolerance,
)
from .core import (
    Closure,
    HVector,
    StructuredIsometry,
    Subspace,
    commutes,
    compose,
    cross_commutator,
    lane_components,
)
from .errors import CompositionError, PreconditionError


class PairAnalysis:
    """A commuting pair (V1, V2) at one depth and the facts its analyses
    share.  Building it runs the one commutation check, which refuses a
    nonpositive depth, and raises ``PreconditionError`` on a pair that does
    not commute.  Each shared fact is derived on first use, at the working
    tolerance of that moment, and lives as long as the analysis."""

    def __init__(self, v1: StructuredIsometry, v2: StructuredIsometry,
                 depth: int = DEFAULT_DEPTH):
        cert = commutes(v1, v2, depth)
        if not cert.is_true:
            raise PreconditionError("the operators do not commute",
                                    witness=cert.witness)
        self.v1, self.v2, self.depth = v1, v2, depth

    @cached_property
    def failing_lanes(self) -> set[int]:
        """Lanes holding an index at which the cross-commutator is nonzero."""
        tol = tolerance()
        return {idx.lane for idx, c in cross_commutator(self.v1, self.v2).items()
                if c.norm() > tol}

    @cached_property
    def wandering_span(self) -> wold.WanderingSpanResult:
        """V1's wandering-span decomposition."""
        return wold.wandering_span_decompose(self.v1, self.depth)

    @cached_property
    def wolds(self) -> tuple[wold.WoldResult, wold.WoldResult]:
        return (wold.wold_decompose(self.v1, self.depth),
                wold.wold_decompose(self.v2, self.depth))

    @cached_property
    def window(self) -> tuple[HVector, ...]:
        return tuple(HVector([(idx, 1.0)])
                     for idx in self.v1.window_indices(self.depth))

    @cached_property
    def unitary_type_parts(self) -> tuple[tuple[HVector, ...], ...]:
        """Window bases of the three unitary-type parts: both unitary, V1
        unitary with V2 a shift, and V1 a shift with V2 unitary.

        The shift part's window basis is H_s ∩ window: the window
        combinations lying in the span of the (orthonormal) kernel orbit
        vectors."""
        (w1, w2), window = self.wolds, self.window
        u1, u2 = w1.unitary_window_basis, w2.unitary_window_basis
        s1 = _linalg.intersect_spans(window, w1.orbit_vectors)
        s2 = _linalg.intersect_spans(window, w2.orbit_vectors)
        return tuple(tuple(_linalg.intersect_spans(a, b))
                     for a, b in ((u1, u2), (u1, s2), (s1, u2)))


# -- forward closure of H0 ----------------------------------------------------


def _forward_closure(op: StructuredIsometry, generators,
                     depth: int) -> tuple[Subspace, Certificate]:
    """Window basis of the closed span of op^n g for n = 0..depth, with an
    exact certificate once a step adds nothing: the span is op-invariant
    from there on."""
    basis: list[HVector] = []
    vectors = list(generators)
    for _ in range(depth + 1):
        grown = _linalg.complement_basis(vectors, basis)
        if not grown:
            return Subspace(basis, Closure()), true_certificate(depth, exact=True)
        basis += grown
        vectors = [op.apply(g) for g in vectors]
    return Subspace(basis, Closure()), undecided_certificate(depth)


@dataclass(frozen=True)
class H0PlusResult:
    """Window basis of the closed span of V2^n H0, with certificates that it
    reduces both operators and that V1 acts unitarily on it."""

    subspace: Subspace
    certificate: Certificate
    v1_reducing: Certificate
    v2_reducing: Certificate
    v1_unitary_on: bool
    depth: int


def h0_plus(pair: PairAnalysis, h0: Subspace) -> H0PlusResult:
    """Span of V2^n H0 for n = 0..depth, certified V1/V2-reducing with V1
    unitary on it.  H0 must sit inside the wandering-span residual of V1."""
    v1, v2, depth = pair.v1, pair.v2, pair.depth
    if h0.generators:
        residual = pair.wandering_span.h0.generators
        residuals = _linalg.orthogonal_residual(h0.generators, residual)
        if any(r.norm() > H0_MEMBERSHIP_TOL for r in residuals):
            raise PreconditionError(
                "h0_plus input is not inside the wandering-span residual"
            )
    span, cert = _forward_closure(v2, h0.generators, depth)
    v1_red = wold.reducing_certificate(v1, span.generators, depth)
    v2_red = wold.reducing_certificate(v2, span.generators, depth)
    unitary_on = all(
        v1.apply(v1.apply_adjoint(b)).approx_equals(b, H0_UNITARY_TOL)
        and v1.apply_adjoint(v1.apply(b)).approx_equals(b, H0_UNITARY_TOL)
        for b in span.generators
    )
    return H0PlusResult(span, cert, v1_red, v2_red, unitary_on, depth)


# -- iterated exhaustion -------------------------------------------------------


@dataclass(frozen=True)
class ExhaustResult:
    """Residual subspace on which the V1-wandering span is everything, plus
    the number of peeled layers.  Peels that are not aligned with whole
    finite lanes stop the iteration with an undecided certificate."""

    h1: Subspace
    iterations: int
    certificate: Certificate
    peeled_lanes: tuple[int, ...]


def _finite_lane_cover(op: StructuredIsometry, basis) -> set[int] | None:
    """Lane ids when the basis is exactly a union of whole finite lanes."""
    hit: dict[int, set[int]] = {}
    for g in basis:
        idx = g.plain_index()
        if idx is None or not op.lane(idx.lane).is_finite:
            return None
        hit.setdefault(idx.lane, set()).add(idx.position)
    for lane_id, positions in hit.items():
        if positions != set(range(op.lane(lane_id).size)):
            return None
    return set(hit)


def exhaust_h0(pair: PairAnalysis) -> ExhaustResult:
    """Repeat wandering-span decomposition + forward closure on shrinking
    complements until the closure is trivial.  H1 is the window of what is
    left, empty once every lane is peeled.  A pass that does not stop
    peels at least one whole lane, so the passes end."""
    current1, current2, depth = pair.v1, pair.v2, pair.depth
    wsd = pair.wandering_span
    peeled: list[int] = []
    iterations, exact = 0, False
    while True:
        if wsd.h0.dim == 0:
            exact = not wsd.certificate.is_undecided
            break
        plus, cert = _forward_closure(current2, wsd.h0.generators, depth)
        # an open closure, or a peel that is not a union of whole finite
        # lanes, leaves a complement that is not structurally representable
        lanes = (_finite_lane_cover(current1, plus.generators)
                 if cert.is_true else None)
        if lanes is None:
            break
        peeled.extend(sorted(lanes))
        iterations += 1
        keep = [l.lane_id for l in current1.lanes if l.lane_id not in lanes]
        if not keep:
            current1, exact = None, True
            break
        current1 = current1.restricted_to_lanes(keep)
        current2 = current2.restricted_to_lanes(keep)
        wsd = wold.wandering_span_decompose(current1, depth)
    window = [] if current1 is None else current1.window_indices(depth)
    return ExhaustResult(
        Subspace([HVector([(idx, 1.0)]) for idx in window], Closure()),
        iterations,
        true_certificate(depth, exact=True) if exact
        else undecided_certificate(depth),
        tuple(peeled),
    )


# -- weak bi-shift classification ----------------------------------------------


def _preimage_under(op: StructuredIsometry, basis) -> list[HVector]:
    """Orthonormal basis of {x : op(x) ∈ span(basis)}.

    That set is op*(span(basis) ∩ ran op), and a combination sum_j c_j b_j
    lies in ran op exactly when sum_j c_j (b_j - op op* b_j) = 0.  The
    spans are the finite-dimensional adjoint-kernel iterates, so this is
    exact small linear algebra.
    """
    if not basis:
        return []
    pulled = [op.apply_adjoint(b) for b in basis]
    residuals = [b - op.apply(p) for b, p in zip(basis, pulled)]
    # op* is linear: pull the combinations back through op* of the basis
    return _linalg.combination_basis(
        _linalg.nullspace_combinations(residuals), pulled)


def _joint_shift_core(inner_op: StructuredIsometry,
                      outer_op: StructuredIsometry) -> tuple[list[HVector], int]:
    """Basis of the intersection of ker(outer* inner^i) over all i >= 0.

    Uses the fixed-point iteration K <- ker(outer*) ∩ inner^{-1}(K), which is
    decreasing on finite-dimensional spaces and therefore stabilizes exactly
    within defect+1 steps.
    """
    kernel = wold.kernel_of_adjoint(outer_op).generators
    k = list(kernel)
    steps = 0
    while True:
        steps += 1
        pre = _preimage_under(inner_op, k)
        new = _linalg.intersect_spans(list(kernel), pre) if pre else []
        if len(new) == len(k):
            return new, steps
        k = new
        if not k:
            return [], steps


def weak_bishift_classify(pair: PairAnalysis) -> Certificate:
    """True iff V1 restricted to ∩ker(V2* V1^i), V2 restricted to
    ∩ker(V1* V2^i), and the product V1 V2 are all unilateral shifts.

    The two intersection spaces are finite dimensional here (the structured
    form has finite defect), so their restrictions are unitary whenever they
    are nonzero; being a shift then means being {0}.  The product is tested
    through its Wold decomposition, undecided when the product of two
    valid operators fails validation (their column norm errors add up).
    """
    v1, v2, depth = pair.v1, pair.v2, pair.depth
    for name, inner_op, outer_op in (("v1", v1, v2), ("v2", v2, v1)):
        k, _ = _joint_shift_core(inner_op, outer_op)
        if k:
            return false_certificate(
                depth, ("restriction_unitary", name, k[0].support()[0]))
    try:
        product = compose(v1, v2)
    except CompositionError:
        return undecided_certificate(depth)
    wres = wold.wold_decompose(product, depth)
    if wres.unitary_window_basis:
        lead = wres.unitary_window_basis[0].support()[0]
        return false_certificate(depth, ("product_unitary_part", lead))
    if not wres.exact:
        return undecided_certificate(depth)
    return true_certificate(depth, exact=True)


# -- pair decomposition ----------------------------------------------------------


@dataclass(frozen=True)
class PairPart:
    basis: tuple[HVector, ...]
    certificate: Certificate

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class PairReport:
    """Window bases of the four parts: both-unitary, V1-unitary/V2-shift,
    V1-shift/V2-unitary, and the wandering-span remainder, together with
    wandering generator sets covering the remainder."""

    uu: PairPart
    us: PairPart
    su: PairPart
    ws: PairPart
    depth: int
    wandering_generators: dict[str, tuple[HVector, ...]]
    exact: bool


def pair_decompose(pair: PairAnalysis) -> PairReport:
    v1, v2, depth = pair.v1, pair.v2, pair.depth
    (w1, w2), (uu, us, su) = pair.wolds, pair.unitary_type_parts
    ws = _linalg.complement_basis(pair.window, uu + us + su)

    exact = w1.exact and w2.exact

    def part(basis):
        c1 = wold.reducing_certificate(v1, basis, depth)
        c2 = wold.reducing_certificate(v2, basis, depth)
        if c1.is_true and c2.is_true:
            cert = true_certificate(depth, exact=exact)
        else:
            cert = c1 if not c1.is_true else c2
        return PairPart(tuple(basis), cert)

    def generators(wres, ws_basis):
        projections = _linalg.project(wres.orbit_vectors, ws_basis)
        return tuple(_linalg.mgs(
            [p for p in projections if not p.is_zero(GENERATOR_ZERO_TOL)]))

    gens = {
        "v1": generators(w1, ws),
        "v2": generators(w2, ws),
    }
    return PairReport(
        uu=part(uu), us=part(us), su=part(su), ws=part(ws),
        depth=depth, wandering_generators=gens, exact=exact,
    )


# -- completely non doubly commuting ---------------------------------------------


def _doubly_commuting_component(pair: PairAnalysis) -> tuple[int, ...] | None:
    """First proper lane component of the pair, by largest lane id, on which
    the pair doubly commutes.

    The lane sets reducing both operators are exactly the unions of the
    components of their joint lane graph, and a pair doubly commutes on an
    orthogonal sum exactly when it does on every summand, so single
    components are the only candidates worth testing.  Every vector of
    ker V1* lies in one component, which both operators map into itself, so
    the pair's cross-commutator restricts to each component's: a component
    doubly commutes exactly when none of its lanes fails.
    """
    components = lane_components(pair.v1, pair.v2)
    if len(components) < 2:
        return None
    for component in sorted(components, key=max):
        if pair.failing_lanes.isdisjoint(component):
            return component
    return None


def is_completely_non_doubly_commuting(pair: PairAnalysis) -> Certificate:
    """Search for a nonzero reducing subspace on which the pair doubly
    commutes: the whole space, the unitary-type parts of the pair
    decomposition (commuting with a unitary forces double commutation), and
    the lane components of the pair (the components of the lane graph whose
    edges are the tail rules and cross-lane columns of both operators).
    The whole space and the components are read off one cross-commutator
    table.  The unitary-type parts are the window bases that
    ``pair_decompose(pair)`` reports, so a part that the decomposition shows
    is never denied here.

    A true verdict is a certificate relative to that family, reported with
    ``exact=False``; false verdicts carry the witnessing subspace.
    """
    if not pair.failing_lanes:
        return false_certificate(pair.depth, ("subspace", "whole space"))
    for label, basis in zip(("uu", "us", "su"), pair.unitary_type_parts):
        if basis:
            return false_certificate(pair.depth, ("subspace", label))
    component = _doubly_commuting_component(pair)
    if component is not None:
        return false_certificate(pair.depth, ("lanes", component))
    return true_certificate(pair.depth, exact=False)
