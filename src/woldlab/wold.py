"""Single-isometry analysis: Wold decomposition, wandering vectors, the
span-of-wandering-vectors decomposition, minimal unitary extensions and
bilateral orbits.

Infinite quantifiers ("for every positive n") are closed by one of two
structural certificates:

* support drift - once every support index of an orbit vector sits beyond
  the explicit core and the reference positions by more than the total dip
  bound, in a lane cycle with net offset pointing away, the orbit can never
  come back, so all untested inner products vanish;
* recurrence - once an orbit revisits an earlier vector, every future value
  repeats one already tested.

Answers that earn neither certificate are reported with ``exact=False`` (or
an undecided verdict) rather than being rounded up to theorems.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _linalg
from .certificates import (
    Certificate,
    false_certificate,
    true_certificate,
    undecided_certificate,
)
from .config import (
    DEFAULT_DEPTH,
    DEFAULT_HORIZON,
    REDUCING_TOL_FLOOR,
    tolerance,
)
from .core import (
    INTEGERS,
    NATURALS,
    BasisIndex,
    Closure,
    HVector,
    LaneSpec,
    StructuredIsometry,
    Subspace,
    TailRule,
)
from .errors import MalformedInputError, PreconditionError

ESCAPED = "escaped"
PERIODIC = "periodic"
DIED = "died"
OPEN = "open"

_INF = 10 ** 18


@dataclass
class OrbitRecord:
    """Orbit vectors of x under repeated (adjoint) application plus the
    structural certificate classifying its eventual behaviour."""

    vectors: list[HVector]
    status: str
    onset: int | None = None

    @property
    def certified(self) -> bool:
        return self.status in (ESCAPED, PERIODIC, DIED)


def _explicit_bounds(op: StructuredIsometry) -> tuple[int, int]:
    """(lowest, highest) position touched by any explicit data."""
    positions = []
    for src, col in op.explicit_columns.items():
        positions.append(src.position)
        positions.extend(idx.position for idx in col.support())
    if not positions:
        return _INF, -_INF
    return min(positions), max(positions)


class _EscapeContext:
    """Reference data for the drift certificate.

    An index escapes upward when its position exceeds both the explicit core
    and the reference positions by more than the dip bound D (the sum of all
    rule offsets in absolute value): every later position along the rule
    trajectory is at least position - D, so the orbit stays in pure tail
    territory and clear of the reference support forever.  Downward is the
    mirror image and only integer lanes can host it.
    """

    def __init__(self, op: StructuredIsometry, ref_lo: int, ref_hi: int,
                 backward: bool):
        self.op = op
        self.dip = sum(abs(r.offset) for r in op.tail_rules)
        exp_lo, exp_hi = _explicit_bounds(op)
        self.hi_bound = max(exp_hi, ref_hi)
        self.lo_bound = min(exp_lo, ref_lo)
        self.drift = op.lane_cycle_drift()
        self.backward = backward

    def escaped(self, vector: HVector) -> bool:
        for idx in vector.support():
            lane = self.op.lane(idx.lane)
            if lane.is_finite:
                return False
            net = self.drift.get(idx.lane, 0)
            if self.backward:
                net = -net
            if net > 0:
                if not idx.position - self.dip > self.hi_bound:
                    return False
            elif net < 0:
                if lane.kind != INTEGERS or not idx.position + self.dip < self.lo_bound:
                    return False
            else:
                return False
        return True


def _support_signature(v: HVector):
    entries = v._entries
    if not entries:
        return (0, None, None)
    return (len(entries), min(entries), max(entries))


def _orbit(op: StructuredIsometry, x: HVector, steps: int,
           ref_lo: int | None, ref_hi: int | None,
           backward: bool = False) -> OrbitRecord:
    """Orbit of x under V (or V* when ``backward``); reference positions
    default to the extent of x's support."""
    if ref_lo is None or ref_hi is None:
        positions = [idx.position for idx in x.support()] or [0]
        ref_lo = min(positions) if ref_lo is None else ref_lo
        ref_hi = max(positions) if ref_hi is None else ref_hi
    tol = tolerance()
    ctx = _EscapeContext(op, ref_lo, ref_hi, backward)
    step = op.apply_adjoint if backward else op.apply
    max_steps = steps + ctx.dip + 2
    vectors = [x]
    signatures = [_support_signature(x)]
    status, onset = OPEN, None
    if ctx.escaped(x):
        status, onset = ESCAPED, 0
    for n in range(1, max_steps + 1):
        v = step(vectors[-1])
        vectors.append(v)
        signatures.append(_support_signature(v))
        if v.is_zero(tol):
            # stays zero from here on; callers pad with zeros
            if status == OPEN:
                status, onset = DIED, n
            break
        if status == OPEN:
            if ctx.escaped(v):
                status, onset = ESCAPED, n
            else:
                for m in range(n):
                    if signatures[m] == signatures[n] and \
                            v.approx_equals(vectors[m], tol):
                        status, onset = PERIODIC, n
                        break
    return OrbitRecord(vectors, status, onset)


def forward_orbit(op, x, steps, ref_lo=None, ref_hi=None) -> OrbitRecord:
    return _orbit(op, x, steps, ref_lo, ref_hi)


def backward_orbit(op, x, steps, ref_lo=None, ref_hi=None) -> OrbitRecord:
    return _orbit(op, x, steps, ref_lo, ref_hi, backward=True)


# -- Wold decomposition ----------------------------------------------------


def kernel_of_adjoint(v: StructuredIsometry) -> Subspace:
    """Orthonormal basis of ker V*.

    For structured isometries the kernel is finite dimensional: it is the
    orthogonal complement of the explicit columns inside the span of the
    indices no tail rule hits, so the result is exact.
    """
    candidates = [HVector([(idx, 1.0)]) for idx in v.untailed_indices()]
    columns = [v.explicit_columns[src] for src in sorted(v.explicit_columns)]
    basis = _linalg.complement_basis(candidates, columns)
    return Subspace(basis, Closure())


def is_unitary(v: StructuredIsometry) -> bool:
    """Exact: a structured isometry is unitary iff ker V* = {0}."""
    return kernel_of_adjoint(v).dim == 0


@dataclass(frozen=True)
class WoldResult:
    """Wandering basis of the shift part plus a window basis of the unitary
    part.  ``exact`` means every kernel orbit earned a drift certificate, so
    the window bases are the true H_s / H_u window intersections.
    ``orbit_vectors`` keeps the kernel orbits V^n w behind that verdict,
    concatenated in generator order, so analyses built on the decomposition
    need not recompute them."""

    shift_wandering_basis: tuple[HVector, ...]
    unitary_window_basis: tuple[HVector, ...]
    depth: int
    exact: bool
    orbit_vectors: tuple[HVector, ...] = ()

    @property
    def verdict(self) -> str:
        return "true" if self.exact else "undecided"


def shift_orbit_vectors(op: StructuredIsometry, kernel_basis, depth: int,
                        steps: int | None = None):
    """Forward orbits V^n w of the kernel generators, certified against the
    canonical window of the given depth.  ``steps`` lets callers push the
    orbit beyond the window depth."""
    if steps is None:
        steps = depth
    return [forward_orbit(op, w, steps, ref_lo=-depth, ref_hi=depth)
            for w in kernel_basis]


def wold_decompose(v: StructuredIsometry, depth: int = DEFAULT_DEPTH,
                   orbit_depth: int | None = None) -> WoldResult:
    if depth < 1:
        raise MalformedInputError("depth must be positive")
    kernel = kernel_of_adjoint(v).generators
    window = v.window_indices(depth)
    if not kernel:
        basis = [HVector([(idx, 1.0)]) for idx in window]
        return WoldResult((), tuple(basis), depth, True)
    orbits = shift_orbit_vectors(v, kernel, depth,
                                 steps=max(depth, orbit_depth or 0))
    exact = all(o.status == ESCAPED for o in orbits)
    orbit_vectors = tuple(vec for o in orbits for vec in o.vectors)
    candidates = [HVector([(idx, 1.0)]) for idx in window]
    unitary = _linalg.complement_basis(
        candidates, _window_projections(orbit_vectors, window))
    return WoldResult(tuple(kernel), tuple(unitary), depth, exact,
                      orbit_vectors)


def _window_projections(vectors, window) -> list[HVector]:
    """Nonzero restrictions of the vectors to the window indices."""
    window_set = set(window)
    out = []
    for vec in vectors:
        proj = vec.restricted_to(window_set)
        if not proj.is_zero():
            out.append(proj)
    return out


# -- wandering vectors -------------------------------------------------------


def _check_wandering_input(x: HVector, horizon: int) -> None:
    if horizon < 1:
        raise MalformedInputError("horizon must be positive")
    if x.is_zero(tolerance()):
        raise MalformedInputError("the zero vector cannot be wandering")


def is_wandering(v: StructuredIsometry, x: HVector,
                 horizon: int = DEFAULT_HORIZON) -> Certificate:
    """Whether V^n x ⊥ x for every positive n, tested to the horizon.

    Exact when the orbit escapes (drift) or recurs (finite-lane pigeonhole)
    within the horizon; a violation is reported with its first exponent.
    """
    _check_wandering_input(x, horizon)
    orbit = forward_orbit(v, x, horizon)
    tol = tolerance()
    for n in range(1, len(orbit.vectors)):
        if abs(orbit.vectors[n].inner(x)) > tol:
            return false_certificate(horizon, n)
    return true_certificate(horizon, exact=orbit.certified)


@lru_cache(maxsize=4)
def _pair_ranks(horizon: int) -> np.ndarray:
    """rank[n + h, m + h] of each pair (n, m), m < n, in the canonical scan
    order: small exponents first, forward pairs before adjoint ones, i.e.
    ascending (max(|n|, |m|), |n| + |m|, -n, -m).  Entries on and above the
    diagonal are unused.  Stored in the smallest unsigned type that holds
    every rank, and read-only, since the cache shares it."""
    size = 2 * horizon + 1
    rows, cols = np.tril_indices(size, k=-1)
    n, m = rows - horizon, cols - horizon
    order = np.lexsort((-m, -n, np.abs(n) + np.abs(m),
                        np.maximum(np.abs(n), np.abs(m))))
    rank = np.full((size, size), rows.size,
                   dtype=np.min_scalar_type(rows.size))
    rank[rows[order], cols[order]] = np.arange(rows.size)
    rank.flags.writeable = False
    return rank


def _overlap_cutoff(a: np.ndarray, tol: float) -> float:
    """Prefilter cutoff for |<a_i, a_j>| taken from the dense product.

    The dense and the sparse sum of a complex dot product over ``rows``
    entries each lie within about (rows + 3) u ||a_i|| ||a_j|| of the exact
    value (u = eps / 2, Cauchy-Schwarz on the sum of |products|; twice that
    for BLAS builds that form complex products from three real ones), so
    they differ by less than slack = 4 (rows + 2) eps max_k ||a_k||^2.  A
    pair whose sparse overlap exceeds ``tol`` thus has a dense overlap
    above tol - slack.  The cutoff is halfway to ``tol``, or lower when the
    slack needs more room; for large vectors it drops below zero and every
    pair is re-measured.
    """
    norm = float(np.linalg.norm(a, axis=0).max())
    slack = 4 * (a.shape[0] + 2) * np.finfo(float).eps * norm * norm
    return min(0.5 * tol, tol - slack)


def _first_overlap(horizon: int, fwd: list[HVector], back: list[HVector],
                   tol: float):
    """First pair (n, m) in canonical order with |<V^n x, V^m x>| > tol, then
    the first (r, 0) with r > horizon in the extended forward range, or
    None.

    The table holds V*^k x (k = horizon .. 1, zero past a dead backward
    orbit) and V^k x (k = 0 .. horizon, the last orbit vector past a dead
    forward one), as columns -horizon .. horizon of one dense matrix.  Its
    Gram matrix, in blocks of rows, marks every pair that may pass ``tol``;
    the suspects are re-measured with the sparse inner product in
    canonical order, so the first one above ``tol`` is the witness the
    pair-by-pair loop would report.
    """
    zero = HVector.zero()
    table = [back[k] if k < len(back) else zero
             for k in range(horizon, 0, -1)]
    table += [fwd[k] if k < len(fwd) else fwd[-1]
              for k in range(horizon + 1)]
    a = _linalg.Window(table).matrix(table)
    cutoff = _overlap_cutoff(a, tol)
    rank = _pair_ranks(horizon)
    suspects = []
    for start, block in _linalg.blocks(a):
        # gram[r, j] = <a_j, a_(start + r)>, kept for j < start + r
        gram = block.conj().T @ a[:, :start + block.shape[1]]
        rows, cols = np.nonzero(np.tril(np.abs(gram) > cutoff, k=start - 1))
        suspects.append((rank[rows + start, cols], rows + start, cols))
    ranks, rows, cols = (np.concatenate(part) for part in zip(*suspects))
    for s in np.argsort(ranks):
        i, j = int(rows[s]), int(cols[s])
        if abs(table[i].inner(table[j])) > tol:
            return (i - horizon, j - horizon)
    # the forward values must also cover the extended range used to reduce
    # mixed pairs <V^n x, V*^m x> = <V^(n+m) x, x>.  These vectors stay out
    # of the dense table: their supports drift away from x's, so they would
    # widen its window for overlaps that are mostly empty.
    for r in range(horizon + 1, len(fwd)):
        if abs(fwd[r].inner(fwd[0])) > tol:
            return (r, 0)
    return None


def is_strongly_wandering(v: StructuredIsometry, x: HVector,
                          horizon: int = DEFAULT_HORIZON) -> Certificate:
    """Whether V^n x ⊥ V^m x for all distinct n, m in [-horizon, horizon],
    adjoint powers standing in for negative powers.

    For a unitary operator every pair reduces to a forward test of the
    difference exponent.  Otherwise the pair table is checked directly, and
    a violation is reported as the first pair in canonical order: small
    exponents first, forward pairs before adjoint ones (see
    ``_pair_ranks``).  The table's overlaps come from one dense Gram matrix
    used as a prefilter; every pair it flags is confirmed by re-measuring
    it with the sparse inner product, so the verdict and the witness do not
    depend on BLAS rounding.  Exactness additionally requires the backward
    orbit to die out, which reduces every untested mixed or backward pair
    to a certified forward one or to zero.
    """
    _check_wandering_input(x, horizon)
    tol = tolerance()
    if is_unitary(v):
        orbit = forward_orbit(v, x, 2 * horizon)
        for r in range(1, len(orbit.vectors)):
            if abs(orbit.vectors[r].inner(x)) > tol:
                return false_certificate(horizon, (r, 0))
        return true_certificate(horizon, exact=orbit.certified)

    back = backward_orbit(v, x, horizon)
    fwd = forward_orbit(v, x, 2 * horizon)
    witness = _first_overlap(horizon, fwd.vectors, back.vectors, tol)
    if witness is not None:
        return false_certificate(horizon, witness)
    exact = _strong_exactness(v, x, horizon, fwd, back)
    return true_certificate(horizon, exact=exact)


def _strong_exactness(v, x, horizon, fwd, back) -> bool:
    """Close the quantifier over all integer pairs.

    Autocorrelations add over mutually orthogonal reducing components, so a
    multi-component operator is certified componentwise.  The base cases:
    on a unitary component every pair reduces to a certified forward test;
    otherwise the backward orbit must die inside the horizon, which turns
    every untested backward or mixed pair into a certified forward one or a
    pairing with the zero vector.
    """
    components = v.lane_components()
    if len(components) > 1:
        for component in components:
            xc = x.restricted_to_lanes(component)
            if xc.is_zero():
                continue
            vc = v.restricted_to_lanes(component)
            cert = is_strongly_wandering(vc, xc, horizon)
            if not (cert.is_true and cert.exact):
                return False
        return True
    return (back.status == DIED and back.onset is not None
            and back.onset <= horizon and fwd.certified)


# -- span of wandering vectors ----------------------------------------------


@dataclass(frozen=True)
class WanderingSpanResult:
    """H = H0 ⊕ Hw on the window: Hw is spanned by certified wandering
    vectors, H0 is the residual inside the unitary part."""

    h0: Subspace
    hw: Subspace
    certificate: Certificate
    reducing: Certificate
    depth: int
    wold: WoldResult

    @property
    def exact(self) -> bool:
        return self.certificate.exact


def _wandering_unitary_parts(v, orbit_vectors, depth):
    """Unitary components of certified wandering window vectors.

    The search is generative: window basis vectors are certified one by one;
    each certified vector w contributes w - P_{H_s} w.
    """
    window = v.window_indices(depth)
    window_set = set(window)
    horizon = min(depth, 32)
    certified = []
    for idx in window:
        b = HVector([(idx, 1.0)])
        cert = is_wandering(v, b, horizon)
        if cert.is_true and cert.exact:
            certified.append(b)
    parts = []
    for u in _linalg.orthogonal_residual(certified, orbit_vectors):
        u = u.restricted_to(window_set)
        if not u.is_zero():
            parts.append(u)
    return parts


def wandering_span_decompose(v: StructuredIsometry,
                             depth: int = DEFAULT_DEPTH) -> WanderingSpanResult:
    """Split the window into H0 ⊕ Hw.

    Hw collects the full shift part plus every unitary-part direction covered
    by certified wandering vectors.  H0 is the complement inside the unitary
    window.  The result is exact when the Wold data is exact and the residual
    H0 directions recur under V: a recurrent unitary component of a would-be
    wandering vector keeps a non-decaying autocorrelation, while the matching
    shift-component autocorrelation must die off with the drift, so the two
    can only cancel if the unitary component is zero and no wandering vector
    reaches into a recurrent H0.
    """
    wres = wold_decompose(v, depth)
    shift_window = _window_projections(wres.orbit_vectors,
                                       v.window_indices(depth))
    u_parts = _wandering_unitary_parts(v, wres.orbit_vectors, depth)
    span_u = _linalg.mgs(u_parts)
    h0_basis = _linalg.complement_basis(wres.unitary_window_basis, span_u)
    hw_basis = _linalg.mgs(shift_window + span_u)

    residual_recurrent = all(
        forward_orbit(v, g, depth).status in (PERIODIC, DIED)
        for g in h0_basis
    )
    exact = wres.exact and residual_recurrent
    verdict_cert = (true_certificate(depth, exact=True) if exact
                    else undecided_certificate(depth))
    reducing = reducing_certificate(v, h0_basis, depth)
    closure = Closure("forward_orbit", v.name) if v.name else Closure()
    return WanderingSpanResult(
        h0=Subspace(h0_basis, Closure()),
        hw=Subspace(hw_basis, closure),
        certificate=verdict_cert,
        reducing=reducing,
        depth=depth,
        wold=wres,
    )


def reducing_certificate(v: StructuredIsometry, basis, depth: int) -> Certificate:
    """Check P V = V P on an inner window (the margin keeps V from crossing
    the window edge, which would only measure truncation)."""
    tol = max(tolerance(), REDUCING_TOL_FLOOR)
    margin = v.max_offset() + 1
    inner_depth = max(depth - margin, 1)
    indices = v.window_indices(inner_depth)
    units = [HVector([(idx, 1.0)]) for idx in indices]
    lhs = _linalg.project([v.apply(e) for e in units], basis)
    rhs = _linalg.project(units, basis)
    for idx, pv, p in zip(indices, lhs, rhs):
        if (pv - v.apply(p)).norm() > tol:
            return false_certificate(inner_depth, idx)
    return true_certificate(inner_depth, exact=False)


def strongly_wandering_span(v: StructuredIsometry, depth: int = DEFAULT_DEPTH,
                            horizon: int | None = None) -> Subspace:
    """Window span of certified strongly wandering vectors.

    Candidates are the canonical window vectors plus the kernel orbit
    vectors.  The default horizon tracks the depth so that the backward
    orbits of deep window vectors still die out inside it.
    """
    if horizon is None:
        horizon = depth + 1
    window = v.window_indices(depth)
    window_set = set(window)
    kernel = kernel_of_adjoint(v).generators
    candidates = [HVector([(idx, 1.0)]) for idx in window]
    for orbit in shift_orbit_vectors(v, kernel, depth):
        candidates.extend(orbit.vectors)
    certified = []
    for c in candidates:
        proj = c.restricted_to(window_set)
        if proj.is_zero():
            continue
        cert = is_strongly_wandering(v, c, horizon)
        if cert.is_true and cert.exact:
            certified.append(proj)
    return Subspace(_linalg.mgs(certified), Closure())


# -- unitary extension -------------------------------------------------------


@dataclass(frozen=True)
class ExtensionResult:
    """Minimal unitary extension: the operator, the (identity) embedding of
    original lanes, and the lanes added for backward orbits."""

    operator: StructuredIsometry
    lane_map: dict[int, int]
    new_lanes: tuple[int, ...]


def _is_pure_tail_kernel_lane(v: StructuredIsometry, lane_id: int) -> bool:
    lane = v.lane(lane_id)
    if lane.kind != NATURALS:
        return False
    rule = v.rule_from(lane_id)
    if rule is None or rule.threshold != 0 or rule.target_lane != lane_id \
            or rule.offset < 1:
        return False
    for col in v.explicit_columns.values():
        if any(idx.lane == lane_id for idx in col.support()):
            return False
    return True


def minimal_unitary_extension(v: StructuredIsometry,
                              depth: int = DEFAULT_DEPTH) -> ExtensionResult:
    """Extend the shift part to bilateral shifts, keeping the rest verbatim.

    When every adjoint-kernel vector is a plain basis vector of a pure-tail
    self-mapped naturals lane, those lanes are widened to integer lanes (the
    classical picture: each unilateral shift becomes the bilateral shift).
    Otherwise one fresh "past" lane per kernel generator w holds the backward
    orbit, with U mapping its origin to w.  Either way the embedding is the
    identity on original indices and every new basis vector is U^{-n} of an
    original one.
    """
    wres = wold_decompose(v, depth)
    if not wres.exact:
        raise PreconditionError(
            "minimal_unitary_extension requires an exact Wold decomposition"
        )
    kernel = wres.shift_wandering_basis
    lane_map = {l.lane_id: l.lane_id for l in v.lanes}
    if not kernel:
        return ExtensionResult(v, lane_map, ())

    widenable: set[int] | None = set()
    for w in kernel:
        supp = w.support()
        if len(supp) == 1 and abs(abs(w.coefficient(supp[0])) - 1.0) < 1e-9 \
                and _is_pure_tail_kernel_lane(v, supp[0].lane):
            widenable.add(supp[0].lane)
        else:
            widenable = None
            break
    name = f"{v.name}~ext" if v.name else None
    if widenable is not None:
        lanes = []
        for lane in v.lanes:
            if lane.lane_id in widenable:
                lanes.append(LaneSpec(lane.lane_id, INTEGERS, label=lane.label))
            else:
                lanes.append(lane)
        op = StructuredIsometry(lanes, v.explicit_columns, v.tail_rules, name=name)
        return ExtensionResult(op, lane_map, ())

    next_id = max(l.lane_id for l in v.lanes) + 1
    lanes = list(v.lanes)
    columns = dict(v.explicit_columns)
    rules = list(v.tail_rules)
    new_lanes = []
    for k, w in enumerate(kernel):
        lid = next_id + k
        lanes.append(LaneSpec(lid, NATURALS, label=f"past{k}"))
        # position p encodes U^{-(p+1)} w; the lane origin maps onto w itself
        rules.append(TailRule(lid, threshold=1, target_lane=lid, offset=-1))
        columns[BasisIndex(lid, 0)] = w
        new_lanes.append(lid)
    op = StructuredIsometry(lanes, columns, rules, name=name)
    return ExtensionResult(op, lane_map, tuple(new_lanes))


def bilateral_orbit(u: StructuredIsometry, w: HVector,
                    horizon: int = DEFAULT_HORIZON) -> Subspace:
    """Full-orbit subspace generated by a strongly wandering vector of a
    unitary; U restricted to it is a bilateral shift."""
    if not is_unitary(u):
        raise PreconditionError("bilateral_orbit requires a unitary operator")
    cert = is_strongly_wandering(u, w, horizon)
    if not cert.is_true:
        raise PreconditionError(
            "the generator is not strongly wandering", witness=cert.witness
        )
    w0 = w.normalized()
    generators = [u.apply_power(w0, n) for n in range(-horizon, horizon + 1)]
    return Subspace(generators, Closure("full_orbit", u.name or "U"))
