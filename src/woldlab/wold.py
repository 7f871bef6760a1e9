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

import math
from dataclasses import dataclass, field

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
    MAX_HORIZON,
    PRUNE_TOL,
    REDUCING_TOL_FLOOR,
    WANDERING_HORIZON_CAP,
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
    _EPS,
)
from .errors import MalformedInputError, PreconditionError

ESCAPED = "escaped"
PERIODIC = "periodic"
DIED = "died"
OPEN = "open"

_INF = 10 ** 18


@dataclass
class OrbitRecord:
    """Orbit vectors x, T x, T^2 x, ... of x under T = V (or V*) plus the
    structural certificate classifying its eventual behaviour.

    A record returned by ``forward_orbit`` or ``backward_orbit`` grows on
    demand (``reach``, ``extend``, ``settle``).  Its status is that of the
    vectors it holds so far, and once it leaves OPEN it never changes, so a
    record grown to more steps holds the same vectors, status and onset as
    an orbit of that many steps computed afresh.
    """

    vectors: list[HVector]
    status: str
    onset: int | None = None
    _growth: "_OrbitGrowth | None" = field(default=None, init=False,
                                           repr=False, compare=False)

    @property
    def certified(self) -> bool:
        return self.status in (ESCAPED, PERIODIC, DIED)

    def last_step(self, steps: int) -> int:
        """Index of the last vector of a fresh orbit of ``steps``: orbits run
        dip + 2 steps past them, so that an escape can show."""
        return steps + self._growth.ctx.dip + 2

    def extend(self, steps: int) -> "OrbitRecord":
        """Grow the record to the orbit of ``steps`` steps."""
        self.reach(self.last_step(steps))
        return self

    def settle(self, steps: int) -> str:
        """Grow the record only until its status is fixed, at most to the
        orbit of ``steps`` steps, and return the status that orbit has."""
        for n in range(len(self.vectors), self.last_step(steps) + 1):
            if self.status != OPEN or not self.reach(n):
                break
        return self.status

    def reach(self, n: int) -> bool:
        """Grow the record through T^n x; False if the orbit died first
        (it stays zero from there on, and callers pad)."""
        growth = self._growth
        while len(self.vectors) <= n:
            if growth is None or growth.dead:
                return False
            growth.step(self)
        return True


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
        self.dip = op.dip_bound
        exp_lo, exp_hi = op.explicit_extent or (_INF, -_INF)
        self.hi_bound = max(exp_hi, ref_hi)
        self.lo_bound = min(exp_lo, ref_lo)
        self.drift = op.cycle_drift
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


class _OrbitGrowth:
    """What an ``OrbitRecord`` needs to take its next step.

    The recurrence search only compares vectors with equal support
    signatures, and of those it skips a pair whose norms differ by more
    than ``tol`` plus rounding: ||v - w|| >= |‖v‖ - ‖w‖|, so
    ``approx_equals`` could not accept it.  Every match it reports is
    decided by ``approx_equals``.
    """

    __slots__ = ("ctx", "apply", "tol", "dead", "seen")

    def __init__(self, ctx: _EscapeContext, apply, tol: float):
        self.ctx = ctx
        self.apply = apply
        self.tol = tol
        self.dead = False
        # signature -> [(step, norm)] of the vectors taken while OPEN
        self.seen: dict = {}

    def note(self, record: OrbitRecord, signature, norm: float) -> None:
        self.seen.setdefault(signature, []).append(
            (len(record.vectors) - 1, norm))

    def step(self, record: OrbitRecord) -> None:
        n = len(record.vectors)
        v = self.apply(record.vectors[-1])
        record.vectors.append(v)
        norm = v.norm()
        if norm <= self.tol:
            self.dead = True
            if record.status == OPEN:
                record.status, record.onset = DIED, n
            return
        if record.status != OPEN:
            return
        if self.ctx.escaped(v):
            record.status, record.onset = ESCAPED, n
            return
        signature = _support_signature(v)
        if self.recurs(record, v, signature, norm):
            record.status, record.onset = PERIODIC, n
        else:
            self.note(record, signature, norm)

    def recurs(self, record: OrbitRecord, v: HVector, signature,
               norm: float) -> bool:
        size = 2 * len(v._entries)
        for m, norm_m in self.seen.get(signature, ()):
            if abs(norm - norm_m) > self.tol + _norm_gap_slack(size, norm,
                                                                norm_m):
                continue
            if v.approx_equals(record.vectors[m], self.tol):
                return True
        return False


def _norm_gap_slack(size: int, norm_v: float, norm_w: float) -> float:
    """Bound on how far the computed ||v - w|| may fall below the computed
    |‖v‖ - ‖w‖| for vectors with ``size`` entries between them.

    Each computed norm is within (size + 4) u of its exact value relative
    to it (u = eps / 2), and so is the norm of the computed difference
    relative to ||v - w|| <= ‖v‖ + ‖w‖; the difference also drops entries
    of modulus at most PRUNE_TOL, which can take sqrt(size) PRUNE_TOL off
    its norm.  Twice the sum of those terms is used.
    """
    return (2 * (size + 4) * _EPS * (norm_v + norm_w)
            + 2 * size ** 0.5 * PRUNE_TOL)


def _orbit(op: StructuredIsometry, x: HVector, steps: int | None,
           ref_lo: int | None, ref_hi: int | None,
           backward: bool = False) -> OrbitRecord:
    """Orbit of x under V (or V* when ``backward``), grown to ``steps`` or,
    when ``steps`` is None, holding x alone until a caller grows it;
    reference positions default to the extent of x's support."""
    if ref_lo is None or ref_hi is None:
        positions = [idx.position for idx in x.support()] or [0]
        ref_lo = min(positions) if ref_lo is None else ref_lo
        ref_hi = max(positions) if ref_hi is None else ref_hi
    ctx = _EscapeContext(op, ref_lo, ref_hi, backward)
    growth = _OrbitGrowth(ctx, op.apply_adjoint if backward else op.apply,
                          tolerance())
    record = OrbitRecord([x], OPEN)
    record._growth = growth
    if ctx.escaped(x):
        record.status, record.onset = ESCAPED, 0
    else:
        growth.note(record, _support_signature(x), x.norm())
    if steps is not None:
        record.extend(steps)
    return record


def forward_orbit(op, x, steps=None, ref_lo=None, ref_hi=None) -> OrbitRecord:
    return _orbit(op, x, steps, ref_lo, ref_hi)


def backward_orbit(op, x, steps=None) -> OrbitRecord:
    return _orbit(op, x, steps, None, None, backward=True)


# -- Wold decomposition ----------------------------------------------------


def kernel_of_adjoint(v: StructuredIsometry) -> Subspace:
    """Orthonormal basis of ker V*, exact: the operator's own
    ``adjoint_kernel``, derived once per operator and shared, so callers
    only read it."""
    return v.adjoint_kernel


def is_unitary(v: StructuredIsometry) -> bool:
    """Exact: a structured isometry is unitary iff ker V* = {0}.  Validated
    explicit columns are orthonormal and avoid the tail image, so dim ker V*
    is the number of untailed indices minus the number of columns.  Counted
    without deriving ``adjoint_kernel``, so no linear algebra is loaded."""
    return len(v.untailed_indices()) == len(v.explicit_columns)


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
    kernel = kernel_of_adjoint(v).generators
    window = v.window_indices(depth)
    candidates = [HVector([(idx, 1.0)]) for idx in window]
    if not kernel:
        return WoldResult((), tuple(candidates), depth, True)
    orbits = shift_orbit_vectors(v, kernel, depth,
                                 steps=max(depth, orbit_depth or 0))
    exact = all(o.status == ESCAPED for o in orbits)
    orbit_vectors = tuple(vec for o in orbits for vec in o.vectors)
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
    if horizon > MAX_HORIZON:
        raise MalformedInputError(
            f"horizon must be at most {MAX_HORIZON}, got {horizon}")
    if x.is_zero(tolerance()):
        raise MalformedInputError("the zero vector cannot be wandering")


def _first_return(orbit: OrbitRecord, start: int, steps: int, tol: float):
    """First r >= start, up to the end of an orbit of ``steps``, with
    |<T^r x, x>| > tol, or None; x is the orbit's first vector and its
    support lies within the orbit's reference positions.

    The orbit grows one step per test, so it stops at the first return.
    It also stops once the orbit has escaped: from the onset on, every
    support lies clear of the reference positions, so every later inner
    product with x is exactly 0.
    """
    x = orbit.vectors[0]
    for r in range(start, orbit.last_step(steps) + 1):
        if orbit.status == ESCAPED and orbit.onset <= r:
            return None
        if not orbit.reach(r):
            return None
        if abs(orbit.vectors[r].inner(x)) > tol:
            return r
    return None


def is_wandering(v: StructuredIsometry, x: HVector,
                 horizon: int = DEFAULT_HORIZON) -> Certificate:
    """Whether V^n x ⊥ x for every positive n, tested to the horizon.

    Exact when the orbit escapes (drift) or recurs (finite-lane pigeonhole)
    within the horizon; a violation is reported with its first exponent.
    The orbit is grown only until the first violation or its escape.
    """
    _check_wandering_input(x, horizon)
    orbit = forward_orbit(v, x)
    n = _first_return(orbit, 1, horizon, tolerance())
    if n is not None:
        return false_certificate(horizon, n)
    return true_certificate(horizon, exact=orbit.certified)


def _scan_key(pair):
    """Sort key of the pair (n, m), m < n, in the canonical scan order:
    small exponents first, forward pairs before adjoint ones."""
    n, m = pair
    return (max(abs(n), abs(m)), abs(n) + abs(m), -n, -m)


def _scan_order(j: int, fwd_partners, back_partners) -> list:
    """The pairs (j, m), m in ``fwd_partners``, and (n, -j), n in
    ``back_partners``, sorted by ``_scan_key``; every partner lies in
    (-j, j), except that ``back_partners`` may hold j.

    All these pairs share max(|n|, |m|) = j, so the order is by the other
    exponent's modulus a, and for each a it is (j, a), (j, -a), (a, -j),
    (-a, -j).  Only the moduli are sorted.
    """
    order = []
    for a in sorted({abs(m) for m in fwd_partners}.union(
            abs(n) for n in back_partners)):
        if a in fwd_partners:
            order.append((j, a))
        if a and -a in fwd_partners:
            order.append((j, -a))
        if a in back_partners:
            order.append((a, -j))
        if a and -a in back_partners:
            order.append((-a, -j))
    return order


def _escape_cut(v: StructuredIsometry, fwd: OrbitRecord, cmax: float,
                horizon: int, tol: float) -> bool:
    """Whether a bound B(k) proves, for every forward column k past the
    onset o of the escaped forward record up to the horizon, that its inner
    products with every column m < k are at most ``tol`` as the scan would
    compute them; ``cmax`` is the largest |<V^n x, x>| measured so far,
    n >= 1.  B increases with k, so it is evaluated at the horizon only.

    Write f_t for the computed V^t x, a_t for the exact one, e_t for a
    bound on ||f_t - a_t||, c(n) = <a_n, x>, and delta, W for the
    operator's ``isometry_defect``.  Then, for m < k:

    * <a_k, a_m> = <V*^m V^m a_(k-m), x>, and ||V*^m V^m - I|| <=
      (1 + delta)^m - 1, so <a_k, a_m> is within
      ||x||^2 ((1 + delta)^k - 1) of c(k - m);
    * |c(n)| <= |computed <f_n, x>| + (S + 2) eps ||f_n|| ||x|| + e_n ||x||.
      The computed value is among those behind ``cmax`` when f_n shares an
      index with x, and exactly 0 otherwise, which includes every n >= o:
      from the onset on, supports stay clear of x's reference positions;
    * the computed <f_k, f_m> is within (S + 2) eps ||f_k|| ||f_m|| of the
      exact one, which is within e_k ||f_m|| + ||a_k|| e_m of <a_k, a_m>.

    S is the largest support among f_0 .. f_o, and no later column is
    larger (past the onset V only moves indices), so no inner product sums
    more than S terms, each off by a few eps.  One application
    sums at most W products into an entry, which gives
    ||fl(V f) - V f|| <= eta ||f|| with eta = (W + 2) eps sqrt(W (1 + delta))
    before pruning, and pruning drops at most W |supp f| entries of
    modulus at most ``PRUNE_TOL``.  With lambda = sqrt(1 + delta) >= ||V||,
    e_0 = 0 and e_(t+1) <= lambda e_t + eta ||f_t|| + sqrt(W |supp f_t|)
    PRUNE_TOL, summed over the built vectors up to e_o.  Past the onset
    ||f_t|| <= Lambda^(t - o) ||f_o|| with Lambda = lambda + eta, so every
    e_t with t <= k is at most E_k = Lambda^(k - o) (e_o + (k - o)
    (eta F + sqrt(W S) PRUNE_TOL)), and every norm involved at most
    N_k = F Lambda^k, F the largest norm among f_0 .. f_o.  Hence

        B(k) = cmax + 2 (F^2 ((1 + delta)^k - 1)
                         + 2 (S + 2) eps N_k^2 + 3 N_k E_k).

    The factor 2 covers the rounding of the bound's own evaluation.  A
    column padded with the last vector of an orbit that died at d is
    bounded by B(d) <= B(k).
    """
    onset = fwd.onset
    defect, width = v.isometry_defect
    lam = math.sqrt(1.0 + defect)
    eta = (width + 2) * _EPS * math.sqrt(width * (1.0 + defect))
    prune = math.sqrt(width) * PRUNE_TOL
    growth = lam + eta
    err = 0.0
    norm_max, size_max = 0.0, 0
    for t, f in enumerate(fwd.vectors[:onset + 1]):
        norm, size = f.norm(), len(f._entries)
        norm_max, size_max = max(norm_max, norm), max(size_max, size)
        if t < onset:
            err = lam * err + eta * norm + prune * math.sqrt(size)
    step = eta * norm_max + prune * math.sqrt(size_max)
    inner_slack = 2 * (size_max + 2) * _EPS
    try:
        reach = norm_max * growth ** horizon
        drift = growth ** (horizon - onset) * (err + (horizon - onset) * step)
        defect_growth = math.expm1(horizon * math.log1p(defect))
        bound = cmax + 2 * (norm_max ** 2 * defect_growth
                            + inner_slack * reach ** 2 + 3 * reach * drift)
    except OverflowError:  # far beyond any tolerance
        return False
    return bound <= tol


def _first_overlap(v: StructuredIsometry, horizon: int, fwd: OrbitRecord,
                   back: OrbitRecord, tol: float):
    """First pair (n, m) in canonical order with |<V^n x, V^m x>| > tol, then
    the first (r, 0) with r > horizon in the extended forward range, or
    None.

    The table's column k is V^k x for k >= 0 (the last orbit vector past a
    dead forward orbit) and V*^-k x for k < 0 (zero past a dead backward
    one).  Exponents j = 1, 2, ..., horizon are taken one at a time,
    growing both orbits only as far as j.  Columns with disjoint supports
    have an inner product of exactly 0, so an index from each basis index
    to the columns holding it names the only pairs that can pass ``tol``:
    those of the new columns j and -j with a column sharing an index.  They
    are measured with the sparse inner product in canonical order
    (``_scan_order``), which sorts by max(|n|, |m|) = j first, so the first
    violation found is the one the pair-by-pair loop over the whole table
    would report.

    Past the onset o of an escaped forward orbit the forward columns are
    not built when ``_escape_cut`` proves that none of their pairs with an
    earlier forward column can pass ``tol``.  Their pairs with backward
    columns share no index: from the onset on the forward trajectory stays
    beyond x's support and the explicit columns, and every backward index
    is carried onto one of those by tail moves.  When the bound fails, the
    whole table is scanned.
    """
    zero = HVector.zero()
    table = {0: fwd.vectors[0]}
    holders: dict = {}  # basis index -> exponents of the columns holding it

    def partners(k: int) -> set:
        """Exponents of the earlier columns sharing an index with column k,
        which is then entered in the index."""
        found = set()
        for idx in table[k]._entries:
            held = holders.setdefault(idx, [])
            found.update(held)
            held.append(k)
        return found

    partners(0)
    cmax = 0.0  # largest measured |<V^n x, x>|, n >= 1
    cut = None  # whether the forward columns past an escape are cleared
    for j in range(1, horizon + 1):
        if cut is None and fwd.status != OPEN:
            # the onset lies before j: columns up to j - 1 are built
            cut = fwd.status == ESCAPED and _escape_cut(v, fwd, cmax,
                                                        horizon, tol)
        fwd_partners = ()
        if not cut:
            table[j] = fwd.vectors[j] if fwd.reach(j) else fwd.vectors[-1]
            fwd_partners = partners(j)
        table[-j] = back.vectors[j] if back.reach(j) else zero
        back_partners = partners(-j)
        if not (fwd_partners or back_partners):
            continue
        for n, m in _scan_order(j, fwd_partners, back_partners):
            value = abs(table[n].inner(table[m]))
            if value > tol:
                return (n, m)
            if m == 0:
                cmax = max(cmax, value)
    # the forward values must also cover the extended range used to reduce
    # mixed pairs <V^n x, V*^m x> = <V^(n+m) x, x>
    r = _first_return(fwd, horizon + 1, 2 * horizon, tol)
    return None if r is None else (r, 0)


def is_strongly_wandering(v: StructuredIsometry, x: HVector,
                          horizon: int = DEFAULT_HORIZON) -> Certificate:
    """Whether V^n x ⊥ V^m x for all distinct n, m in [-horizon, horizon],
    adjoint powers standing in for negative powers.

    Orbits are grown only until the answer is fixed.  For a unitary
    operator every pair reduces to a forward test of the difference
    exponent, so the forward orbit is stepped and tested until the first
    return or until it escapes.  Otherwise the pair table is scanned one
    exponent at a time, j = 1, 2, ..., horizon, and a violation is reported
    as the first pair in canonical order: small exponents first, forward
    pairs before adjoint ones (see ``_scan_key``).  Only pairs whose
    vectors share a basis index are measured, with the sparse inner
    product; every other pair is exactly orthogonal.  Once the forward
    orbit has escaped, its later columns are built only where a bound on
    their pairs fails (see ``_first_overlap``).  A clean table is followed
    by the extended forward range, tested only while the forward orbit has
    not escaped.  Exactness additionally requires the backward orbit to
    die out within the horizon, which reduces every untested mixed or
    backward pair to a certified forward one or to zero.
    """
    _check_wandering_input(x, horizon)
    tol = tolerance()
    if is_unitary(v):
        orbit = forward_orbit(v, x)
        r = _first_return(orbit, 1, 2 * horizon, tol)
        if r is not None:
            return false_certificate(horizon, (r, 0))
        return true_certificate(horizon, exact=orbit.certified)

    back = backward_orbit(v, x)
    fwd = forward_orbit(v, x)
    witness = _first_overlap(v, horizon, fwd, back, tol)
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
    components = v.component_restrictions
    if len(components) > 1:
        for component in components:
            xc = x.restricted_to_lanes(component)
            # its overlaps are at most ||xc||^2 <= tol^2
            if xc.is_zero(tolerance()):
                continue
            vc = v.component_restriction(component)
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

    The search is generative: each window basis vector w that is certified
    wandering contributes w - P_{H_s} w.  A vector whose residual is zero
    contributes nothing, so it is not certified.  Only a vector whose index
    some orbit vector holds can have a zero residual; every other one is
    its own residual.  The parts are the residuals of the certified vectors
    taken as one family, since the last digits of a residual depend on the
    family it is computed in.
    """
    window = v.window_indices(depth)
    horizon = min(depth, WANDERING_HORIZON_CAP)
    held = {idx for g in orbit_vectors for idx in g._entries}
    shared = [idx for idx in window if idx in held]
    residuals = _linalg.orthogonal_residual(
        [HVector([(idx, 1.0)]) for idx in shared], orbit_vectors)
    in_h_s = {idx for idx, r in zip(shared, residuals) if r.is_zero()}
    certified = []
    for idx in window:
        if idx in in_h_s:
            continue
        b = HVector([(idx, 1.0)])
        cert = is_wandering(v, b, horizon)
        if cert.is_true and cert.exact:
            certified.append(b)
    return _window_projections(
        _linalg.orthogonal_residual(certified, orbit_vectors), window)


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
        forward_orbit(v, g).settle(depth) in (PERIODIC, DIED)
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
    the window edge, which would only measure truncation).  The zero
    subspace reduces every operator."""
    tol = max(tolerance(), REDUCING_TOL_FLOOR)
    margin = v.max_offset() + 1
    inner_depth = max(depth - margin, 1)
    if not basis:
        return true_certificate(inner_depth, exact=False)
    indices = v.window_indices(inner_depth)
    units = [HVector([(idx, 1.0)]) for idx in indices]
    # P V e and P e for every unit e, from one window
    both = _linalg.project([v.apply(e) for e in units] + units, basis)
    lhs, rhs = both[:len(units)], both[len(units):]
    for idx, pv, p in zip(indices, lhs, rhs):
        if (pv - v.apply(p)).norm() > tol:
            return false_certificate(inner_depth, idx)
    return true_certificate(inner_depth, exact=False)


def strongly_wandering_span(v: StructuredIsometry,
                            depth: int = DEFAULT_DEPTH) -> Subspace:
    """Window span of certified strongly wandering vectors.

    Candidates are the canonical window vectors plus the kernel orbit
    vectors.  Each distinct candidate is certified once: the verdict is a
    function of the operator, the candidate's entries, the horizon and the
    working tolerance, so a candidate whose entries repeat an earlier one
    bit for bit (as V^n w repeats a window unit when w is a plain unit)
    reuses its answer.  A repeat still enters the family that is
    orthonormalized, so the generators keep their bits.  The horizon is
    depth + 1, so that the backward orbits of deep window vectors still die
    out inside it; a depth that would take it past ``MAX_HORIZON`` is
    refused before any work.
    """
    horizon = depth + 1
    if horizon > MAX_HORIZON:
        raise MalformedInputError(
            f"depth must be at most {MAX_HORIZON - 1}, got {depth}")
    window = v.window_indices(depth)
    window_set = set(window)
    kernel = kernel_of_adjoint(v).generators
    candidates = [HVector([(idx, 1.0)]) for idx in window]
    for orbit in shift_orbit_vectors(v, kernel, depth):
        candidates.extend(orbit.vectors)
    verdicts: dict = {}  # bit key of a candidate -> certified strongly wandering
    certified = []
    for c in candidates:
        proj = c.restricted_to(window_set)
        if proj.is_zero():
            continue
        key = _bit_key(c)
        if key not in verdicts:
            cert = is_strongly_wandering(v, c, horizon)
            verdicts[key] = cert.is_true and cert.exact
        if verdicts[key]:
            certified.append(proj)
    return Subspace(_linalg.mgs(certified), Closure())


def _bit_key(x: HVector) -> tuple:
    """The entries of x in insertion order with the bits of each value, so
    that equal keys mean identical inputs, signed zeros included."""
    return tuple((idx, c.real.hex(), c.imag.hex())
                 for idx, c in x._entries.items())


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
        idx = w.plain_index()
        if idx is None or not _is_pure_tail_kernel_lane(v, idx.lane):
            widenable = None
            break
        widenable.add(idx.lane)
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
    # U^n w0 for n = -horizon..horizon, one application per step
    orbit = {0: w.normalized()}
    for n in range(1, horizon + 1):
        orbit[n] = u.apply(orbit[n - 1])
        orbit[-n] = u.apply_adjoint(orbit[1 - n])
    generators = [orbit[n] for n in range(-horizon, horizon + 1)]
    return Subspace(generators, Closure("full_orbit", u.name or "U"))
