"""Wold decomposition, wandering certification, wandering-span splitting,
unitary extensions and bilateral orbits."""

import cmath
import math
import random

import pytest

from oracle import (
    eager_orbit,
    loop_strongly_wandering,
    loop_wandering,
    scan_pairs,
    span_residual_norm,
)
from samples import (
    random_hvector,
    random_structured_isometry,
    structured_catalog_operators,
)
from woldlab import catalog, wold
from woldlab.config import MAX_HORIZON, tolerance
from woldlab.core import (
    BasisIndex,
    HVector,
    LaneSpec,
    StructuredIsometry,
    TailRule,
    inner,
)
from woldlab.errors import (
    InvalidOperatorError,
    MalformedInputError,
    PreconditionError,
)
from woldlab.wold import (
    backward_orbit,
    bilateral_orbit,
    forward_orbit,
    is_strongly_wandering,
    is_unitary,
    is_wandering,
    kernel_of_adjoint,
    minimal_unitary_extension,
    shift_orbit_vectors,
    strongly_wandering_span,
    wandering_span_decompose,
    wold_decompose,
)

S = catalog.unilateral_shift
basis = HVector.basis


# -- kernel ----------------------------------------------------------------------


def test_kernel_of_shift(shift):
    gens = kernel_of_adjoint(shift).generators
    assert len(gens) == 1
    assert gens[0].approx_equals(basis(0, 0))


def test_kernel_of_fixed_plus_shift(fixed_plus_shift):
    gens = kernel_of_adjoint(fixed_plus_shift).generators
    assert len(gens) == 1
    assert gens[0].approx_equals(basis(1, 0))


def test_kernel_of_bilateral_is_trivial(bilateral):
    assert kernel_of_adjoint(bilateral).dim == 0
    assert is_unitary(bilateral)


def test_kernel_of_double_shift():
    gens = kernel_of_adjoint(S(2)).generators
    assert [g.support() for g in gens] == [[BasisIndex(0, 0)], [BasisIndex(0, 1)]]


# -- wold_decompose ---------------------------------------------------------------


def test_wold_fixed_plus_shift(fixed_plus_shift):
    res = wold_decompose(fixed_plus_shift, 32)
    assert res.exact
    assert len(res.unitary_window_basis) == 1
    assert res.unitary_window_basis[0].approx_equals(basis(0, 0))
    assert len(res.shift_wandering_basis) == 1
    assert res.shift_wandering_basis[0].approx_equals(basis(1, 0))


def test_wold_shift(shift):
    res = wold_decompose(shift, 32)
    assert res.exact
    assert res.unitary_window_basis == ()
    assert res.shift_wandering_basis[0].approx_equals(basis(0, 0))


def test_wold_bilateral_plus_shift():
    op = catalog.bilateral_plus_shift()
    res = wold_decompose(op, 16)
    assert res.exact
    # the unitary window is exactly the bilateral lane's window vectors
    assert len(res.unitary_window_basis) == 33
    assert all(g.support()[0].lane == 0 for g in res.unitary_window_basis)
    assert res.shift_wandering_basis[0].approx_equals(basis(1, 0))


def test_wold_orthogonality_invariant():
    for name, op in structured_catalog_operators():
        res = wold_decompose(op, 16)
        orbits = shift_orbit_vectors(op, res.shift_wandering_basis, 16)
        for orbit in orbits:
            for vec in orbit.vectors:
                for u in res.unitary_window_basis:
                    assert abs(inner(vec, u)) <= 1e-9, name


def test_wold_undecided_on_lingering_core():
    res = wold_decompose(catalog.lingering_core(), 32)
    assert not res.exact
    assert res.verdict == "undecided"


def test_shift_basis_lies_in_adjoint_kernel():
    for name, op in structured_catalog_operators():
        res = wold_decompose(op, 16)
        for w in res.shift_wandering_basis:
            assert op.apply_adjoint(w).is_zero(1e-9), name


# -- wandering certification -------------------------------------------------------


def test_kernel_vector_is_wandering(shift):
    cert = is_wandering(shift, basis(0, 0), 16)
    assert cert.is_true and cert.exact


def test_fixed_point_mixture_not_wandering(fixed_plus_shift):
    cert = is_wandering(fixed_plus_shift, basis(0, 0) + basis(1, 0), 16)
    assert cert.is_false
    assert cert.witness == 1


def test_bilateral_basis_vector_wandering(bilateral):
    cert = is_wandering(bilateral, basis(0, 0), 16)
    assert cert.is_true and cert.exact


def test_cycle_vector_not_wandering():
    op = catalog.cycle_plus_shift()
    cert = is_wandering(op, basis(0, 0), 16)
    assert cert.is_false
    assert cert.witness == 2


def test_zero_vector_rejected(shift):
    with pytest.raises(MalformedInputError):
        is_wandering(shift, HVector.zero(), 8)


@pytest.mark.parametrize("check", [is_wandering, is_strongly_wandering])
@pytest.mark.parametrize("horizon", [0, -2])
def test_nonpositive_horizon_rejected(shift, check, horizon):
    with pytest.raises(MalformedInputError, match="horizon"):
        check(shift, basis(0, 0), horizon)


@pytest.mark.parametrize("analysis", [wold_decompose, strongly_wandering_span])
@pytest.mark.parametrize("depth", [0, -2])
def test_nonpositive_depth_rejected(bilateral, analysis, depth):
    with pytest.raises(MalformedInputError, match="depth must be positive"):
        analysis(bilateral, depth)


@pytest.mark.parametrize("check", [is_wandering, is_strongly_wandering])
def test_horizon_above_the_bound_rejected(shift, check):
    with pytest.raises(MalformedInputError, match=f"at most {MAX_HORIZON}"):
        check(shift, basis(0, 0), MAX_HORIZON + 1)


def test_wandering_randomized_against_definition():
    for seed in range(40):
        op = catalog.bilateral_plus_shift()
        x = random_hvector(op, seed)
        cert = is_wandering(op, x, 24)
        direct = all(
            abs(inner(op.apply_power(x, n), x)) <= 1e-9 for n in range(1, 25)
        )
        assert cert.is_true == direct, seed


# -- strong wandering ---------------------------------------------------------------


def test_strongly_wandering_examples(shift, bilateral, fixed_plus_shift):
    assert is_strongly_wandering(bilateral, basis(0, 0), 16).is_true
    cert = is_strongly_wandering(shift, basis(0, 0), 16)
    assert cert.is_true and cert.exact
    cert = is_strongly_wandering(fixed_plus_shift, basis(0, 0), 16)
    assert cert.is_false
    assert cert.witness == (1, 0)


def test_strongly_wandering_matches_pair_table():
    op = catalog.bilateral_plus_shift()
    for seed in range(30):
        x = random_hvector(op, seed + 500)
        cert = is_strongly_wandering(op, x, 10)
        vectors = {n: op.apply_power(x, n) for n in range(-10, 11)}
        direct = all(
            abs(inner(vectors[n], vectors[m])) <= 1e-9
            for n in range(-10, 11) for m in range(-10, n)
        )
        assert cert.is_true == direct, seed


STRONG_SCAN_HORIZONS = (1, 2, 17)


def _strong_verdict(cert):
    return cert.is_true, cert.exact, cert.witness


@pytest.mark.parametrize("horizon", STRONG_SCAN_HORIZONS + (96,))
def test_pair_ranks_follow_scan_order(horizon):
    """The pairs reaching j or -j, taken for j = 1, 2, ..., horizon and
    sorted by ``_scan_key`` within each j, come out in ``scan_pairs``
    order, each pair once."""
    scan = []
    for j in range(1, horizon + 1):
        new = [(j, m) for m in range(1 - j, j)]
        new += [(n, -j) for n in range(1 - j, j + 1)]
        random.Random(j).shuffle(new)
        scan += sorted(new, key=wold._scan_key)
    assert scan == scan_pairs(horizon)


@pytest.mark.parametrize("horizon", STRONG_SCAN_HORIZONS + (96,))
def test_scan_order_sorts_by_scan_key(horizon):
    """``_scan_order`` lists the pairs of random partner sets of j and -j
    as sorting them by ``_scan_key`` would."""
    rng = random.Random(horizon)
    for j in range(1, horizon + 1):
        for density in (0.1, 0.5, 1.0):
            fwd = {m for m in range(1 - j, j) if rng.random() < density}
            back = {n for n in range(1 - j, j + 1) if rng.random() < density}
            pairs = [(j, m) for m in fwd] + [(n, -j) for n in back]
            assert wold._scan_order(j, fwd, back) == \
                sorted(pairs, key=wold._scan_key)


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e4])
def test_strong_scan_matches_pair_loop(scale):
    """The dense prefilter reports the verdict, exactness and witness of the
    pair-by-pair loop, false verdicts with backward and mixed first
    witnesses among them, for unit-sized, tiny and large vectors."""
    ops = [op for _, op in structured_catalog_operators()]
    ops += [random_structured_isometry(seed) for seed in range(24)]
    witnesses = set()
    for k, op in enumerate(ops):
        if is_unitary(op):
            continue
        for seed in range(4):
            x = random_hvector(op, 700 + 10 * k + seed).scaled(scale)
            for horizon in STRONG_SCAN_HORIZONS:
                got = is_strongly_wandering(op, x, horizon)
                want = loop_strongly_wandering(op, x, horizon)
                assert _strong_verdict(got) == _strong_verdict(want), \
                    (k, seed, horizon)
                if want.witness is not None:
                    n, m = want.witness
                    witnesses.add("forward" if m >= 0 else
                                  "backward" if n <= 0 else "mixed")
    assert witnesses == {"forward", "backward", "mixed"}


@pytest.mark.parametrize("size", [1.0, 1e3])
@pytest.mark.parametrize("factor", [0.9, 1.1])
@pytest.mark.parametrize("gap, witness", [(1, (1, 0)), (2, (1, -1))])
def test_strong_scan_at_the_tolerance(shift, size, factor, gap, witness):
    """x = size * e0 + c * e_gap on the shift: the first nonzero overlap is
    <V x, x> (gap 1) or the mixed <V x, V* x> (gap 2), at 0.9 or 1.1 times
    the tolerance.  At size 1e3 the rounding slack exceeds the tolerance,
    so every pair is re-measured."""
    c = factor * tolerance() / size
    x = basis(0, 0, size) + basis(0, gap, c)
    for horizon in STRONG_SCAN_HORIZONS:
        got = is_strongly_wandering(shift, x, horizon)
        assert _strong_verdict(got) == \
            _strong_verdict(loop_strongly_wandering(shift, x, horizon))
        if factor < 1:
            assert got.is_true and got.exact
        else:
            assert got.is_false and got.witness == witness


def _wandering_grid():
    ops = [op for _, op in structured_catalog_operators()]
    return ops + [random_structured_isometry(seed) for seed in range(24)]


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e4])
def test_lazy_scans_match_full_orbits(scale):
    """Orbits grown only until the answer is fixed give the verdict,
    exactness and witness of the scans over full eager orbits, for
    ``is_wandering`` and both branches of ``is_strongly_wandering``."""
    unitary = 0
    for k, op in enumerate(_wandering_grid()):
        unitary += is_unitary(op)
        for seed in range(4):
            x = random_hvector(op, 700 + 10 * k + seed).scaled(scale)
            for horizon in STRONG_SCAN_HORIZONS:
                assert _strong_verdict(is_wandering(op, x, horizon)) == \
                    _strong_verdict(loop_wandering(op, x, horizon)), \
                    (k, seed, horizon)
                assert _strong_verdict(is_strongly_wandering(op, x, horizon)) \
                    == _strong_verdict(loop_strongly_wandering(op, x, horizon)), \
                    (k, seed, horizon)
    assert unitary > 0


@pytest.mark.parametrize("gap", [3, 5, 9, 17, 33])
def test_strong_witness_in_each_shell(shift, gap):
    """x = e0 + c e_gap on the shift first fails at the mixed pair
    (ceil(gap / 2), -floor(gap / 2)), so the witness falls in later and
    later shells, up to the last one at horizon 17."""
    x = basis(0, 0) + basis(0, gap, 1.1 * tolerance())
    for horizon in (4, 16, 17, 40):
        got = is_strongly_wandering(shift, x, horizon)
        assert _strong_verdict(got) == \
            _strong_verdict(loop_strongly_wandering(shift, x, horizon))
        if (gap + 1) // 2 <= horizon:
            assert got.witness == ((gap + 1) // 2, -(gap // 2))


@pytest.mark.parametrize("small", [1e-10, 1e-8])
def test_tiny_lane_component_counts_as_wandering(small):
    """On cycle_plus_shift the cycle lane's part of e_(1,0) + small e_(0,0)
    is skipped by the componentwise exactness check when its norm is at
    most the tolerance, as a zero part is, and certified otherwise."""
    x = basis(1, 0) + basis(0, 0, small)
    got = is_strongly_wandering(catalog.cycle_plus_shift(), x, 8)
    assert got.is_true and got.exact


def _counting(op):
    """op with its apply and apply_adjoint counted in ``op.calls``."""
    op.calls = {"apply": 0, "apply_adjoint": 0}
    for name in op.calls:
        def counted(x, _name=name, _f=getattr(op, name)):
            op.calls[_name] += 1
            return _f(x)
        setattr(op, name, counted)
    return op


def test_lazy_scans_stop_at_the_answer(shift, fixed_plus_shift, bilateral):
    """Orbits stop at the first witness, at an escape, and, behind a clean
    strong table, after horizon backward steps."""
    op = _counting(fixed_plus_shift)
    cert = is_strongly_wandering(op, basis(0, 0), 96)
    assert cert.witness == (1, 0)
    assert op.calls == {"apply": 1, "apply_adjoint": 1}
    op = _counting(shift)
    assert is_wandering(op, basis(0, 0), 96).exact
    assert op.calls["apply"] == 2  # escaped at its second step
    op = _counting(bilateral)
    assert is_strongly_wandering(op, basis(0, 0), 96).exact
    assert op.calls == {"apply": 2, "apply_adjoint": 0}
    # a clean table needs V*^40 x, not the eager h + dip + 2 backward
    # steps; the forward orbit escapes at its third step, the bound
    # dismisses every later forward column, and the extended range is
    # never entered
    op = _counting(catalog.bilateral_plus_shift())
    cert = is_strongly_wandering(op, basis(0, 0), 40)
    assert cert.is_true and cert.exact
    assert op.calls == {"apply": 3, "apply_adjoint": 40}


def test_lazy_scans_on_long_lingering_orbits():
    """lingering_core's backward orbits decay inside the finite core without
    dying or recurring, so the recurrence search runs over the whole orbit."""
    op = catalog.lingering_core()
    vectors = [basis(0, 0), basis(0, 1), basis(0, 0) + basis(1, 3, 0.5)]
    vectors += [random_hvector(op, 900 + seed) for seed in range(3)]
    for x in vectors:
        assert backward_orbit(op, x, 96).status == "open"
        for horizon in (96, 160):
            assert _strong_verdict(is_wandering(op, x, horizon)) == \
                _strong_verdict(loop_wandering(op, x, horizon))
            assert _strong_verdict(is_strongly_wandering(op, x, horizon)) == \
                _strong_verdict(loop_strongly_wandering(op, x, horizon))


def _leaky_cycle(factor: float, with_shift: bool) -> StructuredIsometry:
    """A 2-cycle whose column (0, 0) has norm ``factor``, accepted by a
    loose validation tolerance, so forward orbits decay and die; with
    ``with_shift`` a shift lane makes the operator non-unitary."""
    lanes = [LaneSpec(0, "finite", 2)]
    columns = {BasisIndex(0, 0): basis(0, 1, factor),
               BasisIndex(0, 1): basis(0, 0)}
    rules = []
    if with_shift:
        lanes.append(LaneSpec(1, "naturals"))
        rules.append(TailRule(1, 0, 1, 1))
    return StructuredIsometry(lanes, columns, rules, tol=0.8)


@pytest.mark.parametrize("with_shift", [False, True])
def test_lazy_scans_on_dead_forward_orbits(with_shift):
    """Forward orbits that die inside the table (padded with their last
    vector) and inside the extended range."""
    op = _leaky_cycle(0.3, with_shift)
    assert is_unitary(op) is not with_shift
    died = forward_orbit(op, basis(0, 0), 96)
    assert died.status == "died" and 17 < died.onset < 96
    vectors = [basis(0, 0), basis(0, 0) + basis(0, 1, 0.25)]
    if with_shift:
        vectors.append(basis(0, 1) + basis(1, 2, 1e-3))
    for x in vectors:
        for horizon in (17, 60, 96):
            assert _strong_verdict(is_wandering(op, x, horizon)) == \
                _strong_verdict(loop_wandering(op, x, horizon))
            assert _strong_verdict(is_strongly_wandering(op, x, horizon)) == \
                _strong_verdict(loop_strongly_wandering(op, x, horizon))


def test_escaped_scan_finds_a_backward_pair_past_the_onset():
    """On bilateral_plus_shift, x = u + w with u = e_(1,20) + e_(1,21) / 2
    on the shift lane and w = e_(0,20) - e_(0,21) / 2 on the bilateral one:
    the two lag-1 autocorrelations cancel, so every forward and mixed pair
    vanishes, but the backward pairs (-(a - 1), -a) lose the shift part
    once V*^a truncates u.  The forward orbit escapes at step 4, long
    before that shell, and is not grown past it."""
    op = _counting(catalog.bilateral_plus_shift())
    x = basis(1, 20) + basis(1, 21, 0.5) + basis(0, 20) + basis(0, 21, -0.5)
    assert forward_orbit(op, x, 8).onset == 4
    op.calls.update(apply=0, apply_adjoint=0)
    got = is_strongly_wandering(op, x, 40)
    assert got.witness == (-21, -22)
    assert op.calls == {"apply": 4, "apply_adjoint": 22}
    assert _strong_verdict(got) == \
        _strong_verdict(loop_strongly_wandering(op, x, 40))


def test_components_the_vector_misses_are_not_restricted():
    """The clean table of e_(1,0) on _leaky_cycle(0.3, True) is certified
    on the shift lane alone.  The cycle lane, which the vector misses, is
    never restricted: its column of norm 0.3 would fail validation at the
    working tolerance."""
    op = _leaky_cycle(0.3, True)
    got = is_strongly_wandering(op, basis(1, 0), 17)
    assert got.is_true and got.exact
    assert op.component_restrictions[(0,)] == {}


def test_overflowing_escape_bound_falls_back_to_the_scan(monkeypatch):
    """The cycle lane of _leaky_cycle(1.75, True) has a column of norm
    1.75, so the isometry defect is 4.125 and (1 + delta)^512 overflows a
    float: the escape cut gives up and the whole table is scanned, with the
    verdict of the plain loop.  (The exactness re-test on the shift lane
    alone, whose defect is 0, cuts.)"""
    op = _leaky_cycle(1.75, True)
    assert op.isometry_defect.bound == pytest.approx(4.125)
    with pytest.raises(OverflowError):
        math.expm1(MAX_HORIZON * math.log1p(op.isometry_defect.bound))
    cuts = []
    real_cut = wold._escape_cut

    def recorded(v, *args):
        cuts.append((v, real_cut(v, *args)))
        return cuts[-1][1]
    monkeypatch.setattr(wold, "_escape_cut", recorded)
    x = basis(1, 0)
    got = is_strongly_wandering(op, x, MAX_HORIZON)
    assert [cut for v, cut in cuts if v is op] == [False]
    assert got.is_true and got.exact
    assert _strong_verdict(got) == \
        _strong_verdict(loop_strongly_wandering(op, x, MAX_HORIZON))


def test_restrictions_are_validated_at_each_tolerance(monkeypatch):
    """The cycle lane of _leaky_cycle(0.99999, True) has a column of norm
    0.99999: its restriction validates under a working tolerance of 1e-3,
    where the clean table of e_(1,0) + 0.01 e_(0,0) restricts it, but not
    under the default one, so a later clean table restricting it raises
    there as it does on a fresh operator."""
    op = _leaky_cycle(0.99999, True)
    monkeypatch.setenv("WOLDLAB_TOLERANCE", "1e-3")
    loose = is_strongly_wandering(op, basis(1, 0) + basis(0, 0, 0.01), 17)
    assert loose.is_true and list(op.component_restrictions[(0,)]) == [1e-3]
    monkeypatch.delenv("WOLDLAB_TOLERANCE")
    x = basis(1, 0) + basis(0, 0, 1e-6)
    for fresh in (op, _leaky_cycle(0.99999, True)):
        with pytest.raises(InvalidOperatorError, match="not unit"):
            is_strongly_wandering(fresh, x, 17)


def _leaky_feed(factor: float) -> StructuredIsometry:
    """A shift lane fed by a one-point lane whose column factor * e_(1,0)
    has norm ``factor``, accepted by a loose validation tolerance; one
    lane component, so no restriction is re-validated."""
    return StructuredIsometry(
        [LaneSpec(0, "finite", 1), LaneSpec(1, "naturals")],
        {BasisIndex(0, 0): basis(1, 0, factor)}, [TailRule(1, 0, 1, 1)],
        tol=0.8)


@pytest.mark.parametrize("factor", [0.3, 0.99])
@pytest.mark.parametrize("horizon", [17, 40])
def test_large_isometry_defect_gets_no_cut(factor, horizon):
    """With a column of norm 0.3 or 0.99, ||V*V - I|| is near 0.9 or 0.02,
    so the bound on the forward pairs past an escape fails at once: the
    escaping orbits of e_(1,0) and e_(1,4) are scanned as by the full
    table, one forward step per exponent, with the verdict and exactness
    of the pair loop."""
    for x in (basis(1, 0), basis(1, 4)):
        op = _counting(_leaky_feed(factor))
        assert op.isometry_defect.bound > 1 - factor ** 2
        got = is_strongly_wandering(op, x, horizon)
        assert op.calls["apply"] == horizon
        assert got.is_true and got.exact
        assert _strong_verdict(got) == \
            _strong_verdict(loop_strongly_wandering(op, x, horizon))


def test_escaped_scans_match_the_pair_loop():
    """Random structured isometries, vectors with Gaussian complex
    coefficients (and their first entry alone, which is more often strongly
    wandering), horizons 8 to 64: the scan reports the verdict, exactness
    and witness of the pair-by-pair loop over full orbits, also where the
    forward orbit escaped inside the horizon and its later columns were
    passed over."""
    cut = 0
    for seed in range(80):
        op = random_structured_isometry(seed)
        if is_unitary(op):
            continue
        py = random.Random(seed)
        x = HVector([(idx, c * complex(py.gauss(0, 1), py.gauss(0, 1)))
                     for idx, c in random_hvector(op, 900 + seed, 5).items()])
        if x.is_zero(tolerance()):
            continue
        for vec in (x, HVector([x.items()[0]])):
            horizon = py.randint(8, 64)
            counted = _counting(random_structured_isometry(seed))
            got = is_strongly_wandering(counted, vec, horizon)
            assert _strong_verdict(got) == \
                _strong_verdict(loop_strongly_wandering(op, vec, horizon)), \
                (seed, horizon)
            cut += got.is_true and counted.calls["apply"] < horizon
    assert cut >= 10


def test_proof_identity_for_wandering_vectors():
    """For a wandering w with Wold components w_u, w_s the unitary and shift
    autocorrelations cancel: <V^n w_u, w_u> = -<V^n w_s, w_s>."""
    for name, op in structured_catalog_operators():
        res = wold_decompose(op, 16)
        if not res.exact:
            continue
        orbit_vectors = [
            vec for o in shift_orbit_vectors(op, res.shift_wandering_basis, 24)
            for vec in o.vectors
        ]
        for seed in range(25):
            x = random_hvector(op, seed)
            if not is_wandering(op, x, 24).is_true:
                continue
            xs = HVector.zero()
            for ov in orbit_vectors:
                xs = xs + ov.scaled(inner(x, ov))
            xu = x - xs
            for n in range(1, 12):
                lhs = inner(op.apply_power(xu, n), xu)
                rhs = inner(op.apply_power(xs, n), xs)
                assert abs(lhs + rhs) <= 1e-8, (name, seed, n)


def test_commuting_image_of_wandering_is_wandering():
    """Applying a commuting isometry preserves the wandering property."""
    for name, (v1, v2) in [("grid", catalog.grid_pair()),
                           ("s2_s3", (S(2), S(3)))]:
        for seed in range(30):
            x = random_hvector(v1, seed)
            cert = is_wandering(v1, x, 20)
            if not cert.is_true:
                continue
            image = v2.apply(x)
            assert is_wandering(v1, image, 20).is_true, (name, seed)


# -- wandering span decomposition ----------------------------------------------------


def test_wandering_span_fixed_plus_shift(fixed_plus_shift):
    res = wandering_span_decompose(fixed_plus_shift, 24)
    assert res.exact
    assert res.h0.dim == 1
    assert res.h0.generators[0].approx_equals(basis(0, 0))
    assert res.hw.dim == 24
    assert res.reducing.is_true


def test_zero_subspace_reduces_without_applying(monkeypatch, fixed_plus_shift):
    """The empty basis reduces every operator: the check returns the inner
    window's certificate before it builds or applies anything."""
    applied = []
    monkeypatch.setattr(StructuredIsometry, "apply",
                        lambda self, x: applied.append(x))
    cert = wold.reducing_certificate(fixed_plus_shift, [], 16)
    margin = fixed_plus_shift.max_offset() + 1
    assert (cert.verdict, cert.horizon, cert.exact) == ("true", 16 - margin,
                                                        False)
    assert applied == []


def test_wandering_span_shift(shift):
    res = wandering_span_decompose(shift, 24)
    assert res.exact
    assert res.h0.dim == 0
    assert res.hw.dim == 24


def test_wandering_span_bilateral_plus_shift():
    res = wandering_span_decompose(catalog.bilateral_plus_shift(), 16)
    assert res.exact
    assert res.h0.dim == 0


def test_wandering_span_h0_orthogonal_to_hw(fixed_plus_shift):
    res = wandering_span_decompose(fixed_plus_shift, 16)
    for g in res.h0.generators:
        for h in res.hw.generators:
            assert abs(inner(g, h)) <= 1e-9


def test_h0_orbits_stop_at_their_onset(monkeypatch):
    """The recurrence test behind the exact verdict grows each H0
    generator's orbit only until its status is fixed, not to the full
    depth + dip + 2 steps."""
    orbits = []
    start = wold.forward_orbit
    monkeypatch.setattr(wold, "forward_orbit",
                        lambda *a, **k: orbits.append(start(*a, **k))
                        or orbits[-1])
    res = wandering_span_decompose(catalog.cycle_plus_shift(), 64)
    assert res.exact and res.h0.dim == 2
    h0 = [o for o in orbits
          if any(o.vectors[0] is g for g in res.h0.generators)]
    assert [(o.status, o.onset, len(o.vectors) - 1) for o in h0] == \
        [("periodic", 2, 2)] * 2


def test_wandering_span_invariant_under_commuting_isometry():
    """Hw is invariant for every isometry commuting with V (checked on an
    inner window), and hence H0 for its adjoint."""
    from samples import catalog_pairs

    depth = 16
    for name, (v1, v2) in catalog_pairs():
        res = wandering_span_decompose(v1, depth)
        if not res.exact:
            continue
        hw = list(res.hw.generators)
        margin = v2.max_offset() + 1
        inner_window = set(v1.window_indices(depth - margin))
        for g in hw:
            image = v2.apply(g).restricted_to(inner_window)
            if image.is_zero():
                continue
            assert span_residual_norm(image, hw) <= 1e-7, name


# -- strongly wandering span and the splitting lemma -----------------------------------


def _unitary_lane_restriction(op, depth):
    """V restricted to the lanes carrying its unitary window part, when those
    lanes exist; None when the unitary part is trivial."""
    res = wold_decompose(op, depth)
    lanes = sorted({idx.lane for g in res.unitary_window_basis
                    for idx in g.support()})
    if not lanes:
        return None
    return op.restricted_to_lanes(lanes)


def test_strong_span_splits_along_wold():
    """W = H_s ⊕ W_u on the window, for each catalog operator with exact
    Wold data and lane-aligned unitary part."""
    from woldlab import _linalg

    depth = 12
    for name, op in structured_catalog_operators():
        res = wold_decompose(op, depth)
        if not res.exact:
            continue
        span = strongly_wandering_span(op, depth)
        window = set(op.window_indices(depth))
        shift_window = []
        for orbit in shift_orbit_vectors(op, res.shift_wandering_basis, depth):
            for vec in orbit.vectors:
                proj = vec.restricted_to(window)
                if not proj.is_zero():
                    shift_window.append(proj)
        restriction = _unitary_lane_restriction(op, depth)
        wu_basis = []
        if restriction is not None:
            wu_basis = list(strongly_wandering_span(restriction, depth).generators)
        combined = _linalg.mgs(shift_window + wu_basis)
        assert span.dim == len(combined), name
        for g in span.generators:
            assert span_residual_norm(g, combined) <= 1e-7, name
        for g in combined:
            assert span_residual_norm(g, list(span.generators)) <= 1e-7, name


def test_strong_splitting_componentwise():
    """A vector is certified strongly wandering iff both its Wold components
    are (zero components counting as trivially wandering)."""
    depth = 12
    for name, op in structured_catalog_operators():
        res = wold_decompose(op, depth)
        if not res.exact:
            continue
        orbit_vectors = [
            vec for o in shift_orbit_vectors(op, res.shift_wandering_basis, 40)
            for vec in o.vectors
        ]
        samples = [random_hvector(op, seed) for seed in range(20)]
        samples += [g for g in res.shift_wandering_basis]
        for k, x in enumerate(samples):
            xs = HVector.zero()
            for ov in orbit_vectors:
                xs = xs + ov.scaled(inner(x, ov))
            xu = x - xs
            whole = is_strongly_wandering(op, x, depth).is_true
            part_u = True if xu.is_zero(1e-9) else \
                is_strongly_wandering(op, xu, depth).is_true
            part_s = True if xs.is_zero(1e-9) else \
                is_strongly_wandering(op, xs, depth).is_true
            assert whole == (part_u and part_s), (name, k)


def _counting_strong_tests(monkeypatch, op):
    """Record the vectors ``is_strongly_wandering`` is asked about on op,
    component re-tests excluded."""
    tested = []
    test = wold.is_strongly_wandering

    def counted(v, x, horizon=wold.DEFAULT_HORIZON):
        if v is op:
            tested.append(x)
        return test(v, x, horizon)
    monkeypatch.setattr(wold, "is_strongly_wandering", counted)
    return tested


def _span_certifying_every_candidate(v, depth):
    """The generators of ``strongly_wandering_span`` with every candidate
    certified afresh, repeats included, and the number of candidates."""
    from woldlab import _linalg

    indices = v.window_indices(depth)
    window = set(indices)
    candidates = [HVector([(idx, 1.0)]) for idx in indices]
    kernel = kernel_of_adjoint(v).generators
    for orbit in shift_orbit_vectors(v, kernel, depth):
        candidates.extend(orbit.vectors)
    tested = 0
    certified = []
    for c in candidates:
        proj = c.restricted_to(window)
        if proj.is_zero():
            continue
        tested += 1
        cert = is_strongly_wandering(v, c, depth + 1)
        if cert.is_true and cert.exact:
            certified.append(proj)
    return _linalg.mgs(certified), tested


def _bits(vectors):
    return [[(idx, c.real.hex(), c.imag.hex()) for idx, c in g._entries.items()]
            for g in vectors]


def test_deep_strong_span_is_refused_before_any_work(monkeypatch, shift):
    """From depth MAX_HORIZON on the horizon depth + 1 is out of range: the
    call is refused, naming the depth, before the kernel is computed."""
    def no_work(*args):
        raise AssertionError("the kernel was computed")
    monkeypatch.setattr(wold, "kernel_of_adjoint", no_work)
    with pytest.raises(MalformedInputError,
                       match=f"depth must be at most {MAX_HORIZON - 1}, "
                             f"got {MAX_HORIZON}"):
        strongly_wandering_span(shift, MAX_HORIZON)


def test_strong_span_tests_each_distinct_candidate_once(monkeypatch, shift):
    """On the shift the kernel orbit V^n e_0 restricted to the window is the
    window units again, so depth 40 needs 40 strong tests, not 80."""
    tested = _counting_strong_tests(monkeypatch, shift)
    span = strongly_wandering_span(shift, 40)
    assert len(tested) == 40
    assert len({x.plain_index() for x in tested}) == 40
    assert span.dim == 40


@pytest.mark.parametrize("name", ["shift", "double_shift", "fixed_plus_shift",
                                  "cycle_plus_shift", "bilateral_plus_shift",
                                  "feeding_core"])
def test_strong_span_matches_certifying_every_candidate(name):
    op = catalog.get(name).build()
    want, _ = _span_certifying_every_candidate(op, 40)
    assert _bits(strongly_wandering_span(op, 40).generators) == _bits(want)


# seeds 14 and 72: kernel generators mixed over lanes with phase 1j, so no
# candidate repeats; seeds 2 and 51: plain kernels on lanes with phase -1
# and 1j, whose orbits come back to the window units
@pytest.mark.parametrize("seed, repeats", [(14, False), (72, False),
                                           (2, True), (51, True)])
def test_strong_span_on_random_isometries(monkeypatch, seed, repeats):
    op = random_structured_isometry(seed)
    want, candidates = _span_certifying_every_candidate(op, 8)
    tested = _counting_strong_tests(monkeypatch, op)
    assert _bits(strongly_wandering_span(op, 8).generators) == _bits(want)
    assert (len(tested) < candidates) == repeats


def test_strong_span_keys_candidates_by_their_bits(monkeypatch, shift):
    """A candidate that differs from a window unit only in the sign of a
    zero imaginary part is tested on its own; an identical one is not."""
    unit = HVector([(BasisIndex(0, 0), 1.0)])
    signed = HVector._pruned({BasisIndex(0, 0): complex(1.0, -0.0)})
    assert unit.approx_equals(signed, 0.0)

    class Orbit:
        vectors = [unit, signed, signed]
    monkeypatch.setattr(wold, "shift_orbit_vectors",
                        lambda v, kernel, depth: [Orbit])
    tested = _counting_strong_tests(monkeypatch, shift)
    strongly_wandering_span(shift, 4)
    assert len(tested) == 5
    assert math.copysign(1.0, tested[-1].coefficient(BasisIndex(0, 0)).imag) \
        == -1.0


# -- minimal unitary extension ---------------------------------------------------------


def test_extension_of_shift_is_bilateral(shift):
    res = minimal_unitary_extension(shift)
    op = res.operator
    assert [l.kind for l in op.lanes] == ["integers"]
    assert is_unitary(op)
    assert res.new_lanes == ()
    # embedding is the identity on original indices
    assert op.apply(basis(0, 3)).approx_equals(shift.apply(basis(0, 3)))
    # every new basis vector is a backward image of an original one
    assert op.apply(basis(0, -1)).approx_equals(basis(0, 0))


def test_extension_of_fixed_plus_shift(fixed_plus_shift):
    res = minimal_unitary_extension(fixed_plus_shift)
    op = res.operator
    assert [l.kind for l in op.lanes] == ["finite", "integers"]
    assert is_unitary(op)
    assert op.apply(basis(0, 0)).approx_equals(basis(0, 0))


def test_extension_of_double_shift():
    res = minimal_unitary_extension(S(2))
    op = res.operator
    assert [l.kind for l in op.lanes] == ["integers"]
    assert is_unitary(op)
    # the doubled offset interleaves two bilateral orbits
    for w, cls in ((basis(0, 0), 0), (basis(0, 1), 1)):
        orb = bilateral_orbit(op, w, 6)
        positions = sorted(idx.position for g in orb.generators
                           for idx in g.support())
        assert all(p % 2 == cls for p in positions)


def test_extension_of_unitary_is_identity(bilateral):
    res = minimal_unitary_extension(bilateral)
    assert res.operator is bilateral
    assert res.new_lanes == ()


def test_extension_backward_orbit_form():
    op = catalog.feeding_core()
    res = minimal_unitary_extension(op)
    ext = res.operator
    assert len(res.new_lanes) == 2
    assert is_unitary(ext)
    # original action preserved
    for idx in op.window_indices(5):
        e = HVector([(idx, 1.0)])
        assert ext.apply(e).approx_equals(op.apply(e))
    # each new lane origin maps onto a kernel generator
    kernel = kernel_of_adjoint(op).generators
    for lid, w in zip(res.new_lanes, kernel):
        assert ext.apply(basis(lid, 0)).approx_equals(w)
        assert ext.apply(basis(lid, 2)).approx_equals(basis(lid, 1))


def test_extension_refused_without_exact_wold():
    with pytest.raises(PreconditionError):
        minimal_unitary_extension(catalog.lingering_core())


def test_extension_minimality_on_window():
    """Every new basis vector is U^{-n} of an original index.  The last two
    operators take past lanes although a kernel vector is a plain unit: on
    a finite lane, and on a pure-tail naturals lane that a column touches."""
    finite_kernel = StructuredIsometry(
        [LaneSpec(0, "finite", 1), LaneSpec(1, "naturals")],
        {BasisIndex(0, 0): basis(1, 0)}, [TailRule(1, 0, 1, 1)])
    touched_tail = StructuredIsometry(
        [LaneSpec(0, "naturals"), LaneSpec(1, "finite", 1)],
        {BasisIndex(1, 0): basis(0, 1)}, [TailRule(0, 0, 0, 2)])
    for op in (S(), S(2), catalog.example_fixed_plus_shift(),
               catalog.feeding_core(), finite_kernel, touched_tail):
        res = minimal_unitary_extension(op)
        ext = res.operator
        original_lanes = {l.lane_id for l in op.lanes}
        for idx in ext.window_indices(8):
            if idx.lane in original_lanes and op.contains_index(idx):
                continue
            v = HVector([(idx, 1.0)])
            reached = False
            for _ in range(40):
                v = ext.apply(v)
                if any(i.lane in original_lanes and op.contains_index(i)
                       for i in v.support()):
                    reached = True
                    break
            assert reached, (op.name, idx)


# -- bilateral orbits -------------------------------------------------------------------


def test_bilateral_orbit_spans_lane(bilateral):
    sub = bilateral_orbit(bilateral, basis(0, 0), 8)
    assert sub.dim == 17
    assert sub.closure.kind == "full_orbit"
    positions = sorted(idx.position for g in sub.generators for idx in g.support())
    assert positions == list(range(-8, 9))


def test_bilateral_orbit_of_diagonal_vector():
    bb = catalog.bilateral_plus_shift().restricted_to_lanes([0])
    del bb
    from woldlab.core import LaneSpec, StructuredIsometry, TailRule
    bb = StructuredIsometry(
        [LaneSpec(0, "integers"), LaneSpec(1, "integers")], {},
        [TailRule(0, 0, 0, 1), TailRule(1, 0, 1, 1)], name="B+B",
    )
    w = (basis(0, 0) + basis(1, 0)).scaled(1 / math.sqrt(2))
    sub = bilateral_orbit(bb, w, 6)
    assert sub.dim == 13
    # the restriction acts as a bilateral shift on the orbit basis
    for n in range(-6, 6):
        assert bb.apply(sub.generators[n + 6]).approx_equals(sub.generators[n + 7])


def test_bilateral_orbit_walks_each_direction_once():
    """h applications each way beyond those of the strong test, and the
    generators have the bits of U^n w0 by apply_power for n = -h..h."""
    h = 9
    op = StructuredIsometry(
        [LaneSpec(0, "integers"), LaneSpec(1, "integers")], {},
        [TailRule(0, 0, 0, 1, cmath.exp(2j * math.pi / 7)),
         TailRule(1, 0, 1, 1, cmath.exp(0.6j * math.pi))])
    w = basis(0, 0, 0.6) + basis(1, 0, 0.8j + 1e-3)
    expected = [op.apply_power(w.normalized(), n) for n in range(-h, h + 1)]
    op = _counting(op)
    is_strongly_wandering(op, w, h)
    strong = dict(op.calls)
    op.calls.update(apply=0, apply_adjoint=0)
    sub = bilateral_orbit(op, w, h)
    assert op.calls == {"apply": strong["apply"] + h,
                        "apply_adjoint": strong["apply_adjoint"] + h}
    assert [repr(g.items()) for g in sub.generators] == \
        [repr(g.items()) for g in expected]


def test_bilateral_orbit_refuses_fixed_point(fixed_plus_shift):
    ext = minimal_unitary_extension(fixed_plus_shift).operator
    with pytest.raises(PreconditionError) as err:
        bilateral_orbit(ext, basis(0, 0), 8)
    assert err.value.witness == (1, 0)


def test_bilateral_orbit_requires_unitary(shift):
    with pytest.raises(PreconditionError):
        bilateral_orbit(shift, basis(0, 0), 8)


def test_extension_is_span_of_bilateral_shifts():
    """When the original window is spanned by wandering vectors, the minimal
    unitary extension is covered by bilateral orbit subspaces."""
    from woldlab import _linalg

    horizon = 10
    for op in (S(), S(2), catalog.bilateral_plus_shift()):
        span = wandering_span_decompose(op, horizon)
        assert span.h0.dim == 0 and span.exact, op.name
        ext = minimal_unitary_extension(op).operator
        orbit_bases = []
        for w in kernel_of_adjoint(op).generators:
            orbit_bases.extend(bilateral_orbit(ext, w, 2 * horizon).generators)
        for lane in ext.lanes:
            if lane.kind == "integers" and op.lane(lane.lane_id).kind == "integers":
                # unitary-part lanes contribute their own wandering vectors
                orbit_bases.extend(
                    bilateral_orbit(ext, basis(lane.lane_id, 0), 2 * horizon).generators
                )
        cover = _linalg.mgs(orbit_bases)
        for idx in ext.window_indices(horizon):
            e = HVector([(idx, 1.0)])
            assert span_residual_norm(e, cover) <= 1e-7, (op.name, idx)


# -- orbit certificates -------------------------------------------------------------


def test_orbit_classification(shift, bilateral):
    rec = forward_orbit(shift, basis(0, 0), 16)
    assert rec.status == "escaped"
    rec = backward_orbit(shift, basis(0, 3), 16)
    assert rec.status == "died" and rec.onset == 4
    cyc = catalog.cycle_plus_shift()
    rec = forward_orbit(cyc, basis(0, 0), 16)
    assert rec.status == "periodic"
    rec = forward_orbit(catalog.lingering_core(),
                        kernel_of_adjoint(catalog.lingering_core()).generators[0],
                        16)
    assert rec.status == "open"


def _same_orbit(got, want) -> bool:
    """Equal vectors, entry by entry in dict order, and equal status and
    onset."""
    return ([list(v._entries.items()) for v in got.vectors], got.status,
            got.onset) == \
        ([list(v._entries.items()) for v in want.vectors], want.status,
         want.onset)


def test_extended_orbit_equals_fresh_orbit():
    """A record extended from s to t steps, or grown step by step from x
    alone, holds the vectors, status and onset of a fresh t-step orbit and
    of the eager reference."""
    statuses = set()
    for k, op in enumerate(_wandering_grid()):
        for seed in range(3):
            x = random_hvector(op, 300 + 10 * k + seed)
            for backward in (False, True):
                start = backward_orbit if backward else forward_orbit
                for s, t in ((0, 9), (3, 40)):
                    fresh = start(op, x, t)
                    want = eager_orbit(op, x, t, backward=backward)
                    assert _same_orbit(fresh, want), (k, seed, backward, t)
                    assert _same_orbit(start(op, x, s).extend(t), want)
                    lazy = start(op, x)
                    for n in range(1, 2 * s + 2):
                        lazy.reach(n)
                    assert _same_orbit(lazy.extend(t), want)
                    statuses.add(want.status)
    assert statuses == {"escaped", "periodic", "died", "open"}


def _decaying_cycle(factor: float) -> StructuredIsometry:
    """lingering_core with column (0, 0) = factor e_(0,1) + b e_(1,0): the
    backward orbit of e_(0,0) is e00, e01, factor e00, factor e01, ..., so
    its second step differs from x by 1 - factor in norm and in distance."""
    b = math.sqrt(1.0 - factor * factor)
    col = HVector([(BasisIndex(0, 1), factor), (BasisIndex(1, 0), b)])
    return StructuredIsometry(
        [LaneSpec(0, "finite", 2), LaneSpec(1, "naturals")],
        {BasisIndex(0, 0): col, BasisIndex(0, 1): basis(0, 0)},
        [TailRule(1, 0, 1, 1)],
    )


@pytest.mark.parametrize("factor", [0.9, 1.1])
def test_recurrence_norm_filter_at_the_tolerance(monkeypatch, factor):
    """Vectors whose norms differ by 0.9 tol still go to ``approx_equals``,
    which finds the recurrence; at 1.1 tol the norm filter skips every
    candidate, and the orbit stays open, as in the eager search."""
    op = _decaying_cycle(1.0 - factor * tolerance())
    x = basis(0, 0)
    want = eager_orbit(op, x, 40, backward=True)
    calls = []
    original = HVector.approx_equals
    monkeypatch.setattr(HVector, "approx_equals",
                        lambda self, *a: calls.append(1) or original(self, *a))
    got = backward_orbit(op, x, 40)
    monkeypatch.undo()
    assert _same_orbit(got, want)
    if factor < 1:
        assert (got.status, got.onset) == ("periodic", 2)
        assert len(calls) == 1
    else:
        assert got.status == "open" and len(got.vectors) > 40
        assert calls == []
    for horizon in (2, 17):
        assert _strong_verdict(is_strongly_wandering(op, x, horizon)) == \
            _strong_verdict(loop_strongly_wandering(op, x, horizon))


def test_unitarity_by_count_matches_kernel():
    """dim ker V* = untailed indices - explicit columns, so the count test
    agrees with the kernel on every catalog operator and 400 random ones."""
    ops = [op for _, op in structured_catalog_operators()]
    ops += [random_structured_isometry(seed) for seed in range(400)]
    verdicts = [is_unitary(op) for op in ops]
    assert verdicts == [kernel_of_adjoint(op).dim == 0 for op in ops]
    assert 0 < sum(verdicts) < len(ops)
