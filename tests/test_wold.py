"""Wold decomposition, wandering certification, wandering-span splitting,
unitary extensions and bilateral orbits."""

import math

import pytest

from oracle import loop_strongly_wandering, scan_pairs
from samples import (
    random_hvector,
    random_structured_isometry,
    structured_catalog_operators,
)
from woldlab import catalog, wold
from woldlab.config import tolerance
from woldlab.core import BasisIndex, HVector, inner
from woldlab.errors import MalformedInputError, PreconditionError
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
    rank = wold._pair_ranks(horizon)
    ranked = sorted(scan_pairs(horizon),
                    key=lambda nm: rank[nm[0] + horizon, nm[1] + horizon])
    assert ranked == scan_pairs(horizon)
    assert sorted(rank[n + horizon, m + horizon]
                  for n, m in ranked) == list(range(len(ranked)))


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


def test_wandering_span_invariant_under_commuting_isometry():
    """Hw is invariant for every isometry commuting with V (checked on an
    inner window), and hence H0 for its adjoint."""
    from samples import catalog_pairs
    from woldlab import _linalg

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
            assert _linalg.span_residual_norm(image, hw) <= 1e-7, name


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
            assert _linalg.span_residual_norm(g, combined) <= 1e-7, name
        for g in combined:
            assert _linalg.span_residual_norm(g, list(span.generators)) <= 1e-7, name


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
    """Every new basis vector is U^{-n} of an original index."""
    for op in (S(), S(2), catalog.example_fixed_plus_shift(),
               catalog.feeding_core()):
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
            assert _linalg.span_residual_norm(e, cover) <= 1e-7, (op.name, idx)


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
