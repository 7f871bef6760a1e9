"""Core types: construction invariants, exact application, adjoints,
composition and commutation."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import DenseWindow
from samples import NICE_COEFFS, random_hvector, random_structured_isometry
from woldlab import catalog
from woldlab.core import (
    BasisIndex,
    HVector,
    LaneSpec,
    StructuredIsometry,
    Subspace,
    TailRule,
    commutes,
    compose,
    doubly_commutes,
    inner,
)
from woldlab.errors import (
    CompositionError,
    InvalidOperatorError,
    MalformedInputError,
    PreconditionError,
)

S = catalog.unilateral_shift


def basis(lane, pos, coeff=1.0):
    return HVector.basis(lane, pos, coeff)


# -- HVector -------------------------------------------------------------------


def test_hvector_prunes_zero_coefficients():
    v = HVector([(BasisIndex(0, 0), 1e-16), (BasisIndex(0, 1), 1.0)])
    assert v.support() == [BasisIndex(0, 1)]


def test_hvector_accumulates_repeated_indices():
    v = HVector([(BasisIndex(0, 0), 0.5), (BasisIndex(0, 0), 0.5)])
    assert v.coefficient(BasisIndex(0, 0)) == 1.0


def test_inner_examples():
    assert inner(basis(0, 0), basis(0, 0)) == 1.0
    assert inner(basis(0, 0), basis(0, 1)) == 0.0
    f, e0 = basis(0, 0), basis(1, 0)
    assert inner(f + e0, f - e0) == 0.0


def test_inner_is_hermitian():
    x = basis(0, 0, 1 + 2j) + basis(0, 3, -1j)
    y = basis(0, 0, 0.5) + basis(0, 3, 2.0)
    assert inner(x, y) == inner(y, x).conjugate()


def test_normalize_zero_vector_rejected():
    with pytest.raises(MalformedInputError):
        HVector.zero().normalized()


@given(st.lists(st.tuples(st.integers(0, 5), st.sampled_from(NICE_COEFFS)),
                min_size=1, max_size=5))
def test_norm_matches_inner(entries):
    v = HVector([(BasisIndex(0, p), c) for p, c in entries])
    assert math.isclose(v.norm() ** 2, abs(inner(v, v)), abs_tol=1e-12)


# -- Subspace generators --------------------------------------------------------


def _loop_check(gens):
    """The generator check as a plain loop: norm of i, then pairs (j, i)."""
    for i, g in enumerate(gens):
        if abs(g.norm() - 1.0) > 1e-6:
            return f"subspace generator {i} is not unit: norm = {g.norm()}"
        for j in range(i):
            overlap = abs(gens[j].inner(g))
            if overlap > 1e-6:
                return (f"subspace generators {j} and {i} are not orthogonal: "
                        f"|<g{j},g{i}>| = {overlap}")
    return None


def _spoiled_basis(seed):
    """An orthonormal family of 12 or 150 (several Gram blocks) with a few
    generators spoiled."""
    py = random.Random(seed)
    n = py.choice([12, 150])
    gens = [basis(0, p, py.choice([1.0, -1.0, 1j])) for p in range(n)]
    for _ in range(py.randint(0, 3)):
        i, j = py.randrange(n), py.randrange(n)
        eps = py.choice([1e-7, 3e-6, 1e-3])
        if py.random() < 0.5:
            gens[i] = gens[i].scaled(1.0 + eps)
        else:
            gens[i] = gens[i] + gens[j].scaled(eps)
    return gens


@pytest.mark.parametrize("seed", range(40))
def test_subspace_check_reports_first_offender_of_the_loop(seed):
    gens = _spoiled_basis(seed)
    expected = _loop_check(gens)
    if expected is None:
        assert Subspace(gens).dim == len(gens)
    else:
        with pytest.raises(MalformedInputError) as info:
            Subspace(gens)
        assert str(info.value) == expected


# -- construction invariants -----------------------------------------------------


def test_non_unit_column_rejected():
    with pytest.raises(InvalidOperatorError, match="not unit"):
        StructuredIsometry(
            [LaneSpec(0, "finite", 1), LaneSpec(1, "naturals")],
            {BasisIndex(0, 0): basis(0, 0, 0.5)},
            [TailRule(1, 0, 1, 1)],
        )


def test_non_orthogonal_columns_rejected():
    with pytest.raises(InvalidOperatorError, match="not orthogonal"):
        StructuredIsometry(
            [LaneSpec(0, "finite", 2), LaneSpec(1, "naturals")],
            {BasisIndex(0, 0): basis(0, 0), BasisIndex(0, 1): basis(0, 0)},
            [TailRule(1, 0, 1, 1)],
        )


def test_misplaced_columns_listed_briefly():
    # one column missing, and 15 columns on positions the tail rule covers
    extra = {BasisIndex(1, p): basis(0, 0) for p in range(5, 20)}
    with pytest.raises(InvalidOperatorError) as info:
        StructuredIsometry(
            [LaneSpec(0, "finite", 1), LaneSpec(1, "naturals")],
            extra, [TailRule(1, 0, 1, 1)],
        )
    assert str(info.value) == (
        "missing columns for [0:0]; unexpected columns for "
        "[1:5, 1:6, 1:7, 1:8, 1:9, 1:10, 1:11, 1:12, 1:13, 1:14] … and 5 more"
    )


def test_column_overlapping_tail_image_rejected():
    with pytest.raises(InvalidOperatorError, match="overlaps the tail image"):
        StructuredIsometry(
            [LaneSpec(0, "finite", 1), LaneSpec(1, "naturals")],
            {BasisIndex(0, 0): basis(1, 1)},
            [TailRule(1, 0, 1, 1)],
        )


def test_uncovered_infinite_lane_rejected():
    with pytest.raises(InvalidOperatorError, match="covering tail rule"):
        StructuredIsometry([LaneSpec(0, "naturals")], {}, [])


def test_adjoint_like_rule_rejected():
    # e_p -> e_{p-1} from threshold 0 would push position -1 out of the lane
    with pytest.raises(InvalidOperatorError):
        StructuredIsometry(
            [LaneSpec(0, "naturals")], {}, [TailRule(0, 0, 0, -1)]
        )


def test_duplicate_tail_targets_rejected():
    with pytest.raises(InvalidOperatorError, match="share a target"):
        StructuredIsometry(
            [LaneSpec(0, "naturals"), LaneSpec(1, "naturals")],
            {},
            [TailRule(0, 0, 0, 1), TailRule(1, 0, 0, 1)],
        )


def test_kind_changing_rule_rejected():
    with pytest.raises(InvalidOperatorError, match="changes lane kind"):
        StructuredIsometry(
            [LaneSpec(0, "naturals"), LaneSpec(1, "integers")],
            {},
            [TailRule(0, 0, 1, 0), TailRule(1, 0, 0, 0)],
        )


# -- apply / apply_adjoint --------------------------------------------------------


def test_apply_shift_moves_basis():
    assert S().apply(basis(0, 0)).approx_equals(basis(0, 1))


def test_apply_fixed_plus_shift_fixes_f(fixed_plus_shift):
    f = basis(0, 0)
    assert fixed_plus_shift.apply(f).approx_equals(f)


def test_apply_double_shift_on_combination():
    v = S(2).apply(basis(0, 3) + basis(0, 5))
    assert v.approx_equals(basis(0, 5) + basis(0, 7))


def test_apply_outside_lanes_rejected(shift):
    with pytest.raises(MalformedInputError):
        shift.apply(basis(7, 0))


def test_adjoint_kills_kernel_vector(shift):
    assert shift.apply_adjoint(basis(0, 0)).is_zero()


def test_adjoint_shifts_down(shift):
    assert shift.apply_adjoint(basis(0, 3)).approx_equals(basis(0, 2))


def test_adjoint_fixed_plus_shift(fixed_plus_shift):
    x = basis(0, 0) + basis(1, 1)
    expected = basis(0, 0) + basis(1, 0)
    assert fixed_plus_shift.apply_adjoint(x).approx_equals(expected)


def test_adjoint_matches_dense_window(fixed_plus_shift):
    dense = DenseWindow(fixed_plus_shift, 8, steps=2)
    for idx in fixed_plus_shift.window_indices(6):
        x = HVector([(idx, 1.0)])
        structural = fixed_plus_shift.apply_adjoint(x)
        expected = dense.to_hvector(dense.adjoint_array(x))
        assert structural.approx_equals(expected)


# -- compose --------------------------------------------------------------------


def test_compose_shifts_adds_offsets():
    s5 = compose(S(2), S(3))
    rule = s5.tail_rules[0]
    assert (rule.offset, rule.threshold) == (5, 0)
    for k in range(9):
        assert s5.apply(basis(0, k)).approx_equals(basis(0, k + 5))


def test_compose_shift_with_itself():
    s2 = compose(S(), S())
    assert s2.tail_rules[0].offset == 2


def test_compose_fixed_plus_shift_squares(fixed_plus_shift):
    sq = compose(fixed_plus_shift, fixed_plus_shift)
    assert sq.apply(basis(0, 0)).approx_equals(basis(0, 0))
    for k in range(6):
        assert sq.apply(basis(1, k)).approx_equals(basis(1, k + 2))


def test_compose_agrees_with_sequential_application():
    for seed in range(12):
        v = random_structured_isometry(seed)
        w = random_structured_isometry(seed + 1000)
        if not v.same_lanes(w):
            continue
        vw = compose(v, w)
        for idx in v.window_indices(5):
            e = HVector([(idx, 1.0)])
            assert vw.apply(e).approx_equals(v.apply(w.apply(e)), 1e-8)


def test_compose_lane_mismatch_rejected(shift, bilateral):
    with pytest.raises(CompositionError):
        compose(shift, bilateral)


# -- commutes / doubly_commutes ----------------------------------------------------


def test_powers_of_shift_commute_exactly():
    cert = commutes(S(2), S(3))
    assert cert.is_true and cert.exact


def test_grid_pair_commutes_exactly():
    v1, v2 = catalog.grid_pair()
    cert = commutes(v1, v2)
    assert cert.is_true and cert.exact


def _swap_f_with_e0():
    # W f = e_0, W e_0 = f, W e_i = e_{i+1} otherwise: a valid isometry that
    # does not commute with the fixed-plus-shift operator
    return StructuredIsometry(
        [LaneSpec(0, "finite", 1), LaneSpec(1, "naturals")],
        {BasisIndex(0, 0): basis(1, 0), BasisIndex(1, 0): basis(0, 0)},
        [TailRule(1, 1, 1, 1)],
        name="swap_f_e0",
    )


def test_non_commuting_pair_detected(fixed_plus_shift):
    cert = commutes(fixed_plus_shift, _swap_f_with_e0())
    assert cert.is_false and cert.witness is not None


def test_doubly_commutes_examples(bilateral):
    cert = doubly_commutes(S(2), S(3))
    assert cert.is_false
    assert cert.witness == BasisIndex(0, 0)

    cert = doubly_commutes(bilateral, bilateral)
    assert cert.is_true and cert.exact

    v1, v2 = catalog.grid_pair()
    assert doubly_commutes(v1, v2).is_true


def test_doubly_commutes_requires_commuting(fixed_plus_shift):
    with pytest.raises(PreconditionError):
        doubly_commutes(fixed_plus_shift, _swap_f_with_e0())


# -- structural properties ---------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_isometry_invariants_random(seed, vec_seed):
    op = random_structured_isometry(seed)
    x = random_hvector(op, vec_seed)
    vx = op.apply(x)
    assert math.isclose(vx.norm(), x.norm(), abs_tol=1e-9)
    assert op.apply_adjoint(vx).approx_equals(x, 1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_inner_products_preserved(seed, s1, s2):
    op = random_structured_isometry(seed)
    x, y = random_hvector(op, s1), random_hvector(op, s2)
    lhs = inner(op.apply(x), op.apply(y))
    assert abs(lhs - inner(x, y)) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.integers(1, 4), st.integers(1, 4))
def test_adjoint_pairing_identity(seed, vec_seed, n, m):
    """<V^n x, V*^m x> = <V^(n+m) x, x>: adjoint powers pair off against
    forward powers."""
    op = random_structured_isometry(seed)
    x = random_hvector(op, vec_seed)
    lhs = inner(op.apply_power(x, n), op.apply_power(x, -m))
    rhs = inner(op.apply_power(x, n + m), x)
    assert abs(lhs - rhs) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_composition_is_valid_isometry(seed):
    """Composing two random operators on the same lanes passes the full
    structural validation (validation re-runs at construction)."""
    v = random_structured_isometry(seed)
    w = random_structured_isometry(seed + 777)
    if not v.same_lanes(w):
        return
    vw = compose(v, w)
    assert vw.same_lanes(v)


def test_dense_window_agreement():
    for name, op in [("shift", S()), ("grid", catalog.grid_pair()[0]),
                     ("fixed", catalog.example_fixed_plus_shift()),
                     ("lingering", catalog.lingering_core())]:
        dense = DenseWindow(op, 8, steps=1)
        for idx in op.window_indices(8):
            e = HVector([(idx, 1.0)])
            assert op.apply(e).approx_equals(
                dense.to_hvector(dense.apply_array(e))
            ), name


def test_lane_components():
    op = catalog.bilateral_plus_shift()
    assert op.lane_components() == [(0,), (1,)]
    assert catalog.lingering_core().lane_components() == [(0, 1)]


def test_restrict_to_lanes():
    op = catalog.bilateral_plus_shift()
    b = op.restricted_to_lanes([0])
    assert [l.lane_id for l in b.lanes] == [0]
    with pytest.raises(PreconditionError):
        catalog.lingering_core().restricted_to_lanes([0])
