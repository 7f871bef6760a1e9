"""Commuting-pair analyses: forward closure of the residual, exhaustion,
weak bi-shift classification, the four-part decomposition, and the search
for doubly-commuting reducing subspaces."""

import random

import pytest

from samples import catalog_pairs
from woldlab import catalog, pairs, wold
from woldlab.certificates import false_certificate, true_certificate
from woldlab.core import (
    BasisIndex,
    Closure,
    HVector,
    LaneSpec,
    StructuredIsometry,
    Subspace,
    TailRule,
    doubly_commutes,
    inner,
    lane_components,
    lanes_reducing,
)
from woldlab.errors import PreconditionError
from woldlab.pairs import (
    _doubly_commuting_component,
    exhaust_h0,
    h0_plus,
    is_completely_non_doubly_commuting,
    pair_decompose,
    weak_bishift_classify,
)
from woldlab.wold import is_unitary, wandering_span_decompose

S = catalog.unilateral_shift
basis = HVector.basis


# -- h0_plus -------------------------------------------------------------------


def test_h0_plus_fixed_point(fixed_plus_shift):
    wsd = wandering_span_decompose(fixed_plus_shift, 24)
    res = h0_plus(fixed_plus_shift, fixed_plus_shift, wsd.h0, 24)
    assert res.certificate.is_true and res.certificate.exact
    assert res.subspace.dim == 1
    assert res.subspace.generators[0].approx_equals(basis(0, 0))
    assert res.v1_unitary_on
    assert res.v1_reducing.is_true and res.v2_reducing.is_true


def test_h0_plus_cycle_lane():
    op = catalog.cycle_plus_shift()
    wsd = wandering_span_decompose(op, 24)
    res = h0_plus(op, op, wsd.h0, 24)
    assert res.certificate.is_true
    assert res.subspace.dim == 2
    lanes = {idx.lane for g in res.subspace.generators for idx in g.support()}
    assert lanes == {0}
    assert res.v1_unitary_on


def test_h0_plus_trivial_input(shift):
    res = h0_plus(shift, shift, Subspace([], Closure()), 16)
    assert res.subspace.dim == 0
    assert res.certificate.is_true and res.certificate.exact


def test_h0_plus_requires_commuting(fixed_plus_shift):
    from test_core import _swap_f_with_e0

    wsd = wandering_span_decompose(fixed_plus_shift, 16)
    with pytest.raises(PreconditionError):
        h0_plus(fixed_plus_shift, _swap_f_with_e0(), wsd.h0, 16)


def test_h0_plus_rejects_vectors_outside_residual(fixed_plus_shift):
    outside = Subspace([basis(1, 0)], Closure())
    with pytest.raises(PreconditionError):
        h0_plus(fixed_plus_shift, fixed_plus_shift, outside, 16)


def test_h0_plus_output_stays_clear_of_shift_part(fixed_plus_shift):
    """The closure keeps reducing the first operator to a unitary: its
    vectors stay orthogonal to every certified shift-part orbit vector."""
    from woldlab.wold import shift_orbit_vectors, wold_decompose

    wsd = wandering_span_decompose(fixed_plus_shift, 24)
    res = h0_plus(fixed_plus_shift, fixed_plus_shift, wsd.h0, 24)
    wres = wold_decompose(fixed_plus_shift, 24)
    for orbit in shift_orbit_vectors(fixed_plus_shift, wres.shift_wandering_basis, 24):
        for vec in orbit.vectors:
            for g in res.subspace.generators:
                assert abs(inner(vec, g)) <= 1e-9


# -- exhaust_h0 ----------------------------------------------------------------


def test_exhaust_fixed_plus_shift(fixed_plus_shift):
    res = exhaust_h0(fixed_plus_shift, fixed_plus_shift, depth=24)
    assert res.iterations == 1
    assert res.certificate.is_true
    assert res.peeled_lanes == (0,)
    lanes = {idx.lane for g in res.h1.generators for idx in g.support()}
    assert lanes == {1}


def test_exhaust_shift_stops_immediately(shift):
    res = exhaust_h0(shift, shift, depth=24)
    assert res.iterations == 0
    assert res.certificate.is_true
    assert res.h1.dim == 24


def test_exhaust_cycle_plus_shift():
    op = catalog.cycle_plus_shift()
    res = exhaust_h0(op, op, depth=24)
    assert res.iterations == 1
    assert res.peeled_lanes == (0,)
    assert res.certificate.is_true


def test_exhaust_residual_spanned_by_wandering_vectors(fixed_plus_shift):
    """On the residual, the wandering span covers everything: each window
    basis vector of H1 lies in the certified wandering span."""
    from woldlab import _linalg

    res = exhaust_h0(fixed_plus_shift, fixed_plus_shift, depth=24)
    rest = fixed_plus_shift.restricted_to_lanes(
        [l.lane_id for l in fixed_plus_shift.lanes
         if l.lane_id not in res.peeled_lanes]
    )
    wsd = wandering_span_decompose(rest, 24)
    assert wsd.h0.dim == 0 and wsd.exact
    hw = list(wsd.hw.generators)
    for g in res.h1.generators:
        assert _linalg.span_residual_norm(g, hw) <= 1e-7


def test_exhaust_undecided_on_lingering_core():
    op = catalog.lingering_core()
    res = exhaust_h0(op, op, depth=24)
    assert res.certificate.is_undecided


# -- weak bi-shift ----------------------------------------------------------------


def test_weak_bishift_shift_powers():
    cert = weak_bishift_classify(S(2), S(3))
    assert cert.is_true and cert.exact


def test_weak_bishift_shift_with_itself(shift):
    assert weak_bishift_classify(shift, shift).is_true


def test_weak_bishift_bilateral_false(bilateral):
    cert = weak_bishift_classify(bilateral, bilateral)
    assert cert.is_false
    assert cert.witness is not None


def test_weak_bishift_consistency_with_decomposition():
    """Catalog pairs with trivial unitary-type parts classify as weak
    bi-shifts."""
    for name, (v1, v2) in catalog_pairs():
        report = pair_decompose(v1, v2, 16)
        trivial = (report.uu.dim == report.us.dim == report.su.dim == 0)
        verdict = weak_bishift_classify(v1, v2).is_true
        if trivial:
            assert verdict, name


# -- pair decomposition --------------------------------------------------------------


def test_pair_decompose_parallel_shifts(shift):
    report = pair_decompose(shift, shift, 16)
    assert (report.uu.dim, report.us.dim, report.su.dim) == (0, 0, 0)
    assert report.ws.dim == 16
    assert len(report.wandering_generators["v1"]) == 16
    assert len(report.wandering_generators["v2"]) == 16


def test_pair_decompose_cycle_plus_shift():
    op = catalog.cycle_plus_shift()
    report = pair_decompose(op, op, 16)
    assert report.uu.dim == 2
    lanes = {idx.lane for g in report.uu.basis for idx in g.support()}
    assert lanes == {0}
    assert report.ws.dim == 16
    assert report.us.dim == report.su.dim == 0


def test_pair_decompose_shift_powers():
    report = pair_decompose(S(2), S(3), 16)
    assert (report.uu.dim, report.us.dim, report.su.dim) == (0, 0, 0)
    assert report.ws.dim == 16
    # generator sets cover the remainder: spans of the orbit projections
    for key in ("v1", "v2"):
        gens = report.wandering_generators[key]
        assert gens, key
    for part in (report.uu, report.us, report.su, report.ws):
        assert part.certificate.verdict in ("true", "false")


def test_pair_parts_are_orthogonal_and_fill_window():
    for name, (v1, v2) in catalog_pairs():
        report = pair_decompose(v1, v2, 12)
        window_dim = len(v1.window_indices(12))
        parts = [report.uu, report.us, report.su, report.ws]
        assert sum(p.dim for p in parts) == window_dim, name
        flat = [g for p in parts for g in p.basis]
        for i, g in enumerate(flat):
            for h in flat[i + 1:]:
                assert abs(inner(g, h)) <= 1e-7, name


def test_pair_reducing_certificates():
    for name, (v1, v2) in catalog_pairs():
        report = pair_decompose(v1, v2, 12)
        for label in ("uu", "us", "su", "ws"):
            assert getattr(report, label).certificate.is_true, (name, label)


def test_unitary_operator_forces_double_commutation():
    """Commuting with a unitary implies double commutation."""
    for name, (v1, v2) in catalog_pairs():
        if is_unitary(v1) or is_unitary(v2):
            assert doubly_commutes(v1, v2).is_true, name


# -- completely non doubly commuting ---------------------------------------------------


def test_ncdc_shift_powers():
    cert = is_completely_non_doubly_commuting(S(2), S(3), 24)
    assert cert.is_true
    assert not cert.exact  # certificate relative to the searched family


def test_ncdc_grid_pair():
    v1, v2 = catalog.grid_pair()
    cert = is_completely_non_doubly_commuting(v1, v2, 24)
    assert cert.is_false
    assert cert.witness == ("subspace", "whole space")


def test_ncdc_bilateral(bilateral):
    cert = is_completely_non_doubly_commuting(bilateral, bilateral, 24)
    assert cert.is_false


def test_ncdc_fixed_plus_shift(fixed_plus_shift):
    cert = is_completely_non_doubly_commuting(
        fixed_plus_shift, fixed_plus_shift, 24
    )
    assert cert.is_false
    assert cert.witness == ("subspace", "uu")


# -- lane-component search against the 2^n subset scan ------------------------------


PHASES = [1.0, -1.0, 1j, -1j]


def _block(py, ids, kind):
    """One commuting pair on the fresh lanes ``ids`` (two for "swap" and
    "rows", one otherwise): (lanes, (columns, rules) of V1, same of V2)."""
    lane, other = ids[0], ids[-1]
    if kind == "phases":
        size = py.randint(1, 2)
        lanes = [LaneSpec(lane, "finite", size)]
        ops = [({BasisIndex(lane, p): HVector([(BasisIndex(lane, p), py.choice(PHASES))])
                 for p in range(size)}, []) for _ in range(2)]
    elif kind == "cycle":
        size = py.randint(2, 3)
        lanes = [LaneSpec(lane, "finite", size)]
        ops = [({BasisIndex(lane, p): HVector.basis(lane, (p + step) % size)
                 for p in range(size)}, [])
               for step in (py.randint(1, size - 1), py.randint(0, size - 1))]
    elif kind == "shifts":
        # lambda S^a, mu S^b: doubly commuting only when b = 0
        lanes = [LaneSpec(lane, "naturals")]
        ops = [({}, [TailRule(lane, 0, lane, off, py.choice(PHASES))])
               for off in (py.randint(1, 2), py.choice([0, 1, 2, 3]))]
    elif kind == "swap":
        # one operator swaps two one-point lanes, the other is a phase
        lanes = [LaneSpec(lane, "finite", 1), LaneSpec(other, "finite", 1)]
        swap = {BasisIndex(lane, 0): HVector.basis(other, 0),
                BasisIndex(other, 0): HVector.basis(lane, 0)}
        mu = py.choice(PHASES)
        scalar = {idx: HVector([(idx, mu)]) for idx in swap}
        ops = [(swap, []), (scalar, [])]
        py.shuffle(ops)
    else:
        # rows: V1 shifts both rows, V2 swaps them, shifting when offset 1
        lanes = [LaneSpec(lane, "naturals"), LaneSpec(other, "naturals")]
        off = py.randint(0, 1)
        ops = [({}, [TailRule(lane, 0, lane, 1), TailRule(other, 0, other, 1)]),
               ({}, [TailRule(lane, 0, other, off), TailRule(other, 0, lane, off)])]
    return lanes, ops[0], ops[1]


def _assemble(blocks):
    lanes, parts = [], ([{}, []], [{}, []])
    for block_lanes, *ops in blocks:
        lanes.extend(block_lanes)
        for (cols, rules), (acc_cols, acc_rules) in zip(ops, parts):
            acc_cols.update(cols)
            acc_rules.extend(rules)
    return tuple(StructuredIsometry(lanes, cols, rules) for cols, rules in parts)


def _random_commuting_pair(seed):
    """Direct sum of random commuting blocks over 2 to 4 lanes in total."""
    py = random.Random(seed)
    target = py.randint(2, 4)
    ids = list(range(target))
    # shuffled ids make components interleave, e.g. {0, 2} and {1}
    py.shuffle(ids)
    blocks = []
    while ids:
        kinds = ["phases", "cycle", "shifts"]
        if len(ids) >= 2:
            kinds += ["swap", "rows"]
        kind = py.choice(kinds)
        width = 2 if kind in ("swap", "rows") else 1
        blocks.append(_block(py, ids[:width], kind))
        del ids[:width]
    return _assemble(blocks)


def _brute_force_lanes(v1, v2, window):
    """Every proper lane subset in mask order, as the 2^n search did."""
    ids = sorted(l.lane_id for l in v1.lanes)
    for mask in range(1, 2 ** len(ids) - 1):
        subset = [ids[i] for i in range(len(ids)) if mask >> i & 1]
        if lanes_reducing(v1, subset) and lanes_reducing(v2, subset):
            r1 = v1.restricted_to_lanes(subset)
            r2 = v2.restricted_to_lanes(subset)
            if doubly_commutes(r1, r2, window).is_true:
                return tuple(subset)
    return None


def _brute_force_ncdc(v1, v2, window):
    if doubly_commutes(v1, v2, window).is_true:
        return false_certificate(window, ("subspace", "whole space"))
    report = pair_decompose(v1, v2, depth=min(window, 24))
    for label in ("uu", "us", "su"):
        if getattr(report, label).dim > 0:
            return false_certificate(window, ("subspace", label))
    subset = _brute_force_lanes(v1, v2, window)
    if subset is not None:
        return false_certificate(window, ("lanes", subset))
    return true_certificate(window, exact=False)


def test_component_search_skips_the_lowest_lane():
    blocks = [([LaneSpec(0, "naturals")], ({}, [TailRule(0, 0, 0, 2)]),
               ({}, [TailRule(0, 0, 0, 3)])),
              _block(random.Random(0), [1], "phases")]
    v1, v2 = _assemble(blocks)
    assert _brute_force_lanes(v1, v2, 8) == (1,)
    assert _doubly_commuting_component(v1, v2, 8) == (1,)


def test_component_search_matches_subset_scan():
    hits, interleaved = set(), False
    for seed in range(60):
        v1, v2 = _random_commuting_pair(seed)
        expected = _brute_force_lanes(v1, v2, 8)
        assert _doubly_commuting_component(v1, v2, 8) == expected, seed
        hits.add(expected if expected is None else min(expected) > 0)
        components = lane_components(v1, v2)
        interleaved |= any(min(a) < min(b) and max(a) > max(b)
                           for a in components for b in components)
        cert = is_completely_non_doubly_commuting(v1, v2, 8)
        oracle = _brute_force_ncdc(v1, v2, 8)
        assert (cert.verdict, cert.witness, cert.exact) == \
            (oracle.verdict, oracle.witness, oracle.exact), seed
    # the seeds cover no hit, a hit at lane 0, a hit past it, and components
    # whose order by largest lane id differs from their order by smallest
    assert hits == {None, False, True} and interleaved


# -- one orbit computation per Wold analysis ---------------------------------------


@pytest.fixture
def orbit_calls_outside_wold(monkeypatch):
    """Counts shift_orbit_vectors calls not made by wold_decompose itself."""
    calls, depth = [], [0]
    decompose, orbits = wold.wold_decompose, wold.shift_orbit_vectors

    def counted_decompose(*args, **kwargs):
        depth[0] += 1
        try:
            return decompose(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counted_orbits(*args, **kwargs):
        if not depth[0]:
            calls.append(args)
        return orbits(*args, **kwargs)

    monkeypatch.setattr(wold, "wold_decompose", counted_decompose)
    monkeypatch.setattr(wold, "shift_orbit_vectors", counted_orbits)
    return calls


def test_pair_decompose_reuses_wold_orbits(orbit_calls_outside_wold):
    v1, v2 = catalog.grid_pair()
    pairs.pair_decompose(v1, v2, 16)
    pairs.pair_decompose(S(2), S(3), 16)
    assert orbit_calls_outside_wold == []


def test_wandering_span_reuses_wold_orbits(orbit_calls_outside_wold,
                                           fixed_plus_shift):
    res = wold.wandering_span_decompose(fixed_plus_shift, 16)
    assert orbit_calls_outside_wold == []
    assert res.wold.orbit_vectors
