"""Commuting-pair analyses: forward closure of the residual, exhaustion,
weak bi-shift classification, the four-part decomposition, and the search
for doubly-commuting reducing subspaces."""

import gc
import random
import weakref

import pytest

from oracle import span_residual_norm
from samples import catalog_pairs
from woldlab import catalog, core, pairs, wold
from woldlab.certificates import false_certificate, true_certificate
from woldlab.core import (
    BasisIndex,
    Closure,
    HVector,
    LaneSpec,
    StructuredIsometry,
    Subspace,
    TailRule,
    cross_commutator,
    doubly_commutes,
    inner,
    lane_components,
    lanes_reducing,
)
from woldlab.errors import (
    InvalidOperatorError,
    MalformedInputError,
    PreconditionError,
)
from woldlab.pairs import (
    PairAnalysis,
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
    res = h0_plus(PairAnalysis(fixed_plus_shift, fixed_plus_shift, 24), wsd.h0)
    assert res.certificate.is_true and res.certificate.exact
    assert res.subspace.dim == 1
    assert res.subspace.generators[0].approx_equals(basis(0, 0))
    assert res.v1_unitary_on
    assert res.v1_reducing.is_true and res.v2_reducing.is_true


def test_h0_plus_cycle_lane():
    op = catalog.cycle_plus_shift()
    wsd = wandering_span_decompose(op, 24)
    res = h0_plus(PairAnalysis(op, op, 24), wsd.h0)
    assert res.certificate.is_true
    assert res.subspace.dim == 2
    lanes = {idx.lane for g in res.subspace.generators for idx in g.support()}
    assert lanes == {0}
    assert res.v1_unitary_on


def test_h0_plus_trivial_input(shift):
    res = h0_plus(PairAnalysis(shift, shift, 16), Subspace([], Closure()))
    assert res.subspace.dim == 0
    assert res.certificate.is_true and res.certificate.exact


def test_h0_plus_requires_commuting(fixed_plus_shift):
    from test_core import _swap_f_with_e0

    wsd = wandering_span_decompose(fixed_plus_shift, 16)
    with pytest.raises(PreconditionError):
        h0_plus(PairAnalysis(fixed_plus_shift, _swap_f_with_e0(), 16), wsd.h0)


def test_h0_plus_rejects_vectors_outside_residual(fixed_plus_shift):
    outside = Subspace([basis(1, 0)], Closure())
    with pytest.raises(PreconditionError):
        h0_plus(PairAnalysis(fixed_plus_shift, fixed_plus_shift, 16), outside)


def test_h0_plus_output_stays_clear_of_shift_part(fixed_plus_shift):
    """The closure keeps reducing the first operator to a unitary: its
    vectors stay orthogonal to every certified shift-part orbit vector."""
    from woldlab.wold import shift_orbit_vectors, wold_decompose

    wsd = wandering_span_decompose(fixed_plus_shift, 24)
    res = h0_plus(PairAnalysis(fixed_plus_shift, fixed_plus_shift, 24), wsd.h0)
    wres = wold_decompose(fixed_plus_shift, 24)
    for orbit in shift_orbit_vectors(fixed_plus_shift, wres.shift_wandering_basis, 24):
        for vec in orbit.vectors:
            for g in res.subspace.generators:
                assert abs(inner(vec, g)) <= 1e-9


# -- exhaust_h0 ----------------------------------------------------------------


def test_exhaust_fixed_plus_shift(fixed_plus_shift):
    res = exhaust_h0(PairAnalysis(fixed_plus_shift, fixed_plus_shift, depth=24))
    assert res.iterations == 1
    assert res.certificate.is_true
    assert res.peeled_lanes == (0,)
    lanes = {idx.lane for g in res.h1.generators for idx in g.support()}
    assert lanes == {1}


def test_exhaust_shift_stops_immediately(shift):
    res = exhaust_h0(PairAnalysis(shift, shift, depth=24))
    assert res.iterations == 0
    assert res.certificate.is_true
    assert res.h1.dim == 24


def test_exhaust_cycle_plus_shift():
    op = catalog.cycle_plus_shift()
    res = exhaust_h0(PairAnalysis(op, op, depth=24))
    assert res.iterations == 1
    assert res.peeled_lanes == (0,)
    assert res.certificate.is_true


def test_exhaust_peels_every_lane_of_a_cycle():
    """On a 3-cycle the closure of H0 is the whole finite lane: one peel
    leaves no lane, and H1 is the zero subspace, exactly."""
    cycle = StructuredIsometry(
        [LaneSpec(0, "finite", 3)],
        {BasisIndex(0, p): basis(0, (p + 1) % 3) for p in range(3)}, [])
    res = exhaust_h0(PairAnalysis(cycle, cycle, depth=8))
    assert (res.iterations, res.peeled_lanes, res.h1.dim) == (1, (0,), 0)
    assert res.certificate.is_true and res.certificate.exact


def test_exhaust_residual_spanned_by_wandering_vectors(fixed_plus_shift):
    """On the residual, the wandering span covers everything: each window
    basis vector of H1 lies in the certified wandering span."""
    res = exhaust_h0(PairAnalysis(fixed_plus_shift, fixed_plus_shift, depth=24))
    rest = fixed_plus_shift.restricted_to_lanes(
        [l.lane_id for l in fixed_plus_shift.lanes
         if l.lane_id not in res.peeled_lanes]
    )
    wsd = wandering_span_decompose(rest, 24)
    assert wsd.h0.dim == 0 and wsd.exact
    hw = list(wsd.hw.generators)
    for g in res.h1.generators:
        assert span_residual_norm(g, hw) <= 1e-7


def test_exhaust_undecided_on_lingering_core():
    op = catalog.lingering_core()
    res = exhaust_h0(PairAnalysis(op, op, depth=24))
    assert res.certificate.is_undecided


def _identity_and_shift():
    lanes = [LaneSpec(0, "naturals")]
    return tuple(StructuredIsometry(lanes, {}, [TailRule(0, 0, 0, offset)])
                 for offset in (0, 1))


def test_h0_plus_undecided_while_the_closure_grows():
    """Every vector is in the identity's wandering-span residual, and the
    shift adds a new direction to the closure at every step."""
    identity, shift = _identity_and_shift()
    res = h0_plus(PairAnalysis(identity, shift, 8),
                  Subspace([basis(0, 0)], Closure()))
    assert res.certificate.is_undecided
    assert res.subspace.dim == 9


def _unpeelable_pair(case):
    from test_core import _conjugated_pair

    identity, shift = _identity_and_shift()
    if case == "open closure":
        return identity, shift
    if case == "infinite lane":
        return identity, identity
    if case == "part of a finite lane":
        # f fixed, g -> e_0 -> e_1 -> ...: H0 is f alone, half of lane 0
        op = StructuredIsometry(
            [LaneSpec(0, "finite", 2), LaneSpec(1, "naturals")],
            {BasisIndex(0, 0): basis(0, 0), BasisIndex(0, 1): basis(1, 0)},
            [TailRule(1, 0, 1, 1)])
        return op, op
    # I + S conjugated by a rotation of e_(0,0), e_(1,0): H0 starts with
    # their normalized sum, which is no basis vector
    half = 0.5 ** 0.5
    mixed = [HVector([(BasisIndex(0, 0), half), (BasisIndex(1, 0), sign)])
             for sign in (half, -half)]
    _, op = _conjugated_pair(mixed + [basis(0, 1), basis(1, 1)])
    return op, op


@pytest.mark.parametrize("case", ["open closure", "infinite lane",
                                  "part of a finite lane", "mixed vectors"])
def test_exhaust_stops_at_a_peel_that_is_not_whole_finite_lanes(case):
    """A closure that stays open, or that is not spanned by the units of
    whole finite lanes, has no structured complement: nothing is peeled and
    the window is left, undecided."""
    v1, v2 = _unpeelable_pair(case)
    res = exhaust_h0(PairAnalysis(v1, v2, 8))
    assert (res.iterations, res.peeled_lanes) == (0, ())
    assert res.certificate.is_undecided
    assert res.h1.dim == len(v1.window_indices(8))


def _counted_work(monkeypatch):
    """Counts commutation checks, compositions, operators built, lane
    restrictions and reducing checks from here on."""
    calls = dict.fromkeys(("commutes", "compose", "operators", "restrictions",
                           "reducing_certificate"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, owners in (("commutes", (core, pairs)), ("compose", (core, pairs)),
                         ("reducing_certificate", (wold,))):
        wrapper = counted(name, getattr(owners[0], name))
        for owner in owners:
            monkeypatch.setattr(owner, name, wrapper)
    monkeypatch.setattr(StructuredIsometry, "__init__", counted(
        "operators", StructuredIsometry.__init__))
    monkeypatch.setattr(StructuredIsometry, "restricted_to_lanes", counted(
        "restrictions", StructuredIsometry.restricted_to_lanes))
    return calls


def test_exhaust_closure_step_repeats_no_check(monkeypatch, fixed_plus_shift):
    """The closure step checks neither commutation nor reducing: the two
    reducing checks are those of the two wandering-span decompositions, and
    the operators built are the two restrictions to the unpeeled lane (the
    commutation check builds no product)."""
    calls = _counted_work(monkeypatch)
    res = exhaust_h0(PairAnalysis(fixed_plus_shift, fixed_plus_shift, depth=24))
    assert res.peeled_lanes == (0,)
    assert calls == {"commutes": 1, "compose": 0, "operators": 2,
                     "restrictions": 2, "reducing_certificate": 2}


# -- weak bi-shift ----------------------------------------------------------------


def test_weak_bishift_shift_powers():
    cert = weak_bishift_classify(PairAnalysis(S(2), S(3)))
    assert cert.is_true and cert.exact


def test_weak_bishift_shift_with_itself(shift):
    assert weak_bishift_classify(PairAnalysis(shift, shift)).is_true


def test_weak_bishift_bilateral_false(bilateral):
    cert = weak_bishift_classify(PairAnalysis(bilateral, bilateral))
    assert cert.is_false
    assert cert.witness is not None


def test_weak_bishift_consistency_with_decomposition():
    """Catalog pairs with trivial unitary-type parts classify as weak
    bi-shifts."""
    for name, (v1, v2) in catalog_pairs():
        report = pair_decompose(PairAnalysis(v1, v2, 16))
        trivial = (report.uu.dim == report.us.dim == report.su.dim == 0)
        verdict = weak_bishift_classify(PairAnalysis(v1, v2)).is_true
        if trivial:
            assert verdict, name


def test_preimage_keeps_only_the_part_in_the_range(shift):
    """S x lies in span{(e0 + e1)/sqrt 2, e2} only for x in span{e1}: the
    first vector is not in ran S, so pulling the span back through S* alone
    would give span{e0, e1}."""
    half = 0.5 ** 0.5
    span = [HVector([(BasisIndex(0, 0), half), (BasisIndex(0, 1), half)]),
            basis(0, 2)]
    pre = pairs._preimage_under(shift, span)
    assert len(pre) == 1
    assert pre[0].support() == [BasisIndex(0, 1)]
    assert abs(abs(pre[0].coefficient(BasisIndex(0, 1))) - 1) <= 1e-12


@pytest.mark.parametrize("seed, lead", [(3, BasisIndex(1, 0)),
                                        (5, BasisIndex(0, 0)),
                                        (6, BasisIndex(0, 0))])
def test_weak_bishift_first_restriction_unitary(seed, lead):
    """Pairs on which V1 restricted to the intersection of ker(V2* V1^i) is a
    nonzero unitary: that space is V1-invariant, inside ker V2*, and its
    first vector leads the witness."""
    w, v = _random_commuting_pair(seed)
    cert = weak_bishift_classify(PairAnalysis(v, w, 16))
    assert cert.is_false
    assert cert.witness == ("restriction_unitary", "v1", lead)
    core, _ = pairs._joint_shift_core(v, w)
    assert core and core[0].support()[0] == lead
    for k in core:
        assert w.apply_adjoint(k).norm() <= 1e-9
        assert span_residual_norm(v.apply(k), core) <= 1e-9


# -- pair decomposition --------------------------------------------------------------


def test_pair_decompose_parallel_shifts(shift):
    report = pair_decompose(PairAnalysis(shift, shift, 16))
    assert (report.uu.dim, report.us.dim, report.su.dim) == (0, 0, 0)
    assert report.ws.dim == 16
    assert len(report.wandering_generators["v1"]) == 16
    assert len(report.wandering_generators["v2"]) == 16


def test_pair_decompose_cycle_plus_shift():
    op = catalog.cycle_plus_shift()
    report = pair_decompose(PairAnalysis(op, op, 16))
    assert report.uu.dim == 2
    lanes = {idx.lane for g in report.uu.basis for idx in g.support()}
    assert lanes == {0}
    assert report.ws.dim == 16
    assert report.us.dim == report.su.dim == 0


def test_pair_decompose_shift_powers():
    report = pair_decompose(PairAnalysis(S(2), S(3), 16))
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
        report = pair_decompose(PairAnalysis(v1, v2, 12))
        window_dim = len(v1.window_indices(12))
        parts = [report.uu, report.us, report.su, report.ws]
        assert sum(p.dim for p in parts) == window_dim, name
        flat = [g for p in parts for g in p.basis]
        for i, g in enumerate(flat):
            for h in flat[i + 1:]:
                assert abs(inner(g, h)) <= 1e-7, name


def test_pair_reducing_certificates():
    for name, (v1, v2) in catalog_pairs():
        report = pair_decompose(PairAnalysis(v1, v2, 12))
        for label in ("uu", "us", "su", "ws"):
            assert getattr(report, label).certificate.is_true, (name, label)


def test_unitary_operator_forces_double_commutation():
    """Commuting with a unitary implies double commutation."""
    for name, (v1, v2) in catalog_pairs():
        if is_unitary(v1) or is_unitary(v2):
            assert doubly_commutes(v1, v2).is_true, name


@pytest.mark.parametrize("failing, owner", [({"v1"}, "v1"), ({"v2"}, "v2"),
                                            ({"v1", "v2"}, "v1")])
def test_pair_part_carries_the_failing_reducing_check(monkeypatch, failing,
                                                      owner):
    """A part that fails its reducing check carries the failing certificate,
    V1's when both fail; the other parts stay true."""
    v1, v2 = catalog.get("pair_fixed_plus_shift").build()
    uu = [g.items() for g in pair_decompose(PairAnalysis(v1, v2, 16)).uu.basis]
    assert uu
    check = wold.reducing_certificate

    def reducing(v, basis, depth):
        name = "v1" if v is v1 else "v2"
        if name in failing and [g.items() for g in basis] == uu:
            return false_certificate(depth, ("failed", name))
        return check(v, basis, depth)

    monkeypatch.setattr(wold, "reducing_certificate", reducing)
    report = pair_decompose(PairAnalysis(v1, v2, 16))
    assert report.uu.certificate.is_false
    assert report.uu.certificate.witness == ("failed", owner)
    assert all(p.certificate.is_true for p in (report.us, report.su, report.ws))


# -- completely non doubly commuting ---------------------------------------------------


def test_ncdc_shift_powers():
    cert = is_completely_non_doubly_commuting(PairAnalysis(S(2), S(3), 24))
    assert cert.is_true
    assert not cert.exact  # certificate relative to the searched family


def test_ncdc_grid_pair():
    v1, v2 = catalog.grid_pair()
    cert = is_completely_non_doubly_commuting(PairAnalysis(v1, v2, 24))
    assert cert.is_false
    assert cert.witness == ("subspace", "whole space")


def test_ncdc_bilateral(bilateral):
    cert = is_completely_non_doubly_commuting(
        PairAnalysis(bilateral, bilateral, 24))
    assert cert.is_false


def test_ncdc_fixed_plus_shift(fixed_plus_shift):
    cert = is_completely_non_doubly_commuting(
        PairAnalysis(fixed_plus_shift, fixed_plus_shift, 24)
    )
    assert cert.is_false
    assert cert.witness == ("subspace", "uu")


def test_ncdc_search_makes_no_reducing_check(monkeypatch, fixed_plus_shift):
    """The search needs only the unitary-type parts of the pair
    decomposition, not their reducing certificates."""
    calls = []
    check = wold.reducing_certificate
    monkeypatch.setattr(wold, "reducing_certificate",
                        lambda *a: calls.append(a) or check(*a))
    cert = is_completely_non_doubly_commuting(
        PairAnalysis(fixed_plus_shift, fixed_plus_shift, 24))
    assert cert.witness == ("subspace", "uu")
    cert = is_completely_non_doubly_commuting(PairAnalysis(
        catalog.unilateral_shift(2), catalog.unilateral_shift(3), 24))
    assert cert.is_true
    assert calls == []


def _deep_cycle_shift():
    """One naturals lane: e_p -> e_(p+1) up to p = 28, e_29 -> e_60, a
    30-cycle on e_30..e_59, and the tail from 60 on with offset 1.  The
    unitary part, the cycle, starts at position 30."""
    columns = {BasisIndex(0, p): basis(0, p + 1) for p in range(29)}
    columns[BasisIndex(0, 29)] = basis(0, 60)
    columns.update({BasisIndex(0, p): basis(0, 30 + (p - 29) % 30)
                    for p in range(30, 60)})
    return StructuredIsometry([LaneSpec(0, "naturals")], columns,
                              [TailRule(0, 60, 0, 1)])


@pytest.mark.parametrize("window, uu_dim", [(16, 0), (24, 0), (32, 2),
                                            (64, 30)])
def test_ncdc_reads_the_parts_the_report_shows(window, uu_dim):
    """The search denies no unitary-type part that the pair decomposition at
    the same window shows, however deep the part starts."""
    v = _deep_cycle_shift()
    assert pair_decompose(PairAnalysis(v, v, window)).uu.dim == uu_dim
    cert = is_completely_non_doubly_commuting(PairAnalysis(v, v, window))
    if uu_dim:
        assert (cert.verdict, cert.witness, cert.exact) == \
            ("false", ("subspace", "uu"), True)
    else:
        assert (cert.verdict, cert.exact) == ("true", False)


def test_unitary_type_parts_are_built_once_per_tolerance(monkeypatch):
    """The decomposition and the CNDC search on one analysis decompose each
    operator once; a new analysis under another working tolerance, which the
    orbit certificates depend on, builds the parts again."""
    v1, v2 = catalog.get("pair_shifts_2_3").build()
    calls = []
    decompose = wold.wold_decompose
    monkeypatch.setattr(wold, "wold_decompose",
                        lambda *a, **k: calls.append(a) or decompose(*a, **k))
    pair = PairAnalysis(v1, v2, 16)
    pair_decompose(pair)
    assert is_completely_non_doubly_commuting(pair).is_true
    assert len(calls) == 2
    monkeypatch.setenv("WOLDLAB_TOLERANCE", "1e-10")
    pair_decompose(PairAnalysis(v1, v2, 16))
    assert len(calls) == 4


def test_no_pair_state_outlives_its_analysis():
    """The shared facts live on the analysis: once it is dropped, nothing
    holds the pair's operators."""
    v1, v2 = catalog.get("pair_fixed_plus_shift").build()
    pair = PairAnalysis(v1, v2, 16)
    pair_decompose(pair)
    assert is_completely_non_doubly_commuting(pair).is_false
    ref = weakref.ref(v1)
    del v1, v2, pair
    gc.collect()
    assert ref() is None


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
    report = pair_decompose(PairAnalysis(v1, v2, depth=window))
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
    assert _doubly_commuting_component(PairAnalysis(v1, v2)) == (1,)


def test_component_search_matches_subset_scan():
    hits, interleaved = set(), False
    for seed in range(60):
        v1, v2 = _random_commuting_pair(seed)
        expected = _brute_force_lanes(v1, v2, 8)
        assert _doubly_commuting_component(PairAnalysis(v1, v2)) == expected, seed
        hits.add(expected if expected is None else min(expected) > 0)
        components = lane_components(v1, v2)
        interleaved |= any(min(a) < min(b) and max(a) > max(b)
                           for a in components for b in components)
        cert = is_completely_non_doubly_commuting(PairAnalysis(v1, v2, 8))
        oracle = _brute_force_ncdc(v1, v2, 8)
        assert (cert.verdict, cert.witness, cert.exact) == \
            (oracle.verdict, oracle.witness, oracle.exact), seed
    # the seeds cover no hit, a hit at lane 0, a hit past it, and components
    # whose order by largest lane id differs from their order by smallest
    assert hits == {None, False, True} and interleaved


def test_ncdc_checks_commutation_once_and_restricts_nothing(monkeypatch):
    """One commutation check per pair, made in building its analysis, which
    builds no product, and the component search reads the cross-commutator
    table instead of restricting."""
    random_pairs = [_random_commuting_pair(seed) for seed in range(60)]
    calls = _counted_work(monkeypatch)
    for v1, v2 in random_pairs:
        is_completely_non_doubly_commuting(PairAnalysis(v1, v2, 8))
    assert calls == {"commutes": 60, "compose": 0, "operators": 0,
                     "restrictions": 0, "reducing_certificate": 0}


def test_commutation_check_builds_no_operator(monkeypatch):
    """``commutes`` compares VW and WV in place: on the catalog pairs and
    on random commuting pairs it composes nothing and builds no operator."""
    checked = [pair for _, pair in catalog_pairs()]
    checked += [_random_commuting_pair(seed) for seed in range(60)]
    calls = _counted_work(monkeypatch)
    for v1, v2 in checked:
        assert core.commutes(v1, v2).is_true
    assert calls == {"commutes": len(checked), "compose": 0, "operators": 0,
                     "restrictions": 0, "reducing_certificate": 0}


@pytest.mark.parametrize("depth", [0, -2])
@pytest.mark.parametrize("analysis", [
    core.commutes, doubly_commutes, weak_bishift_classify,
    is_completely_non_doubly_commuting, pair_decompose, exhaust_h0,
    lambda pair: h0_plus(pair, Subspace([])),
])
def test_pair_analyses_refuse_a_nonpositive_depth(analysis, depth):
    """The commutation check refuses the depth, also where the answer reads
    no window; a pair-layer analysis meets it in building the
    ``PairAnalysis`` it reads."""
    v1, v2 = catalog.grid_pair()
    with pytest.raises(MalformedInputError, match="depth must be positive"):
        if analysis in (core.commutes, doubly_commutes):
            analysis(v1, v2, depth)
        else:
            analysis(PairAnalysis(v1, v2, depth))


def test_component_search_rebuilds_no_operator():
    """The cycle lane of this operator has a column of norm 0.3, accepted
    by a loose validation tolerance.  Its restriction fails validation at
    the working tolerance, but the search builds none: the cycle lane holds
    no failing index of the cross-commutator, the shift lane does."""
    op = StructuredIsometry(
        [LaneSpec(0, "finite", 2), LaneSpec(1, "naturals")],
        {BasisIndex(0, 0): basis(0, 1, 0.3), BasisIndex(0, 1): basis(0, 0)},
        [TailRule(1, 0, 1, 1)], tol=0.8)
    with pytest.raises(InvalidOperatorError, match="not unit"):
        op.restricted_to_lanes([0])
    assert _doubly_commuting_component(PairAnalysis(op, op)) == (0,)


def test_cross_commutator_matches_its_definition():
    """C e = V1* V2 e - V2 V1* e at every index of the table, and C e = 0 at
    every other window index."""
    checked = 0
    for name, (v1, v2) in catalog_pairs():
        table = cross_commutator(v1, v2)
        for idx in v1.window_indices(8) + sorted(table):
            e = HVector([(idx, 1.0)])
            direct = v1.apply_adjoint(v2.apply(e)) - v2.apply(v1.apply_adjoint(e))
            assert table.get(idx, HVector.zero()).approx_equals(direct, 1e-12), \
                (name, idx)
            checked += idx in table
    assert checked


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
    pairs.pair_decompose(PairAnalysis(v1, v2, 16))
    pairs.pair_decompose(PairAnalysis(S(2), S(3), 16))
    assert orbit_calls_outside_wold == []


def test_wandering_span_reuses_wold_orbits(orbit_calls_outside_wold,
                                           fixed_plus_shift):
    res = wold.wandering_span_decompose(fixed_plus_shift, 16)
    assert orbit_calls_outside_wold == []
    assert res.wold.orbit_vectors
