"""The dense window kernel against the sparse Gram-Schmidt reference in
``oracle.py``: same dimensions, the same subspaces, spans nested in input
order, and reports that do not depend on the BLAS thread count."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    combinations,
    sparse_intersection,
    sparse_residual,
    sparse_sweep,
    span_residual_norm,
)
from woldlab import _linalg, catalog, wold
from woldlab.config import (
    NULLSPACE_ATOL,
    NULLSPACE_RTOL,
    ORTHO_DROP_TOL,
    PRUNE_TOL,
)
from woldlab.core import BasisIndex, HVector

PROJECTOR_TOL = 1e-9


def _random_vector(rng, pool, terms):
    picks = rng.choice(len(pool), size=terms, replace=False)
    coeffs = rng.normal(size=terms) + 1j * rng.normal(size=terms)
    return HVector([(pool[i], c) for i, c in zip(picks, coeffs)])


def _pool(lanes=2, width=6):
    return [BasisIndex(lane, p) for lane in range(lanes)
            for p in range(-width, width)]


def _near_dependent(rng, scale):
    """Four generic vectors, then a unit vector inside their span plus an
    orthogonal direction of norm ``scale * ORTHO_DROP_TOL``.

    Any Gram-Schmidt in double precision recovers that direction only to
    about 1e-16 * |inside| / (scale * ORTHO_DROP_TOL), so ``inside`` is unit
    to keep both sweeps well inside the projector tolerance.
    """
    pool = _pool()
    base = [_random_vector(rng, pool[:12], 5) for _ in range(4)]
    outside = HVector([(pool[-1], 1.0)])  # off the support of ``base``
    inside = HVector.zero()
    for v in base:
        inside = inside + v.scaled(complex(rng.normal(), rng.normal()))
    inside = inside.normalized()
    tail = [_random_vector(rng, pool[:12], 3) for _ in range(2)]
    return base + [inside + outside.scaled(scale * ORTHO_DROP_TOL)] + tail


def _family(name, seed):
    rng = np.random.default_rng(seed)
    pool = _pool()
    if name == "random":
        return [_random_vector(rng, pool, int(rng.integers(1, 6)))
                for _ in range(10)]
    if name == "dependent":
        a, b, c = (_random_vector(rng, pool, 4) for _ in range(3))
        return [a, b, a + b.scaled(2.0), c, c.scaled(-1j), a - c, b]
    if name == "kept_10x":
        return _near_dependent(rng, 10.0)
    if name == "dropped_0.1x":
        return _near_dependent(rng, 0.1)
    if name == "disjoint":
        return [_random_vector(rng, [BasisIndex(lane, p) for p in range(3)], 2)
                for lane in range(5)]
    if name == "with_zeros":
        return [HVector.zero(), _random_vector(rng, pool, 3), HVector.zero()]
    if name == "empty":
        return []
    raise AssertionError(name)


FAMILIES = ["random", "dependent", "kept_10x", "dropped_0.1x", "disjoint",
            "with_zeros", "empty"]
SEEDS = range(4)


def _dense(*families):
    """The families as dense matrices over their joint sorted support."""
    indices = sorted({idx for family in families for v in family
                      for idx in v.support()})
    row = {idx: i for i, idx in enumerate(indices)}
    out = []
    for family in families:
        m = np.zeros((len(indices), len(family)), dtype=complex)
        for j, v in enumerate(family):
            for idx, c in v.items():
                m[row[idx], j] = c
        out.append(m)
    return out


def _projector_gap(a, b) -> float:
    pa, pb = _dense(a, b)
    diff = pa @ pa.conj().T - pb @ pb.conj().T
    return float(np.linalg.norm(diff, 2)) if diff.size else 0.0


def _assert_same_basis(got, want):
    assert len(got) == len(want)
    assert _projector_gap(got, want) <= PROJECTOR_TOL


def _assert_orthonormal(basis):
    m, = _dense(basis)
    assert np.allclose(m.conj().T @ m, np.eye(len(basis)), rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", FAMILIES)
def test_mgs_matches_reference(name, seed):
    vectors = _family(name, seed)
    got = _linalg.mgs(vectors)
    _assert_same_basis(got, sparse_sweep(vectors))
    _assert_orthonormal(got)


def test_drop_threshold_decides_near_dependent_vectors():
    assert len(_linalg.mgs(_family("kept_10x", 0))) == 7
    assert len(_linalg.mgs(_family("dropped_0.1x", 0))) == 6


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["random", "dependent", "kept_10x",
                                  "dropped_0.1x"])
def test_mgs_spans_are_nested_in_input_order(name, seed):
    vectors = _family(name, seed)
    full = _linalg.mgs(vectors)
    for k in range(1, len(vectors) + 1):
        prefix = _linalg.mgs(vectors[:k])
        assert _projector_gap(prefix, full[:len(prefix)]) <= PROJECTOR_TOL


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", FAMILIES)
def test_complement_basis_matches_reference(name, seed):
    candidates = _family(name, seed)
    constraints = _family("random", seed + 100)[:4]
    got = _linalg.complement_basis(candidates, constraints)
    want = sparse_sweep(candidates, sparse_sweep(constraints))
    _assert_same_basis(got, want)
    # the complement is orthogonal to the constraints
    for r in _linalg.orthogonal_residual(got, sparse_sweep(constraints)):
        assert r.norm() == pytest.approx(1.0, abs=1e-12)


def test_complement_basis_projects_instead_of_intersecting():
    """(e0 + e1)/√2 against e0 gives e1, the part of the candidate
    orthogonal to the constraint, although its span meets span(e0)^⊥ only
    in {0}."""
    e0, e1 = BasisIndex(0, 0), BasisIndex(0, 1)
    half = 0.5 ** 0.5
    got = _linalg.complement_basis([HVector([(e0, half), (e1, half)])],
                                   [HVector([(e0, 1.0)])])
    assert len(got) == 1
    assert got[0].support() == [e1]
    assert abs(got[0].coefficient(e1)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", FAMILIES)
def test_intersect_spans_matches_reference(name, seed):
    rng = np.random.default_rng(seed + 200)
    family = _family(name, seed)
    # a second span sharing the first two directions of the family
    shared = sparse_sweep(family)[:2]
    others = [_random_vector(rng, _pool(), 4) for _ in range(3)]
    basis_a = sparse_sweep(family)
    basis_b = sparse_sweep(others + shared)
    got = _linalg.intersect_spans(basis_a, basis_b)
    _assert_same_basis(got, sparse_intersection(basis_a, basis_b))
    assert len(got) == len(shared)


# -- weakened Gram-Schmidt arithmetic shows -------------------------------------


def _max_overlap(basis) -> float:
    m, = _dense(basis)
    return float(np.abs(m.conj().T @ m - np.eye(len(basis))).max())


@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_keeps_a_barely_kept_residual_orthogonal(seed):
    """Four generic vectors fill four rows; the fifth is 1e14 inside their
    span plus 1.01 ORTHO_DROP_TOL on a row of its own.  The two projections
    leave the in-span part at about eps^2 * 1e14, which normalizing the
    1e-7 residual would blow up to about 1e-11; the projection after
    normalization brings it back to rounding."""
    rng = np.random.default_rng(seed + 300)
    rows = [BasisIndex(0, p) for p in range(4)]
    base = [_random_vector(rng, rows, 4) for _ in range(4)]
    inside = HVector.zero()
    for v in base:
        inside = inside + v.scaled(complex(rng.normal(), rng.normal()))
    outside = HVector([(BasisIndex(1, 0), 1.01 * ORTHO_DROP_TOL)])
    basis = _linalg.mgs(base + [inside.scaled(1e14 / inside.norm()) + outside])
    assert len(basis) == 5
    assert _max_overlap(basis) <= 1e-12


@pytest.mark.parametrize("seed", SEEDS)
def test_residual_of_a_near_member_is_orthogonal(seed):
    """x = q + 1e-8 |q| e, with q in the span of an orthonormal family and
    e a unit vector off its support.  One projection leaves rounding of
    about eps |q| in the span, 1e-8 of the residual's norm; the second pass
    brings it down to eps of the residual.  |q| = 1e4 keeps the one-pass
    rounding above PRUNE_TOL, where it would survive as entries."""
    rng = np.random.default_rng(seed + 400)
    basis = sparse_sweep([_random_vector(rng, _pool()[:12], 6)
                          for _ in range(5)])
    q = HVector.zero()
    for b in basis:
        q = q + b.scaled(complex(rng.normal(), rng.normal()))
    x = q.scaled(1e4 / q.norm()) + HVector([(BasisIndex(5, 0), 1e-4)])
    r, = _linalg.orthogonal_residual([x], basis)
    assert r.norm() == pytest.approx(1e-4, rel=1e-6)
    assert max(abs(b.inner(r)) for b in basis) <= 1e-12 * r.norm()


@pytest.mark.parametrize("seed", SEEDS)
def test_outputs_hold_no_entries_below_the_prune_floor(seed):
    """Residuals that vanish up to rounding, and bases swept from
    near-dependent families, come back without the rounding-noise entries
    at or below PRUNE_TOL."""
    rng = np.random.default_rng(seed + 500)
    vectors = _family("kept_10x", seed) + _family("dependent", seed)
    basis = sparse_sweep(_family("random", seed + 50)[:5])
    members = [b.scaled(complex(rng.normal(), rng.normal())) for b in basis]
    outputs = (_linalg.mgs(vectors)
               + _linalg.complement_basis(vectors, basis)
               + _linalg.orthogonal_residual(members + vectors, basis)
               + _linalg.project(members + vectors, basis))
    coefficients = [abs(c) for v in outputs for _, c in v.items()]
    assert coefficients and min(coefficients) > PRUNE_TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_residual_and_projection_match_reference(seed):
    vectors = _family("random", seed)
    basis = sparse_sweep(_family("random", seed + 50)[:5])
    residuals = _linalg.orthogonal_residual(vectors, basis)
    projections = _linalg.project(vectors, basis)
    for v, r, p in zip(vectors, residuals, projections):
        assert (r - sparse_residual(v, basis)).norm() <= 1e-12
        assert (p + r - v).norm() <= 1e-12
    assert span_residual_norm(vectors[0], basis) == \
        pytest.approx(residuals[0].norm(), abs=1e-15)


def test_nullspace_combinations_annihilate():
    a, b, c = _family("random", 7)[:3]
    vectors = [a, b, a + b, c, c.scaled(1j)]
    coeffs = _linalg.nullspace_combinations(vectors)
    assert coeffs.shape == (5, 2)
    for combo in combinations(coeffs, vectors):
        assert combo.norm() <= 1e-12


@pytest.mark.parametrize("name", ["bilateral_plus_shift", "feeding_core",
                                  "lingering_core", "cycle_plus_shift"])
def test_wold_bases_match_reference(name):
    # the complement that wold_decompose takes, redone with the reference
    op = catalog.get(name).build()
    depth = 12
    res = wold.wold_decompose(op, depth)
    window = op.window_indices(depth)
    walls = wold._window_projections(res.orbit_vectors, window)
    candidates = [HVector([(idx, 1.0)]) for idx in window]
    want = sparse_sweep(candidates, sparse_sweep(walls))
    _assert_same_basis(list(res.unitary_window_basis), want)


# -- reports do not depend on the BLAS thread count ----------------------------


def _same_report(a, b, path="report"):
    if isinstance(a, list) and a and all(isinstance(v, list) for v in a):
        assert isinstance(b, list) and len(a) == len(b), path
        vecs = [[HVector([(BasisIndex(e["lane"], e["position"]),
                           complex(e["re"], e["im"])) for e in v]) for v in m]
                for m in (a, b)]
        assert _projector_gap(*vecs) <= PROJECTOR_TOL, path
    elif isinstance(a, dict):
        assert isinstance(b, dict) and set(a) == set(b), path
        for key in a:
            _same_report(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _same_report(x, y, f"{path}[{i}]")
    else:
        assert a == b, path


@pytest.mark.parametrize("name", ["lingering_core", "feeding_core"])
def test_reports_agree_across_blas_thread_counts(name):
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "woldlab.cli", "wold",
             "--input", f"catalog:{name}", "--depth", "64",
             "--format", "json"],
            capture_output=True, env=env, timeout=300,
        )
        runs.append((proc.returncode, json.loads(proc.stdout)))
    (code_1, report_1), (code_2, report_2) = runs
    assert code_1 == code_2
    _same_report(report_1, report_2)


@pytest.mark.parametrize("columns, seed", [(5, 0), (70, 0), (150, 0)])
def test_gram_suspects_match_the_pair_loop(columns, seed):
    """Every pair (i, j), j < i, above the cutoff, in row-major order,
    across block boundaries."""
    rng = np.random.default_rng(columns + seed)
    a = rng.normal(size=(12, columns)) + 1j * rng.normal(size=(12, columns))
    # in the widest gap between the middle overlaps, so rounding cannot
    # move a pair across
    overlaps = np.sort(np.abs(a.conj().T @ a).ravel())
    middle = overlaps[overlaps.size // 4:3 * overlaps.size // 4]
    k = int(np.argmax(np.diff(middle)))
    cutoff = float(middle[k] + middle[k + 1]) / 2
    want = [(i, j) for i in range(columns) for j in range(i)
            if abs(np.vdot(a[:, j], a[:, i])) > cutoff]
    rows, cols = _linalg.gram_suspects(a, cutoff)
    assert list(zip(rows.tolist(), cols.tolist())) == want


@pytest.mark.parametrize("seed", range(3))
def test_overlap_suspects_on_a_wide_component_match_the_pair_loop(seed):
    """A support component with more columns than one Gram block (80 on 12
    rows) goes through ``gram_suspects`` block by block; its pairs come
    back under their input positions, interleaved with those of a small
    component and of single-entry vectors, in row-major order."""
    rng = np.random.default_rng(seed)
    wide = [_random_vector(rng, _pool(1), 3) for _ in range(80)]
    small = [_random_vector(rng, _pool(1, 2), 2) for _ in range(6)]
    small = [HVector([(BasisIndex(5, i.position), c) for i, c in v.items()])
             for v in small]
    singles = [HVector([(BasisIndex(7, k), 1.0)]) for k in range(4)]
    vectors = wide + small + singles
    vectors = [vectors[i] for i in rng.permutation(len(vectors))]
    overlaps = [[abs(vectors[j].inner(v)) for j in range(i)]
                for i, v in enumerate(vectors)]
    # in the widest gap between the middle nonzero overlaps, so rounding
    # cannot move a pair across
    values = np.sort([o for row in overlaps for o in row if o > 0])
    middle = values[values.size // 4:3 * values.size // 4]
    k = int(np.argmax(np.diff(middle)))
    cutoff = float(middle[k] + middle[k + 1]) / 2
    want = [(i, j) for i, row in enumerate(overlaps)
            for j, o in enumerate(row) if o > cutoff]
    assert len(want) > len(vectors)
    rows, cols = _linalg.overlap_suspects(vectors, cutoff)
    assert list(zip(rows.tolist(), cols.tolist())) == want


# -- the component split ---------------------------------------------------------


def _block_family(seed):
    """Vectors whose joint support falls apart into components of every
    kind the split handles, interleaved in a seeded order: singletons,
    two-row blocks, a dense block, a block with more columns than rows, a
    near-dependent block next to the clean ones, and zero vectors."""
    rng = np.random.default_rng(seed)

    def on(lane, width, count, terms):
        pool = [BasisIndex(lane, p) for p in range(width)]
        return [_random_vector(rng, pool, terms) for _ in range(count)]

    vectors = []
    for lane in range(10, 16):                       # singletons
        vectors += [HVector([(BasisIndex(lane, 0), complex(*rng.normal(size=2)))])
                    for _ in range(int(rng.integers(1, 3)))]
    for lane in range(20, 24):                       # two-row blocks
        vectors += on(lane, 2, int(rng.integers(1, 4)), 2)
    vectors += on(30, 8, 5, 4)                       # dense
    vectors += on(31, 3, 6, 2)                       # more columns than rows
    near = _near_dependent(rng, 10.0)                # near-dependent
    vectors += [HVector([(BasisIndex(32, idx.lane * 12 + idx.position), c)
                         for idx, c in v.items()]) for v in near]
    vectors += [HVector.zero(), HVector.zero()]      # empty columns
    return [vectors[i] for i in rng.permutation(len(vectors))]


def _block_wall(seed):
    """Constraints for ``_block_family``: two independent vectors filling
    the two-row block on lane 20 exactly, plus vectors touching some
    singletons, the dense block and the near-dependent one."""
    rng = np.random.default_rng(seed + 500)
    fill = [_random_vector(rng, [BasisIndex(20, 0), BasisIndex(20, 1)], 2)
            for _ in range(2)]
    partial = [HVector([(BasisIndex(11, 0), 1.0)]),
               _random_vector(rng, [BasisIndex(30, p) for p in range(8)], 3),
               _random_vector(rng, [BasisIndex(32, p) for p in range(12)], 4)]
    return fill + partial


BLOCK_SEEDS = range(6)


def test_window_labels_components_of_all_families():
    e = [HVector([(BasisIndex(0, p), 1.0)]) for p in range(5)]
    win = _linalg.Window([e[0] + e[1], e[2]], [e[1] + e[3], e[4]])
    assert win.count == 3
    assert win.label.tolist() == [0, 0, 1, 0, 2]
    # each family's columns carry their component; the zero vector has none
    first, second = win.families
    assert first.label.tolist() == [0, 1] and second.label.tolist() == [0, 2]
    win = _linalg.Window([e[3], HVector.zero(), e[2]], [e[1] + e[3]])
    assert win.families[0].label.tolist() == [0, -1, 1]


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
def test_component_sweep_matches_reference_vector_by_vector(seed):
    """Kept columns come back in global input order: each basis vector is
    the reference's, not just the span."""
    vectors = _block_family(seed)
    got, want = _linalg.mgs(vectors), sparse_sweep(vectors)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g - w).norm() <= PROJECTOR_TOL
    _assert_orthonormal(got)


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
def test_component_complement_matches_reference(seed):
    candidates, constraints = _block_family(seed), _block_wall(seed)
    got = _linalg.complement_basis(candidates, constraints)
    want = sparse_sweep(candidates, sparse_sweep(constraints))
    _assert_same_basis(got, want)
    # the filled block offers nothing
    assert not any(idx.lane == 20 for g in got for idx in g.support())


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
def test_component_intersection_matches_reference(seed):
    basis_a = sparse_sweep(_block_family(seed))
    basis_b = sparse_sweep(_block_wall(seed) + _block_family(seed + 50)[:12])
    got = _linalg.intersect_spans(basis_a, basis_b)
    _assert_same_basis(got, sparse_intersection(basis_a, basis_b))
    # each block of the intersection is the block of basis_a when basis_b
    # fills it, as on lane 20
    assert any(idx.lane == 20 for g in got for idx in g.support())


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
def test_component_residual_and_projection_match_reference(seed):
    vectors = _block_family(seed)
    basis = sparse_sweep(_block_wall(seed))
    residuals = _linalg.orthogonal_residual(vectors, basis)
    projections = _linalg.project(vectors, basis)
    for v, r, p in zip(vectors, residuals, projections):
        assert (r - sparse_residual(v, basis)).norm() <= 1e-12
        assert (p + r - v).norm() <= 1e-12


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
def test_component_nullspace_matches_dense_svd(seed):
    vectors = _block_family(seed)
    coeffs = _linalg.nullspace_combinations(vectors)
    # the dense SVD of the whole matrix, with the same cutoffs
    s = np.linalg.svd(_dense(vectors)[0], compute_uv=False)
    cutoff = max(NULLSPACE_ATOL, float(s[0]) * NULLSPACE_RTOL)
    assert coeffs.shape == (len(vectors), len(vectors) - int(np.sum(s > cutoff)))
    assert np.allclose(coeffs.conj().T @ coeffs, np.eye(coeffs.shape[1]),
                       rtol=0, atol=1e-12)
    for combo in combinations(coeffs, vectors):
        assert combo.norm() <= 1e-12


def test_rank_cutoffs_use_the_largest_singular_value_overall():
    """A block whose singular value sits below the relative cutoff of
    another block's is rank deficient, as in the dense SVD, although it
    clears every cutoff relative to itself."""
    large = HVector([(BasisIndex(0, 0), 1e6)])
    # wall: 1e-7 < SPAN_RANK_TOL * 1e6, but far above SPAN_RANK_TOL
    assert len(_linalg.orthonormal_span(
        [large, HVector([(BasisIndex(1, 0), 1e-7)])])) == 1
    assert len(_linalg.orthonormal_span(
        [large, HVector([(BasisIndex(1, 0), 1e-5)])])) == 2
    # nullspace: 1e-5 < NULLSPACE_RTOL * 1e6, but far above NULLSPACE_ATOL
    small = HVector([(BasisIndex(1, 0), 1e-5), (BasisIndex(1, 1), 1e-5)])
    coeffs = _linalg.nullspace_combinations([large, small])
    assert coeffs.shape == (2, 1)
    assert abs(coeffs[1, 0]) == pytest.approx(1.0)
    assert _linalg.nullspace_combinations(
        [large.scaled(1e-2), small]).shape == (2, 0)


@pytest.mark.parametrize("seed", range(8))
def test_window_components_match_connectivity(seed):
    """Rows share a label exactly when a chain of vectors links them."""
    rng = np.random.default_rng(seed)
    pool = [BasisIndex(0, p) for p in range(30)]
    vectors = [_random_vector(rng, pool, int(rng.integers(1, 4)))
               for _ in range(int(rng.integers(5, 25)))]
    win = _linalg.Window(vectors[::2], vectors[1::2])
    # reference: merge supports that meet until none do
    groups = [set(v.support()) for v in vectors]
    merged = True
    while merged:
        merged = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if groups[i] & groups[j]:
                    groups[i] |= groups.pop(j)
                    merged = True
                    break
            if merged:
                break
    same = {(a, b) for group in groups for a in group for b in group}
    label = dict(zip(win.indices, win.label.tolist()))
    for a in win.indices:
        for b in win.indices:
            assert (label[a] == label[b]) == ((a, b) in same)
    # numbered in order of least members
    firsts = [int(np.flatnonzero(win.label == c)[0]) for c in range(win.count)]
    assert firsts == sorted(firsts)


# -- single-entry families: the row path against the block path -----------------

_POOL = [BasisIndex(lane, p) for lane in (0, 1) for p in (0, 1, 2)]
_PHASES = [1, -1, 1j, -1j, complex(1, -0.0), complex(-1, -0.0),
           complex(-0.0, 1), complex(-0.0, -1), np.exp(2j * np.pi / 3),
           np.exp(-0.3j)]
_SCALES = [1.0, 0.7, 3.0, 1e4, ORTHO_DROP_TOL,
           np.nextafter(ORTHO_DROP_TOL, 0), np.nextafter(ORTHO_DROP_TOL, 1),
           1.5 * PRUNE_TOL, np.nextafter(PRUNE_TOL, 1), 1e-7 ** 0.5]
_values = st.one_of(
    st.builds(lambda s, p: complex(s * p.real, s * p.imag),
              st.sampled_from(_SCALES), st.sampled_from(_PHASES)),
    st.complex_numbers(min_magnitude=1e-9, max_magnitude=1e3,
                       allow_nan=False, allow_infinity=False))


@st.composite
def _single_entry(draw, size=8, wide=True):
    """Vectors with one entry on a small pool of indices, so indices
    collide, zero vectors among them; with ``wide``, now and then one
    vector with two entries, which sends every routine to the window."""
    out = [HVector([(draw(st.sampled_from(_POOL)), draw(_values))])
           if draw(st.integers(0, 5)) else HVector.zero()
           for _ in range(draw(st.integers(0, size)))]
    if wide and out and not draw(st.integers(0, 5)):
        at = draw(st.integers(0, len(out) - 1))
        out[at] = out[at] + HVector([(draw(st.sampled_from(_POOL)), 0.5)])
    return out


@st.composite
def _combinations(draw):
    """Single-entry vectors and coefficient columns over them, each with
    one nonzero entry or none; now and then one that mixes two vectors."""
    vectors = draw(_single_entry())
    n = len(vectors)
    coeffs = np.zeros((n, draw(st.integers(0, 6))), dtype=complex)
    for k in range(coeffs.shape[1] if n else 0):
        for i in draw(st.lists(st.integers(0, n - 1), max_size=1)):
            coeffs[i, k] = draw(_values)
    if coeffs.size and not draw(st.integers(0, 5)):
        coeffs[:, draw(st.integers(0, coeffs.shape[1] - 1))] = 0.5
    return coeffs, vectors


def _bits(out):
    """Every bit of a routine's output, signs of zeros included."""
    if isinstance(out, tuple):
        return tuple(_bits(part) for part in out)
    if isinstance(out, np.ndarray):
        return out.dtype.str, out.shape, out.tobytes()
    return [[(idx, c.real.hex(), c.imag.hex()) for idx, c in v._entries.items()]
            for v in out]


_ROUTINES = {
    "mgs": lambda d: (_linalg.mgs, d(_single_entry())),
    "orthonormal_span": lambda d: (_linalg.orthonormal_span,
                                   d(_single_entry())),
    "complement_basis": lambda d: (_linalg.complement_basis,
                                   d(_single_entry()), d(_single_entry(4))),
    "orthogonal_residual": lambda d: (_linalg.orthogonal_residual,
                                      d(_single_entry()), d(_single_entry(4))),
    "project": lambda d: (_linalg.project, d(_single_entry()),
                          d(_single_entry(4))),
    "nullspace_combinations": lambda d: (_linalg.nullspace_combinations,
                                         d(_single_entry())),
    "nullspace_against_basis": lambda d: (_linalg.nullspace_combinations,
                                          d(_single_entry()),
                                          d(_single_entry(4))),
    "combination_basis": lambda d: (_linalg.combination_basis,
                                    *d(_combinations())),
    "intersect_spans": lambda d: (_linalg.intersect_spans, d(_single_entry()),
                                  d(_single_entry(4))),
    "overlap_suspects": lambda d: (_linalg.overlap_suspects, d(_single_entry()),
                                   d(st.sampled_from([0.0, 0.5e-6, 1.0, 9.0]))),
}


@pytest.mark.parametrize("name", _ROUTINES)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_row_path_matches_block_path_bit_for_bit(name, data):
    """Every public routine answers a family of single-entry vectors row by
    row with the same bits as the component window, and falls back to the
    window where the row rules do not hold (a vector with two entries,
    basis vectors or nullspace inputs sharing an index, a coefficient
    column mixing two vectors)."""
    routine, *args = _ROUTINES[name](data.draw)
    row = routine(*args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_linalg, "_units", lambda *families: None)
        block = routine(*args)
    assert _bits(row) == _bits(block)
