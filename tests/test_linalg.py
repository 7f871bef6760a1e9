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

from oracle import sparse_intersection, sparse_residual, sparse_sweep
from woldlab import _linalg, catalog, wold
from woldlab.config import ORTHO_DROP_TOL
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


def _projector_gap(a, b) -> float:
    win = _linalg.Window(a, b)
    pa, pb = win.matrix(a), win.matrix(b)
    diff = pa @ pa.conj().T - pb @ pb.conj().T
    return float(np.linalg.norm(diff, 2)) if diff.size else 0.0


def _assert_same_basis(got, want):
    assert len(got) == len(want)
    assert _projector_gap(got, want) <= PROJECTOR_TOL


def _assert_orthonormal(basis):
    win = _linalg.Window(basis)
    m = win.matrix(basis)
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


@pytest.mark.parametrize("seed", SEEDS)
def test_residual_and_projection_match_reference(seed):
    vectors = _family("random", seed)
    basis = sparse_sweep(_family("random", seed + 50)[:5])
    residuals = _linalg.orthogonal_residual(vectors, basis)
    projections = _linalg.project(vectors, basis)
    for v, r, p in zip(vectors, residuals, projections):
        assert (r - sparse_residual(v, basis)).norm() <= 1e-12
        assert (p + r - v).norm() <= 1e-12
    assert _linalg.span_residual_norm(vectors[0], basis) == \
        pytest.approx(residuals[0].norm(), abs=1e-15)


def test_nullspace_combinations_annihilate():
    a, b, c = _family("random", 7)[:3]
    vectors = [a, b, a + b, c, c.scaled(1j)]
    coeffs = _linalg.nullspace_combinations(vectors)
    assert coeffs.shape == (5, 2)
    for combo in _linalg.combinations(coeffs, vectors):
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


@pytest.mark.parametrize("columns, start", [(5, 0), (70, 0), (150, 3),
                                            (150, 64), (150, 149), (4, 4)])
def test_gram_suspects_match_the_pair_loop(columns, start):
    """Every pair (i, j), j < i, i >= start, above the cutoff, in row-major
    order, across block boundaries."""
    rng = np.random.default_rng(columns + start)
    a = rng.normal(size=(12, columns)) + 1j * rng.normal(size=(12, columns))
    # in the widest gap between the middle overlaps, so rounding cannot
    # move a pair across
    overlaps = np.sort(np.abs(a.conj().T @ a).ravel())
    middle = overlaps[overlaps.size // 4:3 * overlaps.size // 4]
    k = int(np.argmax(np.diff(middle)))
    cutoff = float(middle[k] + middle[k + 1]) / 2
    want = [(i, j) for i in range(start, columns) for j in range(i)
            if abs(np.vdot(a[:, j], a[:, i])) > cutoff]
    rows, cols = _linalg.gram_suspects(a, start, cutoff)
    assert list(zip(rows.tolist(), cols.tolist())) == want
