"""Sparse-vector orthonormalization and small subspace arithmetic.

Bases are produced by modified Gram-Schmidt in input order with a fixed
drop threshold, so repeated runs give identical output (the determinism
contract of the reports rests on this).
"""

from __future__ import annotations

import numpy as np

from .config import ORTHO_DROP_TOL
from .core import HVector


def orthogonal_residual(x: HVector, basis) -> HVector:
    """x minus its projection onto an orthonormal family, two MGS passes."""
    r = x
    for _ in range(2):
        for b in basis:
            r = r - b.scaled(r.inner(b))
    return r


def _purified_unit(r: HVector, basis) -> HVector:
    # normalizing a barely-surviving residual amplifies rounding noise, so
    # orthogonalize once more after scaling
    u = r.scaled(1.0 / r.norm())
    u = orthogonal_residual(u, basis)
    return u.scaled(1.0 / u.norm())


def mgs(vectors, drop_tol: float = ORTHO_DROP_TOL) -> list[HVector]:
    """Orthonormal basis of the span, in input order."""
    basis: list[HVector] = []
    for v in vectors:
        r = orthogonal_residual(v, basis)
        if r.norm() >= drop_tol:
            basis.append(_purified_unit(r, basis))
    return basis


def orthonormal_span(vectors) -> list[HVector]:
    """Numerically tight orthonormal basis of the span (SVD-based), keeping
    every direction down to the numerical rank.

    Used for constraint walls, where near-dependent families must still be
    fully projected out; generated bases go through ``mgs`` instead so their
    order stays canonical.
    """
    vectors = [v for v in vectors if not v.is_zero()]
    if not vectors:
        return []
    support = sorted({idx for v in vectors for idx in v.support()})
    pos = {idx: i for i, idx in enumerate(support)}
    a = np.zeros((len(support), len(vectors)), dtype=complex)
    for j, v in enumerate(vectors):
        for idx, c in v.items():
            a[pos[idx], j] = c
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    cutoff = max(1e-12, float(s[0]) * 1e-12) if s.size else 1e-12
    rank = int(np.sum(s > cutoff))
    out = []
    for k in range(rank):
        entries = [(support[i], complex(u[i, k]))
                   for i in range(len(support)) if u[i, k] != 0]
        out.append(HVector(entries, tol=0.0))
    return out


def _presieve_candidates(candidates, wall, drop_tol):
    """Drop candidates whose residual against the wall alone is already
    below the threshold; adding more basis vectors only shrinks residuals,
    so the discard is sound."""
    support = sorted({idx for v in wall for idx in v.support()})
    pos = {idx: i for i, idx in enumerate(support)}
    w = np.zeros((len(wall), len(support)), dtype=complex)
    for i, v in enumerate(wall):
        for idx, c in v.items():
            w[i, pos[idx]] = c
    survivors = []
    for cand in candidates:
        arr = np.zeros(len(support), dtype=complex)
        outside = 0.0
        for idx, c in cand.items():
            if idx in pos:
                arr[pos[idx]] = c
            else:
                outside += abs(c) ** 2
        overlap = w.conj() @ arr
        resid2 = float(np.vdot(arr, arr).real - np.vdot(overlap, overlap).real) \
            + outside
        if resid2 >= (0.5 * drop_tol) ** 2:
            survivors.append(cand)
    return survivors


def complement_basis(candidates, constraints,
                     drop_tol: float = ORTHO_DROP_TOL) -> list[HVector]:
    """Orthonormal basis of span(candidates) ∩ span(constraints)^⊥.

    Candidates are swept in order; whatever survives orthogonalization
    against the constraints (and the part already kept) is added.
    """
    wall = orthonormal_span(constraints)
    candidates = list(candidates)
    if len(wall) * len(candidates) > 512:
        candidates = _presieve_candidates(candidates, wall, drop_tol)
    out: list[HVector] = []
    for c in candidates:
        r = orthogonal_residual(c, wall + out)
        if r.norm() >= drop_tol:
            out.append(_purified_unit(r, wall + out))
    return out


def project(x: HVector, basis) -> HVector:
    out = HVector.zero()
    for b in basis:
        out = out + b.scaled(x.inner(b))
    return out


def span_residual_norm(x: HVector, basis) -> float:
    return orthogonal_residual(x, basis).norm()


def nullspace_combinations(vectors, atol: float = 1e-8) -> list[np.ndarray]:
    """Coefficient vectors a with sum_i a_i * vectors[i] = 0.

    Works over the joint support via a small dense SVD.
    """
    support = sorted({idx for v in vectors for idx in v.support()})
    n = len(vectors)
    if n == 0:
        return []
    if not support:
        return [row for row in np.eye(n, dtype=complex)]
    pos = {idx: i for i, idx in enumerate(support)}
    a = np.zeros((len(support), n), dtype=complex)
    for j, v in enumerate(vectors):
        for idx, c in v.items():
            a[pos[idx], j] = c
    _, s, vh = np.linalg.svd(a)
    cutoff = max(atol, (s[0] * 1e-10 if s.size else 0.0))
    rank = int(np.sum(s > cutoff))
    return [vh[k].conj() for k in range(rank, n)]


def linear_combination(coeffs, vectors) -> HVector:
    """sum_i coeffs[i] * vectors[i], accumulated left to right."""
    out = HVector.zero()
    for a, v in zip(coeffs, vectors):
        out = out + v.scaled(a)
    return out


def intersect_spans(basis_a, basis_b,
                    drop_tol: float = ORTHO_DROP_TOL) -> list[HVector]:
    """Orthonormal basis of span(basis_a) ∩ span(basis_b)."""
    if not basis_a or not basis_b:
        return []
    residuals = [orthogonal_residual(v, basis_b) for v in basis_a]
    return mgs([linear_combination(coeffs, basis_a)
                for coeffs in nullspace_combinations(residuals)], drop_tol)
