"""Dense-matrix oracle: materialize a finite section of a structured
isometry and redo everything with plain numpy matrix algebra (powers,
conjugate transposes), independently of the sparse application, adjoint and
composition paths under test."""

from __future__ import annotations

import numpy as np

from woldlab.config import ORTHO_DROP_TOL
from woldlab.core import BasisIndex, HVector, StructuredIsometry


class DenseWindow:
    """A finite index set closed under ``steps`` forward applications of the
    operator, with the operator as a dense matrix between slots."""

    def __init__(self, op: StructuredIsometry, window: int, steps: int = 0):
        indices = set(op.window_indices(window))
        frontier = set(indices)
        for _ in range(steps):
            new = set()
            for idx in frontier:
                new.update(op.column(idx).support())
            frontier = new - indices
            indices.update(new)
            if not frontier:
                break
        self.indices = sorted(indices)
        self.slot = {idx: i for i, idx in enumerate(self.indices)}
        n = len(self.indices)
        self.matrix = np.zeros((n, n), dtype=complex)
        for idx in self.indices:
            col = op.column(idx)
            for out_idx, c in col.items():
                if out_idx in self.slot:
                    self.matrix[self.slot[out_idx], self.slot[idx]] = c

    def to_array(self, x: HVector) -> np.ndarray:
        out = np.zeros(len(self.indices), dtype=complex)
        for idx, c in x.items():
            out[self.slot[idx]] = c
        return out

    def to_hvector(self, arr: np.ndarray) -> HVector:
        entries = []
        for i, c in enumerate(arr):
            if abs(c) > 1e-12:
                entries.append((self.indices[i], complex(c)))
        return HVector(entries)

    def power_column(self, idx: BasisIndex, n: int) -> np.ndarray:
        e = np.zeros(len(self.indices), dtype=complex)
        e[self.slot[idx]] = 1.0
        m = np.linalg.matrix_power(self.matrix, n)
        return m @ e

    def apply_array(self, x: HVector) -> np.ndarray:
        return self.matrix @ self.to_array(x)

    def adjoint_array(self, x: HVector) -> np.ndarray:
        return self.matrix.conj().T @ self.to_array(x)


def orbit_grams_match(op: StructuredIsometry, window: int, max_power: int,
                      tol: float = 1e-9) -> bool:
    """Compare <V^n e_i, V^m e_j> computed structurally (iterated sparse
    apply) against dense matrix powers, for all i, j in the window and all
    0 <= n, m <= max_power."""
    dense = DenseWindow(op, window, steps=2 * max_power)
    base = op.window_indices(window)
    structural = []
    for idx in base:
        orbit = [HVector([(idx, 1.0)])]
        for _ in range(max_power):
            orbit.append(op.apply(orbit[-1]))
        structural.append([dense.to_array(v) for v in orbit])
    powers = [np.eye(len(dense.indices), dtype=complex)]
    for _ in range(max_power):
        powers.append(dense.matrix @ powers[-1])
    for i, idx in enumerate(base):
        e = np.zeros(len(dense.indices), dtype=complex)
        e[dense.slot[idx]] = 1.0
        for n in range(max_power + 1):
            expected = powers[n] @ e
            if np.max(np.abs(structural[i][n] - expected)) > tol:
                return False
    # Gram agreement follows entrywise, but check a sample of inner products
    # anyway since that is the advertised contract.
    for i in range(len(base)):
        for j in range(len(base)):
            for n in range(0, max_power + 1, max(1, max_power // 4)):
                for m in range(0, max_power + 1, max(1, max_power // 4)):
                    lhs = complex(np.vdot(structural[j][m], structural[i][n]))
                    rhs = complex(np.vdot(powers[m] @ _unit(dense, base[j]),
                                          powers[n] @ _unit(dense, base[i])))
                    if abs(lhs - rhs) > tol:
                        return False
    return True


def _unit(dense: DenseWindow, idx: BasisIndex) -> np.ndarray:
    e = np.zeros(len(dense.indices), dtype=complex)
    e[dense.slot[idx]] = 1.0
    return e


# -- reference Gram-Schmidt over sparse vectors --------------------------------
#
# The dict-based orthonormalization the dense window kernel replaced: one
# Python inner product at a time, two modified Gram-Schmidt passes per
# vector, and a purifying pass after normalization.  Kept as the reference
# the kernel is tested against.


def sparse_residual(x: HVector, basis) -> HVector:
    """x minus its projection onto an orthonormal family, two MGS passes."""
    r = x
    for _ in range(2):
        for b in basis:
            r = r - b.scaled(r.inner(b))
    return r


def sparse_sweep(vectors, basis=(), drop_tol: float = ORTHO_DROP_TOL):
    """Vectors swept in order into the orthonormal ``basis``; returns only
    the vectors added."""
    basis = list(basis)
    start = len(basis)
    for v in vectors:
        r = sparse_residual(v, basis)
        if r.norm() >= drop_tol:
            u = r.scaled(1.0 / r.norm())
            u = sparse_residual(u, basis)
            basis.append(u.scaled(1.0 / u.norm()))
    return basis[start:]


def sparse_intersection(basis_a, basis_b, drop_tol: float = ORTHO_DROP_TOL):
    """span(basis_a) ∩ span(basis_b): the combinations of ``basis_a`` whose
    sparse residual against ``basis_b`` vanishes (SVD nullspace)."""
    if not basis_a or not basis_b:
        return []
    residuals = [sparse_residual(v, basis_b) for v in basis_a]
    support = sorted({idx for v in residuals for idx in v.support()})
    if support:
        pos = {idx: i for i, idx in enumerate(support)}
        a = np.zeros((len(support), len(residuals)), dtype=complex)
        for j, v in enumerate(residuals):
            for idx, c in v.items():
                a[pos[idx], j] = c
        _, s, vh = np.linalg.svd(a)
        cutoff = max(1e-8, float(s[0]) * 1e-10) if s.size else 1e-8
        null = vh[int(np.sum(s > cutoff)):]
    else:
        null = np.eye(len(residuals), dtype=complex)
    combos = []
    for coeffs in null:
        out = HVector.zero()
        for c, v in zip(coeffs.conj(), basis_a):
            out = out + v.scaled(c)
        combos.append(out)
    return sparse_sweep(combos, drop_tol=drop_tol)


# -- reference strong-wandering pair scan ---------------------------------------
#
# The pair-by-pair scan that the Gram-matrix prefilter of
# ``wold.is_strongly_wandering`` replaced: the pair list rebuilt and sorted
# on every call, then one sparse inner product per pair until the first
# violation.  Kept as the reference the dense scan is tested against.


def scan_pairs(horizon: int):
    """Every pair (n, m), m < n, in [-horizon, horizon], in canonical
    order: small exponents first, forward pairs before adjoint ones."""
    pairs = [(n, m) for n in range(-horizon, horizon + 1)
             for m in range(-horizon, n)]
    pairs.sort(key=lambda nm: (max(abs(nm[0]), abs(nm[1])),
                               abs(nm[0]) + abs(nm[1]), -nm[0], -nm[1]))
    return pairs


def loop_strongly_wandering(v: StructuredIsometry, x: HVector, horizon: int):
    """``is_strongly_wandering`` with the non-unitary pair table checked one
    sparse inner product at a time in ``scan_pairs`` order."""
    from woldlab import wold
    from woldlab.certificates import false_certificate, true_certificate
    from woldlab.config import tolerance

    if wold.is_unitary(v):
        return wold.is_strongly_wandering(v, x, horizon)
    wold._check_wandering_input(x, horizon)
    tol = tolerance()
    back = wold.backward_orbit(v, x, horizon)
    fwd = wold.forward_orbit(v, x, 2 * horizon)
    table = {}
    for k in range(0, horizon + 1):
        table[k] = fwd.vectors[k] if k < len(fwd.vectors) else fwd.vectors[-1]
    for k in range(1, horizon + 1):
        table[-k] = back.vectors[k] if k < len(back.vectors) else HVector.zero()
    for n, m in scan_pairs(horizon):
        if abs(table[n].inner(table[m])) > tol:
            return false_certificate(horizon, (n, m))
    for r in range(1, len(fwd.vectors)):
        if abs(fwd.vectors[r].inner(x)) > tol:
            return false_certificate(horizon, (r, 0))
    exact = wold._strong_exactness(v, x, horizon, fwd, back)
    return true_certificate(horizon, exact=exact)
