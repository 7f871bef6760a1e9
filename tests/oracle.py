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


def combinations(coeffs, vectors) -> list[HVector]:
    """sum_i coeffs[i, k] * vectors[i] for each column k of ``coeffs``, by
    sparse arithmetic."""
    out = []
    for k in range(coeffs.shape[1]):
        combo = HVector.zero()
        for c, v in zip(coeffs[:, k], vectors):
            combo = combo + v.scaled(c)
        out.append(combo)
    return out


def span_residual_norm(x: HVector, basis) -> float:
    """Distance from x to the span of an orthonormal family."""
    return sparse_residual(x, basis).norm()


# -- reference orbits and wandering scans -----------------------------------------
#
# The eager orbit routine that resumable ``OrbitRecord``s replaced: the whole
# orbit up front, with every earlier vector of the same support signature
# compared by ``approx_equals`` at each step.  And the scans that ran on
# those full orbits: ``is_wandering`` and the unitary branch testing every
# forward exponent, and the pair-by-pair loop that the Gram-matrix
# prefilter of ``wold.is_strongly_wandering`` replaced, the pair list
# rebuilt and sorted on every call, one sparse inner product per pair until
# the first violation.  Kept as the references the lazy scans are tested
# against.


def eager_orbit(op: StructuredIsometry, x: HVector, steps: int,
                ref_lo=None, ref_hi=None, backward: bool = False):
    """The orbit of x under V (or V*) to steps + dip + 2, O(n^2) recurrence
    search included."""
    from woldlab import wold
    from woldlab.config import tolerance

    if ref_lo is None or ref_hi is None:
        positions = [idx.position for idx in x.support()] or [0]
        ref_lo = min(positions) if ref_lo is None else ref_lo
        ref_hi = max(positions) if ref_hi is None else ref_hi
    tol = tolerance()
    ctx = wold._EscapeContext(op, ref_lo, ref_hi, backward)
    step = op.apply_adjoint if backward else op.apply
    max_steps = steps + ctx.dip + 2
    vectors = [x]
    signatures = [wold._support_signature(x)]
    status, onset = wold.OPEN, None
    if ctx.escaped(x):
        status, onset = wold.ESCAPED, 0
    for n in range(1, max_steps + 1):
        v = step(vectors[-1])
        vectors.append(v)
        signatures.append(wold._support_signature(v))
        if v.is_zero(tol):
            if status == wold.OPEN:
                status, onset = wold.DIED, n
            break
        if status == wold.OPEN:
            if ctx.escaped(v):
                status, onset = wold.ESCAPED, n
            else:
                for m in range(n):
                    if signatures[m] == signatures[n] and \
                            v.approx_equals(vectors[m], tol):
                        status, onset = wold.PERIODIC, n
                        break
    return wold.OrbitRecord(vectors, status, onset)


def _kernel_unitary(v: StructuredIsometry) -> bool:
    from woldlab import wold

    return wold.kernel_of_adjoint(v).dim == 0


def loop_wandering(v: StructuredIsometry, x: HVector, horizon: int):
    """``is_wandering`` on the full eager orbit: every exponent tested."""
    from woldlab import wold
    from woldlab.certificates import false_certificate, true_certificate
    from woldlab.config import tolerance

    wold._check_wandering_input(x, horizon)
    tol = tolerance()
    orbit = eager_orbit(v, x, horizon)
    for n in range(1, len(orbit.vectors)):
        if abs(orbit.vectors[n].inner(x)) > tol:
            return false_certificate(horizon, n)
    return true_certificate(horizon, exact=orbit.certified)


def scan_pairs(horizon: int):
    """Every pair (n, m), m < n, in [-horizon, horizon], in canonical
    order: small exponents first, forward pairs before adjoint ones."""
    pairs = [(n, m) for n in range(-horizon, horizon + 1)
             for m in range(-horizon, n)]
    pairs.sort(key=lambda nm: (max(abs(nm[0]), abs(nm[1])),
                               abs(nm[0]) + abs(nm[1]), -nm[0], -nm[1]))
    return pairs


def loop_strongly_wandering(v: StructuredIsometry, x: HVector, horizon: int):
    """``is_strongly_wandering`` on full eager orbits: every forward
    exponent to 2 horizon + dip + 2 for a unitary, else the pair table
    checked one sparse inner product at a time in ``scan_pairs`` order,
    then the extended forward range."""
    from woldlab import wold
    from woldlab.certificates import false_certificate, true_certificate
    from woldlab.config import tolerance

    wold._check_wandering_input(x, horizon)
    tol = tolerance()
    fwd = eager_orbit(v, x, 2 * horizon)
    if _kernel_unitary(v):
        for r in range(1, len(fwd.vectors)):
            if abs(fwd.vectors[r].inner(x)) > tol:
                return false_certificate(horizon, (r, 0))
        return true_certificate(horizon, exact=fwd.certified)
    back = eager_orbit(v, x, horizon, backward=True)
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
