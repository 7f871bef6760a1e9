"""Dense window kernel for subspace arithmetic on sparse vectors.

Every routine converts its input families once to a dense complex matrix
over a ``Window`` (the sorted joint support of the inputs, one row per
``BasisIndex``), does all of its work there with numpy, and converts the
result back to ``HVector`` once.  ``HVector`` stays the type at the operator
boundary; nothing here applies an operator.

Generated bases come from one sweep, ``_extend``: classical Gram-Schmidt in
input order with two projections per column ("twice is enough").  A column
is kept when its residual norm reaches the drop threshold, and is then
normalized, projected once more and normalized again, so near-dependent
inputs cannot leak their rounding noise into the basis.  The fixed
threshold and order make bases canonical: two runs in the same environment
give identical output.  Matrix products go through BLAS, so the last digits
of coefficients can depend on the BLAS build and its thread count.
"""

from __future__ import annotations

import numpy as np

from .config import (
    NULLSPACE_ATOL,
    NULLSPACE_RTOL,
    ORTHO_DROP_TOL,
    PRUNE_TOL,
    SPAN_RANK_TOL,
)
from .core import HVector

# columns per in-place projection block: bounds the temporaries of
# ``block -= q @ (q^H @ block)`` to (basis + 2 rows) x _BLOCK entries
_BLOCK = 64


class Window:
    """Sorted joint support of some vector families, one row per index."""

    __slots__ = ("indices", "row")

    def __init__(self, *families):
        self.indices = sorted({idx for family in families for v in family
                               for idx in v._entries})
        self.row = {idx: i for i, idx in enumerate(self.indices)}

    def matrix(self, vectors) -> np.ndarray:
        """The vectors as the columns of a dense matrix over the window."""
        a = np.zeros((len(self.indices), len(vectors)), dtype=complex)
        row = self.row
        for j, v in enumerate(vectors):
            for idx, c in v._entries.items():
                a[row[idx], j] = c
        return a

    def vectors(self, a: np.ndarray, prune: float = PRUNE_TOL) -> list[HVector]:
        """The columns of a dense matrix as vectors, entries at or below
        ``prune`` in modulus dropped."""
        indices = self.indices
        out = []
        for col in a.T:
            v = object.__new__(HVector)
            v._entries = {indices[i]: complex(col[i])
                          for i in np.flatnonzero(np.abs(col) > prune)}
            out.append(v)
        return out


def blocks(a: np.ndarray):
    """(first column, view) of ``a`` in column blocks, for in-place updates
    and for products whose temporaries should stay small."""
    for start in range(0, a.shape[1], _BLOCK):
        yield start, a[:, start:start + _BLOCK]


def gram_suspects(a: np.ndarray, start: int, cutoff: float):
    """Pairs (i, j) of columns, j < i and i >= start, whose dense overlap
    |<a_j, a_i>| exceeds ``cutoff``, as two index arrays in row-major order
    (by i, then j).

    Only the Gram rows of the columns from ``start`` on are formed, in
    blocks, so temporaries stay small and columns appended to a matrix
    whose earlier pairs are already known cost only their own rows.  The
    overlaps carry BLAS rounding: callers pick a cutoff below their
    decision threshold and re-measure the suspects.
    """
    found_i, found_j = [], []
    for first in range(start, a.shape[1], _BLOCK):
        block = a[:, first:first + _BLOCK]
        # gram[r, j] = <a_j, a_(first + r)>, kept for j < first + r
        gram = block.conj().T @ a[:, :first + block.shape[1]]
        rows, cols = np.nonzero(np.abs(gram) > cutoff)
        rows += first
        below = cols < rows
        found_i.append(rows[below])
        found_j.append(cols[below])
    if not found_i:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    return np.concatenate(found_i), np.concatenate(found_j)


def _coefficients(q: np.ndarray, block: np.ndarray) -> np.ndarray:
    """q^H @ block, conjugating the block rather than copying all of q."""
    return (block.conj().T @ q).conj().T


def _project_out(a: np.ndarray, q: np.ndarray, passes: int = 2) -> None:
    """Subtract from each column of ``a``, in place, its projection onto the
    orthonormal columns of ``q``, ``passes`` times."""
    if q.shape[1] == 0:
        return
    for _, block in blocks(a):
        for _ in range(passes):
            block -= q @ _coefficients(q, block)


def _extend(q: np.ndarray, a: np.ndarray, drop_tol: float) -> np.ndarray:
    """Orthonormal columns extending the orthonormal ``q`` to span the
    columns of ``a`` as well, swept in input order; only the new columns
    are returned."""
    rows, start = q.shape
    buf = np.empty((rows, min(rows, start + a.shape[1])), dtype=complex,
                   order="F")
    buf[:, :start] = q
    k = start
    for j in range(a.shape[1]):
        if k == buf.shape[1]:
            break  # the basis spans the window; every residual is noise
        b = buf[:, :k]
        r = a[:, j].copy()
        for _ in range(2):
            r -= b @ (r.conj() @ b).conj()
        norm = np.linalg.norm(r)
        if norm >= drop_tol:
            # normalizing a barely-surviving residual amplifies rounding
            # noise, so orthogonalize once more after scaling
            r /= norm
            r -= b @ (r.conj() @ b).conj()
            r /= np.linalg.norm(r)
            buf[:, k] = r
            k += 1
    return buf[:, start:k]


def _nullspace(a: np.ndarray, atol: float = NULLSPACE_ATOL) -> np.ndarray:
    """Orthonormal columns c with a @ c = 0, up to the numerical rank."""
    rows, n = a.shape
    if rows == 0:
        return np.eye(n, dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=rows < n)
    cutoff = max(atol, float(s[0]) * NULLSPACE_RTOL) if s.size else atol
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def mgs(vectors, drop_tol: float = ORTHO_DROP_TOL) -> list[HVector]:
    """Orthonormal basis of the span, in input order."""
    vectors = list(vectors)
    win = Window(vectors)
    empty = np.zeros((len(win.indices), 0), dtype=complex)
    return win.vectors(_extend(empty, win.matrix(vectors), drop_tol))


def orthonormal_span(vectors) -> list[HVector]:
    """Numerically tight orthonormal basis of the span (SVD-based), keeping
    every direction down to the numerical rank.

    Used for constraint walls, where near-dependent families must still be
    fully projected out; generated bases go through ``mgs`` instead so their
    order stays canonical.
    """
    vectors = list(vectors)
    win = Window(vectors)
    if not win.indices:
        return []
    u, s, _ = np.linalg.svd(win.matrix(vectors), full_matrices=False)
    cutoff = max(SPAN_RANK_TOL, float(s[0]) * SPAN_RANK_TOL)
    rank = int(np.sum(s > cutoff))
    return win.vectors(u[:, :rank], prune=0.0)


def complement_basis(candidates, constraints,
                     drop_tol: float = ORTHO_DROP_TOL) -> list[HVector]:
    """Orthonormal basis of span(candidates) ∩ span(constraints)^⊥.

    Candidates are swept in order; whatever survives orthogonalization
    against the constraints (and the part already kept) is added.
    """
    candidates = list(candidates)
    wall = orthonormal_span(constraints)
    win = Window(candidates, wall)
    return win.vectors(
        _extend(win.matrix(wall), win.matrix(candidates), drop_tol))


def orthogonal_residual(vectors, basis) -> list[HVector]:
    """Each vector minus its projection onto an orthonormal family, two
    classical Gram-Schmidt passes."""
    vectors = list(vectors)
    win = Window(vectors, basis)
    a = win.matrix(vectors)
    _project_out(a, win.matrix(basis))
    return win.vectors(a)


def project(vectors, basis) -> list[HVector]:
    """Orthogonal projection of each vector onto an orthonormal family."""
    vectors = list(vectors)
    win = Window(vectors, basis)
    a, q = win.matrix(vectors), win.matrix(basis)
    for _, block in blocks(a):
        block[...] = q @ _coefficients(q, block)
    return win.vectors(a)


def span_residual_norm(x: HVector, basis) -> float:
    return orthogonal_residual([x], basis)[0].norm()


def nullspace_combinations(vectors, atol: float = NULLSPACE_ATOL) -> np.ndarray:
    """Coefficient matrix whose columns a satisfy sum_i a_i * vectors[i] = 0,
    orthonormal and spanning all such combinations up to the numerical
    rank.  Works over the joint support via one dense SVD."""
    vectors = list(vectors)
    win = Window(vectors)
    return _nullspace(win.matrix(vectors), atol)


def combinations(coeffs: np.ndarray, vectors) -> list[HVector]:
    """sum_i coeffs[i, k] * vectors[i] for each column k of ``coeffs``."""
    vectors = list(vectors)
    win = Window(vectors)
    return win.vectors(win.matrix(vectors) @ coeffs)


def intersect_spans(basis_a, basis_b,
                    drop_tol: float = ORTHO_DROP_TOL) -> list[HVector]:
    """Orthonormal basis of span(basis_a) ∩ span(basis_b): the combinations
    of ``basis_a`` whose residual against ``basis_b`` vanishes."""
    basis_a = list(basis_a)
    if not basis_a or not basis_b:
        return []
    win = Window(basis_a, basis_b)
    a = win.matrix(basis_a)
    residual = a.copy()
    _project_out(residual, win.matrix(basis_b))
    inside = a @ _nullspace(residual)
    empty = np.zeros((len(win.indices), 0), dtype=complex)
    return win.vectors(_extend(empty, inside, drop_tol))
