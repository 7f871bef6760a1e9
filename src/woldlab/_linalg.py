"""Window kernel for subspace arithmetic on sparse vectors.

Every routine reads its input families once into a ``Window`` (the sorted
joint support of the inputs, one row per ``BasisIndex``), where each family
is held as its nonzero entries, does all of its work with numpy on dense
blocks gathered from those entries, and converts the result back to
``HVector`` once.  ``HVector`` stays the type at the operator boundary;
nothing here applies an operator.

The window is split into the connected components of the inputs' supports:
two indices share a component when some vector of some input family, wall
included, touches both.  The split is read from the supports, never from
numerical zeros of intermediate results.  Every vector lives in one
component (the zero vector in none), and vectors in different components
are exactly orthogonal, so each routine works on every component's rows and
columns alone: Gram-Schmidt sweeps, projections, SVD spans and nullspaces
cost the sum of their blocks instead of one product over the whole window.
Components of equal shape are stacked and done by the same numpy calls, so
hundreds of one- or two-row blocks cost a few calls, not hundreds.  Results
are merged back in global input order.

Generated bases come from one sweep, ``_sweep``: classical Gram-Schmidt in
input order with two projections per column ("twice is enough").  A column
is kept when its residual norm reaches the drop threshold, and is then
normalized, projected once more and normalized again, so near-dependent
inputs cannot leak their rounding noise into the basis.  A component whose
basis fills its rows takes no further columns, and columns with empty
support are dropped.  The fixed threshold and order make bases canonical:
two runs in the same environment give identical output.

Rank cutoffs of SVD spans and nullspaces compare each singular value with
the largest singular value of the whole matrix, not of its component, so a
small block next to a large one is judged as the dense matrix would be.

Matrix products go through BLAS, so the last digits of coefficients can
depend on the BLAS build, its thread count and the block shapes.

Families whose vectors have one entry each (basis vectors e_k and their
images phase * e_j, most of what the analyses offer) skip the window and
are answered row by row: each index is a component of its own, and every
block primitive has a one-row form on 1-D arrays built from the same numpy
operations, so the bits are those of the window.  One-term products are
formed as the matmul loops form them, each real product rounded on its
own (numpy's complex multiply may fuse them).  Each routine reads its
families once for this and builds the window as soon as a vector has two
entries, or where a row would need a sum of several terms: two span
inputs, two basis vectors, two nullspace inputs or two combined vectors on
one index, or a coefficient column that mixes two vectors.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import (
    NULLSPACE_ATOL,
    NULLSPACE_RTOL,
    ORTHO_DROP_TOL,
    PRUNE_TOL,
    SPAN_RANK_TOL,
)
from .core import HVector

# columns per block of the Gram matrix in ``gram_suspects``: bounds its
# temporaries to _BLOCK x columns entries
_BLOCK = 64


def _components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Labels of the connected components of the graph on 0..n-1 with edges
    (u[e], v[e]), numbered in order of their least member."""
    parent = list(range(n))
    for a, b in zip(u.tolist(), v.tolist()):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    for i in range(n):
        # every root is the least member of its tree, so a parent has a
        # smaller index than its child and is already resolved
        parent[i] = parent[parent[i]]
    root = np.array(parent, dtype=np.intp)
    return (np.cumsum(root == np.arange(n)) - 1)[root]


def _layout(lab: np.ndarray, count: int):
    """Indices sorted by label (-1 first, stable), where each label's run
    starts in that order, and its length."""
    size = np.bincount(lab[lab >= 0], minlength=count)
    start = np.cumsum(size) - size + (lab.size - int(size.sum()))
    return np.argsort(lab, kind="stable"), start, size


class _Family(NamedTuple):
    """Columns over a window held as their nonzero entries (row, column,
    value; in no particular order), with the component of each column
    (-1 for none)."""

    label: np.ndarray
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray


_NO_ENTRIES = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp),
               np.empty(0, dtype=complex))


def _family(label: np.ndarray, chunks, entries=_NO_ENTRIES) -> _Family:
    """A family from blocks: a chunk (cols (g, c), rows (g, r), x (g, r, c))
    gives column cols[k, j] the values x[k, :, j] at rows rows[k].
    ``entries`` (row, col, val) are added as they are; exact zeros are
    dropped."""
    parts = [entries]
    for c, r, x in chunks:
        parts.append((r.repeat(x.shape[2]), c.repeat(x.shape[1], axis=0).ravel(),
                      x.ravel()))
    row, col, val = (np.concatenate(p) for p in zip(*parts))
    nonzero = val != 0
    return _Family(label, row[nonzero], col[nonzero], val[nonzero])


def _no_columns() -> _Family:
    return _family(np.empty(0, dtype=np.intp), [])


class Window:
    """Sorted joint support of some vector families, one row per index,
    with each row labelled by its component of the families' supports.
    ``families`` holds each input family over the window."""

    __slots__ = ("indices", "row", "families", "label", "count", "layout",
                 "rank")

    def __init__(self, *families):
        keys, vals, cols, ends = [], [], [], []
        for family in families:
            width = 0
            for j, v in enumerate(family):
                entries = v._entries
                keys += entries
                vals += entries.values()
                cols += [j] * len(entries)
                width = j + 1
            ends.append((width, len(keys)))
        self.indices = sorted(set(keys))
        self.row = row = {idx: i for i, idx in enumerate(self.indices)}
        rows = np.array([row[idx] for idx in keys], dtype=np.intp)
        cols = np.array(cols, dtype=np.intp)
        vals = np.array(vals, dtype=complex)
        parts = []
        begin = 0
        for width, end in ends:
            r, c = rows[begin:end], cols[begin:end]
            head = np.full(width, -1)
            head[c] = r  # some row of each vector, -1 for the zero vector
            parts.append((head, r, c, vals[begin:end]))
            begin = end
        # every entry is joined to the head row of its vector
        heads = np.concatenate([head[c] for head, _, c, _ in parts])
        apart = heads != rows
        self._relabel(_components(len(self.indices), heads[apart], rows[apart]))
        outside = np.append(self.label, -1)  # index -1 picks the -1
        self.families = [_Family(outside[head], r, c, x)
                         for head, r, c, x in parts]

    def _relabel(self, label: np.ndarray) -> None:
        """Set the row labels, the layout of the rows by component and the
        position of each row inside its component."""
        n = label.size
        self.label = label
        self.count = int(label.max()) + 1 if n else 0
        order, start, size = self.layout = _layout(label, self.count)
        self.rank = np.empty(n, dtype=np.intp)
        self.rank[order] = np.arange(n) - np.repeat(start, size)

    def join(self, labels: np.ndarray, coeffs: np.ndarray):
        """Merge the components that one combination ``coeffs[:, k]`` of
        the vectors labelled ``labels`` reaches across.  Returns the new
        labels of the vectors and the label of each combination (-1 when it
        combines only zero vectors)."""
        k, i = np.nonzero(coeffs.T)
        lab = labels[i]
        k, lab = k[lab >= 0], lab[lab >= 0]
        # pair every vector of a combination with the combination's first
        head = lab[np.searchsorted(k, k)]
        merged = _components(self.count, head, lab)
        self._relabel(merged[self.label])
        combined = np.full(coeffs.shape[1], -1, dtype=np.intp)
        combined[k] = merged[head]
        return np.append(merged, -1)[labels], combined

    def vectors(self, fam: _Family, prune: float = PRUNE_TOL) -> list[HVector]:
        """The columns of a family as vectors, entries at or below
        ``prune`` in modulus dropped."""
        keep = np.abs(fam.val) > prune
        col, row = fam.col[keep], fam.row[keep]
        order = np.lexsort((row, col))
        indices = self.indices
        return _vectors(fam.label.size, col[order],
                        [indices[i] for i in row[order].tolist()],
                        fam.val[keep][order].tolist())


def _vectors(size: int, col: np.ndarray, keys: list, vals: list) -> list[HVector]:
    """``size`` vectors from their entries (column, index, value), sorted
    by column."""
    out = []
    start = 0
    for n in np.bincount(col, minlength=size).tolist():
        v = object.__new__(HVector)
        v._entries = dict(zip(keys[start:start + n], vals[start:start + n]))
        out.append(v)
        start += n
    return out


def _split(win: Window, *labels: np.ndarray):
    """The window's components grouped by shape.

    ``labels`` are the column labels of some families over the window.  For
    each distinct shape (rows, then columns of each family) one tuple of
    index arrays is yielded: the rows of its g components as a (g, r) array,
    then the columns of each family as a (g, c) array.  Components come in
    label order, indices ascending within each, so columns keep their input
    order.  Columns labelled -1 belong to no component.
    """
    count = win.count
    if count == 1:
        yield (np.arange(win.label.size)[None, :],) + tuple(
            np.flatnonzero(lab >= 0)[None, :] for lab in labels)
        return
    if not count:
        return
    layouts = [win.layout] + [_layout(lab, count) for lab in labels]
    base = max(int(size.max()) for _, _, size in layouts) + 1
    key = layouts[0][2]
    for _, _, size in layouts[1:]:
        key = key * base + size
    by_shape = np.argsort(key, kind="stable")
    cuts = np.flatnonzero(np.diff(key[by_shape])) + 1
    for comps in np.split(by_shape, cuts):
        yield tuple(order[start[comps, None] + np.arange(size[comps[0]])]
                    for order, start, size in layouts)


def _gather(win: Window, fam: _Family, rows: np.ndarray,
            cols: np.ndarray) -> np.ndarray:
    """The (g, r, c) stack of the blocks of ``fam`` on the components with
    these rows (g, r) and columns (g, c)."""
    g, c = cols.shape
    slot = np.full(fam.label.size, -1)
    slot[cols] = np.arange(g)[:, None]
    pos = np.empty(fam.label.size, dtype=np.intp)
    pos[cols] = np.arange(c)
    at = slot[fam.col]
    mine = at >= 0
    x = np.zeros((g, rows.shape[1], c), dtype=complex)
    x[at[mine], win.rank[fam.row[mine]], pos[fam.col[mine]]] = fam.val[mine]
    return x


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the (g, r, 1) stack of columns, as (g,)."""
    parts = x.view(float)  # (g, r, 2): real and imaginary parts
    return np.sqrt(np.add.reduce(np.add.reduce(parts * parts, axis=2), axis=1))


def _adjoint(b: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each block of a stack."""
    return b.conj().swapaxes(1, 2)


def _project_out(win: Window, a: _Family, q: _Family) -> _Family:
    """Each column of ``a`` minus its projection onto the orthonormal
    columns of ``q``, two classical Gram-Schmidt passes per component."""
    chunks = []
    done = np.zeros(a.label.size, dtype=bool)
    for rows, acols, qcols in _split(win, a.label, q.label):
        if acols.shape[1] and qcols.shape[1]:
            x, b = _gather(win, a, rows, acols), _gather(win, q, rows, qcols)
            bh = _adjoint(b)
            for _ in range(2):
                x -= b @ (bh @ x)
            chunks.append((acols, rows, x))
            done[acols] = True
    rest = ~done[a.col]
    return _family(a.label, chunks, (a.row[rest], a.col[rest], a.val[rest]))


def _project(win: Window, a: _Family, q: _Family) -> _Family:
    """Orthogonal projection of each column of ``a`` onto the orthonormal
    columns of ``q``."""
    chunks = []
    for rows, acols, qcols in _split(win, a.label, q.label):
        if acols.shape[1] and qcols.shape[1]:
            b = _gather(win, q, rows, qcols)
            chunks.append((acols, rows,
                           b @ (_adjoint(b) @ _gather(win, a, rows, acols))))
    return _family(a.label, chunks)


def _ranks(keys: list[np.ndarray]) -> np.ndarray:
    """Position of every key, chunks concatenated, in sorted order."""
    keys = np.concatenate(keys + [np.empty(0, dtype=np.intp)])
    pos = np.empty(keys.size, dtype=np.intp)
    pos[np.argsort(keys, kind="stable")] = np.arange(keys.size)
    return pos


def _merge(win: Window, found) -> _Family:
    """Columns found per component, as (keys (m,), rows (m, r),
    values (m, r)) chunks, as one family ordered by key."""
    pos = _ranks([keys for keys, _, _ in found])
    label = np.empty(pos.size, dtype=np.intp)
    chunks = []
    first = 0
    for keys, rows, vals in found:
        at = pos[first:first + keys.size]
        label[at] = win.label[rows[:, 0]]
        chunks.append((at[:, None], rows, vals[:, :, None]))
        first += keys.size
    return _family(label, chunks)


def _sweep(win: Window, q: _Family, a: _Family) -> _Family:
    """Orthonormal columns extending the orthonormal ``q`` to span the
    columns of ``a`` as well, swept in input order within each component;
    only the new columns are returned, in input order."""
    found = []
    for rows, qcols, acols in _split(win, q.label, a.label):
        g, r = rows.shape
        start, width = qcols.shape[1], acols.shape[1]
        if not width or start >= r:
            continue  # nothing offered, or the wall fills the component
        # the basis, and its conjugate transpose for the coefficients
        buf = np.zeros((g, r, min(r, start + width)), dtype=complex)
        buf[:, :, :start] = _gather(win, q, rows, qcols)
        bufh = _adjoint(buf).copy()
        cand = _gather(win, a, rows, acols)
        taken = np.zeros((g, buf.shape[2]), dtype=np.intp)  # input column
        k = np.full(g, start)
        every = np.arange(g)
        top, full = start, 0  # widest basis, components filled
        for j in range(width):
            b, bh = buf[:, :, :top], bufh[:, :top]
            x = cand[:, :, j:j + 1]
            for _ in range(2 if top else 0):  # nothing to project onto yet
                x -= b @ (bh @ x)
            norm = _norm(x)
            keep = norm >= ORTHO_DROP_TOL
            if full:
                keep &= k < r
            sel = every[keep]
            if not sel.size:
                continue
            if sel.size < g:
                x, b, bh, norm = x[sel], b[sel], bh[sel], norm[sel]
            # normalizing a barely-surviving residual amplifies rounding
            # noise, so orthogonalize once more after scaling
            x = x / norm[:, None, None]
            if top:
                x -= b @ (bh @ x)
            x /= _norm(x)[:, None, None]
            at = k[sel]
            buf[sel, :, at] = x[:, :, 0]
            bufh[sel, at, :] = x[:, :, 0].conj()
            taken[sel, at] = j
            k[sel] = at = at + 1
            top = max(top, int(at.max()))
            full += int(np.count_nonzero(at == r))
            if full == g:
                break  # every basis fills its component
        slots = np.arange(buf.shape[2])
        comp, slot = np.nonzero((slots >= start) & (slots < k[:, None]))
        found.append((acols[comp, taken[comp, slot]], rows[comp],
                      buf[comp, :, slot]))
    return _merge(win, found)


def _span(win: Window, a: _Family) -> _Family:
    """Orthonormal columns spanning the columns of ``a`` down to the
    numerical rank (SVD per component, cutoff against the largest singular
    value overall), ordered by component, then by singular value."""
    parts = []
    top = 0.0
    for rows, acols in _split(win, a.label):
        if not acols.shape[1]:
            continue
        x = _gather(win, a, rows, acols)
        if rows.shape[1] == 1:
            # a one-row block spans its row, or nothing
            u = np.ones((rows.shape[0], 1, 1), dtype=complex)
            s = np.sqrt(np.sum(x.real ** 2 + x.imag ** 2, axis=2))
        else:
            u, s, _ = np.linalg.svd(x, full_matrices=False)
        parts.append((rows, u, s))
        top = max(top, float(s[:, 0].max()))
    cutoff = max(SPAN_RANK_TOL, top * SPAN_RANK_TOL)
    height = len(win.indices)
    found = []
    for rows, u, s in parts:
        comp, p = np.nonzero(s > cutoff)
        found.append((rows[comp, 0] * height + p, rows[comp], u[comp, :, p]))
    return _merge(win, found)


def _nullspace(win: Window, a: _Family) -> np.ndarray:
    """Orthonormal coefficient columns c with a @ c = 0, up to the numerical
    rank.  A column of ``a`` with empty support is a free direction of its
    own.

    Each component's block has its own SVD; the cutoff is
    max(NULLSPACE_ATOL, NULLSPACE_RTOL * largest singular value overall).
    Columns come ordered by the first input column they combine.
    """
    n = a.label.size
    parts = []
    top = 0.0
    for rows, acols in _split(win, a.label):
        width = acols.shape[1]
        if not width:
            continue
        x = _gather(win, a, rows, acols)
        if x.shape[1:] == (1, 1):
            s = np.abs(x[:, 0, :])
            vh = np.ones_like(x)
        else:
            _, s, vh = np.linalg.svd(x, full_matrices=rows.shape[1] < width)
        parts.append((acols, s, vh))
        top = max(top, float(s[:, 0].max()))
    cutoff = max(NULLSPACE_ATOL, top * NULLSPACE_RTOL)
    free = np.flatnonzero(a.label < 0)
    found = [(free * n, free[:, None], np.ones((free.size, 1), dtype=complex))]
    for acols, s, vh in parts:
        rank = np.sum(s > cutoff, axis=1)
        comp, p = np.nonzero(np.arange(vh.shape[1]) >= rank[:, None])
        found.append((acols[comp, 0] * n + p, acols[comp],
                      vh[comp, p, :].conj()))
    pos = _ranks([keys for keys, _, _ in found])
    out = np.zeros((n, pos.size), dtype=complex)
    first = 0
    for keys, cols, vals in found:
        out[cols, pos[first:first + keys.size, None]] = vals
        first += keys.size
    return out


def _combine(win: Window, a: _Family, coeffs: np.ndarray,
             clab: np.ndarray) -> _Family:
    """The combinations a @ coeffs, where each coefficient column labelled
    c combines only columns of ``a`` in component c (-1: none)."""
    chunks = []
    for rows, acols, ccols in _split(win, a.label, clab):
        if acols.shape[1] and ccols.shape[1]:
            block = coeffs[acols[:, :, None], ccols[:, None, :]]
            chunks.append((ccols, rows,
                           _gather(win, a, rows, acols) @ block))
    return _family(clab, chunks)


# -- single-entry families, row by row ---------------------------------------


class _Units(NamedTuple):
    """A family of ``size`` vectors with one entry each, the zero vector
    with none: the positions of the nonzero vectors, their indices and
    their values."""

    size: int
    col: np.ndarray
    key: list
    val: np.ndarray

    def at(self):
        """The position in ``key`` of each index, or None when two vectors
        share one."""
        at = dict(zip(self.key, range(len(self.key))))
        return at if len(at) == len(self.key) else None


def _units(*families):
    """Each family as ``_Units``, or None as soon as some vector has two or
    more entries."""
    out = []
    for family in families:
        col, key, val = [], [], []
        for j, v in enumerate(family):
            entries = v._entries
            if len(entries) > 1:
                return None
            for k, x in entries.items():
                col.append(j)
                key.append(k)
                val.append(x)
        out.append(_Units(len(family), np.array(col, dtype=np.intp), key,
                          np.array(val, dtype=complex)))
    return out


def _unit_vectors(u: _Units) -> list[HVector]:
    """The vectors of ``u`` (columns ascending), entries at or below
    ``PRUNE_TOL`` in modulus dropped."""
    keep = np.abs(u.val) > PRUNE_TOL
    return _vectors(u.size, u.col[keep],
                    [k for k, b in zip(u.key, keep.tolist()) if b],
                    u.val[keep].tolist())


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise, rounded as numpy's matmul loops round a one-term
    product: each real product on its own, the sums begun at +0.  The
    complex multiply ufunc may fuse a product into the sum instead."""
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag + 0.0
    out.imag = a.real * b.imag + a.imag * b.real + 0.0
    return out


def _unit_sweep(a: _Units, wall=()) -> list[HVector]:
    """``_sweep`` on one-row components: on each index outside ``wall``
    the first vector whose norm reaches the drop threshold, normalized
    twice, in input order."""
    norm = _norm(a.val[:, None, None])
    taken = set(wall)
    keep = []
    for i, (k, ok) in enumerate(zip(a.key, (norm >= ORTHO_DROP_TOL).tolist())):
        if ok and k not in taken:
            taken.add(k)
            keep.append(i)
    x = a.val[keep][:, None, None] / norm[keep][:, None, None]
    x /= _norm(x)[:, None, None]
    return _unit_vectors(_Units(len(keep), np.arange(len(keep)),
                                [a.key[i] for i in keep], x[:, 0, 0]))


def _unit_span(a: _Units) -> list[HVector]:
    """``_span`` on one-row components, one vector per index: the unit
    vectors, in index order, of the indices whose value clears the rank
    cutoff."""
    s = np.sqrt(a.val.real ** 2 + a.val.imag ** 2)
    cutoff = max(SPAN_RANK_TOL, float(s.max(initial=0.0)) * SPAN_RANK_TOL)
    keys = sorted(k for k, big in zip(a.key, (s > cutoff).tolist()) if big)
    return _vectors(len(keys), np.arange(len(keys)), keys, [1 + 0j] * len(keys))


def _unit_partners(a: _Units, at: dict, q: _Units):
    """Positions of the vectors of ``a`` whose index carries a vector of
    ``q`` (``at`` its positions by index), and the values of those."""
    hit = [i for i, k in enumerate(a.key) if k in at]
    return hit, q.val[[at[a.key[i]] for i in hit]]


def _unit_residual(a: _Units, at: dict, q: _Units) -> np.ndarray:
    """``_project_out`` on one-row components: the values of ``a`` minus
    their projections onto ``q``, two passes."""
    hit, b = _unit_partners(a, at, q)
    x = a.val.copy()
    y = x[hit]
    for _ in range(2):
        y = y - _times(b, _times(b.conj(), y))
    x[hit] = y
    return x


def _unit_nullspace(a: _Units, x: np.ndarray) -> np.ndarray:
    """``_nullspace`` of one-by-one blocks: the vectors of ``a``, with
    values ``x``, one per index.  A value at or below the cutoff, and a
    zero vector, is a free direction of its own."""
    s = np.abs(x)
    cutoff = max(NULLSPACE_ATOL, float(s.max(initial=0.0)) * NULLSPACE_RTOL)
    null = np.ones(a.size, dtype=bool)
    null[a.col] = ~(s > cutoff)
    # the SVD path conjugates its unit right singular vectors: 1 - 0j
    value = np.ones(a.size, dtype=complex)
    value[a.col] = value[a.col].conj()
    cols = np.flatnonzero(null)
    out = np.zeros((a.size, cols.size), dtype=complex)
    out[cols, np.arange(cols.size)] = value[cols]
    return out


def _unit_overlaps(a: _Units, cutoff: float):
    """``overlap_suspects`` of single-entry vectors: only vectors on one
    index overlap."""
    members = {}
    for i, k in enumerate(a.key):
        members.setdefault(k, []).append(i)
    pi, pj = np.array([(i, j) for group in members.values()
                       for n, i in enumerate(group) for j in group[:n]],
                      dtype=np.intp).reshape(-1, 2).T
    big = np.abs(_times(a.val[pi].conj(), a.val[pj])) > cutoff
    found_i, found_j = a.col[pi[big]], a.col[pj[big]]
    order = np.lexsort((found_j, found_i))
    return found_i[order], found_j[order]


def mgs(vectors) -> list[HVector]:
    """Orthonormal basis of the span, in input order."""
    vectors = list(vectors)
    units = _units(vectors)
    if units is not None:
        return _unit_sweep(*units)
    win = Window(vectors)
    return win.vectors(_sweep(win, _no_columns(), *win.families))


def orthonormal_span(vectors) -> list[HVector]:
    """Numerically tight orthonormal basis of the span (SVD-based), keeping
    every direction down to the numerical rank.

    Used for constraint walls, where near-dependent families must still be
    fully projected out; generated bases go through ``mgs`` instead so their
    order stays canonical.
    """
    vectors = list(vectors)
    units = _units(vectors)
    if units is not None and units[0].at() is not None:
        return _unit_span(*units)
    win = Window(vectors)
    return win.vectors(_span(win, *win.families), prune=0.0)


def complement_basis(candidates, constraints) -> list[HVector]:
    """Orthonormal basis of the projection of span(candidates) onto
    span(constraints)^⊥: the new directions the candidates add to the
    constraints, which is not the intersection of the two (for candidate
    (e0 + e1)/√2 against e0 it is e1, where the intersection is {0}).

    Candidates are swept in order; whatever survives orthogonalization
    against the constraints (and the part already kept) is added.
    """
    candidates = list(candidates)
    wall = orthonormal_span(constraints)
    units = _units(candidates, wall)
    if units is not None:
        a, q = units
        return _unit_sweep(a, q.key)
    win = Window(candidates, wall)
    a, q = win.families
    return win.vectors(_sweep(win, q, a))


def orthogonal_residual(vectors, basis) -> list[HVector]:
    """Each vector minus its projection onto an orthonormal family, two
    classical Gram-Schmidt passes."""
    vectors, basis = list(vectors), list(basis)
    units = _units(vectors, basis)
    if units is not None and (at := units[1].at()) is not None:
        a, q = units
        return _unit_vectors(a._replace(val=_unit_residual(a, at, q)))
    win = Window(vectors, basis)
    return win.vectors(_project_out(win, *win.families))


def project(vectors, basis) -> list[HVector]:
    """Orthogonal projection of each vector onto an orthonormal family."""
    vectors, basis = list(vectors), list(basis)
    units = _units(vectors, basis)
    if units is not None and (at := units[1].at()) is not None:
        a, q = units
        hit, b = _unit_partners(a, at, q)
        return _unit_vectors(_Units(a.size, a.col[hit], [a.key[i] for i in hit],
                                    _times(b, _times(b.conj(), a.val[hit]))))
    win = Window(vectors, basis)
    return win.vectors(_project(win, *win.families))


def nullspace_combinations(vectors, basis=()) -> np.ndarray:
    """Coefficient matrix whose columns a satisfy sum_i a_i * vectors[i] = 0,
    or, given an orthonormal ``basis``, lies in its span (the residual
    against it vanishes).  The columns are orthonormal and span all such
    combinations up to the numerical rank.  Each component of the joint
    support has its own SVD."""
    vectors, basis = list(vectors), list(basis)
    units = _units(vectors, basis)
    if units is not None and units[0].at() is not None \
            and (at := units[1].at()) is not None:
        a, q = units
        return _unit_nullspace(a, _unit_residual(a, at, q) if basis else a.val)
    win = Window(vectors, basis)
    a, q = win.families
    if basis:
        a = _project_out(win, a, q)
    return _nullspace(win, a)


def combination_basis(coeffs: np.ndarray, vectors) -> list[HVector]:
    """Orthonormal basis, swept in order, of the combinations
    sum_i coeffs[i, k] * vectors[i], without building them as vectors."""
    vectors = list(vectors)
    units = _units(vectors)
    if units is not None and units[0].at() is not None:
        a, = units
        pos = np.full(len(vectors), -1)
        pos[a.col] = np.arange(a.col.size)
        k, j = np.nonzero(coeffs.T)
        i = pos[j]
        k, j, i = k[i >= 0], j[i >= 0], i[i >= 0]
        if np.all(np.diff(k) > 0):  # no column mixes two vectors
            return _unit_sweep(_Units(coeffs.shape[1], k, [a.key[t] for t in i],
                                      _times(a.val[i], coeffs[j, k])))
    win = Window(vectors)
    a, = win.families
    labels, clab = win.join(a.label, coeffs)
    mixed = _combine(win, a._replace(label=labels), coeffs, clab)
    return win.vectors(_sweep(win, _no_columns(), mixed))


def intersect_spans(basis_a, basis_b) -> list[HVector]:
    """Orthonormal basis of span(basis_a) ∩ span(basis_b): the combinations
    of ``basis_a`` whose residual against the orthonormal ``basis_b``
    vanishes, swept in order."""
    basis_a = list(basis_a)
    if not basis_a or not basis_b:
        return []
    return combination_basis(
        nullspace_combinations(basis_a, basis=basis_b), basis_a)


def gram_suspects(a: np.ndarray, cutoff: float):
    """Pairs (i, j) of columns, j < i, whose dense overlap |<a_j, a_i>|
    exceeds ``cutoff``, as two index arrays in row-major order (by i, then
    j).

    The Gram rows are formed in blocks, so temporaries stay small.  The
    overlaps carry BLAS rounding: callers pick a cutoff below their
    decision threshold and re-measure the suspects.
    """
    found_i, found_j = [], []
    for first in range(0, a.shape[1], _BLOCK):
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


def overlap_suspects(vectors, cutoff: float):
    """Pairs (i, j) of the vectors, j < i, whose overlap |<v_j, v_i>|
    exceeds ``cutoff``, as two index arrays in row-major order (by i, then
    j).

    Vectors in different components are orthogonal, so only each
    component's Gram matrix is formed: stacked for small components, in
    ``gram_suspects`` blocks for large ones.  The overlaps carry BLAS
    rounding, as there.
    """
    vectors = list(vectors)
    units = _units(vectors)
    if units is not None:
        return _unit_overlaps(*units, cutoff)
    win = Window(vectors)
    a, = win.families
    found_i, found_j = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for rows, cols in _split(win, a.label):
        if cols.shape[1] < 2:
            continue
        x = _gather(win, a, rows, cols)
        if cols.shape[1] > _BLOCK:
            for block, idx in zip(x, cols):
                i, j = gram_suspects(block, cutoff)
                found_i.append(idx[i])
                found_j.append(idx[j])
            continue
        comp, i, j = np.nonzero(np.abs(x.conj().swapaxes(1, 2) @ x) > cutoff)
        below = j < i
        found_i.append(cols[comp[below], i[below]])
        found_j.append(cols[comp[below], j[below]])
    found_i, found_j = np.concatenate(found_i), np.concatenate(found_j)
    order = np.lexsort((found_j, found_i))
    return found_i[order], found_j[order]
