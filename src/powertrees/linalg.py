"""Exact integer linear algebra: Bareiss determinants and spanning-tree counts.

`kappa_matrix_tree` counts spanning trees by peeling universal vertices:
G = K_u v H, and each component of H is again such a join at a larger
diagonal shift, down to cliques, which have a closed form, and leaves without
a universal vertex; `graphs.components`, the package's one connected-components
search, splits each level.  Only a leaf takes a determinant, of its symmetric
positive semidefinite Laplacian block, and only its upper half is eliminated,
without pivoting; the generic pivoting `det_bareiss` stays behind
`audits.kappa_via_jl`, the route that cross-checks it.

No floating point anywhere.
"""

from __future__ import annotations

from collections import Counter

from .graphs import components
from .numth import InternalConsistencyError, Value  # the error is raised here and re-exported


class DimensionError(ValueError):
    """Matrix shape unsuitable for the requested operation."""


class IntMatrix(Value):
    """Dense integer matrix, entries in row-major order."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: tuple[int, ...]):
        super().__init__(rows, cols, data)
        if rows < 0 or cols < 0:
            raise DimensionError("negative dimensions")
        if len(data) != rows * cols:
            raise DimensionError(f"entry count {len(data)} != {rows} x {cols}")

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise DimensionError("ragged rows")
        return cls(r, c, tuple(x for row in rows for x in row))

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.data[i * c : (i + 1) * c]) for i in range(self.rows)]

    def is_square(self) -> bool:
        return self.rows == self.cols


def det_bareiss(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination that pivots
    on the first nonzero entry of each column on or below the diagonal; 0 at
    the first column without one.  The entries stay minors of m, so every
    division is checked exact."""
    if not m.is_square():
        raise DimensionError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    a = m.to_rows()
    sign, prev = 1, 1
    for c in range(m.rows):
        for r in range(c, m.rows):
            if a[r][c]:
                break
        else:
            return 0
        if r != c:
            a[c], a[r] = a[r], a[c]
            sign = -sign
        top = a[c]
        pivot = top[c]
        for row_i in a[c + 1 :]:
            f = row_i[c]
            new_tail = []
            push = new_tail.append
            for x, y in zip(row_i[c + 1 :], top[c + 1 :]):
                q, rem = divmod(pivot * x - f * y, prev)
                if rem:
                    raise InternalConsistencyError("inexact division in Bareiss step")
                push(q)
            row_i[c + 1 :] = new_tail
            row_i[c] = 0
        prev = pivot
    return sign * prev


def _det_psd_upper(upper: list[list[int]]) -> int:
    """Determinant of a symmetric positive semidefinite integer matrix A given
    as its upper rows upper[i] = A[i][i:], by Bareiss elimination on the upper
    half alone.

    The Bareiss entries are bordered minors, so the trailing matrix stays
    symmetric and A[i][k] is read as A[k][i].  There is no pivoting: the k-th
    pivot is the leading (k+1)-minor, and for PSD input a zero one means rows
    0..k are dependent, so the pivot row is all zero and det = 0.  Every
    division is checked to be exact, and a negative pivot or determinant or a
    zero pivot with a nonzero row (none possible for PSD input) is an error.
    """
    n = len(upper)
    if n == 0:
        return 1
    a = list(upper)
    prev = 1
    for k in range(n - 1):
        row_k = a[k]
        pivot = row_k[0]
        if pivot <= 0:
            if pivot or any(row_k):
                raise InternalConsistencyError("symmetric block is not positive semidefinite")
            return 0
        for i in range(k + 1, n):
            f = row_k[i - k]
            new_row = []
            push = new_row.append
            for x, y in zip(a[i], row_k[i - k :]):
                q, rem = divmod(pivot * x - f * y, prev)
                if rem:
                    raise InternalConsistencyError("inexact division in symmetric Bareiss step")
                push(q)
            a[i] = new_row
        prev = pivot
    last = a[n - 1][0]
    if last < 0:
        raise InternalConsistencyError("symmetric block is not positive semidefinite")
    return last


def _block_det(closed, comp: list[int]) -> int:
    """det L[comp] for the whole graph's Laplacian L, by `_det_psd_upper`."""
    return _det_psd_upper(
        [[len(closed[v]) - 1] + [-(w in closed[v]) for w in comp[i + 1 :]] for i, v in enumerate(comp)]
    )


def kappa_matrix_tree(g) -> int:
    """Number of spanning trees, by peeling universal vertices level by level.

    For a connected vertex set C whose vertices all have s neighbours outside
    C, L[C] = L_{G[C]} + sI, and let f(C, s) = prod_{j>=2} (mu_j(G[C]) + s).
    If C has u universal vertices U_C (read off G's degrees: len(closed[v]) - s
    == |C|), then G[C] = K_u v H with H = G[C - U_C], whose Laplacian
    eigenvalues are 0, h = |C| (u times) and mu_j(H) + u (j >= 2).  H's
    spectrum is the union of its c components' spectra, so its mu_j, j >= 2,
    are c - 1 zeros and the mu_j, j >= 2, of each component C'; every vertex
    of C' has u + s neighbours outside it.  With t = u + s:

        C complete:  f(C, s) = (h + s)^(h - 1)
        u > 0:       f(C, s) = (h + s)^u * t^(c - 1) * prod_C' f(C', t)
        u = 0:       f(C, s) = det L[C] / s   (a leaf; mu_1 = 0 gives s)

    and kappa(G) = f(V, 0) / n when G has a universal vertex.  The sets are
    kept on a worklist, not on the call stack, and both divisions are checked
    exact.  Each leaf block L[C] is a principal submatrix of the Laplacian,
    hence symmetric positive semidefinite, so `_det_psd_upper` eliminates only
    its upper half without pivoting.

    With no universal vertex, kappa is the cofactor at the lowest-numbered
    vertex of maximum degree: the product of det L[C] over the components C
    of G without it, 0 if one vanishes (G disconnected).  The oracle stays
    independent: it reads only degrees and adjacency of the explicit graph,
    and uses no twin quotient, clique spec or family closed form."""
    n = g.n
    if n == 0:
        raise DimensionError("graph must have at least one vertex")
    closed = g.closed
    if not any(len(closed[v]) == n for v in range(n)):
        root = max(range(n), key=lambda v: len(closed[v]))
        kappa = 1
        for comp in components(closed, set(range(n)) - {root}):
            kappa *= _block_det(closed, comp)
            if not kappa:
                return 0
        return kappa
    powers = Counter()
    kappa = 1
    work = [(list(range(n)), 0)]
    while work:
        comp, s = work.pop()
        h = len(comp)
        universal = [v for v in comp if len(closed[v]) - s == h]
        if len(universal) == h:
            powers[h + s] += h - 1
        elif universal:
            t = len(universal) + s
            children = components(closed, set(comp).difference(universal))
            powers[h + s] += len(universal)
            powers[t] += len(children) - 1
            work.extend((child, t) for child in children)
        else:
            leaf, r = divmod(_block_det(closed, comp), s)
            if r:
                raise InternalConsistencyError(f"leaf determinant not divisible by its shift {s}")
            kappa *= leaf
    for base, e in powers.items():
        kappa *= base**e
    kappa, r = divmod(kappa, n)
    if r:
        raise InternalConsistencyError(f"peeled eigenvalue product not divisible by n = {n}")
    return kappa
