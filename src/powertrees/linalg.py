"""Exact integer linear algebra: Bareiss determinants, spanning-tree counts,
and Laplacian characteristic polynomials.

No floating point anywhere.  When gmpy2 is importable its mpz type is used
inside the elimination loops (bit-identical results, much faster on the
hundred-digit intermediates that large graphs produce); otherwise plain
Python ints are used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

try:
    from gmpy2 import mpz as _mk
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _mk = int


class DimensionError(ValueError):
    """Matrix shape unsuitable for the requested operation."""


class InternalConsistencyError(RuntimeError):
    """An exactness invariant failed (inexact division); signals a bug."""


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, entries in row-major order."""

    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionError("negative dimensions")
        if len(self.data) != self.rows * self.cols:
            raise DimensionError(
                f"entry count {len(self.data)} != {self.rows} x {self.cols}"
            )

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
    """Exact determinant by fraction-free (Bareiss) elimination.

    Pivoting is the first nonzero entry in the current column; every interior
    division is checked to be exact.
    """
    if not m.is_square():
        raise DimensionError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return 1
    a = [[_mk(x) for x in row] for row in m.to_rows()]
    sign = 1
    prev = _mk(1)
    for k in range(n - 1):
        if not a[k][k]:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            f = row_i[k]
            new_tail = []
            push = new_tail.append
            for x, y in zip(row_i[k + 1 :], row_k[k + 1 :]):
                q, rem = divmod(pivot * x - f * y, prev)
                if rem:
                    raise InternalConsistencyError("inexact division in Bareiss step")
                push(q)
            row_i[k + 1 :] = new_tail
            row_i[k] = 0
        prev = pivot
    return int(sign * a[n - 1][n - 1])


def det_cofactor(m: IntMatrix) -> int:
    """Naive cofactor-expansion determinant (reference oracle, small matrices only)."""
    if not m.is_square():
        raise DimensionError("determinant needs a square matrix")
    rows = m.to_rows()

    def rec(rs: list[list[int]]) -> int:
        k = len(rs)
        if k == 0:
            return 1
        if k == 1:
            return rs[0][0]
        total = 0
        for j in range(k):
            if rs[0][j]:
                minor = [row[:j] + row[j + 1 :] for row in rs[1:]]
                total += (-1) ** j * rs[0][j] * rec(minor)
        return total

    return rec(rows)


def _laplacian_rows(g) -> list[list[int]]:
    n = g.n
    rows = [[0] * n for _ in range(n)]
    for v in range(n):
        rows[v][v] = g.degree(v)
        for w in g.neighbors(v):
            rows[v][w] = -1
    return rows


def kappa_matrix_tree(g) -> int:
    """Number of spanning trees, as the vertex-0 cofactor of the Laplacian.

    Returns 0 for disconnected graphs (the determinant vanishes).
    """
    n = g.n
    if n == 0:
        raise DimensionError("graph must have at least one vertex")
    if n == 1:
        return 1
    lap = _laplacian_rows(g)
    reduced = [row[1:] for row in lap[1:]]
    return det_bareiss(IntMatrix.from_rows(reduced))


def kappa_via_jl(g) -> int:
    """Spanning-tree count via det(J + L) / n^2, J the all-ones matrix.

    Cross-check route: must agree with kappa_matrix_tree; the division by n^2
    is asserted exact.
    """
    n = g.n
    if n == 0:
        raise DimensionError("graph must have at least one vertex")
    lap = _laplacian_rows(g)
    jl = [[lap[i][j] + 1 for j in range(n)] for i in range(n)]
    d = det_bareiss(IntMatrix.from_rows(jl))
    q, r = divmod(d, n * n)
    if r:
        raise InternalConsistencyError(f"det(J+L) = {d} not divisible by n^2 = {n * n}")
    return q


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients constant-term first."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divide_linear(self, r: int) -> "IntPolynomial | None":
        """Quotient by (x - r) if r is a root, else None (synthetic division)."""
        out = []
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * r + c
            out.append(acc)
        if acc != 0:
            return None
        out.pop()  # remainder slot
        return IntPolynomial(tuple(reversed(out)))

    def integer_roots(self, candidates) -> tuple[dict[int, int], "IntPolynomial"]:
        """Strip roots from `candidates` by repeated trial division.

        Returns ({root: multiplicity}, remaining polynomial).
        """
        poly = self
        roots: dict[int, int] = {}
        for r in candidates:
            while poly.degree > 0:
                q = poly.divide_linear(r)
                if q is None:
                    break
                roots[r] = roots.get(r, 0) + 1
                poly = q
        return roots, poly


def laplacian_char_poly(g) -> IntPolynomial:
    """Characteristic polynomial det(mu*I - L) of the graph Laplacian.

    Evaluated exactly at the integer points mu = 0..n and interpolated with
    rationals; the result is asserted to have integer coefficients and zero
    constant term.
    """
    n = g.n
    lap = _laplacian_rows(g)
    xs = list(range(n + 1))
    ys = []
    for mu in xs:
        rows = [
            [(mu if i == j else 0) - lap[i][j] for j in range(n)] for i in range(n)
        ]
        ys.append(det_bareiss(IntMatrix.from_rows(rows)))
    coeffs = _newton_interpolate(xs, ys)
    if len(coeffs) < n + 1:
        coeffs = coeffs + [Fraction(0)] * (n + 1 - len(coeffs))
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise InternalConsistencyError("char poly interpolation gave non-integer")
        out.append(int(c))
    if out and out[0] != 0:
        raise InternalConsistencyError("Laplacian char poly must have zero constant term")
    return IntPolynomial(tuple(out))


def _newton_interpolate(xs: list[int], ys: list[int]) -> list[Fraction]:
    """Exact polynomial interpolation; returns coefficients constant-first."""
    k = len(xs)
    # divided differences
    table = [Fraction(y) for y in ys]
    newton = [table[0]]
    for level in range(1, k):
        table = [
            (table[i + 1] - table[i]) / (xs[i + level] - xs[i])
            for i in range(k - level)
        ]
        newton.append(table[0])
    # expand c0 + c1(x-x0) + c2(x-x0)(x-x1) + ...
    coeffs = [Fraction(0)] * k
    basis = [Fraction(1)] + [Fraction(0)] * (k - 1)  # running product poly
    for level, c in enumerate(newton):
        for i in range(level + 1):
            coeffs[i] += c * basis[i]
        if level + 1 < k:
            # basis *= (x - xs[level])
            shifted = [Fraction(0)] + basis[:-1]
            basis = [s - xs[level] * b for s, b in zip(shifted, basis)]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def shifted_product_integer_check(g, m: int) -> int:
    """Product of (mu_i + m) over the n-1 largest Laplacian eigenvalues.

    Computed exactly as (-1)^n * sigma(-m) / m where sigma is the Laplacian
    characteristic polynomial; the division by m is asserted exact.
    """
    if m == 0:
        raise ValueError("shift m must be nonzero")
    n = g.n
    lap = _laplacian_rows(g)
    rows = [[(-m if i == j else 0) - lap[i][j] for j in range(n)] for i in range(n)]
    sigma_at_minus_m = det_bareiss(IntMatrix.from_rows(rows))
    value = (-1) ** n * sigma_at_minus_m
    q, r = divmod(value, m)
    if r:
        raise InternalConsistencyError(
            f"shifted eigenvalue product not divisible by m={m}"
        )
    return q
