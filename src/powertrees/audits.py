"""Second oracles and audited claims, run only by `verify` and the tests.
Nothing a `kappa` route runs lives here, and `cli` does not import this
module at start-up.

The characteristic polynomial det(mu*I - L) comes from the Faddeev-LeVerrier
trace recurrence in integer matrix products read off the neighbourhoods, with
every division checked exact; no determinant is taken for it, so it checks the
Bareiss route independently.
"""

from __future__ import annotations

from collections import Counter

from . import graphs
from .linalg import DimensionError, IntMatrix, InternalConsistencyError, det_bareiss
from .numth import FactoredNat, factored_ratio
from .spectra import Clique, CliqueExpr, Join, Union


def _laplacian_rows(g, shift: int = 0) -> list[list[int]]:
    """Rows of L + shift*I."""
    n = g.n
    rows = [[0] * n for _ in range(n)]
    for v in range(n):
        for w in g.closed[v]:
            rows[v][w] = -1
        rows[v][v] = g.degree(v) + shift
    return rows


def kappa_via_jl(g) -> int:
    """Spanning-tree count via det(J + L) / n^2, J the all-ones matrix.

    Cross-check route: must agree with kappa_matrix_tree; the division by n^2
    is asserted exact.  It stays on the generic pivoting `det_bareiss` on
    purpose, so that it checks `kappa_matrix_tree`'s symmetric elimination
    with independent arithmetic.
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


def laplacian_char_poly(g) -> tuple[int, ...]:
    """Coefficients (c_0, ..., c_n), constant term first, of the
    characteristic polynomial det(mu*I - L) = sum c_k mu^k of the graph
    Laplacian, by the Faddeev-LeVerrier recurrence: c_n = 1, M_0 = 0,
    M_k = L*M_{k-1} + c_{n-k+1}*I and c_{n-k} = -tr(L*M_k)/k.  Row v of L*M,
    deg(v) * M[v] less v's neighbours' rows, is |closed(v)| * M[v] less the
    rows M[w] over v's closed neighbourhood.  Each division
    by k is checked exact, and the constant term det(-L) is checked zero.
    """
    n, closed = g.n, g.closed
    coeffs = [0] * n + [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]  # M_1 = I
    for k in range(1, n + 1):
        lm = [
            [len(closed[v]) * x - sum(ys) for x, *ys in zip(m[v], *(m[w] for w in closed[v]))]
            for v in range(n)
        ]
        c, r = divmod(-sum(lm[i][i] for i in range(n)), k)
        if r:
            raise InternalConsistencyError(f"trace recurrence: tr(L*M_{k}) not divisible by {k}")
        coeffs[n - k] = c
        for i in range(n):
            lm[i][i] += c
        m = lm
    if coeffs[0] != 0:
        raise InternalConsistencyError("Laplacian char poly must have zero constant term")
    return tuple(coeffs)


def shifted_product_integer_check(g, m: int) -> int:
    """Product of (mu_i + m) over the n-1 largest Laplacian eigenvalues.

    Computed exactly as det(L + m*I) / m, which is (-1)^n * sigma(-m) / m for
    the Laplacian characteristic polynomial sigma; the division by m is
    asserted exact.
    """
    if m == 0:
        raise ValueError("shift m must be nonzero")
    q, r = divmod(det_bareiss(IntMatrix.from_rows(_laplacian_rows(g, m))), m)
    if r:
        raise InternalConsistencyError(
            f"shifted eigenvalue product not divisible by m={m}"
        )
    return q


def kappa_clique_replaced_path(sizes) -> FactoredNat:
    """The published closed form for clique-replaced paths, evaluated verbatim:

        (x1+x2)**(x1-1) * prod_{j=2}^{k-1} (x_{j-1}+x_j+x_{j+1})**(x_j-1)
        * (x_{k-1}+x_k)**(x_k-1) * (x_2...x_{k-1}) * sum(x)

    Note: the verification suite compares this against the matrix-tree oracle
    per instance and reports disagreements (the formula is audited, not
    trusted); see the path audit in the verify module.
    """
    xs = list(sizes)
    k = len(xs)
    if k < 3:
        raise ValueError("path closed form needs k >= 3 (use kappa_cayley for k <= 2)")
    if any(x < 1 for x in xs):
        raise ValueError("all sizes must be >= 1")
    powers = Counter({sum(xs): 1})
    powers[xs[0] + xs[1]] += xs[0] - 1
    powers[xs[-2] + xs[-1]] += xs[-1] - 1
    for j in range(1, k - 1):
        powers[xs[j - 1] + xs[j] + xs[j + 1]] += xs[j] - 1
        powers[xs[j]] += 1
    return factored_ratio(powers, {}, sum(xs))


def graph_expr(g: graphs.SimpleGraph) -> CliqueExpr | None:
    """The canonical clique expression of a graph with n >= 1, or None when it
    has an induced P4: the inverse of expr_to_graph, up to isomorphism.

    A vertex set splits into its components, a union, or if connected into
    its co-components, a join; a set that splits neither way is prime.  Below
    the top each set tries only the search its parent did not.  A join's
    single vertices form one clique, and every node's parts are sorted by
    (n, str(part)), so two graphs give equal expressions iff they are
    isomorphic cographs.  Recursion goes only as deep as the cotree.
    """

    def node(vertices, union):
        if len(vertices) == 1:
            return Clique(1)
        groups = (graphs.components if union else graphs.co_components)(g.closed, set(vertices))
        if len(groups) == 1:
            return None
        parts = [node(group, not union) for group in groups if union or len(group) > 1]
        if None in parts:
            return None
        if len(parts) < len(groups):
            parts.append(Clique(len(groups) - len(parts)))
        parts.sort(key=lambda part: (part.n, str(part)))
        return parts[0] if len(parts) == 1 else (Union if union else Join)(*parts)

    return node(range(g.n), not g.is_connected())
