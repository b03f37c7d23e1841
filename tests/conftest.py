"""The exact rank oracle that the linear-algebra tests check and the
spectrum certificate is cross-checked against."""

import pytest


def bareiss_rank(rows: list[list[int]]) -> int:
    """Exact rank by fraction-free (Bareiss) elimination that skips a column
    without a pivot.  The entries stay minors of the matrix, so every
    division is exact, and that is asserted."""
    a = [list(row) for row in rows]
    rank, prev = 0, 1
    for c in range(len(a[0]) if a else 0):
        r = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if r is None:
            continue
        a[rank], a[r] = a[r], a[rank]
        top = a[rank]
        for row in a[rank + 1 :]:
            f = row[c]
            for j in range(c, len(row)):
                q, rem = divmod(top[c] * row[j] - f * top[j], prev)
                assert rem == 0, "inexact division in Bareiss step"
                row[j] = q
        prev = top[c]
        rank += 1
    return rank


def laplacian_nullity(g, mu: int) -> int:
    """Multiplicity of mu as a Laplacian eigenvalue of g: n - rank(L - mu*I),
    L symmetric, with L built here from the adjacency sets."""
    rows = [[len(g.adj[v]) - mu if v == w else -(w in g.adj[v]) for w in range(g.n)]
            for v in range(g.n)]
    return g.n - bareiss_rank(rows)


@pytest.fixture(name="bareiss_rank")
def bareiss_rank_fixture():
    return bareiss_rank


@pytest.fixture(name="laplacian_nullity")
def laplacian_nullity_fixture():
    return laplacian_nullity
