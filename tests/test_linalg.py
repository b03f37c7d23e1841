import random
from fractions import Fraction

import pytest

from powertrees.audits import kappa_via_jl, laplacian_char_poly, shifted_product_integer_check
from powertrees.graphs import SimpleGraph, complete_graph, components, path_graph
from powertrees.linalg import (
    DimensionError,
    IntMatrix,
    InternalConsistencyError,
    _det_psd_upper,
    det_bareiss,
    kappa_matrix_tree,
)


def random_graph(rng, n):
    return SimpleGraph(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    )


def test_det_identity_cases():
    assert det_bareiss(IntMatrix.from_rows([[5]])) == 5
    assert det_bareiss(IntMatrix.from_rows([[2, 1], [1, 2]])) == 3
    assert det_bareiss(IntMatrix(0, 0, ())) == 1


def test_det_reduced_laplacian_k4():
    # reduced Laplacian of the complete graph on 4 vertices
    m = IntMatrix.from_rows([[3, -1, -1], [-1, 3, -1], [-1, -1, 3]])
    assert det_bareiss(m) == 16


def test_det_requires_square():
    with pytest.raises(DimensionError):
        det_bareiss(IntMatrix(2, 3, (1,) * 6))


def test_det_zero_column_and_pivoting():
    assert det_bareiss(IntMatrix.from_rows([[0, 1], [0, 2]])) == 0
    # forces a row swap
    assert det_bareiss(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1
    assert det_bareiss(IntMatrix.from_rows([[0, 2, 1], [3, 0, 0], [0, 0, 5]])) == -30


def det_cofactor(m: IntMatrix) -> int:
    """Reference determinant by cofactor expansion (small matrices only)."""

    def rec(rs: list[list[int]]) -> int:
        k = len(rs)
        if k == 0:
            return 1
        total = 0
        for j in range(k):
            if rs[0][j]:
                minor = [row[:j] + row[j + 1 :] for row in rs[1:]]
                total += (-1) ** j * rs[0][j] * rec(minor)
        return total

    return rec(m.to_rows())


def test_det_matches_cofactor_oracle():
    rng = random.Random(12345)
    for _ in range(300):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        m = IntMatrix.from_rows(rows)
        assert det_bareiss(m) == det_cofactor(m)


def test_kappa_matrix_tree_basics():
    assert kappa_matrix_tree(complete_graph(4)) == 16
    assert kappa_matrix_tree(path_graph(3)) == 1
    assert kappa_matrix_tree(complete_graph(1)) == 1
    # disconnected graphs report 0, not an error
    assert kappa_matrix_tree(SimpleGraph(3)) == 0
    assert kappa_matrix_tree(SimpleGraph(4, [(0, 1), (2, 3)])) == 0


def unsplit_cofactor(g: SimpleGraph) -> int:
    """Reference count: one Bareiss determinant of the whole Laplacian with
    vertex 0's row and column deleted."""
    rows = [[-(j in g.adj[i]) for j in range(1, g.n)] for i in range(1, g.n)]
    for i in range(1, g.n):
        rows[i - 1][i - 1] = g.degree(i)
    return det_bareiss(IntMatrix.from_rows(rows))


def test_split_cofactor_equals_the_unsplit_vertex_0_cofactor():
    rng = random.Random(2024)
    seen = {"disconnected": 0, "isolated": 0, "n=1": 0, "n=2": 0, "root not 0": 0}
    for _ in range(400):
        n = rng.randint(1, 12)
        p = rng.choice((0.1, 0.3, 0.5, 0.8))
        g = SimpleGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        assert kappa_matrix_tree(g) == unsplit_cofactor(g)
        degrees = [g.degree(v) for v in range(n)]
        seen["disconnected"] += not g.is_connected()
        seen["isolated"] += n > 1 and 0 in degrees
        seen["n=1"] += n == 1
        seen["n=2"] += n == 2
        seen["root not 0"] += degrees[0] < max(degrees)
    assert min(seen.values()) >= 10, seen


def test_universal_set_reduction_equals_the_unsplit_cofactor():
    from powertrees.graphs import join, universal_vertices

    rng = random.Random(1806_02122)
    seen = {"m >= 2": 0, "complete": 0, "H disconnected": 0, "m = 0": 0}
    for _ in range(400):
        m = rng.randint(0, 4)
        h = random_graph(rng, rng.randint(0 if m else 1, 7))
        g = join(complete_graph(m), h) if m else h
        # relabel, so the universal vertices are not always the first ones
        perm = rng.sample(range(g.n), g.n)
        g = SimpleGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert kappa_matrix_tree(g) == unsplit_cofactor(g)
        universal = len(universal_vertices(g))
        seen["m >= 2"] += universal >= 2
        seen["complete"] += universal == g.n
        seen["H disconnected"] += h.n > 0 and not h.is_connected()
        seen["m = 0"] += universal == 0
    assert min(seen.values()) >= 10, seen


def _recorded_block_sizes(monkeypatch) -> list[int]:
    from powertrees import linalg

    sizes = []
    real = linalg._det_psd_upper

    def recording(upper):
        sizes.append(len(upper))
        return real(upper)

    monkeypatch.setattr(linalg, "_det_psd_upper", recording)
    return sizes


def test_cyclic_oracle_skips_the_generators(monkeypatch):
    from powertrees.formulas import kappa_cyclic
    from powertrees.groups import GroupSpec, build_group, power_graph

    sizes = _recorded_block_sizes(monkeypatch)
    g = power_graph(build_group(GroupSpec.parse("cyclic:120")))
    assert kappa_matrix_tree(g) == kappa_cyclic(120).value()
    # the identity and the phi(120) = 32 generators are universal
    assert sum(sizes) == 120 - 33


def test_quaternion_oracle_with_two_universal_vertices():
    from powertrees.formulas import kappa_quaternion
    from powertrees.graphs import universal_vertices
    from powertrees.groups import GroupSpec, build_group, power_graph

    g = power_graph(build_group(GroupSpec.parse("quaternion:4")))
    assert len(universal_vertices(g)) == 2
    assert kappa_matrix_tree(g) == kappa_quaternion(4).value()


def test_psd_upper_equals_bareiss_on_laplacian_blocks():
    rng = random.Random(1806)
    seen = {"0x0": 0, "1x1": 0, "singular": 0, "zero pivot before the last": 0}
    for _ in range(400):
        n = rng.randint(1, 9)
        p = rng.choice((0.15, 0.4, 0.7))
        g = SimpleGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        lap = [[-(j in g.adj[i]) for j in range(n)] for i in range(n)]
        for i in range(n):
            lap[i][i] = g.degree(i)
        keep = sorted(rng.sample(range(n), rng.randint(0, n)))
        block = [[lap[i][j] for j in keep] for i in keep]
        det = det_bareiss(IntMatrix.from_rows(block))
        assert _det_psd_upper([row[i:] for i, row in enumerate(block)]) == det
        seen["0x0"] += not keep
        seen["1x1"] += len(keep) == 1
        # G[keep] holds a whole component of G: the block is singular
        seen["singular"] += len(keep) < n and det == 0
        seen["zero pivot before the last"] += any(
            det_bareiss(IntMatrix.from_rows([row[:k] for row in block[:k]])) == 0
            for k in range(1, len(keep))
        )
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("rows", [[[-1]], [[0, 1], [1, 0]], [[1, 2], [2, 1]]])
def test_psd_upper_rejects_indefinite_input(rows):
    with pytest.raises(InternalConsistencyError):
        _det_psd_upper([row[i:] for i, row in enumerate(rows)])


def test_power_graph_determinants_stay_small(monkeypatch):
    from powertrees.formulas import kappa_psl2
    from powertrees.groups import GroupSpec, build_group, power_graph

    sizes = _recorded_block_sizes(monkeypatch)
    g = power_graph(build_group(GroupSpec.parse("psl2:3:2")))
    assert kappa_matrix_tree(g) == kappa_psl2(3, 2).value()
    # every component peels down to cliques
    assert sizes == []
    g = power_graph(build_group(GroupSpec.parse("psl2:5:2")))
    assert kappa_matrix_tree(g) == kappa_psl2(5, 2).value()
    assert sizes == [7] * 325


def nested_universal_graph(rng, depth: int) -> SimpleGraph:
    """K_u joined to a disjoint union of 1-3 smaller such graphs, or, at
    depth 0 or by chance, a random leaf graph."""
    if depth == 0 or rng.random() < 0.25:
        return random_graph(rng, rng.randint(1, 5))
    u = rng.randint(1, 3)
    edges = [(i, j) for i in range(u) for j in range(i + 1, u)]
    n = u
    for _ in range(rng.randint(1, 3)):
        part = nested_universal_graph(rng, depth - 1)
        edges += [(i, n + v) for i in range(u) for v in range(part.n)]
        edges += [(n + v, n + w) for v, w in part.edges()]
        n += part.n
    perm = rng.sample(range(n), n)
    return SimpleGraph(n, [(perm[v], perm[w]) for v, w in edges])


def peel_levels(g: SimpleGraph) -> list[tuple[str, int, int, int]]:
    """(kind, depth, shift, size) of every set the universal-vertex peel
    visits, walked recursively; a join's size is its number of children."""
    out = []

    def walk(comp, s, depth):
        universal = [v for v in comp if g.degree(v) - s == len(comp) - 1]
        if len(universal) in (0, len(comp)):
            out.append(("leaf" if not universal else "complete", depth, s, len(comp)))
            return
        children = components(g.adj, set(comp).difference(universal))
        out.append(("join", depth, s, len(children)))
        for child in children:
            walk(child, s + len(universal), depth + 1)

    walk(list(range(g.n)), 0, 0)
    return out


def test_nested_peel_equals_the_unsplit_cofactor_and_det_jl():
    rng = random.Random(1806_02122)
    seen = {"depth >= 2": 0, "complete inner": 0, "leaf at shift >= 2": 0, "child level c >= 2": 0}
    for _ in range(300):
        g = nested_universal_graph(rng, rng.randint(1, 3))
        assert kappa_matrix_tree(g) == unsplit_cofactor(g) == kappa_via_jl(g)
        levels = peel_levels(g)
        seen["depth >= 2"] += max(depth for _, depth, _, _ in levels) >= 2
        seen["complete inner"] += any(k == "complete" and d > 0 for k, d, _, _ in levels)
        seen["leaf at shift >= 2"] += any(k == "leaf" and s >= 2 for k, _, s, _ in levels)
        seen["child level c >= 2"] += any(k == "join" and d > 0 and c >= 2 for k, d, _, c in levels)
    assert min(seen.values()) >= 10, seen


def test_frobenius_oracle_takes_no_determinant(monkeypatch):
    from powertrees.formulas import kappa_frobenius_pq
    from powertrees.groups import GroupSpec, build_group, power_graph

    sizes = _recorded_block_sizes(monkeypatch)
    g = power_graph(build_group(GroupSpec.parse("frobenius:2:89")))
    assert kappa_matrix_tree(g) == kappa_frobenius_pq(2, 89).value()
    # the 88 rotations other than the identity are a clique
    assert sizes == []


def test_threshold_graph_peels_without_recursion():
    import math
    import sys

    # odd i is adjacent to every j < i: the peel goes 300 levels deep
    n = 600
    g = SimpleGraph(n, [(j, i) for i in range(1, n, 2) for j in range(i)])
    # Merris: a threshold graph's Laplacian spectrum is its conjugate degrees
    conjugate = [sum(g.degree(v) >= k for v in range(n)) for k in range(1, n)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        kappa = kappa_matrix_tree(g)
    finally:
        sys.setrecursionlimit(limit)
    assert kappa * n == math.prod(conjugate)


def test_kappa_via_jl_examples():
    assert kappa_via_jl(complete_graph(3)) == 3
    # star on 4 vertices (power graph of the Klein four-group) is a tree
    star = SimpleGraph(4, [(0, 1), (0, 2), (0, 3)])
    assert kappa_via_jl(star) == 1


def test_kappa_routes_agree_on_small_graphs():
    rng = random.Random(7)
    trees = 0
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 10))
        if not g.is_connected():
            continue
        k1 = kappa_matrix_tree(g)
        assert k1 == kappa_via_jl(g)
        if g.edge_count == g.n - 1:
            assert k1 == 1
            trees += 1
    assert trees > 0


def evaluate(coeffs, x):
    """A polynomial given constant term first, at x."""
    return sum(c * x**k for k, c in enumerate(coeffs))


def test_char_poly_examples():
    assert laplacian_char_poly(complete_graph(2)) == (0, -2, 1)
    assert laplacian_char_poly(complete_graph(3)) == (0, 9, -6, 1)
    assert laplacian_char_poly(SimpleGraph(3)) == (0, 0, 0, 1)


def test_char_poly_equals_the_determinant_at_every_integer_point():
    rng = random.Random(17)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 9))
        poly = laplacian_char_poly(g)
        for mu in range(g.n + 1):
            rows = [  # mu*I - L
                [mu - g.degree(i) if i == j else int(j in g.adj[i]) for j in range(g.n)]
                for i in range(g.n)
            ]
            assert evaluate(poly, mu) == det_bareiss(IntMatrix.from_rows(rows))


def test_char_poly_integer_coeffs_zero_constant():
    rng = random.Random(99)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7))
        poly = laplacian_char_poly(g)
        assert len(poly) == g.n + 1
        assert poly[0] == 0  # det(-L) = 0 for n>=1
        assert poly[-1] == 1  # monic


def test_shifted_product_examples():
    assert shifted_product_integer_check(complete_graph(2), 1) == 3
    assert shifted_product_integer_check(complete_graph(3), 2) == 25


def test_shifted_product_matches_char_poly_route():
    rng = random.Random(31)
    g = random_graph(rng, 6)
    m = 3
    sigma = laplacian_char_poly(g)
    expected, rem = divmod((-1) ** g.n * evaluate(sigma, -m), m)
    assert rem == 0
    assert shifted_product_integer_check(g, m) == expected


def test_shifted_product_never_inexact():
    rng = random.Random(4242)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 8))
        m = rng.choice([x for x in range(-5, 6) if x != 0])
        shifted_product_integer_check(g, m)  # must not raise


def test_shifted_product_rejects_zero_shift():
    with pytest.raises(ValueError):
        shifted_product_integer_check(complete_graph(2), 0)


def fraction_rank(rows):
    """Reference rank: Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        pivot = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for r in range(rank + 1, len(a)):
            f = a[r][c] / a[rank][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def test_rank_matches_fraction_elimination(bareiss_rank):
    rng = random.Random(2024)
    shapes = deficient = zero_cols = 0
    for _ in range(300):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        data = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.3:  # zero columns
            for c in rng.sample(range(cols), rng.randint(1, cols)):
                for row in data:
                    row[c] = 0
        if rows > 1 and rng.random() < 0.4:  # a row that combines two others
            k = rng.randrange(rows)
            i, j = rng.choices([r for r in range(rows) if r != k], k=2)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            data[k] = [s * x + t * y for x, y in zip(data[i], data[j])]
        expected = fraction_rank(data)
        assert bareiss_rank(data) == expected
        shapes += rows != cols
        deficient += expected < min(rows, cols)
        zero_cols += any(not any(col) for col in zip(*data))
    assert shapes and deficient and zero_cols
    assert bareiss_rank([]) == 0
    assert bareiss_rank([[0] * 3] * 2) == 0


def test_laplacian_nullity_is_eigenvalue_multiplicity(laplacian_nullity):
    # K(4) has spectrum {4^3, 0}; the path on 3 vertices {3, 1, 0}
    assert [laplacian_nullity(complete_graph(4), mu) for mu in range(6)] == [1, 0, 0, 0, 3, 0]
    assert [laplacian_nullity(path_graph(3), mu) for mu in range(5)] == [1, 1, 0, 1, 0]
    assert laplacian_nullity(SimpleGraph(3), 0) == 3


def test_universal_vertex_divisibility():
    # a graph with m < n universal vertices has kappa divisible by n^(m-1);
    # kappa_matrix_tree has the factor by construction, so count by det(J+L)
    rng = random.Random(555)
    from powertrees.graphs import join, universal_vertices

    hits = 0
    for _ in range(100):
        core = random_graph(rng, rng.randint(1, 5))
        g = join(complete_graph(rng.randint(1, 2)), core)
        m = len(universal_vertices(g))
        if not 1 <= m < g.n:
            continue
        hits += 1
        assert kappa_via_jl(g) % g.n ** (m - 1) == 0
    assert hits > 50
