import random

import pytest

from powertrees.graphs import SimpleGraph, complete_graph, path_graph
from powertrees.linalg import (
    DimensionError,
    IntMatrix,
    IntPolynomial,
    det_bareiss,
    det_cofactor,
    kappa_matrix_tree,
    kappa_via_jl,
    laplacian_char_poly,
    shifted_product_integer_check,
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


def test_char_poly_examples():
    assert laplacian_char_poly(complete_graph(2)).coeffs == (0, -2, 1)
    assert laplacian_char_poly(complete_graph(3)).coeffs == (0, 9, -6, 1)
    assert laplacian_char_poly(SimpleGraph(3)).coeffs == (0, 0, 0, 1)


def test_char_poly_integer_coeffs_zero_constant():
    rng = random.Random(99)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7))
        poly = laplacian_char_poly(g)
        assert poly.degree == g.n
        assert poly.coeffs[0] == 0
        assert poly.coeffs[-1] == 1  # monic
        # evaluating at 0 gives det(-L) = 0 for n>=1
        assert poly(0) == 0


def test_shifted_product_examples():
    assert shifted_product_integer_check(complete_graph(2), 1) == 3
    assert shifted_product_integer_check(complete_graph(3), 2) == 25


def test_shifted_product_matches_char_poly_route():
    rng = random.Random(31)
    g = random_graph(rng, 6)
    m = 3
    sigma = laplacian_char_poly(g)
    expected, rem = divmod((-1) ** g.n * sigma(-m), m)
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


def test_int_polynomial_roots():
    # (x-1)^2 (x-3) = x^3 - 5x^2 + 7x - 3
    poly = IntPolynomial((-3, 7, -5, 1))
    roots, rest = poly.integer_roots(range(0, 5))
    assert roots == {1: 2, 3: 1}
    assert rest.coeffs == (1,)
    assert poly(2) == -1


def test_universal_vertex_divisibility():
    # a graph with m < n universal vertices has kappa divisible by n^(m-1)
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
        assert kappa_matrix_tree(g) % g.n ** (m - 1) == 0
    assert hits > 50
