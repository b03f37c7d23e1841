import random
import time

import pytest

from powertrees.graphs import (
    CliqueReplacedSpec,
    SimpleGraph,
    clique_replaced,
    co_components,
    complete_graph,
    components,
    divisor_graph,
    from_edge_list_text,
    join,
    path_graph,
    to_dot,
    to_edge_list_text,
    twin_quotient,
    universal_vertices,
)
from powertrees.formulas import kappa_quotient
from powertrees.groups import GroupSpec, build_group, power_graph
from powertrees.linalg import kappa_matrix_tree
from powertrees.numth import divisors_desc, euler_phi
from powertrees.spectra import expr_to_graph, graph_expr, parse_expr
from powertrees.verify import connected_labeled_graphs


def random_graph(rng, n):
    return SimpleGraph(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    )


def bfs_components(g, subset):
    """Components of the subgraph induced on subset, by a plain BFS."""
    out, seen = set(), set()
    for s in sorted(subset):
        if s in seen:
            continue
        seen.add(s)
        comp, queue = {s}, [s]
        for u in queue:
            for w in sorted(g.adj[u]):
                if w in subset and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        out.add(frozenset(comp))
    return out


def test_components_match_a_bfs_on_random_subsets():
    rng = random.Random(20)
    seen = {"empty": 0, "singleton": 0, "disconnected": 0}
    for _ in range(300):
        n = rng.randint(1, 12)
        p = rng.random()
        g = SimpleGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        for _ in range(3):
            subset = frozenset(rng.sample(range(n), rng.randint(0, n)))
            rest = set(subset)
            comps = components(g.adj, rest)
            assert rest == set()
            # a partition of the subset into nonempty pieces
            assert all(comps) and sorted(v for c in comps for v in c) == sorted(subset)
            for piece in map(frozenset, comps):
                assert bfs_components(g, piece) == {piece}  # connected on its own
                assert all(g.adj[u] & subset <= piece for u in piece)  # no edge out
            seen["empty"] += not subset
            seen["singleton"] += len(subset) == 1
            seen["disconnected"] += len(comps) >= 2
    assert all(seen.values()), seen


def test_components_of_a_30k_star_in_one_pass():
    # the hub empties rest at once; each of the other visits must not scan
    # the emptied set's old table, which took seconds at this size
    n = 30_000
    g = SimpleGraph(n, closed=[frozenset(range(n))] + [frozenset((0, v)) for v in range(1, n)])
    start = time.perf_counter()
    comps = components(g.closed, set(range(n)))
    assert time.perf_counter() - start < 1.0
    assert len(comps) == 1 and sorted(comps[0]) == list(range(n))


def check_closed_sets(g):
    """closed[v] holds v, the sets are symmetric, equal sets are one object,
    and adj and edge_count agree with them."""
    closed = g.closed
    assert all(v in closed[v] for v in range(g.n))
    assert all(u in closed[v] for u in range(g.n) for v in closed[u])
    assert len(set(map(id, closed))) == len(set(closed))
    assert g.adj == tuple(closed[v] - {v} for v in range(g.n))
    pairs = {frozenset((u, v)) for u in range(g.n) for v in closed[u] if u != v}
    assert g.edge_count == len(pairs) == len(list(g.edges()))


def test_each_builder_shares_one_closed_set_per_block_of_twins():
    for text in ("cyclic:12", "dihedral:6", "quaternion:3", "psl2:2:2"):
        group = build_group(GroupSpec.parse(text))
        g = power_graph(group)
        check_closed_sets(g)
        first = {}  # generators of one cyclic subgroup are twins
        for u, c in enumerate(group.cyclic_subgroups):
            assert g.closed[u] is g.closed[first.setdefault(c, u)], (text, u)
        check_closed_sets(twin_quotient(g).base)
    spec = CliqueReplacedSpec(divisor_graph(12), (1, 2, 2, 2, 1, 1))
    g = clique_replaced(spec)
    check_closed_sets(g)
    assert g.closed[1] is g.closed[2]  # 6's block
    assert g.closed[0] is g.closed[-1]  # 12's block and 1's, both universal
    g = expr_to_graph(parse_expr("K(1)*K(1)*(K(2)+K(3))"))
    check_closed_sets(g)
    assert g.closed[0] is g.closed[1] and g.closed[2] is g.closed[3]
    assert g.closed[4] is g.closed[5] is g.closed[6]
    g = SimpleGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    check_closed_sets(g)
    assert g.closed[1] is g.closed[2]  # closed twins from an edge list


def test_the_count_routes_leave_the_open_sets_underived():
    g = power_graph(build_group(GroupSpec.parse("dihedral:15")))
    kappa = kappa_matrix_tree(g)
    spec = twin_quotient(g)
    assert kappa_quotient(spec).value() == kappa
    assert g._adj is None and spec.base._adj is None


def test_co_components_are_the_components_of_the_complement():
    rng = random.Random(21)
    seen = {"one part": 0, "several parts": 0}
    for _ in range(300):
        n = rng.randint(1, 12)
        p = rng.random()
        g = SimpleGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        complement = [frozenset(range(n)) - g.adj[v] - {v} for v in range(n)]
        subset = set(rng.sample(range(n), rng.randint(1, n)))
        parts = co_components(g.adj, set(subset))
        assert sorted(map(sorted, parts)) == sorted(map(sorted, components(complement, set(subset))))
        seen["one part" if len(parts) == 1 else "several parts"] += 1
    assert min(seen.values()) >= 50, seen


def test_simple_graph_validation():
    with pytest.raises(ValueError):
        SimpleGraph(3, [(0, 0)])  # self loop
    with pytest.raises(ValueError):
        SimpleGraph(2, [(0, 5)])  # out of range
    g = SimpleGraph(3, [(0, 1), (1, 0)])  # parallel edge collapses
    assert g.edge_count == 1


def test_union_and_join():
    assert join(complete_graph(1), complete_graph(1)) == complete_graph(2)
    u = expr_to_graph(parse_expr("K(3)+K(2)"))
    assert (u.n, u.edge_count) == (5, 4)
    assert 3 not in u.adj[0]
    j = join(complete_graph(3), complete_graph(2))
    assert j == complete_graph(5)


def test_join_of_cliques_is_quaternion_power_graph():
    expr = parse_expr("K(2)*(3#K(2))")
    pg = power_graph(build_group(GroupSpec.parse("quaternion:3")))
    assert (pg.n, pg.edge_count) == (8, 16)
    assert graph_expr(pg) == graph_expr(expr_to_graph(expr)) == expr


def test_divisor_graph():
    d6 = divisor_graph(6)
    assert d6.n == 4 and d6.edge_count == 5
    assert d6.labels == ("6", "3", "2", "1")
    assert 2 not in d6.adj[1]  # 3 and 2 do not divide each other
    assert divisor_graph(7) == complete_graph(2)
    d12 = divisor_graph(12)
    assert d12.degree(0) == 5 and d12.degree(d12.n - 1) == 5
    # first and last divisor vertices are universal
    assert {0, d12.n - 1} <= set(universal_vertices(d12))


def test_universal_vertices():
    assert universal_vertices(complete_graph(5)) == [0, 1, 2, 3, 4]
    star = SimpleGraph(4, [(0, 1), (0, 2), (0, 3)])
    assert universal_vertices(star) == [0]


def test_clique_replaced_uniform_complete_base():
    for t, x in ((2, 2), (3, 1), (3, 2)):
        spec = CliqueReplacedSpec(complete_graph(t), (x,) * t)
        assert clique_replaced(spec) == complete_graph(t * x)


def test_clique_replaced_single_edge_base():
    spec = CliqueReplacedSpec(path_graph(2), (1, 1))
    assert clique_replaced(spec) == complete_graph(2)


def test_clique_replaced_degrees():
    rng = random.Random(5)
    for _ in range(25):
        k = rng.randint(1, 5)
        while True:
            base = random_graph(rng, k)
            if base.is_connected():
                break
        sizes = tuple(rng.randint(1, 4) for _ in range(k))
        spec = CliqueReplacedSpec(base, sizes)
        g = clique_replaced(spec)
        assert g.n == sum(sizes)
        offset = 0
        for i in range(k):
            expected = sizes[i] - 1 + sum(sizes[j] for j in base.adj[i])
            for v in range(offset, offset + sizes[i]):
                assert g.degree(v) == expected
            offset += sizes[i]


def test_clique_replaced_matches_cyclic_power_graph():
    # explicit isomorphism: group the elements of the cyclic group by their
    # order, following the decreasing-divisor block layout
    for n in (6, 12, 30):
        group = build_group(GroupSpec(family="cyclic", params=(n,)))
        pg = power_graph(group)
        divs = divisors_desc(n)
        spec = CliqueReplacedSpec(divisor_graph(n), tuple(euler_phi(d) for d in divs))
        expanded = clique_replaced(spec)
        mapping = {}
        new = 0
        for d in divs:
            for g in range(n):
                if len(group.cyclic_subgroups[g]) == d:
                    mapping[g] = new
                    new += 1
        assert new == n
        remapped = SimpleGraph(n, [(mapping[u], mapping[v]) for u, v in pg.edges()])
        assert remapped == expanded


def edge_list_clique_replaced(spec):
    """clique_replaced built from one edge per vertex pair, for comparison."""
    starts = [0]
    for x in spec.sizes:
        starts.append(starts[-1] + x)
    edges = []
    for i in range(spec.k):
        block = range(starts[i], starts[i + 1])
        edges.extend((a, b) for a in block for b in block if a < b)
        for j in spec.base.adj[i]:
            if j > i:
                edges.extend((a, b) for a in block for b in range(starts[j], starts[j + 1]))
    labels = [f"{spec.base.label(i)}.{t}" for i in range(spec.k) for t in range(spec.sizes[i])]
    return SimpleGraph(starts[-1], edges, labels)


def test_clique_replaced_equals_the_edge_list_expansion():
    rng = random.Random(23)
    for k in range(1, 5):
        for base in connected_labeled_graphs(k):
            for _ in range(3):
                spec = CliqueReplacedSpec(base, tuple(rng.randint(1, 4) for _ in range(k)))
                g, expected = clique_replaced(spec), edge_list_clique_replaced(spec)
                assert g == expected, spec
                assert (g.labels, g.edge_count) == (expected.labels, expected.edge_count)


def test_clique_replaced_spec_validation():
    with pytest.raises(ValueError):
        CliqueReplacedSpec(path_graph(3), (1, 1))  # size count mismatch
    with pytest.raises(ValueError):
        CliqueReplacedSpec(path_graph(3), (1, 0, 1))  # non-positive size
    with pytest.raises(ValueError):
        CliqueReplacedSpec(SimpleGraph(2), (1, 1))  # disconnected base


def test_edge_list_roundtrip():
    rng = random.Random(77)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 8))
        assert from_edge_list_text(to_edge_list_text(g)) == g
    with pytest.raises(ValueError):
        from_edge_list_text("3\n2 1\n")  # u < v violated
    with pytest.raises(ValueError):
        from_edge_list_text("")


def test_edge_list_rejects_a_repeated_edge():
    # the text would describe a doubled edge, which has kappa 2 here, not 1
    with pytest.raises(ValueError, match=r"edge \(0,1\) is listed twice"):
        from_edge_list_text("3\n0 1\n1 2\n0 1\n")


def test_dot_export_carries_labels():
    d6 = divisor_graph(6)
    dot = to_dot(d6)
    assert dot.startswith("graph G {")
    assert '[label="6"]' in dot and '[label="1"]' in dot
    assert "0 -- 1;" in dot
