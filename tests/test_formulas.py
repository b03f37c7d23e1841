import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from powertrees import formulas as F
from powertrees.audits import kappa_clique_replaced_path
from powertrees.graphs import (
    CliqueReplacedSpec,
    SimpleGraph,
    clique_replaced,
    co_components,
    complete_graph,
    components,
    path_graph,
    twin_quotient,
    universal_vertices,
)
from powertrees.groups import (
    GroupConstructionError,
    GroupSpec,
    build_group,
    clique_spec,
    family_expr,
    power_graph,
)
from powertrees.linalg import IntMatrix, InternalConsistencyError, det_bareiss, kappa_matrix_tree
from powertrees.numth import FactoredNat, product
from powertrees.verify import connected_labeled_graphs


def det_kappa(text):
    return kappa_matrix_tree(power_graph(build_group(GroupSpec.parse(text))))


def test_kappa_cayley():
    assert F.kappa_cayley(4).value() == 16
    assert F.kappa_cayley(2) == FactoredNat.one()
    assert F.kappa_cayley(1) == FactoredNat.one()
    assert F.kappa_cayley(7) == FactoredNat.prime_power(7, 5)
    assert F.kappa_cayley(7).value() == 16807
    with pytest.raises(ValueError):
        F.kappa_cayley(0)


def test_kappa_quaternion():
    assert F.kappa_quaternion(3) == FactoredNat.prime_power(2, 11)
    assert F.kappa_quaternion(4) == FactoredNat.prime_power(2, 31)
    assert F.kappa_quaternion(5) == FactoredNat.prime_power(2, 81)


def test_kappa_quaternion_matches_determinant():
    for n in (3, 4, 5):
        assert F.kappa_quaternion(n).value() == det_kappa(f"quaternion:{n}")


def test_kappa_epo():
    assert F.kappa_epo({3: 4}) == FactoredNat.prime_power(3, 4)
    assert F.kappa_epo({2: 3, 3: 1}).value() == 3 == det_kappa("frobenius:2:3")
    for k in (1, 5, 50):
        assert F.kappa_epo({2: k}) == FactoredNat.one()
    with pytest.raises(ValueError):
        F.kappa_epo({4: 1})
    with pytest.raises(ValueError):
        F.kappa_epo({3: 0})


def test_kappa_epo_catalog_against_determinant():
    for text in ("elementary:2:2", "elementary:3:2", "elementary:2:3",
                 "heisenberg:3", "frobenius:3:7", "psl2:2:2"):
        group = build_group(GroupSpec.parse(text))
        counts = Counter(len(c) for c in set(group.cyclic_subgroups) if len(c) > 1)
        assert F.kappa_epo(counts).value() == det_kappa(text)


def test_clique_replaced_formula_complete_base():
    for t, x in ((2, 1), (2, 3), (3, 2), (4, 1)):
        spec = CliqueReplacedSpec(complete_graph(t), (x,) * t)
        assert F.kappa_clique_replaced_formula(spec).value() == (t * x) ** (t * x - 2)


def test_clique_replaced_formula_divisor_graph_of_6():
    spec = F.divisor_clique_spec(6)
    assert spec.sizes == (2, 2, 1, 1)
    value = F.kappa_clique_replaced_formula(spec)
    assert value.value() == 540
    assert value == FactoredNat(((2, 2), (3, 3), (5, 1)))
    assert kappa_matrix_tree(power_graph(build_group(GroupSpec.parse("cyclic:6")))) == 540


def test_clique_replaced_formula_single_edge():
    spec = CliqueReplacedSpec(path_graph(2), (1, 1))
    assert F.kappa_clique_replaced_formula(spec).value() == 1


def smatrix_minor_sum(monkeypatch, spec, convention):
    """The one determinant kappa_clique_replaced_smatrix hands factored_ratio."""
    handed = []
    monkeypatch.setattr(F, "factored_ratio", lambda powers, dets, n: handed.append(dets))
    F.kappa_clique_replaced_smatrix(spec, convention)
    [(det, count)] = handed[0].items()
    assert count == 1
    return det


def test_smatrix_entries_and_minors(monkeypatch):
    # two blocks of sizes (2, 3): the arc convention weighs the head block
    spec = CliqueReplacedSpec(complete_graph(2), (2, 3))
    assert F.smatrix(spec, "arcs") == [[3, -3], [-2, 2]]
    assert F.smatrix(spec, "table") == [[3, -3], [-3, 3]]
    assert smatrix_minor_sum(monkeypatch, spec, "arcs") == 5
    assert smatrix_minor_sum(monkeypatch, spec, "table") == 6
    with pytest.raises(ValueError):
        F.smatrix(spec, "nonsense")


def test_kappa_smatrix_examples():
    assert F.kappa_clique_replaced_smatrix(
        CliqueReplacedSpec(path_graph(3), (1, 1, 1))
    ).value() == 1 == kappa_matrix_tree(path_graph(3))
    assert F.kappa_clique_replaced_smatrix(
        CliqueReplacedSpec(complete_graph(2), (2, 3))
    ).value() == 125 == kappa_matrix_tree(complete_graph(5))
    assert F.kappa_clique_replaced_smatrix(
        CliqueReplacedSpec(complete_graph(3), (1, 1, 1))
    ).value() == 3


def test_smatrix_table_convention_disagrees_on_asymmetric_sizes():
    # recorded counterexample: the -x_max entry table gives 150 where the
    # expansion of two blocks (2, 3) is the complete graph on 5 vertices
    spec = CliqueReplacedSpec(complete_graph(2), (2, 3))
    assert F.kappa_clique_replaced_smatrix(spec, "table").value() == 150
    assert kappa_matrix_tree(clique_replaced(spec)) == 125


def test_smatrix_divisor_graph_of_6(monkeypatch):
    spec = F.divisor_clique_spec(6)
    assert F.kappa_clique_replaced_smatrix(spec).value() == 540
    assert smatrix_minor_sum(monkeypatch, spec, "arcs") == 108


def test_smatrix_minor_sum_equals_the_explicit_minor_sum(monkeypatch):
    from types import SimpleNamespace

    rng = random.Random(1806)
    disconnected = 0
    for _ in range(300):
        k = rng.randint(1, 7)
        p = rng.choice((0.2, 0.5, 0.9))
        base = SimpleGraph(k, [(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < p])
        # a stand-in spec: CliqueReplacedSpec rejects a disconnected base
        spec = SimpleNamespace(base=base, sizes=tuple(rng.randint(1, 5) for _ in range(k)), k=k)
        spec.n, spec.m = sum(spec.sizes), CliqueReplacedSpec.m.fget(spec)
        disconnected += not base.is_connected()
        for convention in ("arcs", "table"):
            rows = F.smatrix(spec, convention)
            minors = sum(
                det_bareiss(IntMatrix.from_rows(
                    [[rows[a][b] for b in range(k) if b != j] for a in range(k) if a != j]
                ))
                for j in range(k)
            )
            assert smatrix_minor_sum(monkeypatch, spec, convention) == minors
    assert disconnected >= 30


def test_equivalence_triangle_sampled():
    rng = random.Random(2024)
    for k in range(2, 6):
        bases = connected_labeled_graphs(k)
        for base in rng.sample(bases, min(6, len(bases))):
            sizes = tuple(rng.randint(1, 4) for _ in range(k))
            spec = CliqueReplacedSpec(base, sizes)
            oracle = kappa_matrix_tree(clique_replaced(spec))
            assert F.kappa_clique_replaced_formula(spec).value() == oracle
            assert F.kappa_clique_replaced_smatrix(spec).value() == oracle


def complement(g):
    edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if v not in g.adj[u]]
    return SimpleGraph(g.n, edges)


def literal_clique_replaced_value(spec):
    """The paper's form evaluated as written, in fractions:
    prod m_i**x_i * (Psi + sum_S det(A_comp[S]) * prod_{i not in S} lambda_i)
    / (Psi * n^2), with S over the vertex subsets of size >= 2."""
    k, sizes, m = spec.k, spec.sizes, spec.m
    lam = [Fraction(m[i], sizes[i]) for i in range(k)]
    comp = complement(spec.base)
    psi = prod(lam)
    total = psi
    for r in range(2, k + 1):
        for subset in combinations(range(k), r):
            rows = [[int(j in comp.adj[i]) for j in subset] for i in subset]
            rest = prod(lam[i] for i in range(k) if i not in subset)
            total += det_bareiss(IntMatrix.from_rows(rows)) * rest
    value = prod(Fraction(m[i]) ** sizes[i] for i in range(k)) * total / (psi * spec.n**2)
    assert value.denominator == 1
    return int(value)


def test_one_determinant_equals_the_literal_subset_sum():
    rng = random.Random(41)
    for k in range(1, 6):
        for base in connected_labeled_graphs(k):
            spec = CliqueReplacedSpec(base, tuple(rng.randint(1, 5) for _ in range(k)))
            value = F.kappa_clique_replaced_formula(spec).value()
            assert value == literal_clique_replaced_value(spec)


def test_clique_replaced_formula_is_one_determinant(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m.rows)
        return det_bareiss(m)

    monkeypatch.setattr(F, "det_bareiss", counting)
    spec = CliqueReplacedSpec(path_graph(13), tuple(range(1, 14)))
    F.kappa_clique_replaced_formula(spec)
    assert calls == [13]


def random_connected_graph(rng, k):
    """A random spanning tree plus each other pair with probability 0.3."""
    edges = {(rng.randrange(i), i) for i in range(1, k)}
    edges |= {(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < 0.3}
    return SimpleGraph(k, edges)


def test_formula_matches_smatrix_beyond_subset_reach():
    for n in (420, 2310):
        assert F.kappa_cyclic(n) == F.kappa_clique_replaced_smatrix(F.divisor_clique_spec(n))
    rng = random.Random(12)
    for k in range(12, 21):
        base = random_connected_graph(rng, k)
        spec = CliqueReplacedSpec(base, tuple(rng.randint(1, 6) for _ in range(k)))
        formula = F.kappa_clique_replaced_formula(spec)
        assert formula.value() == F.kappa_clique_replaced_smatrix(spec).value()


def test_quotient_matches_the_oracle_on_random_graphs():
    rng = random.Random(31)
    seen = {"n=1": 0, "disconnected": 0, "no universal vertex": 0}
    for _ in range(3000):
        n = rng.randint(1, 10)
        prob = rng.random()
        g = SimpleGraph(n, [(i, j) for i, j in combinations(range(n), 2) if rng.random() < prob])
        spec = twin_quotient(g)
        connected = g.is_connected()
        assert (spec is not None) == connected
        seen["n=1"] += n == 1
        seen["disconnected"] += not connected
        seen["no universal vertex"] += connected and not universal_vertices(g)
        # the route answers 0 for a disconnected graph, which has no spec
        value = F.kappa_quotient(spec).value() if spec else 0
        assert value == kappa_matrix_tree(g), list(g.edges())
    assert min(seen.values()) >= 100, seen


def test_twin_quotient_searches_the_base_components_once(monkeypatch):
    from powertrees import graphs

    calls = []

    def counting(adj, rest):
        calls.append(len(rest))
        return components(adj, rest)

    monkeypatch.setattr(graphs, "components", counting)
    assert twin_quotient(path_graph(5)).sizes == (1, 1, 1, 1, 1)
    assert calls == [5]
    # two disjoint edges: two twin blocks, no edge between them
    assert twin_quotient(SimpleGraph(4, [(0, 1), (2, 3)])) is None
    assert twin_quotient(SimpleGraph(0, [])) is None


def test_twin_quotient_blocks_are_closed_twins():
    # K(2) joined to the union of K(1) and K(2): blocks {0, 1}, {2}, {3, 4},
    # numbered by their first vertex
    g = SimpleGraph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (3, 4)])
    spec = twin_quotient(g)
    assert spec.sizes == (2, 1, 2)
    assert sorted(spec.base.edges()) == [(0, 1), (0, 2)]
    assert clique_replaced(spec).edge_count == g.edge_count
    assert F.kappa_quotient(spec).value() == kappa_matrix_tree(g)


def test_quotient_value_takes_one_determinant_per_component(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m.rows)
        return det_bareiss(m)

    monkeypatch.setattr(F, "det_bareiss", counting)
    # dihedral(6): the identity is the universal block; without it, the
    # rotation classes of orders 6, 3 and 2 form one component and each of
    # the 6 reflections is its own.  Every node of that base is one block or
    # a join, so no determinant is taken
    g = power_graph(build_group(GroupSpec.parse("dihedral:6")))
    spec = twin_quotient(g)
    assert spec.k == 10
    assert F.kappa_quotient(spec).value() == kappa_matrix_tree(g) == 540
    assert calls == []
    # a universal block joined to three paths on four blocks (P_4, the
    # smallest prime graph), two of them with equal sizes: one 4 x 4
    # determinant per distinct component
    edges = [(0, v) for v in range(1, 13)]
    edges += [(a + i, a + i + 1) for a in (1, 5, 9) for i in range(3)]
    sizes = (2, 1, 2, 3, 1, 1, 2, 3, 1, 2, 2, 2, 2)
    spec = CliqueReplacedSpec(SimpleGraph(13, edges), sizes)
    assert F.kappa_quotient(spec).value() == kappa_matrix_tree(clique_replaced(spec))
    assert calls == [4, 4]


@pytest.mark.parametrize(
    "text",
    [f"dihedral:{n}" for n in range(3, 41)] + ["frobenius:3:13", "psl2:7:1", "elementary:3:3"],
)
def test_quotient_equals_the_oracle_on_groups_with_equal_components(text):
    # the reflections, the conjugate subgroups and the lines are components
    # that repeat; each distinct matrix is taken once
    g = power_graph(build_group(GroupSpec.parse(text)))
    assert F.kappa_quotient(twin_quotient(g)).value() == kappa_matrix_tree(g)


def test_quotient_tells_apart_components_with_the_same_sizes_and_degrees():
    # a universal block joined to K(3,3) and to the triangular prism: both
    # components are 3-regular on six blocks of the same sizes, so every
    # (x_i, m_i) agrees, but their matrices and determinants differ
    k33 = [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]
    prism = [(7, 8), (8, 9), (7, 9), (10, 11), (11, 12), (10, 12), (7, 10), (8, 11), (9, 12)]
    base = SimpleGraph(13, [(0, v) for v in range(1, 13)] + k33 + prism)
    for sizes in ((1,) * 13, (3,) + (2,) * 12):
        spec = CliqueReplacedSpec(base, sizes)
        assert F.kappa_quotient(spec).value() == kappa_matrix_tree(clique_replaced(spec))


def counting_determinants(monkeypatch):
    sizes, det = [], F._det_int
    monkeypatch.setattr(F, "_det_int", lambda rows: sizes.append(len(rows)) or det(rows))
    return sizes


def test_quotient_matches_the_oracle_on_random_specs(monkeypatch):
    # bases of every density, with up to three universal blocks; a cograph
    # base takes no determinant, any other one at its prime nodes
    dets = counting_determinants(monkeypatch)
    rng = random.Random(1806)
    seen = {"two or more universal": 0, "prime base": 0, "no determinant": 0, "determinants": 0}
    for _ in range(1000):
        k, u, prob = rng.randint(1, 10), rng.choice((0, 0, 0, 1, 2, 3)), rng.random()
        edges = {(rng.randrange(i), i) for i in range(1, k)}
        edges |= {(i, j) for i, j in combinations(range(k), 2) if i < u or rng.random() < prob}
        base = SimpleGraph(k, edges)
        spec = CliqueReplacedSpec(base, tuple(rng.randint(1, 5) for _ in range(k)))
        dets.clear()
        value = F.kappa_quotient(spec).value()
        assert value == kappa_matrix_tree(clique_replaced(spec)), (sorted(edges), spec.sizes)
        seen["two or more universal"] += len(universal_vertices(base)) >= 2
        seen["prime base"] += k > 1 and len(co_components(base.adj, set(range(k)))) == 1
        seen["no determinant"] += not dets
        seen["determinants"] += bool(dets)
    assert min(seen.values()) >= 50, seen


def test_quotient_hands_a_repeated_determinant_over_with_its_multiplicity(monkeypatch):
    # a universal block joined to c = 3 equal paths on four blocks: one 4 x 4
    # determinant, handed to factored_ratio once with multiplicity 3
    dets = counting_determinants(monkeypatch)
    handed, ratio = [], F.factored_ratio

    def recorded(powers, found, n):
        handed.append(dict(found))
        return ratio(powers, found, n)

    monkeypatch.setattr(F, "factored_ratio", recorded)
    edges = [(0, v) for v in range(1, 13)]
    edges += [(a + i, a + i + 1) for a in (1, 5, 9) for i in range(3)]
    spec = CliqueReplacedSpec(SimpleGraph(13, edges), (2,) + (1, 2, 3, 1) * 3)
    kappa = F.kappa_quotient(spec)
    assert dets == [4]
    [found] = handed
    assert list(found.values()) == [3]
    assert kappa.value() == kappa_matrix_tree(clique_replaced(spec))


def test_quotient_takes_no_determinant_on_the_quaternion_specs(monkeypatch):
    # the identity and the central involution are two universal blocks; the
    # rest is a chain of cyclic subgroups and 2^(n-2) blocks of order 4, a
    # cograph, so no determinant is taken (one of 1035 rows at n = 12 when
    # the base was split at one universal block only)
    dets = counting_determinants(monkeypatch)
    for n in range(3, 13):
        spec = clique_spec(build_group(GroupSpec.parse(f"quaternion:{n}")))
        assert F.kappa_quotient(spec) == F.kappa_quaternion(n), n
    assert dets == []


@pytest.mark.parametrize("text, searches, sizes", [("psl2:7:1", 2, []), ("psl2:5:2", 3, [4])])
def test_quotient_takes_a_repeated_component_apart_once(monkeypatch, text, searches, sizes):
    # without the identity, PSL(2, 7) has 21 equal two-block components (a
    # cyclic subgroup of order 4 over its involution) and PSL(2, 25) has 325
    # copies of Z_12 without its identity, whose base is Z_12's generator
    # joined to a path on four blocks: each kind is searched once, and the
    # path's 4 x 4 determinant is taken once
    calls, search = [], F.co_components
    monkeypatch.setattr(F, "co_components", lambda adj, rest: calls.append(len(rest)) or search(adj, rest))
    dets = counting_determinants(monkeypatch)
    spec = clique_spec(build_group(GroupSpec.parse(text)))
    kappa = F.kappa_quotient(spec)
    assert (len(calls), dets) == (searches, sizes)
    assert kappa == F.kappa_psl2(*GroupSpec.parse(text).params)


def test_path_closed_form_audited_values():
    # the published display: for all-ones sizes on a 3-path it yields 3, while
    # the expanded graph is that same path with a single spanning tree
    assert kappa_clique_replaced_path((1, 1, 1)).value() == 3
    assert kappa_matrix_tree(path_graph(3)) == 1
    # sizes (1,2,1): display gives 32, the 4-vertex expansion has 8 trees
    assert kappa_clique_replaced_path((1, 2, 1)).value() == 32
    oracle = kappa_matrix_tree(clique_replaced(CliqueReplacedSpec(path_graph(3), (1, 2, 1))))
    assert oracle == 8
    with pytest.raises(ValueError):
        kappa_clique_replaced_path((2, 2))
    # two blocks fall back to the complete-graph count
    assert F.kappa_cayley(4).value() == 16 == kappa_matrix_tree(
        clique_replaced(CliqueReplacedSpec(path_graph(2), (2, 2)))
    )


def test_path_closed_form_overshoots_by_vertex_count():
    rng = random.Random(3)
    for k in (3, 4, 5):
        sizes = tuple(rng.randint(1, 4) for _ in range(k))
        formula = kappa_clique_replaced_path(sizes).value()
        oracle = kappa_matrix_tree(clique_replaced(CliqueReplacedSpec(path_graph(k), sizes)))
        assert formula == oracle * sum(sizes)


def test_kappa_cyclic_values():
    assert F.kappa_cyclic(1) == FactoredNat.one()
    assert F.kappa_cyclic(8) == FactoredNat.prime_power(2, 18)
    assert F.kappa_cyclic(8).value() == 8**6
    assert F.kappa_cyclic(6).value() == 540
    with pytest.raises(ValueError):
        F.kappa_cyclic(0)


def test_kappa_cyclic_matches_determinant_sampled():
    for n in (2, 6, 10, 12, 18, 20, 30, 45):
        assert F.kappa_cyclic(n).value() == det_kappa(f"cyclic:{n}")


def test_kappa_psl2_paper_constants():
    assert F.kappa_psl2(2, 2) == FactoredNat(((3, 10), (5, 18)))
    assert F.kappa_psl2(7, 1) == FactoredNat(((2, 84), (3, 28), (7, 40)))
    assert F.kappa_psl2(3, 2) == FactoredNat(((2, 180), (3, 40), (5, 108)))
    # the two constructions of the order-60 simple group agree
    assert F.kappa_psl2(5, 1) == F.kappa_psl2(2, 2)


def test_kappa_psl2_excluded_parameters():
    # the registry row is the one statement of the range the closed form assumes
    for p, n in ((2, 1), (3, 1)):
        with pytest.raises(GroupConstructionError, match="q = p\\^n >= 4"):
            GroupSpec("psl2", (p, n))
    with pytest.raises(GroupConstructionError, match="must be prime"):
        GroupSpec("psl2", (4, 1))


def test_kappa_heisenberg():
    assert F.kappa_heisenberg(3) == FactoredNat.prime_power(3, 13)
    assert F.kappa_heisenberg(5) == FactoredNat.prime_power(5, 93)
    assert F.kappa_heisenberg(3).value() == det_kappa("heisenberg:3")


def test_extraspecial_verdict_p3():
    # the published clique form counts 3^49, which matches neither published
    # exponent (46, 47); the determinant oracle on the constructed group gives
    # 3^37 * 7^2, so the published form misses the actual graph
    from powertrees.spectra import kappa_from_spectrum, spectrum

    value = kappa_from_spectrum(spectrum(family_expr(GroupSpec.parse("extraspecial:3"))))
    assert value == FactoredNat.prime_power(3, 49)
    for exponent in (46, 47):
        assert value != FactoredNat.prime_power(3, exponent)
    det = det_kappa("extraspecial:3")
    assert det == 3**37 * 7**2
    assert det not in (3**46, 3**47, value.value())


def test_extraspecial_structural_value_general_p():
    # the spectral count of the published clique form K(p) * (p+1)#K(p^2-p)
    # is p^(2p^3-5) for any odd prime, which matches neither published
    # exponent, 2p^3-p-5 or 2p^3-p-4
    from powertrees.spectra import kappa_from_spectrum, spectrum

    for p in (3, 5, 7):
        value = kappa_from_spectrum(spectrum(family_expr(GroupSpec.parse(f"extraspecial:{p}"))))
        assert value == FactoredNat.prime_power(p, 2 * p**3 - 5)
        for exponent in (2 * p**3 - p - 5, 2 * p**3 - p - 4):
            assert value != FactoredNat.prime_power(p, exponent)


def test_extraspecial_true_power_graph_kappa():
    # the constructed group decomposes as identity joined to [the center-side
    # block plus p isolated small cliques]; its count for p=3, frozen from the
    # determinant oracle, factors as 7^2 * 3^37
    from powertrees.spectra import kappa_from_spectrum, parse_expr, spectrum

    true_form = parse_expr("K(1)*((K(2)*3#K(6))+3#K(2))")
    assert kappa_from_spectrum(spectrum(true_form)).value() == det_kappa("extraspecial:3")


def test_kappa_frobenius_general_form():
    # order 6: kernel of order 3 contributes 3, complement of order 2
    # contributes 1 per kernel element
    assert F.kappa_frobenius(F.kappa_cyclic(3), F.kappa_cyclic(2), 3).value() == 3
    assert F.kappa_frobenius(
        F.kappa_cyclic(7), F.kappa_cyclic(3), 7
    ) == F.kappa_frobenius_pq(3, 7)
    with pytest.raises(ValueError):
        F.kappa_frobenius(F.kappa_cyclic(3), F.kappa_cyclic(2), 0)


def test_kappa_frobenius_pq_values():
    assert F.kappa_frobenius_pq(2, 3).value() == 3
    assert F.kappa_frobenius_pq(3, 7) == FactoredNat(((3, 7), (7, 5)))
    assert F.kappa_frobenius_pq(5, 11) == FactoredNat(((5, 33), (11, 9)))


def test_kappa_frobenius_pq_matches_determinant():
    for p, q in ((2, 3), (3, 7), (5, 11)):
        assert F.kappa_frobenius_pq(p, q).value() == det_kappa(f"frobenius:{p}:{q}")


def test_ti_cover_product():
    # a cover by pairwise trivially-intersecting subgroups multiplies their counts
    assert product([FactoredNat.prime_power(3, 10)]) == FactoredNat.prime_power(3, 10)
    assert product([FactoredNat.prime_power(7, 1)] * 4) == FactoredNat.prime_power(7, 4)
    assembled = product(
        [F.kappa_epo({2: 3}) ** 5, F.kappa_cyclic(3) ** 10, F.kappa_cyclic(5) ** 6]
    )
    assert assembled == FactoredNat(((3, 10), (5, 18)))


def test_universal_divisibility_across_power_graphs():
    # graphs computed in this suite with 1 <= m < n universal vertices have
    # counts divisible by n**(m-1)
    from powertrees.graphs import universal_vertices

    for text in ("cyclic:6", "cyclic:12", "quaternion:3", "quaternion:4",
                 "frobenius:3:7", "heisenberg:3", "extraspecial:3"):
        pg = power_graph(build_group(GroupSpec.parse(text)))
        m = len(universal_vertices(pg))
        assert 1 <= m < pg.n
        assert kappa_matrix_tree(pg) % pg.n ** (m - 1) == 0


def test_factored_from_parts_equals_trial_division_of_the_value():
    for n in range(1, 501):
        value = F.kappa_clique_replaced_formula(F.divisor_clique_spec(n)).value()
        assert F.kappa_cyclic(n) == FactoredNat.from_int(value, max(n, 1000)), n
    rng = random.Random(1806)
    with_universal = 0
    for _ in range(300):
        k = rng.randint(1, 8)
        base = random_connected_graph(rng, k)
        spec = CliqueReplacedSpec(base, tuple(rng.randint(1, 40) for _ in range(k)))
        with_universal += any(len(nb) == k - 1 for nb in base.adj)
        value = F.kappa_clique_replaced_formula(spec).value()
        assert F.kappa_clique_replaced_formula(spec) == FactoredNat.from_int(
            value, max(spec.n, 1000)), spec
    assert 0 < with_universal < 300


def test_factored_from_parts_checks_the_division(monkeypatch):
    spec = CliqueReplacedSpec(path_graph(3), (1, 1, 1))
    assert F.kappa_clique_replaced_formula(spec) == FactoredNat.one()
    # det M = 9 cancels the n^2 = 9 of the denominator; a det of 1 leaves
    # n^2 divided twice, and 3 with exponent -2
    for det, error in ((1, "negative exponents"), (0, "non-positive"), (-9, "non-positive")):
        monkeypatch.setattr(F, "_det_int", lambda rows, det=det: det)
        with pytest.raises(InternalConsistencyError, match=error):
            F.kappa_clique_replaced_formula(spec)


@pytest.mark.parametrize("route", [F.kappa_quotient, F.kappa_clique_replaced_smatrix])
def test_structured_routes_check_their_division(monkeypatch, route):
    # the path of blocks 2, 1, 1, 2 is two triangles joined by an edge: 9
    # trees, 3^2 * 2 / 2 on the quotient route and 3^2 * 6 / 6 on the
    # contraction-matrix route; a determinant of 1 leaves 2^-1 or 6^-1.  The
    # quotient route takes a determinant only at a prime node, and P_4 is one
    spec = CliqueReplacedSpec(path_graph(4), (2, 1, 1, 2))
    assert route(spec) == FactoredNat.prime_power(3, 2)
    for det, error in ((1, "negative exponents"), (0, "non-positive"), (-9, "non-positive")):
        monkeypatch.setattr(F, "_det_int", lambda rows, det=det: det)
        with pytest.raises(InternalConsistencyError, match=error):
            route(spec)


def test_quotient_certifies_each_component_cofactor():
    # two component determinants leave the primes 1123 and 1201; trial
    # division of the whole kappa up to max(61, 1000) leaves their product
    edges = [(0, i) for i in range(1, 11)]
    edges += [(1, 3), (1, 5), (2, 4), (2, 5), (4, 5), (6, 7), (6, 8), (7, 9), (8, 9), (9, 10)]
    spec = CliqueReplacedSpec(SimpleGraph(11, edges), (4, 2, 4, 5, 3, 9, 1, 8, 9, 8, 8))
    assert spec.n == 61
    kappa = F.kappa_quotient(spec)
    assert str(kappa) == "2^50 * 3^7 * 5^14 * 7^7 * 11^20 * 13 * 37^7 * 61^3 * 1123 * 1201"
    whole = FactoredNat.from_int(kappa.value(), 1000)
    assert whole.residual == 1348723 == 1123 * 1201
    assert F.kappa_clique_replaced_formula(spec) == whole


def test_quotient_route_factors_the_cyclic_form():
    for n in range(1, 501):
        assert F.kappa_quotient(F.divisor_clique_spec(n)) == F.kappa_cyclic(n), n


def test_formula_takes_one_determinant_over_the_non_universal_vertices(monkeypatch):
    sizes = []
    det = F._det_int
    monkeypatch.setattr(F, "_det_int", lambda rows: sizes.append(len(rows)) or det(rows))
    # n = 30 has 8 divisors; 1 and 30 are universal in the divisor graph
    assert F.kappa_cyclic(30).value() == det_kappa("cyclic:30")
    assert sizes == [6]
    # vertex 0 alone is universal in this base: one (k-1) x (k-1) determinant
    sizes.clear()
    spec = CliqueReplacedSpec(SimpleGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2)]), (2, 1, 3, 2))
    assert F.kappa_clique_replaced_formula(spec).value() == kappa_matrix_tree(clique_replaced(spec))
    assert sizes == [3]
