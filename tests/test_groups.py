import random
from collections import Counter
from itertools import product

import pytest

from powertrees import formulas, verify
from powertrees.gf import Gf
from powertrees.formulas import kappa_clique_replaced_formula, kappa_quotient
from powertrees.graphs import (
    SimpleGraph,
    clique_replaced,
    complete_graph,
    twin_quotient,
    universal_vertices,
)
from powertrees.groups import (
    FAMILIES,
    Family,
    GroupConstructionError,
    GroupSpec,
    build_group,
    clique_spec,
    power_graph,
    validate_cayley_table,
)
from powertrees.linalg import kappa_matrix_tree
from powertrees.numth import FactoredNat, euler_phi, is_prime


def build(text):
    return build_group(GroupSpec.parse(text))


def order(g, x):
    return len(g.cyclic_subgroups[x])


# --- finite field sanity ---


def test_gf_smallest_irreducible():
    assert Gf(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1
    assert Gf(3, 2).modulus == (1, 0, 1)  # x^2 + 1
    assert Gf(5, 1).modulus == (0, 1)
    # reducible tails come first in several of these: x^3 + 1 over GF(2),
    # x^3 + 1 and x^3 + x^2 + 1 over GF(3), x^2 + 1 over GF(5)
    assert Gf(2, 3).modulus == (1, 0, 1, 1)
    assert Gf(2, 4).modulus == (1, 0, 0, 1, 1)
    assert Gf(2, 5).modulus == (1, 0, 0, 1, 0, 1)
    assert Gf(3, 3).modulus == (1, 0, 2, 1)
    assert Gf(3, 4).modulus == (1, 0, 1, 1, 1)
    assert Gf(5, 2).modulus == (1, 1, 1)
    assert Gf(5, 3).modulus == (1, 0, 1, 1)
    assert Gf(7, 2).modulus == (1, 0, 1)
    assert Gf(13, 2).modulus == (1, 3, 1)


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (5, 1), (2, 4), (3, 3), (7, 2)])
def test_gf_field_axioms_sampled(p, n):
    f = Gf(p, n)
    q = f.q
    add, mul, neg = f.add_table, f.mul_table, f.neg_table
    # x^n reduces to -tail: x (encoded p, or 0 when n = 1 and the modulus is
    # x) times x^(n-1) (encoded q // p)
    minus_tail = sum((-c) % p * p**i for i, c in enumerate(f.modulus[:-1]))
    assert mul[p % q][q // p] == minus_tail
    rng = random.Random(q)
    for _ in range(200):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
        assert mul[a][b] == mul[b][a]
        assert add[a][neg[a]] == 0
    for a in range(1, q):
        assert mul[a][f.inv(a)] == 1
        x, order = a, 1
        while x != 1:
            x, order = mul[x][a], order + 1
        assert (q - 1) % order == 0  # Lagrange


# --- family constructions ---


ADVERTISED = [
    ("cyclic:12", 12),
    ("elementary:3:2", 9),
    ("dihedral:4", 8),
    ("quaternion:3", 8),
    ("quaternion:4", 16),
    ("heisenberg:3", 27),
    ("extraspecial:3", 27),
    ("psl2:2:2", 60),
    ("psl2:5:1", 60),
    ("psl2:7:1", 168),
    ("frobenius:2:3", 6),
    ("frobenius:3:7", 21),
]


@pytest.mark.parametrize("text,order", ADVERTISED)
def test_advertised_orders(text, order):
    assert build(text).order == order


@pytest.mark.parametrize("p,n", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_psl2_elements_match_the_brute_force(p, n):
    # every matrix of determinant 1, each paired with its negative
    f = Gf(p, n)
    q = f.q
    add, mul, neg = f.add_table, f.mul_table, f.neg_table
    sl2 = [
        (a, b, c, d)
        for a, b, c, d in product(range(q), repeat=4)
        if add[mul[a][d]][neg[mul[b][c]]] == 1
    ]
    assert len(sl2) == q * (q * q - 1)
    expected = {min(m, tuple(neg[x] for x in m)) for m in sl2}
    g = build(f"psl2:{p}:{n}")
    assert set(g.elements) == expected
    assert g.elements[0] == (1, 0, 0, 1)


def test_group_axioms_spot_checks():
    rng = random.Random(0)
    for text in ("cyclic:12", "dihedral:5", "quaternion:4", "heisenberg:3",
                 "extraspecial:3", "frobenius:2:5", "psl2:2:2"):
        g = build(text)
        e = g.identity
        assert e == 0
        n = g.order
        for x in range(n):
            assert g.mul(e, x) == x and g.mul(x, e) == x
            assert any(g.mul(x, y) == e for y in range(n))  # an inverse exists
            assert n % order(g, x) == 0  # Lagrange
            power, powers = e, set()
            for _ in range(n):
                power = g.mul(power, x)
                powers.add(power)
            assert power == e
            assert powers == g.cyclic_subgroups[x]
        for _ in range(200):
            a, b, c = (rng.randrange(n) for _ in range(3))
            assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def test_quaternion_has_unique_involution():
    for n in (3, 4, 5):
        g = build(f"quaternion:{n}")
        assert sum(1 for x in range(g.order) if order(g, x) == 2) == 1


def test_heisenberg_has_exponent_p():
    g = build("heisenberg:3")
    orders = [order(g, x) for x in range(g.order)]
    assert orders.count(3) == 26 and orders.count(1) == 1


def test_extraspecial_exp_p2_order_profile():
    # p^2 - 1 elements of order p, the rest of order p^2
    g = build("extraspecial:3")
    orders = [order(g, x) for x in range(g.order)]
    assert orders.count(1) == 1
    assert orders.count(3) == 8
    assert orders.count(9) == 18


def test_frobenius_is_epo_and_nonabelian():
    for p, q in ((2, 3), (3, 7), (5, 11), (2, 5)):
        g = build(f"frobenius:{p}:{q}")
        assert all(is_prime(order(g, x)) for x in range(1, g.order))
        assert any(
            g.mul(a, b) != g.mul(b, a) for a in range(g.order) for b in range(g.order)
        )


@pytest.mark.parametrize("text,n,a,m,first", [
    ("dihedral:2", 2, -1, 2, ("r0", "r1", "sr0", "sr1")),
    ("dihedral:3", 3, -1, 2, ("r0", "r1", "sr0", "sr1")),
    ("dihedral:6", 6, -1, 2, ("r0", "r1", "sr0", "sr1")),
    ("frobenius:2:5", 5, 4, 2, ("t->1t+0", "t->1t+1", "t->4t+0", "t->4t+1")),
    ("frobenius:3:7", 7, 2, 3, ("t->1t+0", "t->1t+1", "t->2t+0", "t->2t+1")),
    ("extraspecial:3", 9, 4, 3, ("t->1t+0", "t->1t+1", "t->4t+0", "t->4t+1")),
    ("extraspecial:5", 25, 6, 5, ("t->1t+0", "t->1t+1", "t->6t+0", "t->6t+1")),
])
def test_semidirect_products_compose_their_affine_maps(text, n, a, m, first):
    # element (b, i) is t -> a^i*t + b on Z_n with i mod m; a product is the
    # composition of the two maps, evaluated at every t in Z_n
    g = build(text)
    assert g.elements == tuple((b, i) for i in range(m) for b in range(n))
    maps = [tuple((pow(a, i, n) * t + b) % n for t in range(n)) for b, i in g.elements]
    for x, (_, ix) in enumerate(g.elements):
        for y, (_, iy) in enumerate(g.elements):
            xy = g.mul(x, y)
            assert maps[xy] == tuple(maps[x][t] for t in maps[y])
            assert g.elements[xy][1] == (ix + iy) % m
    names = g.element_names
    assert names[:2] + names[n:n + 2] == first
    assert all(names[k] == (f"{'s' * i}r{b}" if a == -1 else f"t->{pow(a, i, n)}t+{b}")
               for k, (b, i) in enumerate(g.elements))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_quaternion_groups_satisfy_their_relations(n):
    # element (b, i) is x^b y^i with b mod 2^(n-1), y x y^-1 = x^-1 and
    # y^2 = x^(2^(n-2)); with associativity these fix every product
    g = build(f"quaternion:{n}")
    half = 2 ** (n - 1)
    assert g.elements == tuple((b, i) for i in (0, 1) for b in range(half))
    x, y = g.elements.index((1, 0)), g.elements.index((0, 1))
    xs = [0]
    for _ in range(half):
        xs.append(g.mul(xs[-1], x))
    assert xs[half] == 0 and 0 not in xs[1:half]
    assert all(g.mul(xs[b], y if i else 0) == k for k, (b, i) in enumerate(g.elements))
    assert g.mul(y, y) == xs[half // 2]
    assert g.mul(y, x) == g.mul(xs[half - 1], y)
    r = range(g.order)
    assert all(g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c)) for a in r for b in r for c in r)
    assert g.element_names == tuple(f"x{b}{'y' * i}" for b, i in g.elements)


def test_spec_validation_errors():
    for bad in (
        "cyclic:0",
        "elementary:4:2",
        "quaternion:2",
        "heisenberg:2",
        "heisenberg:9",
        "extraspecial:2",
        "psl2:2:1",
        "psl2:3:1",
        "psl2:4:1",
        "frobenius:3:5",  # 3 does not divide 4
        "frobenius:5:3",  # p > q
        "nosuch:1",
        "frobenius_pq:2:3",  # a family is named only by its registry key
        "extraspecial_exp_p2:3",
        "cayley_table:x",
    ):
        with pytest.raises(GroupConstructionError):
            GroupSpec.parse(bad)


# per family: its smallest valid specs, and the parameters just outside its
# range with the requirement the rejection names
BOUNDARY = {
    "cyclic": (["cyclic:1"], [((0,), "n = 0 must be an integer >= 1")]),
    "elementary": (["elementary:2:1"], [((4, 1), "p = 4 must be prime")]),
    "dihedral": (["dihedral:2"], [((1,), "n >= 2")]),  # dihedral:2 is the Klein four-group
    "quaternion": (["quaternion:3"], [((2,), "n >= 3")]),
    "heisenberg": (["heisenberg:3"], [((2,), "an odd prime p")]),
    "extraspecial": (["extraspecial:3"], [((2,), "an odd prime p")]),
    "psl2": (["psl2:2:2", "psl2:5:1"], [((3, 1), "q = p^n >= 4, got q = 3")]),
    "frobenius": (["frobenius:2:3"], [((3, 5), "p | q - 1")]),
    "table": ([], [(("",), "PATH = '' must be a file path")]),
}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_each_family_builds_its_smallest_specs_and_rejects_the_next_below(name):
    family = FAMILIES[name]
    valid, invalid = BOUNDARY[name]
    for text in valid:
        spec = GroupSpec.parse(text)
        assert build_group(spec).order == family.counts(*spec.params)[0], text
    for params, requirement in invalid:
        with pytest.raises(GroupConstructionError) as err:
            GroupSpec(name, params)
        message = str(err.value)
        assert message.startswith(family.usage) and requirement in message, message


def test_spec_string_roundtrip():
    # a family has one name: every registry example prints as it parses
    texts = ["psl2:3:2", "table:q8.txt", *verify._examples()]
    assert [str(GroupSpec.parse(t)) for t in texts] == texts
    assert {GroupSpec.parse(t).family for t in texts} == set(FAMILIES)


# --- power graphs ---


def test_power_graph_cyclic_prime_power_is_complete():
    assert power_graph(build("cyclic:8")) == complete_graph(8)
    assert power_graph(build("cyclic:9")) == complete_graph(9)


def test_power_graph_klein_four_is_star():
    pg = power_graph(build("elementary:2:2"))
    assert sorted(pg.degree(v) for v in range(4)) == [1, 1, 1, 3]


def test_power_graph_quaternion8_structure():
    pg = power_graph(build("quaternion:3"))
    assert (pg.n, pg.edge_count) == (8, 16)
    assert len(universal_vertices(pg)) == 2
    assert sorted((pg.degree(v) for v in range(pg.n)), reverse=True) == [7, 7, 3, 3, 3, 3, 3, 3]


def test_power_graph_connected_identity_universal():
    for text in ("cyclic:10", "dihedral:6", "quaternion:4", "heisenberg:3",
                 "extraspecial:3", "frobenius:2:5", "elementary:2:3"):
        g = build(text)
        pg = power_graph(g)
        assert pg.is_connected()
        assert g.identity in universal_vertices(pg)


def test_power_graph_subset_of_frobenius_complement():
    # the point stabilizer inside the order-21 group is cyclic of order 3, and
    # the power graph restricted to it is the complete graph on its elements
    g = build("frobenius:3:7")
    stab = sorted(g.cyclic_subgroups[next(
        x for x in range(g.order) if order(g, x) == 3
    )])
    pg = power_graph(g)
    assert len(stab) == 3
    assert all(v in pg.adj[u] for u in stab for v in stab if u < v)


def test_adjacency_is_order_monotone():
    # adjacent vertices of equal element order generate the same subgroup
    for text in ("cyclic:12", "quaternion:4", "frobenius:3:7", "extraspecial:3"):
        g = build(text)
        pg = power_graph(g)
        for u, v in pg.edges():
            if order(g, u) == order(g, v):
                assert g.cyclic_subgroups[u] == g.cyclic_subgroups[v]


def test_universal_vertex_counts():
    assert len(universal_vertices(power_graph(build("cyclic:6")))) == 1 + euler_phi(6)
    assert len(universal_vertices(power_graph(build("quaternion:4")))) == 2
    assert len(universal_vertices(power_graph(build("cyclic:12")))) == 1 + euler_phi(12)


def test_dihedral_kappa_equals_cyclic_kappa():
    # the dihedral power graph is the cyclic one plus pendant reflections
    for n in (3, 4, 5, 6):
        kd = kappa_matrix_tree(power_graph(build(f"dihedral:{n}")))
        kc = kappa_matrix_tree(power_graph(build(f"cyclic:{n}")))
        assert kd == kc


def _check_clique_spec(g):
    spec, pg = clique_spec(g), power_graph(g)
    # the power graph is the blow-up of the spec under the element -> cyclic
    # subgroup block map (blocks numbered by first element): each block holds
    # its subgroup's generators, and u ~ v iff their blocks are one or adjacent
    block = {}
    member = [block.setdefault(c, len(block)) for c in g.cyclic_subgroups]
    generators = [[] for _ in block]
    for u, b in enumerate(member):
        generators[b].append(u)
    assert list(spec.sizes) == [len(gens) for gens in generators]
    for u, b in enumerate(member):
        closed = {v for c in (b, *spec.base.adj[b]) for v in generators[c]}
        assert pg.adj[u] | {u} == closed, u
    expanded = clique_replaced(spec)
    assert (expanded.n, expanded.edge_count) == (pg.n, pg.edge_count)
    assert len(universal_vertices(expanded)) == len(universal_vertices(pg))
    assert kappa_clique_replaced_formula(spec).value() == kappa_matrix_tree(pg)


@pytest.mark.parametrize("text", [text for text, _ in ADVERTISED])
def test_clique_spec_is_the_power_graph(text):
    _check_clique_spec(build(text))


def test_clique_spec_of_a_table_group(tmp_path):
    path = write_table(tmp_path, cayley_table(build("quaternion:4")))
    _check_clique_spec(build_group(GroupSpec.parse(f"table:{path}")))


def _check_twin_quotient(g):
    pg = power_graph(g)
    spec = twin_quotient(pg)
    assert spec.n == g.order
    assert kappa_quotient(spec).value() == kappa_matrix_tree(pg)


@pytest.mark.parametrize("text", [text for text, _ in ADVERTISED])
def test_twin_quotient_of_the_power_graph(text):
    _check_twin_quotient(build(text))


def test_twin_quotient_of_a_table_group(tmp_path):
    path = write_table(tmp_path, cayley_table(build("dihedral:6")))
    _check_twin_quotient(build_group(GroupSpec.parse(f"table:{path}")))


def _edge_list_power_graph(g):
    return SimpleGraph(
        g.order,
        [(u, v) for u, c in enumerate(g.cyclic_subgroups) for v in c if v != u],
        g.element_names,
    )


def _check_power_graph(g):
    pg, expected = power_graph(g), _edge_list_power_graph(g)
    assert pg == expected
    assert pg.labels == expected.labels
    assert pg.edge_count == expected.edge_count


@pytest.mark.parametrize(
    "text",
    [text for text, _ in ADVERTISED]
    + ["cyclic:1", "cyclic:2", "cyclic:30", "elementary:2:1", "elementary:2:4", "dihedral:2",
       "dihedral:15", "quaternion:5", "heisenberg:5", "extraspecial:5", "psl2:2:3", "psl2:3:2",
       "frobenius:2:5", "frobenius:5:11"],
)
def test_power_graph_equals_the_edge_list_construction(text):
    # one closed neighbourhood per cyclic subgroup against one edge per
    # element of each <u>
    _check_power_graph(build(text))


def test_power_graph_of_a_table_group_equals_the_edge_list_construction(tmp_path):
    path = write_table(tmp_path, cayley_table(build("frobenius:3:7")))
    _check_power_graph(build_group(GroupSpec.parse(f"table:{path}")))


# --- EPO classification ---


def subgroup_counts(g):
    """Cyclic subgroups by order, the identity's left out: in a group whose
    non-identity elements all have prime order, kappa_epo's c_p."""
    return Counter(len(c) for c in set(g.cyclic_subgroups) if len(c) > 1)


def test_epo_counts_elementary():
    assert subgroup_counts(build("elementary:3:2")) == {3: 4}


def test_epo_counts_a5_against_enumeration():
    g = build("psl2:2:2")
    # independent oracle: count elements of each prime order by brute-force
    # powering, then divide by phi(p)
    by_order = {}
    for x in range(1, g.order):
        y, k = x, 1
        while y != 0:
            y = g.mul(y, x)
            k += 1
        by_order[k] = by_order.get(k, 0) + 1
    expected = {p: cnt // (p - 1) for p, cnt in by_order.items()}
    assert expected == {2: 15, 3: 10, 5: 6}
    assert subgroup_counts(g) == expected


def test_epo_counts_s3():
    assert subgroup_counts(build("frobenius:2:3")) == {2: 3, 3: 1}


# --- Cayley table ingestion ---


def write_table(tmp_path, table):
    path = tmp_path / "g.tbl"
    lines = [str(len(table))] + [" ".join(map(str, row)) for row in table]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def cayley_table(g):
    return [[g.mul(a, b) for b in range(g.order)] for a in range(g.order)]


def test_cayley_table_roundtrip(tmp_path):
    src = build("dihedral:3")
    path = write_table(tmp_path, cayley_table(src))
    g = build_group(GroupSpec.parse(f"table:{path}"))
    assert g.order == 6
    assert cayley_table(g) == cayley_table(src)
    assert sorted(map(len, g.cyclic_subgroups)) == sorted(map(len, src.cyclic_subgroups))
    assert kappa_matrix_tree(power_graph(g)) == 3


def test_cayley_table_identity_axiom(tmp_path):
    path = write_table(tmp_path, [[1, 0], [0, 1]])
    with pytest.raises(GroupConstructionError, match="identity"):
        build_group(GroupSpec.parse(f"table:{path}"))


def test_cayley_table_closure_axiom(tmp_path):
    path = write_table(tmp_path, [[0, 1], [1, 7]])
    with pytest.raises(GroupConstructionError, match="closure"):
        build_group(GroupSpec.parse(f"table:{path}"))


def test_cayley_table_inverse_axiom():
    with pytest.raises(GroupConstructionError, match="inverse"):
        validate_cayley_table([[0, 1, 2], [1, 1, 2], [2, 2, 2]])


def test_cayley_table_associativity_axiom():
    # Z5 table with two entries swapped: identity and inverses survive,
    # associativity does not
    table = [[(a + b) % 5 for b in range(5)] for a in range(5)]
    table[1][1], table[1][2] = table[1][2], table[1][1]
    with pytest.raises(GroupConstructionError, match="associativity"):
        validate_cayley_table(table)


def test_large_table_sampled_associativity():
    # above the exhaustive-check bound the validation still accepts real groups
    g = build("cyclic:300")
    validate_cayley_table(cayley_table(g))


# --- the closed forms audited through the registry ---


AUDIT_NAMES = {
    *(f"cyclic-prime-power-n{n:02d}" for n in (4, 8, 9, 16, 25, 27)),
    "extraspecial-2-quaternion8",
    "extraspecial-2-dihedral8",
    "psl2-q04",
    "psl2-q07",
    "psl2-q09",
    "quaternion-order-008",
    "quaternion-order-016",
    "quaternion-order-032",
    "frobenius-2-03",
    "frobenius-3-07",
    "frobenius-5-11",
    "extraspecial-heisenberg-27",
    "extraspecial-27-structural-vs-oracle",
    "elementary-order-025",
    "elementary-order-027",
}


def test_audit_table_covers_every_closed_form():
    rows = [row for group in verify._AUDITS.values() for row in group]
    assert {name for name, _, _ in rows} == AUDIT_NAMES and len(rows) == len(AUDIT_NAMES)
    audited = set()
    for name, text, pinned in rows:
        family = FAMILIES[GroupSpec.parse(text).family]
        assert family.closed_form or family.clique_expr or pinned is not None, name
        audited.add(family.name)
    assert audited >= {f.name for f in FAMILIES.values() if f.closed_form}


def test_extraspecial_audit_row_states_both_values():
    # the one statement of the published form's discrepancy: its clique form
    # against the determinant oracle, both printed
    [row] = verify.cases_audit("extraspecial-oracle")
    assert row.name == "extraspecial-27-structural-vs-oracle" and not row.ok
    assert row.detail == "clique form 3^49, determinant 3^37 * 7^2"


def test_audit_reads_the_closed_form_through_the_registry(monkeypatch):
    monkeypatch.setattr(formulas, "kappa_quaternion", lambda n: FactoredNat.prime_power(2, 12))
    results = verify.cases_audit("quaternion-family") + verify.cases_audit("small-2groups")
    status = {r.name: r.ok for r in results}
    assert not status["quaternion-order-008"]
    assert not status["extraspecial-2-quaternion8"]
    assert status["extraspecial-2-dihedral8"]


# --- family examples: the groups verify sweeps, read from the registry ---

# the hand-written verify lists that the registry's examples replaced
UNIVERSAL_LIST = (
    "cyclic:4", "cyclic:8", "cyclic:9", "cyclic:25", "cyclic:6", "cyclic:12", "cyclic:30",
    "quaternion:3", "quaternion:4", "quaternion:5", "dihedral:3", "dihedral:4", "dihedral:6",
    "elementary:2:2", "elementary:3:2", "elementary:2:3", "heisenberg:3", "extraspecial:3",
    "frobenius:2:3", "frobenius:3:7", "frobenius:5:11", "psl2:2:2", "psl2:5:1", "psl2:7:1",
)
CLIQUE_FORM_LIST = (
    "quaternion:3", "quaternion:4", "quaternion:5", "elementary:2:2", "elementary:2:3",
    "elementary:2:4", "elementary:3:2", "elementary:3:3", "elementary:5:1", "frobenius:2:3",
    "frobenius:2:5", "frobenius:2:7", "frobenius:3:7", "heisenberg:3", "extraspecial:3",
)
QUOTIENT_LIST = (
    *(f"{family}:{n}" for family in ("dihedral", "cyclic") for n in range(3, 9)),
    "quaternion:3", "extraspecial:3", "elementary:2:2", "elementary:2:3", "elementary:3:2",
    "elementary:5:1", "heisenberg:3", "frobenius:2:3", "frobenius:3:7", "psl2:2:2",
)


def specs(texts):
    return {GroupSpec.parse(t) for t in texts}


def test_family_examples_cover_the_former_verify_lists():
    assert specs(verify._examples("counts")) >= specs(UNIVERSAL_LIST)
    assert specs(verify._examples("clique_expr")) >= specs(CLIQUE_FORM_LIST)
    closed = [t for t in CLIQUE_FORM_LIST if not t.startswith("extraspecial")]
    assert specs(verify._examples("clique_expr", "closed_form")) >= specs(closed)
    assert specs(verify._examples()) >= specs(QUOTIENT_LIST)


def test_every_family_example_is_a_valid_small_group():
    for family in FAMILIES.values():
        assert family.examples or family.name == "table", family.name
        for params in family.examples:
            spec = GroupSpec(family.name, params)
            group = build_group(spec)
            assert group.order <= 200, spec
            if family.counts:
                assert family.counts(*params)[0] == group.order, spec


def _totals():
    cases = (verify.cases_quotient_vs_oracle(0) + verify.cases_universal_classification()
             + verify.cases_family_expr_realization())
    assert all(case.ok for case in cases)
    return {case.name: int(case.detail.split("/")[0]) for case in cases}


def test_a_new_family_row_is_swept_by_every_aggregate_case(monkeypatch):
    before = _totals()
    q = FAMILIES["quaternion"]
    copy = Family("quaternion_copy", q.params, q.build, q.needs, closed_form=q.closed_form,
                  clique_expr=q.clique_expr, counts=q.counts, examples=((3,),))
    monkeypatch.setitem(FAMILIES, copy.name, copy)
    after = _totals()
    assert after == {name: total + 1 for name, total in before.items()}
