import itertools
import random
from collections import Counter

import pytest

from powertrees import audits, linalg
from powertrees.formulas import kappa_psl2
from powertrees import verify as V
from powertrees.audits import graph_expr, laplacian_char_poly
from powertrees.graphs import SimpleGraph, components, path_graph, universal_vertices
from powertrees.groups import GroupSpec, build_group, family_expr, power_graph
from powertrees.linalg import InternalConsistencyError, kappa_matrix_tree
from powertrees.numth import FactoredNat
from powertrees.spectra import (
    MAX_COPIES,
    MAX_DEPTH,
    Clique,
    Join,
    Union,
    copies,
    expr_to_graph,
    kappa_from_spectrum,
    parse_expr,
    spectrum,
    union_of,
    universal_count,
)
from powertrees.verify import _random_expr, _random_graph, clique_form_mismatch


def integer_roots(coeffs, candidates):
    """Strip the roots among `candidates` from a polynomial, coefficients
    constant term first, by repeated synthetic division; returns
    ({root: multiplicity}, the remaining coefficients)."""
    coeffs = list(coeffs)
    roots = {}
    for r in candidates:
        while len(coeffs) > 1:
            quotient, acc = [], 0
            for c in reversed(coeffs):
                acc = acc * r + c
                quotient.append(acc)
            if acc:
                break
            coeffs = quotient[-2::-1]
            roots[r] = roots.get(r, 0) + 1
    return roots, coeffs


def spectrum_oracle(expr):
    """Independent route: integer roots of the char poly of the realized graph."""
    g = expr_to_graph(expr)
    roots, rest = integer_roots(laplacian_char_poly(g), range(g.n + 1))
    assert rest == [1]
    return Counter(roots)


def test_spectrum_single_clique():
    assert spectrum(Clique(4)) == Counter({4: 3, 0: 1})
    assert spectrum(Clique(1)) == Counter({0: 1})


def test_spectrum_quaternion8_expression():
    expr = Join(Clique(2), copies(3, Clique(2)))
    spec = spectrum(expr)
    assert spec == Counter({8: 2, 4: 3, 2: 2, 0: 1})
    assert spec == spectrum_oracle(expr)
    assert kappa_from_spectrum(spec) == FactoredNat.prime_power(2, 11)


def test_spectrum_s3_expression():
    expr = Join(Clique(1), Union(copies(3, Clique(1)), Clique(2)))
    spec = spectrum(expr)
    assert sorted(spec.elements(), reverse=True) == [6, 3, 1, 1, 1, 0]
    assert spec == spectrum_oracle(expr)
    assert kappa_from_spectrum(spec).value() == 3
    # matrix-tree on the power graph of the order-6 nonabelian group agrees
    pg = power_graph(build_group(GroupSpec.parse("frobenius:2:3")))
    assert kappa_matrix_tree(pg) == 3


def test_spectrum_invariants():
    rng = random.Random(11)
    for _ in range(60):
        expr = _random_expr(rng, rng.randint(1, 25))
        g = expr_to_graph(expr)
        spec = spectrum(expr)
        assert spec.total() == g.n and 0 not in spec.values()
        assert sum(spec.elements()) == 2 * g.edge_count
        assert spec[0] == len(components(g.adj, set(range(g.n))))
        assert spec == spectrum_oracle(expr)


def test_counts_from_the_expression_match_the_graph():
    rng = random.Random(19)
    for _ in range(2000):
        expr = _random_expr(rng, rng.randint(1, 25))
        g = expr_to_graph(expr)
        assert (expr.n, universal_count(expr)) == (g.n, len(universal_vertices(g)))


def test_join_rule_top_eigenvalue():
    # the join contributes m+n exactly once on top of the shifted sides:
    # mult(m+n) = 1 + mult_left(m) + mult_right(n)
    rng = random.Random(13)
    for _ in range(40):
        left = _random_expr(rng, rng.randint(1, 12))
        right = _random_expr(rng, rng.randint(1, 12))
        total = left.n + right.n
        expected = 1 + spectrum(left)[left.n] + spectrum(right)[right.n]
        spec = spectrum(Join(left, right))
        assert spec[total] == expected
        # a join is connected, so the zero count collapses to one
        assert spec[0] == 1


def test_kappa_from_spectrum_complete_graphs():
    for n in range(2, 10):
        spec = spectrum(Clique(n))
        assert kappa_from_spectrum(spec).value() == n ** (n - 2)


def test_kappa_from_spectrum_disconnected_is_zero():
    spec = spectrum(Union(Clique(2), Clique(3)))
    assert kappa_from_spectrum(spec) == FactoredNat.zero()


def test_kappa_from_spectrum_checks_the_division():
    # the eigenvalue product 3 is not divisible by the vertex count 2
    with pytest.raises(InternalConsistencyError, match="negative exponents"):
        kappa_from_spectrum(Counter({3: 1, 0: 1}))


def test_kappa_from_spectrum_needs_a_zero():
    with pytest.raises(ValueError):
        kappa_from_spectrum(Counter({3: 2}))


def test_kappa_from_spectrum_matches_matrix_tree():
    rng = random.Random(17)
    for _ in range(50):
        expr = _random_expr(rng, rng.randint(1, 25))
        assert kappa_from_spectrum(spectrum(expr)).value() == kappa_matrix_tree(
            expr_to_graph(expr)
        )


# --- cataloged family expressions ---


def test_family_expr_quaternion():
    expr = family_expr(GroupSpec.parse("quaternion:4"))
    assert str(expr) == "K(2)*(K(6)+K(2)+K(2)+K(2)+K(2))"
    pg = power_graph(build_group(GroupSpec.parse("quaternion:4")))
    assert graph_expr(pg) == graph_expr(expr_to_graph(expr)) == parse_expr("K(2)*(4#K(2)+K(6))")


def test_family_expr_elementary():
    expr = family_expr(GroupSpec.parse("elementary:3:2"))
    assert str(expr) == "K(1)*(K(2)+K(2)+K(2)+K(2))"


def test_family_expr_extraspecial_is_published_form():
    expr = family_expr(GroupSpec.parse("extraspecial:3"))
    assert str(expr) == "K(3)*(K(6)+K(6)+K(6)+K(6))"
    # the published form does NOT match the constructed group: it overcounts
    # the universal set (the verify audit row extraspecial-27-structural-vs-oracle
    # refutes its count)
    real = power_graph(build_group(GroupSpec.parse("extraspecial:3")))
    claimed = expr_to_graph(expr)
    assert claimed.n == real.n == 27
    assert claimed.edge_count == 135 and real.edge_count == 111
    assert len(universal_vertices(claimed)) == 3 and len(universal_vertices(real)) == 1


def test_family_expr_realizations_match_power_graphs():
    for text in ("quaternion:3", "quaternion:5", "elementary:2:2", "elementary:3:2",
                 "heisenberg:3", "frobenius:2:3", "frobenius:3:7"):
        spec = GroupSpec.parse(text)
        form = graph_expr(power_graph(build_group(spec)))
        assert form is not None and form == graph_expr(expr_to_graph(family_expr(spec))), text


def test_family_expr_unsupported():
    with pytest.raises(ValueError):
        family_expr(GroupSpec.parse("dihedral:4"))
    with pytest.raises(ValueError):
        family_expr(GroupSpec.parse("psl2:2:2"))


# --- expression parsing ---


def test_parse_expr_examples():
    expr = parse_expr("K(2)*(K(6)+4#K(2))")
    quaternion = family_expr(GroupSpec.parse("quaternion:4"))
    assert graph_expr(expr_to_graph(expr)) == graph_expr(expr_to_graph(quaternion))
    assert parse_expr("K(5)") == Clique(5)
    assert parse_expr("2#K(3)") == Union(Clique(3), Clique(3))
    assert parse_expr(" K(1) * ( K(2) + K(2) ) ") == Join(
        Clique(1), Union(Clique(2), Clique(2))
    )


def test_parse_expr_precedence():
    # join binds tighter than union
    expr = parse_expr("K(1)+K(2)*K(3)")
    assert expr == Union(Clique(1), Join(Clique(2), Clique(3)))


def test_parse_expr_copies_of_parenthesized():
    expr = parse_expr("2#(K(1)*K(2))")
    assert expr == Union(Join(Clique(1), Clique(2)), Join(Clique(1), Clique(2)))


def test_parse_expr_errors():
    for bad in ("", "K(0)", "K(2)*", "(K(2)", "K(2))", "Q(3)", "2K(3)", "#K(2)"):
        with pytest.raises(ValueError):
            parse_expr(bad)


def parse_error(text):
    with pytest.raises(ValueError) as info:
        parse_expr(text)
    return str(info.value)


# a position is the character offset of the token in the text, spaces counted


def test_parse_error_position_of_a_zero_count():
    assert parse_error("K(12)*0#K(2)") == "c#x needs c >= 1, at position 6 in 'K(12)*0#K(2)'"
    assert parse_error("K(1) *  2#0#K(2)").startswith("c#x needs c >= 1, at position 8 ")


def test_parse_error_position_of_an_expected_token():
    assert parse_error("K( )") == "expected a number at position 3 in 'K( )'"
    assert parse_error("K(1)*2 K(1)") == "expected '#' at position 7 in 'K(1)*2 K(1)'"
    # past the last token, the position is the length of the text
    assert parse_error("K(1)*2 ") == "expected '#' at position 7 in 'K(1)*2 '"


def test_parse_error_position_of_too_deep_nesting():
    text = " " + "(" * (MAX_DEPTH + 1) + "K(1)" + ")" * (MAX_DEPTH + 1)
    expected = f"parentheses nested more than {MAX_DEPTH} deep at position {MAX_DEPTH + 1}"
    assert parse_error(text) == expected


def test_parse_error_position_of_trailing_input():
    assert parse_error("K(1)  K(2)") == "trailing input at position 6 in 'K(1)  K(2)'"
    assert parse_error("(K(1)))") == "trailing input at position 6 in '(K(1)))'"


def test_parse_error_position_of_a_bad_character():
    assert parse_error("K(1)*x") == "bad character 'x' at position 5 in expression 'K(1)*x'"


def test_parse_error_position_of_an_unexpected_token():
    # the token's text, not the tokenizer's tuple
    assert parse_error("K(1)*)") == "unexpected token ')' at position 5 in 'K(1)*)'"
    assert parse_error(" #K(2)") == "unexpected token '#' at position 1 in ' #K(2)'"


def test_parse_error_position_of_a_missing_parenthesis():
    assert parse_error("(K(1)+K(2) K(3)") == "missing ')' at position 11 in '(K(1)+K(2) K(3)'"
    assert parse_error("(K(1) ") == "missing ')' at position 6 in '(K(1) '"


def test_parse_error_position_of_a_missing_parenthesis_after_k():
    assert parse_error("K(3 +K(1)") == "missing ')' after K( at position 4 in 'K(3 +K(1)'"


def test_parse_error_position_of_k_without_its_size():
    assert parse_error("K(1)+K 3") == "K must be followed by (n) at position 7 in 'K(1)+K 3'"


def test_parse_error_position_of_an_early_end():
    assert parse_error("K(1)+ ") == "unexpected end of expression at position 6 in 'K(1)+ '"


def test_parse_error_position_of_a_digit_that_int_cannot_read():
    # '²' passes str.isdigit, but a number is a run of decimal digits
    assert parse_error("K(²)") == "bad character '²' at position 2 in expression 'K(²)'"


def test_parse_error_position_of_a_zero_clique():
    assert parse_error("K(1)*K(0)") == "clique size must be >= 1, at position 7 in 'K(1)*K(0)'"


def test_mutated_expressions_round_trip_or_name_a_position():
    # a character inserted, deleted or replaced in str(e) gives a text that
    # reads back through str, or an error at a position; only the copy bound
    # names none, as it counts parts across the whole text
    rng = random.Random(35)
    for _ in range(2000):
        chars = list(str(_random_expr(rng, rng.randint(1, 30))))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(chars) + 1)
            edit = rng.choice("idr") if i < len(chars) else "i"
            if edit == "d":
                del chars[i]
            else:
                chars[i:i + (edit == "r")] = rng.choice("K()+*#0123 ²x")
        text = "".join(chars)
        try:
            expr = parse_expr(text)
        except ValueError as exc:
            assert " at position " in str(exc) or "copies expand" in str(exc), (text, str(exc))
        else:
            assert parse_expr(str(expr)) == expr, text


def test_expr_str_reparses():
    # a right-hand operand of the same operator must be parenthesised
    for expr in (
        Join(Clique(1), Join(Clique(1), Clique(8))),
        Union(Clique(1), Union(Clique(2), Clique(3))),
    ):
        assert parse_expr(str(expr)) == expr
    rng = random.Random(23)
    for _ in range(40):
        expr = _random_expr(rng, rng.randint(1, 20))
        assert parse_expr(str(expr)) == expr


def test_runs_are_one_node():
    a, b, c = Clique(1), Clique(2), Clique(3)
    assert Union(Union(a, b), c) == Union(a, Union(b, c)) == Union(a, b, c)
    assert Join(Join(a, b), c) == Join(a, Join(b, c))
    assert hash(Join(Join(a, b), c)) == hash(Join(a, Join(b, c)))
    assert Union(a, b) != Join(a, b)
    assert parse_expr("K(1)*K(2)*K(3)").parts == (a, b, c)
    assert parse_expr("(K(1)*K(2))*K(3)") == parse_expr("K(1)*(K(2)*K(3))")
    assert parse_expr("2#3#K(1)") == copies(6, a)
    with pytest.raises(ValueError):
        Union(a)
    with pytest.raises(ValueError):
        Join(Union(a, b))


def test_expr_to_graph_builds_one_graph(monkeypatch):
    built = []
    init = SimpleGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SimpleGraph, "__init__", counting_init)
    for text in ("K(4)", "K(2)*(K(6)+4#K(2))", "K(1)*3#(K(1)*(K(1)+K(2)))"):
        built.clear()
        expr_to_graph(parse_expr(text))
        assert len(built) == 1, text


def edge_list_expr_graph(expr):
    """expr_to_graph built from one edge per vertex pair, for comparison: a
    clique's interval is complete, and a join joins each part's interval to
    the parts before it."""
    edges = []

    def lay_out(node, start):
        if isinstance(node, Clique):
            leaf = range(start, start + node.size)
            edges.extend((a, b) for a in leaf for b in leaf if a < b)
            return
        lo = start
        for part in node.parts:
            lay_out(part, lo)
            if isinstance(node, Join):
                edges.extend((a, b) for a in range(start, lo) for b in range(lo, lo + part.n))
            lo += part.n

    lay_out(expr, 0)
    return SimpleGraph(expr.n, edges)


def test_expr_to_graph_equals_the_edge_list_construction():
    rng = random.Random(29)
    exprs = [family_expr(GroupSpec.parse(t)) for t in V._examples("clique_expr")]
    exprs += [_random_expr(rng, rng.randint(1, 25)) for _ in range(2000)]
    exprs.append(parse_expr("4000#K(1)*K(1)"))
    for expr in exprs:
        g, expected = expr_to_graph(expr), edge_list_expr_graph(expr)
        assert g == expected, str(expr)
        assert g.edge_count == expected.edge_count and g.labels is None


def test_char_poly_is_the_product_over_the_spectrum():
    for expr in V._spectrum_exprs(0):
        coeffs = [1]  # prod (x - mu)^mult, constant term first
        for mu, mult in spectrum(expr).items():
            for _ in range(mult):
                coeffs = [a - mu * b for a, b in zip([0] + coeffs, coeffs + [0])]
        assert laplacian_char_poly(expr_to_graph(expr)) == tuple(coeffs), str(expr)


def test_walkers_on_thousands_of_parts():
    expr = Join(copies(5000, Clique(2)), Clique(1))
    assert expr.n == 10001
    assert universal_count(expr) == 1
    assert spectrum(expr) == Counter({10001: 1, 3: 5000, 1: 4999, 0: 1})
    assert parse_expr(str(expr)) == expr


def test_deepest_nesting_stays_within_the_recursion_limit():
    # each level puts a union inside a join, two tree levels per parenthesis
    text = "K(1)"
    for _ in range(MAX_DEPTH):
        text = f"K(1)*(K(1)+{text})"
    expr = parse_expr(text)
    assert parse_expr(str(expr)) == expr and hash(parse_expr(text)) == hash(expr)
    assert spectrum(expr).total() == expr_to_graph(expr).n == 2 * MAX_DEPTH + 1
    assert universal_count(expr) == 1
    with pytest.raises(ValueError, match="nested more than"):
        parse_expr(f"K(1)*({text})")


def test_copies_beyond_the_part_bound_rejected():
    assert parse_expr(f"{MAX_COPIES}#K(1)").n == MAX_COPIES
    for text in (f"{MAX_COPIES + 1}#K(1)", "1000#1000#1000#K(1)", "1000#(1000#K(1)+K(2))",
                 f"{MAX_COPIES}#K(1)+2#K(1)"):
        with pytest.raises(ValueError, match="copies expand"):
            parse_expr(text)


def test_union_of_empty_rejected():
    with pytest.raises(ValueError):
        union_of([])
    with pytest.raises(ValueError):
        copies(0, Clique(2))


# --- the eigenvector certificate behind verify's spectrum suite ---


def moved_unit(spec, src, dst):
    """spec with one unit of multiplicity moved from eigenvalue src to dst."""
    return spec - Counter({src: 1}) + Counter({dst: 1})


def test_every_moved_multiplicity_is_rejected():
    rejected = 0
    for expr in V._spectrum_exprs(7):
        g = expr_to_graph(expr)
        spec = spectrum(expr)
        assert V.spectrum_mismatch(g, spec) == ""
        values = list(spec)
        for src in values:
            for dst in values:
                if src != dst:
                    assert "nullity" in V.spectrum_mismatch(g, moved_unit(spec, src, dst))
                    rejected += 1
    assert rejected > 1000


def test_spectrum_suite_fails_on_a_moved_multiplicity(monkeypatch):
    real = V.spectrum

    def top_to_bottom(expr):
        spec = real(expr)
        return moved_unit(spec, max(spec), 0) if len(spec) > 1 else spec

    def spread_top(expr):
        # top eigenvalue a: one unit to a+1 and one to a-1 keeps n and the
        # trace, so only the nullity check can reject it
        spec = real(expr)
        a = max(spec)
        if spec[a] < 2 or a == 0:
            return spec
        return moved_unit(moved_unit(spec, a, a + 1), a, a - 1)

    for perturbed, why in ((top_to_bottom, "totals wrong"), (spread_top, "nullity")):
        monkeypatch.setattr(V, "spectrum", perturbed)
        [result] = V.cases_spectrum_charpoly(7)
        assert result.name == "spectrum-vs-charpoly-suite"
        assert not result.ok and why in result.detail


def test_spectrum_proof_takes_no_determinant(monkeypatch):
    calls = []
    for module, name in ((linalg, "det_bareiss"), (linalg, "_det_psd_upper"), (audits, "det_bareiss")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda m, real=real: calls.append(m) or real(m))
    for expr in V._spectrum_exprs(1):
        assert V.spectrum_mismatch(expr_to_graph(expr), spectrum(expr)) == ""
    assert calls == []
    audits.kappa_via_jl(path_graph(4))  # the recorder does see a determinant
    assert calls


def test_certified_multiplicities_equal_exact_rank_nullities(laplacian_nullity):
    rng = random.Random(41)
    for _ in range(60):
        g = expr_to_graph(_random_expr(rng, rng.randint(1, 14)))
        vectors = list(V._cotree_vectors(g))
        assert len(vectors) == g.n
        certified = V._certified_counts(g.closed, vectors)
        for mu in range(g.n + 2):
            assert certified[mu] == laplacian_nullity(g, mu), (list(g.edges()), mu)


def test_certificate_rejects_a_perturbed_coefficient():
    g = expr_to_graph(parse_expr("K(1)*(K(2)+3#K(3))"))
    vectors = list(V._cotree_vectors(g))
    assert sum(V._certified_counts(g.closed, vectors).values()) == g.n
    for i, (lam, vec, pivot) in enumerate(vectors):
        for v in vec:
            bad = vectors[:i] + [(lam, {**vec, v: vec[v] + 1}, pivot)] + vectors[i + 1 :]
            with pytest.raises(ValueError, match=f"claimed for {lam} is no eigenvector"):
                V._certified_counts(g.closed, bad)


def test_certificate_rejects_a_repeated_vector():
    g = expr_to_graph(parse_expr("K(1)*(K(2)+3#K(3))"))
    vectors = list(V._cotree_vectors(g))
    for i, (lam, _, _) in enumerate(vectors):
        with pytest.raises(ValueError, match=f"claimed for {lam} is not independent"):
            V._certified_counts(g.closed, vectors[: i + 1] + vectors[i:])
    # nor may a vector vanish at its pivot
    lam, vec, pivot = vectors[-1]
    with pytest.raises(ValueError, match="not independent"):
        V._certified_counts(g.closed, [(lam, {v: 0 for v in vec}, pivot)])


def test_spectrum_proof_of_a_p4_is_a_message():
    why = V.spectrum_mismatch(path_graph(4), Counter({4: 1, 2: 2, 0: 1}))
    assert why == "no eigenvector certificate: 4 vertices at 0 have an induced P4"
    g = power_graph(build_group(GroupSpec.parse("cyclic:12")))
    assert "induced P4" in V.spectrum_mismatch(g, Counter({12: 12}))


def test_spectrum_proof_reads_zero_from_the_components():
    g = expr_to_graph(parse_expr("K(3)+K(2)+K(1)"))
    spec = spectrum(parse_expr("K(3)+K(2)+K(1)"))
    assert spec == Counter({3: 2, 2: 1, 0: 3})
    assert V.spectrum_mismatch(g, spec) == ""
    # 0 is certified by one indicator vector per component
    zero = [vec for lam, vec, _ in V._cotree_vectors(g) if lam == 0]
    assert sorted(map(sorted, zero)) == sorted(map(sorted, components(g.adj, set(range(6)))))
    assert all(set(vec.values()) == {1} for vec in zero)
    one_zero = Counter({3: 2, 2: 3, 0: 1})
    assert V.spectrum_mismatch(g, one_zero) == "nullity of L - 0I is 3, spectrum claims 1"
    # a claim without 0 fails too
    no_zero = Counter({3: 2, 2: 3, 1: 1})
    assert V.spectrum_mismatch(g, no_zero) == "nullity of L - 0I is 3, spectrum claims 0"


def test_spectrum_proof_rejects_a_trace_preserving_split():
    # one unit of mu* each to mu*-1 and mu*+1 keeps n and tr L
    split = 0
    for expr in V._spectrum_exprs(1):
        g = expr_to_graph(expr)
        spec = spectrum(expr)
        nonzero = [pair for pair in spec.items() if pair[0]]
        if not nonzero:
            continue
        last, r = min(nonzero, key=lambda pair: (pair[1], -pair[0]))
        if r < 2:
            continue
        bad = moved_unit(moved_unit(spec, last, last - 1), last, last + 1)
        assert bad.total() == spec.total() and sum(bad.elements()) == sum(spec.elements())
        assert "nullity" in V.spectrum_mismatch(g, bad)
        split += 1
    assert split > 50


def test_spectrum_proof_catches_a_trace_preserving_merge():
    # the path 0-1-2 has spectrum {3, 1, 0}; {2^2, 0} has its n, its
    # component count and its trace, and the certified 1 rejects it
    g = expr_to_graph(parse_expr("K(1)*(K(1)+K(1))"))
    assert spectrum(parse_expr("K(1)*(K(1)+K(1))")) == Counter({3: 1, 1: 1, 0: 1})
    why = V.spectrum_mismatch(g, Counter({2: 2, 0: 1}))
    assert why == "nullity of L - 1I is 1, spectrum claims 0"


def test_cyclic_12_power_graph_is_no_clique_expression():
    # Z_12 has a closed form (kappa_cyclic) but its power graph has the
    # induced path 3-6-2-4, so it is no union or join of cliques
    g = power_graph(build_group(GroupSpec.parse("cyclic:12")))
    path = (3, 6, 2, 4)
    for i, u in enumerate(path):
        for j, v in enumerate(path[i + 1 :], start=i + 1):
            assert (v in g.adj[u]) == (j == i + 1), (u, v)
    assert graph_expr(g) is None


# --- canonical clique forms read off graphs ---


def relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return SimpleGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_graph_expr_gives_one_form_under_relabelling():
    rng = random.Random(29)
    for _ in range(300):
        expr = _random_expr(rng, rng.randint(1, 30))
        g = expr_to_graph(expr)
        form = graph_expr(g)
        assert graph_expr(relabelled(g, rng)) == form, str(expr)
        assert graph_expr(expr_to_graph(form)) == form  # idempotent
        assert parse_expr(str(form)) == form
        assert spectrum(form) == spectrum(expr)


def has_induced_p4(g):
    adj = g.adj
    return any(
        b in adj[a] and c in adj[b] and d in adj[c]
        and c not in adj[a] and d not in adj[b] and d not in adj[a]
        for a, b, c, d in itertools.permutations(range(g.n), 4)
    )


def test_graph_expr_is_none_iff_the_graph_has_an_induced_p4():
    rng = random.Random(31)
    kinds = set()
    for _ in range(400):
        g = _random_graph(rng, rng.randint(1, 7))
        form = graph_expr(g)
        assert (form is None) == has_induced_p4(g), list(g.edges())
        if form is not None:
            realized = expr_to_graph(form)
            assert sorted(map(len, realized.adj)) == sorted(map(len, g.adj))
            assert laplacian_char_poly(realized) == laplacian_char_poly(g)
        kinds.add(form is None)
    assert kinds == {True, False}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_clique_form_check_passes_the_corrected_extraspecial_form_only(p):
    # the published K(p)*(p+1)#K(p^2-p) against the form the power graph has:
    # the identity joined to p subgroups of order p and to the centre's
    # p - 1 generators, which are joined to p cyclic subgroups of order p^2
    group = f"extraspecial:{p}"
    corrected = parse_expr(f"K(1)*((K({p - 1})*{p}#K({p * p - p})) + {p}#K({p - 1}))")
    published = family_expr(GroupSpec.parse(group))
    assert clique_form_mismatch(corrected, group) == ""
    claimed, built = (graph_expr(expr_to_graph(e)) for e in (published, corrected))
    assert clique_form_mismatch(published, group) == f"clique form {claimed}, power graph {built}"


def test_graph_expr_reads_power_graphs_with_no_cataloged_form():
    for text, form in (
        ("cyclic:6", "(K(1)+K(2))*K(3)"),
        ("dihedral:6", "K(1)*(6#K(1)+K(2)*(K(1)+K(2)))"),
    ):
        g = power_graph(build_group(GroupSpec.parse(text)))
        assert graph_expr(g) == parse_expr(form), text
    g = power_graph(build_group(GroupSpec.parse("psl2:11:1")))
    assert kappa_from_spectrum(spectrum(graph_expr(g))) == kappa_psl2(11, 1)
