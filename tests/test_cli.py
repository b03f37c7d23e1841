import argparse
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from powertrees import cli
from powertrees import formulas as F
from powertrees.graphs import (
    CliqueReplacedSpec,
    SimpleGraph,
    clique_replaced,
    path_graph,
    universal_vertices,
)
from powertrees.export import to_edge_list_text
from powertrees.groups import FAMILIES, GroupSpec, build_group, clique_spec, power_graph
from powertrees.linalg import kappa_matrix_tree
from powertrees.numth import FactoredNat, InternalConsistencyError, is_prime
from powertrees.spectra import expr_to_graph, parse_expr


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def valid_methods(capsys, target):
    # the methods that answer for the group, in cli.METHODS order
    return [m for m in cli.METHODS if run(capsys, "kappa", "group", target, "--method", m)[0] == 0]


# (spec, methods valid besides auto and matrix-tree, method auto picks,
#  vertex count, universal count)
GROUPS = [
    ("cyclic:12", ["quotient", "formula"], "formula", 12, 5),
    ("elementary:2:3", ["quotient", "formula", "spectrum"], "formula", 8, 1),
    ("dihedral:4", ["quotient"], "quotient", 8, 1),
    ("quaternion:3", ["quotient", "formula", "spectrum"], "formula", 8, 2),
    ("heisenberg:3", ["quotient", "formula", "spectrum"], "formula", 27, 1),
    ("extraspecial:3", ["quotient", "spectrum"], "quotient", 27, 1),
    ("psl2:2:2", ["quotient", "formula"], "formula", 60, 1),
    ("frobenius:2:3", ["quotient", "formula", "spectrum"], "formula", 6, 1),
]


@pytest.mark.parametrize("target,extra,auto,n,universal", GROUPS)
def test_group_methods_auto_and_counts(capsys, target, extra, auto, n, universal):
    assert valid_methods(capsys, target) == ["auto", "matrix-tree", *extra]
    code, out, _ = run(capsys, "kappa", "group", target, "--output", "json")
    assert code == 0
    record = json.loads(out)
    graph = power_graph(build_group(GroupSpec.parse(target)))
    oracle = kappa_matrix_tree(graph)
    assert record["method"] == auto
    # the auto value is the oracle's: a published clique form that disagrees
    # with it (the extraspecial one gives 3^49) is no closed form for auto
    assert int(record["kappa_decimal"]) == oracle
    assert (record["vertex_count"], record["universal_count"]) == (n, universal)
    assert (graph.n, len(universal_vertices(graph))) == (n, universal)


def test_extraspecial_auto_value_and_published_forms(capsys):
    _, out, _ = run(capsys, "kappa", "group", "extraspecial:3", "--output", "json")
    assert json.loads(out)["kappa_factored"] == {"factors": [[3, 37], [7, 2]], "residual": 1}
    _, out, _ = run(capsys, "kappa", "group", "extraspecial:3", "--output", "factored")
    assert out.strip() == "3^37 * 7^2"
    # the published clique form is no closed form: only spectrum evaluates it
    code, _, err = run(capsys, "kappa", "group", "extraspecial:3", "--method", "formula")
    assert code == 2
    assert err.strip().endswith("valid: auto, matrix-tree, quotient, spectrum")
    _, out, _ = run(capsys, "kappa", "group", "extraspecial:3", "--method", "spectrum",
                    "--output", "factored")
    assert out.strip() == "3^49"


@pytest.mark.parametrize(
    "target,extra", [g[:2] for g in GROUPS if not g[0].startswith("extraspecial")]
)
def test_every_valid_method_agrees_with_the_oracle(capsys, target, extra):
    values = set()
    for method in ("matrix-tree", *extra):
        code, out, _ = run(capsys, "kappa", "group", target, "--method", method)
        assert code == 0
        values.add(out.strip())
    assert len(values) == 1


@pytest.mark.parametrize(
    "target,method,valid",
    [
        ("psl2:2:2", "spectrum", "valid: auto, matrix-tree, quotient, formula"),
        ("dihedral:4", "formula", "valid: auto, matrix-tree, quotient"),
    ],
)
def test_invalid_method_is_a_usage_error(capsys, target, method, valid):
    code, out, err = run(capsys, "kappa", "group", target, "--method", method)
    assert code == 2 and out == ""
    assert err.strip().endswith(valid)


def test_unknown_family_is_a_usage_error(capsys):
    code, out, err = run(capsys, "kappa", "group", "nosuch:1")
    assert code == 2 and out == ""
    assert "unknown family 'nosuch'" in err


@pytest.mark.parametrize(
    "argv,usage",
    [
        (("kappa", "group", "cyclic:3:4"), "cyclic:n"),
        (("kappa", "group", "heisenberg:3:1"), "heisenberg:p"),
        (("export", "group", "frobenius:2:3:5", "--format", "edges"), "frobenius:p:q"),
        (("kappa", "group", "psl2:3"), "psl2:p:n"),
        (("kappa", "group", "cyclic"), "cyclic:n"),
        (("export", "group", "elementary:2", "--format", "edges"), "elementary:p:n"),
        (("kappa", "group", "cyclic:x"), "bad group spec 'cyclic:x'"),
        (("kappa", "replaced", "base.txt"), "replaced targets need --sizes x1,x2,..."),
        (("export", "replaced", "base.txt", "--format", "edges"), "replaced targets need --sizes"),
        (("kappa", "replaced", "base.txt", "--sizes", "2,x"), "bad --sizes value '2,x'"),
    ],
)
def test_wrong_parameter_count_is_a_usage_error(capsys, argv, usage):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert usage in err


def test_unknown_family_error_lists_the_families(capsys):
    _, _, err = run(capsys, "kappa", "group", "nosuch:1")
    for usage in ("cyclic:n", "elementary:p:n", "psl2:p:n", "frobenius:p:q", "table:PATH"):
        assert usage in err


@pytest.mark.parametrize("bound", ["-4", "0", "1"])
def test_factor_bound_is_an_unrecognized_argument(capsys, tmp_path, bound):
    # there is no --factor-bound: every bound, valid or not, is an
    # unrecognized argument
    base = tmp_path / "edge.txt"
    base.write_text("2\n0 1\n")
    for argv in (
        ("kappa", "expr", "K(4)", "--method", "matrix-tree"),
        ("kappa", "replaced", str(base), "--sizes", "2,3"),
        ("kappa", "replaced", str(base), "--sizes", "2,3", "--method", "quotient"),
    ):
        for value in (bound, "5"):
            with pytest.raises(SystemExit) as exc:
                cli.main([*argv, "--factor-bound", value])
            out, err = capsys.readouterr()
            assert exc.value.code == 2 and out == ""
            assert f"unrecognized arguments: --factor-bound {value}" in err


def test_replaced_and_expr_targets_print_their_factored_kappa(capsys, tmp_path):
    base = tmp_path / "edge.txt"
    base.write_text("2\n0 1\n")
    _, out, _ = run(capsys, "kappa", "replaced", str(base), "--sizes", "2,3",
                    "--output", "factored")
    assert out.strip() == "5^3"
    _, out, _ = run(capsys, "kappa", "expr", "K(4)", "--method", "matrix-tree",
                    "--output", "factored")
    assert out.strip() == "2^4"


def _factored_value(text):
    value = 1
    for part in text.split(" * "):
        p, _, e = part.partition("^")
        value *= int(p) ** int(e or 1)
    return value


@pytest.mark.parametrize("kind,target", [
    ("zn", "9"), ("zn", "30"), ("group", "cyclic:30"), ("group", "psl2:2:2"),
    ("group", "heisenberg:3"),
])
def test_every_route_prints_the_same_factored_kappa(capsys, kind, target):
    # one factoring rule on every route: the closed forms factor
    # structurally, the oracle by trial division of its whole kappa, and all
    # of them print one and the same factored kappa
    if kind == "group":
        methods = valid_methods(capsys, target)
    else:
        methods = ["auto", "matrix-tree", "quotient", "formula"]
    outputs = set()
    for method in methods:
        code, out, _ = run(capsys, "kappa", kind, target, "--method", method,
                           "--output", "factored")
        assert code == 0
        outputs.add(out.strip())
    assert len(outputs) == 1
    _, decimal, _ = run(capsys, "kappa", kind, target)
    assert _factored_value(outputs.pop()) == int(decimal)


def test_matrix_tree_factors_its_kappa_once_under_a_bound(capsys, monkeypatch):
    calls = []
    from_int = FactoredNat.from_int.__func__
    monkeypatch.setattr(FactoredNat, "from_int",
                        classmethod(lambda cls, *a: calls.append(a[1:]) or from_int(cls, *a)))
    code, out, _ = run(capsys, "kappa", "group", "psl2:2:2", "--method", "matrix-tree",
                       "--output", "factored")
    assert code == 0 and out.strip() == "3^10 * 5^18"
    assert calls == [(1000,)]  # max(n, 1000), n = 60
    calls.clear()
    code, out, _ = run(capsys, "kappa", "expr", "K(1)*1100#K(1)", "--method", "matrix-tree")
    assert code == 0 and out.strip() == "1"
    assert calls == [(1101,)]


@pytest.mark.parametrize("command,extra", [
    ("kappa", ()), ("export", ("--format", "edges")), ("export", ("--format", "json")),
])
@pytest.mark.parametrize("kind,target", [("zn", "6"), ("group", "cyclic:6"), ("expr", "K(3)")])
def test_sizes_only_for_replaced_targets(capsys, command, extra, kind, target):
    code, out, err = run(capsys, command, kind, target, "--sizes", "1,2", *extra)
    assert code == 2 and out == ""
    assert f"--sizes applies only to replaced targets, not to {kind} targets" in err


# (kind, target, sizes, vertex count, universal count)
CLIQUE_TARGETS = [
    ("zn", "12", None, 12, 5),
    ("zn", "16", None, 16, 16),
    ("replaced", "path3", "2,3,1", 6, 3),
]


@pytest.mark.parametrize("kind,target,sizes,n,universal", CLIQUE_TARGETS)
def test_clique_target_counts(capsys, tmp_path, kind, target, sizes, n, universal):
    if kind == "replaced":
        base = tmp_path / "path3.txt"
        base.write_text("3\n0 1\n1 2\n")
        target = str(base)
        spec = CliqueReplacedSpec(path_graph(3), tuple(map(int, sizes.split(","))))
    else:
        spec = F.divisor_clique_spec(int(target))
    graph = clique_replaced(spec)
    assert (graph.n, len(universal_vertices(graph))) == (n, universal)
    extra = ("--sizes", sizes) if sizes else ()
    for method in ("auto", "matrix-tree", "quotient", "formula"):
        code, out, _ = run(capsys, "kappa", kind, target, *extra,
                           "--method", method, "--output", "json")
        assert code == 0
        record = json.loads(out)
        assert (record["vertex_count"], record["universal_count"]) == (n, universal)


@pytest.mark.parametrize("n,universal", [(420, 97), (2310, 481)])
def test_zn_with_many_divisors_answers_without_the_graph(capsys, n, universal):
    # 22 and 30 interior divisors: the formula route answers with one
    # determinant, without expanding the graph (1.8M edges for 2310)
    code, out, _ = run(capsys, "kappa", "zn", str(n), "--output", "json")
    assert code == 0
    record = json.loads(out)
    assert (record["vertex_count"], record["universal_count"]) == (n, universal)
    assert int(record["kappa_decimal"]) == F.kappa_clique_replaced_smatrix(
        F.divisor_clique_spec(n)).value()


def test_results_beyond_the_int_str_digit_limit_print(capsys):
    # kappa(Z_2048) = 2^22506 has 6775 decimal digits, past Python's default
    # 4300-digit conversion limit
    code, out, _ = run(capsys, "kappa", "zn", "2048", "--output", "factored")
    assert code == 0 and out.strip() == "2^22506"
    code, out, _ = run(capsys, "kappa", "zn", "2048", "--output", "decimal")
    assert code == 0 and len(out.strip()) == 6775
    assert int(out) == 2**22506
    code, out, _ = run(capsys, "kappa", "expr", "K(1400)", "--output", "json")
    assert code == 0 and int(json.loads(out)["kappa_decimal"]) == 1400**1398


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_jobs_below_one_is_a_usage_error(capsys, jobs):
    code, out, err = run(capsys, "verify", "quick", "--jobs", jobs)
    assert code == 2 and out == ""
    assert "--jobs" in err


def test_verify_seed_that_is_no_integer_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("KAPPA_SEED", "abc")
    code, out, err = run(capsys, "verify", "quick")
    assert code == 2 and out == ""
    assert err == "error: KAPPA_SEED must be an integer, got 'abc'\n"


def test_verify_quick_passes_and_prints_only_its_case_lines(capsys, monkeypatch):
    monkeypatch.setenv("KAPPA_SEED", "7")
    code, out, _ = run(capsys, "verify", "quick")
    assert code == 0
    header, blank, *cases, blank2, total = out.splitlines()
    assert (header, blank, blank2) == ("verify suite: quick (seed 7)", "", "")
    assert cases and all(line.startswith("[PASS] ") for line in cases)
    assert cases == sorted(cases, key=lambda line: line.split(":")[0])
    assert total == f"{len(cases)}/{len(cases)} cases passed"


def test_verify_pooled_prints_the_serial_report():
    from powertrees import verify

    serial = verify.run_suite("quick", seed=0, jobs=1)
    assert serial[1] == 0
    assert verify.run_suite("quick", seed=0, jobs=2) == serial


def test_verify_pool_has_at_most_one_worker_per_group(monkeypatch):
    import concurrent.futures

    from powertrees import verify

    workers = []

    class SerialPool:
        # records the pool size and maps in this process; starts nothing
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    pooled = verify.run_suite("quick", seed=0, jobs=100000)
    assert workers == [len(verify.QUICK_GROUPS)]
    assert pooled == verify.run_suite("quick", seed=0, jobs=1)


def test_cyclic_sweep_reports_its_first_failure(monkeypatch):
    from powertrees import verify

    def oracle(spec):
        n = int(spec.split(":")[1])
        return 0 if n in (7, 60, 113) else F.kappa_cyclic(n).value()

    monkeypatch.setattr(verify, "kappa_det_of_group", oracle)
    serial = verify.cases_cyclic_sweep()
    assert serial[0].detail.startswith("117/120 ok; first failure: n=7: ")


def _no_expansion(*_):
    raise AssertionError("the graph was expanded")


def test_only_graph_routes_expand_group_and_expr_targets(capsys, monkeypatch):
    expected = {}
    # every group method but matrix-tree and quotient, which expand by
    # design, and auto where it picks another
    graph_routes = ("matrix-tree", "quotient")
    requests = [("group", target, method)
                for target, extra, auto, _, _ in GROUPS
                for method in (["auto"] if auto not in graph_routes else [])
                + [m for m in extra if m not in graph_routes]]
    requests += [("expr", text, method)
                 for text in ("K(4)", "K(2)*(K(6)+4#K(2))", "K(1)*K(2)+K(3)")
                 for method in ("auto", "spectrum")]
    for kind, target, _ in requests:
        graph = (power_graph(build_group(GroupSpec.parse(target))) if kind == "group"
                 else expr_to_graph(parse_expr(target)))
        expected[kind, target] = (graph.n, len(universal_vertices(graph)))
    for name in ("power_graph", "expr_to_graph", "clique_replaced"):
        monkeypatch.setattr(cli, name, _no_expansion)
    for kind, target, method in requests:
        code, out, _ = run(capsys, "kappa", kind, target, "--method", method, "--output", "json")
        assert code == 0
        record = json.loads(out)
        assert (record["vertex_count"], record["universal_count"]) == expected[kind, target]


def test_zn_quotient_equals_formula_without_expanding_the_graph(capsys, monkeypatch):
    monkeypatch.setattr(cli, "clique_replaced", _no_expansion)
    for n in [*range(1, 301), 2310]:
        outs = {run(capsys, "kappa", "zn", str(n), "--method", method, "--output", "factored")
                for method in ("quotient", "formula")}
        assert len(outs) == 1 and outs.pop()[0] == 0, n


def test_replaced_quotient_equals_formula_and_the_oracle(capsys, tmp_path):
    rng = random.Random(21)
    path = tmp_path / "base.txt"
    for _ in range(60):
        k = rng.randint(1, 7)
        edges = {(rng.randrange(i), i) for i in range(1, k)}  # a random spanning tree
        edges |= {(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < 0.4}
        path.write_text(to_edge_list_text(SimpleGraph(k, edges)))
        sizes = ",".join(str(rng.randint(1, 5)) for _ in range(k))
        outs = {run(capsys, "kappa", "replaced", str(path), "--sizes", sizes,
                    "--method", method, "--output", "factored")
                for method in ("quotient", "formula", "matrix-tree")}
        assert len(outs) == 1 and outs.pop()[0] == 0, (sorted(edges), sizes)


@pytest.mark.parametrize("kind,target", [("zn", "12"), ("group", "cyclic:12")])
def test_smatrix_is_no_method(capsys, kind, target):
    with pytest.raises(SystemExit) as exc:
        cli.main(["kappa", kind, target, "--method", "smatrix"])
    assert exc.value.code == 2
    assert "invalid choice: 'smatrix'" in capsys.readouterr().err


def test_every_route_is_a_method_and_every_method_a_route():
    assert cli.METHODS == ("auto", "matrix-tree", "quotient", "formula", "spectrum")
    routes = {method for row in cli.ROUTES.values() for method in row}
    assert routes == set(cli.METHODS) - {"auto"}
    # the oracle leads every row, so a usage error lists it after auto
    assert all(next(iter(row)) == "matrix-tree" for row in cli.ROUTES.values())


def test_vertex_counts_read_the_order_of_a_clique_spec_once(monkeypatch):
    # the order is a sum over all blocks, so reading it per block is O(k^2)
    reads = []
    order = CliqueReplacedSpec.n

    def counted(spec):
        reads.append(spec)
        return order.fget(spec)

    spec = F.divisor_clique_spec(2310)
    monkeypatch.setattr(CliqueReplacedSpec, "n", property(counted))
    assert cli._vertex_counts(spec) == (2310, 1 + 480)
    assert len(reads) == 1 < spec.k


def test_psl2_of_order_7800_answers_from_its_clique_spec(capsys):
    code, out, _ = run(capsys, "kappa", "group", "psl2:5:2", "--output", "json")
    assert code == 0
    record = json.loads(out)
    assert (record["vertex_count"], record["universal_count"]) == (7800, 1)
    assert int(record["kappa_decimal"]) == F.kappa_psl2(5, 2).value()


def _counted_specs():
    primes = [p for p in range(2, 120) if is_prime(p)]
    yield from (f"cyclic:{n}" for n in range(1, 200))
    yield from (f"elementary:{p}:{n}" for p in primes for n in range(1, 10) if p**n <= 800)
    yield from (f"quaternion:{n}" for n in range(3, 9))
    yield from (f"{family}:{p}" for family in ("heisenberg", "extraspecial") for p in (3, 5, 7))
    yield from (f"psl2:{p}:{n}" for p in primes for n in range(1, 5) if 4 <= p**n <= 30)
    yield from (f"frobenius:{p}:{q}" for p in (2, 3, 5, 7) for q in primes
                if p < q and (q - 1) % p == 0)
    yield from (f"dihedral:{n}" for n in range(2, 40))


def test_family_counts_equal_the_built_groups_counts():
    specs = [GroupSpec.parse(text) for text in _counted_specs()]
    assert {s.family for s in specs} == {name for name, f in FAMILIES.items() if f.counts}
    assert [name for name, f in FAMILIES.items() if not f.counts] == ["table"]
    for spec in specs:
        expected = cli._vertex_counts(clique_spec(build_group(spec)))
        assert FAMILIES[spec.family].counts(*spec.params) == expected, str(spec)


def test_closed_form_and_spectrum_routes_build_no_group(monkeypatch):
    def no_build(spec):
        raise AssertionError(f"built {spec}")

    monkeypatch.setattr(cli, "build_group", no_build)
    for kind, target, method, counts, kappa in [
        ("group", "psl2:11:2", "auto", (885720, 1), F.kappa_psl2(11, 2)),
        ("group", "cyclic:360", "auto", (360, 97), F.kappa_cyclic(360)),
        ("group", "heisenberg:31", "spectrum", (29791, 1), F.kappa_heisenberg(31)),
        ("zn", "360", "auto", (360, 97), F.kappa_cyclic(360)),
    ]:
        record = cli.compute_kappa(cli.Request(kind, target, None, method, "factored"))
        assert (record.vertex_count, record.universal_count) == counts, target
        assert record.kappa == kappa, target


def test_zn_formula_builds_its_divisor_spec_once(capsys, monkeypatch):
    expected, built = str(F.kappa_cyclic(360)), []
    divisor_spec = F.divisor_clique_spec

    def recorded(n):
        built.append(n)
        return divisor_spec(n)

    monkeypatch.setattr(F, "divisor_clique_spec", recorded)
    code, out, _ = run(capsys, "kappa", "zn", "360", "--output", "factored")
    assert code == 0 and out.strip() == expected
    assert built == [360]  # inside kappa_cyclic, and not again for the counts


@pytest.mark.parametrize("method", ["quotient", "matrix-tree"])
def test_expanding_routes_build_the_group(capsys, monkeypatch, method):
    built = []

    def recorded(spec):
        built.append(str(spec))
        return build_group(spec)

    monkeypatch.setattr(cli, "build_group", recorded)
    code, out, _ = run(capsys, "kappa", "group", "cyclic:12", "--method", method, "--output", "json")
    assert code == 0 and built == ["cyclic:12"]
    record = json.loads(out)
    assert (record["vertex_count"], record["universal_count"]) == (12, 5)


@pytest.mark.parametrize("text,message", [
    pytest.param("0\n", "at least one element", id="0"),
    pytest.param("-1\n", "at least one element", id="-1"),
    pytest.param("\n", "error: empty Cayley-table input\n", id="blank"),
    pytest.param("2\n0 1\n", "error: expected 2 table rows, got 1\n", id="one-row-of-two"),
    pytest.param("2\n0 1\n1\n", "error: row has 1 entries, expected 2\n", id="short-row"),
    pytest.param("2\n0 1\n1 z\n", "error: bad table row: '1 z'\n", id="non-integer-entry"),
    pytest.param("two\n0 1\n1 0\n", "error: bad table order line: 'two'\n", id="non-integer-order"),
])
def test_empty_cayley_table_is_a_usage_error(capsys, tmp_path, text, message):
    path = tmp_path / "empty.tbl"
    path.write_text(text)
    for argv in (("kappa", "group", f"table:{path}"),
                 ("export", "group", f"table:{path}", "--format", "edges")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert message in err


def test_auto_counts_a_graph_file_through_its_quotient(capsys, tmp_path):
    # a path with a triangle hanging off one end, and a disconnected graph
    path = tmp_path / "g.txt"
    for text, value in (("5\n0 1\n1 2\n2 3\n2 4\n3 4\n", 3), ("4\n0 1\n2 3\n", 0)):
        path.write_text(text)
        code, out, _ = run(capsys, "kappa", "graph", str(path), "--output", "json")
        assert code == 0
        record = json.loads(out)
        assert record["method"] == "quotient"
        assert int(record["kappa_decimal"]) == value
        _, out, _ = run(capsys, "kappa", "graph", str(path), "--method", "matrix-tree",
                        "--output", "json")
        assert json.loads(out)["kappa_decimal"] == record["kappa_decimal"]


def test_dihedral_beyond_the_oracle_reach_answers_through_its_quotient(capsys):
    # the reflections hang off the identity as pendants, so kappa(D_n) =
    # kappa(Z_n); matrix-tree would take a 2309 x 2309 determinant
    code, out, _ = run(capsys, "kappa", "group", "dihedral:1155", "--output", "json")
    assert code == 0
    record = json.loads(out)
    assert (record["method"], record["vertex_count"]) == ("quotient", 2310)
    assert int(record["kappa_decimal"]) == F.kappa_cyclic(1155).value()


@pytest.mark.parametrize("header", ["0", "-1"])
def test_empty_graph_file_is_a_usage_error(capsys, tmp_path, header):
    path = tmp_path / "empty.txt"
    path.write_text(header + "\n")
    for argv in (("kappa", "graph", str(path)),
                 ("export", "graph", str(path), "--format", "edges")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "at least one vertex" in err


def test_main_builds_its_parser_once(capsys, monkeypatch):
    run(capsys, "kappa", "zn", "4")
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (("kappa", "zn", "4"), ("kappa", "expr", "K(3)", "--output", "json"),
                 ("export", "zn", "6", "--format", "json")):
        code, _, _ = run(capsys, *argv)
        assert code == 0
    assert built == []


def test_kappa_loads_no_process_pool(tmp_path):
    # nor a module or a name that only verify and export run, on any kind of request
    src = Path(cli.__file__).resolve().parents[1]
    base = tmp_path / "base.txt"
    base.write_text("3\n0 1\n1 2\n")
    requests = [["group", "dihedral:5"], ["group", "dihedral:5", "--method", "matrix-tree"],
                ["zn", "12"], ["replaced", str(base), "--sizes", "2,3,1"], ["graph", str(base)],
                ["expr", "K(1)*(K(2)+2#K(1))"]]
    modules = ("multiprocessing", "concurrent.futures", "powertrees.audits", "powertrees.export",
               "powertrees.verify")
    names = ("kappa_via_jl", "laplacian_char_poly", "shifted_product_integer_check",
             "kappa_clique_replaced_path", "graph_expr", "to_dot", "to_edge_list_text")
    code = (
        "import sys; from powertrees import cli\n"
        f"for argv in {requests!r}: cli.main(['kappa', *argv])\n"
        f"print([m for m in {modules!r} if m in sys.modules])\n"
        "print(sorted(f'{m}.{a}' for m, mod in list(sys.modules.items()) if m.startswith('powertrees')"
        f" for a in {names!r} if hasattr(mod, a)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout.splitlines() == ["125", "125", "7823278080", "540", "1", "3", "[]", "[]"]


def test_cyclic_30030_quotient_fits_in_one_gib():
    # its power graph has 284M edges, whose sets once exhausted memory; kept
    # as one set per distinct closed neighbourhood it fits well within the
    # cap, and the quotient of the group equals the cyclic closed form
    src = Path(cli.__file__).resolve().parents[1]

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    def kappa(*argv):
        proc = subprocess.run([sys.executable, "-m", "powertrees.cli", "kappa", *argv, "--output", "factored"],
                              env={**os.environ, "PYTHONPATH": str(src)}, preexec_fn=capped,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-500:]
        return proc.stdout

    assert kappa("group", "cyclic:30030", "--method", "quotient") == kappa("zn", "30030")


def test_startup_loads_no_dataclasses():
    # -S: no site hook preloads a module before the check
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import powertrees.cli, sys; "
            "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout.splitlines() == ["[]"]


def test_startup_loads_no_random():
    # only the sampled associativity check of a large Cayley table needs it
    src = Path(cli.__file__).resolve().parents[1]
    code = "import powertrees.cli, sys; print('random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout.splitlines() == ["False"]


@pytest.mark.parametrize("extra", [[], ["--sizes", "1,2,1"]], ids=["graph", "replaced"])
def test_a_repeated_edge_line_is_a_usage_error(capsys, tmp_path, extra):
    # the file would describe a doubled edge 0-1 (kappa 2), not the path (kappa 1)
    path = tmp_path / "doubled.txt"
    path.write_text("3\n0 1\n0 1\n1 2\n")
    kind = "replaced" if extra else "graph"
    code, out, err = run(capsys, "kappa", kind, str(path), *extra)
    assert code == 2 and out == ""
    assert err == "error: edge (0,1) is listed twice\n"
    # an edge line of three fields
    path.write_text("3\n0 1 2\n1 2\n")
    code, out, err = run(capsys, "kappa", kind, str(path), *extra)
    assert code == 2 and out == ""
    assert err == "error: bad edge line: '0 1 2'\n"
    # a field that is no integer, on an edge line and on the first line
    for text, message in (("3\n0 x\n", "bad edge line: '0 x'"),
                          ("x\n0 1\n", "bad vertex count line: 'x'")):
        path.write_text(text)
        code, out, err = run(capsys, "kappa", kind, str(path), *extra)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_factored_output_multiplies_nothing_out(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("kappa was multiplied out")

    monkeypatch.setattr(FactoredNat, "value", refuse)
    code, out, _ = run(capsys, "kappa", "zn", "30", "--output", "factored")
    assert code == 0 and out.strip() == "2^14 * 3^16 * 5^14 * 7^2 * 23^7 * 104947"


@pytest.mark.parametrize("target", ["-3", "0", "2.5", "twelve"])
def test_zn_target_must_be_a_positive_integer(capsys, target):
    for argv in (("kappa", "zn", target), ("kappa", "zn", target, "--method", "quotient"),
                 ("export", "zn", target, "--format", "json"),
                 ("export", "zn", target, "--format", "edges")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"zn target must be an integer n >= 1, got {target!r}" in err


@pytest.mark.parametrize("target", ["quaternion:12", "heisenberg:31"])
def test_spectrum_route_past_a_thousand_union_parts(capsys, target):
    # 1025 and 993 parts in the clique form's union
    outs = []
    for method in ("spectrum", "formula"):
        code, out, _ = run(capsys, "kappa", "group", target, "--method", method,
                           "--output", "factored")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_expr_with_thousands_of_copies(capsys):
    # the star K(1,2000) has one spanning tree
    assert run(capsys, "kappa", "expr", "2000#K(1)*K(1)") == (0, "1\n", "")


@pytest.mark.parametrize("target", ["0#K(1)", "2#0#K(1)", "K(1)*0#K(2)"])
def test_expr_with_zero_copies_is_a_usage_error(capsys, target):
    code, out, err = run(capsys, "kappa", "expr", target)
    assert code == 2 and out == ""
    assert "c#x needs c >= 1, at position" in err


@pytest.mark.parametrize("target", ["(" * 400 + "K(1)" + ")" * 400,
                                    "1000#1000#1000#K(1)"])
def test_expr_beyond_the_parser_bounds_is_a_usage_error(capsys, target):
    code, out, err = run(capsys, "kappa", "expr", target)
    assert code == 2 and out == "" and len(err.splitlines()) == 1


def test_out_of_memory_exits_2(capsys, monkeypatch):
    # a determinant whose rows exceed the address space is no traceback
    def exhausted(g):
        raise MemoryError

    monkeypatch.setattr(cli, "kappa_matrix_tree", exhausted)
    code, out, err = run(capsys, "kappa", "zn", "6", "--method", "matrix-tree")
    assert (code, out) == (2, "") and err.startswith("error: out of memory")


def test_a_prime_beyond_the_certified_range_exits_4(capsys):
    # q lies past the deterministic Miller-Rabin bound, so its primality
    # cannot be certified
    code, out, err = run(capsys, "kappa", "group", "psl2:3317044064679887385961987:1")
    assert code == 4 and out == ""
    assert err == (
        "error: beyond the certified range: cannot certify primality of "
        "3317044064679887385961987: out of deterministic range\n"
    )


def test_an_internal_consistency_error_exits_3(capsys, monkeypatch):
    def inexact(target, spec):
        raise InternalConsistencyError("inexact division")

    monkeypatch.setitem(cli.ROUTES["zn"], "formula", inexact)
    code, out, err = run(capsys, "kappa", "zn", "12")
    assert (code, out, err) == (3, "", "internal consistency error: inexact division\n")


ZN6_DOT = """graph G {
  0 [label="6.0"];
  1 [label="6.1"];
  2 [label="3.0"];
  3 [label="3.1"];
  4 [label="2.0"];
  5 [label="1.0"];
  0 -- 1;
  0 -- 2;
  0 -- 3;
  0 -- 4;
  0 -- 5;
  1 -- 2;
  1 -- 3;
  1 -- 4;
  1 -- 5;
  2 -- 3;
  2 -- 5;
  3 -- 5;
  4 -- 5;
}
"""


@pytest.mark.parametrize("kind,target,sizes", [
    ("group", "dihedral:5", None),
    ("expr", "K(1)*(K(2)+2#K(1))", None),
    ("replaced", "path3", "2,3,1"),
    ("zn", "6", None),
])
def test_export_prints_the_bytes_it_writes(capsys, tmp_path, kind, target, sizes):
    if kind == "zn":
        graph = clique_replaced(F.divisor_clique_spec(int(target)))
    elif kind == "group":
        graph = power_graph(build_group(GroupSpec.parse(target)))
    elif kind == "expr":
        graph = expr_to_graph(parse_expr(target))
    else:
        base = tmp_path / "path3.txt"
        base.write_text("3\n0 1\n1 2\n")
        target = str(base)
        graph = clique_replaced(CliqueReplacedSpec(path_graph(3), (2, 3, 1)))
    argv = ("export", kind, target, *(("--sizes", sizes) if sizes else ()))
    _, kappa, _ = run(capsys, "kappa", *argv[1:], "--output", "factored")
    for fmt in ("dot", "edges", "json"):
        code, printed, err = run(capsys, *argv, "--format", fmt)
        assert code == 0 and err == ""
        path = tmp_path / f"graph.{fmt}"
        assert run(capsys, *argv, "--format", fmt, "--out", str(path)) == (0, "", "")
        assert path.read_bytes() == printed.encode()
        assert printed.endswith("\n") and not printed.endswith("\n\n")
    # the edge list read back as a graph target has the target's kappa
    assert run(capsys, "kappa", "graph", str(tmp_path / "graph.edges"), "--output", "factored") == (
        0, kappa, "")
    record = json.loads((tmp_path / "graph.json").read_text())
    assert record["vertex_count"] == graph.n
    if kind == "zn":  # its json is the divisor description; its dot is pinned to the byte
        assert (record["divisors"], record["sizes"]) == ([6, 3, 2, 1], [2, 2, 1, 1])
        assert (tmp_path / "graph.dot").read_text() == ZN6_DOT
        return
    assert record["edges"] == [list(e) for e in graph.edges()]
    assert record["labels"] == [graph.label(v) for v in range(graph.n)]


def test_export_as_main_loads_cli_once():
    # export imports nothing from cli, so `-m powertrees.cli export` does not
    # compile cli a second time under its module name
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "powertrees.cli",
                           "export", "zn", "6", "--format", "dot"],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout == ZN6_DOT
    loaded = [line.split("|")[-1].strip() for line in proc.stderr.splitlines()]
    assert "powertrees.export" in loaded and "powertrees.cli" not in loaded
