"""Command-line front-end.

    powertrees kappa  {group,graph,expr,zn,replaced} TARGET [options]
    powertrees verify {quick,full} [--jobs K]
    powertrees export {group,graph,expr,zn,replaced} TARGET --format {dot,edges,json}

Methods, each a row of `ROUTES`: `matrix-tree` is the determinant oracle on
the explicit graph (linalg.kappa_matrix_tree peels its universal vertices off
level by level and takes one determinant per non-clique component left).
`quotient` takes a clique spec's base apart by components and co-components,
one determinant per distinct prime part (formulas.kappa_quotient): a zn or
replaced spec as loaded, a group or graph through its graph's closed-twin
quotient.  `formula` is a group family's closed form (cyclic:n for zn n), or
the one-determinant clique-replaced formula for replaced; `spectrum`
evaluates a clique expression's Laplacian spectrum.  `auto` takes `formula`
where the target has it, else `quotient`, else `spectrum` (expr);
matrix-tree is a route like the others that auto never picks.  The
contraction matrix (formulas.smatrix) is no route, only an audited claim.

Factoring follows one rule on every route: every prime of the small bases of
kappa (block sizes, m_i, eigenvalues, n) is certified, and each determinant is
trial-divided up to max(n, 1000), n the vertex count.  The oracle knows no
bases, so its determinant is its whole kappa.

Exit codes: 0 success, 1 verification mismatch, 2 usage error or out of memory,
3 internal consistency error, 4 a number past the certified primality range.
KAPPA_SEED fixes the randomized-case seed for verify.  `verify` (with the
`audits` it checks) and `export` load their own modules when they run.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import formulas as F
from .graphs import (
    CliqueReplacedSpec,
    SimpleGraph,
    clique_replaced,
    from_edge_list_text,
    twin_quotient,
    universal_vertices,
)
from .groups import (
    FAMILIES,
    FAMILY_USAGE,
    GroupSpec,
    build_group,
    family_expr,
    power_graph,
)
from .linalg import InternalConsistencyError, kappa_matrix_tree
from .numth import FactoredNat, PrimalityRangeError, Value
from .spectra import expr_to_graph, kappa_from_spectrum, parse_expr, spectrum, universal_count


class UsageError(ValueError):
    pass


METHODS = ("auto", "matrix-tree", "quotient", "formula", "spectrum")
KINDS = ("group", "graph", "expr", "zn", "replaced")
TARGET_HELP = f"group spec ({FAMILY_USAGE}), edge-list file, expression string, or n"


class Request(Value):
    __slots__ = ("kind", "target", "sizes", "method", "output")


class ResultRecord(Value):
    __slots__ = ("input", "method", "kappa", "vertex_count", "universal_count", "elapsed_ms")

    def to_json(self) -> str:
        return json.dumps(
            {
                "input": self.input,
                "method": self.method,
                "kappa_decimal": str(self.kappa.value()),
                "kappa_factored": {
                    "factors": [[p, e] for p, e in self.kappa.factors],
                    "residual": self.kappa.residual,
                },
                "vertex_count": self.vertex_count,
                "universal_count": self.universal_count,
                "elapsed_ms": self.elapsed_ms,
            }
        )


def _family_spec(req: Request) -> GroupSpec | None:
    """A group target's family spec, cyclic:n for zn n, None for other kinds."""
    if req.kind == "group":
        return GroupSpec.parse(req.target)
    if req.kind == "zn":
        return GroupSpec("cyclic", (_zn_order(req.target),))
    return None


def _load_target(req: Request, spec: GroupSpec | None):
    """Resolve the request target: a group target is its power graph, since
    every route that loads a group needs it; a graph target is its graph, an
    expr target its expression and a zn or replaced target its clique spec,
    which quotient counts as it is; only matrix-tree and export expand it
    (_expand), to one set per distinct neighbourhood.  spec is its family spec."""
    kind = req.kind
    if kind == "group":
        return power_graph(build_group(spec))
    if kind == "graph":
        with open(req.target, "r", encoding="utf-8") as fh:
            return from_edge_list_text(fh.read())
    if kind == "expr":
        return parse_expr(req.target)
    if kind == "zn":
        return F.divisor_clique_spec(*spec.params)
    if kind == "replaced":
        if not req.sizes:
            raise UsageError("replaced targets need --sizes x1,x2,...")
        with open(req.target, "r", encoding="utf-8") as fh:
            base = from_edge_list_text(fh.read())
        return CliqueReplacedSpec(base, req.sizes)
    raise UsageError(f"unknown target kind {kind!r}")


def _expand(target) -> SimpleGraph:
    """The explicit graph of a loaded target, for matrix-tree and export.  A
    group's is its power graph, so the oracle does not use its clique spec."""
    if isinstance(target, CliqueReplacedSpec):
        return clique_replaced(target)
    if isinstance(target, SimpleGraph):
        return target
    return expr_to_graph(target)


def _vertex_counts(target) -> tuple[int, int]:
    """(vertex count, universal count) of a graph, a clique spec or an
    expression.  A vertex of block j of a spec has degree m_j - 1, so it is
    universal iff m_j == n."""
    if isinstance(target, SimpleGraph):
        return target.n, len(universal_vertices(target))
    if isinstance(target, CliqueReplacedSpec):
        n = target.n
        return n, sum(x for x, m in zip(target.sizes, target.m) if m == n)
    return target.n, universal_count(target)


def _matrix_tree(target, _) -> FactoredNat:
    g = _expand(target)
    return FactoredNat.from_int(kappa_matrix_tree(g), max(g.n, 1000))


def _quotient(target: SimpleGraph | CliqueReplacedSpec, _) -> FactoredNat:
    if isinstance(target, CliqueReplacedSpec):
        return F.kappa_quotient(target)
    spec = twin_quotient(target)  # None for a disconnected graph
    return F.kappa_quotient(spec) if spec else FactoredNat.zero()


def _closed_form(_, spec: GroupSpec) -> FactoredNat:
    return FAMILIES[spec.family].closed_form(*spec.params)


# Each target kind's routes, in the order a usage error lists them, the
# matrix-tree oracle first.  A route takes the loaded target (a group's power
# graph; None where the counts come from the family) and the target's family
# spec.  A group has formula only with its family's closed form, spectrum only
# with its clique form.
ROUTES = {
    "group": {
        "matrix-tree": _matrix_tree,
        "quotient": _quotient,
        "formula": _closed_form,
        "spectrum": lambda _, spec: kappa_from_spectrum(spectrum(family_expr(spec))),
    },
    "graph": {"matrix-tree": _matrix_tree, "quotient": _quotient},
    "expr": {"matrix-tree": _matrix_tree, "spectrum": lambda e, _: kappa_from_spectrum(spectrum(e))},
    "zn": {"matrix-tree": _matrix_tree, "quotient": _quotient, "formula": _closed_form},
    "replaced": {
        "matrix-tree": _matrix_tree,
        "quotient": _quotient,
        "formula": lambda spec, _: F.kappa_clique_replaced_formula(spec),
    },
}
AUTO = ("formula", "quotient", "spectrum")  # auto: the first of these a target has


def compute_kappa(req: Request) -> ResultRecord:
    start = time.perf_counter()
    spec = _family_spec(req)
    routes = ROUTES[req.kind]
    if spec:
        family = FAMILIES[spec.family]
        absent = {"formula": not family.closed_form, "spectrum": not family.clique_expr}
        routes = {m: route for m, route in routes.items() if not absent.get(m)}
    method = next(m for m in AUTO if m in routes) if req.method == "auto" else req.method
    if method not in routes:
        valid = ", ".join(["auto", *routes])
        raise UsageError(f"method {method!r} not valid for this target; valid: {valid}")
    # formula and spectrum read a family's counts; the other routes load the target
    counts = method in ("formula", "spectrum") and spec and FAMILIES[spec.family].counts
    target = None if counts else _load_target(req, spec)
    kappa = routes[method](target, spec)
    vertex_count, universal = counts(*spec.params) if counts else _vertex_counts(target)
    elapsed = (time.perf_counter() - start) * 1000.0
    sizes = f" sizes={','.join(map(str, req.sizes))}" if req.sizes else ""
    return ResultRecord(f"{req.kind} {req.target}{sizes}", method, kappa, vertex_count, universal,
                        round(elapsed, 3))


def _emit_record(record: ResultRecord, output: str) -> str:
    if output == "decimal":
        return str(record.kappa.value())
    if output == "factored":
        return str(record.kappa)
    if output == "json":
        return record.to_json()
    raise UsageError(f"unknown output format {output!r}")


def _zn_order(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = None
    if n is None or n < 1:
        raise UsageError(f"zn target must be an integer n >= 1, got {text!r}")
    return n


def _parse_sizes(kind: str, text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    if kind != "replaced":
        raise UsageError(f"--sizes applies only to replaced targets, not to {kind} targets")
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --sizes value {text!r}: {exc}") from None


def cmd_kappa(args) -> int:
    req = Request(args.kind, args.target, _parse_sizes(args.kind, args.sizes), args.method,
                  args.output)
    record = compute_kappa(req)
    print(_emit_record(record, req.output))
    return 0


def cmd_verify(args) -> int:
    from . import verify  # loaded for this command only

    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    started = time.perf_counter()
    report, code = verify.run_suite(args.suite, jobs=args.jobs)
    print(report, end="")
    print(f"elapsed: {time.perf_counter() - started:.1f}s", file=sys.stderr)
    return code


def cmd_export(args) -> int:
    from . import export  # loaded for this command only
    req = Request(args.kind, args.target, _parse_sizes(args.kind, args.sizes), "auto", "decimal")
    zn_json = args.format == "json" and args.kind == "zn"  # the divisor description, not a graph
    target = _zn_order(args.target) if zn_json else _expand(_load_target(req, _family_spec(req)))
    return export.run(target, args.format, args.out)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one argument parser of the process; main parses every argv with it."""
    parser = argparse.ArgumentParser(
        prog="powertrees",
        description="Exact spanning-tree counts for power graphs and clique-replaced graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_kappa = sub.add_parser("kappa", help="compute a spanning-tree count")
    p_kappa.add_argument("kind", choices=KINDS)
    p_kappa.add_argument("target", help=TARGET_HELP)
    p_kappa.add_argument("--sizes", help="comma-separated block sizes for 'replaced'")
    p_kappa.add_argument("--method", choices=METHODS, default="auto",
                         help="route: matrix-tree (the determinant oracle on the "
                              "explicit graph, peeled at its universal vertices), quotient "
                              "(the clique spec's base split by components and co-components, "
                              "one determinant per distinct prime part: a zn or replaced spec "
                              "as given, a group or graph through its closed-twin blocks), "
                              "formula or spectrum; auto takes formula where the target has "
                              "it, else quotient, else spectrum.  Every route certifies the "
                              "primes of the small bases (sizes, degrees, eigenvalues, n) and "
                              "trial-divides each determinant (the whole kappa on matrix-tree) "
                              "up to max(n, 1000), n the vertex count")
    p_kappa.add_argument("--output", choices=("decimal", "factored", "json"), default="decimal")
    p_kappa.set_defaults(fn=cmd_kappa)

    p_verify = sub.add_parser("verify", help="run the formula-vs-oracle suites")
    p_verify.add_argument("suite", choices=("quick", "full"))
    p_verify.add_argument("--jobs", type=int, default=1, metavar="K",
                          help="worker processes for independent cases")
    p_verify.set_defaults(fn=cmd_verify)

    p_export = sub.add_parser("export", help="write a constructed graph to a file")
    p_export.add_argument("kind", choices=KINDS)
    p_export.add_argument("target", help=TARGET_HELP)
    p_export.add_argument("--sizes", help="comma-separated block sizes for 'replaced'")
    p_export.add_argument("--format", choices=("dot", "edges", "json"), required=True)
    p_export.add_argument("--out", help="output file (default stdout)")
    p_export.set_defaults(fn=cmd_export)

    return parser


def main(argv=None) -> int:
    # exact counts outgrow the default 4300-digit int/str conversion limit
    # (Python >= 3.10.7); older versions have no limit to lift
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PrimalityRangeError as exc:
        print(f"error: beyond the certified range: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:  # UsageError, GroupConstructionError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: the request is too large for this process", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
