"""Command-line front-end.

    powertrees kappa  {group,graph,expr,zn,replaced} TARGET [options]
    powertrees verify {quick,full} [--jobs K]
    powertrees export {group,graph,expr,zn,replaced} TARGET --format {dot,edges,json}

TARGET is a group spec FAMILY:PARAMS (dihedral:5), an edge-list file, a clique
expression (K(1)*(K(2)+2#K(1))) or n.  -h or --help prints this text.  Options
come anywhere after the command, as --flag VALUE or --flag=VALUE:

    --sizes X1,X2,...  block sizes of a replaced target, comma-separated
    --method M         kappa's route: auto (default), matrix-tree, quotient, formula, spectrum
    --output O         kappa's output: decimal (default), factored or json
    --format F         export's format, required: dot, edges or json
    --out FILE         export's output file (default stdout)
    --jobs K           verify's worker processes (default 1)

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
OUTPUTS = ("decimal", "factored", "json")


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
    if kind == "expr":
        return parse_expr(req.target)
    if kind == "zn":
        return F.divisor_clique_spec(*spec.params)
    if kind == "replaced" and not req.sizes:
        raise UsageError("replaced targets need --sizes x1,x2,...")
    with open(req.target, "r", encoding="utf-8") as fh:  # a graph, or a replaced target's base
        graph = from_edge_list_text(fh.read())
    return CliqueReplacedSpec(graph, req.sizes) if kind == "replaced" else graph


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
    if output == "json":
        return record.to_json()
    return str(record.kappa.value() if output == "decimal" else record.kappa)


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


def cmd_kappa(kind, target, sizes, method, output) -> int:
    req = Request(kind, target, _parse_sizes(kind, sizes), method, output)
    record = compute_kappa(req)
    print(_emit_record(record, req.output))
    return 0


def cmd_verify(suite, jobs) -> int:
    from . import verify  # loaded for this command only

    if jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {jobs}")
    started = time.perf_counter()
    report, code = verify.run_suite(suite, jobs=jobs)
    print(report, end="")
    print(f"elapsed: {time.perf_counter() - started:.1f}s", file=sys.stderr)
    return code


def cmd_export(kind, target, sizes, format, out) -> int:
    from . import export  # loaded for this command only
    req = Request(kind, target, _parse_sizes(kind, sizes), "auto", "decimal")
    zn_json = format == "json" and kind == "zn"  # the divisor description, not a graph
    loaded = _zn_order(target) if zn_json else _expand(_load_target(req, _family_spec(req)))
    return export.run(loaded, format, out)


REQUIRED = ...  # the default of an option that must be given
TARGET = (("kind", KINDS), ("target", str))
SIZES = ("--sizes", str, None)

# Each command's row: its function, its positionals (a name, and its choices
# or a type) and its options (a flag, its choices or a type, and its default
# or REQUIRED).  The function takes every positional and option by name.
COMMANDS = {
    "kappa": (cmd_kappa, TARGET,
              (SIZES, ("--method", METHODS, "auto"), ("--output", OUTPUTS, "decimal"))),
    "verify": (cmd_verify, (("suite", ("quick", "full")),), (("--jobs", int, 1),)),
    "export": (cmd_export, TARGET,
               (SIZES, ("--format", ("dot", "edges", "json"), REQUIRED), ("--out", str, None))),
}


def build_parser() -> dict:
    """The command table that parse_args reads every argv against."""
    return COMMANDS


def _convert(name: str, kind, word: str):
    """word as the value of argument name: one of its choices, or of its type."""
    if isinstance(kind, tuple) and word not in kind:
        raise UsageError(f"argument {name}: invalid choice: {word!r} (choose from {', '.join(kind)})")
    try:
        return word if isinstance(kind, tuple) else kind(word)
    except ValueError:
        raise UsageError(f"argument {name}: invalid {kind.__name__} value: {word!r}") from None


def parse_args(argv: list[str]):
    """(the command's function, its arguments by name), read from argv against
    the command's row of COMMANDS.  A word that starts with -- is a flag, so
    a negative number is a value.  A malformed argv raises UsageError."""
    if not argv:
        raise UsageError("the following arguments are required: command")
    fn, positionals, options = COMMANDS[_convert("command", tuple(COMMANDS), argv[0])]
    kinds = {flag: kind for flag, kind, _ in options}
    args = {flag[2:]: default for flag, _, default in options}
    words, seen, extra = iter(argv[1:]), 0, []
    for word in words:
        flag, eq, value = word.partition("=")
        if flag in kinds:
            value = value if eq else next(words, "--")
            if value.startswith("--"):
                raise UsageError(f"argument {flag}: expected one argument")
            args[flag[2:]] = _convert(flag, kinds[flag], value)
        elif word.startswith("--") or seen == len(positionals):
            extra.append(word)
        else:
            name, kind = positionals[seen]
            args[name] = _convert(name, kind, word)
            seen += 1
    missing = [name for name, _ in positionals[seen:]]
    missing += [flag for flag, _, _ in options if args[flag[2:]] is REQUIRED]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extra:
        raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
    return fn, args


def main(argv=None) -> int:
    # exact counts outgrow the default 4300-digit int/str conversion limit
    # (Python >= 3.10.7); older versions have no limit to lift
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(__doc__, end="")
        return 0
    try:
        fn, args = parse_args(argv)
        return fn(**args)
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
