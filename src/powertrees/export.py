"""The `export` command: a target's graph as Graphviz dot, an edge list or
json, or a zn target's divisor description as json.  Nothing a `kappa` route
runs lives here; `cli.cmd_export` loads it for that command, never at start-up.
"""

from __future__ import annotations

import json
import sys

from . import formulas as F
from .cli import Request, UsageError, _expand, _family_spec, _load_target, _parse_sizes, _zn_order
from .graphs import SimpleGraph
from .numth import divisors_desc


def to_edge_list_text(g: SimpleGraph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def to_dot(g: SimpleGraph) -> str:
    lines = ["graph G {"]
    for v in range(g.n):
        lines.append(f'  {v} [label="{g.label(v)}"];')
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _zn_description(n: int) -> str:
    spec = F.divisor_clique_spec(n)
    return json.dumps(
        {
            "n": n,
            "divisors": divisors_desc(n),
            "sizes": list(spec.sizes),
            "base_edges": list(spec.base.edges()),
            "vertex_count": spec.n,
        }
    )


def _graph_json(g: SimpleGraph) -> str:
    return json.dumps(
        {
            "vertex_count": g.n,
            "edges": list(g.edges()),
            "labels": [g.label(v) for v in range(g.n)],
        }
    )


def run(args) -> int:
    sizes = _parse_sizes(args.kind, args.sizes)
    req = Request(args.kind, args.target, sizes, "auto", "decimal")
    if args.format == "json" and args.kind == "zn":
        text = _zn_description(_zn_order(args.target))
    else:
        graph = _expand(_load_target(req, _family_spec(req)))
        if args.format == "dot":
            text = to_dot(graph)
        elif args.format == "edges":
            text = to_edge_list_text(graph)
        elif args.format == "json":
            text = _graph_json(graph)
        else:
            raise UsageError(f"unknown export format {args.format!r}")
    text = text if text.endswith("\n") else text + "\n"  # json ends in no newline
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0
