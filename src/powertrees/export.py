"""The `export` command's writers: a graph as Graphviz dot, an edge list or
json, or a zn target's divisor description as json.  Nothing a `kappa` route
runs lives here; `cli.cmd_export` resolves the target and loads this module
for that command, never at start-up.  It imports nothing from `cli`."""

from __future__ import annotations

import json
import sys

from . import formulas as F
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


def run(target: SimpleGraph | int, fmt: str, out: str | None) -> int:
    """Write a graph, or a zn target's order n for json, to out (default stdout)."""
    if isinstance(target, int):
        text = _zn_description(target)
    elif fmt == "dot":
        text = to_dot(target)
    elif fmt == "edges":
        text = to_edge_list_text(target)
    elif fmt == "json":
        text = _graph_json(target)
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    text = text if text.endswith("\n") else text + "\n"  # json ends in no newline
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0
