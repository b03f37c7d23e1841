"""Spans recorded from outside the program, by wrappers installed on the
module-level names that callers look up.

Each wrapper opens a span around the call.  Spans are held in memory on a
stack, so a span's self time is its duration minus its child spans; they are
aggregated and written out when the run ends.  A target that a later version
of the program no longer has is reported as absent instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

CLOSED_FORMS = ("kappa_psl2", "kappa_quaternion", "kappa_epo", "kappa_heisenberg", "kappa_frobenius_pq")

# (module, attribute, span name).  A name is wrapped in every module whose
# code looks it up, because `from x import f` copies the binding.
TARGETS = (
    [(m, "build_group", "groups.build_group") for m in ("cli", "verify")]
    + [(m, "power_graph", "groups.power_graph") for m in ("cli", "verify")]
    + [(m, "kappa_matrix_tree", "linalg.kappa_matrix_tree") for m in ("cli", "verify")]
    + [(m, "det_bareiss", "linalg.det_bareiss") for m in ("linalg", "formulas")]
    + [("verify", "laplacian_char_poly", "linalg.laplacian_char_poly")]
    + [("formulas", "clique_replaced_value", "formulas.clique_replaced_value")]
    + [("formulas", "kappa_cyclic", "formulas.kappa_cyclic")]
    + [("formulas", f, "formulas.closed_forms") for f in CLOSED_FORMS]
    + [("formulas", "kappa_clique_replaced_smatrix", "formulas.kappa_clique_replaced_smatrix")]
    + [(m, "clique_replaced", "graphs.clique_replaced") for m in ("cli", "verify")]
    + [(m, "universal_vertices", "graphs.universal_vertices") for m in ("cli", "verify")]
    + [(m, "expr_to_graph", "spectra.expr_to_graph") for m in ("cli", "verify")]
    + [(m, "spectrum", "spectra.spectrum") for m in ("cli", "verify", "formulas")]
    + [("numth", "FactoredNat.from_int", "numth.FactoredNat.from_int")]
    + [("verify", "_run_group", "verify")]
)

GRAPH_BUILDERS = ("groups.power_graph", "graphs.clique_replaced", "spectra.expr_to_graph")

# Counts and the spans they are taken at.  All but the call count are
# computed from a call's arguments and result (COMPUTED): they depend only on
# the inputs, so they repeat exactly from run to run.
COUNT_SPANS = {
    "groups.table_cells": ("groups.build_group",),
    "linalg.det_bareiss.calls": ("linalg.det_bareiss",),
    "linalg.det_work": ("linalg.det_bareiss",),
    "linalg.det_bits": ("linalg.det_bareiss",),
    "formulas.subset_masks": ("formulas.clique_replaced_value", "formulas.kappa_cyclic"),
    "graphs.vertices": GRAPH_BUILDERS,
    "graphs.edges": GRAPH_BUILDERS,
}
COMPUTED = tuple(name for name in COUNT_SPANS if not name.endswith(".calls"))


def is_absent(metric: str, absent_targets) -> bool:
    """True when every wrapper the metric is taken from had no target."""
    if metric in COUNT_SPANS:
        wanted = COUNT_SPANS[metric]
    elif metric.startswith("verify."):
        wanted = ("verify",)
    else:
        wanted = (metric.rpartition(".")[0],)
    targets = [f"{m}.{a}" for m, a, span in TARGETS if span in wanted]
    return bool(targets) and all(t in absent_targets for t in targets)


def _non_universal(adj) -> int:
    k = len(adj)
    return sum(1 for nb in adj if len(nb) != k - 1)


def _cyclic_interior(n: int) -> int:
    """Non-universal vertices of the divisor graph of n, whose subsets the
    interior sum runs over; -1 when n <= 1 or a prime power, which skip it."""
    divs = [d for d in range(1, n + 1) if n % d == 0]
    if n < 2 or _prime_power(n):
        return -1
    return sum(1 for d in divs if any(d % e and e % d for e in divs))


def _prime_power(n: int) -> bool:
    p = next(p for p in range(2, n + 1) if n % p == 0)
    while n % p == 0:
        n //= p
    return n == 1


def _count(tr: "Tracer", span: str, args, result) -> None:
    c = tr.counts
    if span == "groups.build_group":
        c["groups.table_cells"] += result.order**2
    elif span in GRAPH_BUILDERS:
        c["graphs.vertices"] += result.n
        c["graphs.edges"] += result.edge_count
    elif span == "linalg.det_bareiss":
        c["linalg.det_bareiss.calls"] += 1
        c["linalg.det_work"] += args[0].rows ** 3
        c["linalg.det_bits"] += abs(result).bit_length()
    elif span == "formulas.clique_replaced_value":
        c["formulas.subset_masks"] += 2 ** _non_universal(args[0].base.adj)
    elif span == "formulas.kappa_cyclic":
        s = _cyclic_interior(args[0])
        if s >= 0:
            c["formulas.subset_masks"] += 2**s


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # open spans: [call path, start, time covered by child spans]
        self.stack: list[list] = []
        # closed spans, aggregated by call path: [calls, total s, self s]
        self.paths: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        # spans whose arguments or result no longer have the shape a count reads
        self.uncounted: set[str] = set()

    def span(self, name: str, fn, *args, **kwargs):
        path = f"{self.stack[-1][0]}/{name}" if self.stack else name
        frame = [path, self.clock(), 0.0]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self.clock() - frame[1]
            self.stack.pop()
            agg = self.paths[path]
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - frame[2]
            if self.stack:
                self.stack[-1][2] += duration

    def wrap(self, span: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = f"verify.{args[0]}" if span == "verify" else span
            result = self.span(name, fn, *args, **kwargs)
            try:
                _count(self, span, args, result)
            except (AttributeError, TypeError, IndexError):
                self.uncounted.add(span)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, span in TARGETS:
            try:
                module = importlib.import_module(f"powertrees.{module_name}")
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                fn = getattr(owner, fn_name)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapped = self.wrap(span, fn)
            # a class attribute is wrapped as bound, so it stays callable as before
            setattr(owner, fn_name, staticmethod(wrapped) if owner_name else wrapped)

    def summary(self) -> dict:
        """Per span name: calls, self time in ms and inclusive time in s;
        the counts; the absent targets and the spans whose counts could not
        be taken; and the span tree by call path."""
        calls: dict[str, int] = defaultdict(int)
        self_ms: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for path, (n, total, own) in self.paths.items():
            name = path.rpartition("/")[2]
            calls[name] += n
            self_ms[name] += own * 1000.0
            total_s[name] += total
        return {
            "calls": dict(calls),
            "self_ms": dict(self_ms),
            "total_s": dict(total_s),
            "counts": dict(self.counts),
            "absent": self.absent,
            "uncounted": sorted(self.uncounted),
            "paths": {p: {"calls": n, "total_s": t, "self_s": o} for p, (n, t, o) in sorted(self.paths.items())},
        }
