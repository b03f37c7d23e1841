"""Rebuild perfbench/pool.json: every request the `groups` and `clique`
workloads can draw, each with a golden spanning-tree count, its provenance
and a cost band, plus the verify case names at this commit.

    PYTHONPATH=src python3 perfbench/make_pool.py

Takes several minutes.  Golden values come from at least two routes that
must agree, named in each entry's "provenance":

- "bareiss": the program's matrix-tree determinant on the program's graph,
  where it takes at most seconds (n <= 400);
- "twin-quotient": golden.py, which shares no code with the program's routes;
- "closed-form:NAME", "smatrix", "spectrum": the program's closed forms,
  contraction-matrix route and integer-spectrum route, which `verify` audits
  against the determinant; they stand in for it on large inputs.

The cost bins come from one timing of each request on the machine that
built the pool (recorded under "built_on"); they only group requests of
similar cost so that every seed draws the same mix.  A rebuilt pool bins
its requests anew, so RECIPES in workloads.py must be checked against it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import golden  # noqa: E402
import workloads  # noqa: E402
from worker import parse_report  # noqa: E402
from powertrees import cli, verify  # noqa: E402
from powertrees import formulas as F  # noqa: E402
from powertrees.graphs import CliqueReplacedSpec, SimpleGraph, clique_replaced  # noqa: E402
from powertrees.groups import GroupSpec, build_group, power_graph  # noqa: E402
from powertrees.linalg import kappa_matrix_tree  # noqa: E402
from powertrees.numth import divisors_desc, is_prime  # noqa: E402
from powertrees.spectra import expr_to_graph, kappa_from_spectrum, parse_expr, spectrum  # noqa: E402

POOL_SEED = 1806
BAREISS_MAX_N = 400
MATRIX_TREE_MAX_N = 360
ZN_MAX = 210
ZN_MAX_DIVISORS = 16
EXPR_MAX_N = 2000


def band(ms: float) -> int:
    """Cost band: requests within a factor of two of each other share one."""
    return max(0, int(math.log2(max(ms, 1.0))))


# --- group targets ---


def group_targets() -> list[str]:
    out = [f"psl2:{p}:{n}" for p, n in ((2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1))]
    out += [f"dihedral:{n}" for n in range(3, 101)]
    out += [f"quaternion:{n}" for n in range(3, 10)]
    out += [f"heisenberg:{p}" for p in (3, 5, 7)]
    out += [f"extraspecial:{p}" for p in (3, 5)]
    primes = [p for p in range(2, 400) if is_prime(p)]
    out += [f"frobenius:{p}:{q}" for p in primes for q in primes if p < q and (q - 1) % p == 0 and p * q <= 400]
    out += [f"elementary:{p}:{n}" for p in primes for n in range(2, 10) if p**n <= 512]
    return out


def group_requests() -> list[dict]:
    out = []
    for target in group_targets():
        out.append({"argv": ["group", target]})
        n = build_group(GroupSpec.parse(target)).order
        if n <= MATRIX_TREE_MAX_N and not target.startswith(("dihedral", "extraspecial")):
            # dihedral and extraspecial already take the matrix-tree route under auto
            out.append({"argv": ["group", target, "--method", "matrix-tree"]})
    return out


def group_golden(target: str) -> tuple[int, list[str]]:
    g = power_graph(build_group(GroupSpec.parse(target)))
    routes = {"twin-quotient": golden.kappa_twin_quotient([set(s) for s in g.adj])}
    if g.n <= BAREISS_MAX_N:
        routes["bareiss"] = kappa_matrix_tree(g)
    spec = GroupSpec.parse(target)
    if spec.family in CLOSED_FORMS:
        name, fn = CLOSED_FORMS[spec.family]
        routes[f"closed-form:{name}"] = fn(*spec.params).value()
    return agree(target, routes)


CLOSED_FORMS = {
    "psl2": ("kappa_psl2", F.kappa_psl2),
    "quaternion": ("kappa_quaternion", F.kappa_quaternion),
    "heisenberg": ("kappa_heisenberg", F.kappa_heisenberg),
    "frobenius_pq": ("kappa_frobenius_pq", F.kappa_frobenius_pq),
    "elementary": ("kappa_epo", lambda p, n: F.kappa_epo({p: (p**n - 1) // (p - 1)})),
}


def agree(what: str, routes: dict[str, int]) -> tuple[int, list[str]]:
    values = set(routes.values())
    if len(values) != 1 or len(routes) < 2:
        raise SystemExit(f"golden routes disagree or too few for {what}: {routes}")
    return values.pop(), sorted(routes)


# --- clique targets ---


def zn_requests() -> list[dict]:
    out = []
    for n in range(4, ZN_MAX + 1):
        if is_prime(n) or len(divisors_desc(n)) > ZN_MAX_DIVISORS:
            continue
        out.append({"argv": ["zn", str(n)]})
    return out


def zn_golden(n: int) -> tuple[int, list[str]]:
    adj, sizes = golden.divisor_blocks(n)
    routes = {
        "twin-quotient": golden.kappa_blocks(adj, sizes),
        "bareiss": kappa_matrix_tree(clique_replaced(F.divisor_clique_spec(n))),
    }
    return agree(f"zn {n}", routes)


def random_connected(rng: random.Random, k: int) -> list[tuple[int, int]]:
    edges = {(rng.randrange(v), v) for v in range(1, k)}  # random spanning tree
    density = rng.uniform(0.1, 0.8)
    edges |= {(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < density}
    return sorted(edges)


def replaced_requests(rng: random.Random) -> list[dict]:
    out = []
    for k in range(4, 14):
        for t in range(10):
            edges = random_connected(rng, k)
            sizes = ",".join(str(rng.randint(1, 40)) for _ in range(k))
            out.append(
                {
                    "id": f"replaced base{k:02d}-{t} --sizes {sizes}",
                    "argv": ["replaced", "@base", "--sizes", sizes],
                    "base": {"k": k, "edges": [list(e) for e in edges]},
                }
            )
    return out


def replaced_golden(req: dict) -> tuple[int, list[str]]:
    k, edges = req["base"]["k"], req["base"]["edges"]
    sizes = [int(x) for x in req["argv"][3].split(",")]
    adj = [set() for _ in range(k)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    spec = CliqueReplacedSpec(SimpleGraph(k, [tuple(e) for e in edges]), tuple(sizes))
    routes = {
        "twin-quotient": golden.kappa_blocks(adj, sizes),
        "smatrix": F.kappa_clique_replaced_smatrix(spec).value(),
    }
    if sum(sizes) <= 250:
        routes["bareiss"] = kappa_matrix_tree(clique_replaced(spec))
    return agree(f"replaced {req['argv']}", routes)


# Expressions are trees: ("K", s), ("+", a, b), ("*", a, b), ("#", c, a).


def gen_expr(rng: random.Random, budget: int):
    if budget <= 3 or (budget <= 40 and rng.random() < 0.5):
        return ("K", rng.randint(1, min(budget, 40)))
    r = rng.random()
    if r < 0.35:
        c = rng.randint(2, min(50, budget // 2))
        return ("#", c, gen_expr(rng, budget // c))
    if r < 0.7:
        a = rng.randint(1, budget - 1)
        return ("+", gen_expr(rng, a), gen_expr(rng, budget - a))
    s = rng.randint(1, min(12, budget - 1))
    small, big = gen_expr(rng, s), gen_expr(rng, budget - s)
    return ("*", small, big) if rng.random() < 0.5 else ("*", big, small)


def expr_text(e) -> str:
    def wrap(x):
        return expr_text(x) if x[0] == "K" else f"({expr_text(x)})"

    if e[0] == "K":
        return f"K({e[1]})"
    if e[0] == "#":
        return f"{e[1]}#{wrap(e[2])}"
    return f"{wrap(e[1])}{e[0]}{wrap(e[2])}"


def expr_blocks(e) -> tuple[list[set[int]], list[int]]:
    """Leaf cliques as blocks; two leaves are adjacent when their lowest
    common ancestor is a join."""
    sizes: list[int] = []
    adj: list[set[int]] = []

    def walk(x) -> list[int]:
        if x[0] == "K":
            sizes.append(x[1])
            adj.append(set())
            return [len(sizes) - 1]
        if x[0] == "#":
            return [leaf for _ in range(x[1]) for leaf in walk(x[2])]
        left, right = walk(x[1]), walk(x[2])
        if x[0] == "*":
            for u in left:
                adj[u].update(right)
            for v in right:
                adj[v].update(left)
        return left + right

    walk(e)
    return adj, sizes


def expr_requests(rng: random.Random) -> list[dict]:
    out = []
    while len(out) < 80:
        n = int(math.exp(rng.uniform(math.log(50), math.log(EXPR_MAX_N))))
        s = rng.randint(1, 12)
        e = ("*", gen_expr(rng, s), gen_expr(rng, n - s))
        adj, sizes = expr_blocks(e)
        universal = any(len(a) == len(sizes) - 1 for a in adj)
        if len(sizes) > (400 if universal else 150):
            continue  # keeps the golden determinant small
        out.append({"argv": ["expr", expr_text(e)], "_tree": e})
    return out


def expr_golden(req: dict) -> tuple[int, list[str]]:
    adj, sizes = expr_blocks(req.pop("_tree"))
    expr = parse_expr(req["argv"][1])
    routes = {
        "twin-quotient": golden.kappa_blocks(adj, sizes),
        "spectrum": kappa_from_spectrum(spectrum(expr)).value(),
    }
    if sum(sizes) <= 250:
        routes["bareiss"] = kappa_matrix_tree(expr_to_graph(expr))
    return agree(f"expr {req['argv'][1]}", routes)


# --- assembly ---


def time_request(req: dict, base_dir: Path) -> float:
    argv = list(req["argv"])
    if "base" in req:
        argv[1] = str(base_dir / "base.txt")
        workloads.write_base(req, Path(argv[1]))
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["kappa", *argv, "--output", "json"])
    elapsed = (time.perf_counter() - start) * 1000.0
    if code != 0:
        raise SystemExit(f"request failed with code {code}: {argv}")
    return elapsed


def finish(req: dict, value: int, provenance: list[str], ms: float, kind: str) -> dict:
    req.setdefault("id", " ".join(req["argv"]))
    req["golden"] = golden.factor(value)
    req["provenance"] = provenance
    req["est_ms"] = round(ms, 1)
    req["bin"] = f"{kind}-{band(ms)}"
    return req


def verify_case_status() -> dict[str, str]:
    """{case name: status} from one `verify full` report at this commit."""
    report, _ = verify.run_suite("full", seed=0, jobs=1)
    return dict(sorted(parse_report(report).items()))


def main() -> int:
    rng = random.Random(POOL_SEED)
    base_dir = HERE / "out"
    base_dir.mkdir(exist_ok=True)
    groups, clique = [], []
    sources = [
        (groups, group_requests(), lambda r: group_golden(r["argv"][1])),
        (clique, zn_requests(), lambda r: zn_golden(int(r["argv"][1]))),
        (clique, replaced_requests(rng), replaced_golden),
        (clique, expr_requests(rng), expr_golden),
    ]
    for out, reqs, make_golden in sources:
        for req in reqs:
            value, prov = make_golden(req)
            kind = "mt" if "--method" in req["argv"] else "auto" if out is groups else req["argv"][0]
            out.append(finish(req, value, prov, time_request(req, base_dir), kind))
            print(out[-1]["id"][:60], out[-1]["est_ms"], flush=True)
    (base_dir / "base.txt").unlink(missing_ok=True)
    pool = {
        "built_on": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
        },
        "groups": groups,
        "clique": clique,
        "verify_cases": verify_case_status(),
    }
    write_pool(pool)
    return 0


def write_pool(pool: dict) -> None:
    """pool.json with one request per line."""
    parts = []
    for key, value in pool.items():
        if isinstance(value, list):
            body = "[\n" + ",\n".join("  " + json.dumps(v) for v in value) + "\n ]"
        else:
            body = json.dumps(value)
        parts.append(f" {json.dumps(key)}: {body}")
    (HERE / "pool.json").write_text("{\n" + ",\n".join(parts) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
