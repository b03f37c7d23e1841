"""Request lists for the benchmark's workloads, made from a seed.

pool.json holds every request a workload can draw, grouped in bins of
requests whose cost is within a factor of two.  A seed draws a fixed number
from each bin (the same picks for every seed in heavy bins) and shuffles the
lot, so every seed sends a different list with nearly the same mix of costs.
The program sees only the generated requests.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAMES = ("groups", "clique", "verify")

# bin -> requests drawn per list: 100 or more requests, so that p90 has ten
# or more beyond it, yet light enough that a run repeats the list three
# times.  Heavy bins (HEAVY_MS) give every seed the same picks, so the cost
# of a list, its p90 and the request that sets its peak memory do not change
# with the seed; the seed varies the light requests and the order.  Bins
# absent here are not drawn: zn-10 (zn 120/168/210, 1.5-1.9 s each), auto-11
# (psl2:13:1, 3.3 s) and the matrix-tree cross-checks from mt-9 up each cost
# a large share of a pass.
RECIPES: dict[str, dict[str, int]] = {
    "groups": {
        "auto-0": 8, "auto-1": 8, "auto-2": 6, "auto-3": 6, "auto-4": 27, "auto-5": 10,
        "auto-6": 6, "auto-7": 5, "auto-8": 2, "auto-9": 3, "auto-10": 1,
        "mt-0": 3, "mt-1": 2, "mt-2": 2, "mt-3": 3, "mt-4": 3, "mt-5": 2,
        "mt-6": 3, "mt-8": 2,
    },
    "clique": {
        "zn-0": 4, "zn-1": 5, "zn-2": 8, "zn-3": 11, "zn-4": 2, "zn-5": 6,
        "zn-7": 1, "zn-9": 1,
        "replaced-0": 1, "replaced-1": 4, "replaced-2": 4, "replaced-3": 8, "replaced-4": 18,
        "replaced-5": 5, "replaced-6": 4, "replaced-7": 6, "replaced-8": 2, "replaced-9": 2,
        "expr-0": 2, "expr-1": 4, "expr-2": 4, "expr-3": 13, "expr-4": 3, "expr-5": 8, "expr-6": 3,
    },
}

# a bin whose cheapest member costs this many ms is heavy
HEAVY_MS = 64.0


@lru_cache(maxsize=1)
def pool() -> dict:
    return json.loads((HERE / "pool.json").read_text())


def requests(workload: str, seed: int) -> list[dict]:
    """The seeded request list of a `groups` or `clique` run."""
    rng = random.Random(f"{workload}:{seed}")
    bins: dict[str, list[dict]] = {}
    for req in pool()[workload]:
        bins.setdefault(req["bin"], []).append(req)
    out = []
    for name, count in RECIPES[workload].items():
        # evenly spaced picks along the bin sorted by cost, from a seeded
        # offset: each seed gets other requests but the same spread of costs.
        # Heavy bins take the same picks for every seed: their members' costs
        # spread too widely for a seeded pick to keep a list's cost steady.
        members = sorted(bins[name], key=lambda r: (r["est_ms"], r["id"]))
        offset = rng.random()
        if members[0]["est_ms"] >= HEAVY_MS:
            offset = 0.5
        out.extend(members[int((i + offset) * len(members) / count)] for i in range(count))
    rng.shuffle(out)
    return out


def write_base(req: dict, path: Path) -> None:
    base = req["base"]
    lines = [str(base["k"])] + [f"{u} {v}" for u, v in base["edges"]]
    path.write_text("\n".join(lines) + "\n")


def job(workload: str, seed: int, root: Path, run_dir: Path) -> dict:
    """What a worker needs for one pass.  Set-up writes the base-graph files
    that `replaced` requests read into run_dir."""
    out = {"root": str(root), "workload": workload, "seed": seed}
    if workload == "verify":
        out["verify_cases"] = pool()["verify_cases"]
        return out
    reqs = []
    for i, req in enumerate(requests(workload, seed)):
        argv = list(req["argv"])
        if "base" in req:
            path = run_dir / f"base-{i}.txt"
            write_base(req, path)
            argv[1] = str(path)
        reqs.append({"id": req["id"], "argv": argv, "golden": req["golden"]})
    out["requests"] = reqs
    return out
