"""Compare benchmark results of two versions of the program.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json ...

Each file is one result that run.py wrote to perfbench/out/.  For every
workload and metric it prints each side's median and quartiles and the
change of the median as a share of the base median.  It refuses (exit 2) to
compare results measured in different environments: another Python, CPU
count, machine type or big-integer backend.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ENV_KEYS = ("python", "machine", "nproc", "mpz")


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)
    envs = {tuple(r["environment"][k] for k in ENV_KEYS) for r in base + new}
    if len(envs) > 1:
        print(f"error: results come from different environments {ENV_KEYS}: {sorted(envs)}", file=sys.stderr)
        return 2
    keys = sorted({(r["workload"], r["trace"]) for r in base + new})
    for workload, trace in keys:
        b = [r for r in base if (r["workload"], r["trace"]) == (workload, trace)]
        n = [r for r in new if (r["workload"], r["trace"]) == (workload, trace)]
        if not b or not n:
            continue
        print(f"{workload} (trace {trace}): {len(b)} base runs, {len(n)} new runs")
        for metric in b[0]["metrics"]:
            sides = [[r["metrics"][metric] for r in runs if metric in r["metrics"]] for runs in (b, n)]
            if not all(sides):
                print(f"  {metric}: missing on one side")
                continue
            stats = [describe(v) for v in sides]
            mb, mn = statistics.median(sides[0]), statistics.median(sides[1])
            change = f"{(mn - mb) / mb:+.3f}" if mb else "n/a"
            print(f"  {metric:45s} base {stats[0]}  new {stats[1]}  change {change}")
    return 0


def describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


if __name__ == "__main__":
    sys.exit(main())
