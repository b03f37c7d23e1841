"""The powertrees benchmark.

    python3 perfbench/run.py --workload {groups,clique,verify} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the program is imported from ../src next to this
directory.  One client sends requests in a closed loop: each
`powertrees kappa KIND TARGET ... --output json` starts when the previous one
has returned.  Requests run in-process through `cli.main(argv)` inside a
fresh worker interpreter per pass, so no module-level cache or peak memory
carries over from one pass to the next.  Passes send the same list and
repeat until --seconds is about used up, at least three times on groups and
clique (once on verify, whose suite is one long request).

Every time is converted to reference speed (reference.py): while a pass runs,
a fixed task independent of the program is timed every 0.2 s, and each
interval is scaled to a host where that task takes 10 ms.  The shared host's
own speed swings by up to a factor of two; the conversion takes that out and
leaves the program's.  Raw times are kept in the result file.  Each request
is then timed at its median over the passes; wall_s is the sum of those
medians, the latency percentiles are taken over them, and on verify wall_s is
the median over passes of the worker's time up to the end of the suite.

Workloads (BENCHMARK.json says why each was chosen):
  groups  power graphs of non-cyclic groups, drawn by seed from pool.json;
  clique  `zn`, `replaced` and `expr` targets, drawn the same way;
  verify  `powertrees verify full --jobs 1` with KAPPA_SEED set to the seed.

With --trace 0 it prints the end-to-end metrics, measured untraced.  With
--trace 1 it runs one untraced and one traced pass and prints the per-layer
metrics: self times of the spans that spans.py records around the program's
public functions, computed work counts, and the tracing overhead.  Either
way the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}, and the full result, with the
environment it was measured in, is written to perfbench/out/.

A request fails when it raises, exits nonzero or returns a kappa other than
its golden value; a verify case fails when its line is not [PASS] or it is
missing from the report.  "failed" counts every failure.  "correct" is false
when a failure is new: any failed kappa request, or a verify case that
passed in the report recorded in pool.json.  On verify that report already
has one failure, extraspecial-27-structural-vs-oracle, so verify's
ops_failed_frac is 1/56 while "correct" stays true.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from reference import scale  # noqa: E402
from spans import COMPUTED, COUNT_SPANS, is_absent  # noqa: E402

RUN_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_REPEATS = 11
MIN_PASSES = {"groups": 3, "clique": 3, "verify": 1}


def worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("KAPPA_SEED", None)
    return env


SETUP_CODE = (
    "import sys, time; t = time.perf_counter(); import powertrees.cli as c; "
    "c.build_parser(); t = time.perf_counter() - t; "
    f"sys.path.insert(0, {str(HERE)!r}); import reference; "
    "print(t, reference.median_task_s())"
)


def measure_setup() -> tuple[float, float]:
    """Median time a fresh interpreter takes to import powertrees.cli and
    build its argument parser (interpreter start-up itself excluded), at
    reference speed and raw.  Each interpreter times the reference task
    right after."""
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=worker_env(), cwd=ROOT, check=True, timeout=60, capture_output=True, text=True,
        )
        seconds, task_s = map(float, proc.stdout.split())
        times.append(scale(seconds, task_s))
        raw.append(seconds)
    return statistics.median(times), statistics.median(raw)


def run_pass(job: dict, run_dir: Path, index: int, deadline: float) -> dict:
    job_path = run_dir / f"job-{index}.json"
    result_path = run_dir / f"result-{index}.json"
    job_path.write_text(json.dumps(job))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
        env=worker_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(result_path.read_text())
    result["process_s"] = elapsed
    return result


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def request_latencies(workload: str, passes: list[dict]) -> list[float]:
    """Each request's median latency over the passes, in ms.  verify is one
    request per pass: the suite, timed from the worker's start."""
    if workload == "verify":
        return [statistics.median(p["wall_s"] for p in passes) * 1000.0]
    return [statistics.median(xs) for xs in zip(*(p["latencies_ms"] for p in passes))]


def end_to_end(workload: str, passes: list[dict], setup_s: float) -> dict:
    lat = request_latencies(workload, passes)
    return {
        "wall_s": sum(lat) / 1000.0,
        "latency_ms.p50": statistics.median(lat),
        "latency_ms.p90": quantile(lat, 90) if len(lat) > 1 else lat[0],
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(names: list[str], plain: dict, traced: dict) -> tuple[dict, list[str], list[str]]:
    """Per-layer values, plus the metrics whose wrappers are all absent and
    those whose spans never ran (both reported as 0)."""
    summary = traced["trace"]
    absent_targets = set(summary["absent"])
    values, absent, idle = {}, [], []
    for name in names:
        if name == "trace.overhead":
            values[name] = traced["wall_s"] / plain["wall_s"] - 1.0
            continue
        if name in COUNT_SPANS:
            value = summary["counts"].get(name)
        elif name == "cli.self.ms":
            value = summary["self_ms"].get("cli")
        elif name.startswith("verify.") and name.endswith(".s"):
            value = summary["total_s"].get(name[: -len(".s")])
        else:
            value = summary["self_ms"].get(name[: -len(".ms")])
        if value is None:
            (absent if is_absent(name, absent_targets) else idle).append(name)
            value = 0
        values[name] = value
    return values, absent, idle


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int, mpz: bool) -> dict:
    sha = None
    if (ROOT / ".git").exists():  # a checkout without git history has no sha
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            sha = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "git_sha": sha,
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "mpz": mpz,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "powertrees" / "cli.py").is_file():
        print(f"error: no powertrees source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = HERE / "out"
    run_dir = out_dir / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, raw_setup_s = measure_setup()
        job = workloads.job(args.workload, args.seed, ROOT, run_dir)
        passes = []
        if args.trace:
            for traced in (False, True):
                passes.append(run_pass(dict(job, trace=traced), run_dir, len(passes), deadline))
        else:
            # passes until the next would end more than half a pass past
            # --seconds, but never fewer than the workload's minimum
            start = time.perf_counter()
            while True:
                passes.append(run_pass(dict(job, trace=False), run_dir, len(passes), deadline))
                if (len(passes) >= MIN_PASSES[args.workload]
                        and time.perf_counter() - start + passes[-1]["process_s"] / 2 >= args.seconds):
                    break
    finally:
        for path in run_dir.iterdir():
            path.unlink()
        run_dir.rmdir()

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        values, absent, idle = per_layer([m["name"] for m in spec["per_layer"]], *passes)
    else:
        values, absent, idle = end_to_end(args.workload, passes, setup_s), [], []
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    new_failures = [f for p in passes for f in p["new_failures"]]
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed, passes[0]["mpz"]),
        "passes": len(passes),
        "requests_per_pass": passes[0]["attempted"],
        "pass_walls_s": [p["wall_s"] for p in passes],
        "raw_pass_walls_s": [p["raw_wall_s"] for p in passes],
        "pass_process_s": [p["process_s"] for p in passes],
        "raw_setup_s": raw_setup_s,
        "reference_ms": [p["reference_ms"] for p in passes],
        "latency_samples": None if args.trace else len(request_latencies(args.workload, passes)),
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / attempted,
        "failures": sorted({f for p in passes for f in p["failures"]}),
        "new_failures": new_failures,
        "metrics": values,
        "units": {name: units[name] for name in values},
        "computed": [name for name in values if name in COMPUTED],
        "absent": absent,
        "not_exercised": idle,
        "trace_summary": passes[-1].get("trace"),
    }
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")
    print(
        f"{args.workload}: {len(passes)} pass(es), {attempted} requests, {failed} failed "
        f"(ops_failed_frac {failed}/{attempted}): {result['failures']}; "
        f"full result in {out_file.relative_to(ROOT)}"
    )
    if args.trace:
        summary = result["trace_summary"]
        print(
            f"trace overhead {values['trace.overhead']:+.3f}; absent: {absent}; "
            f"counts not taken: {summary['uncounted']}; not exercised: {idle}"
        )
    print(json.dumps({
        "correct": not new_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
