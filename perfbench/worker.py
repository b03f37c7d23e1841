"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py JOB.json RESULT.json

The job names the source tree, the workload, its requests (or the verify
seed) and whether to trace.  Requests run one after another in a closed
loop, each through `cli.main(argv)` with its output captured; results are
checked against their golden values only after the loop, so checking is
never timed.  While the pass runs, reference.HostSpeed samples the host's
speed, and every time is reported both raw and converted to reference speed.
The pass's timings, failures, peak memory and (when traced) its span summary
go to RESULT.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import golden  # noqa: E402
from reference import HostSpeed  # noqa: E402
from spans import Tracer  # noqa: E402


def call_cli(cli, argv: list[str], tracer: Tracer | None) -> tuple[object, str]:
    """Run one request; return (exit code or the exception's repr, stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = tracer.span("cli", cli.main, argv) if tracer else cli.main(argv)
    except (Exception, SystemExit) as exc:  # a failed request, not a failed benchmark
        code = repr(exc)
    return code, out.getvalue()


def check_kappa(code, text: str, expected: dict) -> str | None:
    """None when the request succeeded with the golden kappa, else why not."""
    if code != 0:
        return f"exit {code}"
    try:
        got = int(json.loads(text)["kappa_decimal"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return None if got == golden.unfactor(expected) else "kappa differs from golden value"


def run_requests(cli, job: dict, tracer: Tracer | None, speed: HostSpeed) -> dict:
    done = []
    start = time.perf_counter()
    for req in job["requests"]:
        t0 = time.perf_counter()
        code, text = call_cli(cli, ["kappa", *req["argv"], "--output", "json"], tracer)
        done.append((t0, time.perf_counter(), code, text))
    end = time.perf_counter()
    speed.stop()
    failures = []
    for req, (_, _, code, text) in zip(job["requests"], done):
        why = check_kappa(code, text, req["golden"])
        if why:
            failures.append(f"{req['id']}: {why}")
    return {
        "wall_s": speed.corrected(start, end),
        "raw_wall_s": speed.raw(start, end),
        "latencies_ms": [speed.corrected(t0, t1) * 1000.0 for t0, t1, _, _ in done],
        "raw_latencies_ms": [speed.raw(t0, t1) * 1000.0 for t0, t1, _, _ in done],
        "attempted": len(done),
        "failed": len(failures),
        "failures": failures,
        "new_failures": failures,  # no kappa request is allowed to fail
    }


def parse_report(report: str) -> dict[str, str]:
    """{case name: status} from the case lines of a verify report."""
    out = {}
    for line in report.splitlines():
        if line.startswith("[") and "] " in line:
            status, rest = line[1:].split("] ", 1)
            out[rest.split(":", 1)[0]] = status
    return out


def run_verify(cli, job: dict, tracer: Tracer | None, speed: HostSpeed, start: float) -> dict:
    """The suite as one request, timed from the worker's start."""
    os.environ["KAPPA_SEED"] = str(job["seed"])
    code, report = call_cli(cli, ["verify", "full", "--jobs", "1"], tracer)
    end = time.perf_counter()
    speed.stop()
    seen = parse_report(report)
    recorded = job["verify_cases"]
    names = sorted(set(recorded) | set(seen))
    failed = [n for n in names if seen.get(n) != "PASS"]
    failures = [f"{n}: {seen.get(n, 'missing')}" for n in failed]
    # a case that already failed in the recorded report is a known failure
    new = [f for n, f in zip(failed, failures) if recorded.get(n, "PASS") == "PASS"]
    expected_code = 1 if failures else 0
    if code != expected_code:
        new.append(f"verify exit code {code}, expected {expected_code}")
    return {
        "wall_s": speed.corrected(start, end),
        "raw_wall_s": speed.raw(start, end),
        "latencies_ms": [],
        "attempted": len(names),
        "failed": len(failures),
        "failures": failures,
        "new_failures": new,
    }


def main(job_path: str, result_path: str) -> int:
    speed = HostSpeed()
    speed.start()
    start = time.perf_counter()
    job = json.loads(Path(job_path).read_text())
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    import powertrees
    from powertrees import cli, linalg

    if Path(powertrees.__file__).resolve().parent != (src / "powertrees").resolve():
        print(f"error: imported powertrees from {powertrees.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        tracer = Tracer(clock=speed.program_clock)
        tracer.install()
    if job["workload"] == "verify":
        result = run_verify(cli, job, tracer, speed, start)
    else:
        result = run_requests(cli, job, tracer, speed)
    result["reference_ms"] = speed.median_task_ms()
    result["speed_samples"] = len(speed.samples)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["mpz"] = getattr(linalg, "_mk", int) is not int
    if tracer:
        result["trace"] = tracer.summary()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
