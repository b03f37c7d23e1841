"""Tests of the benchmark itself: seeded request lists, golden values, the
tracer, the host-speed correction and the verify report check.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import golden  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from powertrees import formulas as F  # noqa: E402
from powertrees.graphs import CliqueReplacedSpec, SimpleGraph, clique_replaced  # noqa: E402
from powertrees.groups import GroupSpec, build_group, power_graph  # noqa: E402
from powertrees.linalg import kappa_matrix_tree  # noqa: E402
from powertrees.spectra import expr_to_graph, parse_expr  # noqa: E402

KAPPA = ("groups", "clique")


@pytest.mark.parametrize("workload", KAPPA)
def test_same_seed_gives_same_list(workload):
    assert workloads.requests(workload, 7) == workloads.requests(workload, 7)


@pytest.mark.parametrize("workload", KAPPA)
def test_different_seed_gives_different_list(workload):
    ids = [[r["id"] for r in workloads.requests(workload, s)] for s in (1, 2)]
    assert ids[0] != ids[1]


@pytest.mark.parametrize("workload", KAPPA)
def test_list_gives_p90_ten_samples_beyond_it(workload):
    assert len(workloads.requests(workload, 3)) >= 100


def test_recipes_name_existing_bins():
    for workload in KAPPA:
        bins = {r["bin"] for r in workloads.pool()[workload]}
        assert set(workloads.RECIPES[workload]) <= bins


def test_every_pool_request_has_a_golden_value():
    for workload in KAPPA:
        for req in workloads.pool()[workload]:
            assert golden.unfactor(req["golden"]) > 0, req["id"]
            assert len(req["provenance"]) >= 2, req["id"]
    cases = workloads.pool()["verify_cases"]
    assert len(cases) == 56 and set(cases.values()) <= {"PASS", "FAIL"}


def _graph(req: dict) -> SimpleGraph:
    kind, target = req["argv"][0], req["argv"][1]
    if kind == "group":
        return power_graph(build_group(GroupSpec.parse(target)))
    if kind == "zn":
        return clique_replaced(F.divisor_clique_spec(int(target)))
    if kind == "replaced":
        base = SimpleGraph(req["base"]["k"], [tuple(e) for e in req["base"]["edges"]])
        sizes = tuple(int(x) for x in req["argv"][3].split(","))
        return clique_replaced(CliqueReplacedSpec(base, sizes))
    return expr_to_graph(parse_expr(target))


def test_sample_of_golden_values_rederived_through_the_oracle():
    rng = random.Random(0)
    for workload in KAPPA:
        kinds: dict[str, list[dict]] = {}
        for r in workloads.pool()[workload]:
            if r["est_ms"] < 20:
                kinds.setdefault(r["argv"][0], []).append(r)
        for reqs in kinds.values():
            small = [(r, g) for r, g in ((r, _graph(r)) for r in reqs) if g.n <= 60]
            for req, graph in rng.sample(small, min(3, len(small))):
                assert kappa_matrix_tree(graph) == golden.unfactor(req["golden"]), req["id"]


def test_twin_quotient_route_agrees_with_the_oracle():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        g = SimpleGraph(n, edges)
        assert golden.kappa_twin_quotient([set(a) for a in g.adj]) == kappa_matrix_tree(g)


def _run_worker(tmp_path: Path, job: dict, tag: str) -> dict:
    job_path, out_path = tmp_path / f"job-{tag}.json", tmp_path / f"out-{tag}.json"
    job_path.write_text(json.dumps(job))
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(job_path), str(out_path)],
        check=True, timeout=120, cwd=ROOT,
    )
    return json.loads(out_path.read_text())


def test_traced_counts_repeat_exactly(tmp_path):
    pool = workloads.pool()
    picks = [r for r in pool["groups"] if r["est_ms"] < 5][:4] + [
        r for r in pool["clique"] if r["est_ms"] < 5 and "base" not in r
    ][:4]
    job = {
        "root": str(ROOT), "workload": "groups", "seed": 0, "trace": True,
        "requests": [{"id": r["id"], "argv": r["argv"], "golden": r["golden"]} for r in picks],
    }
    first, second = (_run_worker(tmp_path, job, tag) for tag in "ab")
    assert first["failed"] == 0
    assert first["trace"]["counts"] == second["trace"]["counts"]
    assert set(spans.COMPUTED) <= set(first["trace"]["counts"])


def test_missing_wrapper_target_is_absent_not_fatal(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", [("cli", "no_such_function", "cli.gone")])
    tracer = spans.Tracer()
    tracer.install()
    assert tracer.absent == ["cli.no_such_function"]
    assert spans.is_absent("cli.gone.ms", set(tracer.absent))


class _FakeCli:
    def __init__(self, report: str, code: int):
        self.report, self.code = report, code

    def main(self, argv):
        print(self.report, end="")
        return self.code


def _run_verify(cli, job):
    speed = reference.HostSpeed()
    speed.start()
    return worker.run_verify(cli, job, None, speed, time.perf_counter())


def test_verify_check_separates_known_from_new_failures(monkeypatch):
    monkeypatch.setenv("KAPPA_SEED", "0")  # run_verify sets it; restored afterwards
    recorded = {"a": "PASS", "b": "FAIL", "c": "PASS"}
    job = {"seed": 0, "verify_cases": recorded}
    known = _FakeCli("[PASS] a: ok\n[FAIL] b: x\n[PASS] c: ok\n", 1)
    out = _run_verify(known, job)
    assert (out["attempted"], out["failed"], out["new_failures"]) == (3, 1, [])
    missing = _FakeCli("[PASS] a: ok\n[FAIL] b: x\n", 1)
    out = _run_verify(missing, job)
    assert out["failed"] == 2 and out["new_failures"] == ["c: missing"]


def test_host_speed_scales_each_stretch_by_its_samples():
    speed = reference.HostSpeed()
    ms = reference.REFERENCE_MS / 1000.0
    # samples at 0 and 1.0 at reference speed, one at 2.0 twice as slow
    speed.samples = [(0.0, ms), (1.0, ms), (2.0, 3 * ms)]
    assert speed.raw(0.0, 3.0) == pytest.approx((1.0 - ms) + (1.0 - ms))
    assert speed.corrected(ms, 1.0) == pytest.approx(1.0 - ms)
    assert speed.corrected(1.0 + ms, 2.0) == pytest.approx((1.0 - ms) / 2)
    # a sample inside an interval is left out of it
    assert speed.raw(0.5, 1.5) == pytest.approx(1.0 - ms)


def test_host_speed_samples_while_started():
    speed = reference.HostSpeed(interval_s=0.05)
    speed.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.5:
        sum(range(1000))
    end = time.perf_counter()
    speed.stop()
    assert len(speed.samples) >= 4
    assert 0 < speed.raw(start, end) < end - start
    assert speed.corrected(start, end) > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "groups", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
