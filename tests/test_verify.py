import re
from pathlib import Path

from powertrees import verify

# the whole seed-0 `verify full` report, byte for byte
GOLDEN_FULL_SEED_0 = Path(__file__).with_name("verify_full_seed0.txt")

# the aggregate lines of `verify full` and their case totals at seed 0
AGGREGATE_TOTALS = {
    "cyclic-sweep-001-120": 120,
    "expression-syntax": 3,
    "family-clique-forms": 15,
    "ones-plus-laplacian-route": 44,
    "quotient-vs-oracle": 335,
    "shifted-eigenvalue-product-suite": 200,
    "spectrum-vs-charpoly-suite": 200,
    "triangle-k1-5": 3860,
    "universal-count-divisibility-suite": 200,
    "universal-set-classification": 35,
}


def test_verify_full_fails_only_on_the_recorded_discrepancy():
    # every case group, the seeded suites included, on seed 0
    report, code = verify.run_suite("full", seed=0)
    assert code == 1
    cases = [line for line in report.splitlines() if line.startswith("[")]
    assert len(cases) == 59
    assert [line for line in cases if line.startswith("[FAIL]")] == [
        "[FAIL] extraspecial-27-structural-vs-oracle: clique form 3^49, determinant 3^37 * 7^2"
    ]
    totals = {}
    for line in cases:
        match = re.fullmatch(r"\[PASS\] (\S+): (\d+)/(\d+) ok", line)
        if match:
            assert match[2] == match[3], line
            totals[match[1]] = int(match[3])
    assert totals == AGGREGATE_TOTALS
    assert report.endswith("\n58/59 cases passed\n")
    assert report == GOLDEN_FULL_SEED_0.read_text(encoding="utf-8")
