"""What the CI workflow and the benchmark pool take from the package: a step
that imports a name the package no longer defines, or a group spec that a
narrowed parameter range rejects, fails only in CI or in the benchmark, so
tier-1 checks them here.  The workflow is read as text, since CI installs
pytest and no YAML reader."""

import json
import re
from pathlib import Path

from powertrees.groups import FAMILIES, GroupConstructionError, GroupSpec

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
POOL = ROOT / "perfbench" / "pool.json"
# `from powertrees... import a, b as c` in a `python -c` one-liner or a heredoc
IMPORT = re.compile(r"from (powertrees[\w.]*) import (\w+(?: as \w+)?(?:, \w+(?: as \w+)?)*)")


def test_workflow_imports_only_names_the_package_defines():
    found = [(module, name) for module, names in IMPORT.findall(WORKFLOW.read_text())
             for name in names.split(", ")]
    missing = []
    for module, name in found:
        try:
            exec(f"from {module} import {name}", {})
        except ImportError:
            missing.append(f"{module}.{name}")
    assert len(found) >= 10 and missing == []


def test_every_group_spec_in_the_workflow_and_the_benchmark_pool_parses():
    # a family:params spec, e.g. psl2:5:2 in a step's argv or heredoc
    spec = re.compile(r"\b(?:" + "|".join(FAMILIES) + r")(?::\d+)+")
    in_workflow = set(spec.findall(WORKFLOW.read_text()))
    pool = json.loads(POOL.read_text())
    in_pool = {r["argv"][1] for r in pool["groups"] if r["argv"][0] == "group"}
    rejected = []
    for text in sorted(in_workflow | in_pool):
        try:
            GroupSpec.parse(text)
        except GroupConstructionError as exc:
            rejected.append(f"{text}: {exc}")
    assert len(in_workflow) >= 20 and len(in_pool) >= 200 and rejected == []
