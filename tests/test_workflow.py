"""The CI workflow's own Python: a step that imports a name the package no
longer defines fails only in CI, so tier-1 checks every such import here.  The
workflow is read as text, since CI installs pytest and no YAML reader."""

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
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
