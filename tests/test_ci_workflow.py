"""The CI workflow runs each check of tools/ci_checks.py in one short step."""

import ast
import collections
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
CHECKS = ROOT / "tools" / "ci_checks.py"


def run_blocks(text):
    """The non-blank lines of each `run` of the workflow, read as text,
    since CI installs no YAML parser: a block scalar (`run: |`, `run: >-`)
    holds the lines below it indented deeper than its key."""
    lines = text.splitlines()
    blocks = []
    for k, line in enumerate(lines):
        m = re.match(r"( *)(- )?run: *(.*)$", line)
        if not m:
            continue
        if not m.group(3).startswith(("|", ">")):
            blocks.append([m.group(3)])
            continue
        indent = len(m.group(1)) + len(m.group(2) or "")
        block = []
        for below in lines[k + 1:]:
            if below.strip() and len(below) - len(below.lstrip()) <= indent:
                break
            block.append(below)
        blocks.append([b for b in block if b.strip()])
    return blocks


def test_the_workflow_runs_each_ci_check_in_one_short_step():
    text = WORKFLOW.read_text()
    named = collections.Counter(re.findall(r"tools/ci_checks\.py::(\w+)",
                                           text))
    checks = {node.name for node in ast.parse(CHECKS.read_text()).body
              if isinstance(node, ast.FunctionDef)
              and node.name.startswith("test_")}
    missing = sorted(set(named) - checks)
    assert not missing, f"steps name no such check: {missing}"
    unrun = sorted(checks - set(named))
    assert not unrun, f"no step runs {unrun}"
    twice = sorted(name for name, n in named.items() if n > 1)
    assert not twice, f"checks run by more than one step: {twice}"
    long = [b for b in run_blocks(text) if len(b) > 5]
    assert not long, f"run blocks longer than 5 lines: {long}"
