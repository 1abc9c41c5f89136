"""Statements of src/deltiling that the Tier-1 suite never runs.

Runs Tier-1 (hypothesis seeded, so that its examples, and so the lines
they run, are the same in every run) in this process under a
`sys.settrace` line tracer that only traces the files of src/deltiling,
and compares every statement none of whose lines ran with the allow list
tools/line_coverage_allow.json, a JSON list of {"key", "reason"}.  A
statement is keyed by its file, its enclosing function and the text of
its first line, so a key does not move when lines above it change, and
it is the same under every Python version whatever lines that version
gives a multi-line statement.

    python tools/line_coverage.py

Exits 1 on a never-run statement the list does not hold, printed as a
list entry to fill in, and on a listed one that ran or is gone.
"""

import ast
import collections
import json
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "deltiling"
ALLOW = ROOT / "tools" / "line_coverage_allow.json"
PYTEST_ARGS = ["-q", "--continue-on-collection-errors", "-p",
               "no:cacheprovider", "--hypothesis-seed=0", str(ROOT / "tests")]


def statements(path):
    """(owner, key): owner[line] is the first line of the innermost
    statement holding it (its decorators included), key[first] the key
    of that statement."""
    text = path.read_text()
    lines = text.splitlines()
    owner, key = {}, {}

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, ast.stmt):
                start = min([child.lineno] + [d.lineno for d in getattr(
                    child, "decorator_list", ())])
                for line in range(start, child.end_lineno + 1):
                    owner[line] = child.lineno
                key[child.lineno] = (f"{path.relative_to(ROOT)}::{scope}::"
                                     f"{lines[child.lineno - 1].strip()}")
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    inner = f"{scope}.{child.name}" if scope else child.name
            walk(child, inner)

    walk(ast.parse(text, str(path)), "")
    return owner, key


def code_lines(code):
    """Every line of code and of the code objects nested in it."""
    out = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= code_lines(const)
    return out


def traced(run):
    """(result of run(), {file: lines run}) for the files of PACKAGE."""
    prefix = str(PACKAGE) + "/"
    hit = collections.defaultdict(set)

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        add = hit[name].add
        add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        return run(), hit
    finally:
        sys.settrace(None)
        threading.settrace(None)


def never_run(hit):
    """[(key, file, line)] of the statements with no line in hit."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        owner, key = statements(path)
        code = compile(path.read_text(), str(path), "exec")
        ran = {owner.get(line) for line in hit.get(str(path), ())}
        lines = {owner[line] for line in code_lines(code) if line in owner}
        out += [(key[first], str(path.relative_to(ROOT)), first)
                for first in sorted(lines - ran)]
    return out


def main():
    import pytest
    sys.path.insert(0, str(ROOT / "src"))
    code, hit = traced(lambda: pytest.main(PYTEST_ARGS))
    if code:
        print(f"pytest exited with {code}: no coverage verdict")
        return int(code)
    missed = never_run(hit)
    print(f"{len(missed)} statements of src/deltiling never ran")
    allowed = collections.Counter(
        e["key"] for e in json.loads(ALLOW.read_text()))
    found = collections.Counter(k for k, _, _ in missed)
    for k, f, n in missed:
        if found[k] > allowed[k]:
            print(f"never run, not in {ALLOW.name} ({f}:{n}):\n"
                  + json.dumps({"key": k, "reason": ""}, indent=1))
    for k in sorted(allowed - found):
        print(f"listed in {ALLOW.name}, but it ran or is gone: {k}")
    return int(found != allowed)


if __name__ == "__main__":
    sys.exit(main())
