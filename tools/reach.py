"""Which lines and names of src/genera the CLI-level tests reach.

Runs the four CLI-level test files in this process under ``sys.settrace``
and prints, per module of src/genera, its executable lines (as
``trace._find_executable_linenos`` counts them, docstrings excluded), the
lines that ran and their share, then each public function or method
(no leading underscore; dunder methods included) that was never called.
Lines that run at import, such as ``def`` and class statements, count as
reached.  It is a report, not a gate: it exits 0 whatever the share, and
nonzero only when it cannot run or a test fails.

Run from the repository root:

    PYTHONPATH=src python tools/reach.py
"""

from __future__ import annotations

import ast
import os
import sys
import trace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "genera")
TESTS = ("test_cli.py", "test_cli_mutation.py", "test_stringy_golden.py",
         "test_genus_golden.py")


def public_defs(path: str):
    """(qualified name, first line, def line) of each public function of
    the module and each public or dunder method of its classes; the first
    line is that of the first decorator, where a code object starts."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)

    def public(name):
        return not name.startswith("_") or \
            (name.startswith("__") and name.endswith("__"))

    def first(node):
        return min([node.lineno] + [d.lineno for d in node.decorator_list])

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and public(node.name):
            yield node.name, first(node), node.lineno
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and public(item.name):
                    yield f"{node.name}.{item.name}", first(item), item.lineno


def main() -> int:
    import pytest

    files = sorted(os.path.join(PACKAGE, f) for f in os.listdir(PACKAGE)
                   if f.endswith(".py"))
    watched = set(files)
    lines = {f: set() for f in files}
    calls = {f: set() for f in files}  # (co_name, co_firstlineno)

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in watched:
            return None
        calls[code.co_filename].add((code.co_name, code.co_firstlineno))
        lines[code.co_filename].add(frame.f_lineno)
        return local

    for name in [m for m in sys.modules
                 if m == "genera" or m.startswith("genera.")]:
        del sys.modules[name]
    args = ["-q", "-p", "no:cacheprovider", "-o", "addopts="] + \
        [os.path.join(ROOT, "tests", t) for t in TESTS]
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    if status != 0:
        print(f"reach: the tests did not pass (pytest exit {status})",
              file=sys.stderr)
        return 1

    print(f"\n{'module':<16}{'executable':>11}{'reached':>9}{'share':>7}")
    total_exec = total_hit = 0
    never = []
    for path in files:
        executable = set(trace._find_executable_linenos(path))
        hit = len(lines[path] & executable)
        total_exec += len(executable)
        total_hit += hit
        module = os.path.splitext(os.path.basename(path))[0]
        share = f"{100 * hit / len(executable):.0f}%" if executable else "-"
        print(f"{module:<16}{len(executable):>11}{hit:>9}{share:>7}")
        called = calls[path]
        for qualname, start, line in public_defs(path):
            short = qualname.rsplit(".", 1)[-1]
            if not any(n == short and start <= first <= line
                       for n, first in called):
                never.append(f"{module}.{qualname}")
    print(f"{'total':<16}{total_exec:>11}{total_hit:>9}"
          f"{100 * total_hit / total_exec:>6.0f}%")
    print(f"\npublic names never called ({len(never)}):")
    for name in never:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
