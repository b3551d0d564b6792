"""List the statements of ``src/parastrip`` that neither tier-1 nor the CLI snapshot runs execute.

Usage::

    python tools/unrun_statements.py

From the checkout this file lives in, it runs the tier-1 tests in this
process (``pytest -q --continue-on-collection-errors`` over ``tests/``,
with ``src`` first on ``sys.path``), then ``tools/snapshot_cli_outputs.py``
into a temporary directory.  While they run, ``sys.settrace`` and
``threading.settrace`` follow the frames of ``src/parastrip/*.py`` only, so
the tracer is cheap elsewhere.  Then it prints ``parastrip/module.py:line:
source`` for each statement that never ran, docstrings skipped, and a
count.  It exits 0 whatever the tests do; their summary is printed above
the list.

A statement counts as run when one of its lines raised a line event: the
header of a compound statement (decorators included), or any line of a
simple one.  ``try:`` headers and ``global`` or ``nonlocal`` declarations
make no line event and are left out.  The CLI tests that start a
subprocess are not followed into it, so a line only they reach is listed.

Only the standard library (and pytest, which tier-1 needs) is used: where
the ``coverage`` package is installed it does this job better.
"""

import ast
import importlib.util
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "parastrip"


def _statement_lines(tree: ast.AST) -> dict:
    """{first line: the lines whose event counts as running it} of every statement of ``tree``, with
    docstrings and the statements that make no line event left out."""
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant) and isinstance(node.body[0].value.value, str)}
    silent = (ast.Try, getattr(ast, "TryStar", ast.Try), ast.Global, ast.Nonlocal)
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, silent) or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        out[first] = set(range(first, max(first, last) + 1))
    return out


def _line_recorder(add):
    """A local trace function that passes the line number of each line event to ``add``."""
    def local(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return local

    return local


def _tracer(files: dict):
    """A global trace function that records, per file of ``files``, the lines that raised a line event.

    ``files`` maps a code object's filename to the set that collects its
    lines; frames of other files get no local tracer.  The tracer reads no
    module global, only its closures and defaults, so it stays sound when
    module globals are set to None at interpreter shutdown.
    """
    recorders = {name: _line_recorder(lines.add) for name, lines in files.items()}

    def trace(frame, event, arg, get=recorders.get):
        return get(frame.f_code.co_filename)

    return trace


def _run_tier1():
    import pytest

    return pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", str(ROOT / "tests")])


def _run_snapshot():
    spec = importlib.util.spec_from_file_location("snapshot_cli_outputs", ROOT / "tools" / "snapshot_cli_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    with tempfile.TemporaryDirectory() as tmp:
        return tool.main([str(Path(tmp) / "snapshot")])


def main() -> int:
    if any(name == "parastrip" or name.startswith("parastrip.") for name in sys.modules):
        print("parastrip is already imported: its module-level statements would go unseen", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sources = {path: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    ran = {str(path): set() for path in sources}
    tracer = _tracer(ran)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        tests = _run_tier1()
        snapshot = _run_snapshot()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"tier-1 exit {int(tests)}, snapshot exit {snapshot}")
    count = 0
    for path, source in sources.items():
        lines, seen = source.splitlines(), ran[str(path)]
        for first, span in sorted(_statement_lines(ast.parse(source)).items()):
            if not span & seen:
                count += 1
                print(f"{path.relative_to(PACKAGE.parent).as_posix()}:{first}: {lines[first - 1].strip()}")
    print(f"{count} statements never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
