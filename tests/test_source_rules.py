"""Static rules for the library source, checked on its syntax tree.

No `assert` statements: `python -O` strips them, so a check that must
hold raises explicitly.  No third-party imports: the runtime is
stdlib-only, so every import is relative or names a stdlib module.
No module-level function name is defined in two modules, so a helper
has one copy that every caller imports.
"""

import ast
import sys
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "brauercalc"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _nodes():
    assert SOURCES, "no library sources found"
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield path.name, node


def test_no_assert_statements():
    hits = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if isinstance(node, ast.Assert)
    ]
    assert not hits, f"assert statements (stripped by python -O): {hits}"


def test_imports_are_relative_or_stdlib():
    bad = []
    for name, node in _nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            if module.split(".")[0] not in sys.stdlib_module_names:
                bad.append(f"{name}:{node.lineno} imports {module}")
    assert not bad, f"non-stdlib imports: {bad}"


def test_module_level_functions_are_defined_once():
    homes = defaultdict(list)
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                homes[node.name].append(path.name)
    dups = {name: files for name, files in homes.items() if len(files) > 1}
    assert not dups, f"functions defined in more than one module: {dups}"
