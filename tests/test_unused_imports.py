"""No module-level import in the package, the tests, the demos or the tools goes unread.

A name bound by a top-level ``import`` counts as read when the module
loads it anywhere (attribute chains included) or lists it in ``__all__``.
``__future__`` imports, ``from x import *`` and lines marked
``# noqa: F401`` are exempt; that last is how a module re-exports a name
it does not use itself.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src/fpflow", "tests", "demos", "tools")


def _bound_names(node: ast.stmt):
    """(bound name, line) of every name a top-level import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return
    for alias in node.names:
        if alias.name != "*":
            yield alias.asname or alias.name.split(".")[0], alias.lineno


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(path: Path, root: Path = ROOT) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    } | _exported(tree)
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for name, lineno in _bound_names(node):
            if name not in read and "# noqa: F401" not in lines[lineno - 1]:
                unused.append(f"{path.relative_to(root)}:{lineno}: {name}")
    return unused


@pytest.mark.parametrize("directory", SCANNED)
def test_no_unused_module_level_imports(directory):
    files = sorted((ROOT / directory).rglob("*.py"))
    assert files
    unused = [item for path in files for item in unused_imports(path)]
    assert unused == []


def test_unused_import_scan_flags_an_unread_name(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import numpy.linalg\n"
        "from json import dumps, loads\n"
        "from re import compile  # noqa: F401\n"
        "from sys import argv\n"
        "__all__ = ['argv']\n"
        "print(numpy.linalg.norm, dumps)\n"
    )
    assert unused_imports(module, tmp_path) == ["m.py:2: os", "m.py:3: osp", "m.py:5: loads"]
