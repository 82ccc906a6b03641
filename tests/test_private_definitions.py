"""Every private definition in the package is used by the package itself.

A private definition is a module-level function or class, or a method,
whose name starts with ``_`` and is not a dunder.  It counts as used when
some module of ``src/fpflow`` reads its name: bare, as an attribute
(``self._x``, ``module._x``) or in a ``from ... import``.  A private
helper that only the tests call is code the package no longer needs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fpflow"

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_definitions(tree: ast.Module):
    """Each private module-level definition and private method, as an AST node."""
    for node in tree.body:
        if isinstance(node, _DEFINITIONS) and _private(node.name):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (
                item for item in node.body
                if isinstance(item, _DEFINITIONS) and _private(item.name)
            )


def _read_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced_private_definitions(paths, root: Path = ROOT) -> tuple[int, list[str]]:
    """The number of private definitions in ``paths`` and those no path reads."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in paths}
    read = set().union(*(_read_names(tree) for tree in trees.values()))
    count, unread = 0, []
    for path, tree in trees.items():
        for node in _private_definitions(tree):
            count += 1
            if node.name not in read:
                unread.append(f"{path.relative_to(root)}:{node.lineno}: {node.name}")
    return count, unread


def test_every_private_definition_is_read_by_the_package():
    count, unread = unreferenced_private_definitions(sorted(PACKAGE.rglob("*.py")))
    assert count > 0
    assert unread == []


def test_private_definition_scan_flags_an_unread_helper(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from .other import _imported\n"
        "def _used(): pass\n"
        "def _unused(): pass\n"
        "class _Kept:\n"
        "    def __init__(self): self._helper()\n"
        "    def _helper(self): pass\n"
        "    def _dead(self): pass\n"
        "    def public(self): pass\n"
        "def public(): return _used, _Kept\n"
    )
    other = tmp_path / "other.py"
    other.write_text("def _imported(): pass\n")
    count, unread = unreferenced_private_definitions([module, other], tmp_path)
    assert count == 6
    assert unread == ["m.py:3: _unused", "m.py:7: _dead"]
