"""Properties of the library source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import switchdeck

SRC = Path(switchdeck.__file__).resolve().parent


def test_library_has_no_assert_statements():
    """python -O drops assert statements, so no library check may be one."""
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_library_has_no_unused_imports():
    """Every imported name is read in its module or listed in its __all__."""
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        used = _exported_names(tree) | {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _imported_names(tree).items() if name not in used]
    assert unused == []
