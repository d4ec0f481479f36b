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
