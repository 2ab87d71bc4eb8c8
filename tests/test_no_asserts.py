"""The library states every check its results depend on as an explicit raise:
``python -O`` strips ``assert`` statements."""

from __future__ import annotations

import ast
from pathlib import Path

import ocfgames

PACKAGE = Path(ocfgames.__file__).parent


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
