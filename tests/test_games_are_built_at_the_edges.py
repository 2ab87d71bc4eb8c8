"""Games are built where they enter the library: by parsing (``io``,
``cli``), by the stock examples (``corpus``) and by the hardness reductions
(``reductions``).  A search answers questions about a subset of agents from
the game it was given, so no other module constructs a game."""

from __future__ import annotations

import ast
from pathlib import Path

import ocfgames

PACKAGE = Path(ocfgames.__file__).parent


def test_only_the_edges_construct_games():
    builders = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in ("TTG", "RuleBasedGame"):
                    builders.add(path.stem)
    assert builders <= {"io", "corpus", "reductions", "cli"}, builders
