"""Deviation search builds the minimal grid vectors that meet a requirement
in one place: a TTG task, a rule and an optimistic top-up are all one or more
``(group, need)`` pairs handed to ``_Search.vectors_meeting``, the one caller
of ``_compositions``.  Its searches share one memo: ``_last_enumeration`` is
the one module-level slot that ``deviations`` rebinds."""

from __future__ import annotations

import ast
from pathlib import Path

import ocfgames

DEVIATIONS = Path(ocfgames.__file__).parent / "deviations.py"


def _called_name(node: ast.Call) -> str:
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


class _Callers(ast.NodeVisitor):
    """The functions (``Class.method`` inside a class) that call ``name``."""

    def __init__(self, name: str):
        self.name = name
        self.scope: list[str] = []
        self.found: set[str] = set()

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = _enter

    def visit_Call(self, node):
        if _called_name(node) == self.name:
            self.found.add(".".join(self.scope))
        self.generic_visit(node)


def test_only_vectors_meeting_calls_compositions():
    callers = _Callers("_compositions")
    callers.visit(ast.parse(DEVIATIONS.read_text(encoding="utf-8")))
    assert callers.found == {"_Search.vectors_meeting"}


def test_deviations_has_one_memo_slot():
    tree = ast.parse(DEVIATIONS.read_text(encoding="utf-8"))
    rebound = {name for node in ast.walk(tree) if isinstance(node, ast.Global)
               for name in node.names}
    assert rebound == {"_last_enumeration"}
