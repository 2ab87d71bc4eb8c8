"""Deviation search builds the minimal grid vectors that meet a requirement
in one place: a TTG task, a rule and an optimistic top-up are all one or more
``(group, need)`` pairs handed to ``_Search.vectors_meeting``, the one caller
of ``_compositions``.  Its searches share one memo: ``_last_enumeration`` is
the one module-level slot that ``deviations`` rebinds.  Every coalition value
it reads comes from the game's one integer rule table (``scaled_rules``, a
TTG task being a one-requirement row): no task-threshold ladder, no
``bisect``, no ``Rule.satisfied_by`` on ``Fraction`` rows, and neither
``_Search.scaled_value`` nor ``_Search.useful_vectors`` asks which kind of
game it reads."""

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


def _identifiers(node: ast.AST) -> set[str]:
    """Every name, attribute, argument and imported module ``node`` mentions."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.arg):
            found.add(sub.arg)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
        elif isinstance(sub, ast.ImportFrom):
            found.add(sub.module)
    return found


def test_deviations_reads_values_only_from_the_rule_table():
    tree = ast.parse(DEVIATIONS.read_text(encoding="utf-8"))
    names = _identifiers(tree)
    assert "thresholds" not in names
    assert "bisect" not in names and "bisect_right" not in names
    callers = _Callers("satisfied_by")
    callers.visit(tree)
    assert not callers.found


def test_value_and_vector_readers_do_not_branch_on_the_game_kind():
    tree = ast.parse(DEVIATIONS.read_text(encoding="utf-8"))
    search = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "_Search")
    methods = {node.name: node for node in search.body if isinstance(node, ast.FunctionDef)}
    kind_names = {"isinstance", "type", "TTG", "RuleBasedGame", "tasks", "thresholds",
                  "scaled_thresholds", "scaled_utilities"}
    for name in ("scaled_value", "useful_vectors"):
        assert not _identifiers(methods[name]) & kind_names, name
