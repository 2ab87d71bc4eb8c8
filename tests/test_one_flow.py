"""Every supply-demand question of the library is one integer max-flow:
the rule cover's feasibility test and the strict division of a deviation
both hand ``welfare._route`` their supplies, demands and links, and no other
function searches for augmenting paths.  The split of stable totals over a
structure is that division at margin 0, so both stabilizations reach
``_divide_strictly`` through one helper.  Deviation search, the convexity
witness and greedy construction solve no linear program, so neither
``deviations`` nor ``convexity`` imports ``lp``."""

from __future__ import annotations

import ast
from pathlib import Path

import ocfgames

PACKAGE = Path(ocfgames.__file__).parent


def _called_name(node: ast.Call) -> str:
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


class _Callers(ast.NodeVisitor):
    """The functions (``module.function``, innermost) that call a name in
    ``names``."""

    def __init__(self, module: str, names: set[str]):
        self.names = names
        self.scope = [module]
        self.found: set[str] = set()

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = _enter

    def visit_Call(self, node):
        if _called_name(node) in self.names:
            self.found.add(".".join(self.scope))
        self.generic_visit(node)


def _callers(*names: str) -> set[str]:
    found: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        callers = _Callers(path.stem, set(names))
        callers.visit(ast.parse(path.read_text(encoding="utf-8")))
        found |= callers.found
    return found


def test_one_function_searches_for_augmenting_paths():
    # a breadth-first search over the residual network needs a queue
    assert _callers("deque", "popleft") == {"welfare._route"}


def test_the_rule_cover_and_the_division_share_the_flow():
    assert _callers("_route") == {"welfare._feasible_by_flow", "deviations._divide_strictly"}


def test_stable_outcomes_are_split_by_the_deviation_division():
    assert _callers("_divide_strictly") == {
        "deviations.find_c_deviation",
        "deviations._Search.try_candidate",
        "core._stable_outcome",
    }
    assert _callers("_stable_outcome") == {"core.stabilize", "core.stabilize_structure"}


def _imported(tree: ast.AST):
    """Every module and every ``from`` name a module imports, dotted."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_deviation_search_and_convexity_import_no_lp():
    found = [
        f"{name}: {module}"
        for name in ("deviations", "convexity")
        for module in _imported(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8")))
        if module == "ocfgames.lp" or module.startswith("ocfgames.lp.")
    ]
    assert found == []
