"""Every found deviation is assembled in one place: only
``deviations._package`` constructs a ``DeviationResult`` that is not
``found=False``, so every search that reports a deviation, a TTG's c witness
included, passes the same strict-gain check.  r and o candidates come from
one loop: only ``find_c_deviation`` and ``_try_choices`` construct a
``_Candidate``."""

from __future__ import annotations

import ast
from pathlib import Path

import ocfgames

PACKAGE = Path(ocfgames.__file__).parent


def _called_name(node: ast.Call) -> str:
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _found_argument(node: ast.Call):
    for keyword in node.keywords:
        if keyword.arg == "found":
            return keyword.value
    return node.args[0] if node.args else None


def _constructors(name: str) -> set[str]:
    """The functions and methods (``module.function``) that call ``name``."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, ast.FunctionDef) and any(
                isinstance(node, ast.Call) and _called_name(node) == name
                for node in ast.walk(func)
            ):
                found.add(f"{path.stem}.{func.name}")
    return found


class _Builders(ast.NodeVisitor):
    """The functions (``module`` at top level) that construct a
    ``DeviationResult`` without a literal ``found=False``."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found: set[str] = set()

    def visit_FunctionDef(self, node):
        self.scope.append(f"{self.scope[0]}.{node.name}")
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        if _called_name(node) == "DeviationResult":
            found = _found_argument(node)
            if not (isinstance(found, ast.Constant) and found.value is False):
                self.found.add(self.scope[-1])
        self.generic_visit(node)


def test_only_package_builds_found_deviations():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        builders = _Builders(path.stem)
        builders.visit(ast.parse(path.read_text(encoding="utf-8")))
        found |= builders.found
    assert found == {"deviations._package"}


def test_r_and_o_candidates_come_from_one_loop():
    assert _constructors("_Candidate") == {
        "deviations.find_c_deviation",
        "deviations._try_choices",
    }
