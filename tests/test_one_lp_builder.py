"""Every linear program of the library is assembled by ``lp.ProgramBuilder``:
no module but ``lp.py`` constructs a ``LinearProgram`` itself.  Both
stabilizations share one constraint-generation engine, so the library calls
``lp.solve_with_separation`` from one place.  Deviation search, the convexity
witness, greedy construction and the split of stable totals over a structure
divide values by a max-flow, not a program, so builders are opened in three
functions only."""

from __future__ import annotations

import ast
from pathlib import Path

import ocfgames

PACKAGE = Path(ocfgames.__file__).parent


def _called_name(node: ast.Call) -> str:
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def test_only_lp_constructs_linear_programs():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "lp.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and _called_name(node) == "LinearProgram"
    ]
    assert found == []


def test_solve_with_separation_has_one_caller():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and _called_name(node) == "solve_with_separation"
    ]
    assert len(found) == 1, found


def test_program_builders_are_opened_in_three_functions():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and _called_name(node) == "ProgramBuilder":
                    found.add(f"{path.stem}.{func.name}")
    assert found == {
        "core._stable_totals",
        "welfare._feasible_by_lp",
        "corpus._partition_stabilizable",
    }
