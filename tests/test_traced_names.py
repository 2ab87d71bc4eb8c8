"""The benchmark's tracer (``bench/tracing.py``) wraps library functions by
module and attribute name.  Every name it lists must resolve, so a rename
fails here instead of breaking ``bench/run.py --trace 1``.  The tracer's
source is parsed, not imported or run."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _wrapped() -> tuple:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "WRAPPED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"no WRAPPED table in {TRACING}")


def test_every_traced_entry_point_resolves():
    wrapped = _wrapped()
    assert wrapped
    missing = []
    for module, attr, _ in wrapped:
        owner = importlib.import_module(f"ocfgames.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert not missing, missing
