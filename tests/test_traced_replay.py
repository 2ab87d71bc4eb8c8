"""The benchmark's traced replay (``bench/tracing.py``) runs a small pool of
each workload end to end: its hooks read the arguments and results of the
library calls they wrap, which ``test_traced_names.py`` does not check."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402


def _strict_closed_loop(*args, **kwargs):
    results, errors, lat, wall = run.closed_loop(*args, **kwargs)
    failed = [err for err in errors if err is not None]
    assert not failed, failed[0]
    return results, errors, lat, wall


@pytest.mark.parametrize("workload", ["lp-mix", "pseudopoly"])
def test_traced_replay_reports_every_metric(workload, tmp_path):
    # the modules this session already imported, not a fresh import of the package
    lib = SimpleNamespace(**{name: importlib.import_module(f"ocfgames.{name}")
                             for name in run.LIBRARY_MODULES})
    pool, queries = run.build(lib, workload, 1, 4)
    *_, wall = _strict_closed_loop(lib, pool, queries, count=len(queries))
    metrics = tracing.traced_replay(lib, pool, queries, len(queries), wall, workload, 1,
                                    run.clear_caches, _strict_closed_loop, run.reparse,
                                    str(tmp_path))
    assert set(tracing.REPORTED) <= set(metrics)
    assert (tmp_path / f"trace-{workload}-1.json").exists()
