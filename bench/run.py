"""The ocfgames benchmark: seeded verdict workloads, timed end to end.

Usage (from the root of a checkout):

    python3 bench/run.py --workload lp-mix --seed 1 --seconds 40 --trace 0

One run sets the workload up (import, seeded generation, a JSON round trip
through ``io.game_from_dict``/``io.outcome_from_dict`` and validation) a few
times and keeps the median as ``setup_s``, clears the library's caches, then
issues queries in a closed loop (one client, one process, no threads) for
``--seconds``.  One query is the library call one ``ocf`` subcommand makes.
Afterwards every verdict is checked: against the committed expected file for
the seed when there is one (``bench/expected/``), and by the independent
routines of ``oracle.py``.

``--trace 1`` makes the same timed run, then replays exactly the queries it
completed with the library's layer entry points wrapped from outside
(``tracing.py``), prints per-layer counts and self times and reports the
per-layer metrics and the tracing overhead instead of the end-to-end ones.
``--write-expected`` runs the whole pool once and records the expected file
for a seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import math
import os
import resource
import statistics
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED_DIR = os.path.join(HERE, "expected")
OUT_DIR = os.path.join(HERE, "out")

import checks  # noqa: E402  (bench-local modules, found next to this file)
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up is repeated at least SETUP_REPS times and until SETUP_MIN_S seconds
# have gone into it, so that its median spans several seconds of a shared
# machine's varying speed, as the timed queries do.
SETUP_REPS = 3
SETUP_MIN_S = 12.0
# Instances generated per run; sized so that a run does not reach the end
# of its pool on a 2-core machine at the first recorded speed (the loop wraps
# around, with warm caches, if a faster program does).
POOL = {"lp-mix": 800, "pseudopoly": 60}
LIBRARY_MODULES = ("io", "model", "rationals", "lp", "welfare", "core",
                   "deviations", "fuzzy", "convexity")


class SetupError(RuntimeError):
    """The workload could not be built: the run prints no result."""


def load_library():
    """Import ocfgames from this checkout's ``src`` afresh; returns the modules."""
    for name in [m for m in sys.modules if m == "ocfgames" or m.startswith("ocfgames.")]:
        del sys.modules[name]
    if not os.path.isdir(os.path.join(SRC, "ocfgames")):
        raise SetupError(f"no ocfgames package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import importlib

    lib = SimpleNamespace()
    for name in LIBRARY_MODULES:
        setattr(lib, name, importlib.import_module(f"ocfgames.{name}"))
    if not os.path.abspath(lib.io.__file__).startswith(SRC + os.sep):
        raise SetupError(f"imported ocfgames from {lib.io.__file__}, not {SRC}")
    return lib


def _reject_float(text):
    raise SetupError(f"float literal {text!r} in a generated document")


def _round_trip(doc):
    return json.loads(json.dumps(doc), parse_float=_reject_float)


def build(lib, workload: str, seed: int, size: int):
    """Generate, round-trip and validate the pool; returns (pool, queries)."""
    pool, per_instance = [], []
    for index in range(size):
        family, doc = workloads.instance(workload, seed, index)
        inst = SimpleNamespace(doc=doc, outcomes=[], structures=None, payoffs=None,
                               disjoint=doc.get("disjoint"))
        inst.game = lib.io.game_from_dict(_round_trip(doc["game"]))
        for od in doc.get("outcomes", ()):
            outcome = lib.io.outcome_from_dict(_round_trip(od), inst.game)
            problems = lib.model.validate_outcome(inst.game, outcome)
            if problems:
                raise SetupError(f"{workload} instance {index}: {problems[0]}")
            inst.outcomes.append(outcome)
        if doc.get("structures") is not None:
            inst.structures = []
            for sd in doc["structures"]:
                cs = lib.io.outcome_from_dict(_round_trip(sd), inst.game).structure
                problems = lib.model.validate_structure(inst.game, cs)
                if problems:
                    raise SetupError(f"{workload} instance {index}: {problems[0]}")
                inst.structures.append(cs)
            inst.structures.append(lib.welfare.canonical_structure(inst.game))
        if doc.get("payoffs") is not None:
            inst.payoffs = [
                tuple(lib.rationals.as_q(x) for x in _round_trip(p))
                for p in doc["payoffs"]
            ]
        pool.append(inst)
        per_instance.append(workloads.FAMILIES[family][1](index, inst))
    return pool, workloads.interleave(per_instance, workloads.ROUND_ROBIN.get(workload, 1))


def reparse(lib, pool):
    """The set-up's JSON round trip of every document, again (for tracing)."""
    for inst in pool:
        game = lib.io.game_from_dict(_round_trip(inst.doc["game"]))
        for od in inst.doc.get("outcomes", ()):
            lib.io.outcome_from_dict(_round_trip(od), game)
        for sd in inst.doc.get("structures") or ():
            lib.io.outcome_from_dict(_round_trip(sd), game)


def clear_caches(lib):
    lib.welfare.knapsack_profile.cache_clear()
    lib.welfare._vstar_cached.cache_clear()


def setup(workload, seed, size):
    """Set up repeatedly; returns (lib, pool, queries, set-up seconds of each)."""
    times = []
    while len(times) < SETUP_REPS or sum(times) < SETUP_MIN_S:
        lib = pool = queries = None  # no set-up keeps the previous one alive
        gc.collect()
        t0 = time.perf_counter()
        lib = load_library()
        pool, queries = build(lib, workload, seed, size)
        times.append(time.perf_counter() - t0)
    return lib, pool, queries, times


def closed_loop(lib, pool, queries, seconds=None, count=None, on_query=None):
    """Issue queries back to back until ``seconds`` pass or ``count`` are done.

    Returns (results, errors, latencies, wall seconds).  A query that raises
    is recorded with its exception and counts as failed.
    """
    results, errors, lat = [], [], []
    execute = workloads.execute
    perf = time.perf_counter
    start = perf()
    deadline = None if seconds is None else start + seconds
    i, n = 0, len(queries)
    end = start
    while True:
        if count is not None and i >= count:
            break
        q = queries[i % n]
        if on_query is not None:
            on_query(i)
        t0 = perf()
        try:
            r, err = execute(lib, pool, q), None
        except Exception as exc:  # a failed query is counted, not fatal
            r, err = None, f"{type(exc).__name__}: {exc}"
        end = perf()
        lat.append(end - t0)
        results.append(r)
        errors.append(err)
        i += 1
        if deadline is not None and end >= deadline:
            break
    return results, errors, lat, end - start


# The tail percentile of each workload, from p90, p95, p99 and p99.9: one
# step below the highest that left at least 10 samples beyond it in every
# run at the first recorded throughput, so that slower runs keep 10 beyond
# it too.  It is fixed so that runs stay comparable as throughput changes;
# each run prints how many samples lie beyond it.
TAIL_PERCENTILE = {"lp-mix": 99.0, "pseudopoly": 90.0}


def tail(lat_ms, percentile):
    """Nearest-rank latency at ``percentile``; returns (value, samples beyond)."""
    xs = sorted(lat_ms)
    rank = max(1, math.ceil(percentile / 100.0 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def expected_path(workload, seed):
    return os.path.join(EXPECTED_DIR, f"{workload}-{seed}.json.gz")


def write_expected(workload, seed, size, texts):
    """Record the verdict of every query in the pool, in pool order."""
    doc = {"workload": workload, "seed": seed, "pool": size, "queries": len(texts),
           "digest": workloads.digest(texts),
           "verdicts": "".join(workloads.short_hash(t) for t in texts)}
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    data = (json.dumps(doc, separators=(",", ":")) + "\n").encode("ascii")
    with open(expected_path(workload, seed), "wb") as raw:
        with gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(data)
    return doc


def read_expected(workload, seed):
    """Per-query verdict hashes for the seed, or None without a file."""
    path = expected_path(workload, seed)
    if not os.path.exists(path):
        return None
    with gzip.open(path, "rt", encoding="ascii") as fh:
        hashes = json.load(fh)["verdicts"]
    k = workloads.HASH_CHARS
    return [hashes[i:i + k] for i in range(0, len(hashes), k)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-expected", action="store_true",
                    help="run the whole pool once and record its verdicts")
    args = ap.parse_args(argv)
    size = POOL[args.workload]

    try:
        lib, pool, queries, setup_times = setup(args.workload, args.seed, size)
    except (SetupError, ImportError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2

    if args.write_expected:
        clear_caches(lib)
        results, errors, _, wall = closed_loop(lib, pool, queries, count=len(queries))
        texts, failed = checks.describe_all(lib, pool, queries, results, errors)
        if any(err is not None for err in errors):
            print(f"error: {len(failed)} queries failed; first: {failed[0]}",
                  file=sys.stderr)
            return 1
        # the file records the program's verdicts; wrong ones are reported
        _, oracle_bad = checks.oracle_sample(pool, queries, results)
        failed += [(i, "the oracle disagrees") for i in sorted(oracle_bad)]
        doc = write_expected(args.workload, args.seed, size, texts)
        print(f"wrote {expected_path(args.workload, args.seed)}: "
              f"{len(queries)} queries in {wall:.1f} s, digest {doc['digest']}, "
              f"{len(failed)} incorrect")
        for i, msg in failed:
            print(f"  incorrect query {i} {queries[i]}: {msg}")
        return 0

    clear_caches(lib)
    gc.collect()
    results, errors, lat, wall = closed_loop(lib, pool, queries, seconds=args.seconds)
    done = len(results)
    cache = {
        "profile": lib.welfare.knapsack_profile.cache_info(),
        "vstar": lib.welfare._vstar_cached.cache_info(),
    }
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if args.trace:
        layers = tracing.traced_replay(lib, pool, queries, done, wall, args.workload,
                                       args.seed, clear_caches, closed_loop, reparse,
                                       OUT_DIR)

    issued = [queries[i % len(queries)] for i in range(done)]
    texts, failed = checks.describe_all(lib, pool, issued, results, errors)
    reasons = dict(failed)
    exp_note = "no expected file for this seed"
    expected = read_expected(args.workload, args.seed)
    if expected is not None:
        mismatched = 0
        for i, text in enumerate(texts):
            if text is not None and workloads.short_hash(text) != expected[i % len(expected)]:
                reasons.setdefault(i, "verdict differs from the expected file")
                mismatched += 1
        exp_note = (f"{mismatched} of {done} differ from "
                    f"{os.path.relpath(expected_path(args.workload, args.seed), ROOT)}")
    oracle_checked, oracle_bad = checks.oracle_sample(pool, issued, results)
    for i in oracle_bad:
        reasons.setdefault(i, "the oracle disagrees")
    n_failed = len(reasons)

    lat_ms = [x * 1000.0 for x in lat]
    t_pct = TAIL_PERCENTILE[args.workload]
    t_val, t_beyond = tail(lat_ms, t_pct)
    e2e = {
        "queries_per_s": (done / wall, "1/s"),
        "query_p50_ms": (statistics.median(lat_ms), "ms"),
        "query_tail_ms": (t_val, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(f"workload {args.workload} seed {args.seed}: {done} queries in {wall:.3f} s "
          f"(pool {size} instances, {len(queries)} queries"
          f"{', wrapped' if done > len(queries) else ''})")
    for name, (value, unit) in e2e.items():
        extra = ""
        if name == "query_tail_ms":
            extra = f"  (p{t_pct:g}, {t_beyond} samples beyond, of {done})"
        if name == "setup_s":
            extra = "  (median of " + ", ".join(f"{t:.3f}" for t in setup_times) + ")"
        print(f"  {name:<16} {value:12.4f} {unit}{extra}")
    print(f"  {'failed_frac':<16} {n_failed / max(1, done):12.4f} ratio "
          f"({n_failed} of {done})")
    print(f"  cache profile hits {cache['profile'].hits} misses {cache['profile'].misses}; "
          f"vstar hits {cache['vstar'].hits} misses {cache['vstar'].misses}")
    print(f"  verdict digest {workloads.digest(t or '' for t in texts)} over {done} queries; "
          f"{exp_note}; oracle re-checked {oracle_checked}, {len(oracle_bad)} disagree")
    for i in sorted(reasons)[:5]:
        print(f"  failed query {i} {issued[i]}: {reasons[i]}")

    if layers is not None:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()
                   if name in tracing.REPORTED}
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}
    print(json.dumps({"correct": n_failed == 0, "attempted": done,
                      "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
