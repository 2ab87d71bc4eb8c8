"""Per-layer tracing from outside the library.

``traced_replay`` replaces layer entry points of the imported ``ocfgames``
modules with wrappers that record a span (name, start, end, parent span,
query id) and a few counts read from the call's arguments or result, replays
the queries an untraced run completed, restores the originals and reduces
the spans to per-layer metrics.  The library's source is not touched.

Each layer's public entry point is wrapped, plus the module-level helper
that receives a count when no public function exposes it (the strict
division LP, the two rule-cover feasibility tests, the Aubin DP).

Which end-to-end metric each layer should move, on which workload:

- ``lp``: ``queries_per_s``, ``query_p50_ms`` and ``query_tail_ms`` on
  lp-mix (division LPs, rule-cover LP tests, stabilization); no change on
  pseudopoly, which solves no LP;
- ``welfare`` profile DP: ``queries_per_s`` and ``query_p50_ms`` on
  pseudopoly; next to nothing on lp-mix (W <= 84 there);
- ``welfare`` rule cover: ``queries_per_s`` on lp-mix, and its
  ``peak_rss_mb`` through the vstar cache; no change on pseudopoly;
- ``core`` min-payoff DP: ``query_p50_ms`` on pseudopoly; stabilization:
  ``query_tail_ms`` on lp-mix;
- ``deviations``: ``queries_per_s`` and ``query_p50_ms`` on lp-mix;
- ``fuzzy`` (Aubin): ``query_tail_ms`` and ``queries_per_s`` on pseudopoly;
- ``convexity``: ``query_tail_ms`` on lp-mix, where falsifier calls are
  among the slowest queries;
- ``io``: ``setup_s`` on both.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from collections import defaultdict

# (module, attribute, span name); "Class.method" patches a class attribute
WRAPPED = (
    ("lp", "solve", "lp.solve"),
    ("lp", "solve_with_separation", "lp.separation"),
    ("welfare", "knapsack_profile", "welfare.profile"),
    ("welfare", "max_welfare_overlapping", "welfare.max_welfare"),
    ("welfare", "vstar", "welfare.vstar"),
    ("welfare", "_rule_cover", "welfare.rule_cover"),
    ("welfare", "_feasible_by_flow", "welfare.flow_test"),
    ("welfare", "_feasible_by_lp", "welfare.lp_test"),
    ("core", "min_payoff_table", "core.min_payoff"),
    ("core", "check_group_rationality", "core.group_rationality"),
    ("core", "stabilize", "core.stabilize"),
    ("core", "stabilize_structure", "core.structure"),
    ("deviations", "core_membership", "deviations.membership"),
    ("deviations", "find_c_deviation", "deviations.find"),
    ("deviations", "find_r_deviation", "deviations.find"),
    ("deviations", "find_o_deviation", "deviations.find"),
    ("deviations", "_Search.__init__", "deviations.search_setup"),
    ("deviations", "_Search.new_structures", "deviations.enumerate"),
    ("deviations", "_o_mods", "deviations.enumerate"),
    ("deviations", "_try_best_first", "deviations.try_best_first"),
    ("deviations", "_Search.try_candidate", "deviations.try"),
    ("deviations", "_divide_strictly", "deviations.divide"),
    ("fuzzy", "f_core_check", "fuzzy.f_core"),
    ("fuzzy", "aubin_core_check", "fuzzy.aubin"),
    ("fuzzy", "_min_cost_profile", "fuzzy.min_cost"),
    ("convexity", "falsify_convexity", "convexity.falsify"),
    ("convexity", "_premise_vectors", "convexity.premise"),
    ("convexity", "_witness_exists", "convexity.witness"),
    ("convexity", "_divide", "convexity.divide"),
    ("io", "game_from_dict", "io.parse"),
    ("io", "outcome_from_dict", "io.parse"),
)


# The per-layer metrics of the result line.  Self times stay in the printed
# table and the trace file: a workload that bypasses a layer reads exactly
# 0 s there on every run, and the result line carries no time that reads the
# same on every run.
REPORTED = (
    "lp.solve_calls", "lp.tableau_cells", "lp.max_rows", "lp.infeasible_calls",
    "lp.separation_rounds",
    "welfare.profile_calls", "welfare.profile_cells", "welfare.profile_cache_hits",
    "welfare.profile_cache_misses",
    "welfare.vstar_calls", "welfare.vstar_cache_hits", "welfare.vstar_cache_misses",
    "welfare.flow_tests", "welfare.lp_tests",
    "core.min_payoff_calls", "core.min_payoff_cells", "core.certificates",
    "deviations.sets_visited", "deviations.candidates_generated",
    "deviations.candidates_tried", "deviations.divisions_ok_ratio",
    "fuzzy.aubin_calls", "fuzzy.aubin_dp_cells",
    "convexity.falsify_calls", "convexity.divide_lps", "convexity.witness_checks",
    "io.docs_parsed", "io.parse_s", "trace.overhead_s",
)


class Tracer:
    """Spans in columnar arrays, plus counters fed by per-call hooks."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.stack: list[int] = []
        self.qid = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)

    def wrap(self, span_name, fn, hook=None, before=None):
        if span_name not in self._name_id:
            self._name_id[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._name_id[span_name]
        perf = time.perf_counter
        stack, start, end = self.stack, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.query.append(self.qid)
            end.append(0.0)
            pre = before() if before is not None else None
            stack.append(idx)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result, pre)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        """Per span name: (spans, total inclusive seconds, total self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def children_of(self, parent_name, child_name) -> int:
        pid, cid = self._name_id.get(parent_name), self._name_id.get(child_name)
        if pid is None or cid is None:
            return 0
        return sum(
            1 for i in range(len(self.start))
            if self.name[i] == cid and self.parent[i] >= 0
            and self.name[self.parent[i]] == pid
        )


def _hooks(lib, tr: Tracer):
    c, mx = tr.counts, tr.maxima
    profile_cache = lib.welfare.knapsack_profile

    def lp_solve(args, kwargs, result, pre):
        program = args[0] if args else kwargs["program"]
        rows = len(program.constraints)
        c["lp.tableau_cells"] += rows * len(program.names)
        mx["lp.max_rows"] = max(mx["lp.max_rows"], rows)
        if result.status == "infeasible":
            c["lp.infeasible_calls"] += 1

    def profile(args, kwargs, result, pre):
        if profile_cache.cache_info().misses > pre:
            c["welfare.profile_cells"] += len(result.utilities)

    def min_payoff(args, kwargs, result, pre):
        c["core.min_payoff_cells"] += len(result.P) * len(result.P[0])

    def structure(args, kwargs, result, pre):
        if result.certificate is not None:
            c["core.certificates"] += 1

    def best_first(args, kwargs, result, pre):
        c["deviations.candidates_generated"] += len(args[1])

    def divide(args, kwargs, result, pre):
        if result is not None:
            c["deviations.divisions_ok"] += 1

    def min_cost(args, kwargs, result, pre):
        costs, caps, W = args
        c["fuzzy.aubin_dp_cells"] += (len(caps) + 1) * (W + 1)

    return {
        "lp.solve": (lp_solve, None),
        "welfare.profile": (profile, lambda: profile_cache.cache_info().misses),
        "core.min_payoff": (min_payoff, None),
        "core.structure": (structure, None),
        "deviations.try_best_first": (best_first, None),
        "deviations.divide": (divide, None),
        "fuzzy.min_cost": (min_cost, None),
    }


def install(lib, tr: Tracer, extra=()):
    """Wrap every entry point in WRAPPED (and ``extra``); returns an undo list."""
    hooks = _hooks(lib, tr)
    undo = []
    for mod_name, attr, span_name in tuple(WRAPPED) + tuple(extra):
        owner = getattr(lib, mod_name) if isinstance(mod_name, str) else mod_name
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        hook, before = hooks.get(span_name, (None, None))
        setattr(owner, attr, tr.wrap(span_name, original, hook, before))
        undo.append((owner, attr, original))
    finders = lib.deviations.FINDERS
    for kind, fn in list(finders.items()):
        finders[kind] = getattr(lib.deviations, fn.__name__)
        undo.append((finders, kind, fn))
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        if isinstance(owner, dict):
            owner[attr] = original
        else:
            setattr(owner, attr, original)


def layer_metrics(lib, tr: Tracer, overhead_s):
    """The per-layer metrics, by name: (value, unit)."""
    st = tr.self_times()
    c = tr.counts

    def calls(*names):
        return sum(st[n][0] for n in names if n in st)

    def self_s(*names):
        return sum(st[n][2] for n in names if n in st)

    def inclusive_s(*names):
        return sum(st[n][1] for n in names if n in st)

    profile_info = lib.welfare.knapsack_profile.cache_info()
    vstar_info = lib.welfare._vstar_cached.cache_info()
    divides = calls("deviations.divide")
    m = {
        "lp.solve_calls": (calls("lp.solve"), "count"),
        "lp.solve_self_s": (self_s("lp.solve"), "s"),
        "lp.tableau_cells": (c["lp.tableau_cells"], "count"),
        "lp.max_rows": (tr.maxima["lp.max_rows"], "count"),
        "lp.infeasible_calls": (c["lp.infeasible_calls"], "count"),
        "lp.separation_rounds": (tr.children_of("lp.separation", "lp.solve"), "count"),
        "welfare.profile_calls": (calls("welfare.profile"), "count"),
        "welfare.profile_cells": (c["welfare.profile_cells"], "count"),
        "welfare.profile_self_s": (self_s("welfare.profile"), "s"),
        "welfare.profile_cache_hits": (profile_info.hits, "count"),
        "welfare.profile_cache_misses": (profile_info.misses, "count"),
        "welfare.vstar_calls": (calls("welfare.vstar"), "count"),
        "welfare.vstar_cache_hits": (vstar_info.hits, "count"),
        "welfare.vstar_cache_misses": (vstar_info.misses, "count"),
        "welfare.rule_cover_self_s": (self_s("welfare.rule_cover"), "s"),
        "welfare.flow_tests": (calls("welfare.flow_test"), "count"),
        "welfare.lp_tests": (calls("welfare.lp_test"), "count"),
        "core.min_payoff_calls": (calls("core.min_payoff"), "count"),
        "core.min_payoff_cells": (c["core.min_payoff_cells"], "count"),
        "core.min_payoff_self_s": (self_s("core.min_payoff"), "s"),
        "core.stabilize_self_s": (self_s("core.stabilize"), "s"),
        "core.structure_self_s": (self_s("core.structure"), "s"),
        "core.certificates": (c["core.certificates"], "count"),
        "deviations.sets_visited": (calls("deviations.find"), "count"),
        "deviations.candidates_generated": (c["deviations.candidates_generated"], "count"),
        "deviations.candidates_tried": (calls("deviations.try"), "count"),
        "deviations.divisions_ok_ratio": (
            c["deviations.divisions_ok"] / divides if divides else 0.0, "ratio"),
        "deviations.search_setup_s": (self_s("deviations.search_setup"), "s"),
        "deviations.enumerate_self_s": (
            self_s("deviations.find", "deviations.enumerate",
                   "deviations.try_best_first"), "s"),
        "fuzzy.aubin_calls": (calls("fuzzy.aubin"), "count"),
        "fuzzy.aubin_self_s": (self_s("fuzzy.aubin", "fuzzy.min_cost"), "s"),
        "fuzzy.aubin_dp_cells": (c["fuzzy.aubin_dp_cells"], "count"),
        "convexity.falsify_calls": (calls("convexity.falsify"), "count"),
        "convexity.self_s": (
            self_s("convexity.falsify", "convexity.premise", "convexity.witness",
                   "convexity.divide"), "s"),
        "convexity.divide_lps": (calls("convexity.divide"), "count"),
        "convexity.witness_checks": (calls("convexity.witness"), "count"),
        "io.docs_parsed": (calls("io.parse"), "count"),
        "io.parse_s": (inclusive_s("io.parse"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return m, st


def traced_replay(lib, pool, queries, done, untraced_wall, workload, seed,
                  clear_caches, closed_loop, reparse, out_dir):
    """Replay the ``done`` queries of the untraced run with tracing on.

    Returns the per-layer metrics; prints the per-layer table and writes the
    spans and the table to ``out_dir``.
    """
    import workloads

    tr = Tracer()
    clear_caches(lib)
    undo = install(lib, tr, extra=((workloads, "execute", "query"),))
    try:
        reparse(lib, pool)  # the set-up's JSON round trip, for the io layer
        tr.qid = 0

        def on_query(i):
            tr.qid = i

        _, errors, _, traced_wall = closed_loop(lib, pool, queries, count=done,
                                                on_query=on_query)
    finally:
        uninstall(undo)
    overhead = traced_wall - untraced_wall
    metrics, st = layer_metrics(lib, tr, overhead)

    print(f"traced replay of {done} queries: {traced_wall:.3f} s traced, "
          f"{untraced_wall:.3f} s untraced, overhead {overhead:+.3f} s "
          f"({100.0 * overhead / untraced_wall:+.1f}%), {len(tr.start)} spans")
    print(f"  {'span':<28}{'calls':>10}{'incl s':>11}{'self s':>11}")
    for name in sorted(st, key=lambda k: -st[k][2]):
        calls, incl, own = st[name]
        print(f"  {name:<28}{calls:>10}{incl:>11.4f}{own:>11.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:14.6g} {unit}")

    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"trace-{workload}-{seed}")
    with open(stem + ".spans", "wb") as fh:
        for col in (tr.name, tr.parent, tr.query, tr.start, tr.end):
            col.tofile(fh)
    with open(stem + ".json", "w") as fh:
        json.dump({
            "workload": workload, "seed": seed, "queries": done,
            "untraced_s": untraced_wall, "traced_s": traced_wall,
            "span_names": tr.names, "spans": len(tr.start),
            "spans_file": "columns name(u16) parent(i32) query(i32) start(f64) end(f64)",
            "by_span": {k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2]}
                        for k, v in st.items()},
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }, fh, indent=1)
        fh.write("\n")
    return metrics
