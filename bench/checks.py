"""The correctness gate: verdict texts, witness validity and the oracle sample.

``describe_all`` turns every completed query into the canonical text that
the expected files pin down; for the LP-based queries (whose payoff vectors
and certificates depend on the simplex path) it checks the returned outcome
or certificate with ``oracle.py`` and records only its validity.
``oracle_sample`` re-decides a sample of queries independently.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

import oracle
import workloads

ZERO = Fraction(0)
FCORE_SAMPLE = 12  # f-core queries re-decided by the integer DP per run
RULE_GAMES_SAMPLE = 2  # disjoint rule-cover games re-decided in full per run


class _Tables(dict):
    """TTG tables per pool index, built on first use."""

    def __init__(self, pool):
        super().__init__()
        self.pool = pool

    def __missing__(self, index):
        g = self.pool[index].doc["game"]
        table = oracle.TTGTable(
            g["weights"], [(t["threshold"], t["utility"]) for t in g["tasks"]]
        )
        self[index] = table
        return table


def _columns(pays, n):
    return [sum((Fraction(row[j]) for row in pays), ZERO) for j in range(n)]


def _valid(q, r, inst, table) -> bool:
    kind = q[0]
    if kind == "stabilize":
        if not r.stable:
            return r.outcome is None
        rows = [c.units for c in r.outcome.structure.coalitions]
        p = _columns(r.outcome.payoffs, len(table.weights))
        return (oracle.outcome_ok(table, rows, r.outcome.payoffs)
                and sum(p, ZERO) == table.best(sum(table.weights, ZERO))
                and oracle.in_core(table, p))
    if kind == "structure":
        rows = [c.units for c in inst.structures[q[2]].coalitions]
        if r.stable:
            if [c.units for c in r.outcome.structure.coalitions] != rows:
                return False
            p = _columns(r.outcome.payoffs, len(table.weights))
            return (oracle.outcome_ok(table, rows, r.outcome.payoffs, allow_negative=True)
                    and oracle.in_core(table, p))
        cert = r.certificate
        return cert is not None and oracle.balanced_certificate_ok(
            table, rows, cert.lambdas, cert.mus)
    if kind in ("fcore", "aubin"):
        if r.holds:
            return r.witness is None
        # the witness profile earns at least witness_value (the f-core witness
        # may pool more than the failing weight) and is paid less than that
        p = inst.payoffs[q[2]]
        pooled = sum((x * w for x, w in zip(r.witness, table.weights)), ZERO)
        cost = (sum((p[j] for j, x in enumerate(r.witness) if x != 0), ZERO)
                if kind == "fcore" else sum((x * y for x, y in zip(p, r.witness)), ZERO))
        full = kind == "aubin" or all(x in (0, 1) for x in r.witness)
        return full and cost < r.witness_value <= table.best(pooled)
    if kind == "welfare":
        value, counts, cs = r
        tasks = inst.game.tasks
        total = sum(inst.game.weights, ZERO)
        used = sum((k * t.threshold for k, t in zip(counts, tasks)), ZERO)
        earned = sum((k * t.utility for k, t in zip(counts, tasks)), ZERO)
        return (value == table.best(total) and used <= total and earned == value
                and sum((table.row_value(c.units) for c in cs.coalitions), ZERO) == value)
    return True


def describe_all(lib, pool, issued, results, errors):
    """Verdict text per completed query (None if it raised) and the failures."""
    tables = _Tables(pool)
    texts, failed = [], []
    for i, (q, r, err) in enumerate(zip(issued, results, errors)):
        if err is not None:
            texts.append(None)
            failed.append((i, err))
            continue
        valid = True
        if q[0] in ("stabilize", "structure", "welfare", "fcore", "aubin"):
            valid = _valid(q, r, pool[q[1]], tables[q[1]])
            if not valid:
                failed.append((i, f"{q}: returned witness fails the oracle check"))
        texts.append(workloads.describe(q, r, valid))
    return texts, failed


def _member_text(v):
    if v is None:
        return "1|-|-|-"
    S, need, short = v
    return f"0|{','.join(map(str, S))}|{need}|{short}"


def _grid_search(pool, issued, results, bad):
    tables = _Tables(pool)
    capped = {}
    checked = 0
    by_outcome = defaultdict(dict)
    for i, (q, r) in enumerate(zip(issued, results)):
        if q[0] != "member" or r is None:
            continue
        by_outcome[(q[1], q[2])][q[3]] = (i, r)
        checked += 1
        if q[3] == "c":
            inst = pool[q[1]]
            od = inst.doc["outcomes"][q[2]]
            p = _columns([[Fraction(x) for x in row] for row in od["payoffs"]],
                         inst.game.n)
            table = tables[q[1]]
            want = _member_text(oracle.subset_violation(inst.game.n, p, table.subset_best))
            if workloads.describe(q, r, True) != want:
                bad.add(i)
        elif not r.stable:
            gains = r.deviation.gains if r.deviation is not None else {}
            if not gains or any(g <= 0 for g in gains.values()) or \
                    sum(gains.values(), ZERO) != r.shortfall:
                bad.add(i)
    for (index, oi), kinds in by_outcome.items():
        # o-stable implies r-stable at the same cap
        if "o" in kinds and "r" in kinds:
            if kinds["o"][1].stable and not kinds["r"][1].stable:
                bad.add(kinds["o"][0])
        # r-stable implies that no set has a conservative deviation within
        # the same cap (abandoning every shared coalition is a refined
        # deviation).  The library's c verdict on a TTG ignores the cap, so
        # it is compared with the exact oracle above, not with r.
        if "r" in kinds and kinds["r"][1].stable:
            table = tables[index]
            if index not in capped:
                capped[index] = oracle.CappedC(table)
            od = pool[index].doc["outcomes"][oi]
            rows = [[Fraction(x) for x in row] for row in od["structure"]]
            p = _columns([[Fraction(x) for x in row] for row in od["payoffs"]],
                         pool[index].game.n)
            if oracle.capped_c_violation(table, capped[index], rows, p,
                                         workloads.CAP) is not None:
                bad.add(kinds["r"][0])
    return checked


def _pseudopoly(pool, issued, results, bad):
    tables = _Tables(pool)
    checked = 0
    fcore_left = FCORE_SAMPLE
    for i, (q, r) in enumerate(zip(issued, results)):
        if r is None or q[0] not in ("fcore", "aubin"):
            continue
        inst = pool[q[1]]
        p = inst.payoffs[q[2]]
        table = tables[q[1]]
        if q[0] == "aubin":
            checked += 1
            hit = oracle.aubin_gap(table, p)
            ok = r.holds if hit is None else (not r.holds and r.witness_value == hit[1])
        elif fcore_left > 0:
            fcore_left -= 1
            checked += 1
            hit = oracle.min_payoff_violation(table, p)
            ok = r.holds if hit is None else (not r.holds and r.witness_value == hit[1])
        else:
            continue
        if not ok:
            bad.add(i)
    return checked


def _rule_cover(pool, issued, results, bad):
    checked = 0
    covers = {}
    for i, (q, r) in enumerate(zip(issued, results)):
        if r is None or q[0] not in ("vstar", "rational") or not pool[q[1]].disjoint:
            continue
        if q[1] not in covers:
            if len(covers) >= RULE_GAMES_SAMPLE:
                continue
            doc = pool[q[1]].doc["game"]
            covers[q[1]] = oracle.RuleCover(doc["weights"], doc["rules"], workloads.CAP)
        cover = covers[q[1]]
        checked += 1
        if q[0] == "vstar":
            ok = r == cover.value(frozenset(workloads.mask_agents(q[2])))
        else:
            inst = pool[q[1]]
            od = inst.doc["outcomes"][q[2]]
            p = _columns([[Fraction(x) for x in row] for row in od["payoffs"]],
                         inst.game.n)
            v = oracle.subset_violation(inst.game.n, p,
                                        lambda S: cover.value(frozenset(S)))
            ok = workloads.describe(q, r, True) == _member_text(v)
        if not ok:
            bad.add(i)
    return checked


def oracle_sample(pool, issued, results):
    """Re-decide a sample independently; returns (checked, failing indices).

    The outcomes and certificates of the stabilize workload are all checked
    in ``describe_all``; they count as checked here.
    """
    bad: set = set()
    checked = sum(check(pool, issued, results, bad)
                  for check in (_grid_search, _pseudopoly, _rule_cover))
    checked += sum(1 for q, r in zip(issued, results)
                   if r is not None and q[0] in ("stabilize", "structure"))
    return checked, bad
