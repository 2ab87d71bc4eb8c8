"""Seeded workload generators, the queries they issue and verdict digests.

Four instance families (grid-search, stabilize, pseudopoly, rule-cover) make
up the two workloads of ``WORKLOADS``.  A pool entry is built from
``(family, seed, index)`` alone, so a seed fixes the inputs and a longer pool
only appends to a shorter one.  Inside a family, sizes are laid out by index
(agent counts, weight denominators, disjoint or overlapping rules cycle
through fixed patterns) and the seed draws the numbers, so two seeds put the
same mix of work in front of the library.

Generation never calls the library under test: it produces JSON documents
(the files a user would hand to ``ocf``), and the set-up in ``run.py``
parses them with ``io.game_from_dict``/``io.outcome_from_dict``.  Where a
generator needs a value (a standalone optimum for individual rationality,
the grand-coalition optimum for an efficient payoff vector) it uses the
independent integer routines of ``oracle.py``.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import oracle

CAP, GRID = 3, 1  # the (cap, grid) resolution of every grid-limited query


def _s(x) -> str:
    return str(Fraction(x))


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _ttg_doc(weights, tasks) -> dict:
    return {
        "agents": len(weights),
        "weights": [_s(w) for w in weights],
        "tasks": [{"threshold": _s(t), "utility": _s(u)} for t, u in tasks],
    }


def _outcome_doc(rows, pays) -> dict:
    return {
        "structure": [[_s(u) for u in row] for row in rows],
        "payoffs": [[_s(x) for x in row] for row in pays],
    }


def _random_outcome(rng, weights, value_of, singles):
    """A feasible, individually rational outcome of one or two coalitions on
    integer contributions.

    ``value_of`` maps a contribution row to its (integral) value and
    ``singles`` holds each agent's standalone optimum.  Most agents commit
    their whole weight.  Each coalition first pays its supporters what they
    still lack of their standalone optimum, then splits the rest at random
    with small denominators.  Returns None when the drawn structure cannot
    pay every agent its standalone optimum, so callers draw again.
    """
    n = len(weights)
    k = rng.randint(1, 2)
    rows = [[0] * n for _ in range(k)]
    for j in range(n):
        left = int(weights[j])
        full = rng.random() < 0.75
        for c in range(k):
            u = left if full and c == k - 1 else rng.randint(0, left)
            rows[c][j] = u
            left -= u
    lack = [int(x) for x in singles]
    values = [int(value_of(row)) for row in rows]
    first = []
    for row, rest in zip(rows, values):
        support = [j for j in range(n) if row[j]]
        rng.shuffle(support)
        pay = [0] * n
        for j in support:
            give = min(lack[j], rest)
            pay[j] += give
            lack[j] -= give
            rest -= give
        first.append((support, pay, rest))
    if any(lack):
        return None
    pays = []
    for support, pay, rest in first:
        pay = [Fraction(x) for x in pay]
        if support and rest:
            shares = [rng.randint(0, 4) for _ in support]
            if not any(shares):
                shares[0] = 1
            total = sum(shares)
            for j, s in zip(support, shares):
                pay[j] += Fraction(rest * s, total)
        pays.append(pay)
    return rows, pays


# ---------------------------------------------------------------------------
# grid-search: tiny TTGs, c/r/o deviation search and the convexity falsifier


OUTCOMES_PER_GAME = 20


def _small_ttg(rng, n):
    budget = 8 - n
    weights = []
    for _ in range(n):
        extra = rng.randint(0, budget)
        budget -= extra
        weights.append(1 + extra)
    total = sum(weights)
    tasks = [(rng.randint(1, total), rng.randint(1, 20)) for _ in range(rng.randint(1, 2))]
    return weights, tasks


def grid_search_instance(seed: int, index: int) -> dict:
    rng = _rng("grid-search", seed, index)
    while True:
        weights, tasks = _small_ttg(rng, 2 + index % 3)
        table = oracle.TTGTable(weights, tasks)
        singles = [table.subset_best([j]) for j in range(len(weights))]
        outcomes = []
        for _ in range(8 * OUTCOMES_PER_GAME):
            hit = _random_outcome(rng, weights, table.row_value, singles)
            if hit is not None:
                outcomes.append(_outcome_doc(*hit))
                if len(outcomes) == OUTCOMES_PER_GAME:
                    return {"game": _ttg_doc(weights, tasks), "outcomes": outcomes}


def grid_search_queries(index: int, inst) -> list:
    qs = []
    for oi in range(len(inst.outcomes)):
        for kind in ("c", "r", "o"):
            qs.append(("member", index, oi, kind))
    qs.append(("falsify", index))
    return qs


# ---------------------------------------------------------------------------
# stabilize: constraint generation on 6-7 agents, per-structure LPs on 4


def _stabilize_ttg(rng, n):
    """Weights 1-12 and 3 tasks whose thresholds are at least a third of the
    total weight (smaller thresholds multiply the task copies in the
    welfare-optimal structure, and the LP size with them)."""
    weights = [rng.randint(1, 12) for _ in range(n)]
    total = sum(weights)
    tasks = [(rng.randint(-(-total // 3), total), rng.randint(1, 100)) for _ in range(3)]
    return weights, tasks


def stabilize_instance(seed: int, index: int) -> dict:
    rng = _rng("stabilize", seed, index)
    if index % 2 == 0:
        weights, tasks = _stabilize_ttg(rng, 6 + (index // 2) % 2)
        return {"game": _ttg_doc(weights, tasks), "structures": None}
    weights, tasks = _stabilize_ttg(rng, 4)
    structures = []
    for _ in range(2):
        left = list(weights)
        rows = []
        for _ in range(2):
            row = []
            for j in range(4):
                u = rng.randint(0, left[j])
                left[j] -= u
                row.append(u)
            rows.append(row)
        structures.append(_outcome_doc(rows, [[0] * 4 for _ in rows]))
    # the welfare-optimal structure is added at set-up by the library itself
    return {"game": _ttg_doc(weights, tasks), "structures": structures}


def stabilize_queries(index: int, inst) -> list:
    if inst.structures is None:
        return [("stabilize", index)]
    return [("structure", index, si) for si in range(len(inst.structures))]


# ---------------------------------------------------------------------------
# pseudopoly: large-W TTGs, welfare, the f-core scan and small Aubin checks


F_CHECKS = 10
AUBIN_EVERY = 4  # every fourth instance is a small Aubin game
AUBIN_CHECKS = 2


SHARE_UNITS = 1000


def _payoff_split(rng, total, weights, proportional):
    """An efficient payoff vector: ``total`` split in thousandths.

    The shares are the weights rounded to thousandths of the total weight
    (largest remainders first) or random.  A fixed denominator keeps the cost
    of exact payoff sums from depending on the seed.
    """
    n = len(weights)
    raw = [Fraction(w) for w in weights] if proportional else \
        [Fraction(rng.randint(0, 20)) for _ in range(n)]
    if not any(raw):
        raw[0] = Fraction(1)
    scale = SHARE_UNITS / sum(raw)
    exact = [x * scale for x in raw]
    shares = [int(x) for x in exact]
    by_remainder = sorted(range(n), key=lambda j: (shares[j] - exact[j], j))
    for j in by_remainder[: SHARE_UNITS - sum(shares)]:
        shares[j] += 1
    return [_s(Fraction(total) * k / SHARE_UNITS) for k in shares]


def _weights_with_total(rng, n, lo, hi, total):
    """``n`` weights drawn from ``lo..hi``, then nudged to sum to ``total``.

    The DP tables scale with the total weight W, so fixing it per instance
    index keeps a run's work from depending on the seed; the Aubin scan is
    cubic in W.
    """
    weights = [rng.randint(lo, hi) for _ in range(n)]
    while sum(weights) != total:
        j = rng.randrange(n)
        if sum(weights) < total and weights[j] < hi:
            weights[j] += 1
        elif sum(weights) > total and weights[j] > lo:
            weights[j] -= 1
    return weights


def pseudopoly_instance(seed: int, index: int) -> dict:
    rng = _rng("pseudopoly", seed, index)
    if index % AUBIN_EVERY == AUBIN_EVERY - 1:
        n = 6 + (index // AUBIN_EVERY) % 3
        weights = _weights_with_total(rng, n, 1, 12, 10 * n)
        checks, check = AUBIN_CHECKS, "aubin"
    else:
        n = 24 + (index * 7) % 17
        d = (2, 3, 4)[(index // 3) % 3] if index % 3 == 2 else 1
        units = _weights_with_total(rng, n, d, 100 * d, 101 * d * n // 2)
        weights = [Fraction(k, d) for k in units]
        checks, check = F_CHECKS, "fcore"
    total = sum(weights, Fraction(0))
    ntasks = rng.randint(3, 5)
    tasks = [
        (rng.randint(1, max(1, int(total) // 3)), rng.randint(1, 100))
        for _ in range(ntasks)
    ]
    optimum = oracle.TTGTable(weights, tasks).best(total)
    payoffs = [
        _payoff_split(rng, optimum, weights, proportional=(k == 0))
        for k in range(checks)
    ]
    return {"game": _ttg_doc(weights, tasks), "check": check, "payoffs": payoffs}


def pseudopoly_queries(index: int, inst) -> list:
    return [("welfare", index)] + [
        (inst.doc["check"], index, k) for k in range(len(inst.payoffs))
    ]


# ---------------------------------------------------------------------------
# rule-cover: rule-based games, standalone values and group rationality


RULE_OUTCOMES = 5


def rule_cover_instance(seed: int, index: int) -> dict:
    rng = _rng("rule-cover", seed, index)
    disjoint = index % 2 == 0
    n = 5 + (index // 2) % 2
    while True:
        inst = _rule_game(rng, n, disjoint, 4 + (index // 4) % 2)
        if inst is not None:
            return inst


def _rule_game(rng, n, disjoint, nrules):
    weights = [rng.randint(1, 4) for _ in range(n)]
    rules = []
    for r in range(nrules):
        k = rng.randint(1, 3)
        if disjoint or r > 0:
            agents = rng.sample(range(n), rng.randint(k, n))
            cuts = sorted(rng.sample(range(1, len(agents)), k - 1)) if k > 1 else []
            groups = [agents[a:b] for a, b in zip([0] + cuts, cuts + [len(agents)])]
        else:  # one rule whose requirement groups share an agent
            shared, a, b = rng.sample(range(n), 3)
            groups = [sorted({shared, a}), sorted({shared, b})]
        reqs = []
        for g in groups:
            have = sum(weights[j] for j in g)
            reqs.append({"agents": sorted(j + 1 for j in g), "min": rng.randint(1, have)})
        rules.append({"requirements": reqs, "value": rng.randint(1, 100)})
    game = {"agents": n, "weights": [_s(w) for w in weights], "rules": rules}
    cover = oracle.RuleCover(weights, rules, None)  # standalone values are uncapped
    singles = [cover.value(frozenset([j])) for j in range(n)]
    outcomes = []
    for _ in range(40 * RULE_OUTCOMES):
        hit = _random_outcome(rng, weights, cover.row_value, singles)
        if hit is not None:
            outcomes.append(_outcome_doc(*hit))
            if len(outcomes) == RULE_OUTCOMES:
                return {"game": game, "outcomes": outcomes, "disjoint": disjoint}
    return None


def rule_cover_queries(index: int, inst) -> list:
    n = inst.game.n
    qs = [("vstar", index, mask) for mask in range(1, 1 << n)]
    qs += [("rational", index, oi) for oi in range(len(inst.outcomes))]
    return qs


FAMILIES = {
    "grid-search": (grid_search_instance, grid_search_queries),
    "stabilize": (stabilize_instance, stabilize_queries),
    "pseudopoly": (pseudopoly_instance, pseudopoly_queries),
    "rule-cover": (rule_cover_instance, rule_cover_queries),
}

# Each workload cycles through its families in this order, one instance per
# entry.  "lp-mix" holds every family that solves exact LPs (deviation search,
# the rule cover, stabilization); "pseudopoly" holds the DP layers and no LP.
WORKLOADS = {
    "lp-mix": ("grid-search", "rule-cover", "stabilize", "stabilize"),
    "pseudopoly": ("pseudopoly",),
}

# Queries of consecutive instances are issued round-robin over blocks of this
# many instances (each instance keeps its own order).  A pseudopoly instance
# issues 10 equally costly f-core checks, so issuing them instance by
# instance would make the median of a run jump with the instance it stops in.
ROUND_ROBIN = {"pseudopoly": 12}


def instance(workload: str, seed: int, index: int):
    """The family and the document of pool entry ``index``.

    The entry is instance number k of its family, where k counts the
    earlier entries of the same family, so each family keeps its own layout.
    """
    pattern = WORKLOADS[workload]
    cycle, pos = divmod(index, len(pattern))
    family = pattern[pos]
    k = cycle * pattern.count(family) + pattern[:pos].count(family)
    return family, FAMILIES[family][0](seed, k)


def interleave(per_instance, block):
    """Round-robin the per-instance query lists over blocks of instances."""
    out = []
    for b in range(0, len(per_instance), block):
        chunk = per_instance[b:b + block]
        for k in range(max(map(len, chunk))):
            out.extend(qs[k] for qs in chunk if k < len(qs))
    return out


# ---------------------------------------------------------------------------
# executing one query and describing its verdict


def mask_agents(mask: int) -> tuple:
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


def execute(lib, pool, q):
    """Run one query: the library call one ``ocf`` subcommand makes."""
    kind = q[0]
    inst = pool[q[1]]
    g = inst.game
    if kind == "member":
        return lib.deviations.core_membership(
            g, inst.outcomes[q[2]], kind=q[3], cap=CAP, grid=GRID
        )
    if kind == "falsify":
        return lib.convexity.falsify_convexity(g, cap=CAP, grid=GRID)
    if kind == "stabilize":
        return lib.core.stabilize(g)
    if kind == "structure":
        return lib.core.stabilize_structure(g, inst.structures[q[2]])
    if kind == "welfare":
        return lib.welfare.max_welfare_overlapping(g)
    if kind == "fcore":
        return lib.fuzzy.f_core_check(g, inst.payoffs[q[2]])
    if kind == "aubin":
        return lib.fuzzy.aubin_core_check(g, inst.payoffs[q[2]])
    if kind == "vstar":
        return lib.welfare.vstar(g, mask_agents(q[2]), cap=CAP, grid=GRID)
    if kind == "rational":
        return lib.core.check_group_rationality(
            g, inst.outcomes[q[2]], cap=CAP, grid=GRID
        )
    raise ValueError(f"unknown query {kind!r}")


def _set(s) -> str:
    return "-" if s is None else ",".join(str(j) for j in sorted(s))


def _q(x) -> str:
    return "-" if x is None else str(x)


def describe(q, result, valid) -> str:
    """Canonical text of a verdict: what the expected files pin down.

    Decisions, deviator sets and witness values are fixed by each entry
    point's documented tie-breaking.  Payoff vectors, certificates and
    fuzzy witness profiles depend on the LP path or on DP tie-breaking, so
    only their validity (``valid``, checked by ``oracle.py``) is recorded.
    """
    kind = q[0]
    if kind in ("member", "rational"):
        return (f"{int(result.stable)}|{_set(result.witness)}|"
                f"{_q(result.witness_value)}|{_q(result.shortfall)}")
    if kind == "falsify":
        v = result.violation
        return "none" if v is None else f"{_set(v.R)}|{_set(v.S)}|{_set(v.T)}"
    if kind in ("stabilize", "structure"):
        return f"{int(result.stable)}|valid={int(valid)}"
    if kind == "welfare":
        value, counts, _ = result
        return f"{value}|{','.join(map(str, counts))}|valid={int(valid)}"
    if kind in ("fcore", "aubin"):
        return f"{int(result.holds)}|{_q(result.witness_value)}|valid={int(valid)}"
    if kind == "vstar":
        return str(result)
    raise ValueError(kind)


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


HASH_CHARS = 8


def short_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:HASH_CHARS]
