"""Acceptance gate: fourteen end-to-end checks, one per shipped guarantee.

Each test records a single ``ACCEPTANCE k: pass|FAIL`` line (replayed in
the terminal summary so it survives pytest capture) and then asserts.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction as Q

import pytest

from conftest import (
    brute_best_utility,
    brute_payoff_membership,
    random_outcome,
    random_ttg,
)
from ocfgames import (
    convexity,
    core,
    corpus,
    deviations,
    fuzzy,
    lp,
    reductions,
    welfare,
)
from ocfgames.model import (
    CoalitionStructure,
    GameError,
    Outcome,
    PartialCoalition,
    TTG,
    TaskType,
    payoff_vector,
    structure_value,
    to_nonoverlapping,
)

ZERO = Q(0)


def _report(number: int, ok: bool, summary: str) -> None:
    status = "pass" if ok else "FAIL"
    line = f"ACCEPTANCE {number}: {status} - {summary}"
    print(line)
    conftest_lines = __import__("conftest").ACCEPTANCE_LINES
    conftest_lines.append(line)
    assert ok, f"acceptance criterion {number}: {summary}"


# -- shared sweep for criteria 4, 5 and 13 ----------------------------------


@pytest.fixture(scope="module")
def sweep():
    """200 seeded small games with 20 outcomes each, plus the three
    membership verdicts per outcome at cap 3, grid 1."""
    rng = random.Random(2024)
    entries = []
    for _ in range(200):
        game = random_ttg(rng, max_n=4, max_total=8, max_tasks=2)
        outcomes = []
        for _ in range(20):
            o = random_outcome(rng, game)
            verdicts = {
                kind: deviations.core_membership(
                    game, o, kind=kind, cap=3, grid=1
                ).stable
                for kind in ("c", "r", "o")
            }
            outcomes.append((o, verdicts))
        entries.append((game, outcomes))
    return entries


def test_criterion_1_welfare_gap():
    g = corpus.three_symmetric_game()
    over = welfare.max_welfare_overlapping(g)[0]
    non = welfare.max_welfare_nonoverlapping(g)[0]
    _report(1, over == 2 and non == 1,
            f"overlapping welfare {over} vs partition welfare {non}")


def test_criterion_2_membership_suite():
    g = corpus.two_company_game()
    cs = CoalitionStructure(
        (PartialCoalition((Q(1), Q(4))), PartialCoalition((Q(3), Q(2))))
    )
    x = Outcome(cs, ((Q(7), Q(8)), (Q(9), Q(6))))
    y = Outcome(cs, ((Q(7), Q(8)), (Q(8), Q(7))))
    ok = payoff_vector(x, g.n) == (Q(16), Q(14))
    vx = core.check_group_rationality(g, x)
    ok = ok and not vx.stable and vx.witness == frozenset({1})
    ok = ok and core.check_group_rationality(g, y).stable
    _report(2, ok, "division decides strict-core membership of (16, 14)")


def test_criterion_3_deviation_suite():
    g = corpus.two_company_game()
    cs = CoalitionStructure(
        (PartialCoalition((Q(1), Q(4))), PartialCoalition((Q(3), Q(2))))
    )
    even = CoalitionStructure(
        (PartialCoalition((Q(2), Q(3))), PartialCoalition((Q(2), Q(3))))
    )
    y = Outcome(cs, ((Q(7), Q(8)), (Q(8), Q(7))))
    xp = Outcome(even, ((Q(3), Q(12)), (Q(12), Q(3))))
    yp = Outcome(even, ((Q(7), Q(8)), (Q(8), Q(7))))
    z = Outcome(
        CoalitionStructure(
            (PartialCoalition((Q(4), Q(3))), PartialCoalition((ZERO, Q(3))))
        ),
        ((Q(3), Q(12)), (ZERO, ZERO)),
    )
    r_hit = deviations.find_r_deviation(g, y, {1}, cap=3, grid=1)
    ok = r_hit.found and r_hit.gains[1] == 2  # 17 beats 15
    ok = ok and deviations.core_membership(g, xp, kind="r", cap=3, grid=1).stable
    joint = deviations.find_r_deviation(g, z, {0, 1}, cap=3, grid=1)
    total = sum((sum(row, ZERO) for row in joint.payoffs), ZERO) \
        if joint.found else None
    ok = ok and total == 30
    o_hit = deviations.find_o_deviation(g, xp, {1}, cap=3, grid=1)
    claimed = sum((row[1] for row in o_hit.payoffs), ZERO) if o_hit.found else None
    ok = ok and claimed == 17  # 7 from the trimmed coalition plus 10 alone
    ok = ok and deviations.core_membership(g, yp, kind="o", cap=3, grid=1).stable
    _report(3, ok, "refined and optimistic deviation searches match the "
                   "worked two-company verdicts")


def test_criterion_4_stability_chain(sweep):
    bad = 0
    for _, outcomes in sweep:
        for _, verdicts in outcomes:
            if verdicts["o"] and not verdicts["r"]:
                bad += 1
            if verdicts["r"] and not verdicts["c"]:
                bad += 1
    _report(4, bad == 0,
            f"o-stable implies r-stable implies c-stable on 4000 outcomes "
            f"({bad} violations)")


def test_criterion_5_accepted_outcomes_are_welfare_optimal(sweep):
    checked, bad = 0, 0
    for game, outcomes in sweep:
        best = welfare.max_welfare_overlapping(game)[0]
        for outcome, _ in outcomes:
            if not core.check_group_rationality(game, outcome).stable:
                continue
            checked += 1
            if structure_value(game, outcome.structure) != best:
                bad += 1
    _report(5, bad == 0 and checked > 0,
            f"every accepted outcome ({checked}) attains the optimum exactly")


def test_criterion_6_partition_game_gap():
    g = corpus.three_symmetric_game()
    # every partition: no stabilizing imputation, by LP and by integer scan
    lp_ok = all(
        not corpus._partition_stabilizable(g, blocks)
        for blocks in corpus._partitions(g.n)
    )
    int_ok = True
    for blocks in corpus._partitions(g.n):
        values = [to_nonoverlapping(g, S) for S in blocks]
        ranges = [range(int(v) + 1) for v in values for _ in range(1)]
        for assignment in itertools.product(
            *[range(int(sum(values)) + 1) for _ in range(g.n)]
        ):
            p = tuple(Q(a) for a in assignment)
            ok_blocks = all(
                sum((p[j] for j in S), ZERO) == v
                for S, v in zip(blocks, values)
            )
            if not ok_blocks:
                continue
            try:
                verdict = core.nonoverlapping_core_check(g, blocks, p)
            except GameError:
                continue
            if verdict.stable:
                int_ok = False
    stated = Outcome(
        CoalitionStructure(
            (PartialCoalition((Q(2), Q(1), ZERO)),
             PartialCoalition((ZERO, Q(1), Q(2))))
        ),
        ((Q(2, 3), Q(1, 3), ZERO), (ZERO, Q(1, 3), Q(2, 3))),
    )
    o_ok = deviations.core_membership(g, stated, kind="o", cap=3, grid=1).stable
    _report(6, lp_ok and int_ok and o_ok,
            "no crisp partition is stabilizable, yet the overlapping "
            "outcome is o-stable")


def test_criterion_7_empty_core_with_stable_partition():
    g = corpus.empty_core_game()
    empty = not core.stabilize(g).stable
    crisp = core.nonoverlapping_core_check(
        g, [frozenset({0}), frozenset({1, 2})], (Q(100), Q(1, 2), Q(1, 2))
    ).stable
    _report(7, empty and crisp,
            "overlapping core empty while partition {1},{2,3} is stable")


def test_criterion_8_fractional_vs_full_forfeit():
    g = corpus.two_mirror_game()
    ok = True
    for k in range(201):  # every efficient split at denominator 10
        p = (Q(k, 10), Q(20) - Q(k, 10))
        report = fuzzy.aubin_core_check(g, p)
        if report.holds:
            ok = False
        if p == (Q(10), Q(10)) and report.witness != (Q(7, 10), Q(7, 10)):
            ok = False
    ok = ok and fuzzy.f_core_check(g, (Q(10), Q(10))).holds
    stated = Outcome(
        CoalitionStructure((PartialCoalition((Q(10), Q(10))),)),
        ((Q(10), Q(10)),),
    )
    ok = ok and deviations.core_membership(
        g, stated, kind="o", cap=3, grid=1
    ).stable
    _report(8, ok, "every denominator-10 split fails the fractional check; "
                   "the full-forfeit check and o-core accept (10, 10)")


def test_criterion_9_rule_based_group_rationality():
    start = time.time()
    g = corpus.four_escorts_game()
    outcome = corpus._four_escorts_outcome()
    rational = core.check_group_rationality(g, outcome, cap=2).stable
    hit = deviations.find_r_deviation(g, outcome, {1, 2, 5, 6}, cap=5, grid=1)
    elapsed = time.time() - start
    _report(9, rational and hit.found and elapsed < 300,
            f"stated division group-rational at cap 2; four-player "
            f"refinement deviation found in {elapsed:.1f}s")


def test_criterion_10_rule_based_refined_vs_optimistic():
    g = corpus.triple_effort_game()
    outcome = corpus._triple_effort_outcome()
    r_ok = deviations.core_membership(g, outcome, kind="r", cap=3, grid=1).stable
    hit = deviations.find_o_deviation(g, outcome, {1, 2}, cap=3, grid=1)
    _report(10, r_ok and hit.found,
            "stated division r-stable; pair {2,3} deviates optimistically")


def test_criterion_11_oracle_equivalences():
    rng = random.Random(101)
    mism = 0
    for _ in range(100):  # membership vs 2^n brute force
        g = random_ttg(rng, max_n=10, max_total=12, max_tasks=2)
        o = random_outcome(rng, g)
        p = payoff_vector(o, g.n)
        if core.check_group_rationality(g, o).stable != brute_payoff_membership(g, p):
            mism += 1
    for _ in range(40):  # knapsack profile vs multiset enumeration
        g = random_ttg(rng, max_n=3, max_total=12, max_tasks=3)
        profile = welfare.knapsack_profile(g)
        for w in range(int(g.total_weight()) + 1):
            if profile.utilities[w] != brute_best_utility(g, Q(w)):
                mism += 1
    compared = 0
    for _ in range(80):  # lazy constraint generation vs materialized LP
        n = rng.randint(1, 8)
        m = rng.randint(1, 6)
        cons = tuple(
            (tuple(Q(rng.randint(-3, 3)) for _ in range(n)),
             rng.choice(("<=", ">=", "==")), Q(rng.randint(-5, 10)))
            for _ in range(m)
        )
        names = tuple(f"x{j}" for j in range(n))
        # nonpositive coefficients keep the maximum bounded over x >= 0
        objective = (tuple(Q(rng.randint(-2, 0)) for _ in range(n)), "max")
        full = lp.solve(lp.LinearProgram(names, cons, objective))

        def oracle(x, lazy=cons[1:]):
            for coeffs, rel, rhs in lazy:
                lhs = sum((c * v for c, v in zip(coeffs, x)), ZERO)
                if (rel == "<=" and lhs > rhs) or \
                   (rel == ">=" and lhs < rhs) or \
                   (rel == "==" and lhs != rhs):
                    return (coeffs, rel, rhs)
            return None

        base = lp.LinearProgram(names, cons[:1], objective)
        lazy_result, _ = lp.solve_with_separation(base, oracle)
        if lazy_result.status == "unbounded":
            continue
        compared += 1
        if full.status == "optimal":
            if lazy_result.objective_value != full.objective_value:
                mism += 1
        elif full.status == "infeasible":
            if lazy_result.status != "infeasible":
                mism += 1
    _report(11, mism == 0 and compared >= 30,
            f"membership, knapsack and lazy-LP oracles agree "
            f"({mism} mismatches)")


def test_criterion_12_reduction_equivalences():
    start = time.time()
    rng = random.Random(202)
    mism, built = 0, 0
    while built < 50:  # decision games from knapsack instances
        capacity = rng.randint(4, 25)
        items = tuple(
            (rng.randint(1, capacity), rng.randint(1, 12))
            for _ in range(rng.randint(1, 3))
        )
        target = rng.randint(2, 30)
        inst = reductions.KnapsackInstance(items, capacity, target)
        try:
            inst.normalized()
        except GameError:
            continue
        built += 1
        game, outcome = reductions.from_knapsack(inst)
        member = core.check_group_rationality(game, outcome).stable
        if member == reductions.knapsack_decision(inst):
            mism += 1
    for _ in range(10):  # decision games from biclique instances
        L, R = rng.randint(1, 3), rng.randint(1, 3)
        edges = frozenset(
            (a, b) for a in range(L) for b in range(R) if rng.random() < 0.6
        )
        target = rng.randint(1, L * R)
        inst = reductions.BicliqueInstance(L, R, edges, target)
        game, outcome = reductions.from_biclique(inst)
        cap = len(outcome.structure) + 1
        member = deviations.core_membership(
            game, outcome, kind="r", cap=cap, grid=1
        ).stable
        if member == reductions.biclique_decision(inst):
            mism += 1
    elapsed = time.time() - start
    _report(12, mism == 0 and elapsed < 600,
            f"60 reduction instances agree with brute force in {elapsed:.1f}s")


def test_criterion_13_structure_stabilization_agrees_with_the_lp(sweep):
    mism, bad_cert = 0, 0
    for game, outcomes in sweep[:60]:
        seen = set()
        for outcome, _ in outcomes:
            cs = outcome.structure
            key = tuple(c.units for c in cs.coalitions)
            if key in seen:
                continue
            seen.add(key)
            verdict = core.stabilize_structure(game, cs)
            if verdict.stable != _direct_lp_feasible(game, cs):
                mism += 1
            if not verdict.stable and verdict.certificate.check(game, cs):
                bad_cert += 1
    _report(13, mism == 0 and bad_cert == 0,
            f"per-structure stabilization matches the materialized LP "
            f"({mism} mismatches, {bad_cert} bad certificates)")


def _direct_lp_feasible(game, cs) -> bool:
    """Independent feasibility program over per-coalition payoff entries."""
    n = game.n
    var = {}
    for i, c in enumerate(cs.coalitions):
        for j in sorted(c.support):
            var[(i, j)] = len(var)
    cons = []
    for S in core._subsets(n):
        coeffs = [ZERO] * len(var)
        for (i, j), k in var.items():
            if j in S:
                coeffs[k] = Q(1)
        cons.append((tuple(coeffs), ">=", welfare.vstar(game, S)))
    for i, c in enumerate(cs.coalitions):
        coeffs = [ZERO] * len(var)
        for j in sorted(c.support):
            coeffs[var[(i, j)]] = Q(1)
        cons.append((tuple(coeffs), "==", game.value(c.units)))
    program = lp.LinearProgram(
        tuple(f"x{k}" for k in range(len(var))), tuple(cons),
        free=frozenset(range(len(var))),
    )
    return lp.solve(program).status != "infeasible"


def test_criterion_14_composition_property():
    rng = random.Random(303)
    built, bad = 0, 0
    games = 0
    while games < 20:
        g = random_ttg(rng, max_n=3, max_total=5, max_tasks=2)
        games += 1
        report = convexity.falsify_convexity(g, grid=1)
        if report.violation is not None:
            continue
        for ordering in itertools.permutations(range(g.n)):
            outcome = convexity.construct_core_element(g, ordering, grid=1)
            built += 1
            if not core.check_group_rationality(g, outcome).stable:
                bad += 1
    hits = convexity.falsify_convexity(
        corpus.empty_core_game(), cap=3, grid=1
    ).violation is not None
    _report(14, bad == 0 and built > 0 and hits,
            f"greedy construction stable on every violation-free game "
            f"({built} outcomes); the known counterexample is caught")
