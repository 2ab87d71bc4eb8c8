from __future__ import annotations

import itertools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_outcome, random_ttg
from ocfgames import convexity, core, corpus, deviations
from ocfgames.model import (
    CoalitionStructure,
    GameError,
    Outcome,
    PartialCoalition,
    payoff_vector,
)

ZERO = Q(0)


def company_fixtures():
    """One game, three structures: the mixed split, the interleaved split,
    and the split with an abandoned-looking second coalition."""
    g = corpus.two_company_game()  # weights (4, 6), tasks (5, 15), (4, 10)
    mixed = CoalitionStructure(
        (PartialCoalition((Q(1), Q(4))), PartialCoalition((Q(3), Q(2))))
    )
    even = CoalitionStructure(
        (PartialCoalition((Q(2), Q(3))), PartialCoalition((Q(2), Q(3))))
    )
    lone = CoalitionStructure(
        (PartialCoalition((Q(4), Q(3))), PartialCoalition((ZERO, Q(3))))
    )
    y = Outcome(mixed, ((Q(7), Q(8)), (Q(8), Q(7))))
    xp = Outcome(even, ((Q(3), Q(12)), (Q(12), Q(3))))
    z = Outcome(lone, ((Q(3), Q(12)), (ZERO, ZERO)))
    yp = Outcome(even, ((Q(7), Q(8)), (Q(8), Q(7))))
    return g, y, xp, z, yp


def test_refined_deviation_breaks_the_balanced_mixed_split():
    g, y, *_ = company_fixtures()
    result = deviations.find_r_deviation(g, y, {1}, cap=3, grid=1)
    assert result.found
    # agent 2 walks out of one coalition and earns 17 instead of 15
    assert sum(result.gains.values()) == 2
    assert set(result.gains) == {1}


def test_refined_core_accepts_the_interleaved_split():
    g, _, xp, _, _ = company_fixtures()
    verdict = deviations.core_membership(g, xp, kind="r", cap=3, grid=1)
    assert verdict.stable


def test_joint_deviation_recovers_the_full_optimum():
    g, _, _, z, _ = company_fixtures()
    result = deviations.find_r_deviation(g, z, {0, 1}, cap=3, grid=1)
    assert result.found
    post = sum((payoff_vector(z)[j] for j in result.plan.deviators), ZERO) \
        + sum(result.gains.values())
    assert post == 30


def test_optimistic_deviation_exploits_the_partner_contribution():
    g, _, xp, _, _ = company_fixtures()
    result = deviations.find_o_deviation(g, xp, {1}, cap=3, grid=1)
    assert result.found
    # claim 7 from a reshaped shared coalition plus 10 alone, beating 15
    assert sum(result.gains.values()) == 2


def test_optimistic_core_accepts_the_even_balanced_split():
    g, _, _, _, yp = company_fixtures()
    verdict = deviations.core_membership(g, yp, kind="o", cap=3, grid=1)
    assert verdict.stable


def test_conservative_deviation_is_grid_independent():
    g, y, *_ = company_fixtures()
    # underpay agent 2: 14 across both coalitions, 15 alone
    x = Outcome(y.structure, ((Q(7), Q(8)), (Q(9), Q(6))))
    for grid in (1, 2, 5):
        result = deviations.find_c_deviation(g, x, {1}, cap=3, grid=grid)
        assert result.found
        assert sum(result.gains.values()) == 1
    # the balanced split leaves nothing for a lone walkout
    assert not deviations.find_c_deviation(g, y, {1}, cap=3, grid=1).found


def test_unknown_kind_is_rejected():
    g, y, *_ = company_fixtures()
    with pytest.raises(GameError):
        deviations.core_membership(g, y, kind="q")


def test_stability_chain_on_seeded_games():
    """o-stable implies r-stable implies c-stable at the same resolution."""
    rng = random.Random(33)
    for _ in range(30):
        g = random_ttg(rng, max_n=3, max_total=6)
        o = random_outcome(rng, g)
        verdicts = {
            kind: deviations.core_membership(g, o, kind=kind, cap=3, grid=1).stable
            for kind in ("c", "r", "o")
        }
        assert not (verdicts["o"] and not verdicts["r"])
        assert not (verdicts["r"] and not verdicts["c"])


def test_deviation_plans_are_internally_consistent():
    rng = random.Random(37)
    seen = 0
    for _ in range(40):
        g = random_ttg(rng, max_n=3, max_total=6)
        o = random_outcome(rng, g)
        for kind in ("c", "r", "o"):
            verdict = deviations.core_membership(g, o, kind=kind, cap=3, grid=1)
            if verdict.stable:
                continue
            seen += 1
            result = verdict.deviation
            plan = result.plan
            touched = set(plan.kept) | set(plan.abandoned) | \
                {i for i, _ in plan.modified}
            assert touched == set(range(len(o.structure)))
            assert all(gain > 0 for gain in result.gains.values()) or \
                sum(result.gains.values()) > 0
            # deviator capacity: old kept/modified rows plus new coalitions
            for j in plan.deviators:
                used = sum(
                    (o.structure.coalitions[i].units[j] for i in plan.kept), ZERO
                )
                used += sum((row[j] for _, row in plan.modified), ZERO)
                used += sum(
                    (c.units[j] for c in plan.new_structure.coalitions), ZERO
                )
                assert used <= g.weights[j]
    assert seen >= 10


def test_every_agent_gains_strictly_in_a_found_plan():
    g, y, *_ = company_fixtures()
    result = deviations.find_r_deviation(g, y, {1}, cap=3, grid=1)
    assert all(gain > 0 for gain in result.gains.values())


def test_membership_and_direct_check_agree_for_conservative_kind():
    rng = random.Random(41)
    for _ in range(25):
        g = random_ttg(rng, max_n=3, max_total=6)
        o = random_outcome(rng, g)
        by_search = deviations.core_membership(g, o, kind="c", cap=4, grid=1)
        by_subsets = core.check_group_rationality(g, o)
        assert by_search.stable == by_subsets.stable


def _rationals(lo, hi):
    return st.builds(Q, st.integers(min_value=lo, max_value=hi),
                     st.integers(min_value=1, max_value=3))


@st.composite
def division_instances(draw):
    """Pools over up to four agents, and floors on some of them (agents in
    no pool included)."""
    n = draw(st.integers(min_value=1, max_value=4))
    agents = st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1)
    pools = draw(st.lists(
        st.tuples(_rationals(0, 12), agents.map(lambda S: tuple(sorted(S)))),
        min_size=1, max_size=4,
    ))
    floored = sorted(draw(agents))
    floors = {j: draw(_rationals(-6, 10)) for j in floored}
    return pools, floors


def _hall(pools, floors, agents, strict):
    """Gale's condition, by enumeration: every set T of ``agents`` has
    positive floors summing to at most (strictly below, when ``strict``)
    the amount of the pools some member of T supports."""
    for k in range(1, len(agents) + 1):
        for T in itertools.combinations(agents, k):
            need = sum((max(floors[j], ZERO) for j in T), ZERO)
            have = sum((a for a, sup in pools if set(sup) & set(T)), ZERO)
            if need > have or (strict and need == have):
                return False
    return True


@settings(max_examples=300, deadline=None)
@given(division_instances())
def test_division_program_matches_the_hall_condition(instance):
    pools, floors = instance
    answer = deviations._divide_strictly(pools, floors)
    assert (answer is not None) == _hall(pools, floors, sorted(floors), strict=False)
    if answer is None:
        return
    margin, shares = answer
    nonnegative = sorted(j for j, f in floors.items() if f >= 0)
    assert (margin > 0) == _hall(pools, floors, nonnegative, strict=True)
    assert margin >= 0 and len(shares) == len(pools)
    for (amount, sup), share in zip(pools, shares):
        assert sorted(share) == list(sup)
        assert all(x >= 0 for x in share.values())
        assert sum(share.values(), ZERO) == amount
    total = {j: sum((share.get(j, ZERO) for share in shares), ZERO) for j in floors}
    assert all(total[j] >= f + margin for j, f in floors.items())
    # maximizing one agent keeps the floors and pays it at least as much
    agent = min(floors)
    best = deviations._divide_strictly(pools, floors, maximize=agent)
    paid = {j: sum((share.get(j, ZERO) for share in best[1]), ZERO) for j in floors}
    assert all(paid[j] >= f for j, f in floors.items())
    assert paid[agent] >= total[agent]


def test_scaling_memo_keeps_verdicts_of_interleaved_questions():
    """Membership with the per-outcome scaling memoized gives the verdicts it
    gives with the memo cleared before every call, across interleaved games,
    outcomes (equal copies included), grids and convexity searches."""
    rng = random.Random(5)  # the first games include o verdicts that differ by grid
    cases = []
    for _ in range(6):
        g = random_ttg(rng, max_n=3, max_total=7, max_tasks=3)
        cases += [(g, random_outcome(rng, g)) for _ in range(2)]
    g, y, xp, z, yp = company_fixtures()
    cases += [(g, y), (g, Outcome(y.structure, y.payoffs)), (g, xp), (g, z), (g, yp)]
    cases.append((corpus.triple_effort_game(), corpus._triple_effort_outcome()))
    # each case asks grids 1 and 2 in turn, and neighbouring cases meet on
    # the same grid, so the slot is hit and missed by grid, game and outcome
    calls = [(game, outcome, kind, grid)
             for kind in "cro"
             for order in (1, -1)
             for k, (game, outcome) in enumerate(cases[::order])
             for grid in ((1, 2) if k % 2 == 0 else (2, 1))]

    games = list({id(game): game for game, _ in cases}.values())

    def run(clear):
        verdicts = []
        for k, (game, outcome, kind, grid) in enumerate(calls):
            if clear:
                deviations._last_scaling = None
            verdicts.append(deviations.core_membership(game, outcome, kind, cap=2, grid=grid))
            if k % 7 == 0:
                convexity.falsify_convexity(game, cap=2, grid=grid)
        for game in games:  # without an outcome, only the game tells entries apart
            if clear:
                deviations._last_scaling = None
            verdicts.append(convexity.falsify_convexity(game, cap=2, grid=1))
        return verdicts

    assert run(clear=False) == run(clear=True)
