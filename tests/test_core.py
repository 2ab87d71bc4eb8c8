from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest

from conftest import brute_payoff_membership, random_outcome, random_ttg
from ocfgames import cli, core, corpus, welfare
from ocfgames.model import (
    CoalitionStructure,
    GameError,
    Outcome,
    PartialCoalition,
    payoff_vector,
    structure_value,
    validate_outcome,
)

ZERO = Q(0)


def two_company_outcomes():
    g = corpus.two_company_game()
    cs = CoalitionStructure(
        (PartialCoalition((Q(1), Q(4))), PartialCoalition((Q(3), Q(2))))
    )
    x = Outcome(cs, ((Q(7), Q(8)), (Q(9), Q(6))))
    y = Outcome(cs, ((Q(7), Q(8)), (Q(8), Q(7))))
    return g, x, y


def test_membership_rejects_underpaying_the_strong_agent():
    g, x, _ = two_company_outcomes()
    assert payoff_vector(x, g.n) == (Q(16), Q(14))
    verdict = core.check_group_rationality(g, x)
    assert not verdict.stable
    assert verdict.witness == frozenset({1})
    assert verdict.witness_value == 15


def test_membership_accepts_the_balanced_split():
    g, _, y = two_company_outcomes()
    assert core.check_group_rationality(g, y).stable


def test_payoff_membership_agrees_with_subset_brute_force():
    rng = random.Random(21)
    for _ in range(80):
        g = random_ttg(rng)
        total = welfare.max_welfare_overlapping(g)[0]
        # random efficient payoff vector with small denominators
        shares = [Q(rng.randint(0, 4)) for _ in range(g.n)]
        s = sum(shares) or Q(1)
        p = [total * x / s for x in shares]
        verdict = core.ttg_payoff_membership(g, p)
        assert verdict.stable == brute_payoff_membership(g, p)
        if not verdict.stable:
            S = verdict.witness
            paid = sum((p[j] for j in S), ZERO)
            assert verdict.witness_value > paid


def test_stabilize_finds_a_stable_division():
    g = corpus.three_symmetric_game()
    verdict = core.stabilize(g)
    assert verdict.stable
    assert validate_outcome(g, verdict.outcome) == []
    assert core.check_group_rationality(g, verdict.outcome).stable
    assert structure_value(g, verdict.outcome.structure) == 2


def test_stabilize_reports_emptiness():
    g = corpus.empty_core_game()
    verdict = core.stabilize(g)
    assert not verdict.stable
    assert verdict.certificate.check(g, welfare.canonical_structure(g)) == []


def test_stabilize_on_a_worthless_game_returns_the_empty_outcome():
    from ocfgames.model import TTG, TaskType

    g = TTG((Q(1),), (TaskType(Q(5), Q(3)),))  # threshold out of reach
    verdict = core.stabilize(g)
    assert verdict.stable
    assert len(verdict.outcome.structure) == 0


def test_stabilize_structure_emits_a_valid_certificate():
    g = corpus.empty_core_game()
    _, _, cs = welfare.max_welfare_overlapping(g)
    verdict = core.stabilize_structure(g, cs)
    assert not verdict.stable
    cert = verdict.certificate
    assert cert.check(g, cs) == []


def test_stabilize_structure_accepts_the_symmetric_optimum():
    g = corpus.three_symmetric_game()
    _, _, cs = welfare.max_welfare_overlapping(g)
    verdict = core.stabilize_structure(g, cs)
    assert verdict.stable
    p = payoff_vector(verdict.outcome, g.n)
    assert core.ttg_payoff_membership(g, p).stable


def test_stabilize_structure_rejects_an_over_capacity_structure():
    g = corpus.two_company_game()  # weights (4, 6)
    cs = CoalitionStructure(
        (PartialCoalition((Q(40), Q(60))), PartialCoalition((Q(40), Q(60))))
    )
    with pytest.raises(GameError, match="agent 1 over capacity by 76"):
        core.stabilize_structure(g, cs)


def test_stabilize_structure_agrees_with_the_lp_on_rule_based_games():
    from test_acceptance import _direct_lp_feasible

    rng = random.Random(909)
    games = [
        cli.generate_random(seed=seed, agents=rng.randint(2, 4), max_weight=4,
                            tasks=rng.randint(1, 3), rules=True)
        for seed in range(40)
    ] + [corpus.triple_effort_game(), corpus.four_escorts_game()]
    seen = {True: 0, False: 0}
    for game in games:
        for _ in range(4):
            cs = random_outcome(rng, game).structure
            verdict = core.stabilize_structure(game, cs)
            assert verdict.stable == _direct_lp_feasible(game, cs)
            seen[verdict.stable] += 1
            if verdict.stable:
                outcome = verdict.outcome
                assert not outcome.allow_negative
                assert all(x >= 0 for row in outcome.payoffs for x in row)
                assert validate_outcome(game, outcome, individual_rationality=False) == []
                assert core.check_payoffs(game, payoff_vector(verdict.outcome, game.n)).stable
            else:
                assert verdict.certificate.check(game, cs) == []
    assert seen[True] and seen[False]


def test_nonoverlapping_check_accepts_the_partition_witness():
    g = corpus.empty_core_game()  # weights (9,1,1), tasks (8,100), (2,1)
    verdict = core.nonoverlapping_core_check(
        g, [frozenset({0}), frozenset({1, 2})], (Q(100), Q(1, 2), Q(1, 2))
    )
    assert verdict.stable


def test_nonoverlapping_check_rejects_an_unfair_split():
    g = corpus.empty_core_game()
    # blockwise efficient, but the two light agents together can earn 1
    verdict = core.nonoverlapping_core_check(
        g, [frozenset({0, 1}), frozenset({2})], (Q(100), ZERO, ZERO)
    )
    assert not verdict.stable
    assert verdict.witness == frozenset({1, 2})


def test_nonoverlapping_check_requires_blockwise_efficiency():
    g = corpus.empty_core_game()
    with pytest.raises(GameError):
        core.nonoverlapping_core_check(
            g, [frozenset({0}), frozenset({1, 2})], (Q(50), Q(1, 2), Q(1, 2))
        )


def test_group_rationality_with_a_structure_cap():
    g = corpus.four_escorts_game()
    cs = CoalitionStructure((
        PartialCoalition((Q(1), ZERO, ZERO, ZERO, Q(2), ZERO, ZERO)),
        PartialCoalition((ZERO, Q(1), ZERO, ZERO, ZERO, Q(2), ZERO)),
        PartialCoalition((ZERO, ZERO, Q(1), ZERO, ZERO, ZERO, Q(2))),
        PartialCoalition((ZERO, ZERO, ZERO, ZERO, Q(1), Q(1), ZERO)),
    ))
    pays = (
        (ZERO, ZERO, ZERO, ZERO, Q(100), ZERO, ZERO),
        (ZERO, ZERO, ZERO, ZERO, ZERO, Q(100), ZERO),
        (ZERO, ZERO, ZERO, ZERO, ZERO, ZERO, Q(100)),
        (ZERO, ZERO, ZERO, ZERO, Q(1), Q(1), ZERO),
    )
    outcome = Outcome(cs, pays)
    # at two coalitions per deviating group the division is group rational;
    # with three allowed, {1,3,5,7} can re-pair and add the side rule (202)
    assert core.check_group_rationality(g, outcome, cap=2).stable
    uncapped = core.check_group_rationality(g, outcome, cap=3)
    assert not uncapped.stable
    assert uncapped.witness == frozenset({0, 2, 4, 6})
    assert uncapped.witness_value == 202
