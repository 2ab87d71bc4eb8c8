from __future__ import annotations

import random
from dataclasses import FrozenInstanceError
from fractions import Fraction as Q
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from conftest import random_ttg
from ocfgames import welfare
from ocfgames.model import (
    CoalitionStructure,
    GameError,
    Outcome,
    PartialCoalition,
    Requirement,
    Rule,
    RuleBasedGame,
    TTG,
    TaskType,
    crisp,
    payoff_vector,
    structure_value,
    validate_outcome,
    validate_structure,
    value,
)
from ocfgames.rationals import common_denominator

ZERO = Q(0)


def simple_game() -> TTG:
    return TTG((Q(2), Q(2), Q(2)), (TaskType(Q(3), Q(1)),))


def test_value_is_best_single_task_for_pooled_weight():
    g = TTG((Q(4), Q(6)), (TaskType(Q(5), Q(15)), TaskType(Q(4), Q(10))))
    assert g.value((ZERO, ZERO)) == 0
    assert g.value((Q(3), ZERO)) == 0
    assert g.value((Q(4), ZERO)) == 10
    assert g.value((Q(4), Q(1))) == 15
    # a coalition performs one task, so extra weight adds nothing past 15
    assert g.value((Q(4), Q(6))) == 15


def test_module_value_rejects_wrong_width():
    with pytest.raises(GameError):
        value(simple_game(), PartialCoalition((Q(1),)))


def test_structure_value_rejects_over_capacity():
    cs = CoalitionStructure((PartialCoalition((Q(3), ZERO, ZERO)),))
    with pytest.raises(GameError):
        structure_value(simple_game(), cs)


def test_weights_must_be_positive():
    with pytest.raises(GameError):
        TTG((Q(0), Q(1)), (TaskType(Q(1), Q(1)),))


def test_task_thresholds_must_be_positive():
    with pytest.raises(GameError):
        TTG((Q(1),), (TaskType(Q(0), Q(1)),))


def test_rule_based_value_requires_all_requirements():
    g = RuleBasedGame(
        (Q(2), Q(3)),
        (Rule((Requirement(frozenset({0}), Q(1)),
               Requirement(frozenset({1}), Q(2))), Q(7)),),
    )
    assert g.value((Q(1), Q(2))) == 7
    assert g.value((Q(2), Q(1))) == 0
    assert g.value((ZERO, Q(3))) == 0


def test_game_hash_is_the_field_hash_and_equality_is_by_value():
    ttg = TTG((Q(1), Q(2, 3)), (TaskType(Q(1), Q(2)),))
    rules = RuleBasedGame((Q(2), Q(3)), (Rule((Requirement(frozenset({0}), Q(1)),), Q(7)),))
    assert hash(ttg) == hash((ttg.weights, ttg.tasks))
    assert hash(rules) == hash((rules.weights, rules.rules))
    twin = TTG((Q(1), Q(2, 3)), (TaskType(Q(1), Q(2)),))
    assert twin == ttg and hash(twin) == hash(ttg) and twin is not ttg
    assert TTG((Q(1), Q(1)), ttg.tasks) != ttg
    assert "_hash" not in repr(ttg) and "_hash" not in repr(rules)


def test_integer_view_of_a_p_over_q_task_game():
    weights = (Q(1, 2), Q(2, 3), Q(3))
    tasks = (TaskType(Q(5, 4), Q(3, 5)), TaskType(Q(7, 3), Q(7, 2)))
    g = TTG(weights, tasks)
    scale = lcm(*(x.denominator for x in weights + tuple(t.threshold for t in tasks)))
    assert g.scale == scale == 12
    assert g.scaled_weights == tuple(int(w * scale) for w in weights) == (6, 8, 36)
    assert g.scaled_thresholds == tuple(int(t.threshold * scale) for t in tasks) \
        == (15, 28)
    assert g.value_scale == lcm(5, 2) == 10
    # a task is one requirement over every agent
    everyone = frozenset(range(3))
    assert g.scaled_rules == ((6, ((everyone, 15),)), (35, ((everyone, 28),)))
    with pytest.raises(FrozenInstanceError):
        g.scale = 1
    assert "scale" not in repr(g)


def test_integer_view_of_a_p_over_q_rule_game():
    weights = (Q(3, 2), Q(1))
    rules = (
        Rule((Requirement(frozenset({0}), Q(1, 3)), Requirement(frozenset({1}), ZERO)),
             Q(5, 2)),
        Rule((Requirement(frozenset({0, 1}), Q(3, 4)),), Q(7, 3)),
    )
    g = RuleBasedGame(weights, rules)
    minima = [req.minimum for rule in rules for req in rule.requirements]
    scale = lcm(*(x.denominator for x in list(weights) + minima))
    assert g.scale == scale == 12
    assert g.scaled_weights == tuple(int(w * scale) for w in weights) == (18, 12)
    assert g.value_scale == lcm(2, 3) == 6
    assert g.scaled_rules == (
        (15, ((frozenset({0}), 4), (frozenset({1}), 0))),
        (14, ((frozenset({0, 1}), 9),)),
    )
    with pytest.raises(FrozenInstanceError):
        g.scaled_weights = (1, 1)


@pytest.mark.parametrize("requirements", [
    (),
    (Requirement(frozenset({0}), ZERO),),
    (Requirement(frozenset({0}), ZERO), Requirement(frozenset({1}), ZERO)),
])
def test_a_rule_with_positive_value_and_no_positive_minimum_is_refused(requirements):
    with pytest.raises(GameError, match="rule 2 has positive value and no positive minimum"):
        RuleBasedGame((Q(2), Q(3)), (Rule((Requirement(frozenset({1}), Q(1)),), Q(1)),
                                      Rule(requirements, Q(5))))
    RuleBasedGame((Q(2), Q(3)), (Rule(requirements, ZERO),))  # a worthless rule stays


def test_a_rule_with_one_zero_and_one_positive_minimum_is_accepted():
    g = RuleBasedGame((Q(2), Q(3)), (
        Rule((Requirement(frozenset({0}), ZERO), Requirement(frozenset({1}), Q(2))), Q(5)),
    ))
    assert g.value((ZERO, Q(2))) == 5 and g.value((Q(2), Q(1))) == 0
    assert welfare.vstar(g, {0, 1}) == 5 and welfare.vstar(g, {0}) == 0


def test_crisp_puts_full_weight_on_members():
    g = simple_game()
    c = crisp(g, {0, 2})
    assert c.units == (Q(2), ZERO, Q(2))
    assert c.support == frozenset({0, 2})


def test_payoff_vector_sums_rows():
    cs = CoalitionStructure(
        (PartialCoalition((Q(1), Q(2))), PartialCoalition((Q(1), ZERO)))
    )
    o = Outcome(cs, ((Q(3), Q(4)), (Q(5), ZERO)))
    assert payoff_vector(o, 2) == (Q(8), Q(4))
    assert payoff_vector(Outcome(CoalitionStructure(()), ()), 3) == (ZERO,) * 3
    with pytest.raises(GameError, match="payoff row of width 2 for 3 agents"):
        payoff_vector(o, 3)


def test_validate_structure_flags_over_capacity():
    g = simple_game()
    cs = CoalitionStructure(
        (PartialCoalition((Q(2), ZERO, ZERO)), PartialCoalition((Q(1), ZERO, ZERO)))
    )
    assert any("over capacity" in msg for msg in validate_structure(g, cs))


def test_validate_outcome_flags_each_clause():
    g = simple_game()
    cs = CoalitionStructure((PartialCoalition((Q(2), Q(1), ZERO)),))
    # value of (2,1,0) is 1; paying 2 breaks efficiency
    bad_sum = Outcome(cs, ((Q(1), Q(1), ZERO),))
    assert any("sum" in m for m in validate_outcome(g, bad_sum))
    # paying a non-contributor
    freeload = Outcome(cs, ((ZERO, ZERO, Q(1)),))
    assert any("non-contributor" in m for m in validate_outcome(g, freeload))
    # negative entry
    negative = Outcome(cs, ((Q(2), Q(-1), ZERO),))
    assert any("negative" in m for m in validate_outcome(g, negative))


def test_validate_outcome_accepts_a_clean_outcome():
    g = simple_game()
    cs = CoalitionStructure(
        (PartialCoalition((Q(2), Q(1), ZERO)), PartialCoalition((ZERO, Q(1), Q(2))))
    )
    o = Outcome(cs, ((ZERO, Q(1), ZERO), (ZERO, ZERO, Q(1))))
    assert validate_outcome(g, o) == []


def test_structure_value_adds_coalition_values():
    g = simple_game()
    cs = CoalitionStructure(
        (PartialCoalition((Q(2), Q(1), ZERO)), PartialCoalition((ZERO, Q(1), Q(2))))
    )
    assert structure_value(g, cs) == 2


@given(st.integers(min_value=0, max_value=10_000))
def test_random_value_is_monotone_in_units(seed):
    rng = random.Random(seed)
    g = random_ttg(rng)
    units = [Q(rng.randint(0, int(w))) for w in g.weights]
    smaller = list(units)
    j = rng.randrange(g.n)
    if smaller[j] > 0:
        smaller[j] -= 1
    assert g.value(smaller) <= g.value(units)
    assert g.value([ZERO] * g.n) == 0


@given(st.lists(st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(max_denominator=60),
), max_size=8))
def test_common_denominator_is_the_lcm_of_denominators(values):
    expected = 1
    for v in values:
        d = Q(v).denominator
        expected = expected * d // gcd(expected, d)
    assert common_denominator(values) == expected
