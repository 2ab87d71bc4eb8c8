from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest

from conftest import random_ttg
from ocfgames import convexity, core, corpus, welfare
from ocfgames.model import (
    GameError,
    TTG,
    TaskType,
    payoff_vector,
    validate_outcome,
)

ZERO = Q(0)


def test_greedy_construction_on_the_symmetric_trio():
    g = corpus.three_symmetric_game()
    outcome = convexity.construct_core_element(g, (0, 1, 2))
    assert payoff_vector(outcome, g.n) == (ZERO, Q(1), Q(1))
    assert validate_outcome(g, outcome) == []
    assert core.check_group_rationality(g, outcome).stable


def test_construction_rejects_a_non_permutation():
    with pytest.raises(GameError):
        convexity.construct_core_element(corpus.three_symmetric_game(), (0, 0, 2))


def test_single_agent_gets_the_standalone_value():
    g = TTG((Q(3),), (TaskType(Q(2), Q(5)),))
    outcome = convexity.construct_core_element(g, (0,))
    assert payoff_vector(outcome, g.n) == (Q(5),)


def test_falsifier_finds_the_known_violation():
    g = corpus.empty_core_game()  # weights (9,1,1), tasks (8,100), (2,1)
    report = convexity.falsify_convexity(g, cap=3, grid=1)
    v = report.violation
    assert v is not None
    assert set(v.R) == {0}
    assert set(v.S) == {1}
    assert set(v.T) == {1, 2}


def test_falsifier_is_silent_on_an_additive_game():
    g = TTG((Q(1), Q(1), Q(1)), (TaskType(Q(1), Q(4)),))
    report = convexity.falsify_convexity(g, cap=3, grid=1)
    assert report.violation is None
    assert report.describe().startswith("no violation found at resolution")


def test_falsifier_is_silent_on_a_worthless_game():
    g = TTG((Q(1), Q(1)), (TaskType(Q(5), Q(9)),))
    report = convexity.falsify_convexity(g, cap=2, grid=1)
    assert report.violation is None


def test_budget_limits_the_search():
    g = corpus.empty_core_game()
    report = convexity.falsify_convexity(g, cap=3, grid=1, budget=1)
    assert report.resolution[2] == 1


def test_no_violation_implies_greedy_builds_core_elements():
    """On games where the exhaustive falsifier stays silent, every agent
    ordering must produce a stable division."""
    import itertools

    rng = random.Random(55)
    clean = 0
    for _ in range(25):
        g = random_ttg(rng, max_n=3, max_total=5)
        report = convexity.falsify_convexity(g, grid=1)
        if report.violation is not None:
            continue
        clean += 1
        for ordering in itertools.permutations(range(g.n)):
            outcome = convexity.construct_core_element(g, ordering, grid=1)
            assert core.check_group_rationality(g, outcome).stable, (g, ordering)
    assert clean >= 5


def test_violation_report_labels_agents_from_one():
    g = corpus.empty_core_game()
    text = convexity.falsify_convexity(g, cap=3, grid=1).describe()
    assert "R=[1]" in text and "T=[2, 3]" in text
