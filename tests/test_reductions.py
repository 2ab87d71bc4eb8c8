from __future__ import annotations

import itertools
import random
from fractions import Fraction as Q

import pytest

from ocfgames import core, deviations, reductions
from ocfgames.model import GameError

ZERO = Q(0)


def test_knapsack_decision_frozen_cases():
    yes = reductions.KnapsackInstance(((3, 4), (5, 7)), 10, 14)
    no = reductions.KnapsackInstance(((3, 4), (5, 7)), 10, 15)
    assert reductions.knapsack_decision(yes)
    assert not reductions.knapsack_decision(no)


def test_knapsack_normalization_drops_dominated_items():
    inst = reductions.KnapsackInstance(((2, 5), (2, 3), (4, 5)), 10, 7)
    slim = inst.normalized()
    # (2, 3) loses to (2, 5); (4, 5) is not strictly beaten and stays
    assert slim.items == ((2, 5), (4, 5))


def test_knapsack_normalization_rejects_degenerate_instances():
    with pytest.raises(GameError):
        reductions.KnapsackInstance(((12, 4),), 10, 4).normalized()
    with pytest.raises(GameError):
        reductions.KnapsackInstance(((3, 9),), 10, 4).normalized()


def test_game_from_knapsack_flips_the_decision():
    rng = random.Random(71)
    for _ in range(20):
        capacity = rng.randint(4, 25)
        items = tuple(
            (rng.randint(1, capacity), rng.randint(1, 10))
            for _ in range(rng.randint(1, 3))
        )
        best = _best_knapsack(items, capacity)
        if best == 0:
            continue
        target = rng.randint(1, best + 2)
        inst = reductions.KnapsackInstance(items, capacity, target)
        try:
            inst.normalized()
        except GameError:
            continue
        game, outcome = reductions.from_knapsack(inst)
        verdict = core.check_group_rationality(game, outcome)
        assert verdict.stable == (not reductions.knapsack_decision(inst)), inst


def _best_knapsack(items, capacity):
    best = [0] * (capacity + 1)
    for w in range(1, capacity + 1):
        for s, z in items:
            if s <= w:
                best[w] = max(best[w], best[w - s] + z)
    return best[capacity]


def test_biclique_decision_frozen_cases():
    full = reductions.BicliqueInstance(
        2, 2, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}), 4
    )
    assert reductions.biclique_decision(full)
    sparse = reductions.BicliqueInstance(
        2, 2, frozenset({(0, 0), (1, 1)}), 2
    )
    assert not reductions.biclique_decision(sparse)
    assert reductions.biclique_decision(
        reductions.BicliqueInstance(2, 2, frozenset({(0, 0), (1, 1)}), 1)
    )


def test_biclique_instance_validation():
    with pytest.raises(GameError):
        reductions.BicliqueInstance(2, 2, frozenset({(2, 0)}), 1)
    with pytest.raises(GameError):
        reductions.BicliqueInstance(0, 2, frozenset(), 1)


def test_biclique_swap_preserves_the_decision():
    inst = reductions.BicliqueInstance(
        1, 3, frozenset({(0, 0), (0, 2)}), 2
    )
    assert reductions.biclique_decision(inst) == \
        reductions.biclique_decision(inst.swapped())


def test_game_from_biclique_flips_the_refined_verdict():
    rng = random.Random(73)
    checked = 0
    while checked < 4:
        L, R = rng.randint(1, 2), rng.randint(1, 3)
        edges = frozenset(
            (a, b)
            for a in range(L)
            for b in range(R)
            if rng.random() < 0.6
        )
        target = rng.randint(1, L * R)
        inst = reductions.BicliqueInstance(L, R, edges, target)
        game, outcome = reductions.from_biclique(inst)
        cap = len(outcome.structure) + 1
        verdict = deviations.core_membership(game, outcome, kind="r", cap=cap, grid=1)
        assert verdict.stable == (not reductions.biclique_decision(inst)), inst
        checked += 1
