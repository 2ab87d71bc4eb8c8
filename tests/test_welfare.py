from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import brute_best_utility, random_ttg
from ocfgames import corpus, welfare
from ocfgames.model import (
    CoalitionStructure,
    GameError,
    PartialCoalition,
    Requirement,
    Rule,
    RuleBasedGame,
    TTG,
    TaskType,
    validate_structure,
)

ZERO = Q(0)


def test_overlapping_beats_nonoverlapping_on_symmetric_trio():
    g = corpus.three_symmetric_game()
    over, counts, cs = welfare.max_welfare_overlapping(g)
    nonover, blocks = welfare.max_welfare_nonoverlapping(g)
    assert over == 2
    assert nonover == 1
    assert counts == (2,)
    assert validate_structure(g, cs) == []
    assert blocks == (frozenset({0, 1, 2}),)


def test_canonical_structure_realizes_the_optimum():
    rng = random.Random(3)
    for _ in range(50):
        g = random_ttg(rng)
        total, _, cs = welfare.max_welfare_overlapping(g)
        assert validate_structure(g, cs) == []
        assert sum((g.value(c.units) for c in cs.coalitions), ZERO) == total


def test_knapsack_profile_matches_multiset_enumeration():
    rng = random.Random(5)
    for _ in range(60):
        g = random_ttg(rng, max_n=3, max_total=12, max_tasks=3)
        profile = welfare.knapsack_profile(g)
        for w in range(int(g.total_weight()) + 1):
            assert profile.utilities[w] == brute_best_utility(g, Q(w)), (g, w)


def test_profile_utilities_are_nondecreasing():
    rng = random.Random(9)
    for _ in range(40):
        g = random_ttg(rng, max_total=10, max_tasks=3)
        us = welfare.knapsack_profile(g).utilities
        assert all(a <= b for a, b in zip(us, us[1:]))


def test_recovered_task_multiset_is_affordable_and_optimal():
    rng = random.Random(13)
    for _ in range(40):
        g = random_ttg(rng, max_total=10, max_tasks=3)
        profile = welfare.knapsack_profile(g)
        chosen = profile.recover_tasks(profile.limit)
        spent = sum((g.tasks[j].threshold for j in chosen), ZERO)
        earned = sum((g.tasks[j].utility for j in chosen), ZERO)
        assert spent <= g.total_weight()
        assert earned == profile.utilities[profile.limit]


def test_welfare_is_invariant_under_common_weight_scaling():
    rng = random.Random(17)
    for _ in range(30):
        g = random_ttg(rng, max_total=8)
        k = rng.randint(2, 4)
        scaled = TTG(
            tuple(w * k for w in g.weights),
            tuple(TaskType(t.threshold * k, t.utility) for t in g.tasks),
        )
        assert welfare.max_welfare_overlapping(scaled)[0] == \
            welfare.max_welfare_overlapping(g)[0]


def test_welfare_optimum_lives_with_the_cached_profile(monkeypatch):
    recovered = []
    recover = welfare.KnapsackProfile.recover_tasks

    def counting(profile, w):
        recovered.append(profile.game)
        return recover(profile, w)

    monkeypatch.setattr(welfare.KnapsackProfile, "recover_tasks", counting)
    rng = random.Random(19)
    for _ in range(30):
        g = random_ttg(rng, max_total=10, max_tasks=3)
        welfare.knapsack_profile.cache_clear()
        first = welfare.max_welfare_overlapping(g)
        assert welfare.canonical_structure(g) is welfare.max_welfare_overlapping(g)[2]
        assert welfare.max_welfare_overlapping(g) is first
        assert recovered == [g]  # once per profile
        welfare.knapsack_profile.cache_clear()
        fresh = welfare.max_welfare_overlapping(g)
        assert recovered == [g, g]
        assert fresh == first and fresh is not first
        value, counts, cs = fresh
        assert value == brute_best_utility(g, g.total_weight())
        assert sum((k * t.utility for k, t in zip(counts, g.tasks)), ZERO) == value
        assert validate_structure(g, cs) == []
        recovered.clear()


def test_vstar_on_a_ttg_is_the_pooled_optimum():
    g = corpus.two_company_game()  # weights 4, 6; tasks (5,15), (4,10)
    assert welfare.vstar(g, {0}) == 10
    assert welfare.vstar(g, {1}) == 15
    # together they afford two copies of the (5, 15) task
    assert welfare.vstar(g, {0, 1}) == 30


def test_vstar_rejects_unknown_agents():
    with pytest.raises(GameError):
        welfare.vstar(corpus.two_company_game(), {5})



def test_vstar_refuses_a_negative_cap():
    for game in (corpus.four_escorts_game(), corpus.two_company_game()):
        with pytest.raises(GameError, match="cap"):
            welfare.vstar(game, range(game.n), cap=-1)


def test_vstar_on_a_ttg_keeps_one_cache_entry_for_every_cap():
    g = corpus.two_company_game()
    welfare._vstar_cached.cache_clear()
    assert {welfare.vstar(g, {0, 1}, cap=cap) for cap in (None, 0, 1, 2)} == {Q(30)}
    assert welfare._vstar_cached.cache_info().misses == 1


@st.composite
def _integer_and_pq_ttgs(draw):
    """Small TTGs, about half with p/q weights and thresholds."""
    den = st.sampled_from((1, 2, 3)) if draw(st.booleans()) else st.just(1)
    weights = draw(st.lists(st.builds(Q, st.integers(1, 6), den), min_size=1, max_size=4))
    tasks = draw(st.lists(st.builds(TaskType, st.builds(Q, st.integers(1, 9), den),
                                    st.builds(Q, st.integers(1, 20), st.integers(1, 2))),
                          min_size=1, max_size=3))
    return TTG(tuple(weights), tuple(tasks))


@settings(max_examples=200, deadline=None)
@given(_integer_and_pq_ttgs())
def test_standalone_matches_the_canonical_structure_of_the_sub_game(game):
    """The game's own profile gives every agent set J the structure that the
    sub-game of J's weights would, embedded at full width."""
    profile = welfare.knapsack_profile(game)
    for k in range(1, game.n + 1):
        for J in itertools.combinations(range(game.n), k):
            sub = TTG(tuple(game.weights[j] for j in J), game.tasks)
            sub_profile = welfare.knapsack_profile(sub)
            reference = welfare.canonical_structure(sub).coalitions
            chosen, cs = profile.standalone(J)
            assert chosen == sub_profile.recover_tasks(sub_profile.limit)
            assert cs == CoalitionStructure(tuple(
                PartialCoalition(tuple(c.units[J.index(j)] if j in J else ZERO
                                       for j in range(game.n)))
                for c in reference
            ))
            # copies of one task share one coalition object, as in the reference
            assert len({id(c) for c in cs.coalitions}) == len({id(c) for c in reference})

def test_rule_based_vstar_respects_the_structure_cap():
    g = corpus.four_escorts_game()
    S = frozenset({0, 2, 4, 6})
    assert welfare.vstar(g, S) == 202
    assert welfare.vstar(g, S, cap=2) == 200
    assert welfare.vstar(g, S, cap=1) == 100


def test_the_rule_cover_refuses_more_instances_than_its_budget(monkeypatch):
    """One instance per unit of weight: past the budget the cover raises
    GameError instead of recursing on, and a cap at or below the budget
    never reaches it."""
    assert welfare.COVER_INSTANCE_BUDGET < sys.getrecursionlimit()
    monkeypatch.setattr(welfare, "COVER_INSTANCE_BUDGET", 5)
    welfare._vstar_cached.cache_clear()
    g = RuleBasedGame((Q(6),), (Rule((Requirement(frozenset({0}), Q(1)),), Q(1)),))
    with pytest.raises(GameError, match="--cap"):
        welfare.vstar(g, {0})
    assert welfare.vstar(g, {0}, cap=5) == 5
    assert welfare.vstar(g, {0}, cap=2) == 2
    with pytest.raises(GameError, match="more than 5 rule instances"):
        welfare.vstar(g, {0}, cap=6)


def test_rule_based_vstar_singletons():
    g = corpus.four_escorts_game()
    for j in range(4):  # light agents meet no rule alone
        assert welfare.vstar(g, {j}) == 0
    for j in range(4, 7):  # each heavy agent meets the side rule alone
        assert welfare.vstar(g, {j}) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_vstar_is_monotone_under_set_inclusion(seed):
    rng = random.Random(seed)
    g = random_ttg(rng)
    members = [j for j in range(g.n) if rng.random() < 0.6]
    if not members:
        return
    sub = members[:-1]
    v_big = welfare.vstar(g, members)
    assert v_big >= (welfare.vstar(g, sub) if sub else ZERO)
    assert welfare.vstar(g, range(g.n)) >= v_big


def test_bounded_caches_evict_and_recompute_equal_values():
    games = [TTG((Q(1), Q(2), Q(3)), (TaskType(Q(3), Q(u)),))
             for u in range(1, welfare.PROFILE_CACHE_SIZE + 60)]
    agent_sets = [S for r in (1, 2, 3) for S in itertools.combinations(range(3), r)]
    assert len(games) * len(agent_sets) > welfare.VSTAR_CACHE_SIZE
    welfare.knapsack_profile.cache_clear()
    welfare._vstar_cached.cache_clear()
    first = [[welfare.vstar(g, S) for S in agent_sets] for g in games]
    for cache, budget in ((welfare.knapsack_profile, welfare.PROFILE_CACHE_SIZE),
                          (welfare._vstar_cached, welfare.VSTAR_CACHE_SIZE)):
        info = cache.cache_info()
        assert info.maxsize == budget and info.currsize == budget
    misses = welfare._vstar_cached.cache_info().misses
    again = [[welfare.vstar(g, S) for S in agent_sets] for g in games]
    assert welfare._vstar_cached.cache_info().misses > misses  # evicted, recomputed
    assert again == first
    for g, values in zip(games, first):
        for S, v in zip(agent_sets, values):
            assert v == brute_best_utility(g, sum(g.weights[j] for j in S))


_p_over_q = st.builds(Q, st.integers(0, 9), st.integers(1, 4))


@st.composite
def _disjoint_multisets(draw):
    """A rule-based game with p/q weights, an agent set S and a multiset of
    the game's rules whose requirements are pairwise disjoint within S in
    each rule: they may share agents outside S."""
    n = draw(st.integers(1, 4))
    weights = tuple(draw(st.builds(Q, st.integers(1, 9), st.integers(1, 4)))
                    for _ in range(n))
    S = frozenset(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        owner = [draw(st.integers(-1, 2)) for _ in range(n)]  # -1: in no group
        groups = [frozenset(j for j in range(n) if owner[j] == k)
                  | (draw(st.sets(st.integers(0, n - 1), max_size=2)) - S) for k in range(3)]
        reqs = tuple(Requirement(grp, draw(_p_over_q)) for grp in groups if grp)
        if any(req.minimum for req in reqs):  # a free rule is refused
            rules.append(Rule(reqs, Q(1)))
    if not rules:
        rules.append(Rule((Requirement(frozenset({0}), Q(1)),), Q(1)))
    game = RuleBasedGame(weights, tuple(rules))
    instances = [rules[k] for k in draw(
        st.lists(st.integers(0, len(rules) - 1), min_size=1, max_size=4))]
    return game, S, instances


_SHARED = RuleBasedGame(
    (Q(1), Q(1)),
    (Rule((Requirement(frozenset({0, 1}), Q(1)),), Q(1)),
     Rule((Requirement(frozenset({0}), Q(1)),), Q(1))),
)


@settings(max_examples=300, deadline=None)
@given(_disjoint_multisets())
# agent 0 first fills the shared requirement and must be rerouted to its own
@example((_SHARED, frozenset({0, 1}), list(_SHARED.rules)))
def test_integer_flow_test_agrees_with_the_lp_test(case):
    game, S, instances = case
    assert all(welfare._disjoint_within((req.agents for req in rule.requirements), S)
               for rule in instances)
    assert welfare._feasible_by_flow(game, S, instances) == \
        welfare._feasible_by_lp(game, S, instances)


def test_rule_cover_tests_each_multiset_at_most_once(monkeypatch):
    asked: dict[tuple, int] = {}
    feasible = welfare._multiset_feasible

    def counting(game, S, instances):
        key = (S, tuple(sorted(map(id, instances))))
        asked[key] = asked.get(key, 0) + 1
        return feasible(game, S, instances)

    monkeypatch.setattr(welfare, "_multiset_feasible", counting)
    g = corpus.four_escorts_game()
    for S in (range(7), {0, 2, 4, 6}, {3, 4, 5, 6}):
        for cap in (None, 1, 2):
            asked.clear()
            value = welfare._rule_cover(g, frozenset(S), cap)
            assert value > 0 and asked
            assert max(asked.values()) == 1, (S, cap)


@st.composite
def _small_rule_games(draw):
    n = draw(st.integers(1, 3))
    weights = tuple(draw(st.builds(Q, st.integers(1, 3), st.integers(1, 2)))
                    for _ in range(n))
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        reqs = tuple(
            Requirement(frozenset(draw(st.sets(st.integers(0, n - 1), min_size=1))),
                        draw(st.builds(Q, st.integers(1, 3), st.integers(1, 2))))
            for _ in range(draw(st.integers(1, 2)))
        )
        rules.append(Rule(reqs, Q(draw(st.integers(1, 9)))))
    S = frozenset(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    return RuleBasedGame(weights, tuple(rules)), S, draw(st.integers(1, 3))


# the best cover, three copies of the second rule, lies past the denser first
# rule's branch; a bound from the sparsest rule would prune it
_BRANCHY = RuleBasedGame(
    (Q(6),),
    tuple(Rule((Requirement(frozenset({0}), Q(need)),), value)
          for need, value in ((5, Q(10)), (2, Q(18, 5)), (6, Q(1, 10)))),
)


@settings(max_examples=120, deadline=None)
@given(_small_rule_games())
@example((_BRANCHY, frozenset({0}), 3))
def test_rule_cover_matches_multiset_enumeration(case):
    """The pruned search against every multiset of at most ``cap`` rules,
    each tested by the LP."""
    game, S, cap = case
    best = ZERO
    for k in range(1, cap + 1):
        for picked in itertools.combinations_with_replacement(game.rules, k):
            value = sum((rule.value for rule in picked), ZERO)
            if value > best and welfare._feasible_by_lp(game, S, picked):
                best = value
    assert welfare._rule_cover(game, S, cap) == best
