"""Differential tests of the pseudo-polynomial kernels against brute force.

The min-payoff table, the TTG membership scan and the partition-core scan
are compared with an enumeration of every agent subset; the greedy Aubin fill is compared with an
enumeration of every integral contribution vector.  Neither oracle shares
code with the library's tables.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as Q
from math import lcm

from hypothesis import given, settings, strategies as st

from ocfgames import core, fuzzy
from ocfgames.model import TTG, TaskType

ZERO = Q(0)


def rationals(lo, hi, max_den):
    return st.builds(
        Q, st.integers(min_value=lo, max_value=hi),
        st.integers(min_value=1, max_value=max_den),
    )


@st.composite
def ttg_and_payoffs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    weights = draw(st.lists(rationals(1, 4, 3), min_size=n, max_size=n))
    tasks = draw(st.lists(
        st.tuples(rationals(1, 12, 3), rationals(1, 20, 2)), min_size=1, max_size=3,
    ))
    payoffs = draw(st.lists(rationals(-10, 30, 4), min_size=n, max_size=n))
    game = TTG(tuple(weights), tuple(TaskType(t, u) for t, u in tasks))
    return game, tuple(payoffs)


class BruteForce:
    """Every agent subset's pooled weight and payoff, on the scaled grid."""

    def __init__(self, game: TTG, p):
        self.game = game
        self.M = 1
        for x in list(game.weights) + [t.threshold for t in game.tasks]:
            self.M = lcm(self.M, x.denominator)
        self.W = int(sum(game.weights) * self.M)
        self.subsets = [
            (S, int(sum((game.weights[j] for j in S), ZERO) * self.M),
             sum((p[j] for j in S), ZERO))
            for k in range(game.n + 1)
            for S in itertools.combinations(range(game.n), k)
        ]
        self._best = {}

    def best(self, pooled: Q) -> Q:
        """Best utility of any task multiset pooled weight can fund."""
        if pooled not in self._best:
            self._best[pooled] = max(
                (t.utility + self.best(pooled - t.threshold)
                 for t in self.game.tasks if t.threshold <= pooled),
                default=ZERO,
            )
        return self._best[pooled]

    def cheapest(self, w: int) -> Q:
        """Least payoff of any subset pooling at least ``w`` scaled units."""
        return min(pay for _, weight, pay in self.subsets if weight >= w)


@settings(max_examples=120, deadline=None)
@given(ttg_and_payoffs())
def test_min_payoff_membership_matches_subset_enumeration(case):
    game, p = case
    brute = BruteForce(game, p)

    table = core.min_payoff_table(game, p)
    assert len(table.P) == game.n + 1 and len(table.P[0]) == brute.W + 1
    assert [table.cheapest(w) for w in range(brute.W + 1)] == [
        brute.cheapest(w) for w in range(brute.W + 1)
    ]

    _agrees(core.ttg_payoff_membership(game, p), brute, brute.best, p)


def _agrees(verdict, brute, value, p):
    """``verdict`` decides "every subset is paid at least ``value`` of its
    pooled weight", reporting the first failing scaled weight w, the least
    payoff of a subset pooling w, and a subset paid exactly that."""
    stable = all(pay >= value(Q(weight, brute.M)) for _, weight, pay in brute.subsets)
    assert verdict.stable == stable
    if stable:
        return
    w = next(w for w in range(1, brute.W + 1)
             if brute.cheapest(w) < value(Q(w, brute.M)))
    need, least = value(Q(w, brute.M)), brute.cheapest(w)
    assert verdict.witness_value == need
    assert verdict.shortfall == need - least
    S = verdict.witness
    assert sum((brute.game.weights[j] for j in S), ZERO) * brute.M >= w
    assert sum((p[j] for j in S), ZERO) == least


@settings(max_examples=80, deadline=None)
@given(ttg_and_payoffs(), st.data())
def test_partition_core_matches_subset_enumeration(case, data):
    game, shares = case
    n = game.n
    labels = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                min_size=n, max_size=n))
    blocks = [[j for j in range(n) if labels[j] == b] for b in sorted(set(labels))]
    # shift each block's shares so they sum to the block's crisp value
    p = list(shares)
    for S in blocks:
        value = game.value([game.weights[j] if j in S else ZERO for j in range(n)])
        p[S[0]] += value - sum((p[j] for j in S), ZERO)

    def single(pooled):
        return max((t.utility for t in game.tasks if t.threshold <= pooled), default=ZERO)

    verdict = core.nonoverlapping_core_check(game, blocks, p)
    _agrees(verdict, BruteForce(game, p), single, p)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: st.tuples(
    st.lists(rationals(-6, 12, 4), min_size=n, max_size=n),
    st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n),
)))
def test_greedy_fill_matches_exhaustive_vectors(case):
    costs, caps = case
    for W in range(sum(caps) + 2):
        vectors = [v for v in itertools.product(*(range(c + 1) for c in caps))
                   if sum(v) == W]
        hit = fuzzy._min_cost_profile(costs, caps, W)
        if not vectors:
            assert hit is None
            continue
        cost, vec = hit
        assert cost == min(sum((c * x for c, x in zip(costs, v)), ZERO)
                           for v in vectors)
        assert sum(vec) == W and all(0 <= x <= c for x, c in zip(vec, caps))
        assert sum((c * x for c, x in zip(costs, vec)), ZERO) == cost
