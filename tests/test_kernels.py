"""Differential tests of the pseudo-polynomial kernels against brute force.

The min-payoff table, the TTG membership scan and the partition-core scan
are compared with an enumeration of every agent subset, and the bounded
scans with a full-table scan written here; the greedy Aubin fill is compared
with an enumeration of every integral contribution vector.  No oracle shares
code with the library's tables.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as Q
from math import lcm

import pytest
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
def ttg_and_payoffs(draw, payoff=rationals(-10, 30, 4)):
    n = draw(st.integers(min_value=1, max_value=10))
    weights = draw(st.lists(rationals(1, 4, 3), min_size=n, max_size=n))
    tasks = draw(st.lists(
        st.tuples(rationals(1, 12, 3), rationals(1, 20, 2)), min_size=1, max_size=3,
    ))
    payoffs = draw(st.lists(payoff, min_size=n, max_size=n))
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


def _reference_scan(game: TTG, p, value):
    """The first failing weight from a full min-payoff table in Fractions.

    Scans every weight 1..W; the witness is backtracked leaving out the
    higher-index agent whenever that still attains the minimum.  Returns
    (stable, witness, witness_value, shortfall, cheapest per weight, M).
    """
    M = 1
    for x in list(game.weights) + [t.threshold for t in game.tasks]:
        M = lcm(M, x.denominator)
    ws = [int(w * M) for w in game.weights]
    W = sum(ws)
    P = [[ZERO] + [None] * W]
    for wi, pi in zip(ws, p):
        prev = P[-1]
        row = []
        for w in range(W + 1):
            options = [prev[w], prev[max(0, w - wi)]]
            if options[1] is not None:
                options[1] += pi
            options = [x for x in options if x is not None]
            row.append(min(options) if options else None)
        P.append(row)
    cheapest = P[-1]
    for w in range(1, W + 1):
        need = value(Q(w, M))
        if cheapest[w] < need:
            chosen, target, x = [], cheapest[w], w
            for i in range(game.n, 0, -1):
                if P[i - 1][x] == target:
                    continue
                chosen.append(i - 1)
                target -= p[i - 1]
                x = max(0, x - ws[i - 1])
            return False, frozenset(chosen), need, need - cheapest[w], cheapest, M
    return True, None, None, None, cheapest, M


def _record_bounds(monkeypatch):
    """Record the ``upto`` of every min-payoff table the checks build."""
    bounds = []
    build = core.min_payoff_table

    def recording(game, payoffs, upto=None, **kwargs):
        bounds.append(upto)
        return build(game, payoffs, upto, **kwargs)

    monkeypatch.setattr(core, "min_payoff_table", recording)
    return bounds


def _matches_reference(verdict, reference, bound, value):
    stable, witness, need, short, cheapest, M = reference
    assert (verdict.stable, verdict.witness, verdict.witness_value, verdict.shortfall) \
        == (stable, witness, need, short)
    if bound is not None:  # the greedy bound is a failing weight
        assert cheapest[bound] < value(Q(bound, M))


def _single_task(game):
    return lambda pooled: max(
        (t.utility for t in game.tasks if t.threshold <= pooled), default=ZERO)


@settings(max_examples=150, deadline=None)
@given(ttg_and_payoffs(payoff=st.one_of(st.just(ZERO), rationals(-10, 30, 4))),
       st.data())
def test_bounded_scans_match_a_full_table_reference_scan(case, data):
    game, p = case
    with pytest.MonkeyPatch.context() as mp:
        bounds = _record_bounds(mp)
        value = BruteForce(game, p).best
        verdict = core.ttg_payoff_membership(game, p)
        _matches_reference(verdict, _reference_scan(game, p, value), bounds[-1], value)

        n = game.n
        labels = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                    min_size=n, max_size=n))
        blocks = [[j for j in range(n) if labels[j] == b] for b in sorted(set(labels))]
        q = list(p)
        for S in blocks:
            q[S[0]] += game.value([game.weights[j] if j in S else ZERO
                                   for j in range(n)]) - sum((q[j] for j in S), ZERO)
        single = _single_task(game)
        verdict = core.nonoverlapping_core_check(game, blocks, q)
        _matches_reference(verdict, _reference_scan(game, q, single), bounds[-1], single)

    full = core.min_payoff_table(game, p)
    W = len(full.P[0]) - 1
    for upto in sorted({0, 1, W // 3, W - 1, W}):
        table = core.min_payoff_table(game, p, upto=upto)
        assert table.P == tuple(row[:upto + 1] for row in full.P)
        assert table.denom == full.denom


def _game(weights, tasks):
    return TTG(tuple(Q(w) for w in weights),
               tuple(TaskType(Q(t), Q(u)) for t, u in tasks))


@pytest.mark.parametrize("weights, tasks, p, expected, upto", [
    # agent 0 alone is paid -1 < 0 = v(1): the failure at w = 1 precedes
    # every rise of the profile, and the greedy bound is 1
    ((1, 2), [(3, 5)], (-1, 6), (False, {0}, 0, 1), 1),
    # the cheapest-ratio prefixes {0}, {0,2}, {0,2,1} meet v, but agent 2
    # alone pools 3 units for 99 < 100: no greedy bound, full table
    ((2, 2, 3), [(3, 100)], (10, 95, 99), (False, {2}, 100, 1), None),
    # stable, with the prefix {0, 1} paid exactly v(3) = 3
    ((1, 2), [(3, 3)], (1, 2), (True, None, None, None), None),
], ids=["fails-at-w1", "greedy-never-fails", "stable-and-tight"])
def test_pinned_membership_scans(monkeypatch, weights, tasks, p, expected, upto):
    game = _game(weights, tasks)
    p = tuple(Q(x) for x in p)
    bounds = _record_bounds(monkeypatch)
    verdict = core.ttg_payoff_membership(game, p)
    stable, witness, need, short = expected
    assert verdict.stable == stable
    assert verdict.witness == (None if witness is None else frozenset(witness))
    assert verdict.witness_value == need and verdict.shortfall == short
    assert bounds == [upto]


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
