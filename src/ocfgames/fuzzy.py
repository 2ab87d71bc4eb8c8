"""Fuzzy-game view of a threshold task game and two stability checks.

A TTG induces a fuzzy game in which each agent commits a fraction of their
weight; the committed pool may be split freely across tasks, so the value
of a fractional profile is just the knapsack optimum of the pooled weight.
Two notions of stability are checked against a payoff vector for the grand
coalition:

- the Aubin fuzzy core: deviators via a fractional profile r keep the
  fraction (1 - r_i) of their original payoff, so stability requires
  sum(p_i * r_i) >= value(r) for every r;
- the f-core: a deviating profile forfeits all original payoff of its
  supporters, so stability requires p(supp(r)) >= value(r), which for TTGs
  collapses to a per-subset condition on pooled weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ocfgames import core, welfare
from ocfgames.model import GameError, TTG
from ocfgames.rationals import Q

ZERO = Q(0)
ONE = Q(1)


@dataclass(frozen=True, slots=True)
class FuzzyCheckReport:
    """Outcome of a fuzzy stability check.

    On failure, ``witness`` is a fractional participation profile r and
    ``witness_value`` the fuzzy value it can earn, which strictly exceeds
    what the profile is paid under the checked condition.
    """

    holds: bool
    witness: Optional[tuple[Fraction, ...]] = None
    witness_value: Optional[Fraction] = None


def fuzzy_value(game: TTG, r: Sequence[Fraction]) -> Fraction:
    """Best total utility a fractional participation profile can earn.

    The pooled committed weight may be split across task copies freely,
    so this is the knapsack optimum at the pooled weight (rounded down to
    the integral grid of the scaled game).
    """
    if len(r) != game.n:
        raise GameError(f"profile of length {len(r)} for {game.n} agents")
    if any(x < 0 or x > 1 for x in r):
        raise GameError("participation levels must lie in [0, 1]")
    profile = welfare.knapsack_profile(game)
    pooled = sum((x * w for x, w in zip(r, game.weights)), ZERO)
    return profile.floor_value_at(pooled)


def _efficiency_check(game: TTG, p: Sequence[Fraction]) -> None:
    if len(p) != game.n:
        raise GameError(f"payoff vector of length {len(p)} for {game.n} agents")
    total = welfare.knapsack_profile(game).utilities[-1]
    if sum(p, ZERO) != total:
        raise GameError(
            f"payoffs sum to {sum(p, ZERO)}, grand-coalition value is {total}"
        )


def _min_cost_profile(costs, caps, W):
    """Cheapest integral contribution vector with the given total.

    Minimizes sum(costs[i] * c_i) over 0 <= c_i <= caps[i], sum c_i = W.
    Returns (min cost, vector) or None when W exceeds the total capacity.
    The objective is linear with one total constraint and integral caps, so
    filling the cheapest agents first (ties by index) is optimal.
    """
    if W > sum(caps):
        return None
    vec = [0] * len(caps)
    cost = ZERO
    left = W
    for i in sorted(range(len(caps)), key=lambda i: (costs[i], i)):
        if left == 0:
            break
        vec[i] = min(caps[i], left)
        cost += costs[i] * vec[i]
        left -= vec[i]
    return cost, vec


def aubin_core_check(game: TTG, p: Sequence[Fraction]) -> FuzzyCheckReport:
    """Check the Aubin fuzzy-core condition for an efficient payoff vector.

    For each pooled integral weight W, the cheapest profile reaching W
    (cost per unit of agent i is p_i divided by i's scaled weight) is
    compared with the knapsack value of W.  Reports the most violated
    weight; the witness prefers the proportional profile when it is both
    integral and cost-minimal.
    """
    _efficiency_check(game, p)
    profile = welfare.knapsack_profile(game)
    total = profile.limit
    caps = game.scaled_weights
    costs = [pi / cap for pi, cap in zip(p, caps)]
    best_gap = ZERO
    best = None
    for W in range(1, total + 1):
        cost, vec = _min_cost_profile(costs, caps, W)  # W <= sum(caps) = total
        gap = profile.utilities[W] - cost
        if gap > best_gap:
            prop = [Q(W) * c / total for c in caps]
            if all(x.denominator == 1 for x in prop):
                prop_cost = sum(
                    (c * x for c, x in zip(costs, prop)), ZERO
                )
                if prop_cost == cost:
                    vec = [int(x) for x in prop]
            best_gap = gap
            best = (W, cost, vec)
    if best is None:
        return FuzzyCheckReport(holds=True)
    W, _, vec = best
    witness = tuple(Q(c, cap) for c, cap in zip(vec, caps))
    return FuzzyCheckReport(
        holds=False, witness=witness, witness_value=profile.utilities[W]
    )


def f_core_check(game: TTG, p: Sequence[Fraction]) -> FuzzyCheckReport:
    """Check the f-core condition: supporters of any profile forfeit all.

    The worst profile over a support S commits everything, so the check
    reduces to p(S) >= knapsack value of w(S) for every nonempty S, which
    the per-weight payoff table decides exactly.
    """
    _efficiency_check(game, p)
    verdict = core.ttg_payoff_membership(game, p)
    if verdict.stable:
        return FuzzyCheckReport(holds=True)
    S = verdict.witness
    witness = tuple(ONE if j in S else ZERO for j in range(game.n))
    return FuzzyCheckReport(
        holds=False, witness=witness, witness_value=verdict.witness_value
    )
