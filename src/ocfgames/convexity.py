"""Greedy core construction and a search for convexity violations.

A game is *convex* when side agreements compose: whenever a group R is at
least as useful to a set S as S is on its own, R remains that useful to any
superset T of S (drawn from the remaining agents).  Formally, for every
R, every S strictly inside T with S, T disjoint from R, and every three
agreements on S, T and S-with-R in which the S-with-R agreement weakly
dominates the S agreement for the members of S, there must exist an
agreement on T-with-R that weakly improves on the T agreement for the
members of T and on the S-with-R agreement for the members of R.

For convex games a stable outcome can be built greedily: visit the agents
in any order and, at each step, maximize the newcomer's payoff subject to
never dropping anyone already processed below their previous payoff.
`construct_core_element` runs that procedure (it works on any game; the
stability guarantee needs convexity).  `falsify_convexity` hunts for a
concrete violation of the composition property at a finite resolution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ocfgames import welfare
from ocfgames.deviations import _divide_strictly as _divide, _Search
from ocfgames.model import (
    CoalitionStructure,
    Game,
    GameError,
    Outcome,
    PartialCoalition,
)
from ocfgames.rationals import Q

ZERO = Q(0)


# ---------------------------------------------------------------------------
# shared helpers: grid agreements over a set of agents
# ---------------------------------------------------------------------------


def _to_outcome(game, ctx, vecs, shares) -> Outcome:
    coalitions = tuple(PartialCoalition(ctx.scaled_row(vec)) for vec in vecs)
    payoffs = tuple(tuple(share.get(j, ZERO) for j in range(game.n)) for share in shares)
    return Outcome(CoalitionStructure(coalitions), payoffs)


# ---------------------------------------------------------------------------
# greedy construction
# ---------------------------------------------------------------------------


def construct_core_element(
    game: Game,
    ordering: Sequence[int],
    cap: Optional[int] = None,
    grid: int = 1,
) -> Outcome:
    """Build an outcome by greedy per-agent payoff maximization.

    Agents are admitted in the given order; each round searches all grid
    structures over the agents seen so far and maximizes the newcomer's
    payoff subject to keeping every earlier agent at least at their
    payoff from the previous round.  For convex games the result lies in
    the core of the full game.
    """
    if sorted(ordering) != list(range(game.n)):
        raise GameError("ordering must be a permutation of all agents")
    floors: dict[int, Fraction] = {}
    for k, agent in enumerate(ordering):  # a game has at least one agent
        prefix = tuple(sorted(ordering[: k + 1]))
        ctx = _Search(game, None, prefix, cap, grid)
        best = None
        for vecs, pools in ctx.padded_structures():
            sol = _divide(pools, floors, maximize=agent)
            if sol is None:
                continue
            shares = sol[1]
            pays = {j: ZERO for j in prefix}
            for share in shares:
                for j, amount in share.items():
                    pays[j] += amount
            if best is None or pays[agent] > best[0][agent]:
                best = (pays, vecs, shares)
        if best is None:
            raise GameError("no grid agreement meets the locked payoffs")
        floors = {j: x for j, x in best[0].items() if x > 0}
    _, vecs, shares = best
    return _to_outcome(game, ctx, vecs, shares)


# ---------------------------------------------------------------------------
# violation search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvexityViolation:
    """A concrete failure of the agreement-composition property."""

    R: tuple[int, ...]
    S: tuple[int, ...]
    T: tuple[int, ...]
    payoffs_S: dict
    payoffs_T: dict
    payoffs_SR: dict


@dataclass(frozen=True)
class ConvexityReport:
    violation: Optional[ConvexityViolation]
    resolution: tuple  # (cap, grid, budget)

    def describe(self) -> str:
        cap, grid, budget = self.resolution
        if self.violation is None:
            return (
                f"no violation found at resolution "
                f"(cap={cap}, grid=1/{grid}, budget={budget})"
            )
        v = self.violation
        label = lambda S: sorted(j + 1 for j in S)
        return (
            f"violation with R={label(v.R)}, S={label(v.S)}, T={label(v.T)}: "
            f"no agreement on T+R improves on both premise agreements"
        )


def _premise_vectors(game, agents, cap, grid, singles):
    """Candidate payoff vectors of agreements among `agents`.

    Extreme divisions of each grid structure: every coalition hands its
    value to a single supporter, plus an equal split.  Vectors violating
    individual rationality are discarded.
    """
    if not agents:
        return [{}]
    ctx = _Search(game, None, agents, cap, grid)
    seen = set()
    out = []
    for _, pools in ctx.padded_structures():
        choices = []
        for value, sup in pools:
            opts = [{j: value} for j in sup]
            if len(sup) > 1:
                opts.append({j: value / len(sup) for j in sup})
            choices.append(opts)
        for combo in itertools.product(*choices) if choices else [()]:
            pays = {j: ZERO for j in agents}
            for share in combo:
                for j, amount in share.items():
                    pays[j] += amount
            if any(pays[j] < singles[j] for j in agents):
                continue
            key = tuple(pays[j] for j in sorted(agents))
            if key in seen:
                continue
            seen.add(key)
            out.append(pays)
    return out


def _witness_exists(game, agents, floors, cap, grid, memo) -> bool:
    """Is there a grid agreement among `agents` paying at least `floors`?"""
    key = (agents, tuple(sorted(floors.items())))
    if key in memo:
        return memo[key]
    positive = {j: f for j, f in floors.items() if f > 0}
    found = not positive or any(
        _divide(pools, positive) is not None
        for _, pools in _Search(game, None, agents, cap, grid).padded_structures()
    )
    memo[key] = found
    return found


def falsify_convexity(
    game: Game,
    cap: Optional[int] = None,
    grid: int = 1,
    budget: Optional[int] = None,
) -> ConvexityReport:
    """Search for a violation of the agreement-composition property.

    Enumerates disjoint (R, S, T) with S strictly inside T, extreme-point
    premise agreements at the given grid, and for each premise checks
    whether some grid agreement on T+R covers both required payoff
    floors.  A reported violation is genuine at this resolution; finding
    none is not a proof of convexity.  `budget` caps the number of
    premise instances examined.
    """
    n = game.n
    resolution = (cap, grid, budget)
    singles = {j: welfare.vstar(game, [j]) for j in range(n)}
    remaining = budget
    memo: dict = {}
    pv_memo: dict = {}

    def vectors(agents):
        if agents not in pv_memo:
            pv_memo[agents] = _premise_vectors(game, agents, cap, grid, singles)
        return pv_memo[agents]

    all_agents = list(range(n))
    for r_size in range(1, n + 1):
        for R in itertools.combinations(all_agents, r_size):
            rest = [j for j in all_agents if j not in R]
            for t_size in range(1, len(rest) + 1):
                for T in itertools.combinations(rest, t_size):
                    for s_size in range(t_size):
                        for S in itertools.combinations(T, s_size):
                            SR = tuple(sorted(set(S) | set(R)))
                            TR = tuple(sorted(set(T) | set(R)))
                            for p_S in vectors(S):
                                for p_SR in vectors(SR):
                                    if any(p_SR[j] < p_S[j] for j in S):
                                        continue
                                    for p_T in vectors(T):
                                        if remaining is not None:
                                            if remaining <= 0:
                                                return ConvexityReport(
                                                    None, resolution
                                                )
                                            remaining -= 1
                                        floors = {j: p_T[j] for j in T}
                                        for j in R:
                                            floors[j] = p_SR[j]
                                        if not _witness_exists(
                                            game, TR, floors, cap, grid, memo
                                        ):
                                            return ConvexityReport(
                                                ConvexityViolation(
                                                    R, S, T, p_S, p_T, p_SR
                                                ),
                                                resolution,
                                            )
    return ConvexityReport(None, resolution)
