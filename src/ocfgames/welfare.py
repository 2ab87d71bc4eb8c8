"""Optimal social welfare and the superadditive cover.

For threshold task games everything reduces to an unbounded-knapsack profile
over integer-scaled weight: ``U[w]`` is the best total utility obtainable by
pooling ``w`` scaled weight units across any number of task copies.  For
rule-based games the cover is computed by a pruned search over rule
multisets, in integers read from the game's rule table (``scaled_rules``),
with an exact feasibility check: a max-flow when each rule's requirements
share no agent of the coalition (:func:`_disjoint_within`, which deviation
search shares), an LP otherwise.  The max-flow,
:func:`_route`, also splits the pooled values of every deviation.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import floor
from typing import FrozenSet, Iterable, Optional, Sequence

from ocfgames import lp
from ocfgames.model import (
    CoalitionStructure,
    Game,
    GameError,
    PartialCoalition,
    Rule,
    RuleBasedGame,
    TTG,
    to_nonoverlapping,
)
from ocfgames.rationals import Q, scaled

ZERO = Q(0)
# Cache budgets (entries, least recently used evicted first): profiles are
# one per game and can hold thousands of cells each; standalone optima are
# one per (game, agent set), and per cap on a rule-based game, and small.
PROFILE_CACHE_SIZE = 256
VSTAR_CACHE_SIZE = 1024
# Budget on (n + 1) * (W + 1), the cells of the largest table a
# pseudo-polynomial check over W scaled weight units builds.  A weight such
# as 1/1000003 scales W into the millions; the budget is over ten times the
# largest table of the tests and benchmark workloads (about 300 000 cells).
DP_CELL_BUDGET = 5_000_000
# Most agents a computation that enumerates agent sets (2^n of them) accepts.
SUBSET_GUARD = 16
# Most rule instances in one multiset of the rule cover's search, which
# recurses once per instance: kept well below the default recursion limit.
COVER_INSTANCE_BUDGET = 512


def scaled_total_weight(game: TTG) -> int:
    """The total weight ``W`` in units of ``1/game.scale``.

    Raises :class:`GameError` when an ``(n + 1) x (W + 1)`` table would pass
    ``DP_CELL_BUDGET``, before any table is built.
    """
    W = sum(game.scaled_weights)
    cells = (game.n + 1) * (W + 1)
    if cells > DP_CELL_BUDGET:
        raise GameError(
            f"total weight {W}/{game.scale} needs {cells} table cells, "
            f"over the budget of {DP_CELL_BUDGET}"
        )
    return W


@dataclass(frozen=True)
class KnapsackProfile:
    """Best pooled utility per integer-scaled weight.

    ``utilities[w]`` is the best total utility of any multiset of task copies
    whose thresholds sum to at most ``w`` units of ``1/game.scale``.  The
    welfare optimum and the rises of the profile are computed once, on first
    use, and live as long as the profile does (in the profile cache).
    """

    game: TTG
    utilities: tuple[Fraction, ...]

    @property
    def limit(self) -> int:
        return len(self.utilities) - 1

    def floor_value_at(self, weight: Fraction) -> Fraction:
        """Profile value at the grid point just below ``weight``."""
        w = floor(Q(weight) * self.game.scale)
        if w < 0 or w > self.limit:
            raise GameError(f"weight {weight} is outside the profile range")
        return self.utilities[w]

    def recover_tasks(self, scaled_weight: int) -> tuple[int, ...]:
        """A value-optimal multiset of task indices for ``scaled_weight``.

        Deterministic: at each step the lowest-index task that still attains
        the optimum is taken.
        """
        tasks = self.game.tasks
        thresholds = self.game.scaled_thresholds
        chosen: list[int] = []
        w = scaled_weight
        U = self.utilities
        while w > 0 and U[w] > 0:
            if U[w] == U[w - 1]:
                w -= 1
                continue
            for j, T in enumerate(thresholds):
                if T <= w and tasks[j].utility + U[w - T] == U[w]:
                    chosen.append(j)
                    w -= T
                    break
            else:  # pragma: no cover - the profile recurrence guarantees a hit
                raise AssertionError("profile table inconsistent")
        return tuple(sorted(chosen))

    @cached_property
    def steps(self) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
        """The weights ``w >= 1`` where the profile can change, and its values
        there: ``w = 1`` and every ``w`` with ``U[w] > U[w - 1]``.  Between
        two steps (and past the last) the profile is constant."""
        U = self.utilities
        weights = [1] + [w for w in range(2, len(U)) if U[w] > U[w - 1]]
        return tuple(weights), tuple(U[w] for w in weights)

    def standalone(self, agents: Iterable[int]) -> tuple[tuple[int, ...], CoalitionStructure]:
        """The task multiset :meth:`recover_tasks` gives the pooled weight of
        ``agents``, and its structure: one coalition per task copy (copies
        share one object), then one for the leftover weight, each funded by
        every member of ``agents`` in proportion to weight."""
        game = self.game
        S = frozenset(agents)
        chosen = self.recover_tasks(sum(game.scaled_weights[j] for j in S))
        total = game.total_weight(S)

        def funded(amount: Fraction) -> PartialCoalition:
            return PartialCoalition(tuple(
                w * amount / total if j in S else ZERO for j, w in enumerate(game.weights)
            ))

        per_task = {j: funded(game.tasks[j].threshold) for j in set(chosen)}
        coalitions = [per_task[j] for j in chosen]
        leftover = total - sum((game.tasks[j].threshold for j in chosen), ZERO)
        if leftover > 0:
            coalitions.append(funded(leftover))
        return chosen, CoalitionStructure(tuple(coalitions))

    @cached_property
    def optimum(self) -> tuple[Fraction, tuple[int, ...], CoalitionStructure]:
        """What :func:`max_welfare_overlapping` returns for the profile's game."""
        chosen, cs = self.standalone(range(self.game.n))
        counts = tuple(chosen.count(j) for j in range(len(self.game.tasks)))
        return self.utilities[self.limit], counts, cs


@lru_cache(maxsize=PROFILE_CACHE_SIZE)
def knapsack_profile(game: TTG) -> KnapsackProfile:
    """Unbounded-knapsack utility profile up to the game's total weight."""
    W = scaled_total_weight(game)
    items = list(zip(game.scaled_thresholds, (t.utility for t in game.tasks)))
    U = [ZERO] * (W + 1)
    for w in range(1, W + 1):
        best = U[w - 1]
        for T, u in items:
            if T <= w and u + U[w - T] > best:
                best = u + U[w - T]
        U[w] = best
    return KnapsackProfile(game, tuple(U))


def canonical_structure(game: TTG) -> CoalitionStructure:
    """Welfare-optimal structure where every agent joins every coalition.

    One coalition per task copy in an optimal multiset, each funded
    proportionally to agent weight; unused weight is pooled into a single
    zero-value coalition.  The structure is built once per cached profile.
    """
    return knapsack_profile(game).optimum[2]


def max_welfare_overlapping(
    game: TTG,
) -> tuple[Fraction, tuple[int, ...], CoalitionStructure]:
    """Best total value over arbitrary coalition structures.

    Returns the value, per-task copy counts of a deterministic optimal task
    multiset, and the witness structure from :func:`canonical_structure`.
    The answer is computed once per cached profile and shared by every call.
    """
    return knapsack_profile(game).optimum


def max_welfare_nonoverlapping(
    game: Game,
) -> tuple[Fraction, tuple[FrozenSet[int], ...]]:
    """Best total value over partitions of the agents, with a witness partition."""
    n = game.n
    if n > SUBSET_GUARD:
        raise GameError(f"partition search supports at most {SUBSET_GUARD} agents, got {n}")
    full = (1 << n) - 1
    best: list[Fraction] = [ZERO] * (full + 1)
    split: list[int] = [0] * (full + 1)
    block_value = {}
    for mask in range(1, full + 1):
        agents = [j for j in range(n) if mask >> j & 1]
        block_value[mask] = to_nonoverlapping(game, agents)
        low = mask & -mask
        rest = mask ^ low
        # iterate submasks of mask that contain the lowest set bit
        sub = rest
        while True:
            block = sub | low
            cand = block_value[block] + best[mask ^ block]
            if cand > best[mask]:
                best[mask] = cand
                split[mask] = block
            if sub == 0:
                break
            sub = (sub - 1) & rest
    blocks = []
    mask = full
    while mask:
        block = split[mask]
        if block == 0:
            break
        if block_value[block] > 0:
            blocks.append(frozenset(j for j in range(n) if block >> j & 1))
        mask ^= block
    return best[full], tuple(blocks)


# ---------------------------------------------------------------------------
# superadditive cover


def vstar(
    game: Game,
    agents: Iterable[int],
    cap: Optional[int] = None,
    grid: int = 1,
) -> Fraction:
    """Best total value the coalition ``agents`` can create on its own.

    For threshold task games this is exact (members simply pool all their
    weight); ``cap`` and ``grid`` are ignored.  For rule-based games ``cap``
    bounds the number of coalitions (rule instances); ``grid`` is accepted
    for interface symmetry but unused, because once a rule multiset is fixed
    feasible contributions form a polyhedron checked exactly.  A negative
    ``cap`` raises :class:`GameError` on either kind of game.
    """
    S = frozenset(agents)
    if any(j < 0 or j >= game.n for j in S):
        raise GameError(f"unknown agents in {sorted(S)}")
    if cap is not None and cap < 0:
        raise GameError(f"structure cap must be >= 0, got {cap}")
    return _vstar_cached(game, S, None if isinstance(game, TTG) else cap)


@lru_cache(maxsize=VSTAR_CACHE_SIZE)
def _vstar_cached(game: Game, S: FrozenSet[int], cap: Optional[int]) -> Fraction:
    if not S:
        return ZERO
    if isinstance(game, TTG):
        return knapsack_profile(game).utilities[sum(game.scaled_weights[j] for j in S)]
    return _rule_cover(game, S, cap)


def _rule_cover(game: RuleBasedGame, S: FrozenSet[int], cap: Optional[int] = None) -> Fraction:
    """The best total value of rule instances ``S`` can fund, searched in
    the units of the game's rule table.  Raises :class:`GameError` past
    COVER_INSTANCE_BUDGET instances."""
    weights = game.scaled_weights
    budget = sum(weights[j] for j in S)
    usable: list[tuple[Rule, int, int, bool]] = []  # (rule, value, need, disjoint)
    for rule, (v, reqs) in zip(game.rules, game.scaled_rules):
        # a single instance must fit what each group holds in S; the largest
        # minimum, positive as the rule is not free, is a lower bound on the
        # weight one instance consumes
        if v and all(sum(weights[j] for j in grp & S) >= m for grp, m in reqs):
            need = max(m for _, m in reqs)
            if need <= budget:
                usable.append((rule, v, need, _disjoint_within((grp for grp, _ in reqs), S)))
    # by density, nonincreasing, so the best density of a suffix is its first entry's
    usable.sort(key=lambda rvn: Q(rvn[1], rvn[2]), reverse=True)

    best = 0

    def dfs(idx: int, multiset: tuple[int, ...], value: int, spent: int, disjoint: bool):
        # the caller has found ``multiset`` feasible (the root one is empty);
        # ``disjoint``: each of its rules meets S in disjoint groups
        nonlocal best
        if value > best:
            best = value
        if cap is not None and len(multiset) >= cap:
            return
        for i in range(idx, len(usable)):
            rule, v, need, rule_disjoint = usable[i]
            if spent + need > budget:
                continue
            # optimistic bound: fill the rest at the best remaining density,
            # v / need (times need > 0)
            if (value + v - best) * need + (budget - spent - need) * v <= 0:
                continue
            if not _multiset_feasible(
                game, S, [usable[k][0] for k in multiset] + [rule], disjoint and rule_disjoint
            ):
                continue
            if len(multiset) == COVER_INSTANCE_BUDGET:
                raise GameError(f"the rule cover needs more than {COVER_INSTANCE_BUDGET} "
                                f"rule instances; set a cap (--cap) of at most "
                                f"{COVER_INSTANCE_BUDGET}")
            dfs(i, multiset + (i,), value + v, spent + need, disjoint and rule_disjoint)

    dfs(0, (), 0, 0, True)
    return Q(best, game.value_scale)


def _disjoint_within(groups: Iterable[FrozenSet[int]], S: FrozenSet[int]) -> bool:
    """Do ``groups`` share no agent of ``S``?  Then each agent of S meets at
    most one requirement of a rule, and a max-flow is exact."""
    inside = [grp & S for grp in groups]
    return sum(map(len, inside)) == len(frozenset().union(*inside))


def _multiset_feasible(
    game: RuleBasedGame, S: FrozenSet[int], instances: Sequence[Rule], disjoint: bool
) -> bool:
    """Can agents in ``S`` fund one coalition per rule instance within
    capacity?  ``disjoint``: every instance passes :func:`_disjoint_within`."""
    if disjoint:
        return _feasible_by_flow(game, S, instances)
    return _feasible_by_lp(game, S, instances)


def _feasible_by_flow(
    game: RuleBasedGame, S: FrozenSet[int], instances: Sequence[Rule]
) -> bool:
    """Max-flow feasibility (:func:`_route`): agents supply their weights and
    requirement instances demand their minima, in units of ``1/game.scale``."""
    agents = sorted(S)
    reqs = [req for rule in instances for req in rule.requirements if req.minimum]
    routed, _ = _route(
        [game.scaled_weights[j] for j in agents],
        scaled((req.minimum for req in reqs), game.scale),
        [(a, r) for a, j in enumerate(agents) for r, req in enumerate(reqs) if j in req.agents],
    )
    return routed is not None


def _route(supplies: Sequence[int], demands: Sequence[int],
           links: Sequence[tuple[int, int]]) -> tuple[Optional[dict], Optional[list]]:
    """Gale's supply-demand question as one integer max-flow.

    Supplier i holds ``supplies[i]``, demander k asks ``demands[k]``, and a
    link (i, k) carries any amount from i to k.  Returns ``(routed, None)``
    once every demand is met, ``routed`` mapping each link to what it
    carries, or ``(None, blocked)``: the demanders on the sink side of a
    minimum cut, who ask more than the suppliers linked to them hold.
    """
    s, d, demand = len(supplies), len(demands), sum(demands)
    src, sink = s + d, s + d + 1  # after the suppliers, then the demanders
    residual = [[0] * (sink + 1) for _ in range(sink + 1)]
    adj: list[list[int]] = [[] for _ in range(sink + 1)]
    # a link is unbounded in effect: none carries all the demand while some is unmet
    for u, v, capacity in itertools.chain(((src, i, x) for i, x in enumerate(supplies)),
                                          ((s + k, sink, x) for k, x in enumerate(demands)),
                                          ((i, s + k, demand) for i, k in links)):
        residual[u][v] = capacity
        adj[u].append(v)
        adj[v].append(u)
    total = 0
    # each link's direct path first, greedily; then shortest augmenting paths
    # (Edmonds-Karp) reroute what is left
    direct = (((src, i), (i, s + k), (s + k, sink)) for i, k in links)
    while total < demand:
        path = next(direct, None)
        if path is None:
            parent = [-1] * (sink + 1)
            parent[src] = src
            queue = deque((src,))
            while queue and parent[sink] < 0:
                u = queue.popleft()
                for v in adj[u]:
                    if parent[v] < 0 and residual[u][v] > 0:
                        parent[v] = u
                        queue.append(v)
            if parent[sink] < 0:
                return None, [k for k in range(d) if parent[s + k] < 0]
            path, v = [], sink
            while v != src:
                path.append((parent[v], v))
                v = parent[v]
        push = min(demand - total, *(residual[u][v] for u, v in path))
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push
        total += push
    return {(i, k): residual[s + k][i] for i, k in links}, None


def _feasible_by_lp(
    game: RuleBasedGame, S: FrozenSet[int], instances: Sequence[Rule]
) -> bool:
    agents = sorted(S)
    builder = lp.ProgramBuilder()
    for ci in range(len(instances)):
        for j in agents:
            builder.var((ci, j))
    for ci, rule in enumerate(instances):
        for req in rule.requirements:
            builder.add([(ci, j) for j in req.agents & S], ">=", req.minimum)
    for j in agents:
        builder.add([(ci, j) for ci in range(len(instances))], "<=", game.weights[j])
    return builder.solve().status != "infeasible"
