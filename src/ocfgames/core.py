"""Core stability: decision procedures for outcomes under group deviations.

An outcome is stable against group deviations exactly when every agent set
collectively receives at least what it could create on its own.  This module
checks that subset condition (:func:`check_payoffs`), and stabilizes a given
structure or the canonical welfare-optimal one with one constraint-generation
engine, which certifies emptiness with a balanced collection.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from typing import FrozenSet, Iterable, Iterator, NamedTuple, Optional, Sequence

from ocfgames import lp, welfare
from ocfgames.model import (
    CoalitionStructure,
    Game,
    GameError,
    Outcome,
    TTG,
    payoff_vector,
    to_nonoverlapping,
    validate_outcome,
    validate_structure,
)
from ocfgames.rationals import Q, common_denominator, scaled

ZERO = Q(0)
SUBSET_GUARD = welfare.SUBSET_GUARD
# Agent sets of games up to this size are built once and shared between
# enumerations (2 047 frozensets in all); larger games enumerate afresh.
SHARED_SUBSETS_MAX_N = 10


@dataclass(frozen=True, slots=True)
class BalancedCollection:
    """Dual weights certifying that a structure cannot be stabilized.

    ``lambdas`` maps agent sets to nonnegative weights; ``mus`` has one entry
    per coalition.  Together they satisfy, for every coalition ``i`` and every
    agent ``j`` in its support, ``sum(lambdas[S] for S containing j) + mus[i]
    == 1``, while the weighted combination of achievable values strictly
    exceeds the grand coalition's optimum.
    """

    lambdas: dict[FrozenSet[int], Fraction]
    mus: tuple[Fraction, ...]

    def check(self, game: Game, cs: CoalitionStructure) -> list[str]:
        """Every violated certificate condition; empty when the certificate
        is valid (balance equalities hold and the value inequality is
        strictly violated)."""
        problems = []
        if any(l < 0 for l in self.lambdas.values()):
            problems.append("negative lambda weight")
        if len(self.mus) != len(cs):
            problems.append("mu length does not match the structure")
            return problems
        covered = [ZERO] * game.n  # each agent's total lambda weight
        for S, l in self.lambdas.items():
            for j in S:
                covered[j] += l
        for i, c in enumerate(cs.coalitions):
            for j in sorted(c.support):
                total = self.mus[i] + covered[j]
                if total != 1:
                    problems.append(
                        f"balance equality fails at coalition {i}, agent {j}: {total}"
                    )
        lhs = sum(
            (l * welfare.vstar(game, S) for S, l in self.lambdas.items()), ZERO
        ) + sum(
            (mu * game.value(c.units) for mu, c in zip(self.mus, cs.coalitions)),
            ZERO,
        )
        top = welfare.vstar(game, range(game.n))
        if lhs <= top:
            problems.append(f"value inequality not violated: {lhs} <= {top}")
        return problems


@dataclass(frozen=True, slots=True)
class CoreVerdict:
    stable: bool
    witness: Optional[FrozenSet[int]] = None  # a blocking agent set
    witness_value: Optional[Fraction] = None  # what the blockers can achieve
    shortfall: Optional[Fraction] = None  # witness_value - their current payoff
    outcome: Optional[Outcome] = None  # stabilizing outcome, when one is built
    certificate: Optional[BalancedCollection] = None
    resolution: Optional[tuple] = None  # (cap, grid) for grid-limited searches
    deviation: Optional[object] = None  # DeviationResult when found by a search


def _subsets(n: int) -> Iterable[FrozenSet[int]]:
    """All nonempty agent sets, lexicographically by sorted member tuple;
    more than ``SUBSET_GUARD`` agents raise :class:`GameError`."""
    if n > SUBSET_GUARD:
        raise GameError(f"subset enumeration supports at most {SUBSET_GUARD} agents")
    if n <= SHARED_SUBSETS_MAX_N:
        return _shared_subsets(n)
    return _agent_sets(n)


def _agent_sets(n: int) -> Iterable[FrozenSet[int]]:
    return (
        frozenset(S)
        for k in range(1, n + 1)
        for S in itertools.combinations(range(n), k)
    )


@lru_cache(maxsize=None)  # keys are n <= SHARED_SUBSETS_MAX_N only
def _shared_subsets(n: int) -> tuple[FrozenSet[int], ...]:
    return tuple(_agent_sets(n))


def check_group_rationality(
    game: Game, outcome: Outcome, cap: Optional[int] = None, grid: int = 1
) -> CoreVerdict:
    """:func:`check_payoffs` on the outcome's per-agent totals."""
    return check_payoffs(game, payoff_vector(outcome, game.n), cap, grid)


def check_payoffs(
    game: Game, p: Sequence[Fraction], cap: Optional[int] = None, grid: int = 1
) -> CoreVerdict:
    """Stable iff every agent set is paid at least its standalone optimum.

    Threshold task games take the exact DP, which ignores ``cap`` and
    ``grid``.  Other games take the first of :func:`short_sets`, the first
    violator in lexicographic order.  A negative ``cap`` raises
    :class:`GameError` on either kind of game.
    """
    if cap is not None and cap < 0:
        raise GameError(f"structure cap must be >= 0, got {cap}")
    if isinstance(game, TTG):
        return ttg_payoff_membership(game, p)
    for S, need, have in short_sets(game, p, cap, grid):
        return CoreVerdict(
            stable=False,
            witness=S,
            witness_value=need,
            shortfall=need - have,
        )
    return CoreVerdict(stable=True)


def short_sets(
    game: Game, p: Sequence[Fraction], cap: Optional[int] = None, grid: int = 1
) -> Iterator[tuple[FrozenSet[int], Fraction, Fraction]]:
    """Every agent set S paid less than its standalone optimum at the given
    resolution, as ``(S, vstar(S), p(S))`` in :func:`_subsets` order; p is
    summed in integers over its common denominator."""
    D = common_denominator(p)
    ints = scaled(p, D)
    for S in _subsets(game.n):
        need = welfare.vstar(game, S, cap=cap, grid=grid)
        have = sum(ints[j] for j in S)
        if have * need.denominator < need.numerator * D:
            yield S, need, Q(have, D)


# ---------------------------------------------------------------------------
# threshold task games: DP membership


@dataclass(frozen=True)
class MinPayoffTable:
    """Minimal total payoff of any agent subset pooling at least ``w`` units.

    ``P[i][w]`` is the cheapest (by payoff) subset of the first ``i`` agents
    whose scaled weights sum to at least ``w``, as an integer in units of
    ``1/denom``; ``None`` marks "no subset" (``w`` beyond the first ``i``
    agents' total weight).  A table built ``upto`` a weight holds the
    columns ``0..upto`` only.
    """

    denom: int
    P: tuple[tuple[Optional[int], ...], ...]

    def cheapest(self, w: int) -> Fraction:
        """``P[n][w]`` as a payoff; every w up to the total weight is reachable."""
        return Q(self.P[-1][w], self.denom)


class _Scaled(NamedTuple):
    """One check's integers beside the game's own integer view: the total
    of ``game.scaled_weights`` and the payoffs in units of ``1/denom``."""

    total: int
    denom: int
    ints: tuple[int, ...]


def _scale(game: TTG, payoffs: Sequence[Fraction]) -> _Scaled:
    """The game's total integer weight and the payoffs in integers; refuses
    a game past ``DP_CELL_BUDGET`` (:func:`welfare.scaled_total_weight`)
    before anything else."""
    W = welfare.scaled_total_weight(game)
    D = common_denominator(payoffs)
    return _Scaled(W, D, scaled(payoffs, D))


def min_payoff_table(
    game: TTG, payoffs: Sequence[Fraction], upto: Optional[int] = None,
    *, scaled: Optional[_Scaled] = None,
) -> MinPayoffTable:
    """The table of :class:`MinPayoffTable`, with the columns ``0..upto``
    (all of them by default).  ``P[i][w]`` reads only columns ``<= w`` of
    row ``i - 1``, so a truncated table is an exact prefix of the full one.
    ``scaled`` is :func:`_scale` of the same arguments, when the caller has
    it already."""
    s = _scale(game, payoffs) if scaled is None else scaled
    top = s.total if upto is None else upto
    # Row i is feasible exactly up to the first i agents' total weight, so
    # inside that prefix both branches of the recurrence are integers.
    row = [0]
    P = [tuple(row) + (None,) * top]
    for wi, pi in zip(game.scaled_weights, s.ints):
        shifted = row[:max(0, top + 1 - wi)]
        take = [x + pi for x in
                itertools.chain(itertools.repeat(row[0], min(wi, top + 1)), shifted)]
        feasible = len(row)
        row = [a if a <= b else b for a, b in zip(row, take)]
        row += take[feasible:]
        P.append(tuple(row) + (None,) * (top + 1 - len(row)))
    return MinPayoffTable(s.denom, tuple(P))


def _recover_cheap_subset(game: TTG, table: MinPayoffTable, s: _Scaled, w: int) -> FrozenSet[int]:
    """Backtrack a subset attaining ``P[n][w]``; prefers leaving out the
    higher-index agent when both branches attain the minimum."""
    chosen = []
    target = table.P[-1][w]
    for i in range(len(table.P) - 1, 0, -1):
        if table.P[i - 1][w] == target:
            continue  # skip agent i-1
        chosen.append(i - 1)
        w = max(0, w - game.scaled_weights[i - 1])
        target -= s.ints[i - 1]
    return frozenset(chosen)


def _greedy_bound(
    game: TTG, s: _Scaled, steps: tuple[Sequence[int], Sequence[Fraction]]
) -> Optional[int]:
    """A weight at which some agent set is paid less than its value, or
    ``None`` when the greedy prefixes find none.

    Agents are taken by ascending payoff per unit weight (exact integer
    cross-multiplication, ties by index).  Each prefix is a real subset, so
    its payoff bounds the cheapest subset at every weight it reaches: the
    first prefix paid less than the value of its weight certifies a
    shortfall at the smallest step weight whose value its payoff misses.
    """
    weights, ints, D = game.scaled_weights, s.ints, s.denom
    order = sorted(range(len(weights)), key=cmp_to_key(
        lambda i, j: ints[i] * weights[j] - ints[j] * weights[i] or i - j))
    step_weights, values = steps
    reach = cost = 0
    for i in order:
        reach += weights[i]
        cost += ints[i]
        k = bisect_right(step_weights, reach) - 1
        u = values[k]
        if cost * u.denominator < u.numerator * D:
            # values rise strictly, so the earliest step paid short is a bisection away
            return step_weights[bisect_right(values, Q(cost, D), hi=k)]
    return None


def _first_shortfall(
    game: TTG, p: Sequence[Fraction], steps: tuple[Sequence[int], Sequence[Fraction]]
) -> CoreVerdict:
    """The first weight ``w`` at which the cheapest subset pooling ``w`` is
    paid less than ``v(w)``, with a subset paid exactly that.

    ``steps`` gives the nondecreasing value function ``v`` on ``1..W`` as
    the weights where it can rise (``1`` first, then strictly increasing)
    and its values there.  The cheapest payoff ``P[n][w]`` never falls as
    ``w`` grows and ``v`` is constant between steps, so a first failure lies
    on a step weight.  The table is built only up to the greedy bound
    (:func:`_greedy_bound`); without one, in full.  Payoffs and values are
    compared in integers.
    """
    s = _scale(game, p)
    bound = _greedy_bound(game, s, steps)
    table = min_payoff_table(game, p, upto=bound, scaled=s)
    cheapest, D = table.P[-1], s.denom
    last = len(cheapest) - 1
    for w, u in zip(*steps):
        if w > last:
            break
        c = cheapest[w]
        if c * u.denominator < u.numerator * D:
            return CoreVerdict(
                stable=False,
                witness=_recover_cheap_subset(game, table, s, w),
                witness_value=u,
                shortfall=u - Q(c, D),
            )
    if bound is not None:  # pragma: no cover - a greedy prefix is a subset
        raise AssertionError(f"greedy bound {bound} certifies no shortfall")
    return CoreVerdict(stable=True)


def ttg_payoff_membership(game: TTG, p: Sequence[Fraction]) -> CoreVerdict:
    """DP shortcut for the subset condition on threshold task games.

    Compares, for every pooled scaled weight ``w``, the cheapest subset
    reaching ``w`` against the best utility ``w`` can earn; the first failing
    weight (ascending) yields a concrete blocking set.
    """
    if len(p) != game.n:
        raise GameError(f"payoff vector of length {len(p)} for {game.n} agents")
    return _first_shortfall(game, p, welfare.knapsack_profile(game).steps)


# ---------------------------------------------------------------------------
# stabilization


def stabilize(game: TTG) -> CoreVerdict:
    """Find a stable outcome on the canonical welfare-optimal structure.

    Every stable outcome maximizes welfare, so when the canonical structure
    has no stable totals (:func:`_stable_totals`), no stable outcome exists
    and the verdict carries the certificate.  Otherwise the totals are split
    over the coalitions by :func:`_stable_outcome`.
    """
    total, _, cs = welfare.max_welfare_overlapping(game)
    if total == 0:
        empty = Outcome(CoalitionStructure(()), ())
        return CoreVerdict(stable=True, outcome=empty)
    return _stable_outcome(game, cs)


def stabilize_structure(game: Game, cs: CoalitionStructure) -> CoreVerdict:
    """Decide whether this particular structure admits a stable division.

    A structure over capacity raises :class:`GameError`.  Stable totals are
    split over the structure by :func:`_stable_outcome`.  The agent guard
    holds for TTGs too: the separation rounds grow with n.
    """
    if game.n > SUBSET_GUARD:
        raise GameError(f"subset enumeration supports at most {SUBSET_GUARD} agents")
    problems = validate_structure(game, cs)
    if problems:
        raise GameError("invalid structure: " + "; ".join(problems))
    return _stable_outcome(game, cs)


def _stable_outcome(game: Game, cs: CoalitionStructure) -> CoreVerdict:
    """The stable outcome on ``cs``, or the certificate that none exists.

    The totals of :func:`_stable_totals` are split by the deviation division
    at margin 0: pools are coalition values, floors are the totals.  Gale's
    condition holds: the coalitions inside N∖T form a structure of N∖T, worth
    at most vstar(N∖T) <= p(N∖T), so the pools touching T hold at least p(T).
    A coalition without support is worth 0 and gets a zero row.
    """
    from ocfgames import deviations  # deferred: deviations builds on this module

    p, cert = _stable_totals(game, cs)
    if p is None:
        return CoreVerdict(stable=False, certificate=cert)
    pools = [(game.value(c.units), tuple(sorted(c.support)))
             for c in cs.coalitions if c.support]
    division = deviations._divide_strictly(pools, dict(enumerate(p)))
    if division is None or division[0] != 0:
        raise ArithmeticError(f"stable totals {p} do not split over the structure")
    shares = iter(division[1])
    rows = (next(shares) if c.support else {} for c in cs.coalitions)
    payoffs = tuple(tuple(row.get(j, ZERO) for j in range(game.n)) for row in rows)
    outcome = Outcome(cs, payoffs)
    problems = validate_outcome(game, outcome)
    if problems:  # pragma: no cover - guarded by construction
        raise AssertionError("a stable split is an invalid outcome: " + "; ".join(problems))
    return CoreVerdict(stable=True, outcome=outcome)


def _stable_totals(
    game: Game, cs: CoalitionStructure
) -> tuple[Optional[tuple[Fraction, ...]], Optional[BalancedCollection]]:
    """Per-agent totals of a stable division of ``cs`` and ``None``, or
    ``None`` and a :class:`BalancedCollection` proving that none exists.

    ``cs`` must be within capacity.  A division exists iff nonnegative
    totals meet the subset condition and sum, on each
    connected component of the coalition supports, to its coalitions'
    values.  One total row implies the component rows: once the subset
    condition holds, each component C of a valid structure has
    ``value(C) <= vstar(C) <= p(C)``, so totals summing to the structure's
    value sum to ``value(C)`` on every C.  Constraint generation looks for
    the totals with :func:`check_payoffs` as separation oracle, cutting
    ``p(S) >= vstar(S)`` for each witness ``S``.
    """
    n = game.n
    builder = lp.ProgramBuilder()
    builder.add(range(n), "==", sum((game.value(c.units) for c in cs.coalitions), ZERO))

    def cut(p):
        S = check_payoffs(game, p).witness
        if S is None:
            return None
        coeffs = tuple(Q(1) if j in S else ZERO for j in range(n))
        return coeffs, ">=", welfare.vstar(game, S)

    result, program = lp.solve_with_separation(builder.program(), cut)
    if result.status != "infeasible":
        return result.assignment, None
    return None, _balanced_collection(game, cs, program, result.certificate)


def _balanced_collection(
    game: Game, cs: CoalitionStructure,
    program: lp.LinearProgram, farkas: Sequence[Fraction],
) -> BalancedCollection:
    """Reshape the engine's infeasibility multipliers into a balanced collection.

    ``program`` has the total row, then the cuts.  A cut's multiplier weighs
    its agent set; every coalition takes the total row's.  Each agent's
    slack (minus its combined coefficient, >= 0) weighs its singleton: the
    row ``p_j >= vstar({j}) >= 0`` is implied, so the balance equalities
    hold along this ray and its value only grows.  The ray is added to the
    trivial collection (all mu = 1), scaled so that the combined value
    strictly exceeds the grand coalition's optimum.
    """
    rows = [(frozenset(j for j, a in enumerate(coeffs) if a), y)
            for (coeffs, _, _), y in zip(program.constraints, farkas)]
    gap = sum((y * rhs for (_, _, rhs), y in zip(program.constraints, farkas)), ZERO)
    lam_ray = dict(rows[1:])
    for j in range(game.n):
        slack = -sum((y for S, y in rows if j in S), ZERO)
        if slack:
            single = frozenset([j])
            lam_ray[single] = lam_ray.get(single, ZERO) + slack
            gap += slack * welfare.vstar(game, single)
    if gap <= 0:
        raise AssertionError(f"Farkas ray does not separate: gap {gap}")
    mu = farkas[0]
    base_value = sum((game.value(c.units) for c in cs.coalitions), ZERO)
    t = max(Q(1), (welfare.vstar(game, range(game.n)) - base_value + 1) / gap)
    lambdas = {S: t * l for S, l in lam_ray.items() if l != 0}
    cert = BalancedCollection(lambdas, (Q(1) + t * mu,) * len(cs))
    problems = cert.check(game, cs)
    if problems:  # pragma: no cover - guarded by LP duality
        raise AssertionError("bad certificate: " + "; ".join(problems))
    return cert


# ---------------------------------------------------------------------------
# non-overlapping core


def nonoverlapping_core_check(
    game: TTG, partition: Sequence[Iterable[int]], p: Sequence[Fraction]
) -> CoreVerdict:
    """Partition-core membership for threshold task games.

    Requires per-block efficiency (each block's payoffs sum to its crisp
    value); stability then compares, per pooled weight, the cheapest crisp
    coalition against the single best task that weight completes.
    """
    blocks = [frozenset(S) for S in partition]
    seen: set[int] = set()
    for S in blocks:
        if S & seen:
            raise GameError("partition blocks overlap")
        seen |= S
    if seen != set(range(game.n)):
        raise GameError("partition does not cover all agents")
    if len(p) != game.n:
        raise GameError(f"payoff vector of length {len(p)} for {game.n} agents")
    for S in blocks:
        have = sum((p[j] for j in S), ZERO)
        want = to_nonoverlapping(game, S)
        if have != want:
            raise GameError(
                f"payoffs for block {sorted(j + 1 for j in S)} sum to {have}, "
                f"block value is {want}"
            )
    # tasks are sorted by threshold and utility: the best single task a pooled
    # weight completes is the last one whose threshold it meets, so the value
    # rises exactly at the thresholds past 1
    thresholds = game.scaled_thresholds
    utilities = [ZERO] + [t.utility for t in game.tasks]
    first = utilities[bisect_right(thresholds, 1)]
    rises = [k for k, T in enumerate(thresholds) if T > 1]
    steps = ([1] + [thresholds[k] for k in rises],
             [first] + [utilities[k + 1] for k in rises])
    return _first_shortfall(game, p, steps)
