"""Search engines for conservative, refined, and optimistic deviations.

Three progressively friendlier rules govern what a deviating group J keeps
from its old coalitions:

* conservative (c): deviators walk away from everything and only earn from
  coalitions formed among themselves;
* refined (r): a deviator keeps their old share of any coalition left fully
  intact, and is paid nothing from any coalition a deviator touched;
* optimistic (o): deviators may rearrange their contributions to a shared
  coalition and collectively claim whatever its new value leaves over after
  the non-deviators receive their old shares.

Searches are grid searches: deviator contributions range over multiples of
``1/grid`` weight units, new structures use at most the permitted number of
coalitions, and every verdict records that resolution.  They are
grid-complete but for optimistic TTG top-ups (:func:`find_o_deviation`).
Untouched original coalitions keep their exact (possibly off-grid)
contributions.  r and o make one choice per shared coalition in one
candidate loop; among profitable plans, the one with the largest total
deviator income is preferred (ties broken by enumeration order).

Plans are scored in integers.  Contributions are counted in units of
``1/M`` and incomes in units of ``1/D``, where ``D`` clears the
denominators of every coalition value and every payoff of the outcome, so a
plan's total income and the deviators' current payoff p(J) are compared as
ints.  The new deviator-only structures of one game are enumerated once,
with their integer values, ranked best-first and shared by every deviator
set and outcome that asks for the same capacities; a search walks each
ranking only while totals stay above p(J), so no plan that cannot gain is
built.  ``Fraction``s appear only for the pools a division splits and in
the plan that is returned.  A division runs the rule cover's max-flow,
:func:`welfare._route`.

A TTG task is a rule with one requirement over every agent, so every
coalition value is read from the game's one integer rule table
(``scaled_rules``, one row per task or rule), and the minimal grid vectors
of tasks, rules and optimistic top-ups come from one generator,
:meth:`_Search.vectors_meeting`.  Deviation search keeps one bounded memo,
``_last_enumeration``, its scalings included.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from operator import sub
from typing import FrozenSet, Iterable, Optional, Sequence

from ocfgames import welfare
from ocfgames.core import CoreVerdict, _subsets, short_sets
from ocfgames.model import (
    CoalitionStructure,
    Game,
    GameError,
    Outcome,
    PartialCoalition,
    TTG,
    payoff_vector,
)
from ocfgames.rationals import Q, common_denominator, scaled

ZERO = Q(0)
# Guards on one enumeration: grid vectors from one generator, and fit tests
# of one structure enumeration.  Past either, a search raises GameError.
VECTOR_LIMIT = 200_000
FIT_TEST_LIMIT = 5_000_000


@dataclass(frozen=True, slots=True)
class DeviationPlan:
    """What the deviators do to each original coalition, plus what they build.

    ``kept``/``abandoned``/``modified`` index coalitions of the original
    structure; modified entries carry the full replacement contribution row.
    ``new_structure`` holds the deviator-only coalitions (full-width rows).
    """

    deviators: FrozenSet[int]
    kept: tuple[int, ...]
    abandoned: tuple[int, ...]
    modified: tuple[tuple[int, tuple[Fraction, ...]], ...]
    new_structure: CoalitionStructure


@dataclass(frozen=True, slots=True)
class DeviationResult:
    found: bool
    plan: Optional[DeviationPlan] = None
    # deviator payoff rows: one per claimed (modified) coalition, then one
    # per new coalition, in plan order; entries for non-deviators are zero
    payoffs: Optional[tuple[tuple[Fraction, ...], ...]] = None
    gains: Optional[dict[int, Fraction]] = None
    resolution: Optional[tuple] = None  # (cap, grid)


@dataclass(slots=True)
class _Candidate:
    """One fully specified plan skeleton awaiting a payoff division."""

    score: int  # total deviator income before padding, in units of 1/D
    base: dict[int, Fraction]  # payoffs retained from intact coalitions
    takes: tuple[tuple[int, FrozenSet[int]], ...]  # claimed pools, in units of 1/D
    caps: tuple[int, ...]  # scaled spare capacity per deviator
    structure: tuple  # ((vector, value_scale * value), ...) new deviator coalitions
    kept: tuple[int, ...] = ()
    abandoned: tuple[int, ...] = ()
    modified: tuple = ()  # (coalition index, vector over sorted(J))


@dataclass(frozen=True, slots=True)
class _Scaling:
    """The integer view of one (game, outcome, grid) that every deviator set
    shares; see :func:`_scaling`."""

    M: int  # contributions are counted in units of 1/M
    g: int  # the grid step, M // grid
    w: tuple[int, ...]  # scaled weights
    units: tuple[tuple[int, ...], ...]  # scaled contribution rows
    supports: tuple[FrozenSet[int], ...]
    p: tuple[Fraction, ...]  # payoff vector (zeros without an outcome)
    # the game's rule table without its zero-value rows, needs in units of 1/M
    rules: tuple[tuple[int, tuple[tuple[FrozenSet[int], int], ...]], ...]
    D: int  # lcm of the value scale and the payoffs' LCD: incomes in units of 1/D
    pD: tuple[int, ...]  # D * p
    payoffs: tuple[tuple[int, ...], ...]  # D * the outcome's payoff rows


# The enumeration memo of the last game searched, as one tuple (game,
# entries): the one memo of deviation search.  Enumerations are keyed by
# everything they read besides the game: the scale and grid step, the
# deviators, their private coalition vectors (``useful_vectors`` adds them),
# the capacities and the budget.  The memo also holds the game's scaling by
# grid (:func:`_scaling`), its row entries by scale and its standalone TTG
# structures by deviators.  Entries past the budget clear the memo.
_last_enumeration: Optional[tuple] = None
ENUMERATION_MEMO_ENTRIES = 4096


def _enumeration_memo(game: Game) -> dict:
    global _last_enumeration
    memo = _last_enumeration
    if memo is None or memo[0] is not game:
        memo = _last_enumeration = (game, {})
    return memo[1]


def _remember(memo: dict, key, value):
    if len(memo) >= ENUMERATION_MEMO_ENTRIES:
        memo.clear()
    memo[key] = value
    return value


# what a search without an outcome (a convexity question) scales: no coalitions
_NO_OUTCOME = Outcome(CoalitionStructure(()), ())


def _scaling(game: Game, outcome: Optional[Outcome], grid: int) -> _Scaling:
    """The scaling every deviator set of one (game, outcome, grid) shares.

    ``M``, a multiple of ``grid`` and of the game's scale, makes weights,
    thresholds or minima and contributions integral; ``D`` makes every
    coalition value and every payoff integral.  The game's enumeration memo
    keeps the last answer per grid, as the pair (outcome, scaling); it holds
    the outcome, so an identity match is never a reused id.
    """
    outcome = _NO_OUTCOME if outcome is None else outcome
    memo = _enumeration_memo(game)
    hit = memo.get(("scaling", grid))
    if hit is not None and hit[0] is outcome:
        return hit[1]
    if grid < 1:
        raise GameError("grid denominator must be >= 1")
    coalitions, rows = outcome.structure.coalitions, outcome.payoffs
    M = lcm(game.scale, grid, common_denominator(u for c in coalitions for u in c.units))
    D = lcm(game.value_scale, common_denominator(x for row in rows for x in row))
    p = payoff_vector(outcome, game.n)
    scaling = _Scaling(
        M=M,
        g=M // grid,
        w=scaled(game.weights, M),
        units=tuple(scaled(c.units, M) for c in coalitions),
        supports=tuple(c.support for c in coalitions),
        p=p,
        rules=tuple((value, tuple((grp, need * (M // game.scale)) for grp, need in reqs))
                    for value, reqs in game.scaled_rules if value > 0),
        D=D,
        pD=scaled(p, D),
        payoffs=tuple(scaled(row, D) for row in rows),
    )
    _remember(memo, ("scaling", grid), (outcome, scaling))
    return scaling


@lru_cache(maxsize=16)
def _resolution(cap: Optional[int], grid: int) -> tuple:
    """The one ``(cap, grid)`` tuple every result at that resolution holds."""
    return (cap, grid)


@lru_cache(maxsize=16)
def _stable_at(cap: Optional[int], grid: int) -> CoreVerdict:
    """The one (immutable) stable membership verdict at ``(cap, grid)``."""
    return CoreVerdict(stable=True, resolution=_resolution(cap, grid))


class _Search:
    """Shared scaled-integer machinery for one (game, outcome, J) question."""

    def __init__(self, game: Game, outcome: Optional[Outcome], J: Iterable[int],
                 cap: Optional[int], grid: int):
        self.game = game
        self.outcome = outcome
        self.J = frozenset(J)
        if not self.J:
            raise GameError("deviator set must be nonempty")
        if any(j < 0 or j >= game.n for j in self.J):
            raise GameError(f"unknown deviators in {sorted(self.J)}")
        self.Js = tuple(sorted(self.J))
        if cap is not None and cap < 0:
            raise GameError(f"structure cap must be >= 0, got {cap}")
        self.cap = cap
        s = self.scaling = _scaling(game, outcome, grid)
        self.M, self.g, self.w, self.units = s.M, s.g, s.w, s.units
        self.pJ = {j: s.p[j] for j in self.Js}
        self.target = sum(s.pD[j] for j in self.Js)  # D * p(J)
        self.mixed = [i for i, sup in enumerate(s.supports) if not sup <= self.J]
        # r and o keep or rebuild every mixed coalition: the new ones get the rest
        self.budget = None if cap is None else max(0, cap - len(self.mixed))
        self.dev_only = [i for i, sup in enumerate(s.supports) if sup <= self.J]
        private = {self.held(i) for i in self.dev_only}
        self._memo = _enumeration_memo(game)
        self._key = (s.M, s.g, self.Js, tuple(sorted(private)))
        # Q(u, M) by u, for the rows this game's searches build at scale M,
        # so that equal entries of the plans they return are one object
        self._fractions = self._memo.setdefault(("fractions", s.M), {})

    def full_caps(self) -> tuple[int, ...]:
        return tuple(self.w[j] for j in self.Js)

    def held(self, i: int) -> tuple[int, ...]:
        """The deviators' units in coalition i (over sorted(J))."""
        return tuple(self.units[i][j] for j in self.Js)

    def ceil_grid(self, x) -> int:
        """The least multiple of the grid step that is at least ``x``."""
        return -(-x // self.g) * self.g

    # -- new deviator-only coalitions ------------------------------------

    def scaled_row(
        self, vec: Sequence[int], base: Optional[Sequence[Fraction]] = None
    ) -> list[Fraction]:
        """The full-width row of ``vec`` (over sorted(J), in units of 1/M):
        ``base``, zero by default, with the deviators' entries replaced."""
        row = [ZERO] * self.game.n if base is None else list(base)
        for j, u in zip(self.Js, vec):
            row[j] = self._fraction(u)
        return row

    def _fraction(self, u: int) -> Fraction:
        """``Q(u, M)``, one object per ``u`` for every row at scale M."""
        q = self._fractions.get(u)
        if q is None:
            q = self._fractions[u] = Q(u, self.M)
        return q

    def scaled_value(self, vec: Sequence[int], base: Sequence[int] = ()) -> int:
        """The game's value scale times the value of the coalition that puts
        ``vec`` (over sorted(J)) and the integer row ``base``, zero at every
        deviator, together; both are in units of 1/M.  The value is the best
        row of the rule table whose every need the coalition meets."""
        row = list(base) if base else [0] * self.game.n
        for j, u in zip(self.Js, vec):
            row[j] = u
        units = row.__getitem__
        best = 0
        for value, reqs in self.scaling.rules:
            if value > best:
                for grp, need in reqs:
                    if sum(map(units, grp)) < need:
                        break
                else:
                    best = value
        return best

    def vectors_meeting(
        self, needs: Iterable[tuple[FrozenSet[int], int]], caps: Sequence[int]
    ) -> Iterable[tuple[int, ...]]:
        """The grid vectors within ``caps`` (over sorted(J)) that put exactly
        ``need`` units, a multiple of the grid step, into the deviators in
        each disjoint ``(group, need)`` and nothing elsewhere: one composition
        per group.  Raises :class:`GameError` past VECTOR_LIMIT vectors."""
        per_group = [list(itertools.islice(
            _compositions(need, [c if j in group else 0 for j, c in zip(self.Js, caps)], self.g),
            VECTOR_LIMIT + 1,
        )) for group, need in needs]
        if prod(map(len, per_group)) > VECTOR_LIMIT:
            raise GameError("deviation enumeration too large at this grid; coarsen the grid")
        for pick in itertools.product(*per_group):
            yield tuple(map(sum, zip(*pick)))

    def useful_vectors(self, caps: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
        """Positive-value deviator coalition vectors worth considering, with
        their values in units of 1/value scale.

        The minimal grid vectors of every row of the rule table (a task is
        one requirement over J), plus the deviators' original private
        coalitions (which may be off-grid).
        """
        key = ("vectors", self._key, caps)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        private = (vec for vec in self._key[3] if all(u <= c for u, c in zip(vec, caps)))
        found: dict[tuple[int, ...], int] = {}
        for vec in itertools.chain(self._rule_vectors(caps), private):
            if vec not in found:
                v = self.scaled_value(vec)
                if v > 0:
                    found[vec] = v
        out = sorted(found.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        return _remember(self._memo, key, out)

    def _rule_vectors(self, caps: tuple[int, ...]) -> Iterable[tuple[int, ...]]:
        """Minimal grid vectors meeting some row of the rule table using
        deviators only."""
        for _, reqs in self.scaling.rules:
            groups = [(grp & self.J, need) for grp, need in reqs]
            if any(not grp and need > 0 for grp, need in groups):
                continue
            if welfare._disjoint_within((grp for grp, _ in reqs), self.J):
                yield from self.vectors_meeting(
                    [(grp, self.ceil_grid(need)) for grp, need in groups if need > 0], caps
                )
            else:
                yield from self._bounded_vectors(caps, groups)

    def _bounded_vectors(self, caps, groups) -> Iterable[tuple[int, ...]]:
        """Exhaustive grid vectors meeting ``groups``, (group within J, need)
        pairs that overlap."""
        bound = max(self.ceil_grid(need) for _, need in groups)
        for vec in _grid_vectors([min(c, bound) for c in caps], self.g):
            if all(sum(u for j, u in zip(self.Js, vec) if j in grp) >= need
                   for grp, need in groups):
                yield vec

    def new_structures(self, caps: tuple[int, ...], budget: Optional[int]) -> tuple[list, list]:
        """All multisets of useful vectors fitting the capacities and budget.

        Returns the structures in generation order, and the pairs (total
        value in units of 1/value scale, structure) by decreasing total, ties
        in generation order.  Raises :class:`GameError` past FIT_TEST_LIMIT
        tests of a vector against the capacities left.
        """
        key = ("structures", self._key, caps, budget)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        vectors = self.useful_vectors(caps)
        out: list = []
        tests = 0

        def rec(start: int, left: tuple[int, ...], budget_left, chosen):
            nonlocal tests
            out.append(tuple(chosen))
            if budget_left is not None and budget_left <= 0:
                return
            tests += len(vectors) - start
            if tests > FIT_TEST_LIMIT:
                raise GameError("deviation enumeration too large; coarsen the grid or "
                                "lower the cap")
            for k in range(start, len(vectors)):
                vec, val = vectors[k]
                if all(u <= c for u, c in zip(vec, left)):
                    chosen.append((vec, val))
                    rec(
                        k,
                        tuple(c - u for u, c in zip(vec, left)),
                        None if budget_left is None else budget_left - 1,
                        chosen,
                    )
                    chosen.pop()

        rec(0, caps, budget, [])
        ranked = sorted(
            ((sum(val for _, val in structure), structure) for structure in out),
            key=lambda pair: -pair[0],
        )
        return _remember(self._memo, key, (out, ranked))

    def ranked(self, caps: tuple[int, ...], budget: Optional[int], income: int):
        """The structures that lift ``income`` (in units of 1/D) above
        D * p(J), best first: (score, structure) pairs."""
        scale = self.scaling.D // self.game.value_scale
        for total, structure in self.new_structures(caps, budget)[1]:
            score = income + scale * total
            if score <= self.target:
                return
            yield score, structure

    def standalone_structure(self) -> CoalitionStructure:
        """A TTG's welfare-optimal structure of J on its own, from the game's
        profile (:meth:`welfare.KnapsackProfile.standalone`)."""
        key = ("standalone", self.Js)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        structure = welfare.knapsack_profile(self.game).standalone(self.Js)[1]
        return _remember(self._memo, key, structure)

    def padded_structures(self) -> list:
        """:meth:`padded` of every structure at full capacity and budget
        ``cap``, in generation order: the agreements among J."""
        key = ("padded", self._key, self.cap)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        caps = self.full_caps()
        return _remember(self._memo, key, [
            self.padded(structure, caps)
            for structure in self.new_structures(caps, self.cap)[0]
        ])

    # -- scoring ----------------------------------------------------------

    def supporters(self, vec: Sequence[int]) -> tuple[int, ...]:
        """The deviators with a positive entry in ``vec`` (over sorted(J))."""
        return tuple(j for j, u in zip(self.Js, vec) if u)

    def padded(
        self, structure, caps: Sequence[int], supported: Iterable[int] = ()
    ) -> tuple[list[tuple[int, ...]], list[tuple[Fraction, tuple[int, ...]]]]:
        """The vectors of ``structure`` and their (value, supporters) pools.

        Each deviator outside ``supported`` and outside every coalition, with
        a grid unit to spare in ``caps``, is folded into the first coalition
        with that unit so it may take a share; values are recomputed after
        the padding.
        """
        vecs = [list(vec) for vec, _ in structure]
        if vecs:
            left = [c - sum(col) for c, col in zip(caps, zip(*vecs))]
            covered = set(supported)
            for vec in vecs:
                covered.update(self.supporters(vec))
            for k, j in enumerate(self.Js):
                if j not in covered and left[k] >= self.g:
                    vecs[0][k] += self.g
        vecs = [tuple(vec) for vec in vecs]
        V = self.game.value_scale
        return vecs, [(Q(self.scaled_value(vec), V), self.supporters(vec)) for vec in vecs]

    def try_candidate(self, cand: _Candidate):
        """Find a payoff division making every deviator strictly better off.

        Pads the candidate's new coalitions (:meth:`padded`), then asks
        :func:`_divide_strictly` for the split with the largest common gain.
        Returns (new structure, per-pool share maps) or None.  Padding never
        lowers a value, so the padded plan still totals above p(J).
        """
        D = self.scaling.D
        claimed = [(Q(amount, D), tuple(sorted(sup))) for amount, sup in cand.takes]
        new_vecs, built = self.padded(
            cand.structure, cand.caps, (j for _, sup in claimed for j in sup)
        )
        pools = claimed + built
        floors = {j: self.pJ[j] - cand.base.get(j, ZERO) for j in self.Js}
        division = _divide_strictly(pools, floors)
        if division is None or division[0] <= 0:
            return None
        structure = CoalitionStructure(
            tuple(PartialCoalition(self.scaled_row(vec)) for vec in new_vecs)
        )
        return structure, division[1]


def _grid_vectors(tops: Sequence[int], g: int) -> Iterable[tuple[int, ...]]:
    """Every vector of multiples of ``g`` with entry k at most ``tops[k]``;
    raises :class:`GameError` when there are more than VECTOR_LIMIT."""
    ranges = [range(0, top + 1, g) for top in tops]
    if prod(len(r) for r in ranges) > VECTOR_LIMIT:
        raise GameError("deviation enumeration too large at this grid; coarsen the grid")
    return itertools.product(*ranges)


def _compositions(total: int, caps: Sequence[int], g: int):
    """Vectors of multiples of ``g`` summing to ``total``, a multiple of
    ``g``, within ``caps``, in lexicographic order.  Each entry takes at
    least what the entries after it cannot hold, so every branch of the
    recursion yields."""
    k = len(caps)
    tops = [c // g * g for c in caps]
    room = list(itertools.accumulate(reversed(tops)))[::-1]  # room[i] = sum(tops[i:])

    def rec(idx: int, left: int):
        if idx == k - 1:
            yield (left,)
            return
        for take in range(max(0, left - room[idx + 1]), min(tops[idx], left) + 1, g):
            for rest in rec(idx + 1, left - take):
                yield (take,) + rest

    if total < 0 or k == 0 or total > room[0]:
        return iter(())
    return rec(0, total)


def _divide_strictly(pools, floors, maximize=None):
    """Split pooled values among their supporters so that each agent in
    ``floors`` gets its floor plus a common margin t, as large as it can be.

    Every deviation is split here, a TTG's c witness included.  ``pools``
    holds (amount, supporters) pairs; ``floors`` maps agents to floors, in
    row order.  Agent j demands max(floor + t, 0) of the pools it supports,
    and a set T of agents can be served iff it demands at most what the
    pools touching T hold (Gale).  t starts at the largest value the set of
    all agents allows; while :func:`welfare._route` finds a set T blocked, t
    drops to the largest value T allows.  A pool's unrouted rest goes to its
    first supporter.  With ``maximize`` only that agent's demand moves with
    t (from floor 0 when it has none); every other agent demands
    max(floor, 0).  Returns (t, per-pool share maps), or None when t < 0.
    """
    if maximize is not None:
        floors = {**floors, maximize: floors.get(maximize, ZERO)}
    moving = floors.keys() if maximize is None else {maximize}
    agents = list(floors)
    # amounts and floors in units of 1/D; t is a Fraction in those units
    D = common_denominator(itertools.chain((amount for amount, _ in pools), floors.values()))
    supply = scaled((amount for amount, _ in pools), D)
    floor = dict(zip(agents, scaled(floors.values(), D)))

    def owed(j, t):  # the floor, plus t if it moves, in units of 1/(D * t.denominator)
        return floor[j] * t.denominator + (t.numerator if j in moving else 0)

    def room(T):  # the amount of the pools touching T, in units of 1/D
        return sum(s for s, (_, sup) in zip(supply, pools) if not T.isdisjoint(sup))

    def largest_margin(T):
        """The largest t at which T's demands fit ``room(T)``, or None: for
        every k, the k largest moving floors of T plus k t fit what is left."""
        left = room(T) - sum(max(floor[j], 0) for j in T if j not in moving)
        if left < 0:
            return None
        tops = itertools.accumulate(sorted((floor[j] for j in T if j in moving), reverse=True))
        return min((Q(left - f, k) for k, f in enumerate(tops, 1)), default=ZERO)

    links = [(c, k) for c, (_, sup) in enumerate(pools) for k, j in enumerate(agents) if j in sup]
    T = set(agents)
    while True:
        t = largest_margin(T)
        if t is None or t < 0:
            return None
        routed, blocked = welfare._route([s * t.denominator for s in supply],
                                         [max(owed(j, t), 0) for j in agents], links)
        if routed is not None:
            break
        T = {agents[k] for k in blocked}
    shares = [dict.fromkeys(sup, 0) for _, sup in pools]  # in units of 1/(D * t.denominator)
    for (c, k), x in routed.items():
        shares[c][agents[k]] += x
    for s, (_, sup), share in zip(supply, pools, shares):
        share[sup[0]] += s * t.denominator - sum(share.values())
    # the re-checks: each pool is paid out to its supporters, each total
    # meets what it is owed, and T is tight, so no larger t fits
    for s, (_, sup), share in zip(supply, pools, shares):
        if (share.keys() != set(sup) or min(share.values()) < 0
                or sum(share.values()) != s * t.denominator):
            raise ArithmeticError(f"a division among {sup} pays {share} of {s * t.denominator}")
    for j in agents:
        if sum(share.get(j, 0) for share in shares) < owed(j, t):
            raise ArithmeticError(f"a division pays agent {j} less than {owed(j, t)}")
    if sum(max(owed(j, t), 0) for j in T) != room(T) * t.denominator:
        raise ArithmeticError(f"margin {t} leaves the pools of {sorted(T)} unexhausted")
    scale = D * t.denominator
    return Q(t.numerator, scale), [{j: Q(x, scale) for j, x in share.items()} for share in shares]


def _try_best_first(ctx: _Search, candidates: list[_Candidate], resolution):
    """Try candidates in decreasing order of total deviator income, ties in
    the order they were generated; every candidate scores above p(J)."""
    for cand in sorted(candidates, key=lambda cand: -cand.score):
        hit = ctx.try_candidate(cand)
        if hit is not None:
            return _package(ctx, cand, *hit, resolution)
    return DeviationResult(found=False, resolution=resolution)


def _package(ctx: _Search, cand: _Candidate, new_structure: CoalitionStructure,
             division, resolution) -> DeviationResult:
    n = ctx.game.n
    same: dict[Fraction, Fraction] = {}
    keep = lambda x: same.setdefault(x, x)  # equal Fractions of the result: one object
    payoff_rows = tuple(
        tuple(keep(shares.get(j, ZERO)) for j in range(n)) for shares in division
    )
    # non-deviators keep the outcome's own contribution entries
    original = ctx.outcome.structure.coalitions
    modified_full = tuple(
        (i, tuple(ctx.scaled_row(vec, original[i].units))) for i, vec in cand.modified
    )
    plan = DeviationPlan(
        deviators=ctx.J,
        kept=tuple(sorted(cand.kept)),
        abandoned=tuple(sorted(cand.abandoned)),
        modified=modified_full,
        new_structure=new_structure,
    )
    gains = {}
    for j in ctx.Js:
        earned = cand.base.get(j, ZERO) + sum(
            (shares.get(j, ZERO) for shares in division), ZERO
        )
        gains[j] = keep(earned - ctx.pJ[j])
    if any(gain <= 0 for gain in gains.values()):
        raise AssertionError(f"strict division left a deviator without gain: {gains}")
    return DeviationResult(
        found=True,
        plan=plan,
        payoffs=payoff_rows,
        gains=gains,
        resolution=resolution,
    )


# ---------------------------------------------------------------------------
# the three search entry points


def find_c_deviation(
    game: Game, outcome: Outcome, J: Iterable[int],
    cap: Optional[int] = None, grid: int = 1,
) -> DeviationResult:
    """Deviators abandon everything and form coalitions among themselves.

    For threshold task games the decision is exact regardless of the grid:
    no structure of J totals more than its welfare-optimal one, whose every
    coalition holds every deviator, so J deviates iff :func:`_divide_strictly`
    splits that structure's values with a positive margin.  Rule-based games
    use the generic grid search.
    """
    ctx = _Search(game, outcome, J, cap, grid)
    resolution = _resolution(cap, grid)
    everything = tuple(range(len(outcome.structure)))
    if isinstance(game, TTG):
        structure = ctx.standalone_structure()
        pools = [(game.value(c.units), tuple(sorted(c.support))) for c in structure.coalitions]
        division = _divide_strictly(pools, ctx.pJ)
        if division is None or division[0] <= 0:
            return DeviationResult(found=False, resolution=resolution)
        cand = _Candidate(0, {}, (), (), (), abandoned=everything)
        return _package(ctx, cand, structure, division[1], resolution)
    caps = ctx.full_caps()
    candidates = [
        _Candidate(score, {}, (), caps, structure, abandoned=everything)
        for score, structure in ctx.ranked(caps, cap, 0)
    ]
    return _try_best_first(ctx, candidates, resolution)


def find_r_deviation(
    game: Game, outcome: Outcome, J: Iterable[int],
    cap: Optional[int] = None, grid: int = 1,
) -> DeviationResult:
    """Keep-or-abandon search for refined deviations.

    Every coalition shared with non-deviators is either left fully intact
    (deviators keep their recorded shares) or abandoned (freeing the
    deviators' units, paying them nothing); private deviator coalitions
    always dissolve into the rebuilding budget.
    """
    ctx = _Search(game, outcome, J, cap, grid)
    payoffs = ctx.scaling.payoffs
    keep = [(ctx.held(i), sum(payoffs[i][j] for j in ctx.Js), True) for i in ctx.mixed]
    drop = ((0,) * len(ctx.Js), 0, False)
    touched = [k for k, (held, _, _) in enumerate(keep) if any(held)]
    combos = (
        tuple(drop if k in dropped else choice for k, choice in enumerate(keep))
        for size in range(len(touched) + 1)
        for dropped in itertools.combinations(touched, size)
    )
    return _try_choices(ctx, combos, _resolution(cap, grid))


def find_o_deviation(
    game: Game, outcome: Outcome, J: Iterable[int],
    cap: Optional[int] = None, grid: int = 1,
) -> DeviationResult:
    """Grid search for optimistic deviations.

    For each shared coalition the deviators choose a replacement
    contribution vector (per value level, minimal on the grid, plus
    "unchanged" and "abandon"); they collectively claim the coalition's new
    value minus the non-deviators' old shares, and spend freed units on new
    deviator-only coalitions.  A TTG top-up puts in exactly the shortfall to
    a threshold (at least one grid step), so deviators who must each chip
    in to share a claim are missed: the search is not grid-complete there.
    """
    ctx = _Search(game, outcome, J, cap, grid)
    options = [[(vec, take, False) for vec, take in _o_mods(ctx, i)] for i in ctx.mixed]
    return _try_choices(ctx, itertools.product(*options), _resolution(cap, grid))


def _try_choices(ctx: _Search, combos, resolution) -> DeviationResult:
    """The r and o candidate loop.  Each combo holds one choice per shared
    coalition, in ``ctx.mixed`` order: (vector over sorted(J), amount in
    units of 1/D, fixed).  A fixed choice keeps the coalition and the
    deviators' recorded shares, which sum to its amount; any other claims
    its amount as a pool of the vector's supporters."""
    full = ctx.full_caps()
    candidates = []
    for combo in combos:
        caps, income = full, 0
        for vec, amount, _ in combo:
            caps, income = tuple(map(sub, caps, vec)), income + amount
        if min(caps) < 0:
            continue
        plan = None
        for score, structure in ctx.ranked(caps, ctx.budget, income):
            if plan is None:
                plan = _plan(ctx, combo)
            base, takes, kept, abandoned, modified = plan
            candidates.append(_Candidate(score, base, takes, caps, structure,
                                         kept, abandoned, modified))
    return _try_best_first(ctx, candidates, resolution)


def _plan(ctx: _Search, combo) -> tuple:
    """(base, takes, kept, abandoned, modified) of a :func:`_try_choices` combo."""
    intact = [i for i, (_, _, fixed) in zip(ctx.mixed, combo) if fixed]
    base = {j: sum((ctx.outcome.payoffs[i][j] for i in intact), ZERO) for j in ctx.Js}
    takes, kept, modified, abandoned = [], [], [], list(ctx.dev_only)
    for i, (vec, amount, fixed) in zip(ctx.mixed, combo):
        if vec == ctx.held(i):
            kept.append(i)
        elif not any(vec):
            abandoned.append(i)
        else:
            modified.append((i, vec))
        if amount > 0 and not fixed:
            takes.append((amount, frozenset(ctx.supporters(vec))))
    return base, tuple(takes), tuple(kept), tuple(sorted(abandoned)), tuple(modified)


def _o_mods(ctx: _Search, i: int) -> list[tuple[tuple[int, ...], int]]:
    """Candidate replacement vectors for the deviators' part of coalition i.

    Returns (vector over sorted(J), collective take in units of 1/D) pairs:
    abandonment, the unchanged vector, and minimal grid top-ups per value
    level.
    """
    s = ctx.scaling
    nondev = tuple(0 if j in ctx.J else u for j, u in enumerate(ctx.units[i]))
    nondev_x = sum(x for j, x in enumerate(s.payoffs[i]) if j not in ctx.J)
    scale = s.D // ctx.game.value_scale
    caps = ctx.full_caps()

    def take_of(vec: Sequence[int]) -> int:
        if not any(vec):
            return 0
        return max(ctx.scaled_value(vec, nondev) * scale - nondev_x, 0)

    zero = (0,) * len(ctx.Js)
    mods: dict[tuple[int, ...], int] = {zero: 0}
    unchanged = ctx.held(i)
    if any(unchanged):
        t = take_of(unchanged)
        if t > 0:
            mods[unchanged] = t
    if isinstance(ctx.game, TTG):
        pooled = sum(nondev)
        # each task's one need, less the non-deviators' part, and at least a
        # token unit, to be allowed a share
        vecs = itertools.chain.from_iterable(
            ctx.vectors_meeting([(ctx.J, max(ctx.ceil_grid(need - pooled), ctx.g))], caps)
            for _, ((_, need),) in s.rules
        )
    else:
        vecs = _grid_vectors(caps, ctx.g)
    for vec in vecs:
        t = take_of(vec)
        if t > 0:
            mods[vec] = t
    return sorted(mods.items(), key=lambda kv: (sum(kv[0]), kv[0]))


FINDERS = {
    "c": find_c_deviation,
    "r": find_r_deviation,
    "o": find_o_deviation,
}


def core_membership(
    game: Game, outcome: Outcome, kind: str,
    cap: Optional[int] = None, grid: int = 1,
) -> CoreVerdict:
    """Grid-exhaustive membership: try every nonempty deviator set (kind c:
    every set :func:`core.short_sets` yields).

    Sets are visited smallest-first, lexicographically within a size; the
    verdict records the search resolution.
    """
    if kind not in FINDERS:
        raise GameError(f"unknown core kind {kind!r}")
    find = FINDERS[kind]
    p = _scaling(game, outcome, grid).p
    if kind == "c":
        # a c plan of at most cap coalitions earns at most vstar(S, cap), so
        # only the sets paid less than that can deviate
        sets = (S for S, _, _ in short_sets(game, p, cap, grid))
    else:
        sets = _subsets(game.n)
    for S in sets:
        result = find(game, outcome, S, cap=cap, grid=grid)
        if result.found:
            gains = list(result.gains.values())
            gains_total = sum(gains[1:], gains[0])  # a lone gain is the total
            return CoreVerdict(
                stable=False,
                witness=result.plan.deviators,
                witness_value=sum((p[j] for j in S), ZERO) + gains_total,
                shortfall=gains_total,
                resolution=result.resolution,
                deviation=result,
            )
    return _stable_at(cap, grid)
