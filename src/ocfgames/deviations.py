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

Searches are grid-complete, not continuum-complete: deviator contributions
range over multiples of ``1/grid`` weight units, new structures use at most
the permitted number of coalitions, and every verdict records that
resolution.  Untouched original coalitions keep their exact (possibly
off-grid) contributions.  Among profitable plans, the one with the largest
total deviator income is preferred (ties broken by enumeration order).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import FrozenSet, Iterable, Optional, Sequence

from ocfgames import lp, welfare
from ocfgames.core import SUBSET_GUARD, CoreVerdict, _subsets
from ocfgames.model import (
    CoalitionStructure,
    Game,
    GameError,
    Outcome,
    PartialCoalition,
    RuleBasedGame,
    TTG,
    payoff_vector,
)
from ocfgames.rationals import Q, common_denominator

ZERO = Q(0)
ONE = Q(1)
RULE_VECTOR_LIMIT = 200_000  # product-space guard for rule-based enumerations


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


@dataclass
class _Candidate:
    """One fully specified plan skeleton awaiting a payoff division."""

    base: dict[int, Fraction]  # payoffs retained from intact coalitions
    takes: tuple[tuple[Fraction, FrozenSet[int]], ...]  # claimed pools
    caps: tuple[int, ...]  # scaled spare capacity per deviator
    structure: tuple  # ((vector, value), ...) new deviator coalitions
    kept: tuple[int, ...] = ()
    abandoned: tuple[int, ...] = ()
    modified: tuple = ()  # (coalition index, vector over sorted(J))

    def total(self) -> Fraction:
        return (
            sum(self.base.values(), ZERO)
            + sum((t for t, _ in self.takes), ZERO)
            + sum((v for _, v in self.structure), ZERO)
        )


# The last per-outcome scaling computed, as one tuple (game, outcome, grid,
# scaling).  It holds strong references, so an identity match is never a
# reused id, and a caller reads the slot once, so a concurrent writer never
# shows it a mixed entry.
_last_scaling: Optional[tuple] = None


def _scaling(game: Game, outcome: Optional[Outcome], grid: int) -> tuple:
    """The scaling every deviator set of one (game, outcome, grid) shares.

    Returns ``(M, g, w, units, supports, p)``: the scale ``M`` (a multiple of
    ``grid`` making weights, thresholds or minima and contributions
    integral), the grid step ``g = M // grid``, the scaled weights, the
    scaled contribution rows, the coalition supports and the payoff vector
    (zeros without an outcome).  The last answer is memoized, keyed by the
    identity of ``game`` and ``outcome`` and by ``grid``.
    """
    global _last_scaling
    memo = _last_scaling
    if memo is not None and memo[0] is game and memo[1] is outcome and memo[2] == grid:
        return memo[3]
    if isinstance(game, TTG):
        data = [t.threshold for t in game.tasks]
    else:
        data = [req.minimum for rule in game.rules for req in rule.requirements]
    coalitions = () if outcome is None else outcome.structure.coalitions
    M0 = common_denominator(
        list(game.weights) + data + [u for c in coalitions for u in c.units]
    )
    M = lcm(M0, grid)
    scaling = (
        M,
        M // grid,
        tuple(int(x * M) for x in game.weights),
        tuple(tuple(int(u * M) for u in c.units) for c in coalitions),
        tuple(c.support for c in coalitions),
        payoff_vector(outcome) if outcome is not None else (ZERO,) * game.n,
    )
    _last_scaling = (game, outcome, grid, scaling)
    return scaling


class _Search:
    """Shared scaled-integer machinery for one (game, outcome, J) question."""

    def __init__(self, game: Game, outcome: Optional[Outcome], J: Iterable[int],
                 cap: Optional[int], grid: int):
        if grid < 1:
            raise GameError("grid denominator must be >= 1")
        self.game = game
        self.outcome = outcome
        self.J = frozenset(J)
        if not self.J:
            raise GameError("deviator set must be nonempty")
        if any(j < 0 or j >= game.n for j in self.J):
            raise GameError(f"unknown deviators in {sorted(self.J)}")
        self.Js = tuple(sorted(self.J))
        self.cap = cap
        self.grid = grid
        self.M, self.g, self.w, self.units, supports, self.p = _scaling(game, outcome, grid)
        self.pJ = {j: self.p[j] for j in self.Js}
        self.mixed = [i for i, sup in enumerate(supports) if not sup <= self.J]
        self.dev_only = [i for i, sup in enumerate(supports) if sup <= self.J]
        self._structure_memo: dict = {}
        self._vector_memo: dict = {}

    def full_caps(self) -> tuple[int, ...]:
        return tuple(self.w[j] for j in self.Js)

    # -- new deviator-only coalitions ------------------------------------

    def scaled_row(
        self, vec: Sequence[int], base: Optional[Sequence[Fraction]] = None
    ) -> list[Fraction]:
        """The full-width row of ``vec`` (over sorted(J), in units of 1/M):
        ``base``, zero by default, with the deviators' entries replaced."""
        if base is None:
            base = (ZERO,) * self.game.n
        M = self.M
        return _embed([Q(u, M) for u in vec], self.Js, base)

    def value_of_scaled(self, vec: Sequence[int]) -> Fraction:
        """Game value of a deviator-only coalition given over sorted(J)."""
        return self.game.value(self.scaled_row(vec))

    def useful_vectors(self, caps: tuple[int, ...]) -> list[tuple[tuple[int, ...], Fraction]]:
        """Positive-value deviator coalition vectors worth considering.

        One family of minimal grid vectors per task/rule value level, plus
        the deviators' original private coalitions (which may be off-grid).
        """
        if caps in self._vector_memo:
            return self._vector_memo[caps]
        found: dict[tuple[int, ...], Fraction] = {}
        if isinstance(self.game, TTG):
            for t in self.game.tasks:
                T = int(t.threshold * self.M)
                need = -(-T // self.g) * self.g
                for comp in _compositions(need, caps, self.g):
                    v = self.value_of_scaled(comp)
                    if v > 0:
                        found[comp] = max(found.get(comp, ZERO), v)
        else:
            for vec in self._rule_vectors(caps):
                v = self.value_of_scaled(vec)
                if v > 0:
                    found[vec] = v
        for i in self.dev_only:
            vec = tuple(self.units[i][j] for j in self.Js)
            if any(vec) and all(u <= c for u, c in zip(vec, caps)):
                v = self.value_of_scaled(vec)
                if v > 0:
                    found.setdefault(vec, v)
        out = sorted(found.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        self._vector_memo[caps] = out
        return out

    def _rule_vectors(self, caps: tuple[int, ...]) -> Iterable[tuple[int, ...]]:
        """Minimal grid vectors satisfying some rule using deviators only."""
        game = self.game
        if not isinstance(game, RuleBasedGame):
            raise AssertionError("rule vectors need a rule-based game")
        results: set[tuple[int, ...]] = set()
        for rule in game.rules:
            if rule.value <= 0:
                continue
            groups = [req.agents & self.J for req in rule.requirements]
            if any(
                not grp and req.minimum > 0
                for grp, req in zip(groups, rule.requirements)
            ):
                continue
            if all(not (a & b) for a, b in itertools.combinations(groups, 2)):
                per_req = []
                for grp, req in zip(groups, rule.requirements):
                    if req.minimum == 0:
                        continue
                    need = int(-(-(req.minimum * self.M) // self.g)) * self.g
                    subcaps = tuple(
                        caps[k] if self.Js[k] in grp else 0
                        for k in range(len(self.Js))
                    )
                    comps = list(_compositions(need, subcaps, self.g))
                    if not comps:
                        per_req = None
                        break
                    per_req.append(comps)
                if per_req is None:
                    continue
                for pick in itertools.product(*per_req):
                    vec = tuple(sum(c[k] for c in pick) for k in range(len(self.Js)))
                    if all(u <= cp for u, cp in zip(vec, caps)):
                        results.add(vec)
            else:
                results.update(self._bounded_vectors(caps, rule))
        return sorted(results)

    def _bounded_vectors(self, caps, rule) -> Iterable[tuple[int, ...]]:
        """Exhaustive grid vectors for rules with overlapping requirements."""
        bound = max(
            (int(-(-(req.minimum * self.M) // self.g)) * self.g
             for req in rule.requirements),
            default=0,
        )
        for vec in _grid_vectors([min(c, bound) for c in caps], self.g):
            if rule.satisfied_by(self.scaled_row(vec)):
                yield vec

    def new_structures(
        self, caps: tuple[int, ...], budget: Optional[int]
    ) -> list[tuple[tuple[tuple[int, ...], Fraction], ...]]:
        """All multisets of useful vectors fitting the capacities and budget."""
        key = (caps, budget)
        if key in self._structure_memo:
            return self._structure_memo[key]
        vectors = self.useful_vectors(caps)
        out: list = []

        def rec(start: int, left: tuple[int, ...], budget_left, chosen):
            out.append(tuple(chosen))
            if budget_left is not None and budget_left <= 0:
                return
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
        self._structure_memo[key] = out
        return out

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
        return vecs, [(self.value_of_scaled(vec), self.supporters(vec)) for vec in vecs]

    def try_candidate(self, cand: _Candidate):
        """Find a payoff division making every deviator strictly better off.

        Pads the candidate's new coalitions (:meth:`padded`), then asks
        :func:`_divide_strictly` for the split with the largest common gain.
        Returns (new vectors, per-pool share maps) or None.
        """
        claimed = [(amount, tuple(sorted(sup))) for amount, sup in cand.takes if amount > 0]
        new_vecs, built = self.padded(
            cand.structure, cand.caps, (j for _, sup in claimed for j in sup)
        )
        pools = claimed + built
        total = sum((a for a, _ in pools), ZERO) + sum(cand.base.values(), ZERO)
        if total <= sum(self.pJ.values(), ZERO):
            return None
        for j in self.Js:
            if cand.base.get(j, ZERO) <= self.pJ[j] and not any(
                j in sup for _, sup in pools
            ):
                return None
        floors = {j: self.pJ[j] - cand.base.get(j, ZERO) for j in self.Js}
        division = _divide_strictly(pools, floors)
        if division is None or division[0] <= 0:
            return None
        return new_vecs, division[1]


def _embed(
    units: Iterable[Fraction], Js: Sequence[int], base: Sequence[Fraction]
) -> list[Fraction]:
    """A copy of the full-width row ``base`` with ``units`` at the positions ``Js``."""
    row = list(base)
    for j, u in zip(Js, units):
        row[j] = u
    return row


def _grid_vectors(tops: Sequence[int], g: int) -> Iterable[tuple[int, ...]]:
    """Every vector of multiples of ``g`` with entry k at most ``tops[k]``;
    raises :class:`GameError` when there are more than RULE_VECTOR_LIMIT."""
    ranges = [range(0, top + 1, g) for top in tops]
    if prod(len(r) for r in ranges) > RULE_VECTOR_LIMIT:
        raise GameError("rule enumeration too large at this grid; coarsen the grid")
    return itertools.product(*ranges)


def _compositions(total: int, caps: Sequence[int], g: int):
    """Vectors of multiples of ``g`` summing to ``total`` within ``caps``."""
    k = len(caps)

    def rec(idx: int, left: int):
        if idx == k - 1:
            if left <= (caps[idx] // g) * g:
                yield (left,)
            return
        top = min((caps[idx] // g) * g, left)
        for take in range(0, top + 1, g):
            for rest in rec(idx + 1, left - take):
                yield (take,) + rest

    if total < 0 or k == 0:
        return iter(())
    return rec(0, total)


def _divide_strictly(pools, floors, maximize=None):
    """Split pooled values among their supporters so that each agent in
    ``floors`` gets its floor plus a common nonnegative margin.

    ``pools`` holds (amount, supporters) pairs; ``floors`` maps agents to
    floors, in row order.  The program has one equality per pool, the margin
    column, and one row ``shares(j) - margin >= floors[j]`` per agent; it
    maximizes the margin, or agent ``maximize``'s total when given.  Returns
    (margin, per-pool share maps), or None when no split meets the floors,
    without solving when an agent with a positive floor is in no pool.
    Without pools the answer is (0, []).
    """
    supported = {j for _, sup in pools for j in sup}
    if any(f > 0 and j not in supported for j, f in floors.items()):
        return None
    if not pools:
        return ZERO, []
    builder = lp.ProgramBuilder()
    for c, (amount, sup) in enumerate(pools):
        builder.add([(c, j) for j in sup], "==", amount)
    builder.var("eps")  # the common margin, after every share
    for j, floor in floors.items():
        terms = {(c, j): ONE for c, (_, sup) in enumerate(pools) if j in sup}
        terms["eps"] = -ONE
        builder.add(terms, ">=", floor)
    if maximize is None:
        objective = ["eps"]
    else:
        objective = [(c, maximize) for c, (_, sup) in enumerate(pools) if maximize in sup]
    result, x = builder.solve(maximize=objective)
    if result.status == "infeasible":
        return None
    if result.status != "optimal":
        raise AssertionError(f"division LP ended {result.status}")
    return x["eps"], [{j: x[c, j] for j in sup} for c, (_, sup) in enumerate(pools)]


def _try_best_first(ctx: _Search, candidates: list[_Candidate], resolution):
    """Try candidates in decreasing order of total deviator income."""
    target = sum(ctx.pJ.values(), ZERO)
    scored = [
        (total, idx, cand)
        for idx, cand in enumerate(candidates)
        if (total := cand.total()) > target
    ]
    scored.sort(key=lambda s: (-s[0], s[1]))
    for _, _, cand in scored:
        hit = ctx.try_candidate(cand)
        if hit is not None:
            return _package(ctx, cand, hit, resolution)
    return DeviationResult(found=False, resolution=resolution)


def _package(ctx: _Search, cand: _Candidate, hit, resolution) -> DeviationResult:
    new_vecs, division = hit
    n = ctx.game.n
    payoff_rows = tuple(
        tuple(shares.get(j, ZERO) for j in range(n)) for shares in division
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
        new_structure=CoalitionStructure(
            tuple(PartialCoalition(ctx.scaled_row(vec)) for vec in new_vecs)
        ),
    )
    gains = {}
    for j in ctx.Js:
        earned = cand.base.get(j, ZERO) + sum(
            (shares.get(j, ZERO) for shares in division), ZERO
        )
        gains[j] = earned - ctx.pJ[j]
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
    the group profits iff its standalone optimum exceeds its current total
    payoff, and a witness structure with every deviator in every coalition
    always exists.  Rule-based games use the generic grid search.
    """
    ctx = _Search(game, outcome, J, cap, grid)
    resolution = (cap, grid)
    everything = tuple(range(len(outcome.structure)))
    if isinstance(game, TTG):
        best = welfare.vstar(game, ctx.J)
        total_p = sum(ctx.pJ.values(), ZERO)
        if best <= total_p:
            return DeviationResult(found=False, resolution=resolution)
        sub = TTG(tuple(game.weights[j] for j in ctx.Js), game.tasks)
        coalitions = tuple(
            PartialCoalition(_embed(c.units, ctx.Js, (ZERO,) * game.n))
            for c in welfare.canonical_structure(sub).coalitions
        )
        surplus = (best - total_p) / len(ctx.Js)
        target = {j: ctx.pJ[j] + surplus for j in ctx.Js}
        rows = tuple(
            tuple(
                target[j] * game.value(c.units) / best if j in ctx.J else ZERO
                for j in range(game.n)
            )
            for c in coalitions
        )
        plan = DeviationPlan(
            deviators=ctx.J,
            kept=(),
            abandoned=everything,
            modified=(),
            new_structure=CoalitionStructure(coalitions),
        )
        return DeviationResult(
            found=True, plan=plan, payoffs=rows,
            gains={j: surplus for j in ctx.Js}, resolution=resolution,
        )
    caps = ctx.full_caps()
    candidates = [
        _Candidate({}, (), caps, structure, abandoned=everything)
        for structure in ctx.new_structures(caps, cap)
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
    resolution = (cap, grid)
    touched = [i for i in ctx.mixed if any(ctx.units[i][j] for j in ctx.Js)]
    forced_keep = [i for i in ctx.mixed if i not in touched]
    budget = None if cap is None else max(0, cap - len(ctx.mixed))
    candidates = []
    for k in range(len(touched) + 1):
        for drop in itertools.combinations(touched, k):
            kept = forced_keep + [i for i in touched if i not in drop]
            base = {
                j: sum((ctx.outcome.payoffs[i][j] for i in kept), ZERO)
                for j in ctx.Js
            }
            caps = tuple(
                ctx.w[j] - sum(ctx.units[i][j] for i in kept) for j in ctx.Js
            )
            for structure in ctx.new_structures(caps, budget):
                candidates.append(
                    _Candidate(
                        base, (), caps, structure,
                        kept=tuple(sorted(kept)),
                        abandoned=tuple(sorted(set(drop) | set(ctx.dev_only))),
                    )
                )
    return _try_best_first(ctx, candidates, resolution)


def find_o_deviation(
    game: Game, outcome: Outcome, J: Iterable[int],
    cap: Optional[int] = None, grid: int = 1,
) -> DeviationResult:
    """Grid search for optimistic deviations.

    For each shared coalition the deviators choose a replacement
    contribution vector (per value level, minimal on the grid, plus
    "unchanged" and "abandon"); they collectively claim the coalition's new
    value minus the non-deviators' old shares, and spend freed units on new
    deviator-only coalitions.
    """
    ctx = _Search(game, outcome, J, cap, grid)
    resolution = (cap, grid)
    budget = None if cap is None else max(0, cap - len(ctx.mixed))
    options = [_o_mods(ctx, i) for i in ctx.mixed]
    candidates = []
    for combo in itertools.product(*options):
        caps = [ctx.w[j] for j in ctx.Js]
        ok = True
        takes = []
        kept, modified, abandoned = [], [], list(ctx.dev_only)
        for i, (vec, take) in zip(ctx.mixed, combo):
            for k, u in enumerate(vec):
                caps[k] -= u
                if caps[k] < 0:
                    ok = False
            if not ok:
                break
            original = tuple(ctx.units[i][j] for j in ctx.Js)
            if vec == original:
                kept.append(i)
            elif not any(vec):
                abandoned.append(i)
            else:
                modified.append((i, vec))
            if take > 0:
                takes.append(
                    (take, frozenset(j for j, u in zip(ctx.Js, vec) if u))
                )
        if not ok:
            continue
        caps_t = tuple(caps)
        for structure in ctx.new_structures(caps_t, budget):
            candidates.append(
                _Candidate(
                    {}, tuple(takes), caps_t, structure,
                    kept=tuple(kept),
                    abandoned=tuple(sorted(abandoned)),
                    modified=tuple(modified),
                )
            )
    return _try_best_first(ctx, candidates, resolution)


def _o_mods(ctx: _Search, i: int) -> list[tuple[tuple[int, ...], Fraction]]:
    """Candidate replacement vectors for the deviators' part of coalition i.

    Returns (vector over sorted(J), collective take) pairs: abandonment,
    the unchanged vector, and minimal grid top-ups per value level.
    """
    game = ctx.game
    nondev_row = [
        Q(u, ctx.M) if j not in ctx.J else ZERO
        for j, u in enumerate(ctx.units[i])
    ]
    nondev_x = sum(
        (ctx.outcome.payoffs[i][j] for j in range(game.n) if j not in ctx.J), ZERO
    )
    caps = ctx.full_caps()

    def take_of(vec: Sequence[int]) -> Fraction:
        if not any(vec):
            return ZERO
        return max(game.value(ctx.scaled_row(vec, nondev_row)) - nondev_x, ZERO)

    mods: dict[tuple[int, ...], Fraction] = {}
    zero = (0,) * len(ctx.Js)
    mods[zero] = ZERO
    unchanged = tuple(ctx.units[i][j] for j in ctx.Js)
    if any(unchanged):
        t = take_of(unchanged)
        if t > 0:
            mods[unchanged] = t
    if isinstance(game, TTG):
        pooled = sum(ctx.units[i][j] for j in range(game.n) if j not in ctx.J)
        needs = []
        for task in game.tasks:
            need = max(0, int(task.threshold * ctx.M) - pooled)
            # at least a token unit, to be allowed a share
            needs.append(-(-need // ctx.g) * ctx.g or ctx.g)
        vecs = itertools.chain.from_iterable(
            _compositions(need, caps, ctx.g) for need in needs
        )
    else:
        vecs = _grid_vectors(caps, ctx.g)
    for vec in vecs:
        t = take_of(vec)
        if t > 0:
            mods[vec] = max(mods.get(vec, ZERO), t)
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
    """Grid-exhaustive membership: try every nonempty deviator set.

    Sets are visited smallest-first, lexicographically within a size; the
    verdict records the search resolution.
    """
    if kind not in FINDERS:
        raise GameError(f"unknown core kind {kind!r}")
    if game.n > SUBSET_GUARD:
        raise GameError(f"subset enumeration supports at most {SUBSET_GUARD} agents")
    find = FINDERS[kind]
    p = payoff_vector(outcome)
    for S in _subsets(game.n):
        result = find(game, outcome, S, cap=cap, grid=grid)
        if result.found:
            gains_total = sum(result.gains.values(), ZERO)
            return CoreVerdict(
                stable=False,
                witness=result.plan.deviators,
                witness_value=sum((p[j] for j in S), ZERO) + gains_total,
                shortfall=gains_total,
                resolution=result.resolution,
                deviation=result,
            )
    return CoreVerdict(stable=True, resolution=(cap, grid))
