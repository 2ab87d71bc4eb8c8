"""Independent reference computations for the benchmark's correctness gate.

Nothing here imports the library under test.  Each routine decides the same
question by another formulation, on integer-scaled data where it can:

- ``TTGTable``: the unbounded-knapsack optimum of a threshold task game on
  integers scaled by the common denominator;
- ``subset_violation``: brute-force subset sums (TTGs of at most 10 agents);
- ``capped_c_violation``: conservative deviations limited to a number of
  coalitions, by enumerating every split of the deviators' whole units;
- ``min_payoff_violation``: the per-weight cheapest-subset DP on integer
  payoffs, a separate implementation of the f-core scan;
- ``aubin_gap``: the Aubin condition by greedy filling in unit-cost order,
  which reaches the minimum of the fractional knapsack the library solves by
  DP;
- ``balanced_certificate_ok``: the Farkas recomputation of a
  ``stabilize_structure`` certificate;
- ``RuleCover``: rule-based standalone values by enumerating rule multisets
  and testing each by the supply-side Hall condition.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import floor, lcm

ZERO = Fraction(0)


def _exact(x):
    """An int when ``x`` is integral (faster to sum and compare), else a Fraction."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _ints(values):
    """Scale ``values`` to integers; returns (integers, scale)."""
    values = [Fraction(v) for v in values]
    m = 1
    for v in values:
        m = lcm(m, v.denominator)
    return [int(v * m) for v in values], m


class TTGTable:
    """Knapsack optimum U[w] of a TTG at every integer-scaled weight."""

    def __init__(self, weights, tasks):
        self.weights = [_exact(w) for w in weights]
        self.tasks = [(_exact(t), _exact(u)) for t, u in tasks]
        scaled, self.M = _ints(self.weights + [t for t, _ in self.tasks])
        self.sw = scaled[: len(self.weights)]
        thresholds = scaled[len(self.weights):]
        utilities, self.D = _ints([u for _, u in self.tasks])
        items = [(T, u) for T, u in zip(thresholds, utilities) if u > 0]
        W = sum(self.sw)
        U = [0] * (W + 1)
        for w in range(1, W + 1):
            best = U[w - 1]
            for T, u in items:
                if T <= w and U[w - T] + u > best:
                    best = U[w - T] + u
            U[w] = best
        self.U = U  # in units of 1/D

    def best(self, weight) -> Fraction:
        """Best total utility that pooled ``weight`` can earn."""
        return Fraction(self.U[floor(Fraction(weight) * self.M)], self.D)

    def row_value(self, row) -> Fraction:
        """Value of one coalition: the best single task it meets."""
        pooled = sum(row)
        return max((u for t, u in self.tasks if t <= pooled), default=ZERO)

    def subset_best(self, S) -> Fraction:
        return Fraction(self.U[sum(self.sw[j] for j in S)], self.D)


def _ordered_subsets(n):
    for k in range(1, n + 1):
        yield from itertools.combinations(range(n), k)


def subset_violation(n, p, standalone):
    """First agent set (by size, then lexicographically) paid below what it
    earns alone, as (set, standalone value, shortfall); None if none."""
    for S in _ordered_subsets(n):
        have = sum((p[j] for j in S), ZERO)
        need = standalone(S)
        if have < need:
            return S, need, need - have
    return None


def min_payoff_violation(table: TTGTable, p):
    """First scaled weight w where the cheapest subset pooling at least w is
    paid less than U[w]; returns (w, U[w] as a Fraction) or None."""
    scaled_p, P = _ints(p)
    W = len(table.U) - 1
    INF = None
    best = [INF] * (W + 1)
    best[0] = 0
    for wi, pi in zip(table.sw, scaled_p):
        for w in range(W, -1, -1):
            src = best[max(0, w - wi)]
            if src is not None and (best[w] is None or src + pi < best[w]):
                best[w] = src + pi
    D = table.D
    for w in range(1, W + 1):
        if best[w] is not None and best[w] * D < table.U[w] * P:
            return w, Fraction(table.U[w], D)
    return None


def aubin_gap(table: TTGTable, p):
    """Largest gap U[W] - min cost over integral profiles pooling W (first W
    attaining it), by greedy filling; None when no gap is positive."""
    order = sorted(
        range(len(p)), key=lambda i: Fraction(p[i]) / table.sw[i]
    )
    best_gap, best_w = ZERO, None
    for W in range(1, sum(table.sw) + 1):
        left, cost = W, ZERO
        for i in order:
            take = min(left, table.sw[i])
            cost += Fraction(p[i]) * take / table.sw[i]
            left -= take
            if left == 0:
                break
        gap = Fraction(table.U[W], table.D) - cost
        if gap > best_gap:
            best_gap, best_w = gap, W
    return None if best_w is None else (best_w, Fraction(table.U[best_w], table.D))


def _splits(total, parts):
    """Every way to split the integer ``total`` into ``parts`` ordered parts."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _splits(total - first, parts - 1):
            yield (first,) + rest


class CappedC:
    """Conservative deviations of one TTG built from at most ``budget`` new
    coalitions on whole weight units (grid 1, integer weights).

    A plan gives each coalition the best single task its pooled units meet
    and pays it out to its members only.  Spare units can join any
    coalition without lowering its value, so every plan uses all of the
    deviators' units.  The deviators can all strictly gain exactly when,
    for every nonempty T within S, the coalitions with a member in T are
    worth more than T is paid now (Hall's condition for the payout,
    with a small enough margin).  ``reach`` lists, per distinct plan, that
    worth for each T as a bit mask over S.
    """

    def __init__(self, table: TTGTable):
        if table.M != 1:
            raise ValueError("capped c-deviations need integer weights and thresholds")
        self.table = table
        self._memo = {}

    def reach(self, S, budget):
        key = (S, budget)
        if key not in self._memo:
            self._memo[key] = self._reach(S, budget)
        return self._memo[key]

    def _reach(self, S, budget):
        k = len(S)
        masks = range(1, 1 << k)
        plans = set()
        for split in itertools.product(*(_splits(self.table.sw[j], budget) for j in S)):
            coalitions = []
            for c in range(budget):
                member = sum(1 << i for i in range(k) if split[i][c])
                if member:
                    coalitions.append((member, self.table.row_value(
                        [split[i][c] for i in range(k)])))
            plans.add(tuple(sorted(coalitions)))
        return {
            tuple(sum((v for m, v in plan if m & T), ZERO) for T in masks)
            for plan in plans
        }

    def deviates(self, S, budget, p) -> bool:
        """Whether S can deviate from payoffs ``p`` with ``budget`` coalitions."""
        if budget <= 0:
            return False
        paid = [sum((p[S[i]] for i in range(len(S)) if T >> i & 1), ZERO)
                for T in range(1, 1 << len(S))]
        return any(all(r > x for r, x in zip(reach, paid))
                   for reach in self.reach(S, budget))


def capped_c_violation(table: TTGTable, capped: CappedC, rows, p, cap):
    """First agent set (by size, then lexicographically) with a capped
    conservative deviation, or None.

    Coalitions of the outcome with an outsider outlive the deviation and
    count against ``cap``; the deviators build at most the rest anew.
    """
    n = len(table.weights)
    for S in _ordered_subsets(n):
        inside = set(S)
        shared = sum(1 for row in rows if any(u != 0 and j not in inside
                                              for j, u in enumerate(row)))
        if capped.deviates(S, cap - shared, p):
            return S
    return None


def outcome_ok(table: TTGTable, rows, pays, allow_negative=False):
    """Rows within capacity, each paid exactly its value, only to
    contributors, nonnegative unless allowed."""
    n = len(table.weights)
    for j in range(n):
        if sum((Fraction(r[j]) for r in rows), ZERO) > table.weights[j]:
            return False
    for row, pay in zip(rows, pays):
        if sum(pay, ZERO) != table.row_value(row):
            return False
        for u, x in zip(row, pay):
            if (u == 0 and x != 0) or (x < 0 and not allow_negative):
                return False
    return len(rows) == len(pays)


def in_core(table: TTGTable, p) -> bool:
    """Every agent set is paid at least its standalone optimum."""
    return subset_violation(len(p), p, table.subset_best) is None


def balanced_certificate_ok(table: TTGTable, rows, lambdas, mus) -> bool:
    """Farkas recomputation: nonnegative weights, the balance equality at
    every supported (coalition, agent) pair, and a combined value strictly
    above the grand coalition's optimum."""
    if any(l < 0 for l in lambdas.values()) or len(mus) != len(rows):
        return False
    for row, mu in zip(rows, mus):
        for j, u in enumerate(row):
            if u != 0:
                if mu + sum((l for S, l in lambdas.items() if j in S), ZERO) != 1:
                    return False
    lhs = sum((l * table.subset_best(S) for S, l in lambdas.items()), ZERO)
    lhs += sum((mu * table.row_value(row) for mu, row in zip(mus, rows)), ZERO)
    return lhs > table.subset_best(range(len(table.weights)))


class RuleCover:
    """Standalone values of a rule-based game at a coalition cap (or none).

    ``rules`` are in the JSON form (1-based agents).  A multiset of rule
    instances is fundable by S when, for every subset A of S, the demand of
    requirements whose helpers inside S all lie in A fits A's weight.  That
    supply-side Hall condition is exact when each rule's requirement groups
    are disjoint, and for single agents (whose requirements in one instance
    all draw on the same units); other inputs are refused.
    """

    def __init__(self, weights, rules, cap):
        self.w = [_exact(x) for x in weights]
        self.cap = cap
        self.rules = []
        self.disjoint = True
        for rule in rules:
            reqs = [(frozenset(a - 1 for a in r["agents"]), _exact(r["min"]))
                    for r in rule["requirements"]]
            for (a, _), (b, _) in itertools.combinations(reqs, 2):
                if a & b:
                    self.disjoint = False
            self.rules.append((reqs, _exact(rule["value"])))
        self._memo = {}

    def row_value(self, row) -> Fraction:
        best = ZERO
        for reqs, value in self.rules:
            if value > best and all(sum(row[j] for j in a) >= m for a, m in reqs):
                best = value
        return best

    def value(self, S: frozenset) -> Fraction:
        if S not in self._memo:
            self._memo[S] = self._value(S)
        return self._memo[S]

    def _value(self, S: frozenset) -> Fraction:
        if len(S) > 1 and not self.disjoint:
            raise ValueError("Hall condition is exact only for disjoint groups")
        usable = [
            (reqs, v) for reqs, v in self.rules
            if v > 0 and all(m <= 0 or (a & S) for a, m in reqs)
        ]
        subsets = [
            frozenset(c) for k in range(1, len(S) + 1)
            for c in itertools.combinations(sorted(S), k)
        ]
        budget = sum((self.w[j] for j in S), ZERO)
        best = ZERO
        sizes = self.cap
        if sizes is None:  # no cap: as many instances as the budget can fund
            cheapest = min((max(m for _, m in reqs) for reqs, _ in usable), default=1)
            sizes = int(budget // cheapest)
        for size in range(1, sizes + 1):
            for combo in itertools.combinations_with_replacement(usable, size):
                value = sum((v for _, v in combo), ZERO)
                if value <= best:
                    continue
                demands = []
                for reqs, _ in combo:
                    # requirements of one instance met by the same helpers
                    # share their contributions: only the largest counts
                    need: dict = {}
                    for a, m in reqs:
                        if m > 0:
                            need[a & S] = max(need.get(a & S, ZERO), m)
                    demands.extend(need.items())
                if sum((m for _, m in demands), ZERO) > budget:
                    continue
                if all(
                    sum((m for a, m in demands if a <= A), ZERO)
                    <= sum((self.w[j] for j in A), ZERO)
                    for A in subsets
                ):
                    best = value
        return best
