"""Shared fixtures: seeded instance generators and independent brute-force
oracles used to cross-check the package's exact algorithms."""

from __future__ import annotations

import itertools
import os
import random
import tempfile
from fractions import Fraction as Q

from hypothesis import settings

from ocfgames.model import (
    CoalitionStructure,
    Outcome,
    PartialCoalition,
    TTG,
    TaskType,
)

ZERO = Q(0)

# Property tests draw the same examples on every run (derandomize), take as
# long as a loaded machine needs (no deadline) and keep no example database,
# so the suite is reproducible.  Hypothesis also caches the literals it reads
# from source files; that cache goes to the system temporary directory, so
# the suite writes no .hypothesis/ directory into the checkout.
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY",
    os.path.join(tempfile.gettempdir(), "ocfgames-hypothesis"),
)
settings.register_profile(
    "ocfgames", derandomize=True, deadline=None, database=None
)
settings.load_profile("ocfgames")

# One "ACCEPTANCE k: pass|FAIL" line per criterion, filled in by
# test_acceptance and replayed after the run (survives output capture).
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(
        ACCEPTANCE_LINES, key=lambda s: int(s.split(":")[0].split()[1])
    ):
        terminalreporter.write_line(line)


def random_ttg(rng: random.Random, max_n: int = 4, max_total: int = 8,
               max_tasks: int = 2, max_utility: int = 20) -> TTG:
    """Small TTG with integer weights summing to at most ``max_total``."""
    n = rng.randint(1, max_n)
    weights = []
    budget = max_total - n  # leave room so every weight is >= 1
    for _ in range(n):
        extra = rng.randint(0, budget)
        budget -= extra
        weights.append(Q(1 + extra))
    total = int(sum(weights))
    m = rng.randint(1, max_tasks)
    tasks = tuple(
        TaskType(Q(rng.randint(1, total)), Q(rng.randint(1, max_utility)))
        for _ in range(m)
    )
    return TTG(tuple(weights), tasks)


def random_outcome(rng: random.Random, game: TTG) -> Outcome:
    """Valid outcome on a random integer-unit structure.

    Each coalition's value is split among its supporters at random with
    denominator at most 4, so payoffs stay small exact rationals.
    """
    n = game.n
    k = rng.randint(1, 2)
    remaining = [int(w) for w in game.weights]
    rows = []
    for _ in range(k):
        row = []
        for j in range(n):
            u = rng.randint(0, remaining[j])
            remaining[j] -= u
            row.append(Q(u))
        rows.append(PartialCoalition(tuple(row)))
    cs = CoalitionStructure(tuple(rows))
    payoffs = []
    for c in cs.coalitions:
        v = game.value(c.units)
        sup = sorted(c.support)
        row = [ZERO] * n
        if sup:
            shares = [Q(rng.randint(0, 4)) for _ in sup]
            total = sum(shares)
            if total == 0:
                shares[0] = Q(1)
                total = Q(1)
            for j, s in zip(sup, shares):
                row[j] = v * s / total
        payoffs.append(tuple(row))
    return Outcome(cs, tuple(payoffs))


def brute_best_utility(game: TTG, pooled: Q) -> Q:
    """Best achievable value from ``pooled`` weight by trying every task
    multiset explicitly (independent of the DP)."""
    best = ZERO
    limit = int(pooled)

    def rec(idx: int, left: int, acc: Q) -> None:
        nonlocal best
        if acc > best:
            best = acc
        if idx == len(game.tasks):
            return
        t = game.tasks[idx]
        need = t.threshold
        # take 0..floor(left/need) copies of task idx
        copies = 0
        acc2 = acc
        left2 = Q(left)
        while left2 >= need:
            copies += 1
            left2 -= need
            acc2 += t.utility
            rec(idx + 1, int(left2), acc2)
        rec(idx + 1, left, acc)

    rec(0, limit, ZERO)
    return best


def brute_payoff_membership(game: TTG, p) -> bool:
    """2^n check: every agent set paid at least what it earns alone."""
    n = game.n
    for r in range(1, n + 1):
        for S in itertools.combinations(range(n), r):
            pooled = sum((game.weights[j] for j in S), ZERO)
            if sum((p[j] for j in S), ZERO) < brute_best_utility(game, pooled):
                return False
    return True
