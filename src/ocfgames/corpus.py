"""Worked-example regression corpus.

A fixed set of small games with hand-verifiable expected verdicts, used
both as a CLI regression runner and as shared fixtures for the test
suite.  Identifiers are stable; agents are 0-based in code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ocfgames import convexity, core, deviations, fuzzy, lp, welfare
from ocfgames.model import (
    CoalitionStructure,
    Outcome,
    PartialCoalition,
    Requirement,
    Rule,
    RuleBasedGame,
    TaskType,
    TTG,
    payoff_vector,
    to_nonoverlapping,
)
from ocfgames.rationals import Q

ZERO = Q(0)

Check = tuple[str, bool, str]


@dataclass(frozen=True)
class ExampleRecord:
    identifier: str
    description: str
    run: Callable[[], list[Check]]


def _outcome(rows, pays) -> Outcome:
    cs = CoalitionStructure(tuple(PartialCoalition(tuple(r)) for r in rows))
    return Outcome(cs, tuple(tuple(row) for row in pays))


# -- shared instances -------------------------------------------------------


def three_symmetric_game() -> TTG:
    """Three agents of weight 2, one task (3, 1)."""
    return TTG((Q(2), Q(2), Q(2)), (TaskType(Q(3), Q(1)),))


def two_company_game() -> TTG:
    """Two agents (4, 6) with tasks (5, 15) and (4, 10)."""
    return TTG((Q(4), Q(6)), (TaskType(Q(5), Q(15)), TaskType(Q(4), Q(10))))


def four_escorts_game() -> RuleBasedGame:
    """Seven agents; big task doable by designated pairs, small by the heavy
    trio pooling two units."""
    w = (Q(1), Q(1), Q(1), Q(1), Q(3), Q(3), Q(3))
    pairs = [(0, 4), (1, 5), (2, 6), (3, 4), (3, 5), (3, 6)]
    rules = tuple(
        Rule(
            (
                Requirement(frozenset({i}), Q(1)),
                Requirement(frozenset({j}), Q(2)),
            ),
            Q(100),
        )
        for i, j in pairs
    ) + (Rule((Requirement(frozenset({4, 5, 6}), Q(2)),), Q(2)),)
    return RuleBasedGame(w, rules)


def triple_effort_game() -> RuleBasedGame:
    """Three agents of weight 8; big task needs 6 units from each, small
    task 4 units from anyone."""
    w = (Q(8), Q(8), Q(8))
    rules = (
        Rule(
            (
                Requirement(frozenset({0}), Q(6)),
                Requirement(frozenset({1}), Q(6)),
                Requirement(frozenset({2}), Q(6)),
            ),
            Q(300),
        ),
        Rule((Requirement(frozenset({0, 1, 2}), Q(4)),), Q(2)),
    )
    return RuleBasedGame(w, rules)


def empty_core_game() -> TTG:
    """Weights (9, 1, 1), tasks (8, 100) and (2, 1): no strict-core outcome."""
    return TTG((Q(9), Q(1), Q(1)), (TaskType(Q(8), Q(100)), TaskType(Q(2), Q(1))))


def two_mirror_game() -> TTG:
    """Two agents of weight 10, tasks (20, 20) and (7, 9)."""
    return TTG((Q(10), Q(10)), (TaskType(Q(20), Q(20)), TaskType(Q(7), Q(9))))


# -- per-record checks ------------------------------------------------------


def _check(name: str, ok: bool, detail: str = "") -> Check:
    return (name, bool(ok), detail)


def _run_three_symmetric() -> list[Check]:
    game = three_symmetric_game()
    over, _, _ = welfare.max_welfare_overlapping(game)
    non, _ = welfare.max_welfare_nonoverlapping(game)
    verdict = core.stabilize(game)
    return [
        _check("overlapping welfare is 2", over == 2, f"got {over}"),
        _check("nonoverlapping welfare is 1", non == 1, f"got {non}"),
        _check("crisp pair value is 1", to_nonoverlapping(game, {0, 1}) == 1),
        _check("crisp singleton value is 0", to_nonoverlapping(game, {0}) == 0),
        _check("stable division exists", verdict.stable),
    ]


def _two_company_cs() -> CoalitionStructure:
    return CoalitionStructure(
        (PartialCoalition((Q(1), Q(4))), PartialCoalition((Q(3), Q(2))))
    )


def _run_two_company_division() -> list[Check]:
    game = two_company_game()
    cs = _two_company_cs()
    x = Outcome(cs, ((Q(7), Q(8)), (Q(9), Q(6))))
    y = Outcome(cs, ((Q(7), Q(8)), (Q(8), Q(7))))
    p = payoff_vector(x, game.n)
    vx = core.check_group_rationality(game, x)
    vy = core.check_group_rationality(game, y)
    return [
        _check("payoffs under x are (16, 14)", p == (Q(16), Q(14)), f"got {p}"),
        _check(
            "x rejected with witness {2}",
            not vx.stable and vx.witness == frozenset({1}),
            f"stable={vx.stable} witness={vx.witness}",
        ),
        _check("y accepted", vy.stable),
    ]


def _run_two_company_refined() -> list[Check]:
    game = two_company_game()
    y = Outcome(_two_company_cs(), ((Q(7), Q(8)), (Q(8), Q(7))))
    hit = deviations.find_r_deviation(game, y, {1}, cap=3, grid=1)
    cs_even = CoalitionStructure(
        (PartialCoalition((Q(2), Q(3))), PartialCoalition((Q(2), Q(3))))
    )
    xp = Outcome(cs_even, ((Q(3), Q(12)), (Q(12), Q(3))))
    vr = deviations.core_membership(game, xp, kind="r", cap=3, grid=1)
    gain = hit.gains.get(1) if hit.found else None
    return [
        _check(
            "agent 2 reaches 17 by leaving one coalition",
            hit.found and gain == 2,
            f"found={hit.found} gain={gain}",
        ),
        _check("even-split outcome survives refinement deviations", vr.stable),
    ]


def _run_two_company_joint() -> list[Check]:
    game = two_company_game()
    z = _outcome([(Q(4), Q(3)), (ZERO, Q(3))], [(Q(3), Q(12)), (ZERO, ZERO)])
    hit = deviations.find_r_deviation(game, z, {0, 1}, cap=3, grid=1)
    total = (
        sum((sum(row, ZERO) for row in hit.payoffs), ZERO) if hit.found else None
    )
    return [
        _check(
            "joint deviation worth 30 exists",
            hit.found and total == 30,
            f"found={hit.found} total={total}",
        )
    ]


def _run_two_company_optimistic() -> list[Check]:
    game = two_company_game()
    cs_even = CoalitionStructure(
        (PartialCoalition((Q(2), Q(3))), PartialCoalition((Q(2), Q(3))))
    )
    xp = Outcome(cs_even, ((Q(3), Q(12)), (Q(12), Q(3))))
    yp = Outcome(cs_even, ((Q(7), Q(8)), (Q(8), Q(7))))
    hit = deviations.find_o_deviation(game, xp, {1}, cap=3, grid=1)
    total = (
        sum((row[1] for row in hit.payoffs), ZERO) if hit.found else None
    )
    vo = deviations.core_membership(game, yp, kind="o", cap=3, grid=1)
    return [
        _check(
            "agent 2 reaches 17 by trimming one coalition",
            hit.found and total == 17,
            f"found={hit.found} total={total}",
        ),
        _check("symmetric division survives optimistic deviations", vo.stable),
    ]


def _four_escorts_outcome() -> Outcome:
    Z = ZERO
    rows = [
        (Q(1), Z, Z, Z, Q(2), Z, Z),
        (Z, Q(1), Z, Z, Z, Q(2), Z),
        (Z, Z, Q(1), Z, Z, Z, Q(2)),
        (Z, Z, Z, Z, Q(1), Q(1), Z),
    ]
    pays = [
        (Z, Z, Z, Z, Q(100), Z, Z),
        (Z, Z, Z, Z, Z, Q(100), Z),
        (Z, Z, Z, Z, Z, Z, Q(100)),
        (Z, Z, Z, Z, Q(1), Q(1), Z),
    ]
    return _outcome(rows, pays)


def _run_four_escorts() -> list[Check]:
    # Group rationality is checked at structure cap 2: with three new
    # coalitions the heavy agents can re-pair with their original partners
    # and squeeze out the small task (202 > 201), so the stated division
    # is only stable against deviations into at most two coalitions.
    game = four_escorts_game()
    outcome = _four_escorts_outcome()
    v = core.check_group_rationality(game, outcome, cap=2)
    hit = deviations.find_r_deviation(game, outcome, {1, 2, 5, 6}, cap=5, grid=1)
    return [
        _check("stated outcome is group-rational at cap 2", v.stable),
        _check(
            "four-player refinement deviation exists",
            hit.found,
            f"found={hit.found}",
        ),
    ]


def _triple_effort_outcome() -> Outcome:
    rows = [(Q(7), Q(7), Q(6)), (Q(1), Q(1), Q(2))]
    pays = [
        (Q(100), Q(100), Q(100)),
        (Q(1, 2), Q(1, 2), Q(1)),
    ]
    return _outcome(rows, pays)


def _run_triple_effort() -> list[Check]:
    game = triple_effort_game()
    outcome = _triple_effort_outcome()
    vr = deviations.core_membership(game, outcome, kind="r", cap=3, grid=1)
    hit = deviations.find_o_deviation(game, outcome, {1, 2}, cap=3, grid=1)
    return [
        _check("stated outcome survives refinement deviations", vr.stable),
        _check("pair has an optimistic deviation", hit.found),
    ]


def _partitions(n: int):
    if n == 0:
        yield []
        return
    first = n - 1
    for rest in _partitions(first):
        for i, block in enumerate(rest):
            yield rest[:i] + [block | {first}] + rest[i + 1 :]
        yield rest + [{first}]


def _partition_stabilizable(game: TTG, blocks) -> bool:
    """Is there a stable imputation for this partition of the crisp game?"""
    builder = lp.ProgramBuilder()
    for j in range(game.n):
        builder.var(j)
    for S in blocks:
        builder.add(S, "==", to_nonoverlapping(game, S))
    for S in core._subsets(game.n):
        builder.add(S, ">=", to_nonoverlapping(game, S))
    return builder.solve().status != "infeasible"


def _run_partition_vs_overlap() -> list[Check]:
    game = three_symmetric_game()
    outcome = _outcome(
        [(Q(2), Q(1), ZERO), (ZERO, Q(1), Q(2))],
        [(Q(2, 3), Q(1, 3), ZERO), (ZERO, Q(1, 3), Q(2, 3))],
    )
    vo = deviations.core_membership(game, outcome, kind="o", cap=3, grid=1)
    all_empty = all(
        not _partition_stabilizable(game, blocks) for blocks in _partitions(game.n)
    )
    return [
        _check("no partition of the crisp game is stabilizable", all_empty),
        _check("stated overlapping outcome is o-stable", vo.stable),
    ]


def _run_empty_core() -> list[Check]:
    game = empty_core_game()
    verdict = core.stabilize(game)
    nv = core.nonoverlapping_core_check(
        game, [{0}, {1, 2}], (Q(100), Q(1, 2), Q(1, 2))
    )
    rep = convexity.falsify_convexity(game, cap=3, grid=1)
    return [
        _check("no stable division exists", not verdict.stable),
        _check("crisp partition {1},{2,3} is stable", nv.stable),
        _check("composition property violated", rep.violation is not None),
    ]


def _run_two_mirror() -> list[Check]:
    game = two_mirror_game()
    p = (Q(10), Q(10))
    aubin = fuzzy.aubin_core_check(game, p)
    fc = fuzzy.f_core_check(game, p)
    outcome = _outcome([(Q(10), Q(10))], [(Q(10), Q(10))])
    vo = deviations.core_membership(game, outcome, kind="o", cap=3, grid=1)
    return [
        _check(
            "fractional-withdrawal check fails with witness (0.7, 0.7)",
            not aubin.holds and aubin.witness == (Q(7, 10), Q(7, 10)),
            f"holds={aubin.holds} witness={aubin.witness}",
        ),
        _check("full-forfeit check holds", fc.holds),
        _check("grand-coalition outcome is o-stable", vo.stable),
    ]


RECORDS: tuple[ExampleRecord, ...] = (
    ExampleRecord(
        "example-1",
        "three symmetric agents: overlap doubles the welfare",
        _run_three_symmetric,
    ),
    ExampleRecord(
        "example-2",
        "two companies: division decides strict-core membership",
        _run_two_company_division,
    ),
    ExampleRecord(
        "example-4",
        "two companies: refinement deviations",
        _run_two_company_refined,
    ),
    ExampleRecord(
        "example-5",
        "two companies: joint refinement deviation worth 30",
        _run_two_company_joint,
    ),
    ExampleRecord(
        "example-6",
        "two companies: optimistic deviations",
        _run_two_company_optimistic,
    ),
    ExampleRecord(
        "prop-1",
        "seven agents: group-rational but no refinement-stable outcome",
        _run_four_escorts,
    ),
    ExampleRecord(
        "prop-2",
        "three heavy agents: refinement-stable but optimistically unstable",
        _run_triple_effort,
    ),
    ExampleRecord(
        "prop-3",
        "crisp game unstable, overlapping outcome o-stable",
        _run_partition_vs_overlap,
    ),
    ExampleRecord(
        "prop-4",
        "overlapping core empty while a crisp partition is stable",
        _run_empty_core,
    ),
    ExampleRecord(
        "prop-5",
        "fractional-withdrawal core empty despite an o-stable outcome",
        _run_two_mirror,
    ),
)


def run_examples(records: Sequence[ExampleRecord] = RECORDS):
    """Run every record; returns (all_passed, lines) with one line per check."""
    lines = []
    all_ok = True
    for record in records:
        for name, ok, detail in record.run():
            all_ok = all_ok and ok
            status = "pass" if ok else "FAIL"
            suffix = f" ({detail})" if detail and not ok else ""
            lines.append(f"{status}  {record.identifier}: {name}{suffix}")
    return all_ok, lines
