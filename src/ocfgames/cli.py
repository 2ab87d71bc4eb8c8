"""Command-line front end.

Exit codes: 0 = stable / success, 1 = unstable / empty / violation found
(a witness is printed), 2 = usage or validation error, 3 = internal error
(a failed internal check, printed as one ``internal error:`` line).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Optional, Sequence

from ocfgames import convexity, core, corpus, deviations, fuzzy, io, reductions, welfare
from ocfgames.model import (
    Game,
    GameError,
    Outcome,
    TTG,
    payoff_vector,
    validate_outcome,
)
from ocfgames.rationals import Q, as_q, q_str

STABLE, UNSTABLE, ERROR, INTERNAL = 0, 1, 2, 3


def _agent_list(text: str, n: int) -> list[int]:
    """Comma-separated 1-based agent labels, in order, as 0-based indices."""
    try:
        labels = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as err:
        raise GameError(f"bad agent list {text!r}") from err
    for a in labels:
        if not (1 <= a <= n):
            raise GameError(f"agent label {a} out of range 1..{n}")
    return [a - 1 for a in labels]


def _agent_set(text: str, n: int) -> frozenset[int]:
    return frozenset(_agent_list(text, n))


def _payoff_vector_arg(text: str, n: int) -> tuple:
    try:
        parts = [as_q(tok.strip()) for tok in text.split(",")]
    except ValueError as err:
        raise GameError(f"bad payoff vector {text!r}: {err}") from err
    if len(parts) != n:
        raise GameError(f"{len(parts)} payoffs for {n} agents")
    return tuple(parts)


def _load_feasible_outcome(path: str, game: Game) -> Outcome:
    """Load an outcome and reject it unless it is feasible: capacities hold
    and each coalition's payoffs distribute exactly its value.  Individual
    rationality is left to the check that runs on it."""
    outcome = io.load_outcome(path, game)
    problems = validate_outcome(game, outcome, individual_rationality=False)
    if problems:
        raise GameError("; ".join(problems))
    return outcome


def _print_outcome(outcome: Outcome, out: Optional[str]) -> None:
    doc = io.outcome_to_dict(outcome)
    if out:
        io.save_outcome(outcome, out)
    else:
        print(json.dumps(doc, indent=2))


def _cmd_welfare(args) -> int:
    game = io.load_game(args.game)
    if args.mode == "overlapping":
        if not isinstance(game, TTG):
            raise GameError("overlapping welfare needs a task-list game")
        value, counts, cs = welfare.max_welfare_overlapping(game)
        print(f"value {q_str(value)}")
        print(f"task multiset {list(counts)}")
        if args.out:
            zeros = tuple((Q(0),) * game.n for _ in cs.coalitions)
            io.save_outcome(Outcome(cs, zeros), args.out)
    elif args.mode == "nonoverlapping":
        if not isinstance(game, TTG):
            raise GameError("nonoverlapping welfare needs a task-list game")
        value, blocks = welfare.max_welfare_nonoverlapping(game)
        print(f"value {q_str(value)}")
        print("partition", [sorted(j + 1 for j in S) for S in blocks])
    else:  # vstar
        if not args.set:
            raise GameError("--set is required for mode vstar")
        S = _agent_set(args.set, game.n)
        value = welfare.vstar(game, S, cap=args.cap, grid=args.grid)
        print(f"value {q_str(value)}")
    return STABLE


def _cmd_check_core(args) -> int:
    game = io.load_game(args.game)
    kind = args.kind
    if kind in ("aubin", "f"):
        if not isinstance(game, TTG):
            raise GameError(f"kind {kind} needs a task-list game")
        if not args.payoffs:
            raise GameError(f"kind {kind} requires --payoffs")
        p = _payoff_vector_arg(args.payoffs, game.n)
        check = fuzzy.aubin_core_check if kind == "aubin" else fuzzy.f_core_check
        report = check(game, p)
        if report.holds:
            print("stable")
            return STABLE
        print(f"unstable: witness {tuple(q_str(x) for x in report.witness)} "
              f"earns {q_str(report.witness_value)}")
        return UNSTABLE
    if kind == "nonoverlapping":
        if not isinstance(game, TTG):
            raise GameError("nonoverlapping check needs a task-list game")
        if not args.partition or not args.payoffs:
            raise GameError("kind nonoverlapping requires --partition and --payoffs")
        blocks = [_agent_set(tok, game.n) for tok in args.partition.split("|")]
        p = _payoff_vector_arg(args.payoffs, game.n)
        verdict = core.nonoverlapping_core_check(game, blocks, p)
    else:
        if not args.outcome:
            raise GameError(f"kind {kind} requires --outcome")
        outcome = _load_feasible_outcome(args.outcome, game)
        if kind == "c":
            verdict = core.check_group_rationality(
                game, outcome, cap=args.cap, grid=args.grid
            )
        else:
            verdict = deviations.core_membership(
                game, outcome, kind=kind, cap=args.cap, grid=args.grid
            )
    if verdict.stable:
        print("stable")
        return STABLE
    witness = sorted(j + 1 for j in verdict.witness) if verdict.witness else None
    print(f"unstable: blocking set {witness}")
    if verdict.witness_value is not None:
        print(f"achievable {q_str(verdict.witness_value)}")
    if verdict.deviation is not None:
        _narrate(verdict.deviation)
    return UNSTABLE


def _narrate(result: deviations.DeviationResult) -> None:
    plan = result.plan
    print(f"deviators {sorted(j + 1 for j in plan.deviators)}")
    if plan.kept:
        print(f"kept coalitions {[i + 1 for i in plan.kept]}")
    if plan.abandoned:
        print(f"abandoned coalitions {[i + 1 for i in plan.abandoned]}")
    for i, row in plan.modified:
        print(f"modified coalition {i + 1} -> {[q_str(u) for u in row]}")
    for c in plan.new_structure.coalitions:
        print(f"new coalition {[q_str(u) for u in c.units]}")
    for j in sorted(result.gains):
        print(f"agent {j + 1} gains {q_str(result.gains[j])}")


def _cmd_stabilize(args) -> int:
    game = io.load_game(args.game)
    if not isinstance(game, TTG):
        raise GameError("stabilize needs a task-list game")
    verdict = core.stabilize(game)
    if not verdict.stable:
        print("empty: no stable division exists")
        return UNSTABLE
    print("stable outcome found")
    _print_outcome(verdict.outcome, args.out)
    return STABLE


def _cmd_balanced(args) -> int:
    game = io.load_game(args.game)
    structure = io.load_outcome(args.structure, game).structure
    verdict = core.stabilize_structure(game, structure)
    if verdict.stable:
        print("stabilizable")
        _print_outcome(verdict.outcome, args.out)
        return STABLE
    cert = verdict.certificate
    print("not stabilizable; balanced collection witness:")
    for S, lam in sorted(cert.lambdas.items()):
        print(f"  lambda{sorted(j + 1 for j in S)} = {q_str(lam)}")
    for i, mu in enumerate(cert.mus):
        print(f"  mu_{i + 1} = {q_str(mu)}")
    return UNSTABLE


def _cmd_deviate(args) -> int:
    game = io.load_game(args.game)
    outcome = _load_feasible_outcome(args.outcome, game)
    J = _agent_set(args.set, game.n)
    finder = deviations.FINDERS[args.kind]
    result = finder(game, outcome, J, cap=args.cap, grid=args.grid)
    if not result.found:
        print("no profitable deviation at this resolution")
        return STABLE
    _narrate(result)
    return UNSTABLE


def _cmd_convexity(args) -> int:
    game = io.load_game(args.game)
    if args.construct:
        if args.order:
            ordering = _agent_list(args.order, game.n)
        else:
            ordering = list(range(game.n))
        outcome = convexity.construct_core_element(
            game, ordering, cap=args.cap, grid=args.grid
        )
        print("payoffs", [q_str(x) for x in payoff_vector(outcome, game.n)])
        _print_outcome(outcome, args.out)
        return STABLE
    report = convexity.falsify_convexity(
        game, cap=args.cap, grid=args.grid, budget=args.budget
    )
    print(report.describe())
    return STABLE if report.violation is None else UNSTABLE


def _cmd_examples(args) -> int:
    ok, lines = corpus.run_examples()
    print("\n".join(lines))
    return STABLE if ok else UNSTABLE


def _cmd_gen(args) -> int:
    if args.reduction:
        inst = io.load_problem(args.problem, args.reduction)
        if args.reduction == "knapsack":
            game, outcome = reductions.from_knapsack(inst)
        else:
            game, outcome = reductions.from_biclique(inst)
        io.save_game(game, args.game_out)
        io.save_outcome(outcome, args.outcome_out)
        print(f"wrote {args.game_out} and {args.outcome_out}")
        return STABLE
    game = generate_random(
        seed=args.seed,
        agents=args.agents,
        max_weight=args.max_weight,
        tasks=args.tasks,
        rules=args.rules,
    )
    io.save_game(game, args.game_out)
    print(f"wrote {args.game_out}")
    return STABLE


def generate_random(
    seed: int,
    agents: int,
    max_weight: int = 6,
    tasks: int = 2,
    rules: bool = False,
) -> Game:
    """Seeded random instance; byte-reproducible for a fixed seed."""
    if agents < 1:
        raise GameError("need at least one agent")
    if max_weight < 1 or tasks < 1:
        raise GameError("bounds must be positive")
    rng = random.Random(seed)
    weights = tuple(Q(rng.randint(1, max_weight)) for _ in range(agents))
    total = int(sum(weights))
    if not rules:
        task_list = []
        for _ in range(tasks):
            threshold = rng.randint(1, total)
            utility = rng.randint(1, 100)
            task_list.append((threshold, utility))
        from ocfgames.model import TaskType

        return TTG(
            weights,
            tuple(TaskType(Q(t), Q(u)) for t, u in sorted(task_list)),
        )
    from ocfgames.model import Requirement, Rule, RuleBasedGame

    rule_list = []
    for _ in range(tasks):
        group = frozenset(
            rng.sample(range(agents), rng.randint(1, agents))
        )
        demand = rng.randint(1, max(1, sum(int(weights[j]) for j in group)))
        value = rng.randint(1, 100)
        rule_list.append(
            Rule((Requirement(group, Q(demand)),), Q(value))
        )
    return RuleBasedGame(weights, tuple(rule_list))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocf",
        description="exact analysis of overlapping coalition formation games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_resolution(p):
        p.add_argument("--grid", type=int, default=1,
                       help="contribution grid denominator D (default 1)")
        p.add_argument("--cap", type=int, default=None,
                       help="structure size cap U (default unbounded)")

    p = sub.add_parser("welfare", help="welfare optima and standalone values")
    p.add_argument("--game", required=True)
    p.add_argument("--mode", choices=("overlapping", "nonoverlapping", "vstar"),
                   required=True)
    p.add_argument("--set", help="agent set like 1,3,5 (for vstar)")
    p.add_argument("--out")
    add_resolution(p)
    p.set_defaults(func=_cmd_welfare)

    p = sub.add_parser("check-core", help="core membership checks")
    p.add_argument("--game", required=True)
    p.add_argument("--kind", choices=("c", "r", "o", "nonoverlapping", "aubin", "f"),
                   required=True)
    p.add_argument("--outcome")
    p.add_argument("--payoffs", help="comma-separated rationals")
    p.add_argument("--partition", help="blocks like 1|2,3")
    add_resolution(p)
    p.set_defaults(func=_cmd_check_core)

    p = sub.add_parser("stabilize", help="find a stable division if any")
    p.add_argument("--game", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_stabilize)

    p = sub.add_parser("balanced", help="stabilize a fixed structure or certify")
    p.add_argument("--game", required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_balanced)

    p = sub.add_parser("deviate", help="search a profitable deviation")
    p.add_argument("--game", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument("--kind", choices=("c", "r", "o"), required=True)
    p.add_argument("--set", required=True, help="deviators like 2,3")
    add_resolution(p)
    p.set_defaults(func=_cmd_deviate)

    p = sub.add_parser("convexity", help="greedy construction / violation search")
    p.add_argument("--game", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--construct", action="store_true")
    group.add_argument("--falsify", action="store_true")
    p.add_argument("--order", help="agent ordering like 1,2,3")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out")
    add_resolution(p)
    p.set_defaults(func=_cmd_convexity)

    p = sub.add_parser("examples", help="run the worked-example corpus")
    p.set_defaults(func=_cmd_examples)

    p = sub.add_parser("gen", help="generate instances")
    p.add_argument("--reduction", choices=("knapsack", "biclique"))
    p.add_argument("--problem", help="problem file for --reduction")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--agents", type=int, default=3)
    p.add_argument("--max-weight", type=int, default=6)
    p.add_argument("--tasks", type=int, default=2)
    p.add_argument("--rules", action="store_true")
    p.add_argument("--game-out", required=True)
    p.add_argument("--outcome-out")
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen" and args.reduction:
            if not args.problem:
                raise GameError("--reduction needs --problem")
            if not args.outcome_out:
                raise GameError("--reduction needs --outcome-out")
        for flag, least in (("grid", 1), ("cap", 0), ("budget", 0)):
            value = getattr(args, flag, None)
            if value is not None and value < least:
                raise GameError(f"--{flag} must be >= {least}, got {value}")
        return args.func(args)
    except (GameError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return ERROR
    except (AssertionError, ArithmeticError, RuntimeError) as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
