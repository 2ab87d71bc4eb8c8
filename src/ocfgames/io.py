"""Instance and outcome files: JSON documents with rational-string numbers.

A game document carries `agents`, `weights`, and either `tasks` or `rules`;
an outcome document carries `structure` and `payoffs`.  Every numeric
quantity is an integer or a string like "3/4" — floating-point literals are
rejected outright so exact arithmetic is never silently degraded.  Agents
are numbered from 1 in files and from 0 in memory.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Union

from ocfgames.model import (
    CoalitionStructure,
    Game,
    GameError,
    Outcome,
    PartialCoalition,
    Requirement,
    Rule,
    RuleBasedGame,
    TaskType,
    TTG,
)
from ocfgames.rationals import as_q, q_str
from ocfgames.reductions import BicliqueInstance, KnapsackInstance


def _reject_float(text: str) -> Fraction:
    raise GameError(f"floating-point literal {text!r}: use \"p/q\" strings")


def _loads(text: str) -> dict:
    try:
        doc = json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as err:
        raise GameError(f"malformed document: {err}") from err
    if not isinstance(doc, dict):
        raise GameError("top-level document must be an object")
    return doc


def _q(value, what: str) -> Fraction:
    try:
        return as_q(value)
    except (TypeError, ValueError) as err:
        raise GameError(f"{what}: {err}") from err


def _array(values, what: str) -> list:
    if not isinstance(values, list):
        raise GameError(f"{what} must be an array")
    return values


def _field(obj, key: str, what: str):
    if not isinstance(obj, dict):
        raise GameError(f"each {what} must be an object")
    if key not in obj:
        raise GameError(f"{what} without a {key!r} key")
    return obj[key]


def _int(value, what: str) -> int:
    q = _q(value, what)
    if q.denominator != 1:
        raise GameError(f"{what} must be an integer, not {value!r}")
    return q.numerator


def _int_pair(value, what: str) -> tuple[int, int]:
    pair = _array(value, what)
    if len(pair) != 2:
        raise GameError(f"{what} must be a pair of integers")
    return _int(pair[0], what), _int(pair[1], what)


def _rationals(values, what: str) -> tuple[Fraction, ...]:
    return tuple(_q(v, what) for v in _array(values, what))


def game_from_dict(doc: dict) -> Game:
    n = doc.get("agents")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise GameError("'agents' must be a positive integer")
    weights = _rationals(doc.get("weights"), "'weights'")
    if len(weights) != n:
        raise GameError(f"{len(weights)} weights for {n} agents")
    has_tasks = "tasks" in doc
    has_rules = "rules" in doc
    if has_tasks == has_rules:
        raise GameError("exactly one of 'tasks' or 'rules' is required")
    if has_tasks:
        tasks = tuple(
            TaskType(
                _q(_field(t, "threshold", "task"), "task threshold"),
                _q(_field(t, "utility", "task"), "task utility"),
            )
            for t in _array(doc["tasks"], "'tasks'")
        )
        return TTG(weights, tasks)
    rules = []
    for rule in _array(doc["rules"], "'rules'"):
        requirements = tuple(
            Requirement(
                frozenset(
                    _agent_index(a, n)
                    for a in _array(_field(req, "agents", "requirement"),
                                    "requirement agents")
                ),
                _q(_field(req, "min", "requirement"), "requirement min"),
            )
            for req in _array(_field(rule, "requirements", "rule"),
                              "rule requirements")
        )
        rules.append(Rule(requirements, _q(_field(rule, "value", "rule"), "rule value")))
    return RuleBasedGame(weights, tuple(rules))


def _agent_index(label, n: int) -> int:
    if not isinstance(label, int) or isinstance(label, bool) or not (1 <= label <= n):
        raise GameError(f"agent label {label!r} out of range 1..{n}")
    return label - 1


def game_to_dict(game: Game) -> dict:
    doc: dict = {
        "agents": game.n,
        "weights": [q_str(w) for w in game.weights],
    }
    if isinstance(game, TTG):
        doc["tasks"] = [
            {"threshold": q_str(t.threshold), "utility": q_str(t.utility)}
            for t in game.tasks
        ]
    else:
        doc["rules"] = [
            {
                "requirements": [
                    {
                        "agents": sorted(j + 1 for j in req.agents),
                        "min": q_str(req.minimum),
                    }
                    for req in rule.requirements
                ],
                "value": q_str(rule.value),
            }
            for rule in game.rules
        ]
    return doc


def outcome_from_dict(doc: dict, game: Game) -> Outcome:
    structure = doc.get("structure")
    payoffs = doc.get("payoffs")
    if not isinstance(structure, list) or not isinstance(payoffs, list):
        raise GameError("'structure' and 'payoffs' arrays are required")
    coalitions = tuple(
        PartialCoalition(_rationals(row, "coalition row")) for row in structure
    )
    for c in coalitions:
        if len(c.units) != game.n:
            raise GameError(f"coalition row of width {len(c.units)}, need {game.n}")
    rows = tuple(_rationals(row, "payoff row") for row in payoffs)
    for row in rows:
        if len(row) != game.n:
            raise GameError(f"payoff row of width {len(row)}, need {game.n}")
    return Outcome(CoalitionStructure(coalitions), rows)


def outcome_to_dict(outcome: Outcome) -> dict:
    return {
        "structure": [
            [q_str(u) for u in c.units] for c in outcome.structure.coalitions
        ],
        "payoffs": [[q_str(x) for x in row] for row in outcome.payoffs],
    }


def load_game(path: str) -> Game:
    with open(path, "r", encoding="utf-8") as fh:
        return game_from_dict(_loads(fh.read()))


def load_outcome(path: str, game: Game) -> Outcome:
    with open(path, "r", encoding="utf-8") as fh:
        return outcome_from_dict(_loads(fh.read()), game)


def load_problem(path: str, kind: str) -> Union[KnapsackInstance, BicliqueInstance]:
    """A ``knapsack`` problem (``items`` as [size, value] pairs, ``capacity``,
    ``target``) or a ``biclique`` problem (``left``, ``right``, ``edges`` as
    1-based [left, right] pairs, ``target``)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = _loads(fh.read())
    what = f"{kind} problem"

    def number(key: str) -> int:
        return _int(_field(doc, key, what), repr(key))

    def pairs(key: str, item: str) -> list[tuple[int, int]]:
        return [_int_pair(v, item) for v in _array(_field(doc, key, what), repr(key))]

    if kind == "knapsack":
        return KnapsackInstance(
            tuple(pairs("items", "knapsack item")), number("capacity"), number("target")
        )
    return BicliqueInstance(
        number("left"),
        number("right"),
        frozenset((a - 1, b - 1) for a, b in pairs("edges", "edge")),
        number("target"),
    )


def _dump(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def save_game(game: Game, path: str) -> None:
    _dump(game_to_dict(game), path)


def save_outcome(outcome: Outcome, path: str) -> None:
    _dump(outcome_to_dict(outcome), path)
