"""Data model for games with overlapping coalitions.

Games come in two flavours: threshold task games (agents with weights, a
monotone list of tasks) and rule-based games (requirement rules with values).
Contributions are stored in absolute weight units, so a partial coalition is
a vector ``units`` with ``0 <= units[j] <= weights[j]``; the participation
fraction of agent ``j`` is recovered as ``units[j] / weights[j]``.

All quantities are ``fractions.Fraction``; construction validates every
structural invariant and raises :class:`GameError` on violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from ocfgames.rationals import Q, as_q, common_denominator, scaled

ZERO = Q(0)


class GameError(ValueError):
    """Malformed game, coalition, structure or outcome."""


# ---------------------------------------------------------------------------
# games


@dataclass(frozen=True)
class TaskType:
    """A task: a weight threshold and the utility earned for meeting it."""

    threshold: Fraction
    utility: Fraction

    def __post_init__(self):
        object.__setattr__(self, "threshold", as_q(self.threshold))
        object.__setattr__(self, "utility", as_q(self.utility))
        if self.threshold < 0 or self.utility < 0:
            raise GameError(f"task thresholds and utilities must be >= 0: {self}")


def normalize_tasks(tasks: Iterable[TaskType]) -> tuple[TaskType, ...]:
    """Drop dominated tasks and sort so thresholds and utilities both increase.

    A task is dominated when another task has a threshold at most as large
    and a utility at least as large; dominated tasks never get chosen, so
    removing them preserves the value function.  A zero-threshold task with
    positive utility makes every welfare question unbounded and is rejected.
    """
    kept: list[TaskType] = []
    for t in sorted(tasks, key=lambda t: (t.threshold, -t.utility)):
        if t.utility == 0:
            continue
        if kept and kept[-1].utility >= t.utility:
            continue
        kept.append(t)
    out = tuple(kept)
    for a, b in zip(out, out[1:]):
        if not (a.threshold < b.threshold and a.utility < b.utility):
            raise GameError(f"task list not strictly monotone after pruning: {out}")
    if out and out[0].threshold == 0:
        raise GameError("zero-threshold task with positive utility: value is unbounded")
    return out


def _check_weights(weights: Sequence) -> tuple[Fraction, ...]:
    w = tuple(as_q(x) for x in weights)
    if not w:
        raise GameError("a game needs at least one agent")
    if any(x <= 0 for x in w):
        raise GameError(f"agent weights must be positive: {w}")
    return w


def _set_integer_view(game, rules: Sequence[tuple[Fraction, Sequence[tuple]]]) -> None:
    """Store a game's integer view of ``rules``, (value, ((agent group,
    minimum), ...)) pairs in rule order: ``scale``, the LCD of the weights
    and minima; ``scaled_weights``; ``value_scale``, the LCD of the values;
    and ``scaled_rules``, one row per rule with values in units of
    ``1/value_scale`` and weights in units of ``1/scale``."""
    scale = common_denominator((*game.weights, *(m for _, reqs in rules for _, m in reqs)))
    value_scale = common_denominator(v for v, _ in rules)
    object.__setattr__(game, "scale", scale)
    object.__setattr__(game, "scaled_weights", scaled(game.weights, scale))
    object.__setattr__(game, "value_scale", value_scale)
    object.__setattr__(game, "scaled_rules", tuple(
        (int(v * value_scale), tuple((grp, int(m * scale)) for grp, m in reqs))
        for v, reqs in rules
    ))


@dataclass(frozen=True)
class TTG:
    """Threshold task game: positive agent weights plus a monotone task list.

    Construction also derives the integer view (:func:`_set_integer_view`),
    one row per task, and ``scaled_thresholds``, the task thresholds in
    units of ``1/scale``.
    """

    weights: tuple[Fraction, ...]
    tasks: tuple[TaskType, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", _check_weights(self.weights))
        object.__setattr__(self, "tasks", normalize_tasks(self.tasks))
        object.__setattr__(self, "_hash", hash((self.weights, self.tasks)))
        everyone = frozenset(range(self.n))
        _set_integer_view(self, [(t.utility, ((everyone, t.threshold),)) for t in self.tasks])
        object.__setattr__(self, "scaled_thresholds",
                           tuple(need for _, ((_, need),) in self.scaled_rules))

    def __hash__(self) -> int:
        # the dataclass hash, computed once: cache lookups key on the game
        return self._hash

    @property
    def n(self) -> int:
        return len(self.weights)

    def total_weight(self, agents: Optional[Iterable[int]] = None) -> Fraction:
        idx = range(self.n) if agents is None else agents
        return sum((self.weights[i] for i in idx), ZERO)

    def best_utility(self, pooled_weight: Fraction) -> Fraction:
        """Largest task utility whose threshold the pooled weight meets."""
        best = ZERO
        for t in self.tasks:
            if t.threshold <= pooled_weight:
                best = t.utility
            else:
                break
        return best

    def value(self, units: Sequence[Fraction]) -> Fraction:
        return self.best_utility(sum(units, ZERO))


@dataclass(frozen=True)
class Requirement:
    """Minimum total weight units a group of agents must put into a coalition."""

    agents: frozenset[int]
    minimum: Fraction

    def __post_init__(self):
        object.__setattr__(self, "agents", frozenset(self.agents))
        object.__setattr__(self, "minimum", as_q(self.minimum))
        if not self.agents:
            raise GameError("requirement over an empty agent set")
        if self.minimum < 0:
            raise GameError("requirement minimum must be >= 0")


@dataclass(frozen=True)
class Rule:
    """A way of earning ``value``: every requirement met inside one coalition."""

    requirements: tuple[Requirement, ...]
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "requirements", tuple(self.requirements))
        object.__setattr__(self, "value", as_q(self.value))
        if self.value < 0:
            raise GameError("rule value must be >= 0")

    def satisfied_by(self, units: Sequence[Fraction]) -> bool:
        return all(
            sum((units[j] for j in req.agents), ZERO) >= req.minimum
            for req in self.requirements
        )


@dataclass(frozen=True)
class RuleBasedGame:
    """Game where a coalition earns the best value among its satisfied rules.

    A rule with positive value and no positive minimum would pay for an
    empty coalition, so every welfare question would be unbounded; it is
    rejected.  Construction also derives the integer view
    (:func:`_set_integer_view`).
    """

    weights: tuple[Fraction, ...]
    rules: tuple[Rule, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", _check_weights(self.weights))
        object.__setattr__(self, "rules", tuple(self.rules))
        n = len(self.weights)
        for k, rule in enumerate(self.rules):
            for req in rule.requirements:
                if any(j < 0 or j >= n for j in req.agents):
                    raise GameError(f"requirement names an unknown agent: {req}")
            if rule.value > 0 and not any(req.minimum > 0 for req in rule.requirements):
                raise GameError(f"rule {k + 1} has positive value and no positive "
                                "minimum: value is unbounded")
        object.__setattr__(self, "_hash", hash((self.weights, self.rules)))
        _set_integer_view(self, [
            (rule.value, [(req.agents, req.minimum) for req in rule.requirements])
            for rule in self.rules
        ])

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return len(self.weights)

    def total_weight(self, agents: Optional[Iterable[int]] = None) -> Fraction:
        idx = range(self.n) if agents is None else agents
        return sum((self.weights[i] for i in idx), ZERO)

    def value(self, units: Sequence[Fraction]) -> Fraction:
        best = ZERO
        for rule in self.rules:
            if rule.value > best and rule.satisfied_by(units):
                best = rule.value
        return best


Game = Union[TTG, RuleBasedGame]


# ---------------------------------------------------------------------------
# coalitions, structures, outcomes


@dataclass(frozen=True, slots=True)
class PartialCoalition:
    """Per-agent contributions in weight units."""

    units: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "units", tuple(as_q(u) for u in self.units))
        if any(u < 0 for u in self.units):
            raise GameError(f"negative contribution: {self.units}")

    @property
    def support(self) -> frozenset[int]:
        return frozenset(j for j, u in enumerate(self.units) if u != 0)


def crisp(game: Game, agents: Iterable[int]) -> PartialCoalition:
    """The coalition where each member contributes its whole weight."""
    s = set(agents)
    return PartialCoalition(
        tuple(game.weights[j] if j in s else ZERO for j in range(game.n))
    )


@dataclass(frozen=True, slots=True)
class CoalitionStructure:
    """Finite list of partial coalitions; duplicates allowed."""

    coalitions: tuple[PartialCoalition, ...]

    def __post_init__(self):
        object.__setattr__(self, "coalitions", tuple(self.coalitions))

    def __len__(self) -> int:
        return len(self.coalitions)

    def agent_total(self, j: int) -> Fraction:
        return sum((c.units[j] for c in self.coalitions), ZERO)


@dataclass(frozen=True, slots=True)
class Outcome:
    """A structure together with a per-coalition payoff matrix."""

    structure: CoalitionStructure
    payoffs: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "payoffs", tuple(tuple(as_q(x) for x in row) for row in self.payoffs)
        )
        if len(self.payoffs) != len(self.structure):
            raise GameError(
                f"payoff matrix has {len(self.payoffs)} rows for "
                f"{len(self.structure)} coalitions"
            )


# ---------------------------------------------------------------------------
# operations


def _check_dims(game: Game, coalition: PartialCoalition) -> None:
    if len(coalition.units) != game.n:
        raise GameError(
            f"coalition over {len(coalition.units)} agents in a {game.n}-agent game"
        )


def value(game: Game, coalition: PartialCoalition) -> Fraction:
    """Value of a single partial coalition."""
    _check_dims(game, coalition)
    return game.value(coalition.units)


def structure_value(game: Game, cs: CoalitionStructure) -> Fraction:
    """Sum of coalition values over the structure."""
    problems = validate_structure(game, cs)
    if problems:
        raise GameError("invalid structure: " + "; ".join(problems))
    return sum((game.value(c.units) for c in cs.coalitions), ZERO)


def payoff_vector(outcome: Outcome, n: int) -> tuple[Fraction, ...]:
    """Per-agent column sums of the payoff matrix of an ``n``-agent outcome."""
    for row in outcome.payoffs:
        if len(row) != n:
            raise GameError(f"payoff row of width {len(row)} for {n} agents")
    return tuple(sum((row[j] for row in outcome.payoffs), ZERO) for j in range(n))


def validate_structure(game: Game, cs: CoalitionStructure) -> list[str]:
    """Every wrong-width coalition or violated capacity, empty when ok."""
    problems = []
    for i, c in enumerate(cs.coalitions):
        if len(c.units) != game.n:
            problems.append(f"coalition {i} has {len(c.units)} entries, expected {game.n}")
    if problems:
        return problems
    for j in range(game.n):
        total = cs.agent_total(j)
        if total > game.weights[j]:
            problems.append(
                f"agent {j + 1} over capacity by {total - game.weights[j]}"
            )
    return problems


def validate_outcome(
    game: Game, outcome: Outcome, individual_rationality: bool = True
) -> list[str]:
    """Check payoff distribution, support rule, sign policy and, unless
    ``individual_rationality`` is false, that no agent is paid below what it
    earns alone (the one clause a core check decides rather than assumes)."""
    from ocfgames import welfare  # deferred: welfare builds on this module

    problems = validate_structure(game, outcome.structure)
    if problems:
        return problems
    for i, (c, row) in enumerate(zip(outcome.structure.coalitions, outcome.payoffs)):
        v = game.value(c.units)
        if sum(row, ZERO) != v:
            problems.append(f"coalition {i}: payoffs sum to {sum(row, ZERO)}, value is {v}")
        for j, x in enumerate(row):
            if c.units[j] == 0 and x != 0:
                problems.append(f"coalition {i}: non-contributor {j + 1} paid {x}")
            if x < 0:
                problems.append(f"coalition {i}: negative payoff {x} to agent {j + 1}")
    if not individual_rationality:
        return problems
    p = payoff_vector(outcome, game.n)
    for j in range(game.n):
        floor = welfare.vstar(game, frozenset([j]))
        if p[j] < floor:
            problems.append(
                f"agent {j + 1} paid {p[j]} in total, can get {floor} alone"
            )
    return problems


def to_nonoverlapping(game: Game, agents: Iterable[int]) -> Fraction:
    """Value of the crisp coalition over ``agents`` under the game's v."""
    return game.value(crisp(game, agents).units)
