"""Exact linear programming over rationals.

A small dense two-phase simplex with Bland's anti-cycling rule.  Everything
is a ``fractions.Fraction``, so results are exact; infeasible programs come
back with a certificate (one multiplier per constraint) that provably rules
out any feasible point, and every answer is re-checked against the original
constraints before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from ocfgames.rationals import Q

ZERO = Q(0)
ONE = Q(1)

Constraint = tuple[tuple[Fraction, ...], str, Fraction]  # coeffs, <=/==/>=, rhs
RELATIONS = ("<=", "==", ">=")


@dataclass(frozen=True)
class LinearProgram:
    """Variables are nonnegative unless listed in ``free``."""

    names: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    objective: Optional[tuple[tuple[Fraction, ...], str]] = None  # coeffs, max/min
    free: frozenset[int] = frozenset()

    def __post_init__(self):
        n = len(self.names)
        for coeffs, rel, _ in self.constraints:
            if len(coeffs) != n:
                raise ValueError(f"constraint over {len(coeffs)} of {n} variables")
            if rel not in RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
        if self.objective is not None:
            coeffs, sense = self.objective
            if len(coeffs) != n or sense not in ("max", "min"):
                raise ValueError("malformed objective")
        if any(j < 0 or j >= n for j in self.free):
            raise ValueError("free-variable index out of range")


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "feasible" | "infeasible" | "unbounded"
    assignment: Optional[tuple[Fraction, ...]] = None
    objective_value: Optional[Fraction] = None
    certificate: Optional[tuple[Fraction, ...]] = None


def _pivot(rows: list[list[Fraction]], basis: list[int], r: int, c: int) -> None:
    piv = rows[r][c]
    if piv != 1:
        inv = 1 / piv
        rows[r] = [x * inv for x in rows[r]]
    prow = rows[r]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f == 0:
            continue
        rows[i] = [a - f * b for a, b in zip(row, prow)]
    basis[r] = c


def _objective_row(
    rows: list[list[Fraction]], basis: list[int], cost: list[Fraction]
) -> list[Fraction]:
    """Reduced costs (and negated objective value in the last slot)."""
    width = len(rows[0])
    z = [cost[j] if j < len(cost) else ZERO for j in range(width - 1)] + [ZERO]
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb == 0:
            continue
        z = [a - cb * t for a, t in zip(z, rows[i])]
    return z


def _run_simplex(
    rows: list[list[Fraction]],
    basis: list[int],
    cost: list[Fraction],
    blocked: frozenset[int],
) -> tuple[str, list[Fraction]]:
    """Minimize cost over the tableau in place; returns (status, reduced costs)."""
    z = _objective_row(rows, basis, cost)
    ncols = len(rows[0]) - 1
    while True:
        enter = -1
        for j in range(ncols):
            if j not in blocked and z[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal", z
        leave, best = -1, None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave < 0:
            return "unbounded", z
        _pivot(rows, basis, leave, enter)
        f = z[enter]
        z = [a - f * b for a, b in zip(z, rows[leave])]


def solve(program: LinearProgram) -> LPResult:
    """Two-phase exact simplex; results are verified before being returned."""
    n = len(program.names)
    # structural columns: every variable, plus a mirror column per free variable
    mirror = {}
    col = n
    for j in sorted(program.free):
        mirror[j] = col
        col += 1
    if not program.constraints:
        return _solve_unconstrained(program)
    nslack = sum(1 for _, rel, _ in program.constraints if rel != "==")
    nstruct = col
    m = len(program.constraints)
    ncols = nstruct + nslack + m  # + artificials, one per row
    rows: list[list[Fraction]] = []
    signs: list[int] = []
    si = 0
    for i, (coeffs, rel, rhs) in enumerate(program.constraints):
        row = [ZERO] * (ncols + 1)
        for j, a in enumerate(coeffs):
            row[j] = Q(a)
            if j in mirror:
                row[mirror[j]] = -Q(a)
        if rel != "==":
            row[nstruct + si] = ONE if rel == "<=" else -ONE
            si += 1
        row[-1] = Q(rhs)
        sign = 1
        if row[-1] < 0:
            sign = -1
            row = [-x for x in row]
        row[nstruct + nslack + i] = ONE
        rows.append(row)
        signs.append(sign)
    artificials = frozenset(range(nstruct + nslack, ncols))
    basis = list(range(nstruct + nslack, ncols))

    cost1 = [ZERO] * ncols
    for j in artificials:
        cost1[j] = ONE
    status, z = _run_simplex(rows, basis, cost1, frozenset())
    if status != "optimal":
        raise AssertionError(f"phase 1 ended {status}; it is bounded below by 0")
    infeas = -z[-1]  # phase-1 objective value
    if infeas > 0:
        y = [ONE - z[nstruct + nslack + i] for i in range(m)]
        cert = tuple(signs[i] * y[i] for i in range(m))
        if not verify_infeasibility(program, cert):
            raise AssertionError("phase 1 produced an invalid Farkas certificate")
        return LPResult(status="infeasible", certificate=cert)

    # drive leftover artificials out of the basis; drop redundant rows
    keep: list[int] = []
    for i in range(len(rows)):
        if basis[i] in artificials:
            piv = next(
                (j for j in range(nstruct + nslack) if rows[i][j] != 0), None
            )
            if piv is None:
                continue  # redundant row
            _pivot(rows, basis, i, piv)
        keep.append(i)
    rows = [rows[i] for i in keep]
    basis = [basis[i] for i in keep]

    if program.objective is None:
        x = _assignment(program, rows, basis, n, mirror)
        _check_feasible(program, x)
        return LPResult(status="feasible", assignment=x)

    coeffs, sense = program.objective
    cost2 = [ZERO] * ncols
    for j, a in enumerate(coeffs):
        a = Q(a) if sense == "min" else -Q(a)
        cost2[j] = a
        if j in mirror:
            cost2[mirror[j]] = -a
    status, z = _run_simplex(rows, basis, cost2, artificials)
    if status == "unbounded":
        return LPResult(status="unbounded")
    x = _assignment(program, rows, basis, n, mirror)
    _check_feasible(program, x)
    obj = sum((Q(a) * v for a, v in zip(coeffs, x)), ZERO)
    return LPResult(status="optimal", assignment=x, objective_value=obj)


def _solve_unconstrained(program: LinearProgram) -> LPResult:
    x = (ZERO,) * len(program.names)
    if program.objective is None:
        return LPResult(status="feasible", assignment=x)
    coeffs, sense = program.objective
    for j, a in enumerate(coeffs):
        a = Q(a) if sense == "min" else -Q(a)
        if a < 0 or (a != 0 and j in program.free):
            return LPResult(status="unbounded")
    return LPResult(status="optimal", assignment=x, objective_value=ZERO)


def _assignment(program, rows, basis, n, mirror) -> tuple[Fraction, ...]:
    vals: dict[int, Fraction] = {}
    for i, b in enumerate(basis):
        vals[b] = rows[i][-1]
    return tuple(
        vals.get(j, ZERO) - (vals.get(mirror[j], ZERO) if j in mirror else ZERO)
        for j in range(n)
    )


def _check_feasible(program: LinearProgram, x: Sequence[Fraction]) -> None:
    for j, v in enumerate(x):
        if j not in program.free and v < 0:
            raise AssertionError(f"solver returned negative value for {program.names[j]}")
    for coeffs, rel, rhs in program.constraints:
        lhs = sum((Q(a) * v for a, v in zip(coeffs, x)), ZERO)
        ok = lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs
        if not ok:
            raise AssertionError(f"solver returned an infeasible point: {lhs} {rel} {rhs}")


def verify_infeasibility(program: LinearProgram, cert: Sequence[Fraction]) -> bool:
    """Check that ``cert`` aggregates the constraints into an impossibility.

    Multipliers must respect constraint directions (nonpositive on ``<=``
    rows, nonnegative on ``>=`` rows), combine into a vector that is
    nonpositive on every nonnegative variable and zero on every free one,
    and give the right-hand sides a strictly positive total.
    """
    if len(cert) != len(program.constraints):
        return False
    n = len(program.names)
    combined = [ZERO] * n
    total = ZERO
    for u, (coeffs, rel, rhs) in zip(cert, program.constraints):
        if rel == "<=" and u > 0:
            return False
        if rel == ">=" and u < 0:
            return False
        for j, a in enumerate(coeffs):
            combined[j] += u * Q(a)
        total += u * Q(rhs)
    for j in range(n):
        if j in program.free:
            if combined[j] != 0:
                return False
        elif combined[j] > 0:
            return False
    return total > 0


def solve_with_separation(
    base: LinearProgram,
    oracle: Callable[[tuple[Fraction, ...]], Optional[Constraint]],
    max_rounds: int = 10000,
) -> tuple[LPResult, LinearProgram]:
    """Constraint generation: solve, ask the oracle for a violated constraint,
    add it, repeat until the oracle is satisfied or the program is infeasible.
    """
    program = base
    seen = set(program.constraints)
    for _ in range(max_rounds):
        result = solve(program)
        if result.status in ("infeasible", "unbounded"):
            return result, program
        cut = oracle(result.assignment)
        if cut is None:
            return result, program
        if cut in seen:
            raise RuntimeError(f"separation oracle repeated a constraint: {cut}")
        seen.add(cut)
        program = LinearProgram(
            program.names,
            program.constraints + (cut,),
            program.objective,
            program.free,
        )
    raise RuntimeError("separation did not converge")
