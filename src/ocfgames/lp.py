"""Exact linear programming over rationals.

A small dense two-phase simplex with Bland's anti-cycling rule.  The tableau
is fraction-free: every row, and the reduced-cost row, is a list of Python
ints over one positive denominator, kept in lowest terms, and a pivot is an
integer combination of two rows (in the spirit of Bareiss's fraction-free
elimination).  ``fractions.Fraction`` appears only at the boundary: the
constraints are read into integer rows, and the assignment, the objective
value and the certificate are read back out as Fractions.  Results are
exact; infeasible programs come back with a certificate (one multiplier per
constraint) that provably rules out any feasible point, and every answer is
re-checked against the original constraints, in Fractions, before it is
returned.  :class:`ProgramBuilder` assembles feasibility programs over keyed
variables; a program with an objective is built as a :class:`LinearProgram`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Hashable, Iterable, Optional, Sequence, Union

from ocfgames.model import GameError
from ocfgames.rationals import Q, common_denominator, scaled

ZERO = Q(0)
ONE = Q(1)

Constraint = tuple[tuple[Fraction, ...], str, Fraction]  # coeffs, <=/==/>=, rhs
RELATIONS = ("<=", "==", ">=")
SEPARATION_ROUNDS = 10000  # constraint-generation rounds before giving up


@dataclass(frozen=True)
class LinearProgram:
    """Variables are nonnegative unless listed in ``free``.

    Coefficients and right-hand sides are ints or ``Fraction``s.
    """

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


@dataclass(frozen=True, slots=True)
class LPResult:
    status: str  # "optimal" | "feasible" | "infeasible" | "unbounded"
    assignment: Optional[tuple[Fraction, ...]] = None
    objective_value: Optional[Fraction] = None
    certificate: Optional[tuple[Fraction, ...]] = None


Terms = Union[dict[Hashable, Fraction], Iterable[Hashable]]


class ProgramBuilder:
    """Assembles a feasibility :class:`LinearProgram` (no objective, every
    variable nonnegative) over keyed variables.

    A key is any hashable value; it takes the next column the first time it
    is seen, by :meth:`var` or in a row.  Rows are ``{key: coeff}`` dicts, or
    iterables of keys with coefficient 1, and keep the order they are added
    in.
    """

    def __init__(self):
        self.columns: dict[Hashable, int] = {}
        self.rows: list[tuple[dict[int, Fraction], str, Fraction]] = []

    def var(self, key: Hashable) -> int:
        """The column of ``key``, declared now if it is new."""
        return self.columns.setdefault(key, len(self.columns))

    def add(self, terms: Terms, rel: str, rhs: Fraction) -> None:
        cols = self.columns
        pairs = terms.items() if isinstance(terms, dict) else ((k, ONE) for k in terms)
        self.rows.append(({cols.setdefault(k, len(cols)): a for k, a in pairs}, rel, rhs))

    def program(self) -> LinearProgram:
        """The program so far."""
        n = len(self.columns)

        def dense(terms):
            coeffs = [ZERO] * n
            for j, a in terms.items():
                coeffs[j] = a
            return tuple(coeffs)

        return LinearProgram(
            tuple(map(str, self.columns)),
            tuple((dense(terms), rel, rhs) for terms, rel, rhs in self.rows),
        )

    def solve(self) -> tuple[LPResult, dict[Hashable, Fraction]]:
        """The result of :func:`solve` and each key's value (empty when the
        result has no assignment)."""
        result = solve(self.program())
        values = dict(zip(self.columns, result.assignment or ()))
        return result, values


# Tableau row i is the list of ints rows[i] over the denominator dens[i] > 0:
# its entries are rows[i][j] / dens[i], and the last one is the right-hand
# side.


def _sub_multiple(row: list[int], d: int, fn: int, fd: int,
                  prow: list[int], pd: int) -> tuple[list[int], int]:
    """``row/d - (fn/fd) * prow/pd`` in lowest terms; ``fd`` and ``pd`` > 0."""
    a = fd * pd
    b = fn * d
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    new = [x * a - y * b for x, y in zip(row, prow)]
    den = d * a
    g = gcd(den, *new)
    if g != 1:
        new = [x // g for x in new]
        den //= g
    return new, den


def _pivot(rows: list[list[int]], dens: list[int], basis: list[int],
           r: int, c: int) -> None:
    prow = rows[r]
    p = prow[c]
    if p < 0:
        prow = [-x for x in prow]
        p = -p
    g = gcd(*prow)  # divides p, so the pivot entry stays equal to the denominator
    if g != 1:
        prow = [x // g for x in prow]
        p //= g
    rows[r] = prow
    dens[r] = p
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f == 0:
            continue
        rows[i], dens[i] = _sub_multiple(row, dens[i], f, dens[i], prow, p)
    basis[r] = c


def _objective_row(rows: list[list[int]], dens: list[int], basis: list[int],
                   cost: Sequence[int], cd: int) -> tuple[list[int], int]:
    """Reduced costs (and negated objective value in the last slot) of the
    cost vector ``cost / cd``."""
    z, dz = [*cost, 0], cd
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb == 0:
            continue
        z, dz = _sub_multiple(z, dz, cb, cd, rows[i], dens[i])
    return z, dz


def _run_simplex(
    rows: list[list[int]],
    dens: list[int],
    basis: list[int],
    cost: Sequence[int],
    cd: int,
) -> tuple[str, list[int], int]:
    """Minimize ``cost / cd`` over the tableau's first ``len(cost)`` columns
    in place; returns (status, reduced costs as ints over a positive denominator)."""
    z, dz = _objective_row(rows, dens, basis, cost, cd)
    ncols = len(cost)
    while True:
        enter = -1
        for j in range(ncols):
            if z[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal", z, dz
        # least ratio rhs/a over a > 0; the row denominators cancel
        leave, best_rhs, best_a = -1, 0, 1
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                lhs = row[-1] * best_a
                rhs = best_rhs * a
                if leave < 0 or lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_rhs, best_a = i, row[-1], a
        if leave < 0:
            return "unbounded", z, dz
        _pivot(rows, dens, basis, leave, enter)
        z, dz = _sub_multiple(z, dz, z[enter], dz, rows[leave], dens[leave])


def solve(program: LinearProgram) -> LPResult:
    """Two-phase exact simplex; results are verified before being returned."""
    n = len(program.names)
    # structural columns: every variable, plus a mirror column per free variable
    mirror = {}
    col = n
    for j in sorted(program.free):
        mirror[j] = col
        col += 1
    nslack = sum(1 for _, rel, _ in program.constraints if rel != "==")
    nstruct = col
    nreal = nstruct + nslack
    m = len(program.constraints)
    ncols = nreal + m  # + artificials, one per row
    rows: list[list[int]] = []
    dens: list[int] = []
    signs: list[int] = []
    si = 0
    for i, (coeffs, rel, rhs) in enumerate(program.constraints):
        nonzero = [(j, a) for j, a in enumerate(coeffs) if a]
        d = lcm(rhs.denominator, *(a.denominator for _, a in nonzero))
        sign = -1 if rhs < 0 else 1
        row = [0] * (ncols + 1)
        for j, a in nonzero:
            v = sign * a.numerator * (d // a.denominator)
            row[j] = v
            if j in mirror:
                row[mirror[j]] = -v
        if rel != "==":
            row[nstruct + si] = sign * d if rel == "<=" else -sign * d
            si += 1
        row[-1] = sign * rhs.numerator * (d // rhs.denominator)
        row[nreal + i] = d
        rows.append(row)
        dens.append(d)
        signs.append(sign)
    basis = list(range(nreal, ncols))

    status, z, dz = _run_simplex(rows, dens, basis, [0] * nreal + [1] * m, 1)
    if status != "optimal":
        raise AssertionError(f"phase 1 ended {status}; it is bounded below by 0")
    if z[-1] < 0:  # the phase-1 objective value, -z[-1]/dz, is positive
        cert = tuple(signs[i] * Q(dz - z[nreal + i], dz) for i in range(m))
        if not verify_infeasibility(program, cert):
            raise AssertionError("phase 1 produced an invalid Farkas certificate")
        return LPResult(status="infeasible", certificate=cert)

    # drive leftover artificials out of the basis, drop redundant rows, then
    # the artificial columns: phase 2 never lets one enter
    keep: list[int] = []
    for i in range(len(rows)):
        if basis[i] >= nreal:
            piv = next((j for j in range(nreal) if rows[i][j] != 0), None)
            if piv is None:
                continue  # redundant row
            _pivot(rows, dens, basis, i, piv)
        keep.append(i)
    rows = [rows[i][:nreal] + rows[i][-1:] for i in keep]
    dens = [dens[i] for i in keep]
    basis = [basis[i] for i in keep]

    if program.objective is None:
        x = _assignment(rows, dens, basis, n, mirror)
        _check_feasible(program, x)
        return LPResult(status="feasible", assignment=x)

    coeffs, sense = program.objective
    cost2 = [ZERO] * nreal
    for j, a in enumerate(coeffs):
        a = Q(a) if sense == "min" else -Q(a)
        cost2[j] = a
        if j in mirror:
            cost2[mirror[j]] = -a
    cd = common_denominator(cost2)
    status, z, dz = _run_simplex(rows, dens, basis, scaled(cost2, cd), cd)
    if status == "unbounded":
        return LPResult(status="unbounded")
    x = _assignment(rows, dens, basis, n, mirror)
    _check_feasible(program, x)
    obj = sum((Q(a) * v for a, v in zip(coeffs, x)), ZERO)
    return LPResult(status="optimal", assignment=x, objective_value=obj)


def _assignment(rows, dens, basis, n, mirror) -> tuple[Fraction, ...]:
    vals: dict[int, Fraction] = {}
    for i, b in enumerate(basis):
        vals[b] = Q(rows[i][-1], dens[i])
    return tuple(
        vals.get(j, ZERO) - (vals.get(mirror[j], ZERO) if j in mirror else ZERO)
        for j in range(n)
    )


def _check_feasible(program: LinearProgram, x: Sequence[Fraction]) -> None:
    for j, v in enumerate(x):
        if j not in program.free and v < 0:
            raise AssertionError(f"solver returned negative value for {program.names[j]}")
    for coeffs, rel, rhs in program.constraints:
        lhs = sum((a * v for a, v in zip(coeffs, x) if a and v), ZERO)
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
        if not u:
            continue
        for j, a in enumerate(coeffs):
            if a:
                combined[j] += u * a
        total += u * rhs
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
) -> tuple[LPResult, LinearProgram]:
    """Constraint generation: solve, ask the oracle for a violated constraint,
    add it, repeat until the oracle is satisfied or the program is infeasible.
    Raises :class:`GameError` after ``SEPARATION_ROUNDS`` rounds.
    """
    program = base
    seen = set(program.constraints)
    for _ in range(SEPARATION_ROUNDS):
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
    raise GameError(
        f"constraint generation did not converge in {SEPARATION_ROUNDS} rounds"
    )
