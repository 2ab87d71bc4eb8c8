"""Exact linear feasibility over rationals.

A system of linear constraints over nonnegative variables either has a
solution or it does not, and :func:`solve` finds out which with a small
dense phase-1 simplex under Bland's anti-cycling rule.  The tableau is
fraction-free: every row, and the reduced-cost row, is a list of Python ints
over one positive denominator, kept in lowest terms, and a pivot is an
integer combination of two rows (in the spirit of Bareiss's fraction-free
elimination).  ``fractions.Fraction`` appears only at the boundary: the
constraints are read into integer rows, and the point and the certificate
are read back out as Fractions.  Results are exact; a feasible program comes
back with a point, an infeasible one with a certificate (one multiplier per
constraint) that provably rules out any feasible point, and either is
re-checked against the original constraints, in Fractions, before it is
returned.  :class:`ProgramBuilder` assembles programs over keyed variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Hashable, Iterable, Optional, Sequence, Union

from ocfgames.model import GameError
from ocfgames.rationals import Q

ZERO = Q(0)
ONE = Q(1)

Constraint = tuple[tuple[Fraction, ...], str, Fraction]  # coeffs, <=/==/>=, rhs
RELATIONS = ("<=", "==", ">=")
SEPARATION_ROUNDS = 10000  # constraint-generation rounds before giving up


@dataclass(frozen=True)
class LinearProgram:
    """Constraints over nonnegative variables.

    Coefficients and right-hand sides are ints or ``Fraction``s.
    """

    names: tuple[str, ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        n = len(self.names)
        for coeffs, rel, _ in self.constraints:
            if len(coeffs) != n:
                raise ValueError(f"constraint over {len(coeffs)} of {n} variables")
            if rel not in RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")


@dataclass(frozen=True, slots=True)
class LPResult:
    status: str  # "feasible" | "infeasible"
    assignment: Optional[tuple[Fraction, ...]] = None
    certificate: Optional[tuple[Fraction, ...]] = None


Terms = Union[dict[Hashable, Fraction], Iterable[Hashable]]


class ProgramBuilder:
    """Assembles a :class:`LinearProgram` over keyed variables.

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

    def solve(self) -> LPResult:
        """The result of :func:`solve` on the program so far."""
        return solve(self.program())


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


def _run_simplex(
    rows: list[list[int]],
    dens: list[int],
    basis: list[int],
    cost: Sequence[int],
) -> tuple[list[int], int]:
    """Minimize ``cost`` over the tableau's first ``len(cost)`` columns in
    place, from the basis given; returns the reduced costs, and the negated
    minimum in the last slot, as ints over a positive denominator."""
    z, dz = [*cost, 0], 1
    for i, b in enumerate(basis):
        if cost[b]:
            z, dz = _sub_multiple(z, dz, cost[b], 1, rows[i], dens[i])
    ncols = len(cost)
    while True:
        enter = -1
        for j in range(ncols):
            if z[j] < 0:
                enter = j
                break
        if enter < 0:
            return z, dz
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
            raise AssertionError("phase 1 ran unbounded; it is bounded below by 0")
        _pivot(rows, dens, basis, leave, enter)
        z, dz = _sub_multiple(z, dz, z[enter], dz, rows[leave], dens[leave])


def solve(program: LinearProgram) -> LPResult:
    """Phase-1 exact simplex: a feasible point or a Farkas certificate,
    verified before it is returned.

    Each row gets an artificial column, and the simplex minimizes their
    sum.  A positive minimum is infeasibility, and the artificial columns'
    reduced costs give the certificate.  At minimum 0 every artificial is
    0, so the basis reads off a feasible point.
    """
    n = len(program.names)
    nslack = sum(1 for _, rel, _ in program.constraints if rel != "==")
    nreal = n + nslack
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
            row[j] = sign * a.numerator * (d // a.denominator)
        if rel != "==":
            row[n + si] = sign * d if rel == "<=" else -sign * d
            si += 1
        row[-1] = sign * rhs.numerator * (d // rhs.denominator)
        row[nreal + i] = d
        rows.append(row)
        dens.append(d)
        signs.append(sign)
    basis = list(range(nreal, ncols))

    z, dz = _run_simplex(rows, dens, basis, [0] * nreal + [1] * m)
    if z[-1] < 0:  # the phase-1 minimum, -z[-1]/dz, is positive
        cert = tuple(signs[i] * Q(dz - z[nreal + i], dz) for i in range(m))
        if not verify_infeasibility(program, cert):
            raise AssertionError("phase 1 produced an invalid Farkas certificate")
        return LPResult(status="infeasible", certificate=cert)
    x = [ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = Q(rows[i][-1], dens[i])
    _check_feasible(program, x)
    return LPResult(status="feasible", assignment=tuple(x))


def _check_feasible(program: LinearProgram, x: Sequence[Fraction]) -> None:
    for j, v in enumerate(x):
        if v < 0:
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
    nonpositive on every variable, and give the right-hand sides a strictly
    positive total.
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
    return all(c <= 0 for c in combined) and total > 0


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
        if result.status == "infeasible":
            return result, program
        cut = oracle(result.assignment)
        if cut is None:
            return result, program
        if cut in seen:
            raise RuntimeError(f"separation oracle repeated a constraint: {cut}")
        seen.add(cut)
        program = LinearProgram(program.names, program.constraints + (cut,))
    raise GameError(
        f"constraint generation did not converge in {SEPARATION_ROUNDS} rounds"
    )
