from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from ocfgames import lp

ZERO = Q(0)


def test_small_maximization_has_known_optimum():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6 is 14/5, at x = 8/5, y = 6/5
    # only: the level 14/5 is feasible there, and no level above it is
    rows = (((Q(1), Q(2)), "<=", Q(4)), ((Q(3), Q(1)), "<=", Q(6)))

    def at_least(level):
        return lp.LinearProgram(("x", "y"), rows + (((Q(1), Q(1)), ">=", level),))

    assert lp.solve(at_least(Q(14, 5))) == lp.LPResult("feasible", (Q(8, 5), Q(6, 5)))
    above = at_least(Q(14, 5) + Q(1, 1000))
    result = lp.solve(above)
    assert result.status == "infeasible"
    assert lp.verify_infeasibility(above, result.certificate)


def test_infeasible_program_yields_verified_certificate():
    program = lp.LinearProgram(
        ("x",),
        (((Q(1),), ">=", Q(3)), ((Q(1),), "<=", Q(2))),
    )
    result = lp.solve(program)
    assert result.status == "infeasible"
    assert lp.verify_infeasibility(program, result.certificate)


def test_equality_and_free_variables():
    # x free, y >= 0, x + y == 1 and x >= -2: x is the difference of two
    # nonnegative columns, and its least value -2 pins y at 3
    def x_at_most(bound):
        return lp.LinearProgram(
            ("x+", "x-", "y"),
            (((Q(1), Q(-1), Q(1)), "==", Q(1)),
             ((Q(1), Q(-1), ZERO), ">=", Q(-2)),
             ((Q(1), Q(-1), ZERO), "<=", bound)),
        )

    result = lp.solve(x_at_most(Q(-2)))
    assert result.status == "feasible"
    xp, xm, y = result.assignment
    assert (xp - xm, y) == (Q(-2), Q(3))
    below = x_at_most(Q(-5, 2))
    result = lp.solve(below)
    assert result.status == "infeasible"
    assert lp.verify_infeasibility(below, result.certificate)


def test_unbounded_detection():
    # phase 1 is bounded below by 0, so a cost that runs off is an internal
    # error: here the surplus of x - s == 1 can grow without end
    rows, dens, basis = [[1, -1, 1]], [1], [0]
    with pytest.raises(AssertionError, match="unbounded"):
        lp._run_simplex(rows, dens, basis, [0, -1])


def test_feasibility_without_objective_returns_feasible_point():
    program = lp.LinearProgram(
        ("x", "y"),
        (((Q(1), Q(1)), ">=", Q(2)), ((Q(1), ZERO), "<=", Q(5))),
    )
    result = lp.solve(program)
    assert result.status == "feasible"
    x, y = result.assignment
    assert x + y >= 2 and x <= 5 and x >= 0 and y >= 0


# free variables are the differences of two nonnegative columns each
@pytest.mark.parametrize("names", [("x", "y"), ("x+", "x-", "y+", "y-")],
                         ids=["feasible", "feasible-free"])
def test_a_program_without_constraints_is_solved_at_the_origin(names):
    origin = (ZERO,) * len(names)
    assert lp.solve(lp.LinearProgram(names, ())) == lp.LPResult("feasible", origin)


def _random_program(rng: random.Random) -> lp.LinearProgram:
    n = rng.randint(1, 4)
    m = rng.randint(1, 5)
    constraints = []
    for _ in range(m):
        coeffs = tuple(Q(rng.randint(-3, 3)) for _ in range(n))
        rel = rng.choice(("<=", ">=", "=="))
        constraints.append((coeffs, rel, Q(rng.randint(-5, 10))))
    return lp.LinearProgram(tuple(f"x{j}" for j in range(n)), tuple(constraints))


def _meets(program, x) -> bool:
    return all(v >= 0 for v in x) and all(
        _holds(sum((c * v for c, v in zip(coeffs, x)), ZERO), rel, rhs)
        for coeffs, rel, rhs in program.constraints)


def test_separation_matches_materialized_program():
    """Adding constraints lazily through an oracle must reach the same
    status as solving with all of them present from the start, and a lazy
    point must meet every materialized row."""
    rng = random.Random(7)
    seen = {"feasible": 0, "infeasible": 0}
    for _ in range(60):
        program = _random_program(rng)
        full = lp.solve(program)
        keep = program.constraints[:1]
        lazy = program.constraints[1:]

        def oracle(x):
            for coeffs, rel, rhs in lazy:
                lhs = sum((c * v for c, v in zip(coeffs, x)), ZERO)
                if not _holds(lhs, rel, rhs):
                    return (coeffs, rel, rhs)
            return None

        result, _ = lp.solve_with_separation(lp.LinearProgram(program.names, keep), oracle)
        assert result.status == full.status
        if result.status == "feasible":
            assert _meets(program, result.assignment)
        seen[result.status] += 1
    assert min(seen.values()) >= 10, seen


def test_optimal_assignment_satisfies_all_constraints():
    rng = random.Random(11)
    for _ in range(80):
        program = _random_program(rng)
        result = lp.solve(program)
        if result.status == "feasible":
            assert _meets(program, result.assignment)


# -- an independent oracle: brute-force vertex enumeration ------------------
#
# The feasible region lies in the nonnegative orthant, so it has a vertex
# whenever it is nonempty.  A vertex is a feasible solution of k linearly
# independent active constraints (k = number of columns) among the rows and
# the bounds y >= 0, solved by Gauss-Jordan elimination for every choice of
# them.


def _solve_square(rows, rhs):
    """The unique solution of rows . y == rhs, or None if singular."""
    k = len(rows)
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(k):
        piv = next((i for i in range(col, k) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [v / lead for v in aug[col]]
        for i in range(k):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [aug[i][k] for i in range(k)]


def _holds(lhs, rel, rhs):
    return lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs


def _vertices(rows, k):
    """Vertices of {y >= 0 : every (coeffs, rel, rhs) row holds} in Q^k.

    A vertex makes r rows and k - r bounds active: the bounds zero every
    column outside some r-set, and the r rows fix the columns inside it.
    """
    found = set()
    for r in range(min(len(rows), k) + 1):
        for active in itertools.combinations(rows, r):
            for inside in itertools.combinations(range(k), r):
                sol = _solve_square([[a[j] for j in inside] for a, _, _ in active],
                                    [b for _, _, b in active])
                if sol is None or any(v < 0 for v in sol):
                    continue
                y = [ZERO] * k
                for j, v in zip(inside, sol):
                    y[j] = v
                if all(_holds(sum((a * v for a, v in zip(coeffs, y)), ZERO), rel, rhs)
                       for coeffs, rel, rhs in rows):
                    found.add(tuple(y))
    return found


def _brute_force(program):
    """"feasible" or "infeasible", by vertex enumeration."""
    rows = [(tuple(map(Q, c)), rel, Q(b)) for c, rel, b in program.constraints]
    return "feasible" if _vertices(rows, len(program.names)) else "infeasible"


_rationals = st.builds(Q, st.integers(-4, 4), st.sampled_from((1, 1, 2, 3)))


@st.composite
def _tiny_programs(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    vector = st.tuples(*[_rationals] * n)
    constraints = tuple(
        (draw(vector), draw(st.sampled_from(lp.RELATIONS)), draw(_rationals))
        for _ in range(m)
    )
    return lp.LinearProgram(tuple(f"x{j}" for j in range(n)), constraints)


@settings(max_examples=400)
@given(_tiny_programs())
def test_solve_agrees_with_vertex_enumeration(program):
    result = lp.solve(program)
    assert result.status == _brute_force(program)
    if result.status == "feasible":
        assert _meets(program, result.assignment)
    else:
        assert lp.verify_infeasibility(program, result.certificate)


def test_builder_columns_follow_declaration_and_rows_follow_insertion():
    b = lp.ProgramBuilder()
    assert b.var("z") == 0
    b.add({("y", 1): Q(2), "z": Q(-1)}, "<=", Q(3))  # ("y", 1) is column 1
    b.add(["x", "z"], ">=", Q(1))  # x is column 2; a key list means 1
    assert b.var(("y", 1)) == 1
    program = b.program()
    assert program.names == ("z", "('y', 1)", "x")
    assert program.constraints == (
        ((Q(-1), Q(2), ZERO), "<=", Q(3)),
        ((Q(1), ZERO, Q(1)), ">=", Q(1)),
    )


def test_builder_solve_reads_values_back_by_key():
    b = lp.ProgramBuilder()
    b.add([("a", 0), ("b", 0)], "==", Q(3))
    b.add({("a", 0): Q(2)}, ">=", Q(1))
    b.add({("a", 0): Q(2)}, "<=", Q(1))
    result = b.solve()
    assert result == lp.solve(b.program())
    assert result.status == "feasible"
    assert dict(zip(b.columns, result.assignment)) == {("a", 0): Q(1, 2), ("b", 0): Q(5, 2)}
    b.add([("b", 0)], ">=", Q(4))
    result = b.solve()
    assert result.status == "infeasible" and result.assignment is None


def _dense_point_ok(program, x) -> bool:
    """Reference for ``lp._check_feasible``: every coefficient, every row."""
    if any(v < 0 for v in x):
        return False
    for coeffs, rel, rhs in program.constraints:
        lhs = sum((Q(a) * Q(v) for a, v in zip(coeffs, x)), ZERO)
        if not (lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs):
            return False
    return True


def _dense_certificate_ok(program, cert) -> bool:
    """Reference for ``lp.verify_infeasibility``: every multiplier, every column."""
    if len(cert) != len(program.constraints):
        return False
    combined = [ZERO] * len(program.names)
    total = ZERO
    for u, (coeffs, rel, rhs) in zip(cert, program.constraints):
        if (rel == "<=" and u > 0) or (rel == ">=" and u < 0):
            return False
        for j, a in enumerate(coeffs):
            combined[j] += Q(u) * Q(a)
        total += Q(u) * Q(rhs)
    return all(c <= 0 for c in combined) and total > 0


def _point_accepted(program, x) -> bool:
    try:
        lp._check_feasible(program, x)
    except AssertionError:
        return False
    return True


_multipliers = st.builds(Q, st.integers(-2, 2), st.sampled_from((1, 2)))


@settings(max_examples=400)
@given(_tiny_programs(), st.data())
def test_answer_checks_agree_with_dense_references(program, data):
    m, n = len(program.constraints), len(program.names)
    cert = data.draw(st.tuples(*[_multipliers] * m))
    x = data.draw(st.tuples(*[_multipliers] * n))
    assert lp.verify_infeasibility(program, cert) == _dense_certificate_ok(program, cert)
    assert _point_accepted(program, x) == _dense_point_ok(program, x)
    result = lp.solve(program)
    if result.certificate is not None:
        assert _dense_certificate_ok(program, result.certificate)
        # one multiplier redrawn: accepted by both or by neither
        k = data.draw(st.integers(0, m - 1))
        bent = result.certificate[:k] + (data.draw(_multipliers),) + result.certificate[k + 1:]
        assert lp.verify_infeasibility(program, bent) == _dense_certificate_ok(program, bent)
    if result.assignment is not None:
        assert _dense_point_ok(program, result.assignment)


def test_verify_infeasibility_rejects_bad_certificates():
    # x >= 3 and x <= 2 over x, y >= 0, with two all-zero rows and x <= 3
    program = lp.LinearProgram(
        ("x", "y"),
        (
            ((Q(1), ZERO), ">=", Q(3)),
            ((Q(1), ZERO), "<=", Q(2)),
            ((ZERO, ZERO), "<=", Q(5)),
            ((ZERO, ZERO), ">=", Q(-5)),
            ((Q(1), ZERO), "<=", Q(3)),
        ),
    )
    assert lp.verify_infeasibility(program, (Q(1), Q(-1), ZERO, ZERO, ZERO))
    bad = {
        "wrong sign on a <= row": (Q(1), Q(1), ZERO, ZERO, ZERO),
        "wrong sign on a >= row": (Q(-1), Q(-1), ZERO, ZERO, ZERO),
        "wrong sign on an all-zero <= row": (Q(1), Q(-1), Q(1), ZERO, ZERO),
        "wrong sign on an all-zero >= row": (Q(1), Q(-1), ZERO, Q(-1), ZERO),
        "positive on a nonnegative column": (Q(2), Q(-1), ZERO, ZERO, ZERO),
        "a total of zero": (Q(1), ZERO, ZERO, ZERO, Q(-1)),
        "too few multipliers": (Q(1), Q(-1)),
    }
    for why, cert in bad.items():
        assert not _dense_certificate_ok(program, cert), why
        assert not lp.verify_infeasibility(program, cert), why


def test_check_feasible_reads_every_nonzero_coefficient():
    program = lp.LinearProgram(
        ("x", "y", "z"),
        (((Q(-1), ZERO, Q(2)), "<=", Q(1)), ((ZERO, ZERO, ZERO), ">=", Q(-1))),
    )
    assert _point_accepted(program, (Q(1), Q(7), Q(1)))  # -1 + 2 = 1
    assert not _point_accepted(program, (ZERO, Q(7), Q(1)))  # 2 > 1
    assert not _point_accepted(program, (Q(-1), ZERO, ZERO))  # every variable is nonnegative
    assert not _point_accepted(program, (ZERO, ZERO, Q(-1)))
    empty = lp.LinearProgram(("x",), (((ZERO,), ">=", Q(1)),))
    assert not _point_accepted(empty, (ZERO,))


def test_a_program_and_its_answer_carry_no_objective():
    assert [f.name for f in dataclasses.fields(lp.LinearProgram)] == ["names", "constraints"]
    assert [f.name for f in dataclasses.fields(lp.LPResult)] == [
        "status", "assignment", "certificate"]


@pytest.mark.parametrize("bound, status", [(Q(3), "feasible"), (Q(1), "infeasible")])
def test_solve_runs_the_simplex_once(monkeypatch, bound, status):
    runs = []
    run = lp._run_simplex

    def counting(*args):
        runs.append(args)
        return run(*args)

    monkeypatch.setattr(lp, "_run_simplex", counting)
    program = lp.LinearProgram(("x", "y"), (((Q(1), Q(1)), "==", Q(2)),
                                            ((Q(1), ZERO), "<=", bound),
                                            ((ZERO, Q(1)), "<=", Q(1, 2))))
    assert lp.solve(program).status == status
    assert len(runs) == 1
