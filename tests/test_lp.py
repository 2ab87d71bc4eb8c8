from __future__ import annotations

import itertools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from ocfgames import lp

ZERO = Q(0)


def test_small_maximization_has_known_optimum():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6  -> x = 8/5, y = 6/5
    program = lp.LinearProgram(
        ("x", "y"),
        (((Q(1), Q(2)), "<=", Q(4)), ((Q(3), Q(1)), "<=", Q(6))),
        objective=((Q(1), Q(1)), "max"),
    )
    result = lp.solve(program)
    assert result.status == "optimal"
    assert result.objective_value == Q(14, 5)
    assert result.assignment == (Q(8, 5), Q(6, 5))


def test_infeasible_program_yields_verified_certificate():
    program = lp.LinearProgram(
        ("x",),
        (((Q(1),), ">=", Q(3)), ((Q(1),), "<=", Q(2))),
    )
    result = lp.solve(program)
    assert result.status == "infeasible"
    assert lp.verify_infeasibility(program, result.certificate)


def test_unbounded_detection():
    program = lp.LinearProgram(
        ("x",),
        (((Q(1),), ">=", Q(1)),),
        objective=((Q(1),), "max"),
    )
    assert lp.solve(program).status == "unbounded"


def test_equality_and_free_variables():
    # x free, y >= 0; x + y == 1, minimize x  ->  x unbounded below? no:
    # add x >= -2 to pin the optimum at x = -2, y = 3.
    program = lp.LinearProgram(
        ("x", "y"),
        (((Q(1), Q(1)), "==", Q(1)), ((Q(1), ZERO), ">=", Q(-2))),
        objective=((Q(1), ZERO), "min"),
        free=frozenset({0}),
    )
    result = lp.solve(program)
    assert result.status == "optimal"
    assert result.assignment == (Q(-2), Q(3))


def test_feasibility_without_objective_returns_feasible_point():
    program = lp.LinearProgram(
        ("x", "y"),
        (((Q(1), Q(1)), ">=", Q(2)), ((Q(1), ZERO), "<=", Q(5))),
    )
    result = lp.solve(program)
    assert result.status in ("optimal", "feasible")
    x, y = result.assignment
    assert x + y >= 2 and x <= 5 and x >= 0 and y >= 0



_ORIGIN = lp.LPResult("optimal", (ZERO, ZERO), ZERO)


@pytest.mark.parametrize("objective, free, expected", [
    (None, (), lp.LPResult("feasible", (ZERO, ZERO))),
    (None, (0, 1), lp.LPResult("feasible", (ZERO, ZERO))),
    (((Q(1), ZERO), "max"), (), lp.LPResult("unbounded")),
    (((Q(-1), Q(-2)), "max"), (), _ORIGIN),
    (((ZERO, ZERO), "max"), (), _ORIGIN),
    (((Q(1), Q(2)), "min"), (), _ORIGIN),
    (((Q(1), Q(-1, 2)), "min"), (), lp.LPResult("unbounded")),
    # a free variable with any nonzero cost runs off in one direction
    (((Q(-1), ZERO), "max"), (0,), lp.LPResult("unbounded")),
    (((ZERO, Q(3)), "min"), (1,), lp.LPResult("unbounded")),
    (((ZERO, Q(3)), "min"), (0,), _ORIGIN),
], ids=["feasible", "feasible-free", "max-rising", "max-falling", "max-zero",
        "min-rising", "min-falling", "free-max", "free-min", "free-zero-cost"])
def test_a_program_without_constraints_is_solved_at_the_origin(objective, free, expected):
    program = lp.LinearProgram(("x", "y"), (), objective, frozenset(free))
    assert lp.solve(program) == expected

def _random_program(rng: random.Random) -> lp.LinearProgram:
    n = rng.randint(1, 4)
    m = rng.randint(1, 5)
    constraints = []
    for _ in range(m):
        coeffs = tuple(Q(rng.randint(-3, 3)) for _ in range(n))
        rel = rng.choice(("<=", ">=", "=="))
        constraints.append((coeffs, rel, Q(rng.randint(-5, 10))))
    objective = (tuple(Q(rng.randint(-3, 3)) for _ in range(n)), "max")
    return lp.LinearProgram(tuple(f"x{j}" for j in range(n)),
                            tuple(constraints), objective)


def test_separation_matches_materialized_program():
    """Adding constraints lazily through an oracle must reach the same
    optimum as solving with all of them present from the start."""
    rng = random.Random(7)
    checked = 0
    for _ in range(60):
        program = _random_program(rng)
        full = lp.solve(program)
        keep = program.constraints[:1]
        lazy = program.constraints[1:]

        def oracle(x):
            for coeffs, rel, rhs in lazy:
                lhs = sum((c * v for c, v in zip(coeffs, x)), ZERO)
                bad = (rel == "<=" and lhs > rhs) or \
                      (rel == ">=" and lhs < rhs) or \
                      (rel == "==" and lhs != rhs)
                if bad:
                    return (coeffs, rel, rhs)
            return None

        base = lp.LinearProgram(program.names, keep, program.objective)
        try:
            result, _ = lp.solve_with_separation(base, oracle)
        except RuntimeError:
            continue  # cut repetition can happen when the base is unbounded
        if result.status == "unbounded":
            continue  # a relaxation can be unbounded regardless of full status
        if full.status == "optimal" and result.status == "optimal":
            assert result.objective_value == full.objective_value
            checked += 1
        elif full.status == "infeasible":
            assert result.status == "infeasible"
            checked += 1
    assert checked >= 20


def test_optimal_assignment_satisfies_all_constraints():
    rng = random.Random(11)
    for _ in range(80):
        program = _random_program(rng)
        result = lp.solve(program)
        if result.status != "optimal":
            continue
        for coeffs, rel, rhs in program.constraints:
            lhs = sum((c * v for c, v in zip(coeffs, result.assignment)), ZERO)
            if rel == "<=":
                assert lhs <= rhs
            elif rel == ">=":
                assert lhs >= rhs
            else:
                assert lhs == rhs
        assert all(v >= 0 for v in result.assignment)


# -- an independent oracle: brute-force vertex enumeration ------------------
#
# Free variables are split into two nonnegative columns, so the feasible
# region lies in the nonnegative orthant and has a vertex whenever it is
# nonempty.  A vertex is a feasible solution of k linearly independent
# active constraints (k = number of columns) among the rows and the bounds
# y >= 0, solved by Gauss-Jordan elimination for every choice of them.  The
# program is unbounded iff some extreme ray (a vertex of the recession cone
# cut by sum(y) == 1) improves the objective; otherwise the optimum is the
# best vertex.


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
    """(status, optimal value or None) by vertex enumeration."""
    cols = list(range(len(program.names)))
    split = sorted(program.free)

    def widen(coeffs):
        return tuple(Q(coeffs[j]) for j in cols) + tuple(-Q(coeffs[j]) for j in split)

    k = len(cols) + len(split)
    rows = [(widen(c), rel, Q(b)) for c, rel, b in program.constraints]
    points = _vertices(rows, k)
    if not points:
        return "infeasible", None
    if program.objective is None:
        return "feasible", None
    coeffs, sense = program.objective
    c = widen(coeffs)
    sign = 1 if sense == "max" else -1
    cone = [(a, rel, ZERO) for a, rel, _ in rows] + [((Q(1),) * k, "==", Q(1))]
    if any(sign * sum((a * d for a, d in zip(c, ray)), ZERO) > 0
           for ray in _vertices(cone, k)):
        return "unbounded", None
    values = [sum((a * y for a, y in zip(c, p)), ZERO) for p in points]
    return "optimal", max(values) if sense == "max" else min(values)


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
    objective = draw(st.one_of(
        st.none(), st.tuples(vector, st.sampled_from(("max", "min")))
    ))
    free = frozenset(draw(st.sets(st.integers(0, n - 1))))
    return lp.LinearProgram(tuple(f"x{j}" for j in range(n)), constraints,
                            objective, free)


@settings(max_examples=400)
@given(_tiny_programs())
def test_solve_agrees_with_vertex_enumeration(program):
    status, value = _brute_force(program)
    result = lp.solve(program)
    assert result.status == status
    if status == "optimal":
        assert result.objective_value == value
        coeffs, _ = program.objective
        assert value == sum((a * x for a, x in zip(coeffs, result.assignment)), ZERO)
    if status == "infeasible":
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
    assert program.objective is None and program.free == frozenset()


def test_builder_solve_reads_values_back_by_key():
    b = lp.ProgramBuilder()
    b.add([("a", 0), ("b", 0)], "==", Q(3))
    b.add({("a", 0): Q(2)}, ">=", Q(1))
    b.add({("a", 0): Q(2)}, "<=", Q(1))
    result, x = b.solve()
    assert result == lp.solve(b.program())
    assert result.status == "feasible"
    assert x == {("a", 0): Q(1, 2), ("b", 0): Q(5, 2)}
    b.add([("b", 0)], ">=", Q(4))
    result, x = b.solve()
    assert result.status == "infeasible" and x == {}


def _dense_point_ok(program, x) -> bool:
    """Reference for ``lp._check_feasible``: every coefficient, every row."""
    if any(v < 0 for j, v in enumerate(x) if j not in program.free):
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
    for j, c in enumerate(combined):
        if (c != 0) if j in program.free else (c > 0):
            return False
    return total > 0


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
    # a free column must cancel exactly
    free = lp.LinearProgram(("y",), (((Q(1),), ">=", Q(1)),), free=frozenset({0}))
    assert not lp.verify_infeasibility(free, (Q(1),))


def test_check_feasible_reads_every_nonzero_coefficient():
    program = lp.LinearProgram(
        ("x", "y", "z"),
        (((Q(-1), ZERO, Q(2)), "<=", Q(1)), ((ZERO, ZERO, ZERO), ">=", Q(-1))),
        free=frozenset({0}),
    )
    assert _point_accepted(program, (Q(-1), ZERO, ZERO))
    assert not _point_accepted(program, (Q(-1), Q(7), Q(1)))  # -(-1) + 2 = 3 > 1
    assert not _point_accepted(program, (ZERO, ZERO, Q(-1)))  # z is not free
    empty = lp.LinearProgram(("x",), (((ZERO,), ">=", Q(1)),))
    assert not _point_accepted(empty, (ZERO,))
