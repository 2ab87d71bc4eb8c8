from __future__ import annotations

import itertools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import event, example, given, settings, strategies as st

from conftest import random_outcome, random_ttg
from ocfgames import convexity, core, corpus, deviations, lp, welfare
from ocfgames.model import (
    TTG,
    CoalitionStructure,
    TaskType,
    GameError,
    Outcome,
    PartialCoalition,
    Requirement,
    Rule,
    RuleBasedGame,
    payoff_vector,
)

ZERO = Q(0)


def company_fixtures():
    """One game, three structures: the mixed split, the interleaved split,
    and the split with an abandoned-looking second coalition."""
    g = corpus.two_company_game()  # weights (4, 6), tasks (5, 15), (4, 10)
    mixed = CoalitionStructure(
        (PartialCoalition((Q(1), Q(4))), PartialCoalition((Q(3), Q(2))))
    )
    even = CoalitionStructure(
        (PartialCoalition((Q(2), Q(3))), PartialCoalition((Q(2), Q(3))))
    )
    lone = CoalitionStructure(
        (PartialCoalition((Q(4), Q(3))), PartialCoalition((ZERO, Q(3))))
    )
    y = Outcome(mixed, ((Q(7), Q(8)), (Q(8), Q(7))))
    xp = Outcome(even, ((Q(3), Q(12)), (Q(12), Q(3))))
    z = Outcome(lone, ((Q(3), Q(12)), (ZERO, ZERO)))
    yp = Outcome(even, ((Q(7), Q(8)), (Q(8), Q(7))))
    return g, y, xp, z, yp


def test_refined_deviation_breaks_the_balanced_mixed_split():
    g, y, *_ = company_fixtures()
    result = deviations.find_r_deviation(g, y, {1}, cap=3, grid=1)
    assert result.found
    # agent 2 walks out of one coalition and earns 17 instead of 15
    assert sum(result.gains.values()) == 2
    assert set(result.gains) == {1}


def test_refined_core_accepts_the_interleaved_split():
    g, _, xp, _, _ = company_fixtures()
    verdict = deviations.core_membership(g, xp, kind="r", cap=3, grid=1)
    assert verdict.stable


def test_joint_deviation_recovers_the_full_optimum():
    g, _, _, z, _ = company_fixtures()
    result = deviations.find_r_deviation(g, z, {0, 1}, cap=3, grid=1)
    assert result.found
    post = sum((payoff_vector(z, g.n)[j] for j in result.plan.deviators), ZERO) \
        + sum(result.gains.values())
    assert post == 30


def test_optimistic_deviation_exploits_the_partner_contribution():
    g, _, xp, _, _ = company_fixtures()
    result = deviations.find_o_deviation(g, xp, {1}, cap=3, grid=1)
    assert result.found
    # claim 7 from a reshaped shared coalition plus 10 alone, beating 15
    assert sum(result.gains.values()) == 2


def test_optimistic_core_accepts_the_even_balanced_split():
    g, _, _, _, yp = company_fixtures()
    verdict = deviations.core_membership(g, yp, kind="o", cap=3, grid=1)
    assert verdict.stable


def test_conservative_deviation_is_grid_independent():
    g, y, *_ = company_fixtures()
    # underpay agent 2: 14 across both coalitions, 15 alone
    x = Outcome(y.structure, ((Q(7), Q(8)), (Q(9), Q(6))))
    for grid in (1, 2, 5):
        result = deviations.find_c_deviation(g, x, {1}, cap=3, grid=grid)
        assert result.found
        assert sum(result.gains.values()) == 1
    # the balanced split leaves nothing for a lone walkout
    assert not deviations.find_c_deviation(g, y, {1}, cap=3, grid=1).found


def test_unknown_kind_is_rejected():
    g, y, *_ = company_fixtures()
    with pytest.raises(GameError):
        deviations.core_membership(g, y, kind="q")


def test_stability_chain_on_seeded_games():
    """o-stable implies r-stable implies c-stable at the same resolution."""
    rng = random.Random(33)
    for _ in range(30):
        g = random_ttg(rng, max_n=3, max_total=6)
        o = random_outcome(rng, g)
        verdicts = {
            kind: deviations.core_membership(g, o, kind=kind, cap=3, grid=1).stable
            for kind in ("c", "r", "o")
        }
        assert not (verdicts["o"] and not verdicts["r"])
        assert not (verdicts["r"] and not verdicts["c"])


def test_deviation_plans_are_internally_consistent():
    rng = random.Random(37)
    seen = 0
    for _ in range(40):
        g = random_ttg(rng, max_n=3, max_total=6)
        o = random_outcome(rng, g)
        for kind in ("c", "r", "o"):
            verdict = deviations.core_membership(g, o, kind=kind, cap=3, grid=1)
            if verdict.stable:
                continue
            seen += 1
            result = verdict.deviation
            plan = result.plan
            touched = set(plan.kept) | set(plan.abandoned) | \
                {i for i, _ in plan.modified}
            assert touched == set(range(len(o.structure)))
            assert all(gain > 0 for gain in result.gains.values()) or \
                sum(result.gains.values()) > 0
            # deviator capacity: old kept/modified rows plus new coalitions
            for j in plan.deviators:
                used = sum(
                    (o.structure.coalitions[i].units[j] for i in plan.kept), ZERO
                )
                used += sum((row[j] for _, row in plan.modified), ZERO)
                used += sum(
                    (c.units[j] for c in plan.new_structure.coalitions), ZERO
                )
                assert used <= g.weights[j]
    assert seen >= 10


def test_every_agent_gains_strictly_in_a_found_plan():
    g, y, *_ = company_fixtures()
    result = deviations.find_r_deviation(g, y, {1}, cap=3, grid=1)
    assert all(gain > 0 for gain in result.gains.values())


def test_membership_and_direct_check_agree_for_conservative_kind():
    rng = random.Random(41)
    for _ in range(25):
        g = random_ttg(rng, max_n=3, max_total=6)
        o = random_outcome(rng, g)
        by_search = deviations.core_membership(g, o, kind="c", cap=4, grid=1)
        by_subsets = core.check_group_rationality(g, o)
        assert by_search.stable == by_subsets.stable


def _negative_cap_calls():
    g = corpus.two_company_game()
    x = Outcome(CoalitionStructure((PartialCoalition((Q(4), Q(6))),)), ((Q(6), Q(9)),))
    rules = corpus.four_escorts_game()
    nothing = Outcome(CoalitionStructure(()), ())
    calls = {f"membership-{kind}": (deviations.core_membership, (g, x, kind))
             for kind in "cro"}
    calls.update({f"find-{kind}": (deviations.FINDERS[kind], (g, x, {0, 1}))
                  for kind in "cro"})
    calls["group-rationality"] = (core.check_group_rationality, (rules, nothing))
    calls["group-rationality-ttg"] = (core.check_group_rationality, (g, x))
    calls["falsifier"] = (convexity.falsify_convexity, (g,))
    calls["greedy"] = (convexity.construct_core_element, (g, [0, 1]))
    return calls


_NEGATIVE_CAP_CALLS = _negative_cap_calls()


@pytest.mark.parametrize("name", sorted(_NEGATIVE_CAP_CALLS))
def test_a_negative_cap_is_refused(name):
    call, args = _NEGATIVE_CAP_CALLS[name]
    with pytest.raises(GameError, match="cap"):
        call(*args, cap=-1)


def _signed_outcome(weights, threshold, utility, rows):
    """One TTG task, a coalition of every agent's unit of weight per payoff
    row, and the rows as (possibly negative) payoffs."""
    game = TTG(tuple(Q(w) for w in weights), (TaskType(Q(threshold), Q(utility)),))
    units = PartialCoalition((Q(1),) * len(weights))
    structure = CoalitionStructure((units,) * len(rows))
    return game, Outcome(structure, tuple(tuple(map(Q, row)) for row in rows),
                         allow_negative=True)


def test_a_refined_deviator_may_keep_only_what_beats_its_total():
    # agent 1 is paid -1 + 5 = 4; keeping only coalition 2 pays it 5
    game, x = _signed_outcome((2, 2), 2, 4, [(-1, 5), (5, -1)])
    verdict = deviations.core_membership(game, x, "r", cap=3)
    assert not verdict.stable and verdict.witness == {0}
    plan = verdict.deviation.plan
    assert (plan.kept, plan.abandoned, plan.new_structure.coalitions) == ((1,), (0,), ())
    assert verdict.deviation.gains == {0: 1} and verdict.deviation.payoffs == ()
    assert deviations.find_o_deviation(game, x, {0}, cap=3).found


def test_a_conservative_group_with_no_value_gains_only_if_every_total_is_negative():
    # alone or together, agents 1 and 2 (weight 2 < 3) earn nothing
    game, x = _signed_outcome((1, 1, 1), 3, 6, [(-2, 1, 7)])
    assert not deviations.find_c_deviation(game, x, {0, 1}).found
    result = deviations.find_c_deviation(game, x, {0})
    assert result.found and result.gains == {0: 2}
    assert result.payoffs == ((ZERO, ZERO, ZERO),)
    assert result.plan.new_structure.coalitions == (PartialCoalition((Q(1), ZERO, ZERO)),)
    # the division gives the same answers
    assert deviations._divide_strictly([(ZERO, (0, 1))], {0: Q(-2), 1: Q(1)}) is None
    assert deviations._divide_strictly([(ZERO, (0,))], {0: Q(-2)})[0] == 2
    verdict = deviations.core_membership(game, x, "c")
    assert verdict.witness == {0} and verdict.shortfall == 2


def test_a_conservative_share_is_never_negative():
    # J = {1, 2} earns 12 alone and is paid 11 in all, but agent 1 (paid
    # -10) would need a negative share for agent 2 (paid 21) to gain
    game, x = _signed_outcome((1, 1), 2, 12, [(-10, 21)])
    assert deviations._divide_strictly([(Q(12), (0, 1))], {0: Q(-10), 1: Q(21)}) is None
    assert not deviations.find_c_deviation(game, x, {0, 1}).found
    result = deviations.find_c_deviation(game, x, {0})
    assert result.found and result.gains == {0: 10}
    verdict = deviations.core_membership(game, x, "c")
    assert not verdict.stable and verdict.witness == {0}


@pytest.mark.xfail(strict=True, reason="an optimistic TTG top-up puts in only the "
                   "shortfall to a threshold, so no deviator chips in a token")
def test_optimistic_deviators_may_each_chip_in_to_share_a_claim():
    # coalition 2 pools 2 < 3 and is worth 0; agents 2 and 3 (paid 0) each
    # add their one unit, so it pools 4 and pays them 97 together
    game = TTG((Q(3), Q(1), Q(1), Q(3)), (TaskType(Q(3), Q(97)),))
    structure = CoalitionStructure((PartialCoalition((Q(1), ZERO, ZERO, Q(3))),
                                    PartialCoalition((Q(2), ZERO, ZERO, ZERO))))
    x = Outcome(structure, ((Q(97, 4), ZERO, ZERO, Q(291, 4)), (ZERO,) * 4))
    result = deviations.find_o_deviation(game, x, {1, 2}, cap=3)
    assert result.found and result.plan.modified[0][0] == 1


@st.composite
def nonnegative_ttg_outcomes(draw):
    """A small TTG, about half with p/q weights and thresholds, and an
    outcome of one or two coalitions whose values are split among their
    supporters in drawn nonnegative proportions."""
    den = st.sampled_from((1, 2, 3)) if draw(st.booleans()) else st.just(1)
    weights = draw(st.lists(st.builds(Q, st.integers(1, 6), den), min_size=1, max_size=4))
    tasks = draw(st.lists(st.builds(TaskType, st.builds(Q, st.integers(1, 9), den),
                                    st.builds(Q, st.integers(1, 20), st.integers(1, 2))),
                          min_size=1, max_size=3))
    game = TTG(tuple(weights), tuple(tasks))
    first = [w * draw(st.sampled_from((ZERO, Q(1, 2), Q(1)))) for w in weights]
    rows = [first, [w - u for w, u in zip(weights, first)]][:draw(st.integers(1, 2))]
    structure = CoalitionStructure(tuple(PartialCoalition(tuple(r)) for r in rows))
    payoffs = []
    for c in structure.coalitions:
        cut = [draw(st.integers(0, 4)) if j in c.support else 0 for j in range(game.n)]
        v = game.value(c.units)
        payoffs.append(tuple(v * k / sum(cut) if sum(cut) else ZERO for k in cut))
    return game, Outcome(structure, tuple(payoffs))


@settings(max_examples=150, deadline=None)
@given(nonnegative_ttg_outcomes())
def test_ttg_c_witness_splits_the_surplus_equally(question):
    """With nonnegative payoffs a TTG's c witness pays each deviator its
    total plus an equal share of vstar(J) - p(J), the closed form the c
    search used before it called the division, rebuilt here.  Each
    standalone coalition's value is split among J with no negative share;
    which coalition pays whom is the flow's choice."""
    game, outcome = question
    p = payoff_vector(outcome, game.n)
    for k in range(1, game.n + 1):
        for J in itertools.combinations(range(game.n), k):
            result = deviations.find_c_deviation(game, outcome, J)
            best = welfare.vstar(game, J)
            surplus = (best - sum((p[j] for j in J), ZERO)) / k
            assert result.found == (best > 0 and surplus > 0)
            if not result.found:
                continue
            structure = welfare.knapsack_profile(game).standalone(J)[1]
            assert result.plan.new_structure == structure
            assert result.gains == {j: surplus for j in J}
            for c, row in zip(structure.coalitions, result.payoffs, strict=True):
                assert sum(row, ZERO) == game.value(c.units)
                assert all(x >= 0 for x in row)
                assert not any(x for j, x in enumerate(row) if j not in J)


def test_rule_game_c_membership_searches_only_short_sets(monkeypatch):
    """``FINDERS["c"]`` sees exactly the sets paid less than ``vstar(S,
    cap)``, in order, up to the first that deviates."""
    searched = []
    find = deviations.FINDERS["c"]

    def counting(game, outcome, S, **kwargs):
        searched.append(frozenset(S))
        return find(game, outcome, S, **kwargs)

    monkeypatch.setitem(deviations.FINDERS, "c", counting)
    rng = random.Random(23)
    skipped = missed = 0
    for _ in range(200):
        game = _random_rule_game(rng)
        outcome = _random_split_outcome(rng, game)
        cap = rng.choice((1, 2, 3))
        p = payoff_vector(outcome, game.n)
        searched.clear()
        verdict = deviations.core_membership(game, outcome, "c", cap=cap)
        everything = [frozenset(S) for k in range(1, game.n + 1)
                      for S in itertools.combinations(range(game.n), k)]
        short = [S for S in everything
                 if welfare.vstar(game, S, cap=cap) > sum((p[j] for j in S), ZERO)]
        expected = short if verdict.stable else short[:short.index(verdict.witness) + 1]
        assert searched == expected
        skipped += len(everything) > len(searched)
        missed += len(expected) - (not verdict.stable)
    assert skipped and missed  # some sets are never searched; some short sets hold

def _rationals(lo, hi):
    return st.builds(Q, st.integers(min_value=lo, max_value=hi),
                     st.integers(min_value=1, max_value=3))


@st.composite
def division_instances(draw):
    """Up to four pools over up to four agents (none included), and floors
    on some of the agents (agents in no pool included)."""
    n = draw(st.integers(min_value=1, max_value=4))
    agents = st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1)
    pools = draw(st.lists(
        st.tuples(_rationals(0, 12), agents.map(lambda S: tuple(sorted(S)))),
        max_size=4,
    ))
    floored = sorted(draw(agents))
    floors = {j: draw(_rationals(-6, 10)) for j in floored}
    return pools, floors


def _hall(pools, floors, agents, strict):
    """Gale's condition, by enumeration: every set T of ``agents`` has
    positive floors summing to at most (strictly below, when ``strict``)
    the amount of the pools some member of T supports."""
    for k in range(1, len(agents) + 1):
        for T in itertools.combinations(agents, k):
            need = sum((max(floors[j], ZERO) for j in T), ZERO)
            have = sum((a for a, sup in pools if set(sup) & set(T)), ZERO)
            if need > have or (strict and need == have):
                return False
    return True


@settings(max_examples=300, deadline=None)
@given(division_instances())
def test_division_program_matches_the_hall_condition(instance):
    pools, floors = instance
    answer = deviations._divide_strictly(pools, floors)
    assert (answer is not None) == _hall(pools, floors, sorted(floors), strict=False)
    if answer is None:
        return
    margin, shares = answer
    nonnegative = sorted(j for j, f in floors.items() if f >= 0)
    assert (margin > 0) == _hall(pools, floors, nonnegative, strict=True)
    assert margin >= 0 and len(shares) == len(pools)
    for (amount, sup), share in zip(pools, shares):
        assert sorted(share) == list(sup)
        assert all(x >= 0 for x in share.values())
        assert sum(share.values(), ZERO) == amount
    total = {j: sum((share.get(j, ZERO) for share in shares), ZERO) for j in floors}
    assert all(total[j] >= f + margin for j, f in floors.items())
    # maximizing one agent keeps the floors and pays it at least as much
    agent = min(floors)
    best = deviations._divide_strictly(pools, floors, maximize=agent)
    paid = {j: sum((share.get(j, ZERO) for share in best[1]), ZERO) for j in floors}
    assert all(paid[j] >= f for j, f in floors.items())
    assert paid[agent] >= total[agent]


def test_scaling_memo_keeps_verdicts_of_interleaved_questions():
    """Membership with the per-outcome scaling memoized gives the verdicts it
    gives with the memo cleared before every call, across interleaved games,
    outcomes (equal copies included), grids and convexity searches."""
    rng = random.Random(5)  # the first games include o verdicts that differ by grid
    cases = []
    for _ in range(6):
        g = random_ttg(rng, max_n=3, max_total=7, max_tasks=3)
        cases += [(g, random_outcome(rng, g)) for _ in range(2)]
    g, y, xp, z, yp = company_fixtures()
    cases += [(g, y), (g, Outcome(y.structure, y.payoffs)), (g, xp), (g, z), (g, yp)]
    cases.append((corpus.triple_effort_game(), corpus._triple_effort_outcome()))
    # each case asks grids 1 and 2 in turn, and neighbouring cases meet on
    # the same grid, so the slot is hit and missed by grid, game and outcome
    calls = [(game, outcome, kind, grid)
             for kind in "cro"
             for order in (1, -1)
             for k, (game, outcome) in enumerate(cases[::order])
             for grid in ((1, 2) if k % 2 == 0 else (2, 1))]

    games = list({id(game): game for game, _ in cases}.values())

    def run(clear):
        verdicts = []
        for k, (game, outcome, kind, grid) in enumerate(calls):
            if clear:
                deviations._last_enumeration = None
            verdicts.append(deviations.core_membership(game, outcome, kind, cap=2, grid=grid))
            if k % 7 == 0:
                convexity.falsify_convexity(game, cap=2, grid=grid)
        for game in games:  # without an outcome, only the game tells entries apart
            if clear:
                deviations._last_enumeration = None
            verdicts.append(convexity.falsify_convexity(game, cap=2, grid=1))
        return verdicts

    assert run(clear=False) == run(clear=True)


# -- the flow division against the linear program ------------------------------


@st.composite
def division_questions(draw):
    """A :func:`division_instances` draw, an agent with a floor and an agent
    without one (agent 4 is in no pool), each to be maximized."""
    pools, floors = draw(division_instances())
    floored = draw(st.sampled_from(sorted(floors)))
    unfloored = draw(st.sampled_from(sorted(set(range(5)) - set(floors))))
    return pools, floors, floored, unfloored


def _program_division(pools, floors, maximize=None):
    """The division as a linear program, solved by ``lp.solve``: one equality
    per pool, a nonnegative margin column and one row ``shares(j) - margin
    >= floor`` per floored agent.  Returns the largest margin (with
    ``maximize``: that agent's largest total), or None when infeasible."""
    keys = [(c, j) for c, (_, sup) in enumerate(pools) for j in sup] + ["eps"]

    def row(terms):
        return tuple(terms.get(key, ZERO) for key in keys)

    constraints = [(row({(c, j): Q(1) for j in sup}), "==", amount)
                   for c, (amount, sup) in enumerate(pools)]
    for j, floor in floors.items():
        shares = {(c, j): Q(1) for c, (_, sup) in enumerate(pools) if j in sup}
        constraints.append((row({**shares, "eps": Q(-1)}), ">=", floor))
    objective = {"eps": Q(1)} if maximize is None else {
        (c, maximize): Q(1) for c, (_, sup) in enumerate(pools) if maximize in sup}
    program = lp.LinearProgram(tuple(map(str, keys)), tuple(constraints),
                               (row(objective), "max"))
    result = lp.solve(program)
    assert result.status in ("optimal", "infeasible")
    return result.objective_value if result.status == "optimal" else None


@example(([(Q(6), (0, 1))], {0: Q(-2), 1: Q(3)}, 0, 2))  # negative floor, margin 5/2
@example(([(Q(5), (0, 1))], {0: Q(2), 1: Q(3)}, 1, 4))  # margin exactly 0
@example(([(Q(4), (0, 1))], {0: Q(-10), 1: Q(2)}, 0, 3))  # floor + (A - F) / k < 0
@example(([(Q(1), (0, 1))], {0: Q(2), 1: Q(3)}, 1, 2))  # negative margin
@example(([(Q(4), (0, 1)), (ZERO, (0, 1)), (Q(8), (0, 1))], {0: Q(-1), 1: Q(5)}, 0, 4))
# blocked twice: the margin drops from 7/3 to 3/2 to 1
@example(([(Q(4), (1,)), (Q(2), (1, 2)), (Q(2), (0, 2)), (Q(1), (0, 1))],
          {0: Q(2), 1: ZERO, 2: ZERO}, 2, 3))
@settings(max_examples=300, deadline=None)
@given(division_questions())
def test_flow_division_matches_the_program(question):
    pools, floors, floored, unfloored = question
    answer = deviations._divide_strictly(pools, floors)
    assert (None if answer is None else answer[0]) == _program_division(pools, floors)
    for agent in (floored, unfloored):
        best = deviations._divide_strictly(pools, floors, maximize=agent)
        optimum = _program_division(pools, floors, maximize=agent)
        assert (best is None) == (optimum is None)
        if best is not None:
            assert sum((share.get(agent, ZERO) for share in best[1]), ZERO) == optimum


# -- r/o membership against a full enumeration scored in Fractions ------------


def _reference_find(game, outcome, J, kind, cap, grid):
    """The deviation search as a full enumeration: every candidate plan is
    built and scored in Fractions, the plans above p(J) are sorted by
    decreasing total (ties in generation order) and tried in turn."""
    ctx = deviations._Search(game, outcome, J, cap, grid)
    Js, n = ctx.Js, game.n
    coalitions = outcome.structure.coalitions
    pJ = sum((ctx.pJ[j] for j in Js), ZERO)

    def value(vec, base=None):
        return game.value(ctx.scaled_row(vec, base))

    def structures(caps, budget):
        return ctx.new_structures(caps, budget)[0]  # generation order

    budget = None if cap is None else max(0, cap - len(ctx.mixed))
    candidates = []  # (total, base, takes, caps, structure, kept, abandoned, modified)
    if kind == "r":
        touched = [i for i in ctx.mixed if any(ctx.units[i][j] for j in Js)]
        forced = [i for i in ctx.mixed if i not in touched]
        for k in range(len(touched) + 1):
            for drop in itertools.combinations(touched, k):
                kept = forced + [i for i in touched if i not in drop]
                base = {j: sum((outcome.payoffs[i][j] for i in kept), ZERO) for j in Js}
                caps = tuple(ctx.w[j] - sum(ctx.units[i][j] for i in kept) for j in Js)
                for s in structures(caps, budget):
                    total = sum(base.values(), ZERO) + sum((value(v) for v, _ in s), ZERO)
                    candidates.append((total, base, (), caps, s, tuple(sorted(kept)),
                                       tuple(sorted(set(drop) | set(ctx.dev_only))), ()))
    else:
        options = []
        for i in ctx.mixed:
            nondev = [ZERO if j in ctx.J else u for j, u in enumerate(coalitions[i].units)]
            paid = sum((outcome.payoffs[i][j] for j in range(n) if j not in ctx.J), ZERO)
            unchanged = tuple(ctx.units[i][j] for j in Js)
            mods = {(0,) * len(Js): ZERO}
            vecs = [unchanged] + list(deviations._grid_vectors(ctx.full_caps(), ctx.g))
            for vec in vecs:
                if any(vec) and value(vec, nondev) - paid > 0:
                    mods[vec] = value(vec, nondev) - paid
            if isinstance(game, TTG):  # only the minimal top-ups per task
                pooled = sum(u for j, u in enumerate(ctx.units[i]) if j not in ctx.J)
                needs = {-(-max(0, int(t.threshold * ctx.M) - pooled) // ctx.g) * ctx.g
                         or ctx.g for t in game.tasks}
                mods = {vec: t for vec, t in mods.items()
                        if not any(vec) or vec == unchanged or sum(vec) in needs}
            options.append(sorted(mods.items(), key=lambda kv: (sum(kv[0]), kv[0])))
        for combo in itertools.product(*options):
            caps = tuple(c - sum(vec[k] for vec, _ in combo)
                         for k, c in enumerate(ctx.full_caps()))
            if any(c < 0 for c in caps):
                continue
            takes = tuple((t, frozenset(ctx.supporters(vec))) for vec, t in combo if t > 0)
            kept = tuple(i for i, (vec, _) in zip(ctx.mixed, combo)
                         if vec == tuple(ctx.units[i][j] for j in Js))
            abandoned = tuple(sorted(ctx.dev_only + [
                i for i, (vec, _) in zip(ctx.mixed, combo) if not any(vec) and i not in kept]))
            modified = tuple((i, vec) for i, (vec, _) in zip(ctx.mixed, combo)
                             if any(vec) and i not in kept)
            for s in structures(caps, budget):
                total = sum((t for t, _ in takes), ZERO) + sum((value(v) for v, _ in s), ZERO)
                candidates.append((total, {}, takes, caps, s, kept, abandoned, modified))
    ranked = sorted((c for c in candidates if c[0] > pJ), key=lambda c: -c[0])
    for _, base, takes, caps, s, kept, abandoned, modified in ranked:
        claimed = [(t, tuple(sorted(sup))) for t, sup in takes]
        vecs, built = ctx.padded(s, caps, (j for _, sup in claimed for j in sup))
        pools = claimed + built
        if any(base.get(j, ZERO) <= ctx.pJ[j] and not any(j in sup for _, sup in pools)
               for j in Js):
            continue
        division = deviations._divide_strictly(
            pools, {j: ctx.pJ[j] - base.get(j, ZERO) for j in Js})
        if division is None or division[0] <= 0:
            continue
        shares = division[1]
        plan = deviations.DeviationPlan(
            deviators=frozenset(J),
            kept=tuple(sorted(kept)),
            abandoned=abandoned,
            modified=tuple((i, tuple(ctx.scaled_row(vec, coalitions[i].units)))
                           for i, vec in modified),
            new_structure=CoalitionStructure(
                tuple(PartialCoalition(ctx.scaled_row(vec)) for vec in vecs)),
        )
        gains = {j: base.get(j, ZERO) + sum((sh.get(j, ZERO) for sh in shares), ZERO)
                 - ctx.pJ[j] for j in Js}
        return deviations.DeviationResult(
            found=True, plan=plan,
            payoffs=tuple(tuple(sh.get(j, ZERO) for j in range(n)) for sh in shares),
            gains=gains, resolution=(cap, grid))
    return deviations.DeviationResult(found=False, resolution=(cap, grid))


def _reference_membership(game, outcome, kind, cap, grid):
    p = payoff_vector(outcome, game.n)
    for k in range(1, game.n + 1):
        for S in itertools.combinations(range(game.n), k):
            if kind == "c":
                result = deviations.find_c_deviation(game, outcome, S, cap, grid)
            else:
                result = _reference_find(game, outcome, S, kind, cap, grid)
            if result.found:
                gain = sum(result.gains.values(), ZERO)
                return core.CoreVerdict(
                    stable=False, witness=frozenset(S),
                    witness_value=sum((p[j] for j in S), ZERO) + gain,
                    shortfall=gain, resolution=(cap, grid), deviation=result)
    return core.CoreVerdict(stable=True, resolution=(cap, grid))


def _random_rule_game(rng):
    n = rng.randint(1, 3)
    weights = tuple(Q(rng.randint(1, 3)) for _ in range(n))
    rules = []
    for _ in range(rng.randint(1, 2)):
        reqs = ()
        while not any(req.minimum for req in reqs):  # a free rule is refused: redraw
            reqs = tuple(
                Requirement(frozenset(rng.sample(range(n), rng.randint(1, n))),
                            Q(rng.randint(0, 4), rng.choice((1, 2))))
                for _ in range(rng.randint(1, 2))
            )
        rules.append(Rule(reqs, Q(rng.randint(1, 20), rng.choice((1, 3)))))
    return RuleBasedGame(weights, tuple(rules))


def _random_split_outcome(rng, game):
    """A feasible outcome of one or two coalitions whose contributions are
    multiples of 1/1 or 1/2, each value split among its supporters."""
    remaining = list(game.weights)
    den = rng.choice((1, 2))
    coalitions, payoffs = [], []
    for _ in range(rng.randint(1, 2)):
        units = []
        for j in range(game.n):
            u = Q(rng.randint(0, int(remaining[j] * den)), den)
            remaining[j] -= u
            units.append(u)
        sup = [j for j, u in enumerate(units) if u]
        if not sup:
            continue
        v = game.value(units)
        weights = [rng.randint(0, 3) for _ in sup]
        weights[0] += sum(weights) == 0
        row = [ZERO] * game.n
        for j, w in zip(sup, weights):
            row[j] = v * w / sum(weights)
        coalitions.append(PartialCoalition(tuple(units)))
        payoffs.append(tuple(row))
    return Outcome(CoalitionStructure(tuple(coalitions)), tuple(payoffs))


@st.composite
def membership_questions(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**9)))
    if draw(st.booleans()):
        game = random_ttg(rng, max_n=3, max_total=6, max_tasks=3)
        outcome = random_outcome(rng, game) if draw(st.booleans()) else \
            _random_split_outcome(rng, game)
    else:
        game = _random_rule_game(rng)
        outcome = _random_split_outcome(rng, game)
    return (game, outcome, draw(st.sampled_from("cro")),
            draw(st.sampled_from((1, 2, 3))), draw(st.sampled_from((1, 2))))


@settings(max_examples=300, deadline=None)
@given(membership_questions())
def test_membership_matches_a_full_enumeration(question):
    game, outcome, kind, cap, grid = question
    try_best_first = deviations._try_best_first

    def only_gainful(ctx, candidates, resolution):
        assert all(cand.score > ctx.target for cand in candidates)
        return try_best_first(ctx, candidates, resolution)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(deviations, "_try_best_first", only_gainful)
        verdict = deviations.core_membership(game, outcome, kind, cap=cap, grid=grid)
    event(f"{type(game).__name__} {kind} {'stable' if verdict.stable else 'unstable'}")
    assert verdict == _reference_membership(game, outcome, kind, cap, grid)


# -- the shared enumeration memo -----------------------------------------------


def _memo_cases():
    rng = random.Random(17)
    cases = []
    for k in range(4):
        game = random_ttg(rng, max_n=3, max_total=6, max_tasks=3) if k % 2 else \
            _random_rule_game(rng)
        cases += [(game, _random_split_outcome(rng, game)) for _ in range(3)]
    g, y, xp, z, yp = company_fixtures()
    cases += [(g, y), (g, xp), (g, Outcome(xp.structure, xp.payoffs)), (g, z), (g, yp)]
    # two outcomes whose deviator {1} asks for the same capacities, once with
    # an off-grid private coalition and once without: the entry of one is
    # not the other's
    g = TTG((Q(3), Q(3)), (TaskType(Q(5, 2), Q(10)),))
    shared = PartialCoalition((Q(1, 2), Q(3)))
    cases.append((g, Outcome(CoalitionStructure((PartialCoalition((Q(5, 2), ZERO)), shared)),
                             ((Q(10), ZERO), (ZERO, Q(10))))))
    cases.append((g, Outcome(CoalitionStructure((shared,)), ((Q(10), ZERO),))))
    return cases


_MEMO_CASES = _memo_cases()


@example([(len(_MEMO_CASES) - 2, "r", 1, None, False),
          (len(_MEMO_CASES) - 1, "r", 1, None, False)])
@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=len(_MEMO_CASES) - 1),
              st.sampled_from("cro"), st.sampled_from((1, 2)),
              st.sampled_from((None, 1, 2)), st.booleans()),
    min_size=1, max_size=12,
))
def test_shared_memos_keep_every_answer(calls):
    """Interleaved membership and convexity questions give the answers they
    give with both memos cleared before every call."""
    def run(clear):
        out = []
        for index, kind, grid, cap, falsify in calls:
            game, outcome = _MEMO_CASES[index]
            if clear:
                deviations._last_enumeration = None
            if falsify:
                out.append(convexity.falsify_convexity(game, cap=cap, grid=grid,
                                                       budget=200))
            else:
                out.append(deviations.core_membership(game, outcome, kind,
                                                      cap=cap, grid=grid))
        return out

    assert run(clear=False) == run(clear=True)


# -- the one minimal-vector generator and the integer task ladder -------------


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_vectors_meeting_matches_a_brute_force_product(data):
    """``vectors_meeting`` yields, once each, exactly the grid vectors within
    the caps whose group sums are the needs and whose other entries are 0."""
    step = data.draw(st.integers(min_value=1, max_value=2), label="grid step")
    n = data.draw(st.integers(min_value=1, max_value=5), label="agents")
    J = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1),
                          min_size=1, max_size=4), label="deviators")
    # weights of 1/step at grid 1: contributions in units of 1/step, step `step`
    game = TTG(tuple(Q(1, step) for _ in range(n)), (TaskType(Q(1), Q(1)),))
    ctx = deviations._Search(game, None, J, None, 1)
    assert ctx.g == step
    Js = ctx.Js
    labels = data.draw(st.lists(st.integers(min_value=-1, max_value=2),
                                min_size=len(Js), max_size=len(Js)), label="groups")
    groups = [frozenset(j for j, label in zip(Js, labels) if label == k) for k in range(3)]
    groups = [grp for grp in groups if grp]
    if not groups:
        groups = [frozenset(Js)]
    needs = [(grp, step * data.draw(st.integers(min_value=0, max_value=4), label="need"))
             for grp in groups]
    caps = tuple(data.draw(st.lists(st.integers(min_value=0, max_value=6),
                                    min_size=len(Js), max_size=len(Js)), label="caps"))
    got = list(ctx.vectors_meeting(needs, caps))
    grouped = set().union(*groups)
    expected = [
        vec for vec in itertools.product(*(range(0, c + 1, step) for c in caps))
        if all(sum(u for j, u in zip(Js, vec) if j in grp) == need for grp, need in needs)
        and not any(u for j, u in zip(Js, vec) if j not in grouped)
    ]
    assert len(got) == len(set(got))
    assert sorted(got) == expected


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_value_table_matches_the_fraction_value(data):
    """``scaled_value(vec, base)``, read from the game's integer rule table,
    is ``value_scale`` times ``game.value`` of the row it stands for: on
    TTGs and on rule games with p/q weights, minima and values, zero-value
    rules and overlapping groups, at grids 1-3."""
    fractions = st.fractions(min_value=Q(1, 6), max_value=4, max_denominator=6)
    nonnegative = st.fractions(min_value=0, max_value=4, max_denominator=6)
    n = data.draw(st.integers(min_value=1, max_value=4), label="agents")
    weights = tuple(data.draw(st.lists(fractions, min_size=n, max_size=n), label="weights"))
    if data.draw(st.booleans(), label="task game"):
        tasks = data.draw(st.lists(st.builds(TaskType, fractions, fractions),
                                   min_size=1, max_size=4), label="tasks")
        game = TTG(weights, tasks)
    else:
        rules = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=4), label="rules")):
            reqs = tuple(
                Requirement(data.draw(st.frozensets(st.integers(0, n - 1), min_size=1),
                                      label="group"),
                            data.draw(nonnegative, label="minimum"))
                for _ in range(data.draw(st.integers(min_value=1, max_value=3)))
            )
            value = data.draw(nonnegative, label="value")
            # a free rule is refused: it keeps a zero value
            rules.append(Rule(reqs, value if any(req.minimum for req in reqs) else ZERO))
        game = RuleBasedGame(weights, tuple(rules))
    J = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1),
                  label="deviators")
    grid = data.draw(st.integers(min_value=1, max_value=3), label="grid")
    ctx = deviations._Search(game, None, J, None, grid)
    step = data.draw(st.sampled_from([ctx.g, 1]), label="step")  # grid or off-grid
    vec = tuple(step * data.draw(st.integers(min_value=0, max_value=ctx.w[j] // step),
                                 label="vec") for j in ctx.Js)
    base = tuple(0 if j in ctx.J else
                 data.draw(st.integers(min_value=0, max_value=ctx.w[j]), label="base")
                 for j in range(n))
    row = ctx.scaled_row(vec, [Q(u, ctx.M) for u in base])
    assert ctx.scaled_value(vec, base) == game.value(row) * game.value_scale
    assert ctx.scaled_value(vec) == game.value(ctx.scaled_row(vec)) * game.value_scale


@pytest.mark.parametrize("limit", ["VECTOR_LIMIT", "FIT_TEST_LIMIT"])
def test_enumeration_past_a_limit_raises_a_game_error(monkeypatch, limit):
    """Both enumeration limits hold on a small game: each raises GameError
    once the search passes it, rather than running on."""
    g, _, xp, _, _ = company_fixtures()  # r-stable: every deviator set is searched
    monkeypatch.setattr(deviations, "_last_enumeration", None)
    monkeypatch.setattr(deviations, limit, 2)
    with pytest.raises(GameError, match="enumeration too large"):
        deviations.core_membership(g, xp, "r", cap=3, grid=1)
