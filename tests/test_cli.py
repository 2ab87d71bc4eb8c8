from __future__ import annotations

import json
from fractions import Fraction as Q

import pytest

from ocfgames import cli, corpus, io
from ocfgames.model import CoalitionStructure, Outcome, PartialCoalition

ZERO = Q(0)


@pytest.fixture
def company(tmp_path):
    g = corpus.two_company_game()
    game = tmp_path / "game.json"
    io.save_game(g, str(game))
    cs = CoalitionStructure(
        (PartialCoalition((Q(1), Q(4))), PartialCoalition((Q(3), Q(2))))
    )
    x = tmp_path / "x.json"
    y = tmp_path / "y.json"
    io.save_outcome(Outcome(cs, ((Q(7), Q(8)), (Q(9), Q(6)))), str(x))
    io.save_outcome(Outcome(cs, ((Q(7), Q(8)), (Q(8), Q(7)))), str(y))
    return str(game), str(x), str(y)


def test_welfare_overlapping(company, capsys):
    game, _, _ = company
    assert cli.main(["welfare", "--game", game, "--mode", "overlapping"]) == 0
    assert "value 30" in capsys.readouterr().out


def test_check_core_exit_codes(company, capsys):
    game, x, y = company
    assert cli.main(["check-core", "--game", game, "--kind", "c",
                     "--outcome", x]) == 1
    out = capsys.readouterr().out
    assert "blocking set [2]" in out
    assert cli.main(["check-core", "--game", game, "--kind", "c",
                     "--outcome", y]) == 0


def test_refined_check_narrates_the_witness(company, capsys):
    game, _, y = company
    code = cli.main(["check-core", "--game", game, "--kind", "r",
                     "--outcome", y, "--cap", "3"])
    assert code == 1
    out = capsys.readouterr().out
    assert "deviators [2]" in out
    assert "abandoned coalitions" in out
    assert "gains" in out


def test_deviate_reports_stability(company, capsys):
    game, _, y = company
    assert cli.main(["deviate", "--game", game, "--outcome", y,
                     "--kind", "c", "--set", "2", "--cap", "3"]) == 0
    assert "no profitable deviation" in capsys.readouterr().out


def test_usage_errors_exit_with_two(company, capsys):
    game, _, _ = company
    assert cli.main(["welfare", "--game", game, "--mode", "vstar"]) == 2
    assert cli.main(["check-core", "--game", game, "--kind", "aubin"]) == 2
    assert cli.main(["welfare", "--game", "/nonexistent.json",
                     "--mode", "overlapping"]) == 2


def test_stabilize_writes_an_outcome(company, tmp_path, capsys):
    game, _, _ = company
    out = tmp_path / "stable.json"
    assert cli.main(["stabilize", "--game", game, "--out", str(out)]) == 0
    g = io.load_game(game)
    stable = io.load_outcome(str(out), g)
    from ocfgames import core

    assert core.ttg_membership(g, stable).stable


def test_stabilize_reports_emptiness(tmp_path, capsys):
    game = tmp_path / "empty.json"
    io.save_game(corpus.empty_core_game(), str(game))
    assert cli.main(["stabilize", "--game", str(game)]) == 1
    assert "empty" in capsys.readouterr().out


def test_convexity_falsify_exit_code(tmp_path, capsys):
    game = tmp_path / "g.json"
    io.save_game(corpus.empty_core_game(), str(game))
    assert cli.main(["convexity", "--game", str(game), "--falsify",
                     "--cap", "3"]) == 1
    assert "violation with R=[1]" in capsys.readouterr().out


def test_examples_all_pass(capsys):
    assert cli.main(["examples"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("pass") >= 20


def test_gen_is_byte_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--seed", "42", "--agents", "4", "--max-weight", "6",
            "--tasks", "2"]
    assert cli.main(args + ["--game-out", str(a)]) == 0
    assert cli.main(args + ["--game-out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_zero_agents(tmp_path, capsys):
    out = tmp_path / "bad.json"
    assert cli.main(["gen", "--seed", "1", "--agents", "0",
                     "--game-out", str(out)]) == 2


def test_gen_reduction_round_trip(tmp_path, capsys):
    problem = tmp_path / "kp.json"
    problem.write_text(json.dumps(
        {"items": [[3, 4], [5, 7]], "capacity": 10, "target": 14}
    ))
    game = tmp_path / "kg.json"
    outcome = tmp_path / "ko.json"
    assert cli.main(["gen", "--reduction", "knapsack",
                     "--problem", str(problem),
                     "--game-out", str(game),
                     "--outcome-out", str(outcome)]) == 0
    # target reachable -> the written outcome is not in the core
    assert cli.main(["check-core", "--game", str(game), "--kind", "c",
                     "--outcome", str(outcome)]) == 1


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("kind", ["c", "r", "o"])
def test_check_core_rejects_an_outcome_that_overpays(tmp_path, capsys, kind):
    game = tmp_path / "g.json"
    game.write_text(json.dumps({"agents": 2, "weights": [4, 6],
                                "tasks": [{"threshold": 10, "utility": 25}]}))
    outcome = tmp_path / "o.json"
    outcome.write_text(json.dumps({"structure": [[4, 6]], "payoffs": [[200, 200]]}))
    assert cli.main(["check-core", "--game", str(game), "--kind", kind,
                     "--outcome", str(outcome), "--cap", "2"]) == 2
    assert "payoffs sum to 400, value is 25" in _one_line_error(capsys)


def test_deviate_rejects_an_over_capacity_structure(company, tmp_path, capsys):
    game, _, _ = company
    outcome = tmp_path / "o.json"
    outcome.write_text(json.dumps({"structure": [[5, 6]], "payoffs": [[0, 0]]}))
    assert cli.main(["deviate", "--game", game, "--outcome", str(outcome),
                     "--kind", "c", "--set", "1"]) == 2
    assert "over capacity" in _one_line_error(capsys)


def test_fractional_payoff_literal_exits_two(company, capsys):
    game, _, _ = company
    assert cli.main(["check-core", "--game", game, "--kind", "f",
                     "--payoffs", "1.5,28.5"]) == 2
    _one_line_error(capsys)


@pytest.mark.parametrize("doc", [
    {"agents": 2, "weights": [4, 6], "tasks": [{"threshold": 10}]},
    {"agents": 2, "weights": ["4.5", 6], "tasks": [{"threshold": 10, "utility": 25}]},
], ids=["missing-utility", "decimal-weight"])
def test_malformed_game_file_exits_two(tmp_path, capsys, doc):
    game = tmp_path / "g.json"
    game.write_text(json.dumps(doc))
    assert cli.main(["welfare", "--game", str(game), "--mode", "overlapping"]) == 2
    _one_line_error(capsys)


def test_malformed_order_exits_two(company, capsys):
    game, _, _ = company
    assert cli.main(["convexity", "--game", game, "--construct",
                     "--order", "1,x"]) == 2
    _one_line_error(capsys)


@pytest.mark.parametrize("reduction, doc, message", [
    ("knapsack", None, "needs --problem"),
    ("knapsack", {"capacity": 3}, "without a 'items' key"),
    ("knapsack", {"items": [[1, 2]], "capacity": "x", "target": 5}, "'capacity'"),
    ("knapsack", {"items": [[1, 2, 3]], "capacity": 3, "target": 5}, "pair"),
    ("biclique", {"right": 2, "edges": [[1, 1]], "target": 1}, "without a 'left' key"),
    ("biclique", {"left": 2, "right": 2, "edges": [[1, "1/2"]], "target": 1},
     "must be an integer"),
], ids=["missing-problem", "missing-items", "non-integer-capacity", "item-triple",
        "missing-left", "fractional-edge"])
def test_gen_reduction_rejects_a_malformed_problem(tmp_path, capsys, reduction, doc,
                                                  message):
    args = ["gen", "--reduction", reduction,
            "--game-out", str(tmp_path / "g.json"),
            "--outcome-out", str(tmp_path / "o.json")]
    if doc is not None:
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps(doc))
        args += ["--problem", str(problem)]
    assert cli.main(args) == 2
    assert message in _one_line_error(capsys)
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("kind", ["r", "o"])
def test_check_core_refuses_more_agents_than_the_subset_guard(tmp_path, capsys, kind):
    n = 17  # 2^17 deviator sets
    game = tmp_path / "g.json"
    game.write_text(json.dumps({"agents": n, "weights": [1] * n,
                                "tasks": [{"threshold": n, "utility": n}]}))
    outcome = tmp_path / "o.json"
    outcome.write_text(json.dumps({"structure": [[1] * n], "payoffs": [[1] * n]}))
    assert cli.main(["check-core", "--game", str(game), "--kind", kind,
                     "--outcome", str(outcome)]) == 2
    assert "at most 16 agents" in _one_line_error(capsys)


def test_welfare_partition_search_refuses_more_agents_than_the_subset_guard(
        tmp_path, capsys):
    n = 17  # 2^17 blocks
    game = tmp_path / "g.json"
    game.write_text(json.dumps({"agents": n, "weights": [1] * n,
                                "tasks": [{"threshold": n, "utility": n}]}))
    assert cli.main(["welfare", "--game", str(game),
                     "--mode", "nonoverlapping"]) == 2
    assert "at most 16 agents" in _one_line_error(capsys)


def test_balanced_rejects_an_over_capacity_structure(company, tmp_path, capsys):
    game, _, _ = company  # weights (4, 6)
    structure = tmp_path / "s.json"
    structure.write_text(json.dumps({"structure": [[40, 60], [40, 60]],
                                     "payoffs": [[0, 0], [0, 0]]}))
    assert cli.main(["balanced", "--game", game,
                     "--structure", str(structure)]) == 2
    assert "over capacity" in _one_line_error(capsys)


@pytest.mark.parametrize("args", [
    ["welfare", "--mode", "overlapping"],
    ["check-core", "--kind", "nonoverlapping", "--partition", "1,2",
     "--payoffs", "0,1"],
], ids=["knapsack-profile", "min-payoff-table"])
def test_fine_weight_past_the_dp_budget_exits_two(tmp_path, capsys, args):
    # W = 3 000 010 units of 1/1000003: about 9 million table cells
    game = tmp_path / "g.json"
    game.write_text(json.dumps({"agents": 2, "weights": ["1/1000003", 3],
                                "tasks": [{"threshold": 1, "utility": 1}]}))
    assert cli.main(args + ["--game", str(game)]) == 2
    assert "table cells" in _one_line_error(capsys)


def test_partition_payoff_error_numbers_agents_from_one(tmp_path, capsys):
    game = tmp_path / "g.json"
    game.write_text(json.dumps({"agents": 3, "weights": [1, 1, 1],
                                "tasks": [{"threshold": 1, "utility": 5}]}))
    assert cli.main(["check-core", "--game", str(game), "--kind", "nonoverlapping",
                     "--partition", "1|2,3", "--payoffs", "5,4,0"]) == 2
    assert _one_line_error(capsys) == \
        "error: payoffs for block [2, 3] sum to 4, block value is 5\n"
