from __future__ import annotations

import contextlib
import io as io_module
import json
import os
import tempfile
from fractions import Fraction as Q

import pytest
from hypothesis import event, given, settings, strategies as st

from ocfgames import cli, corpus, io, lp
from ocfgames.model import CoalitionStructure, Outcome, PartialCoalition, validate_outcome

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

    assert core.check_group_rationality(g, stable).stable


def test_stable_outcomes_read_back_as_plain_outcomes(company, tmp_path, capsys):
    game, _, _ = company
    stable, balanced = tmp_path / "stable.json", tmp_path / "balanced.json"
    assert cli.main(["stabilize", "--game", game, "--out", str(stable)]) == 0
    assert cli.main(["balanced", "--game", game, "--structure", str(stable),
                     "--out", str(balanced)]) == 0
    for out in (stable, balanced):
        assert cli.main(["check-core", "--game", game, "--kind", "c",
                         "--outcome", str(out)]) == 0


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


def test_validation_messages_number_agents_from_one(company, tmp_path, capsys):
    game, _, _ = company  # weights (4, 6), tasks (5, 15), (4, 10)
    structure = tmp_path / "s.json"
    structure.write_text(json.dumps({"structure": [[40, 60], [40, 60]],
                                     "payoffs": [[0, 0], [0, 0]]}))
    assert cli.main(["balanced", "--game", game,
                     "--structure", str(structure)]) == 2
    assert _one_line_error(capsys) == ("error: invalid structure: agent 1 over "
                                       "capacity by 76; agent 2 over capacity by 114\n")
    outcome = tmp_path / "o.json"
    outcome.write_text(json.dumps({"structure": [[0, 4]], "payoffs": [[1, 9]]}))
    assert cli.main(["deviate", "--game", game, "--outcome", str(outcome),
                     "--kind", "c", "--set", "1"]) == 2
    assert _one_line_error(capsys) == "error: coalition 0: non-contributor 1 paid 1\n"
    g = io.load_game(game)
    cs = CoalitionStructure((PartialCoalition((Q(4), Q(1))),))
    assert validate_outcome(g, Outcome(cs, ((Q(-1), Q(16)),))) == [
        "coalition 0: negative payoff -1 to agent 1",
        "agent 1 paid -1 in total, can get 10 alone",
    ]


def test_stabilize_exits_two_when_constraint_generation_runs_out(
    company, monkeypatch, capsys
):
    game, _, _ = company  # its stable outcome takes two separation rounds
    monkeypatch.setattr(lp, "SEPARATION_ROUNDS", 1)
    assert cli.main(["stabilize", "--game", game]) == 2
    assert _one_line_error(capsys) == \
        "error: constraint generation did not converge in 1 rounds\n"


# -- fuzzing: whatever the arguments and files, one of the three exit codes
# and never a traceback

_NUMBERS = st.one_of(
    st.integers(min_value=-3, max_value=12),
    st.sampled_from(["1/2", "7/3", "-1", "0", "x", "1.5", "", "1/0"]),
    st.floats(min_value=-2, max_value=9, allow_nan=False),
    st.none(), st.booleans(), st.just([]), st.just({}),
)


def _small(numbers, max_size=4):
    return st.lists(numbers, min_size=0, max_size=max_size)


_GAME_DOCS = st.one_of(
    st.builds(
        lambda n, weights, tasks: {"agents": n, "weights": weights, "tasks": tasks},
        st.integers(min_value=-1, max_value=3),
        _small(st.one_of(st.integers(min_value=1, max_value=4), _NUMBERS), 3),
        _small(st.fixed_dictionaries(
            {"threshold": st.one_of(st.integers(min_value=0, max_value=8), _NUMBERS),
             "utility": st.one_of(st.integers(min_value=0, max_value=20), _NUMBERS)}
        ), 2),
    ),
    st.builds(
        lambda n, weights, rules: {"agents": n, "weights": weights, "rules": rules},
        st.integers(min_value=1, max_value=3),
        _small(st.integers(min_value=1, max_value=4), 3),
        _small(st.fixed_dictionaries({
            "requirements": _small(st.fixed_dictionaries({
                "agents": _small(st.one_of(st.integers(min_value=0, max_value=4),
                                           _NUMBERS), 3),
                "min": st.one_of(st.integers(min_value=0, max_value=5), _NUMBERS),
            }), 2),
            "value": st.one_of(st.integers(min_value=0, max_value=20), _NUMBERS),
        }), 2),
    ),
    st.dictionaries(st.sampled_from(["agents", "weights", "tasks", "rules"]),
                    _NUMBERS, max_size=4),
    _NUMBERS,
)
_OUTCOME_DOCS = st.one_of(
    st.fixed_dictionaries({
        "structure": _small(_small(st.one_of(st.integers(min_value=0, max_value=4),
                                             _NUMBERS), 3), 2),
        "payoffs": _small(_small(st.one_of(st.integers(min_value=0, max_value=12),
                                           _NUMBERS), 3), 2),
    }),
    st.dictionaries(st.sampled_from(["structure", "payoffs"]), _NUMBERS, max_size=2),
)
# well-formed files by flag, so that the fuzzer also reaches the analyses
_VALID_FILES = {flag: [json.dumps(doc) for doc in docs] for flag, docs in {
    "--game": (
        {"agents": 2, "weights": [4, 6], "tasks": [
            {"threshold": 5, "utility": 15}, {"threshold": 4, "utility": 10}]},
        {"agents": 3, "weights": [1, 2, "3/2"], "tasks": [{"threshold": 3, "utility": 7}]},
        {"agents": 2, "weights": [2, 3], "rules": [
            {"requirements": [{"agents": [1], "min": 1}, {"agents": [2], "min": 2}],
             "value": 9},
            {"requirements": [{"agents": [2], "min": "3/2"}], "value": 4}]},
    ),
    "--outcome": (
        {"structure": [[1, 4], [3, 2]], "payoffs": [[7, 8], [9, 6]]},
        {"structure": [[4, 6]], "payoffs": [[10, 20]]},
        {"structure": [[2, 3]], "payoffs": [[4, 5]]},
        {"structure": [[1, 2, 0]], "payoffs": [[0, 7, 0]]},
    ),
    "--problem": (
        {"weights": [3, 5], "capacity": 6, "values": [4, 7], "target": 7},
    ),
}.items()}
_VALID_FILES["--structure"] = _VALID_FILES["--outcome"]
_BAD_FILES = st.one_of(
    _GAME_DOCS.map(json.dumps), _OUTCOME_DOCS.map(json.dumps),
    st.sampled_from(["", "{", "[1, 2]", "null", "{\"agents\": 2,}"]),
)


def _mostly(good, bad):
    """A draw from ``good`` four times in five, from ``bad`` otherwise."""
    return st.integers(0, 4).flatmap(lambda k: bad if k == 0 else good)


def _values(good, bad):
    return _mostly(st.sampled_from(good), st.sampled_from(bad))


_FLAG_VALUES = {
    "--kind": _values(["c", "r", "o", "f", "aubin", "nonoverlapping"], ["z"]),
    "--mode": _values(["overlapping", "nonoverlapping", "vstar"], ["x"]),
    "--set": _values(["1", "2", "1,2", "1,3"], ["0", "4", "a", ""]),
    "--payoffs": _values(["5,4", "1/2,3,0", "1,1,1", "15,15"], ["1.5,2", "x", ""]),
    "--partition": _values(["1|2", "1,2", "1|2,3"], ["3|", "x"]),
    "--order": _values(["1,2", "2,1", "1,2,3"], ["1,1", "x"]),
    "--grid": _values(["1", "2"], ["-1", "0", "x"]),
    "--cap": _values(["0", "1", "2", "3"], ["-1", "x"]),
    "--budget": _values(["0", "5"], ["-1", "x"]),
    "--agents": _values(["2", "3"], ["-1", "0"]),
    "--max-weight": _values(["3"], ["0"]),
    "--tasks": _values(["2"], ["0"]),
    "--seed": _values(["0", "7"], ["x"]),
    "--reduction": _values(["knapsack", "biclique"], ["x"]),
}
_FILE_FLAGS = ("--game", "--outcome", "--structure", "--problem")
_OUT_FLAGS = ("--out", "--game-out", "--outcome-out")
_SWITCHES = ("--construct", "--falsify", "--rules", "--help")
_COMMANDS = {  # (required flags, optional flags) of each command
    "welfare": (("--game", "--mode"), ("--set", "--out", "--grid", "--cap")),
    "check-core": (("--game", "--kind"),
                   ("--outcome", "--payoffs", "--partition", "--grid", "--cap")),
    "stabilize": (("--game",), ("--out",)),
    "balanced": (("--game", "--structure"), ("--out",)),
    "deviate": (("--game", "--outcome", "--kind", "--set"), ("--grid", "--cap")),
    "convexity": (("--game",), ("--construct", "--falsify", "--order", "--budget",
                                "--out", "--grid", "--cap")),
    "gen": (("--game-out",), ("--reduction", "--problem", "--seed", "--agents",
                              "--max-weight", "--tasks", "--rules", "--outcome-out")),
}
_ALL_FLAGS = sorted(set(_FLAG_VALUES) | set(_FILE_FLAGS) | set(_OUT_FLAGS) | set(_SWITCHES))


@st.composite
def _invocations(draw):
    """An argument list for ``ocf`` and the files it names, as
    (argv with file placeholders, {placeholder: text}): a command with its
    required flags, some of its optional ones and, at times, a stray flag."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional = _COMMANDS[command]
    flags = list(required) + [flag for flag in optional if draw(st.booleans())]
    if draw(st.integers(0, 4)) == 0:
        flags.append(draw(st.sampled_from(_ALL_FLAGS)))
    argv = [command]
    files = {}
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        if flag in _FLAG_VALUES:
            argv.append(draw(_FLAG_VALUES[flag]))
        elif flag in _FILE_FLAGS:
            name = f"in{len(files)}.json"
            files[name] = draw(_mostly(st.sampled_from(_VALID_FILES[flag]), _BAD_FILES))
            argv.append(name)
        elif flag in _OUT_FLAGS:
            argv.append(draw(st.sampled_from(["out.json", "missing/out.json"])))
    return argv, files


@settings(max_examples=400, deadline=None)
@given(_invocations())
def test_cli_fuzz_exits_with_a_known_code_and_no_traceback(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        args = [os.path.join(tmp, a) if a in files or a.endswith("out.json") else a
                for a in argv]
        err = io_module.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io_module.StringIO()):
            try:
                code = cli.main(args)
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
    event(f"exit {code}")
    assert code in (0, 1, 2), (argv, files, code)
    assert "Traceback" not in err.getvalue()
    if code == 2 and err.getvalue().startswith("error: "):
        assert err.getvalue().count("\n") == 1, err.getvalue()


@pytest.mark.parametrize("kind", ["c", "r", "o"])
def test_check_core_on_an_outcome_without_coalitions(company, tmp_path, capsys, kind):
    game, _, _ = company
    outcome = tmp_path / "o.json"
    outcome.write_text(json.dumps({"structure": [], "payoffs": []}))
    assert cli.main(["check-core", "--game", game, "--kind", kind,
                     "--outcome", str(outcome)]) == 1
    assert capsys.readouterr().out.startswith("unstable: blocking set [1]\nachievable 10\n")


def test_a_rule_without_a_positive_minimum_is_refused(tmp_path, capsys):
    """With or without a cap: such a rule would pay for an empty coalition."""
    game = tmp_path / "g.json"
    outcome = tmp_path / "o.json"
    outcome.write_text(json.dumps({"structure": [[2, 3]], "payoffs": [[1, 4]]}))
    argv = ["check-core", "--game", str(game), "--kind", "r", "--outcome", str(outcome)]
    for requirements in ([{"agents": [1], "min": 0}],
                         [{"agents": [1], "min": 0}, {"agents": [2], "min": 0}],
                         []):
        game.write_text(json.dumps({"agents": 2, "weights": [2, 3], "rules": [
            {"requirements": requirements, "value": 5}]}))
        for extra in ([], ["--cap", "2"]):
            assert cli.main(argv + extra) == 2
            assert _one_line_error(capsys) == "error: rule 1 has positive value and " \
                "no positive minimum: value is unbounded\n"


_RESOLUTION_COMMANDS = (
    ["welfare", "--mode", "vstar", "--set", "1"],
    ["check-core", "--kind", "c", "--outcome", "OUTCOME"],
    ["check-core", "--kind", "r", "--outcome", "OUTCOME"],
    ["check-core", "--kind", "o", "--outcome", "OUTCOME"],
    ["deviate", "--kind", "r", "--set", "1", "--outcome", "OUTCOME"],
    ["convexity", "--falsify"],
)
_BAD_VALUES = {"--grid": ("0", 1), "--cap": ("-1", 0), "--budget": ("-1", 0)}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command in _RESOLUTION_COMMANDS for flag in ("--grid", "--cap")
] + [(_RESOLUTION_COMMANDS[-1], "--budget")])
def test_an_out_of_range_resolution_flag_exits_two(company, tmp_path, capsys,
                                                   command, flag):
    game, _, _ = company
    outcome = tmp_path / "o.json"
    outcome.write_text(json.dumps({"structure": [[4, 6]], "payoffs": [[6, 9]]}))
    argv = [str(outcome) if a == "OUTCOME" else a for a in command]
    value, least = _BAD_VALUES[flag]
    assert cli.main(argv + ["--game", game, flag, value]) == 2
    assert _one_line_error(capsys) == f"error: {flag} must be >= {least}, got {value}\n"


@pytest.mark.parametrize("error", [
    AssertionError("profile table inconsistent"),
    ZeroDivisionError("division by zero"),
    RuntimeError("repeated cut"),
])
def test_an_internal_error_exits_three_with_one_line(company, monkeypatch, capsys, error):
    game, x, _ = company

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli.core, "check_group_rationality", fail)
    assert cli.main(["check-core", "--game", game, "--kind", "c", "--outcome", x]) == 3
    err = capsys.readouterr().err
    assert err == f"internal error: {type(error).__name__}: {error}\n"


@pytest.mark.parametrize("weights, thresholds, kind", [
    ([300000, 300000], [250000, 400000], "r"),
    ([300000, 300000], [250000, 400000], "o"),
    ([300000, 300000, 300000], [890000], "r"),
], ids=["two-agents-r", "two-agents-o", "three-agents-r"])
def test_large_weights_past_the_vector_limit_exit_two(tmp_path, capsys, weights,
                                                      thresholds, kind):
    """Grid-1 deviation search over weights in the hundreds of thousands has
    more minimal vectors than VECTOR_LIMIT: one line, not a hang."""
    game = tmp_path / "g.json"
    game.write_text(json.dumps({"agents": len(weights), "weights": weights, "tasks": [
        {"threshold": t, "utility": 10 * (k + 1)} for k, t in enumerate(thresholds)]}))
    outcome = tmp_path / "o.json"
    pays = [10 * len(thresholds) // len(weights)] * len(weights)
    pays[0] += 10 * len(thresholds) - sum(pays)
    outcome.write_text(json.dumps({"structure": [weights], "payoffs": [pays]}))
    assert cli.main(["check-core", "--game", str(game), "--kind", kind,
                     "--outcome", str(outcome)]) == 2
    assert "enumeration too large" in _one_line_error(capsys)


def test_a_rule_cover_past_its_instance_budget_exits_two(tmp_path, capsys):
    """1500 instances of a one-unit rule used to recurse past the
    interpreter's limit (exit 3); the cover's budget refuses them."""
    game = tmp_path / "g.json"
    game.write_text(json.dumps({"agents": 1, "weights": [1500], "rules": [
        {"requirements": [{"agents": [1], "min": 1}], "value": 1}]}))
    argv = ["welfare", "--game", str(game), "--mode", "vstar", "--set", "1"]
    assert cli.main(argv) == 2
    assert "--cap" in _one_line_error(capsys)
    assert cli.main(argv + ["--cap", "3"]) == 0
    assert "value 3" in capsys.readouterr().out


@pytest.mark.parametrize("game, outcome, argv", [
    ({"agents": True, "weights": [True], "tasks": [{"threshold": 1, "utility": True}]},
     None, ["welfare", "--mode", "overlapping"]),
    ({"agents": 1, "weights": [1], "tasks": [{"threshold": 1, "utility": True}]},
     None, ["welfare", "--mode", "overlapping"]),
    ({"agents": 1, "weights": [1], "tasks": [{"threshold": 1, "utility": 1}]},
     {"structure": [[True]], "payoffs": [[True]]}, ["check-core", "--kind", "c"]),
    ({"agents": 2, "weights": [1, 1],
      "rules": [{"requirements": [{"agents": [True], "min": 1}], "value": 1}]},
     None, ["welfare", "--mode", "vstar", "--set", "1"]),
], ids=["agent-count", "utility", "outcome-entries", "agent-label"])
def test_json_booleans_are_not_numbers(tmp_path, capsys, game, outcome, argv):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(game))
    argv = argv + ["--game", str(path)]
    if outcome is not None:
        (tmp_path / "o.json").write_text(json.dumps(outcome))
        argv += ["--outcome", str(tmp_path / "o.json")]
    assert cli.main(argv) == 2
    _one_line_error(capsys)
