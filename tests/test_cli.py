"""Command-line tests: exit codes, output contracts, file determinism.

Each test drives main() directly with temporary files; stdout is the
interface under test, so several tests parse it.
"""

import argparse
import json
import math
from dataclasses import replace

import pytest

from teammax.cli import build_parser, main
from teammax.game import game_to_dict, load_game, save_game
from teammax.generators import diagonal_game, irrational_game, poa_game
from teammax.lp import LpSolveError
from teammax.solvers import SOLVERS


def _generate(tmp_path, *args):
    path = tmp_path / "game.json"
    code = main(["generate", *args, "--out", str(path)])
    assert code == 0
    return path


def test_generate_diagonal_file(tmp_path, capsys):
    path = _generate(tmp_path, "diagonal", "--n", "3", "--m", "2")
    out = capsys.readouterr().out
    assert out.startswith("config {")
    data = json.loads(path.read_text())
    assert len(data["team_utility"]) == 8
    assert data["actions_per_player"] == [2, 2, 2]


def test_generate_random_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["generate", "random", "--n", "3", "--m", "5", "--seed", "7", "--out", str(a)]) == 0
    assert main(["generate", "random", "--n", "3", "--m", "5", "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert main(["generate", "random", "--n", "3", "--m", "5", "--seed", "8", "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_generate_irrational_contains_two(tmp_path):
    path = _generate(tmp_path, "irrational")
    data = json.loads(path.read_text())
    assert 2.0 in data["team_utility"]
    norm = tmp_path / "norm.json"
    assert main(["generate", "irrational", "--normalize", "--out", str(norm)]) == 0
    assert max(json.loads(norm.read_text())["team_utility"]) == 1.0


def test_generate_irrational_flawed_writes_the_sign_flawed_game(tmp_path, capsys):
    path = _generate(tmp_path, "irrational-flawed")
    game, _ = irrational_game(fixed_sign=False)
    assert json.loads(path.read_text()) == game_to_dict(game)
    config = json.loads(capsys.readouterr().out.splitlines()[0][len("config ") :])
    assert config["family"] == "irrational-flawed" and "fixed_sign" not in config


def test_generate_flawed_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "irrational", "--flawed", "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_generate_missing_params_is_usage_error(tmp_path):
    code = main(["generate", "diagonal", "--n", "3", "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_generate_capacity_exceeded(tmp_path):
    code = main(
        ["generate", "diagonal", "--n", "3", "--m", "5000", "--out", str(tmp_path / "x.json")]
    )
    assert code == 4


def test_unknown_flag_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "diagonal", "--frobnicate", "1"])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_solve_correlated_prints_upper_half(tmp_path, capsys):
    path = _generate(tmp_path, "diagonal", "--n", "3", "--m", "2")
    capsys.readouterr()
    assert main(["solve", str(path), "--solver", "reconstruct"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("config {")
    upper = next(l for l in out.splitlines() if l.startswith("upper bound"))
    assert float(upper.split()[-1]) == pytest.approx(0.5, abs=1e-9)


def test_solve_reconstruct_prints_lower_quarter(tmp_path, capsys):
    path = _generate(tmp_path, "diagonal", "--n", "3", "--m", "2")
    capsys.readouterr()
    assert main(["solve", str(path), "--solver", "reconstruct"]) == 0
    out = capsys.readouterr().out
    lower = next(l for l in out.splitlines() if l.startswith("lower bound"))
    assert float(lower.split()[-1]) == pytest.approx(0.25, abs=1e-9)


def test_solve_support_enum_quarter(tmp_path, capsys):
    path = _generate(tmp_path, "diagonal", "--n", "3", "--m", "2")
    capsys.readouterr()
    assert main(["solve", str(path), "--solver", "support-enum", "--epsilon", "0.5"]) == 0
    out = capsys.readouterr().out
    lower = next(l for l in out.splitlines() if l.startswith("lower bound"))
    assert float(lower.split()[-1]) == pytest.approx(0.25, abs=1e-9)


def test_solve_flag_the_solver_does_not_take_is_usage_error(tmp_path, capsys):
    path = _generate(tmp_path, "diagonal", "--n", "3", "--m", "2")
    assert main(["solve", str(path), "--solver", "reconstruct", "--epsilon", "0.5"]) == 2
    assert "does not take epsilon" in capsys.readouterr().err
    # the grid solvers take no count cap, so argparse knows no such flag
    for flag in ("--budget", "--max-evaluations"):
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", str(path), "--solver", "oracle", flag, "3"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_solve_solver_failure_exits_5(tmp_path, capsys, monkeypatch):
    # an LP a solver solves that is not certified optimal is the solver's
    # failure, not the input's
    def failing(*args, **kwargs):
        raise LpSolveError("maxmin value not optimal")

    path = _generate(tmp_path, "diagonal", "--n", "3", "--m", "2")
    capsys.readouterr()
    monkeypatch.setattr("teammax.cli.run_solver", failing)
    assert main(["solve", str(path), "--solver", "reconstruct"]) == 5
    assert capsys.readouterr().err == "error: maxmin value not optimal\n"


def test_solve_flags_are_the_solver_table_parameters(tmp_path, capsys):
    parser = build_parser()
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    own = {"help", "game", "solver", "timeout", "normalize", "out"}
    flags = {
        action.dest: (action.option_strings, action.type)
        for action in commands.choices["solve"]._actions
        if action.dest not in own
    }
    table = {
        key: (["--" + key.replace("_", "-")], kind)
        for _, params, _ in SOLVERS.values()
        for key, (kind, _) in params.items()
    }
    assert flags == table
    # a parameter that two solvers take has one type
    for key, (_, kind) in table.items():
        assert {p[key][0] for _, p, _ in SOLVERS.values() if key in p} == {kind}

    path = _generate(tmp_path, "random", "--n", "3", "--m", "3", "--seed", "3")
    capsys.readouterr()
    # a two-word parameter's flag reaches the config line by its name
    assert main(["solve", str(path), "--solver", "global", "--max-nodes", "5"]) == 0
    assert '"max_nodes": 5' in capsys.readouterr().out.splitlines()[0]
    args = ["solve", str(path), "--solver", "iterated-lp", "--init", "uniformly"]
    assert main(args) == 2
    assert "init must be 'random' or 'uniform'" in capsys.readouterr().err


def test_solve_never_prints_lower_above_upper(tmp_path, capsys):
    path = _generate(tmp_path, "random", "--n", "3", "--m", "3", "--seed", "3")
    capsys.readouterr()
    for solver, extra in (
        ("reconstruct", []),
        ("iterated-lp", ["--restarts", "2", "--seed", "0"]),
        ("support-enum", ["--epsilon", "1.0"]),
        ("oracle", ["--target-error", "0.1"]),
    ):
        assert main(["solve", str(path), "--solver", solver, *extra]) == 0
        lines = capsys.readouterr().out.splitlines()
        values = {l.rsplit(maxsplit=1)[0]: l.split()[-1] for l in lines[1:5]}
        lower, upper = float(values["lower bound"]), float(values["upper bound"])
        assert lower <= upper + 1e-7
        assert upper <= max(float(values["correlated"]), lower)


def test_solve_writes_report_json(tmp_path, capsys):
    path = _generate(tmp_path, "diagonal", "--n", "3", "--m", "2")
    report_path = tmp_path / "report.json"
    assert main(
        ["solve", str(path), "--solver", "reconstruct", "--out", str(report_path)]
    ) == 0
    report = json.loads(report_path.read_text())
    assert report["lower_bound"] == pytest.approx(0.25, abs=1e-9)
    assert report["upper_bound"] == report["correlated_bound"]
    assert report["correlated_bound"] == pytest.approx(0.5, abs=1e-9)
    assert report["converged"] is True
    assert len(report["witness"]) == 2
    assert "wall" not in json.dumps(report)  # report stays deterministic


def test_solve_config_line_names_the_report_path(tmp_path, capsys):
    path = _generate(tmp_path, "diagonal", "--n", "3", "--m", "2")
    report_path = tmp_path / "report.json"
    args = ["solve", str(path), "--solver", "reconstruct"]
    capsys.readouterr()
    for extra, out in (([], None), (["--out", str(report_path)], str(report_path))):
        assert main([*args, *extra]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        config = json.loads(line[len("config ") :])
        assert config["out"] == out
        assert config["game"] == str(path) and "func" not in config


def test_solve_stdout_deterministic(tmp_path, capsys):
    path = _generate(tmp_path, "random", "--n", "3", "--m", "3", "--seed", "1")
    capsys.readouterr()
    args = ["solve", str(path), "--solver", "iterated-lp", "--restarts", "3", "--seed", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_solve_missing_file_is_input_error(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json"), "--solver", "reconstruct"]) == 3


def test_solve_corrupt_file_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["solve", str(bad), "--solver", "reconstruct"]) == 3


def test_solve_file_that_is_not_utf8_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["solve", str(bad), "--solver", "reconstruct"]) == 3


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(num_players=3.9), "invalid game document: num_players must be int"),
        (
            dict(actions_per_player=[2.7, 2, 2]),
            "invalid game document: actions_per_player must be int",
        ),
        (
            dict(team_utility=["1", 0, 0, 0, 0, 0, 0, 0]),
            "invalid game document: team_utility must be float",
        ),
        (
            dict(team_utility=[True, 0, 0, 0, 0, 0, 0, 0]),
            "invalid game document: team_utility must be float",
        ),
        (
            dict(team_utility=[None, 0, 0, 0, 0, 0, 0, 0]),
            "invalid game document: team_utility must be float",
        ),
        (dict(seed="5"), "invalid game document: seed must be int"),
        (dict(comment="hand-made"), "game document has unknown key 'comment'"),
    ],
)
def test_solve_malformed_game_is_input_error_naming_the_key(
    tmp_path, capsys, change, message
):
    game, _ = poa_game()
    path = tmp_path / "game.json"
    path.write_text(json.dumps({**game_to_dict(game), **change}))
    capsys.readouterr()
    assert main(["solve", str(path), "--solver", "reconstruct"]) == 3
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: " + message)


def test_evaluate_profile_entry_string_is_input_error_naming_the_key(
    tmp_path, capsys
):
    game_path = _generate(tmp_path, "diagonal", "--n", "3", "--m", "2")
    profile_path = tmp_path / "team.json"
    profile_path.write_text(json.dumps({"strategies": [["0.5", "0.5"], [0.5, 0.5]]}))
    capsys.readouterr()
    assert main(["evaluate", str(game_path), "--profile", str(profile_path)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: invalid profile document: strategies[0] must be float, got '0.5'"
    ]


def test_solve_unnormalized_oracle_is_usage_error(tmp_path):
    path = _generate(tmp_path, "irrational")
    assert main(["solve", str(path), "--solver", "oracle"]) == 2
    assert main(["solve", str(path), "--solver", "oracle", "--normalize"]) == 0


def test_evaluate_team_profile(tmp_path, capsys):
    game_path = _generate(tmp_path, "diagonal", "--n", "3", "--m", "2")
    profile_path = tmp_path / "team.json"
    profile_path.write_text('{"strategies": [[0.5, 0.5], [0.5, 0.5]]}')
    capsys.readouterr()
    assert main(["evaluate", str(game_path), "--profile", str(profile_path)]) == 0
    out = capsys.readouterr().out
    value = next(l for l in out.splitlines() if "worst-case" in l)
    assert float(value.split()[-1]) == pytest.approx(0.25, abs=1e-9)


def test_evaluate_full_profile_reports_expected_value(tmp_path, capsys):
    game_path = _generate(tmp_path, "diagonal", "--n", "3", "--m", "2")
    profile_path = tmp_path / "full.json"
    profile_path.write_text('{"strategies": [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}')
    capsys.readouterr()
    assert main(["evaluate", str(game_path), "--profile", str(profile_path)]) == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if "vs given adversary" in l)
    assert float(line.split()[-1]) == pytest.approx(0.0, abs=1e-12)


def test_evaluate_wrong_size_profile(tmp_path):
    game_path = _generate(tmp_path, "diagonal", "--n", "3", "--m", "2")
    profile_path = tmp_path / "short.json"
    profile_path.write_text('{"strategies": [[0.5, 0.5]]}')
    assert main(["evaluate", str(game_path), "--profile", str(profile_path)]) == 3


def test_verify_nash_accepts_equilibrium(tmp_path, capsys):
    game, facts = poa_game()
    game_path = tmp_path / "poa.json"
    save_game(game, game_path)
    profile_path = tmp_path / "eq.json"
    profile_path.write_text('{"strategies": [[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]}')
    capsys.readouterr()
    code = main(["verify-nash", str(game_path), "--profile", str(profile_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "equilibrium true" in out


def test_verify_nash_rejects_deviation_with_gap(tmp_path, capsys):
    game, _ = poa_game()
    game_path = tmp_path / "poa.json"
    save_game(game, game_path)
    profile_path = tmp_path / "bad.json"
    profile_path.write_text('{"strategies": [[0.9, 0.1], [0.0, 1.0], [1.0, 0.0]]}')
    capsys.readouterr()
    code = main(["verify-nash", str(game_path), "--profile", str(profile_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "equilibrium false" in out
    assert "max gap" in out


def test_verify_nash_huge_tolerance_accepts_anything(tmp_path):
    game, _ = poa_game()
    game_path = tmp_path / "poa.json"
    save_game(game, game_path)
    profile_path = tmp_path / "any.json"
    profile_path.write_text('{"strategies": [[0.9, 0.1], [0.0, 1.0], [1.0, 0.0]]}')
    assert main(
        ["verify-nash", str(game_path), "--profile", str(profile_path), "--tol", "1.0"]
    ) == 0


def _uniform_poa(tmp_path):
    # every player of poa mixing uniformly: an equilibrium with no gap
    game_path = tmp_path / "poa.json"
    save_game(poa_game()[0], game_path)
    profile_path = tmp_path / "uniform.json"
    profile_path.write_text('{"strategies": [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]}')
    return str(game_path), str(profile_path)


def test_verify_nash_prints_the_gap_as_a_plain_float(tmp_path, capsys):
    # the same line under every numpy, not np.float64(0.0)
    game_path, profile_path = _uniform_poa(tmp_path)
    capsys.readouterr()
    assert main(["verify-nash", game_path, "--profile", profile_path]) == 0
    assert "max gap 0.0 at player 0" in capsys.readouterr().out.splitlines()


def test_verify_nash_nan_tolerance_is_a_usage_error(tmp_path, capsys):
    game_path, profile_path = _uniform_poa(tmp_path)
    capsys.readouterr()
    code = main(["verify-nash", game_path, "--profile", profile_path, "--tol", "nan"])
    assert code == 2
    assert "tolerance must be nonnegative" in capsys.readouterr().err


def test_verify_nash_needs_every_player(tmp_path):
    game, _ = poa_game()
    game_path = tmp_path / "poa.json"
    save_game(game, game_path)
    profile_path = tmp_path / "team-only.json"
    profile_path.write_text('{"strategies": [[0.5, 0.5], [0.5, 0.5]]}')
    assert main(["verify-nash", str(game_path), "--profile", str(profile_path)]) == 3


def test_verify_nash_wrong_action_counts_is_input_error(tmp_path, capsys):
    # evaluate and verify-nash read profiles with the same loader
    game, _ = poa_game()
    game_path = tmp_path / "poa.json"
    save_game(game, game_path)
    profile_path = tmp_path / "wide.json"
    profile_path.write_text('{"strategies": [[0.5, 0.5], [0.2, 0.3, 0.5], [1.0, 0.0]]}')
    for command in ("verify-nash", "evaluate"):
        assert main([command, str(game_path), "--profile", str(profile_path)]) == 3
        assert "match neither the team" in capsys.readouterr().err


def test_pou_subcommand(tmp_path, capsys):
    game_path = _generate(tmp_path, "diagonal", "--n", "3", "--m", "2")
    # the same game with payoffs 3 u + 1, which --normalize maps back onto
    # [0, 1]: without it the premium would be 2.5 / 1.75
    game = load_game(game_path)
    scaled_path = tmp_path / "scaled.json"
    save_game(replace(game, team_utility=3.0 * game.team_utility + 1.0), scaled_path)
    capsys.readouterr()
    for path, flags in ((game_path, []), (scaled_path, ["--normalize"])):
        assert main(["pou", str(path), *flags]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("premium bracket"))
        assert float(line.split()[-1].rstrip("]")) == pytest.approx(2.0, abs=1e-7)


def test_experiment_end_to_end(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "games": [
                    {"family": "diagonal", "n": 3, "m": 2, "seeds": [0, 1]},
                    {"family": "diagonal", "n": 3, "m": 3, "seeds": [0, 1]},
                ],
                "solvers": [{"name": "reconstruct"}],
                "timeout": 60.0,
                "record_wall_time": False,
            }
        )
    )
    out_a = tmp_path / "run-a"
    out_b = tmp_path / "run-b"
    assert main(["experiment", str(config_path), "--out-dir", str(out_a)]) == 0
    assert main(["experiment", str(config_path), "--out-dir", str(out_b)]) == 0
    results_a = (out_a / "results.csv").read_bytes()
    results_b = (out_b / "results.csv").read_bytes()
    assert results_a == results_b
    assert (out_a / "aggregate.csv").read_bytes() == (out_b / "aggregate.csv").read_bytes()
    lines = results_a.decode().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("instance_id,")


def test_experiment_bad_config_is_input_error(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"games": []}))
    assert main(["experiment", str(config_path), "--out-dir", str(tmp_path / "out")]) == 3


def test_experiment_malformed_config_exits_3_before_any_output(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "games": [{"family": "diagonal", "n": 3, "m": 2}],
                "solvers": [{"name": "iterated-lp", "params": {"restarts": 2.7}}],
            }
        )
    )
    out_dir = tmp_path / "out"
    assert main(["experiment", str(config_path), "--out-dir", str(out_dir)]) == 3
    assert not out_dir.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: solver 'iterated-lp': restarts must be int, got 2.7"
    ]


@pytest.mark.parametrize(
    "game, solver, key",
    [
        ({"family": "diagonal", "n": 3}, {"name": "reconstruct"}, "requires m"),
        ({"family": "diagonal", "n": 2, "m": 2}, {"name": "reconstruct"}, "games[0]"),
        (
            {"family": "poa"},
            {"name": "iterated-lp", "params": {"init": "uniformly"}},
            "init",
        ),
        # global's ascent takes no parameters of its own
        ({"family": "poa"}, {"name": "global", "params": {"restarts": 3}}, "restarts"),
        (
            {"family": "poa"},
            {"name": "support-enum", "params": {"epsilon": 2}},
            "epsilon",
        ),
        ({"family": "poa"}, {"name": "correlated"}, "'correlated'"),
        (
            {"family": "poa"},
            {"name": "support-enum", "params": {"upper_bound": 0.5}},
            "upper_bound",
        ),
        # the ascent's round cap is a constant, not a parameter
        (
            {"family": "poa"},
            {"name": "iterated-lp", "params": {"max_rounds": -3}},
            "max_rounds",
        ),
        ({"family": "poa"}, {"name": "global", "params": {"max_nodes": -1}}, "max_nodes"),
        # count caps that neither grid solver takes: timeout stops them
        (
            {"family": "poa"},
            {"name": "oracle", "params": {"max_evaluations": 20_000_000}},
            "max_evaluations",
        ),
        (
            {"family": "poa"},
            {"name": "support-enum", "params": {"budget": 10}},
            "budget",
        ),
        # a family takes no parameters: the sign-flawed game is its own family
        (
            {"family": "irrational", "params": {"fixed_sign": False}},
            {"name": "reconstruct"},
            "games[0] has unknown key 'params'",
        ),
    ],
)
def test_experiment_rejects_before_any_output(tmp_path, capsys, game, solver, key):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"games": [game], "solvers": [solver]}))
    out_dir = tmp_path / "out"
    assert main(["experiment", str(config_path), "--out-dir", str(out_dir)]) == 3
    assert not out_dir.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and key in line


def test_experiment_nan_timeout_exits_3_before_any_output(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "games": [{"family": "poa"}],
                "solvers": [{"name": "reconstruct"}],
                "timeout": math.nan,
            }
        )
    )
    out_dir = tmp_path / "out"
    assert main(["experiment", str(config_path), "--out-dir", str(out_dir)]) == 3
    assert not out_dir.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: timeout must be positive, got nan"]


def test_experiment_int_timeout_prints_as_float(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "games": [{"family": "poa"}],
                "solvers": [{"name": "reconstruct"}],
                "timeout": 60,
                "record_wall_time": False,
            }
        )
    )
    assert main(["experiment", str(config_path), "--out-dir", str(tmp_path / "o")]) == 0
    assert '"timeout": 60.0' in capsys.readouterr().out.splitlines()[0]
