"""Metrics and experiment-harness tests: premium estimates against
closed-form family values, ratio conventions, CSV determinism."""

import csv
import json
import math
import pathlib
import re

import numpy as np
import pytest

from teammax.game import CapacityError, TeamGame, normalize_payoffs
from teammax.metrics import (
    AGGREGATE_HEADER,
    CSV_HEADER,
    AggregateRow,
    ConfigError,
    ExperimentConfig,
    GameSpec,
    ResultRow,
    SolverSpec,
    aggregate_rows,
    bracket_ratio,
    compute_pou,
    experiment_config_from_dict,
    load_experiment_config,
    run_experiment,
    write_aggregate_csv,
    write_rows_csv,
    _premium,
)
from teammax.generators import diagonal_game, poa_game, pou_one_game, random_team_game
from teammax.solvers import SOLVER_NAMES, correlated_team_maxmin


# ---------------------------------------------------------------------------
# premium estimates


def test_pou_on_diagonal_with_oracle_is_exact():
    # a finished oracle sweep brackets the premium, and its lower bound is
    # the exact team-maxmin value on the diagonal family
    game, facts = diagonal_game(3, 2)
    report = compute_pou(game, team_solver="oracle", target_error=0.01)
    assert report.report.converged
    assert report.low <= facts.known_pou <= report.high
    assert report.high == pytest.approx(2.0, abs=1e-9)
    assert report.report.correlated_bound == pytest.approx(0.5, abs=1e-9)
    assert report.report.lower_bound == pytest.approx(0.25, abs=1e-9)


@pytest.mark.parametrize("timeout, exact", [(None, True), (0.0, False)])
def test_pou_is_exact_only_when_the_oracle_sweep_finishes(timeout, exact):
    # a timeout of 0 stops the sweep after its first chunk of probe rows; a
    # sweep cut short certifies no error, so its upper bound is v_C and the
    # bracket's low end is the trivial 1
    game, _ = poa_game()
    report = compute_pou(
        game, team_solver="oracle", timeout=timeout, target_error=0.002
    )
    bounds = report.report
    assert bounds.converged is exact
    assert report.high == bounds.correlated_bound / bounds.lower_bound
    assert report.low == bounds.correlated_bound / bounds.upper_bound
    if exact:
        assert bounds.upper_bound <= bounds.lower_bound + 0.002 + 1e-12
        assert report.low > 1.0
    else:
        assert bounds.upper_bound == bounds.correlated_bound
        assert report.low == 1.0


def test_pou_on_diagonal_with_reconstruction():
    for m in (2, 3, 4):
        game, facts = diagonal_game(3, m)
        report = compute_pou(game, team_solver="reconstruct")
        assert report.high == pytest.approx(float(m), abs=1e-7)


def test_pou_is_one_when_correlation_cannot_help():
    game, facts = pou_one_game()
    report = compute_pou(game, team_solver="oracle", target_error=0.01)
    assert report.high == pytest.approx(1.0, abs=1e-9)


def test_pou_estimate_dominates_exact_premium():
    # a lower bound below the team-maxmin value can only inflate the estimate
    game, facts = diagonal_game(3, 3)
    weak = compute_pou(game, team_solver="reconstruct")
    assert weak.high >= facts.known_pou - 1e-7


def test_pou_degenerate_all_zero_game():
    game = TeamGame(3, (2, 2, 2), np.zeros(8))
    report = compute_pou(game, team_solver="reconstruct")
    assert report.low == report.high == 1.0


# small settings, so that every solver finishes in well under a second
_POU_PARAMS = {
    "reconstruct": {},
    "support-enum": {"epsilon": 0.5},
    "iterated-lp": {"restarts": 2},
    "global": {"accuracy": 1e-2, "max_nodes": 50},
    "oracle": {"target_error": 0.2},
}


@pytest.mark.parametrize("solver", SOLVER_NAMES)
def test_pou_solves_the_correlated_lp_once(monkeypatch, solver):
    # v_C is read off the solver's report, not solved again for the numerator
    calls = []

    def counted(game):
        calls.append(game)
        return correlated_team_maxmin(game)

    monkeypatch.setattr("teammax.solvers.correlated_team_maxmin", counted)
    # metrics does not import it; should it ever, its calls count as well
    monkeypatch.setattr(
        "teammax.metrics.correlated_team_maxmin", counted, raising=False
    )
    game = normalize_payoffs(random_team_game(3, 4, seed=0))
    report = compute_pou(game, team_solver=solver, **_POU_PARAMS[solver])
    assert len(calls) == 1
    assert report.report.correlated_bound == correlated_team_maxmin(game)[1]


@pytest.mark.parametrize("solver", SOLVER_NAMES)
def test_pou_bracket_divides_v_c_by_the_reports_bounds(solver):
    game = normalize_payoffs(random_team_game(3, 4, seed=0))
    report = compute_pou(game, team_solver=solver, **_POU_PARAMS[solver])
    bounds = report.report
    assert report.low == bounds.correlated_bound / bounds.upper_bound
    assert report.high == bounds.correlated_bound / bounds.lower_bound
    assert report.low <= report.high


@pytest.mark.parametrize("n, m", [(3, 2), (3, 3), (3, 4), (4, 2)])
def test_global_pou_brackets_hold_the_worst_case_premium(n, m):
    # the diagonal family attains the efficiency bound m^(n-2)
    game, _ = diagonal_game(n, m)
    report = compute_pou(game, team_solver="global", accuracy=1e-2)
    worst = float(m) ** (n - 2)
    assert report.low <= worst * (1 + 1e-9)
    assert worst * (1 - 1e-9) <= report.high


def test_pou_raises_over_the_joint_cap_before_the_solver_runs(monkeypatch):
    # over to_joint_game's cap a report's correlated bound is the largest
    # payoff, not v_C, so the premium is refused rather than divided from it
    def no_solver(*args, **params):
        raise AssertionError("ran the solver")

    monkeypatch.setattr("teammax.game.MAX_JOINT_ROWS", 3)
    monkeypatch.setattr("teammax.metrics.run_solver", no_solver)
    game = normalize_payoffs(random_team_game(3, 2, seed=0))
    with pytest.raises(CapacityError, match="exceeds the cap 3"):
        compute_pou(game, team_solver="iterated-lp")


def test_premium_of_a_zero_bound():
    # v_C over a zero bound: 1 when v_C is zero too (within 1e-12), else
    # infinite, as for a team that guarantees nothing alone but gains by
    # correlating
    assert _premium(1e-13, 0.0) == 1.0
    assert _premium(0.5, 0.0) == math.inf


def test_bracket_ratio():
    assert bracket_ratio(0.25, 0.5) == pytest.approx(0.5)
    assert bracket_ratio(0.0, 0.0) == 1.0
    assert bracket_ratio(-1e-12, 0.5) == 0.0
    assert math.isnan(bracket_ratio(math.nan, 1.0))


# ---------------------------------------------------------------------------
# configuration


def test_game_spec_validation():
    GameSpec(family="diagonal", n=3, m=2)
    with pytest.raises(ConfigError):
        GameSpec(family="no-such-family")
    with pytest.raises(ConfigError):
        GameSpec(family="diagonal", n=3, m=2, seeds=())


def test_solver_spec_validation():
    SolverSpec(name="reconstruct")
    with pytest.raises(ConfigError):
        SolverSpec(name="newton")


def test_solver_spec_rejects_parameters_the_solver_does_not_take():
    SolverSpec(name="support-enum", params={"epsilon": 0.5})
    data = {
        "games": [{"family": "poa"}],
        "solvers": [{"name": "support-enum", "params": {"espilon": 0.5}}],
    }
    with pytest.raises(ConfigError, match="espilon"):
        experiment_config_from_dict(data)


def test_solver_spec_params_json_is_canonical():
    spec = SolverSpec(name="iterated-lp", params={"seed": 1, "restarts": 2})
    assert spec.params_json() == '{"restarts":2,"seed":1}'


def test_experiment_config_validation():
    games = (GameSpec(family="diagonal", n=3, m=2),)
    solvers = (SolverSpec(name="reconstruct"),)
    for timeout in (0.0, math.nan):
        with pytest.raises(ConfigError, match="timeout must be positive"):
            ExperimentConfig(games=games, solvers=solvers, timeout=timeout)


def test_config_from_dict_and_defaults():
    config = experiment_config_from_dict(
        {
            "games": [{"family": "diagonal", "n": 3, "m": 2, "seeds": [0, 1]}],
            "solvers": [{"name": "reconstruct"}],
        }
    )
    assert config.timeout == 3600.0
    assert config.record_wall_time
    assert config.games[0].seeds == (0, 1)


def test_config_from_dict_errors():
    with pytest.raises(ConfigError):
        experiment_config_from_dict({"solvers": []})
    with pytest.raises(ConfigError):
        experiment_config_from_dict({"games": [], "solvers": [{"nope": 1}]})
    with pytest.raises(ConfigError):
        experiment_config_from_dict([1, 2, 3])


def _malformed(part, **fragment):
    game = {"family": "irrational", "seeds": [0]}
    solver = {"name": "iterated-lp", "params": {"restarts": 2}}
    config = {"games": [game], "solvers": [solver]}
    target = {
        "top": config,
        "game": game,
        "solver": solver,
        "solver params": solver["params"],
    }[part]
    target.update(fragment)
    return config


@pytest.mark.parametrize(
    "key, data",
    [
        ("seeds", _malformed("game", seeds=5)),
        ("params", _malformed("game", params=[1])),
        ("timeout", _malformed("top", timeout="abc")),
        ("seed", _malformed("game", seed=[4])),
        ("worker", _malformed("top", worker=4)),
        ("record_wall_time", _malformed("top", record_wall_time="false")),
        ("restarts", _malformed("solver params", restarts=2.7)),
        ("normalise", _malformed("game", normalise=True)),
        ("param", _malformed("solver", param={})),
        ("family", {"games": [{"n": 3, "m": 2}], "solvers": []}),
        ("games", {"games": {"family": "poa"}, "solvers": []}),
        # families take no parameters: a game entry has no params key
        ("params", _malformed("game", params={"fixed_sign": False})),
        ("params", _malformed("game", params={})),
        # cells run in order in one process: no worker count
        ("workers", _malformed("top", workers=2)),
        ("n", _malformed("game", n=3.0)),
        ("name", _malformed("solver", name=["reconstruct"])),
    ],
)
def test_config_from_dict_rejects_malformed_values(key, data):
    experiment_config_from_dict(_malformed("top"))  # the base config is valid
    with pytest.raises(ConfigError, match=re.escape(key)):
        experiment_config_from_dict(data)


def test_config_checks_values_built_in_python():
    config = ExperimentConfig(
        games=(GameSpec(family="irrational", seeds=[2, 3]),),
        solvers=(SolverSpec(name="global", params={"accuracy": 1}),),
        timeout=60,
    )
    assert config.games[0].seeds == (2, 3)
    assert type(config.timeout) is float and config.timeout == 60.0
    # the row records what the config said; the solver gets a float
    assert config.solvers[0].params_json() == '{"accuracy":1}'
    with pytest.raises(ConfigError, match="seeds"):
        GameSpec(family="poa", seeds=(0, 1.5))
    with pytest.raises(ConfigError, match="restarts"):
        SolverSpec(name="iterated-lp", params={"restarts": True})


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{oops")
    with pytest.raises(ConfigError):
        load_experiment_config(path)


# ---------------------------------------------------------------------------
# the harness


def _desk_config(**overrides) -> ExperimentConfig:
    base = dict(
        games=(
            GameSpec(family="diagonal", n=3, m=2, seeds=(0, 1, 2, 3, 4)),
            GameSpec(family="diagonal", n=3, m=3, seeds=(0, 1, 2, 3, 4)),
        ),
        solvers=(SolverSpec(name="reconstruct"),),
        timeout=60.0,
        record_wall_time=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_diagonal_table():
    rows = run_experiment(_desk_config())
    assert len(rows) == 10
    for row in rows:
        assert row.generator == "diagonal"
        assert row.solver == "reconstruct"
        assert row.converged
        assert row.ratio == pytest.approx(1.0 / row.m, abs=1e-9)
        assert row.lower == pytest.approx(row.m ** -2.0, abs=1e-9)
        assert row.upper == pytest.approx(1.0 / row.m, abs=1e-9)
        assert row.wall_ms == 0.0
    assert [r.instance_id for r in rows] == sorted(r.instance_id for r in rows)


def test_run_experiment_rows_deterministic():
    a = run_experiment(_desk_config())
    b = run_experiment(_desk_config())
    for ra, rb in zip(a, b):
        assert all(
            getattr(ra, name) == getattr(rb, name)
            or (math.isnan(getattr(ra, name)) and math.isnan(getattr(rb, name)))
            for name in CSV_HEADER
        )


def test_run_experiment_empty_solver_list():
    config = _desk_config(solvers=())
    assert run_experiment(config) == []


def test_run_experiment_isolates_cell_failures(tmp_path):
    # the raw irrational game has payoffs outside [0, 1]; support-enum
    # rejects it, but the batch must keep going and record why it failed
    config = ExperimentConfig(
        games=(
            GameSpec(family="irrational", seeds=(0,)),
            GameSpec(family="diagonal", n=3, m=2, seeds=(0,)),
        ),
        solvers=(
            SolverSpec(name="support-enum", params={"epsilon": 1.0}),
            SolverSpec(name="reconstruct"),
        ),
        timeout=60.0,
        record_wall_time=False,
    )
    rows = run_experiment(config)
    assert len(rows) == 4
    failed = [r for r in rows if math.isnan(r.lower)]
    assert len(failed) == 1
    assert failed[0].generator == "irrational"
    assert failed[0].solver == "support-enum"
    assert not failed[0].converged
    assert failed[0].error.startswith(
        "ValueError: support_enumeration requires payoffs normalized to [0, 1]"
    )
    good = [r for r in rows if not math.isnan(r.lower)]
    assert len(good) == 3
    assert all(r.error == "" for r in good)

    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_rows_csv(rows, first)
    write_rows_csv(run_experiment(config), second)
    assert first.read_bytes() == second.read_bytes()
    with open(first, newline="") as handle:
        errors = [row["error"] for row in csv.DictReader(handle)]
    assert sorted(errors) == ["", "", "", failed[0].error]


def test_run_experiment_tells_the_sign_flawed_game_apart(tmp_path):
    config = experiment_config_from_dict(
        {
            "games": [{"family": "irrational"}, {"family": "irrational-flawed"}],
            "solvers": [{"name": "reconstruct"}],
            "record_wall_time": False,
        }
    )
    path = tmp_path / "results.csv"
    write_rows_csv(run_experiment(config), path)
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [(r["instance_id"], r["generator"], float(r["upper"])) for r in rows] == [
        ("irrational-flawed-n3-m2-s0", "irrational-flawed", 0.0),
        ("irrational-n3-m2-s0", "irrational", pytest.approx(2.0 / 3.0)),
    ]


def test_run_experiment_normalize_flag():
    config = ExperimentConfig(
        games=(GameSpec(family="irrational", seeds=(0,), normalize=True),),
        solvers=(SolverSpec(name="support-enum", params={"epsilon": 1.0}),),
        timeout=60.0,
        record_wall_time=False,
    )
    rows = run_experiment(config)
    assert len(rows) == 1
    assert not math.isnan(rows[0].lower)


def test_wall_time_recorded_when_enabled():
    config = _desk_config(record_wall_time=True)
    rows = run_experiment(config)
    assert any(r.wall_ms > 0.0 for r in rows)


# ---------------------------------------------------------------------------
# aggregation and persistence


def test_aggregate_rows_quartiles():
    rows = run_experiment(_desk_config())
    aggregates = aggregate_rows(rows)
    assert len(aggregates) == 2  # (3, 2, reconstruct) and (3, 3, reconstruct)
    by_m = {a.m: a for a in aggregates}
    assert by_m[2].runs == 5
    assert by_m[2].failures == 0
    assert by_m[2].mean_ratio == pytest.approx(0.5, abs=1e-9)
    assert by_m[2].ratio_q25 == pytest.approx(0.5, abs=1e-9)
    assert by_m[2].ratio_q75 == pytest.approx(0.5, abs=1e-9)
    assert by_m[3].mean_ratio == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_aggregate_rows_all_failed_cell():
    row = ResultRow(
        instance_id="x",
        generator="irrational",
        n=3,
        m=2,
        seed=0,
        solver="support-enum",
        params="{}",
        lower=math.nan,
        upper=math.nan,
        ratio=math.nan,
        iterations=0,
        restarts=0,
        wall_ms=0.0,
        converged=False,
    )
    (agg,) = aggregate_rows([row])
    assert agg.failures == 1
    assert math.isnan(agg.mean_ratio)


def test_csv_headers_and_bytes_deterministic(tmp_path):
    rows = run_experiment(_desk_config())
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_rows_csv(rows, path_a)
    write_rows_csv(run_experiment(_desk_config()), path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    lines = path_a.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 11
    assert lines[1].endswith(",true")

    agg_path = tmp_path / "agg.csv"
    write_aggregate_csv(aggregate_rows(rows), agg_path)
    agg_lines = agg_path.read_text().splitlines()
    assert agg_lines[0] == ",".join(AGGREGATE_HEADER)
    assert len(agg_lines) == 3


def test_csv_floats_are_full_precision(tmp_path):
    rows = run_experiment(_desk_config())
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, path)
    # 1/9 must round-trip exactly through its repr in the file
    content = path.read_text()
    assert repr(1.0 / 9.0) in content


RESULTS_HEADER_LINE = (
    "instance_id,generator,n,m,seed,solver,params,lower,upper,ratio,"
    "iterations,restarts,wall_ms,error,converged"
)
AGGREGATE_HEADER_LINE = (
    "n,m,solver,runs,failures,mean_lower,mean_upper,mean_ratio,"
    "ratio_q25,ratio_q50,ratio_q75,mean_wall_ms"
)


def test_csv_header_lines_are_pinned_and_documented(tmp_path):
    # the headers come from the row types' field order, so reordering a
    # field changes the files; the README lists the same columns
    write_rows_csv([], tmp_path / "results.csv")
    write_aggregate_csv([], tmp_path / "aggregate.csv")
    assert (tmp_path / "results.csv").read_text() == RESULTS_HEADER_LINE + "\n"
    assert (tmp_path / "aggregate.csv").read_text() == AGGREGATE_HEADER_LINE + "\n"
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    flat = " ".join(readme.read_text().split())
    for line in (RESULTS_HEADER_LINE, AGGREGATE_HEADER_LINE):
        assert "`" + ", ".join(line.split(",")) + "`" in flat
