"""Efficiency metrics and the batch experiment harness.

The headline metric is the correlation premium v_C / v_M: the ratio between
the value the team gets when it can correlate (joint-strategy LP) and its
team-maxmin value under independent mixing. A solver certifies v_M only
within a bracket [lower, upper], so the premium is reported as the
certified bracket [v_C / upper, v_C / lower] from one solver report.

The experiment harness runs a grid of (instance, solver) cells, records one
CSV row per cell with certified bounds, and aggregates mean and quartiles
per (n, m, solver). Given identical configuration it produces byte-identical
output, which the test suite relies on.

A config is read by game.json_object's rule, and results.csv and
aggregate.csv take their columns, in order, from the fields of ResultRow and
AggregateRow.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .game import (
    TeamGame,
    check_items,
    check_type,
    json_object,
    normalize_payoffs,
    read_json,
    to_joint_game,
)
from .generators import check_family, make_instance
from .solvers import (
    DEFAULT_TIMEOUT,
    SolveReport,
    run_solver,
    solver_params,
)


class ConfigError(ValueError):
    """Raised when an experiment configuration is malformed."""


@dataclass(frozen=True, eq=False)
class PouReport:
    """Certified bracket [low, high] on the correlation premium v_C / v_M.

    low = v_C / upper and high = v_C / lower, with v_C the correlated value
    and [lower, upper] the team-maxmin bracket of `report`, so the bracket
    holds the premium whenever the report's bounds hold v_M.
    """

    report: SolveReport
    low: float
    high: float


def _premium(v_correlated: float, bound: float) -> float:
    """v_correlated / bound for a positive bound; 1 when both are zero
    (within 1e-12), infinite otherwise."""
    if bound > 0.0:
        return v_correlated / bound
    if abs(v_correlated) <= 1e-12 and abs(bound) <= 1e-12:
        return 1.0
    return math.inf


def compute_pou(
    game: TeamGame,
    team_solver: str = "reconstruct",
    timeout: float | None = DEFAULT_TIMEOUT,
    **solver_params,
) -> PouReport:
    """Certified bracket on the correlation premium of a game.

    v_C is read off the solver's report (a game over to_joint_game's cap
    raises CapacityError first) and divided by the report's upper and lower
    bounds on the team-maxmin value, by _premium's rule.
    """
    to_joint_game(game)  # over its cap a report's correlated bound is not v_C
    report = run_solver(team_solver, game, timeout=timeout, **solver_params)
    v_correlated = report.correlated_bound
    return PouReport(
        report=report,
        low=_premium(v_correlated, report.upper_bound),
        high=_premium(v_correlated, report.lower_bound),
    )


# ---------------------------------------------------------------------------
# experiment harness


@dataclass(frozen=True)
class GameSpec:
    """One family cell of an experiment: a generator plus its seed sweep.

    n and m are required by the families whose FAMILIES entry in generators
    names them; seeds may be any nonempty list or tuple of ints and is kept
    as a tuple.
    """

    family: str
    n: int | None = None
    m: int | None = None
    seeds: tuple[int, ...] = (0,)
    normalize: bool = False

    def __post_init__(self):
        check_type("family", self.family, str, ConfigError)
        for key in ("n", "m"):
            if getattr(self, key) is not None:
                check_type(key, getattr(self, key), int, ConfigError)
        check_family(self.family, self.n, self.m, ConfigError)
        seeds = check_items("seeds", self.seeds, int, ConfigError)
        if not seeds:
            raise ConfigError("seeds must be a nonempty list, got []")
        object.__setattr__(self, "seeds", seeds)
        check_type("normalize", self.normalize, bool, ConfigError)


@dataclass(frozen=True)
class SolverSpec:
    """A solver registry name plus keyword parameters the solver takes."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        check_type("name", self.name, str, ConfigError)
        try:
            solver_params(self.name, self.params)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def params_json(self) -> str:
        return json.dumps(self.params, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a batch run.

    record_wall_time=False zeroes the wall_ms column so reruns of the same
    configuration are byte-identical; leave it on for benchmarking. An int
    timeout is kept as a float.
    """

    games: tuple[GameSpec, ...]
    solvers: tuple[SolverSpec, ...]
    timeout: float = DEFAULT_TIMEOUT
    record_wall_time: bool = True

    def __post_init__(self):
        timeout = check_type("timeout", self.timeout, float, ConfigError)
        if not timeout > 0:  # NaN included
            raise ConfigError(f"timeout must be positive, got {timeout}")
        object.__setattr__(self, "timeout", timeout)
        check_type("record_wall_time", self.record_wall_time, bool, ConfigError)


@dataclass(frozen=True, eq=False)
class ResultRow:
    """One (instance, solver) cell of the result table; the fields are the
    columns of results.csv, in order."""

    instance_id: str
    generator: str
    n: int
    m: int
    seed: int
    solver: str
    params: str
    lower: float
    upper: float
    ratio: float
    iterations: int
    restarts: int
    wall_ms: float
    # "<ExceptionType>: <message>" for a failed cell, empty otherwise
    error: str = ""
    converged: bool = False


CSV_HEADER = tuple(f.name for f in fields(ResultRow))


def bracket_ratio(lower: float, upper: float) -> float:
    """lower/upper quality of a certified bracket, in [0, 1] for valid
    brackets of nonnegative games; tiny negative numerators round to 0."""
    if math.isnan(lower) or math.isnan(upper):
        return math.nan
    if upper <= 1e-12:
        return 1.0 if abs(lower - upper) <= 1e-12 else math.nan
    ratio = lower / upper
    if -1e-9 < ratio < 0.0:
        return 0.0
    return ratio


def build_instances(config: ExperimentConfig) -> list[tuple[str, int, TeamGame]]:
    """(family, seed, game) for every seed of every game entry, in order.

    Raises ConfigError naming games[i] for an instance its family rejects,
    such as a diagonal game of two players; a CapacityError passes through.
    """
    instances = []
    for i, spec in enumerate(config.games):
        for seed in spec.seeds:
            try:
                game, _ = make_instance(spec.family, n=spec.n, m=spec.m, seed=seed)
            except ValueError as exc:
                raise ConfigError(f"games[{i}]: {exc}") from None
            if spec.normalize:
                game = normalize_payoffs(game)
            instances.append((spec.family, seed, game))
    return instances


# the report of a failed cell: NaN bounds, no work, not converged
_FAILED = SolveReport(math.nan, math.nan, math.nan, None, 0, 0.0, False)


def _run_cell(family, seed, game, solver, config) -> ResultRow:
    n, m = game.num_players, game.max_team_actions
    error = ""
    try:
        report = run_solver(solver.name, game, timeout=config.timeout, **solver.params)
    except Exception as exc:
        report, error = _FAILED, f"{type(exc).__name__}: {exc}"
    return ResultRow(
        instance_id=f"{family}-n{n}-m{m}-s{seed}",
        generator=family,
        n=n,
        m=m,
        seed=seed,
        solver=solver.name,
        params=solver.params_json(),
        lower=report.lower_bound,
        upper=report.upper_bound,
        ratio=bracket_ratio(report.lower_bound, report.upper_bound),
        iterations=report.iterations,
        restarts=report.restarts_used,
        wall_ms=report.wall_time * 1000.0 if config.record_wall_time else 0.0,
        error=error,
        converged=report.converged,
    )


def run_experiment(config: ExperimentConfig, instances=None) -> list[ResultRow]:
    """Run every (instance, solver) cell in order and return the sorted
    result table.

    instances, when the caller has built them already, is
    build_instances(config). Failures of individual cells are recorded as
    rows with NaN bounds, converged=False and the exception in `error`;
    they never abort the batch. Rows are sorted by (instance_id, solver,
    params), the order of results.csv.
    """
    if instances is None:
        instances = build_instances(config)
    rows = [
        _run_cell(family, seed, game, solver, config)
        for family, seed, game in instances
        for solver in config.solvers
    ]
    rows.sort(key=lambda r: (r.instance_id, r.solver, r.params))
    return rows


@dataclass(frozen=True, eq=False)
class AggregateRow:
    """Mean and ratio quartiles for one (n, m, solver) cell; the fields are
    the columns of aggregate.csv, in order."""

    n: int
    m: int
    solver: str
    runs: int
    failures: int
    mean_lower: float
    mean_upper: float
    mean_ratio: float
    ratio_q25: float
    ratio_q50: float
    ratio_q75: float
    mean_wall_ms: float


AGGREGATE_HEADER = tuple(f.name for f in fields(AggregateRow))


def aggregate_rows(rows) -> list[AggregateRow]:
    """Aggregate result rows per (n, m, solver): means plus ratio quartiles.

    Failed rows (NaN bounds) count toward `failures` and are excluded from
    the statistics; a cell with no other row has NaN statistics.
    """
    cells: dict[tuple[int, int, str], list[ResultRow]] = {}
    for row in rows:
        cells.setdefault((row.n, row.m, row.solver), []).append(row)
    out = []
    for (n, m, solver) in sorted(cells):
        group = cells[(n, m, solver)]
        good = [r for r in group if not math.isnan(r.ratio)]

        def mean(name: str) -> float:
            if not good:
                return math.nan
            return float(np.mean([getattr(r, name) for r in good]))

        quartiles = (math.nan,) * 3
        if good:
            quartiles = np.quantile([r.ratio for r in good], [0.25, 0.50, 0.75])
        q25, q50, q75 = (float(q) for q in quartiles)
        out.append(
            AggregateRow(
                n=n,
                m=m,
                solver=solver,
                runs=len(group),
                failures=len(group) - len(good),
                mean_lower=mean("lower"),
                mean_upper=mean("upper"),
                mean_ratio=mean("ratio"),
                ratio_q25=q25,
                ratio_q50=q50,
                ratio_q75=q75,
                mean_wall_ms=mean("wall_ms"),
            )
        )
    return out


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(rows, header, path) -> None:
    """Write one table: the header, then each row's fields by name; float
    cells use shortest round-trip repr so identical runs produce identical
    bytes."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(getattr(row, name)) for name in header])


def write_rows_csv(rows, path) -> None:
    """Write the result table, results.csv."""
    _write_csv(rows, CSV_HEADER, path)


def write_aggregate_csv(rows, path) -> None:
    """Write the plot-ready per-(n, m, solver) aggregate table."""
    _write_csv(rows, AGGREGATE_HEADER, path)


# ---------------------------------------------------------------------------
# configuration files


def experiment_config_from_dict(data: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from the JSON experiment schema.

    The keys of each JSON object are the fields of its dataclass:
    ExperimentConfig at the top level, whose `games` and `solvers` are
    lists of GameSpec and SolverSpec objects, and a field without a default
    is required. An unknown key, a missing required key or a value of the
    wrong JSON type raises ConfigError naming the key; the type rule is
    check_type's.
    """
    data = json_object(ExperimentConfig, data, "experiment config", ConfigError)
    entries = {}
    for key, cls in (("games", GameSpec), ("solvers", SolverSpec)):
        check_type(key, data[key], list, ConfigError)
        entries[key] = tuple(
            cls(**json_object(cls, entry, f"{key}[{i}]", ConfigError))
            for i, entry in enumerate(data[key])
        )
    return ExperimentConfig(**{**data, **entries})


def load_experiment_config(path) -> ExperimentConfig:
    return experiment_config_from_dict(read_json(path, ConfigError))


__all__ = [
    "AggregateRow",
    "ConfigError",
    "ExperimentConfig",
    "GameSpec",
    "PouReport",
    "ResultRow",
    "SolverSpec",
    "aggregate_rows",
    "bracket_ratio",
    "build_instances",
    "compute_pou",
    "experiment_config_from_dict",
    "load_experiment_config",
    "run_experiment",
    "write_aggregate_csv",
    "write_rows_csv",
]
