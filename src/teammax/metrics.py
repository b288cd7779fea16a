"""Efficiency metrics and the batch experiment harness.

The headline metric is the correlation premium: the ratio between the value
the team gets when it can correlate (joint-strategy LP) and the best known
value under independent mixing. Because the independent value is generally
only known through lower bounds, the ratio computed here is an upper
estimate of the true premium; it is exact only when the lower bound is
oracle-certified.

The experiment harness runs a grid of (instance, solver) cells, records one
CSV row per cell with certified bounds, and aggregates mean and quartiles
per (n, m, solver). Given identical configuration it produces byte-identical
output, which the test suite relies on.
"""

from __future__ import annotations

import concurrent.futures
import csv
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .game import TeamGame, normalize_payoffs
from .generators import GENERATOR_FAMILIES, make_instance
from .solvers import (
    DEFAULT_TIMEOUT,
    SolveReport,
    correlated_team_maxmin,
    run_solver,
    solver_params,
)

RATIO_TOL = 1e-7


class ConfigError(ValueError):
    """Raised when an experiment configuration is malformed."""


@dataclass(frozen=True, eq=False)
class PouReport:
    """Correlation premium estimate.

    pou_upper_estimate = v_correlated / v_team_lower over-estimates the true
    premium whenever v_team_lower undershoots the independent optimum, so it
    is always a valid upper estimate; `exact` marks the case where the lower
    bound came from the certified brute-force oracle.
    """

    v_correlated: float
    v_team_lower: float
    pou_upper_estimate: float
    exact: bool


def compute_pou(
    game: TeamGame,
    team_solver: str = "reconstruct",
    timeout: float | None = None,
    **solver_params,
) -> PouReport:
    """Upper estimate of the correlation premium of a game.

    The numerator is the exact correlated value from the LP; the denominator
    is whatever lower bound the chosen solver certifies. A zero denominator
    with a positive numerator yields an infinite estimate; the degenerate
    all-zero case reports 1 (no premium to speak of).
    """
    _, v_correlated = correlated_team_maxmin(game)
    report = run_solver(team_solver, game, timeout=timeout, **solver_params)
    lower = report.lower_bound
    if lower > 0.0:
        estimate = v_correlated / lower
    elif abs(v_correlated) <= 1e-12 and abs(lower) <= 1e-12:
        estimate = 1.0
    else:
        estimate = math.inf
    return PouReport(
        v_correlated=v_correlated,
        v_team_lower=lower,
        pou_upper_estimate=estimate,
        exact=team_solver == "oracle",
    )


def approximation_ratio(report_a: SolveReport, baseline: SolveReport) -> float:
    """Ratio of certified lower bounds: report_a against the baseline.

    Greater than 1 means report_a found a better strategy than the baseline;
    that is legitimate (the baseline may be weak) but flagged with a warning
    so sweeps surface it. A nonpositive baseline with a positive numerator is
    reported as infinity — the convention used for value ratios against a
    zero-value strategy.
    """
    numerator = report_a.lower_bound
    denominator = baseline.lower_bound
    if denominator <= 0.0:
        if numerator > 0.0:
            return math.inf
        if numerator == denominator:
            return 1.0
        return math.nan
    ratio = numerator / denominator
    if ratio > 1.0 + RATIO_TOL:
        warnings.warn(
            f"solver beat its baseline: ratio {ratio:.6g} exceeds 1",
            stacklevel=2,
        )
    return ratio


# ---------------------------------------------------------------------------
# experiment harness


@dataclass(frozen=True)
class GameSpec:
    """One family cell of an experiment: a generator plus its seed sweep."""

    family: str
    n: int | None = None
    m: int | None = None
    seeds: tuple[int, ...] = (0,)
    params: dict = field(default_factory=dict)
    normalize: bool = False

    def __post_init__(self):
        if self.family not in GENERATOR_FAMILIES:
            raise ConfigError(
                f"unknown family {self.family!r}, expected one of "
                f"{GENERATOR_FAMILIES}"
            )
        if not self.seeds:
            raise ConfigError("each game entry needs at least one seed")


@dataclass(frozen=True)
class SolverSpec:
    """A solver registry name plus keyword parameters the solver takes."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
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
    configuration are byte-identical; leave it on for benchmarking.
    """

    games: tuple[GameSpec, ...]
    solvers: tuple[SolverSpec, ...]
    timeout: float = DEFAULT_TIMEOUT
    record_wall_time: bool = True
    workers: int = 1

    def __post_init__(self):
        if self.timeout <= 0:
            raise ConfigError("timeout must be positive")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")


@dataclass(frozen=True, eq=False)
class ResultRow:
    """One (instance, solver) cell of the result table."""

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
    converged: bool
    # "<ExceptionType>: <message>" for a failed cell, empty otherwise
    error: str = ""


CSV_HEADER = (
    "instance_id",
    "generator",
    "n",
    "m",
    "seed",
    "solver",
    "params",
    "lower",
    "upper",
    "ratio",
    "iterations",
    "restarts",
    "wall_ms",
    "error",
    "converged",
)


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


def _instance_id(spec: GameSpec, n: int, m: int, seed: int) -> str:
    return f"{spec.family}-n{n}-m{m}-s{seed}"


def _build_instance(spec: GameSpec, seed: int) -> tuple[str, TeamGame]:
    game, _ = make_instance(
        spec.family, n=spec.n, m=spec.m, seed=seed, **spec.params
    )
    if spec.normalize:
        game = normalize_payoffs(game)
    n = game.num_players
    m = game.max_team_actions
    return _instance_id(spec, n, m, seed), game


def _run_cell(task) -> ResultRow:
    instance_id, spec_family, seed, game, solver, timeout, record_wall = task
    cell = dict(
        instance_id=instance_id,
        generator=spec_family,
        n=game.num_players,
        m=game.max_team_actions,
        seed=seed,
        solver=solver.name,
        params=solver.params_json(),
    )
    try:
        report = run_solver(solver.name, game, timeout=timeout, **solver.params)
    except Exception as exc:
        return ResultRow(
            **cell,
            lower=math.nan,
            upper=math.nan,
            ratio=math.nan,
            iterations=0,
            restarts=0,
            wall_ms=0.0,
            converged=False,
            error=f"{type(exc).__name__}: {exc}",
        )
    return ResultRow(
        **cell,
        lower=report.lower_bound,
        upper=report.upper_bound,
        ratio=bracket_ratio(report.lower_bound, report.upper_bound),
        iterations=report.iterations,
        restarts=report.restarts_used,
        wall_ms=report.wall_time * 1000.0 if record_wall else 0.0,
        converged=report.converged,
    )


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Run every (instance, solver) cell and return the sorted result table.

    Failures of individual cells are recorded as rows with NaN bounds,
    converged=False and the exception in `error`; they never abort the
    batch. Rows are sorted by (instance_id, solver, params) so assembly
    order is irrelevant, which keeps multi-worker runs deterministic.
    """
    tasks = []
    for spec in config.games:
        for seed in spec.seeds:
            instance_id, game = _build_instance(spec, seed)
            for solver in config.solvers:
                tasks.append(
                    (
                        instance_id,
                        spec.family,
                        seed,
                        game,
                        solver,
                        config.timeout,
                        config.record_wall_time,
                    )
                )
    if config.workers > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=config.workers
        ) as pool:
            rows = list(pool.map(_run_cell, tasks))
    else:
        rows = [_run_cell(task) for task in tasks]
    rows.sort(key=lambda r: (r.instance_id, r.solver, r.params))
    return rows


@dataclass(frozen=True, eq=False)
class AggregateRow:
    """Mean and ratio quartiles for one (n, m, solver) cell."""

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


AGGREGATE_HEADER = (
    "n",
    "m",
    "solver",
    "runs",
    "failures",
    "mean_lower",
    "mean_upper",
    "mean_ratio",
    "ratio_q25",
    "ratio_q50",
    "ratio_q75",
    "mean_wall_ms",
)


def aggregate_rows(rows) -> list[AggregateRow]:
    """Aggregate result rows per (n, m, solver): means plus ratio quartiles.

    Failed rows (NaN bounds) count toward `failures` and are excluded from
    the statistics.
    """
    cells: dict[tuple[int, int, str], list[ResultRow]] = {}
    for row in rows:
        cells.setdefault((row.n, row.m, row.solver), []).append(row)
    out = []
    for (n, m, solver) in sorted(cells):
        group = cells[(n, m, solver)]
        good = [r for r in group if not math.isnan(r.ratio)]
        if good:
            ratios = np.asarray([r.ratio for r in good])
            q25, q50, q75 = np.quantile(ratios, [0.25, 0.50, 0.75])
            agg = AggregateRow(
                n=n,
                m=m,
                solver=solver,
                runs=len(group),
                failures=len(group) - len(good),
                mean_lower=float(np.mean([r.lower for r in good])),
                mean_upper=float(np.mean([r.upper for r in good])),
                mean_ratio=float(np.mean(ratios)),
                ratio_q25=float(q25),
                ratio_q50=float(q50),
                ratio_q75=float(q75),
                mean_wall_ms=float(np.mean([r.wall_ms for r in good])),
            )
        else:
            agg = AggregateRow(
                n=n,
                m=m,
                solver=solver,
                runs=len(group),
                failures=len(group),
                mean_lower=math.nan,
                mean_upper=math.nan,
                mean_ratio=math.nan,
                ratio_q25=math.nan,
                ratio_q50=math.nan,
                ratio_q75=math.nan,
                mean_wall_ms=math.nan,
            )
        out.append(agg)
    return out


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_rows_csv(rows, path) -> None:
    """Write the result table; float cells use shortest round-trip repr so
    identical runs produce identical bytes."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(
                [_format_cell(getattr(row, name)) for name in CSV_HEADER]
            )


def write_aggregate_csv(rows, path) -> None:
    """Write the plot-ready per-(n, m, solver) aggregate table."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(AGGREGATE_HEADER)
        for row in rows:
            writer.writerow(
                [_format_cell(getattr(row, name)) for name in AGGREGATE_HEADER]
            )


# ---------------------------------------------------------------------------
# configuration files


def experiment_config_from_dict(data: dict) -> ExperimentConfig:
    """Parse the JSON experiment schema.

    Top level: games (list), solvers (list), and optional timeout,
    record_wall_time, workers. Each game entry: family plus optional n, m,
    seeds, params, normalize. Each solver entry: name plus optional params.
    """
    if not isinstance(data, dict):
        raise ConfigError("experiment config must be a JSON object")
    try:
        game_entries = data["games"]
        solver_entries = data["solvers"]
    except KeyError as exc:
        raise ConfigError(f"experiment config is missing {exc.args[0]!r}")
    games = []
    for entry in game_entries:
        if not isinstance(entry, dict) or "family" not in entry:
            raise ConfigError(f"bad game entry: {entry!r}")
        games.append(
            GameSpec(
                family=entry["family"],
                n=entry.get("n"),
                m=entry.get("m"),
                seeds=tuple(int(s) for s in entry.get("seeds", [0])),
                params=dict(entry.get("params", {})),
                normalize=bool(entry.get("normalize", False)),
            )
        )
    solvers = []
    for entry in solver_entries:
        if not isinstance(entry, dict) or "name" not in entry:
            raise ConfigError(f"bad solver entry: {entry!r}")
        solvers.append(
            SolverSpec(name=entry["name"], params=dict(entry.get("params", {})))
        )
    return ExperimentConfig(
        games=tuple(games),
        solvers=tuple(solvers),
        timeout=float(data.get("timeout", DEFAULT_TIMEOUT)),
        record_wall_time=bool(data.get("record_wall_time", True)),
        workers=int(data.get("workers", 1)),
    )


def load_experiment_config(path) -> ExperimentConfig:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}")
    return experiment_config_from_dict(data)


__all__ = [
    "AggregateRow",
    "ConfigError",
    "ExperimentConfig",
    "GameSpec",
    "PouReport",
    "ResultRow",
    "SolverSpec",
    "aggregate_rows",
    "approximation_ratio",
    "bracket_ratio",
    "compute_pou",
    "experiment_config_from_dict",
    "load_experiment_config",
    "run_experiment",
    "write_aggregate_csv",
    "write_rows_csv",
]
