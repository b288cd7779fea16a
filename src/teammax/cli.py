"""Command-line interface: generate, solve, evaluate, verify, measure, batch.

Exit codes: 0 success (or verification passed), 1 verification failed,
2 usage error, 3 input error (unreadable or malformed files), 4 capacity
exceeded, 5 solver failure (LpSolveError: an LP of the solver's did not
reach a certified optimum). Every subcommand prints its resolved
configuration as a single JSON line before any output, and everything
written to standard output is deterministic given identical flags and
input files; timing goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from .game import (
    CapacityError,
    GameFormatError,
    MixedStrategy,
    TeamGame,
    TeamProfile,
    expected_team_utility,
    load_game,
    load_strategies,
    save_game,
    team_value,
    verify_nash,
    normalize_payoffs,
)
from .generators import GENERATOR_FAMILIES, make_instance
from .lp import LpSolveError
from .metrics import (
    ConfigError,
    aggregate_rows,
    build_instances,
    compute_pou,
    load_experiment_config,
    run_experiment,
    write_aggregate_csv,
    write_rows_csv,
)
from .solvers import SOLVER_NAMES, SOLVERS, DEFAULT_TIMEOUT, SolveReport, run_solver

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_CAPACITY = 4
EXIT_SOLVER = 5


def _fmt_probs(probs) -> str:
    return "[" + ", ".join(f"{p:.6f}" for p in probs) + "]"


# every parameter that some solver takes, with its type: one --<name> flag each
_SOLVER_FLAGS = {
    key: kind for _, params, _ in SOLVERS.values() for key, (kind, _) in params.items()
}


def _solver_params(args) -> dict:
    """Collect the solver keyword parameters that were actually given."""
    return {
        name: getattr(args, name)
        for name in _SOLVER_FLAGS
        if getattr(args, name) is not None
    }


def _print_config(args, **extra) -> None:
    """Print the parsed arguments and extra as one line of sorted JSON,
    leaving out func and every solver flag that was not given."""
    resolved = {
        key: str(value) if isinstance(value, pathlib.Path) else value
        for key, value in {**vars(args), **extra}.items()
        if key != "func" and not (key in _SOLVER_FLAGS and value is None)
    }
    print(f"config {json.dumps(resolved, sort_keys=True, separators=(', ', ': '))}")


def _report_dict(report: SolveReport) -> dict:
    data = {
        "lower_bound": report.lower_bound,
        "upper_bound": report.upper_bound,
        "correlated_bound": report.correlated_bound,
        "iterations": report.iterations,
        "restarts_used": report.restarts_used,
        "converged": report.converged,
    }
    if report.witness is not None:
        data["witness"] = [list(map(float, s.probs)) for s in report.witness]
    return data


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    _print_config(args)
    game, facts = make_instance(args.family, n=args.n, m=args.m, seed=args.seed)
    if args.normalize:
        game = normalize_payoffs(game)
    save_game(game, args.out)
    print(f"wrote {args.out}")
    print(
        f"players {game.num_players}, actions {list(game.actions_per_player)}, "
        f"tensor entries {game.team_utility.size}"
    )
    if facts is not None and not args.normalize:
        if facts.known_team_maxmin is not None:
            print(f"known team-maxmin value {facts.known_team_maxmin!r}")
        if facts.known_correlated_value is not None:
            print(f"known correlated value {facts.known_correlated_value!r}")
    return EXIT_OK


def cmd_solve(args) -> int:
    _print_config(args)
    params = _solver_params(args)
    game = load_game(args.game)
    if args.normalize:
        game = normalize_payoffs(game)
    report = run_solver(args.solver, game, timeout=args.timeout, **params)
    print(f"lower bound     {report.lower_bound!r}")
    print(f"upper bound     {report.upper_bound!r}")
    print(f"correlated      {report.correlated_bound!r}")
    print(f"iterations      {report.iterations}")
    print(f"restarts used   {report.restarts_used}")
    print(f"converged       {str(report.converged).lower()}")
    if report.witness is not None:
        for i, strategy in enumerate(report.witness):
            print(f"member {i} mixture {_fmt_probs(strategy.probs)}")
    print(f"wall time {report.wall_time:.3f}s", file=sys.stderr)
    if args.out is not None:
        with open(args.out, "w") as handle:
            json.dump(_report_dict(report), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    return EXIT_OK


def _load_profile(game: TeamGame, path) -> tuple[TeamProfile, MixedStrategy | None]:
    """The team profile in a strategies file, plus the adversary's mixture
    when the file has one strategy per player."""
    strategies = load_strategies(path)
    sizes = tuple(s.num_actions for s in strategies)
    if sizes not in (
        game.team_sizes,
        game.team_sizes + (game.adversary_size,),
    ):
        raise GameFormatError(
            f"profile action counts {sizes} match neither the team "
            f"{game.team_sizes} nor the full player list"
        )
    team = TeamProfile(tuple(strategies[: game.num_team_members]))
    adversary = strategies[-1] if len(strategies) == game.num_players else None
    return team, adversary


def cmd_evaluate(args) -> int:
    _print_config(args)
    game = load_game(args.game)
    team, adversary = _load_profile(game, args.profile)
    result = team_value(game, team)
    print(f"worst-case team value {result.value!r}")
    print(f"minimizing adversary action {result.minimizing_adversary_action}")
    print(f"per-adversary utilities {_fmt_probs(result.per_adversary_utility)}")
    if adversary is not None:
        value = expected_team_utility(game, team, adversary)
        print(f"expected team value vs given adversary {value!r}")
    return EXIT_OK


def cmd_verify_nash(args) -> int:
    _print_config(args)
    game = load_game(args.game)
    team, adversary = _load_profile(game, args.profile)
    if adversary is None:
        raise GameFormatError(
            f"verification needs one strategy per player "
            f"({game.num_players}), got {game.num_team_members}"
        )
    verdict = verify_nash(game, team, adversary, tolerance=args.tol)
    worst = int(np.argmax(verdict.gaps))
    print(f"equilibrium {str(verdict.is_equilibrium).lower()}")
    print(f"max gap {float(verdict.gaps[worst])!r} at player {worst}")
    print(
        "best deviations "
        + "[" + ", ".join(str(int(d)) for d in verdict.best_deviations) + "]"
    )
    return EXIT_OK if verdict.is_equilibrium else EXIT_VERIFICATION_FAILED


def cmd_pou(args) -> int:
    _print_config(args)
    params = _solver_params(args)
    game = load_game(args.game)
    if args.normalize:
        game = normalize_payoffs(game)
    report = compute_pou(game, team_solver=args.team_solver, **params)
    bounds = report.report
    print(f"correlated value        {bounds.correlated_bound!r}")
    print(f"team-maxmin bracket     [{bounds.lower_bound!r}, {bounds.upper_bound!r}]")
    print(f"premium bracket         [{report.low!r}, {report.high!r}]")
    return EXIT_OK


def cmd_experiment(args) -> int:
    config = load_experiment_config(args.config)
    instances = build_instances(config)
    _print_config(
        args,
        **{
            **vars(config),
            "games": len(config.games),
            "solvers": len(config.solvers),
        },
    )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    rows = run_experiment(config, instances)
    elapsed = time.perf_counter() - start
    results_path = args.out_dir / "results.csv"
    aggregate_path = args.out_dir / "aggregate.csv"
    write_rows_csv(rows, results_path)
    write_aggregate_csv(aggregate_rows(rows), aggregate_path)
    failures = sum(1 for r in rows if not r.converged)
    print(f"wrote {results_path} ({len(rows)} rows)")
    print(f"wrote {aggregate_path}")
    print(f"cells not converged {failures}")
    print(f"wall time {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    for name, kind in _SOLVER_FLAGS.items():
        users = [solver for solver, (_, params, _) in SOLVERS.items() if name in params]
        parser.add_argument(
            "--" + name.replace("_", "-"),
            dest=name,
            type=kind,
            help=f"parameter of {', '.join(users)}",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teammax",
        description=(
            "Compute certified bounds on the team-maxmin value of "
            "adversarial team games."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("generate", help="write a benchmark game to a file")
    p.add_argument("family", choices=GENERATOR_FAMILIES)
    p.add_argument("--n", type=int, help="number of players (team + 1)")
    p.add_argument("--m", type=int, help="actions per player")
    p.add_argument("--seed", type=int, default=0, help="seed (random family)")
    p.add_argument(
        "--normalize", action="store_true", help="rescale payoffs to [0, 1]"
    )
    p.add_argument("--out", type=pathlib.Path, required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="run one solver on a game file")
    p.add_argument("game", type=pathlib.Path)
    p.add_argument("--solver", choices=SOLVER_NAMES, required=True)
    p.add_argument(
        "--timeout",
        type=float,
        default=DEFAULT_TIMEOUT,
        help=f"seconds before anytime solvers stop (default {DEFAULT_TIMEOUT:g})",
    )
    p.add_argument(
        "--normalize", action="store_true", help="rescale payoffs to [0, 1]"
    )
    p.add_argument(
        "--out", type=pathlib.Path, help="also write the report as JSON"
    )
    _add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "evaluate", help="worst-case value of a team profile from a file"
    )
    p.add_argument("game", type=pathlib.Path)
    p.add_argument("--profile", type=pathlib.Path, required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "verify-nash",
        help="check a full strategy profile for profitable deviations",
    )
    p.add_argument("game", type=pathlib.Path)
    p.add_argument("--profile", type=pathlib.Path, required=True)
    p.add_argument(
        "--tol", type=float, default=1e-9, help="deviation gap tolerance"
    )
    p.set_defaults(func=cmd_verify_nash)

    p = sub.add_parser("pou", help="certified bracket on the correlation premium")
    p.add_argument("game", type=pathlib.Path)
    p.add_argument(
        "--team-solver",
        dest="team_solver",
        choices=SOLVER_NAMES,
        default="reconstruct",
    )
    p.add_argument(
        "--normalize", action="store_true", help="rescale payoffs to [0, 1]"
    )
    _add_solver_flags(p)
    p.set_defaults(func=cmd_pou)

    p = sub.add_parser("experiment", help="run a batch described by a config")
    p.add_argument("config", type=pathlib.Path)
    p.add_argument("--out-dir", dest="out_dir", type=pathlib.Path, required=True)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except LpSolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    # ahead of ValueError, which GameFormatError and ConfigError subclass
    except (GameFormatError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
