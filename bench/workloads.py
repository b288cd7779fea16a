"""Workload definitions: which instances each workload solves, and why.

Every workload is a fixed ladder of rungs (family, shape, instance seed,
solver, parameters). The workload seed does not pick new random games:
it relabels the actions of every player of every rung with a seeded
permutation. A relabeled game has the same team-maxmin and correlated
values, so the work each solver has to do stays in the same difficulty
class, while every label-dependent path (Bland's pivot order, split and
tie-breaking order, restart starting points) sees a different input.
Drawing fresh random games instead makes the branch-and-bound node count
vary between 0 and the node cap from one seed to the next, which no
timing bound can absorb. Seed 0 is the identity, so seed 0 solves the
ROADMAP ladder's games as they are (4,711 pivots at n3 m40 instance seed 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from teammax.game import TeamGame
from teammax.generators import InstanceFacts, make_instance
from teammax.rng import SplitMix64
from teammax.solvers import run_solver


@dataclass(frozen=True)
class Rung:
    family: str
    n: int | None
    m: int | None
    seed: int | None
    solver: str
    params: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        shape = "" if self.n is None else f"-n{self.n}-m{self.m}"
        seed = "" if self.seed is None else f"-s{self.seed}"
        return f"{self.solver}:{self.family}{shape}{seed}"


@dataclass(frozen=True)
class Workload:
    rungs: tuple[Rung, ...]
    # one tiny rung per solver the workload uses: the warm-up solves of the
    # set-up, and the whole pass of the smoke rung
    smoke: tuple[Rung, ...]


@dataclass(frozen=True, eq=False)
class Case:
    rung: Rung
    game: TeamGame
    facts: InstanceFacts | None


def _random(n, m, seeds, solver, **params):
    return tuple(Rung("random", n, m, s, solver, params) for s in seeds)


_GLOBAL = dict(accuracy=1e-3, max_nodes=3000)
_RESTARTS = dict(restarts=20)

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    # one large, degenerate-prone correlated LP per rung; solve_lp is 99.9 %
    # of the time (column generation and pivot rules show here). The n3 m40
    # rung takes eight instance seeds: its pivot count moves by about 10 %
    # under relabeling, and it is most of the pass. The ladder's n3 m60 rung
    # is left out: its 1.8 MB tableau makes every pivot wait on memory, whose
    # speed on a shared host drifts in a way no calibration kernel tracked.
    "correlated-lp": Workload(
        rungs=(
            *_random(3, 10, (0,), "reconstruct"),
            *_random(3, 20, (0,), "reconstruct"),
            *_random(3, 40, range(8), "reconstruct"),
            *(r for m in (3, 4, 8) for r in _random(4, m, (0,), "reconstruct")),
            Rung("diagonal", 3, 30, None, "reconstruct"),
            Rung("poa", None, None, None, "reconstruct"),
        ),
        smoke=_random(3, 4, (0,), "reconstruct"),
    ),
    # thousands of tiny best-response LPs: a fixed cost added to every LP
    # call, e.g. by a column-generation master, shows here. The n3 m20
    # rungs, most of the pass, take four instance seeds so that the number
    # of ascent rounds averages over more restarts.
    "local-search": Workload(
        rungs=(
            *_random(3, 10, (0, 1), "iterated-lp", **_RESTARTS),
            *_random(3, 20, (0, 1, 2, 3), "iterated-lp", **_RESTARTS),
            *_random(4, 3, (0, 1), "iterated-lp", **_RESTARTS),
            *_random(4, 4, (0, 1), "iterated-lp", **_RESTARTS),
            *_random(4, 8, (0, 1), "iterated-lp", **_RESTARTS),
        ),
        smoke=_random(3, 3, (0,), "iterated-lp", restarts=2),
    ),
    # time to accuracy 1e-3; the node-capped diagonal rung turns a tighter
    # relaxation into a smaller gap_mean
    "branch-bound": Workload(
        rungs=(
            *_random(3, 4, (1, 2), "global", **_GLOBAL),
            *_random(4, 3, (0, 1), "global", **_GLOBAL),
            Rung("poa", None, None, None, "global", _GLOBAL),
            Rung("diagonal", 3, 3, None, "global", dict(accuracy=1e-3, max_nodes=1000)),
        ),
        smoke=(Rung("poa", None, None, None, "global", dict(accuracy=1e-2)),),
    ),
    # the grid kernels and no LP at all; the oracle's chunked grids set the
    # peak memory
    "grid": Workload(
        rungs=(
            Rung("random", 3, 5, 0, "support-enum", dict(epsilon=0.4)),
            Rung("random", 3, 6, 1, "support-enum", dict(epsilon=0.45)),
            Rung("random", 3, 3, 0, "oracle", dict(target_error=0.03)),
            Rung("random", 4, 3, 0, "oracle", dict(target_error=0.2)),
            Rung("poa", None, None, None, "oracle", dict(target_error=0.002)),
        ),
        smoke=(
            Rung("random", 3, 3, 0, "support-enum", dict(epsilon=0.5)),
            Rung("poa", None, None, None, "oracle", dict(target_error=0.1)),
        ),
    ),
}


def relabel(game: TeamGame, rng: SplitMix64) -> TeamGame:
    """The same game with every player's actions permuted."""
    tensor = game.team_utility
    for axis, size in enumerate(game.actions_per_player):
        perm = np.argsort(rng.floats(size), kind="stable")
        tensor = np.take(tensor, perm, axis=axis)
    return TeamGame(
        game.num_players,
        game.actions_per_player,
        tensor,
        name=game.name,
        seed=game.seed,
    )


def build_cases(rungs, workload_seed: int) -> list[Case]:
    """Instances for one workload seed; seed 0 leaves every label as is."""
    rng = SplitMix64(workload_seed)
    cases = []
    for rung in rungs:
        game, facts = make_instance(rung.family, n=rung.n, m=rung.m, seed=rung.seed)
        if workload_seed != 0:
            game = relabel(game, rng)
        cases.append(Case(rung, game, facts))
    return cases


def solve(case: Case):
    return run_solver(case.rung.solver, case.game, **case.rung.params)


def set_up(name: str, workload_seed: int, smoke: bool) -> list[Case]:
    """Everything before the first timed solve: one warm-up solve per
    solver the workload uses, then the workload's instances."""
    workload = WORKLOADS[name]
    for case in build_cases(workload.smoke, 0):
        solve(case)
    return build_cases(workload.smoke if smoke else workload.rungs, workload_seed)
