"""Certified bounds and equilibrium tooling for adversarial team games.

A team of players with identical payoffs plays a zero-sum game against one
adversary. The package computes the exact correlated team value by linear
programming, certified lower/upper brackets of the harder independent-mixing
(team-maxmin) value, and the efficiency metrics comparing the two, plus
benchmark generators and a batch experiment harness.

The names below are the ones the README's quick start uses, plus the errors
the package raises; everything else is imported from its submodule.
"""

from .game import CapacityError, GameFormatError, TeamGame
from .lp import LpSolveError
from .metrics import ConfigError, compute_pou
from .solvers import (
    SolveReport,
    correlated_team_maxmin,
    global_optimize,
    iterated_lp,
    reconstruct_best_pivot,
    run_solver,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ConfigError",
    "GameFormatError",
    "LpSolveError",
    "SolveReport",
    "TeamGame",
    "compute_pou",
    "correlated_team_maxmin",
    "global_optimize",
    "iterated_lp",
    "reconstruct_best_pivot",
    "run_solver",
]
