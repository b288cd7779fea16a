"""Correctness gate applied to every solve, from outside the program.

The witness is re-evaluated with team_value, the bracket must be ordered,
instances with analytic facts must bracket the known value, and the
correlated value of every random instance is held against a scipy-HiGHS
reference. scipy is imported lazily so that it never shows in the set-up
time or the peak memory of the timed passes.
"""

from __future__ import annotations

import numpy as np

from teammax.game import team_value, to_joint_game

WITNESS_TOL = 1e-9
FACT_TOL = 1e-9
REFERENCE_TOL = 1e-7


def check_report(case, report, reference: float | None) -> list[str]:
    """Problems with one solve's report; an empty list means it passed."""
    problems = []
    lower, upper = report.lower_bound, report.upper_bound
    if not lower <= upper:
        problems.append(f"lower {lower!r} exceeds upper {upper!r}")
    if report.witness is None:
        problems.append("no witness")
    else:
        value = team_value(case.game, report.witness).value
        if value < lower - WITNESS_TOL:
            problems.append(f"witness is worth {value!r}, below lower {lower!r}")
    facts = case.facts
    solver = case.rung.solver
    if facts is not None and facts.known_team_maxmin is not None:
        known = facts.known_team_maxmin
        if not lower - FACT_TOL <= known <= upper + FACT_TOL:
            problems.append(f"known value {known!r} outside [{lower!r}, {upper!r}]")
    if facts is not None and facts.known_correlated_value is not None:
        if solver == "reconstruct" and abs(upper - facts.known_correlated_value) > FACT_TOL:
            problems.append(
                f"upper {upper!r} is not the correlated value "
                f"{facts.known_correlated_value!r}"
            )
    if reference is not None:
        # every independent profile is worth at most the correlated value,
        # and reconstruct reports that value itself as its upper bound
        if lower > reference + REFERENCE_TOL:
            problems.append(f"lower {lower!r} exceeds correlated value {reference!r}")
        if solver == "reconstruct" and abs(upper - reference) > REFERENCE_TOL:
            problems.append(f"upper {upper!r} differs from HiGHS value {reference!r}")
        if solver == "global" and upper > reference + REFERENCE_TOL:
            problems.append(f"upper {upper!r} exceeds correlated value {reference!r}")
    return problems


def highs_correlated_value(game) -> float:
    """Correlated team-maxmin value of a game, solved by scipy's HiGHS."""
    from scipy.optimize import linprog

    matrix = to_joint_game(game)
    rows, cols = matrix.shape
    # variables: joint team mixture x (rows), then the value v; maximize v
    # subject to v <= (x @ matrix)[c] for every adversary column c
    objective = np.zeros(rows + 1)
    objective[-1] = -1.0
    a_ub = np.hstack([-matrix.T, np.ones((cols, 1))])
    a_eq = np.ones((1, rows + 1))
    a_eq[0, -1] = 0.0
    bounds = [(0.0, None)] * rows + [(None, None)]
    result = linprog(
        objective,
        A_ub=a_ub,
        b_ub=np.zeros(cols),
        A_eq=a_eq,
        b_eq=np.ones(1),
        bounds=bounds,
        method="highs",
    )
    if result.status != 0:
        raise RuntimeError(f"HiGHS reference failed: {result.message}")
    return float(-result.fun)
