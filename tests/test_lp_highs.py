"""Differential test of the maxmin LP against scipy's HiGHS solver.

scipy is a test-only dependency; without it this module is skipped.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

optimize = pytest.importorskip("scipy.optimize")

from teammax.lp import solve_maxmin  # noqa: E402


def _highs_maxmin(matrix: np.ndarray) -> float:
    rows, cols = matrix.shape
    objective = np.zeros(rows + 1)
    objective[-1] = -1.0
    a_ub = np.hstack([-matrix.T, np.ones((cols, 1))])
    a_eq = np.append(np.ones(rows), 0.0)[None, :]
    result = optimize.linprog(
        objective,
        A_ub=a_ub,
        b_ub=np.zeros(cols),
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0, None)] * rows + [(None, None)],
        method="highs",
        # tighter than HiGHS's defaults (1e-7), so that the reference is
        # exact to well below the 1e-9 asked of solve_maxmin
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    assert result.status == 0, result.message
    return -result.fun


def _matrix(draw, entries):
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    values = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=float).reshape(rows, cols)


@st.composite
def _float_matrices(draw):
    # well scaled, as the solver's absolute tolerances assume: a nonzero
    # entry near 1e-8 beside entries of order one can break its 1e-8 checks
    # (test_maxmin_badly_scaled_row in test_lp.py holds that defect)
    magnitudes = st.floats(1e-3, 10.0)
    return _matrix(draw, st.one_of(st.just(0.0), magnitudes, magnitudes.map(lambda v: -v)))


@st.composite
def _degenerate_matrices(draw):
    # small-integer payoffs tie often; duplicated rows and columns make
    # degenerate vertices and redundant constraints
    matrix = _matrix(draw, st.integers(-2, 2))
    rows, cols = matrix.shape
    row_copies = draw(st.lists(st.integers(0, rows - 1), max_size=3))
    col_copies = draw(st.lists(st.integers(0, cols - 1), max_size=3))
    matrix = np.vstack([matrix, matrix[row_copies]])
    return np.hstack([matrix, matrix[:, col_copies]])


@settings(max_examples=200)
@given(st.one_of(_float_matrices(), _degenerate_matrices()))
def test_maxmin_value_matches_highs(matrix):
    # solve_maxmin raises unless its dual certificate checks
    value, strategy = solve_maxmin(matrix)
    assert value == pytest.approx(_highs_maxmin(matrix), abs=1e-9)
    assert (strategy @ matrix).min() >= value - 1e-8
