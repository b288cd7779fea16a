"""Differential test of the maxmin LP against scipy's HiGHS solver.

scipy is a test-only dependency; without it this module is skipped.
"""

import numpy as np
import pytest
from hypothesis import assume, given, note, settings, target
from hypothesis import strategies as st

optimize = pytest.importorskip("scipy.optimize")

from teammax.lp import (  # noqa: E402
    LpSolution,
    build_maxmin_lp,
    check_maxmin,
    solve_lp,
    solve_maxmin,
)
from teammax.game import team_value, to_joint_game, uniform_profile  # noqa: E402
from teammax.generators import make_instance  # noqa: E402
from teammax.rng import SplitMix64  # noqa: E402
from teammax.solvers import (  # noqa: E402
    _node_factors,
    _node_rows,
    _random_profile,
    _tighten_box,
)
from test_lp import box_from_splits  # noqa: E402


def _highs_maxmin(matrix: np.ndarray, rows=None) -> float:
    """max t s.t. x @ matrix >= t 1, x >= 0, sum(x) = 1 and F x >= 0 for
    the rows F, by HiGHS."""
    num_rows, cols = matrix.shape
    rows = np.zeros((0, num_rows)) if rows is None else rows
    objective = np.zeros(num_rows + 1)
    objective[-1] = -1.0
    a_ub = np.vstack(
        [
            np.hstack([-matrix.T, np.ones((cols, 1))]),
            np.hstack([-rows, np.zeros((len(rows), 1))]),
        ]
    )
    a_eq = np.append(np.ones(num_rows), 0.0)[None, :]
    result = optimize.linprog(
        objective,
        A_ub=a_ub,
        b_ub=np.zeros(cols + len(rows)),
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0.0, None)] * num_rows + [(None, None)],
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


@st.composite
def _badly_scaled_matrices(draw):
    # magnitudes from 1e-9 to 10 beside zeros: solve_maxmin shifts the
    # payoffs into [1, 2], which costs absolute precision in proportion to
    # the payoff range
    magnitudes = st.floats(1e-9, 10.0)
    return _matrix(draw, st.one_of(st.just(0.0), magnitudes, magnitudes.map(lambda v: -v)))


@settings(max_examples=200)
@given(_badly_scaled_matrices())
def test_badly_scaled_maxmin_value_matches_highs(matrix):
    value, x = solve_maxmin(matrix)
    # the row mixture of -M^T is a column mixture of M, so the game's value
    # lies in [value, upper]; each solve certifies its own side to 1e-8
    _, y = solve_maxmin(-matrix.T)
    upper = float((matrix @ y).max())
    width = upper - value
    scale = max(1.0, float(matrix.max() - matrix.min()))
    note(f"certified bracket [{value!r}, {upper!r}], width {width:.3e}")
    target(width, label="certificate width")
    assert value == (x @ matrix).min()
    assert -1e-13 * scale <= width <= 2e-8
    # HiGHS lies in the bracket, up to its own accuracy on these games
    highs = _highs_maxmin(matrix)
    assert value - 1e-9 * scale <= highs <= upper + 1e-9 * scale


@st.composite
def _node_games(draw):
    # the joint payoff matrix of a normalized team game (entries 0 or at
    # least 1e-3, as in _float_matrices) and the product rows of a
    # branch-and-bound node
    shapes = [((3, 3), 3), ((4, 4), 4), ((3, 3, 3), 3)]
    team_sizes, adversary = draw(st.sampled_from(shapes))
    size = int(np.prod(team_sizes)) * adversary
    entries = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    values = draw(st.lists(entries, min_size=size, max_size=size))
    split = st.tuples(st.integers(0, 2), st.integers(0, 3), st.booleans())
    lo, hi = box_from_splits(team_sizes, draw(st.lists(split, max_size=8)))
    rows = _node_rows(_node_factors(team_sizes), lo, hi)
    return np.array(values).reshape(-1, adversary), rows


@given(_node_games(), st.data())
def test_node_maxmin_value_matches_highs(case, data):
    # HiGHS solves max t over {z >= 0, sum(z) = 1, F z >= 0} directly; the
    # packing LP reaches it through the columns F^T. check_maxmin returns
    # the bound its (y, lam) certificate proves: at the LP's optimum that
    # bound and the row mixture's worth both meet HiGHS. Any column mixture
    # y and lam >= 0 bound the node by weak duality, so a certificate whose
    # w is replaced by a drawn positive vector proves a looser bound
    matrix, rows = case
    highs = _highs_maxmin(matrix, rows)
    solution = solve_lp(build_maxmin_lp(matrix, rows))
    bound, strategy = check_maxmin(matrix, solution, rows)
    assert bound == pytest.approx(highs, abs=1e-9)
    assert bound >= highs - 1e-12
    assert (strategy @ matrix).min() == pytest.approx(highs, abs=1e-9)
    assert np.all(rows @ strategy >= -1e-9)
    cols = matrix.shape[1]
    values = solution.variable_values.copy()
    weights = st.lists(st.floats(1e-3, 1.0), min_size=cols, max_size=cols)
    values[:cols] = data.draw(weights, label="w")
    drawn = LpSolution(values, solution.iterations, solution.duals, solution.basis)
    loose, _ = check_maxmin(matrix, drawn, rows)
    note(f"HiGHS {highs!r}, certificate {bound!r}, drawn w {loose!r}")
    assert loose >= highs - 1e-12


@pytest.mark.parametrize(
    "family, n, m, seed, slack",
    [
        ("diagonal", 4, 3, None, 1e-7),
        ("diagonal", 5, 2, None, 1e-7),
        ("random", 4, 3, 2, 2e-6),
    ],
)
def test_node_rows_are_exact_on_a_point_box(family, n, m, seed, slack):
    # the node LP on a box of half-width 1e-6 around a profile x: the rows
    # of full degree force z to be the product of its marginals, so the
    # bound is the best team value in the box. At the uniform profile, the
    # optimum of the diagonal games, that is the value at x within 1e-7;
    # around the seeded profile of the random game the value itself moves
    # by up to about 1e-6 inside the box. Rows of degree 1 and 2 alone
    # leave 0.074, 0.0625 and 0.055 above the value
    game, _ = make_instance(family, n=n, m=m, seed=seed)
    if seed is None:
        profile = uniform_profile(game)
    else:
        profile = _random_profile(game, SplitMix64(seed))
    x = np.concatenate([strategy.probs for strategy in profile.strategies])
    lo, hi = np.maximum(x - 1e-6, 0.0), np.minimum(x + 1e-6, 1.0)
    rows = _node_rows(_node_factors(game.team_sizes), lo, hi)
    bound = _highs_maxmin(to_joint_game(game), rows)
    value = team_value(game, profile).value
    assert value - 1e-9 <= bound <= value + slack


# ---------------------------------------------------------------------------
# a member's box intersected with its simplex


def _highs_range(lo, hi, action):
    """The least and the greatest x[action] over lo <= x <= hi, sum(x) = 1,
    by HiGHS."""
    ends = []
    for sign in (1.0, -1.0):
        objective = np.zeros(lo.size)
        objective[action] = sign
        result = optimize.linprog(
            objective,
            A_eq=np.ones((1, lo.size)),
            b_eq=[1.0],
            bounds=list(zip(lo, hi)),
            method="highs",
            options={"primal_feasibility_tolerance": 1e-10},
        )
        assert result.status == 0, result.message
        ends.append(sign * result.fun)
    return ends


@st.composite
def _member_boxes(draw):
    # a box around a point x of a member's simplex: each low between 0 and
    # x_a, each high between x_a and 1, either end included. The fractions
    # of those ranges are 0, 1 or at least 1e-3, so that no bound lies
    # within HiGHS's feasibility tolerance (1e-10) of another value, which
    # HiGHS may then take for it
    m = draw(st.integers(1, 6))
    weights = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=m, max_size=m)))
    x = weights / weights.sum()
    fraction = st.sampled_from([0.0, 1.0]) | st.floats(1e-3, 1.0)
    down = np.array(draw(st.lists(fraction, min_size=m, max_size=m)))
    up = np.array(draw(st.lists(fraction, min_size=m, max_size=m)))
    lo, hi = x * down, np.minimum(x + (1.0 - x) * up, 1.0)
    # x itself may sum to 1 only up to rounding
    assume(lo.sum() <= 1.0 <= hi.sum())
    return lo, hi


@given(_member_boxes(), st.data())
def test_one_pass_tightens_a_member_box_exactly(box, data):
    # every tightened bound is the least or the greatest value its
    # coordinate takes on box and simplex, so a second pass moves nothing
    # but rounding, and both halves of a midpoint split still meet the
    # simplex once tightened. Rounding: a sum of m rounded entries of up
    # to 1 each is off by up to about m^2 ulps of 1 (48 at m = 6, measured)
    lo, hi = (v.copy() for v in box)
    rounding = 2 * lo.size**2 * np.finfo(float).eps
    _tighten_box(lo, hi)
    for action in range(lo.size):
        least, greatest = _highs_range(*box, action)
        assert lo[action] == pytest.approx(least, abs=1e-12)
        assert hi[action] == pytest.approx(greatest, abs=1e-12)
    again_lo, again_hi = lo.copy(), hi.copy()
    _tighten_box(again_lo, again_hi)
    assert np.abs(again_lo - lo).max() <= rounding
    assert np.abs(again_hi - hi).max() <= rounding
    action = data.draw(st.integers(0, lo.size - 1), label="split")
    mid = lo[action] + (hi[action] - lo[action]) / 2.0
    for half in (0, 1):
        child_lo, child_hi = lo.copy(), hi.copy()
        (child_lo if half else child_hi)[action] = mid
        _tighten_box(child_lo, child_hi)
        assert np.all(child_lo <= child_hi + rounding)
        assert child_lo.sum() - rounding <= 1.0 <= child_hi.sum() + rounding
