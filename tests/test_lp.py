"""LP solver tests.

Two independent routes guard the simplex implementation: small instances
with hand-derived optima, and the minimax-duality identity
maxmin(M) = -maxmin(-M^T), which an incorrect optimizer has no reason to
satisfy on random matrices.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import teammax.lp as lp_module
from teammax.game import MixedStrategy, TeamGame, TeamProfile, to_joint_game
from teammax.generators import make_instance
from teammax.lp import (
    LinearProgram,
    LpSolution,
    LpSolveError,
    build_maxmin_lp,
    check_maxmin,
    member_payoff_matrix,
    solve_lp,
    solve_maxmin,
)
from teammax.rng import SplitMix64
from teammax.solvers import _box_products, _tighten_box


def _lp(objective, a_ub=None, b_ub=None, a_eq=None, b_eq=None, nonneg=None):
    objective = np.asarray(objective, dtype=float)
    n = objective.size
    if a_ub is None:
        a_ub, b_ub = np.zeros((0, n)), np.zeros(0)
    if a_eq is None:
        a_eq, b_eq = np.zeros((0, n)), np.zeros(0)
    if nonneg is None:
        nonneg = np.ones(n, dtype=bool)
    return LinearProgram(
        objective,
        np.asarray(a_ub, dtype=float),
        np.asarray(b_ub, dtype=float),
        np.asarray(a_eq, dtype=float),
        np.asarray(b_eq, dtype=float),
        np.asarray(nonneg, dtype=bool),
    )


def test_two_variable_optimum_by_hand():
    # max x+y st x+2y<=4, 3x+y<=6 -> corner (8/5, 6/5), objective 14/5
    solution = solve_lp(_lp([1, 1], [[1, 2], [3, 1]], [4, 6]))
    assert solution.status == "optimal"
    assert solution.objective_value == pytest.approx(2.8, abs=1e-9)
    assert np.allclose(solution.variable_values, [1.6, 1.2], atol=1e-9)
    assert solution.iterations > 0
    # dual prices of the two rows: y1 + 3 y2 = 1, 2 y1 + y2 = 1
    assert np.allclose(solution.duals, [0.4, 0.2], atol=1e-9)


def test_binding_equality():
    solution = solve_lp(_lp([1, 0], a_eq=[[1, 1]], b_eq=[1]))
    assert solution.status == "optimal"
    assert solution.objective_value == pytest.approx(1.0)
    assert np.allclose(solution.variable_values, [1.0, 0.0])


def test_free_variable_can_go_negative():
    solution = solve_lp(_lp([1], [[1]], [-3], nonneg=[False]))
    assert solution.status == "optimal"
    assert solution.objective_value == pytest.approx(-3.0)


def test_infeasible_detected():
    assert solve_lp(_lp([1], [[1]], [-1])).status == "infeasible"


def test_infeasible_equalities_detected():
    lp = _lp([1, 1], a_eq=[[1, 1], [1, 1]], b_eq=[1, 2])
    assert solve_lp(lp).status == "infeasible"


def test_unbounded_detected():
    assert solve_lp(_lp([1])).status == "unbounded"


def test_redundant_equality_rows_survive():
    lp = _lp([1, 1], a_eq=[[1, 1], [2, 2]], b_eq=[1, 2])
    solution = solve_lp(lp)
    assert solution.status == "optimal"
    assert solution.objective_value == pytest.approx(1.0)


def test_degenerate_vertex_terminates():
    # three constraints meet at (1, 0); the pivot rule must not cycle
    lp = _lp([1, 0], [[1, 0], [1, 1], [1, 2]], [1, 1, 1])
    solution = solve_lp(lp)
    assert solution.status == "optimal"
    assert solution.objective_value == pytest.approx(1.0)


def test_negative_rhs_rows_handled():
    # x >= 2 encoded as -x <= -2, maximize -x
    solution = solve_lp(_lp([-1], [[-1]], [-2]))
    assert solution.status == "optimal"
    assert solution.variable_values[0] == pytest.approx(2.0)
    # raising the bound -2 by t raises the optimum of -x by t
    assert solution.duals == pytest.approx([1.0])


def test_beale_cycling_example_terminates():
    # Beale's LP cycles under the largest-coefficient rule alone; the
    # fallback to Bland's rule after a run of degenerate pivots ends it
    lp = _lp(
        [0.75, -150.0, 1.0 / 50.0, -6.0],
        [
            [0.25, -60.0, -1.0 / 25.0, 9.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        [0.0, 0.0, 1.0],
    )
    solution = solve_lp(lp)
    assert solution.status == "optimal"
    assert solution.objective_value == pytest.approx(0.05, abs=1e-12)
    assert np.allclose(solution.variable_values, [0.04, 0.0, 1.0, 0.0], atol=1e-12)


def test_same_lp_twice_is_bitwise_identical_and_few_pivots():
    game, _ = make_instance("random", n=3, m=40, seed=0)
    lp = build_maxmin_lp(to_joint_game(game))
    first, second = solve_lp(lp), solve_lp(lp)
    assert first.iterations == second.iterations
    assert np.array_equal(first.variable_values, second.variable_values)
    assert np.array_equal(first.duals, second.duals)
    # Bland's rule alone needs 4,711 pivots on this correlated LP
    assert first.iterations < 1000


def test_solution_satisfies_constraints():
    rng = SplitMix64(11)
    a_ub = rng.floats(12).reshape(4, 3)
    b_ub = rng.floats(4) + 1.0
    lp = _lp(rng.floats(3), a_ub, b_ub)
    solution = solve_lp(lp)
    assert solution.status == "optimal"
    assert np.all(a_ub @ solution.variable_values <= b_ub + 1e-8)
    assert np.all(solution.variable_values >= -1e-9)


def test_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        _lp([1, 2], [[1]], [1])
    with pytest.raises(ValueError):
        _lp([np.inf])
    with pytest.raises(ValueError):
        _lp([1], [[1]], [np.nan])


# ---------------------------------------------------------------------------
# matrix-game interface


def test_matching_pennies_value_zero():
    value, strategy = solve_maxmin(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert value == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(strategy, [0.5, 0.5], atol=1e-9)


def test_rock_paper_scissors_uniform():
    matrix = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    value, strategy = solve_maxmin(matrix)
    assert value == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(strategy, 1.0 / 3.0, atol=1e-9)


def test_dominant_row_is_pure():
    value, strategy = solve_maxmin(np.array([[2.0, 1.0], [0.0, 0.0]]))
    assert value == pytest.approx(1.0)
    assert np.allclose(strategy, [1.0, 0.0], atol=1e-9)


def test_single_column_is_best_row_mix():
    # one adversary action: value is just the max row entry
    value, _ = solve_maxmin(np.array([[0.2], [0.9], [0.4]]))
    assert value == pytest.approx(0.9)


@pytest.mark.parametrize(
    "duals, message",
    [([0.0, 0.0], "not a column mixture"), ([0.0, 1.0], "a row beats")],
)
def test_maxmin_rejects_a_value_its_duals_do_not_certify(duals, message):
    # a suboptimal answer for [[2, 1], [0, 0]]: row 1 played purely
    # guarantees 0, the value is 1; only the column mixture can show it
    matrix = np.array([[2.0, 1.0], [0.0, 0.0]])
    value = float((np.array([0.0, 1.0]) @ matrix).min())
    with pytest.raises(LpSolveError, match=message):
        lp_module._certify(matrix, value, np.array(duals))


def test_maxmin_certifies_the_mixture_it_returns(monkeypatch):
    # the same suboptimal row mixture, planted after the simplex: the
    # value is its worth, 0, and the simplex's column mixture refutes it
    monkeypatch.setattr(
        lp_module, "_solve_on_support", lambda *args: np.array([0.0, 1.0])
    )
    with pytest.raises(LpSolveError, match="a row beats"):
        solve_maxmin(np.array([[2.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("big", [-5.0, -3.0])
def test_maxmin_badly_scaled_row(big):
    # one row, two columns: the value is the smaller entry, big. A nonzero
    # payoff near 1e-8 beside entries of order one once broke the general
    # LP's absolute 1e-8 checks here
    value, _ = solve_maxmin(np.array([[-(2.0**-24), big]]))
    assert value == pytest.approx(big, abs=1e-9)


def test_maxmin_solves_a_badly_scaled_game_on_the_other_tableau():
    # the square tableau of this game pivots on entries of 4e-5 and 1e-9
    # and stops at a basis that the certificate refutes by 1.6e-5; the
    # tableau of -M^T reaches the value, 0 (scipy-HiGHS agrees)
    matrix = np.array(
        [
            [0.0, 0.0, -8.600181810762484, -7.401453129164783, 6.103515625e-05],
            [-9.208076716732654, 1e-09, 9.999999999999998, 0.0, -6.103515625e-05],
            [2.00001, -7.665510397996925, -2.2838159790931676, 1e-09, -5.503727840529848],
            [0.0, -1e-09, 0.0, 6.103515625e-05, 0.0],
            [0.0, 0.001, -1e-08, 0.0, 0.0],
        ]
    )
    value, strategy = solve_maxmin(matrix)
    assert value == pytest.approx(0.0, abs=1e-9)
    assert (strategy @ matrix).min() == value


@pytest.mark.parametrize("shape", [(1, 1), (3, 2), (2, 3)])
def test_constant_matrix_is_its_entry_and_the_first_row(shape):
    value, strategy = solve_maxmin(np.full(shape, -0.75))
    assert value == -0.75
    assert np.array_equal(strategy, np.eye(shape[0])[0])


def test_same_matrix_twice_is_bitwise_identical_and_few_pivots(monkeypatch):
    game, _ = make_instance("random", n=3, m=40, seed=0)
    matrix = to_joint_game(game)
    pivots = []
    run = lp_module._run_simplex

    def counted(*args):
        status, count = run(*args)
        pivots.append(count)
        return status, count

    monkeypatch.setattr(lp_module, "_run_simplex", counted)
    (first, x_first), (second, x_second) = solve_maxmin(matrix), solve_maxmin(matrix)
    assert first == second
    assert x_first.tobytes() == x_second.tobytes()
    # one simplex run per solve (no phase 1), and few pivots on this
    # 1600 x 40 correlated LP
    assert len(pivots) == 2 and pivots[0] == pivots[1] < 1000


def test_maxmin_strategy_achieves_its_value():
    rng = SplitMix64(5)
    matrix = rng.floats(20).reshape(4, 5)
    value, strategy = solve_maxmin(matrix)
    assert strategy.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(strategy >= -1e-9)
    assert (strategy @ matrix).min() == pytest.approx(value, abs=1e-8)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
)
def test_minimax_duality_on_random_matrices(seed, rows, cols):
    # tall, wide and square games: the tableau takes the smaller side as
    # its rows, so M and -M^T run opposite orientations unless square
    rng = SplitMix64(seed)
    matrix = rng.floats(rows * cols).reshape(rows, cols) * 2.0 - 1.0
    primal, x = solve_maxmin(matrix)
    dual, y = solve_maxmin(-matrix.T)
    assert primal == pytest.approx(-dual, abs=1e-12)
    # each value is the worth of its own mixture
    assert primal == (x @ matrix).min() and dual == (y @ -matrix.T).min()
    for mixture in (x, y):
        assert mixture.min() >= 0.0
        assert mixture.sum() == pytest.approx(1.0, abs=1e-12)


def test_maxmin_lp_structure():
    matrix = np.array([[1.0, 0.0], [0.0, 1.0]])
    lp = build_maxmin_lp(matrix)
    # row mixture variables plus the free value variable
    assert lp.num_variables == 3
    assert not lp.nonneg[-1]
    assert lp.a_eq.shape == (1, 3)
    solution = solve_lp(lp)
    assert solution.objective_value == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# box-restricted maxmin LPs (branch-and-bound nodes)


def box_from_splits(team_sizes, splits):
    """Joint-probability box of a branch-and-bound node: halve the interval
    of (member, action) for each split as global_optimize does, keep the
    lower half when `upper` is false, and intersect with the simplex.
    Splits that would empty the box are skipped. Returns the products of
    the member interval endpoints, (lows, highs)."""
    los = [np.zeros(m) for m in team_sizes]
    his = [np.ones(m) for m in team_sizes]
    for member, action, upper in splits:
        member %= len(team_sizes)
        action %= team_sizes[member]
        child_los = [arr.copy() for arr in los]
        child_his = [arr.copy() for arr in his]
        mid = (los[member][action] + his[member][action]) / 2.0
        if upper:
            child_los[member][action] = mid
        else:
            child_his[member][action] = mid
        if _tighten_box(child_los, child_his):
            los, his = child_los, child_his
    return _box_products(los), _box_products(his)


def _reference_box_lp(matrix, lows, highs):
    # the box LP as global_optimize built it before build_maxmin_lp took a box
    rows, cols = matrix.shape
    nvar = rows + 1
    objective = np.zeros(nvar)
    objective[-1] = 1.0
    blocks = [np.zeros((cols, nvar))]
    blocks[0][:, :rows] = -matrix.T
    blocks[0][:, rows] = 1.0
    rhs = [np.zeros(cols)]
    upper = np.zeros((rows, nvar))
    upper[:, :rows] = np.eye(rows)
    blocks.append(upper)
    rhs.append(highs)
    mask = lows > 0.0
    if np.any(mask):
        lower = np.zeros((int(mask.sum()), nvar))
        lower[:, :rows] = -np.eye(rows)[mask]
        blocks.append(lower)
        rhs.append(-lows[mask])
    a_eq = np.zeros((1, nvar))
    a_eq[0, :rows] = 1.0
    nonneg = np.ones(nvar, dtype=bool)
    nonneg[-1] = False
    return LinearProgram(
        objective, np.vstack(blocks), np.concatenate(rhs), a_eq, np.ones(1), nonneg
    )


@pytest.mark.parametrize("n, m", [(3, 3), (3, 4), (4, 3)])
@pytest.mark.parametrize("upper", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_box_lp_is_the_reference_box_lp_bit_for_bit(n, m, upper, seed):
    # two splits per member on random actions. Lower halves leave at least
    # two of m >= 3 highs at 1, so every low stays 0; upper halves raise a
    # low of every member, which adds -x_r <= -lows[r] rows
    game, _ = make_instance("random", n=n, m=m, seed=seed)
    matrix = to_joint_game(game)
    draws = SplitMix64(seed).floats(2 * (n - 1))
    splits = [(i, int(d * m), upper) for i, d in enumerate(draws)]
    lows, highs = box_from_splits(game.team_sizes, splits)
    assert np.any(lows > 0.0) == upper
    assert np.any(highs < 1.0)
    got = build_maxmin_lp(matrix, lows, highs)
    want = _reference_box_lp(matrix, lows, highs)
    for field in ("objective", "a_ub", "b_ub", "a_eq", "b_eq", "nonneg"):
        a, b = getattr(got, field), getattr(want, field)
        assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), field


def test_box_certificate_by_hand():
    # [[2, 1], [0, 0]] with x_0 <= 1/2: x = (1/2, 1/2) guarantees 1/2, and
    # column 1 holds every mixture in the box to 1/2, although row 0 alone
    # would earn 1 against it
    matrix = np.array([[2.0, 1.0], [0.0, 0.0]])
    highs = np.array([0.5, 1.0])
    solution = solve_lp(build_maxmin_lp(matrix, highs=highs))
    value, strategy = check_maxmin(matrix, solution, highs=highs)
    assert value == pytest.approx(0.5)
    assert np.allclose(strategy, [0.5, 0.5])
    duals = np.array([0.0, 1.0, 0.0, 0.0])
    right = LpSolution("optimal", 0.5, np.array([0.5, 0.5, 0.5]), 1, duals)
    assert check_maxmin(matrix, right, highs=highs)[0] == 0.5
    with pytest.raises(LpSolveError, match="a row beats"):
        check_maxmin(matrix, right)
    low = LpSolution("optimal", 0.4, np.array([0.4, 0.6, 0.4]), 1, duals)
    with pytest.raises(LpSolveError, match="a row beats"):
        check_maxmin(matrix, low, highs=highs)


def test_certificate_rejects_a_solution_that_is_not_optimal():
    matrix = np.eye(2)
    with pytest.raises(LpSolveError, match="came back infeasible"):
        check_maxmin(matrix, LpSolution("infeasible", float("nan"), None, 3))


# ---------------------------------------------------------------------------
# team best-response reductions


def _counting_game() -> TeamGame:
    return TeamGame(3, (2, 2, 2), np.arange(8, dtype=float))


def test_member_payoff_matrix_by_hand():
    game = _counting_game()
    profile = TeamProfile(
        (
            MixedStrategy(0, np.array([0.5, 0.5])),
            MixedStrategy(1, np.array([1.0, 0.0])),
        )
    )
    # member 0 vs fixed member 1: M[i, k] = U[i, 0, k]
    m0 = member_payoff_matrix(game, profile, 0)
    assert np.allclose(m0, [[0.0, 1.0], [4.0, 5.0]])
    # member 1 vs fixed member 0: M[j, k] = (U[0,j,k] + U[1,j,k]) / 2
    m1 = member_payoff_matrix(game, profile, 1)
    assert np.allclose(m1, [[2.0, 3.0], [4.0, 5.0]])


def test_member_payoff_matrix_ignores_own_mixture():
    game = _counting_game()
    a = TeamProfile(
        (
            MixedStrategy(0, np.array([1.0, 0.0])),
            MixedStrategy(1, np.array([0.25, 0.75])),
        )
    )
    b = TeamProfile(
        (
            MixedStrategy(0, np.array([0.0, 1.0])),
            MixedStrategy(1, np.array([0.25, 0.75])),
        )
    )
    assert np.allclose(
        member_payoff_matrix(game, a, 0), member_payoff_matrix(game, b, 0)
    )


def test_member_payoff_matrix_needs_one_strategy_per_member():
    game = _counting_game()
    short = TeamProfile((MixedStrategy(0, np.array([1.0, 0.0])),))
    with pytest.raises(ValueError):
        member_payoff_matrix(game, short, 0)


def test_best_response_lp_recovers_best_value():
    game = _counting_game()
    profile = TeamProfile(
        (
            MixedStrategy(0, np.array([0.5, 0.5])),
            MixedStrategy(1, np.array([1.0, 0.0])),
        )
    )
    value, _ = solve_maxmin(member_payoff_matrix(game, profile, 0))
    # pure row 1 of [[0,1],[4,5]] guarantees 4
    assert value == pytest.approx(4.0)


def test_three_team_members_contraction():
    # 4 players: member payoffs contract two fixed teammates
    tensor = np.arange(16, dtype=float).reshape(2, 2, 2, 2)
    game = TeamGame(4, (2, 2, 2, 2), tensor)
    profile = TeamProfile(
        (
            MixedStrategy(0, np.array([1.0, 0.0])),
            MixedStrategy(1, np.array([0.0, 1.0])),
            MixedStrategy(2, np.array([0.5, 0.5])),
        )
    )
    # member 2 vs fixed (0 -> 0, 1 -> 1): M[l, k] = U[0, 1, l, k]
    matrix = member_payoff_matrix(game, profile, 2)
    assert np.allclose(matrix, tensor[0, 1])
