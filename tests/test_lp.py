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
    build_best_response_lp,
    build_maxmin_lp,
    lp_to_text,
    member_payoff_matrix,
    solve_lp,
    solve_maxmin,
)
from teammax.rng import SplitMix64


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
def test_maxmin_rejects_a_value_its_duals_do_not_certify(monkeypatch, duals, message):
    # a feasible but suboptimal answer for [[2, 1], [0, 0]]: row 1 played
    # purely guarantees 0, the value is 1; only the duals can show it
    suboptimal = LpSolution("optimal", 0.0, np.array([0.0, 1.0, 0.0]), 1, np.array(duals))
    monkeypatch.setattr(lp_module, "solve_lp", lambda lp: suboptimal)
    with pytest.raises(LpSolveError, match=message):
        solve_maxmin(np.array([[2.0, 1.0], [0.0, 0.0]]))


@pytest.mark.xfail(
    strict=True,
    raises=(LpSolveError, AssertionError),
    reason="known defect: a tiny nonzero payoff beside entries of order one "
    "becomes a degenerate pivot, and the rounding it magnifies breaks the "
    "absolute 1e-8 checks",
)
@pytest.mark.parametrize("big", [-5.0, -3.0])
def test_maxmin_badly_scaled_row(big):
    # one row, two columns: the value is the smaller entry, big; with
    # big = -5 the residual check raises, with -3 the value is 3.7e-9 off
    value, _ = solve_maxmin(np.array([[-(2.0**-24), big]]))
    assert value == pytest.approx(big, abs=1e-9)


def test_maxmin_strategy_achieves_its_value():
    rng = SplitMix64(5)
    matrix = rng.floats(20).reshape(4, 5)
    value, strategy = solve_maxmin(matrix)
    assert strategy.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(strategy >= -1e-9)
    assert (strategy @ matrix).min() == pytest.approx(value, abs=1e-8)


@given(st.integers(min_value=0, max_value=10_000))
def test_minimax_duality_on_random_matrices(seed):
    rng = SplitMix64(seed)
    matrix = rng.floats(25).reshape(5, 5) * 2.0 - 1.0
    primal, _ = solve_maxmin(matrix)
    dual, _ = solve_maxmin(-matrix.T)
    assert primal == pytest.approx(-dual, abs=1e-7)


def test_maxmin_lp_structure():
    matrix = np.array([[1.0, 0.0], [0.0, 1.0]])
    lp = build_maxmin_lp(matrix)
    # row mixture variables plus the free value variable
    assert lp.num_variables == 3
    assert not lp.nonneg[-1]
    assert lp.a_eq.shape == (1, 3)
    solution = solve_lp(lp)
    assert solution.objective_value == pytest.approx(0.5)


def test_lp_to_text_mentions_every_section():
    text = lp_to_text(build_maxmin_lp(np.eye(2)))
    for keyword in ("Maximize", "Subject To", "Bounds", "End"):
        assert keyword in text


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


def test_best_response_lp_recovers_best_value():
    game = _counting_game()
    profile = TeamProfile(
        (
            MixedStrategy(0, np.array([0.5, 0.5])),
            MixedStrategy(1, np.array([1.0, 0.0])),
        )
    )
    solution = solve_lp(build_best_response_lp(game, profile, 0))
    # pure row 1 of [[0,1],[4,5]] guarantees 4
    assert solution.objective_value == pytest.approx(4.0)


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
