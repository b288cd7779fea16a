"""LP solver tests.

Two independent routes guard the simplex implementation: small instances
with hand-derived optima, and the minimax-duality identity
maxmin(M) = -maxmin(-M^T), which an incorrect optimizer has no reason to
satisfy on random matrices. The simplex's two representations, the whole
tableau and the basis inverse, are also run against each other.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import teammax.lp as lp_module
import teammax.solvers as solvers_module
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
from teammax.solvers import _node_incidence, _node_rows, _tighten_box


def _lp(objective, a_ub=None, b_ub=None):
    objective = np.asarray(objective, dtype=float)
    if a_ub is None:
        a_ub, b_ub = np.zeros((0, objective.size)), np.zeros(0)
    return LinearProgram(
        objective, np.asarray(a_ub, dtype=float), np.asarray(b_ub, dtype=float)
    )


def test_two_variable_optimum_by_hand():
    # max x+y st x+2y<=4, 3x+y<=6 -> corner (8/5, 6/5), objective 14/5
    lp = _lp([1, 1], [[1, 2], [3, 1]], [4, 6])
    solution = solve_lp(lp)
    assert lp.objective @ solution.variable_values == pytest.approx(2.8, abs=1e-9)
    assert np.allclose(solution.variable_values, [1.6, 1.2], atol=1e-9)
    assert solution.iterations > 0
    # dual prices of the two rows: y1 + 3 y2 = 1, 2 y1 + y2 = 1
    assert np.allclose(solution.duals, [0.4, 0.2], atol=1e-9)
    # both variables are basic, both slacks left the basis
    assert sorted(solution.basis) == [0, 1]


def test_unbounded_detected():
    with pytest.raises(LpSolveError, match="unbounded"):
        solve_lp(_lp([1]))


def test_degenerate_vertex_terminates():
    # three constraints meet at (1, 0); the pivot rule must not cycle
    lp = _lp([1, 0], [[1, 0], [1, 1], [1, 2]], [1, 1, 1])
    solution = solve_lp(lp)
    assert lp.objective @ solution.variable_values == pytest.approx(1.0)


# Beale's LP, which cycles under the largest-coefficient rule alone
BEALE_LP = _lp(
    [0.75, -150.0, 1.0 / 50.0, -6.0],
    [
        [0.25, -60.0, -1.0 / 25.0, 9.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ],
    [0.0, 0.0, 1.0],
)


def test_beale_cycling_example_terminates():
    # the fallback to Bland's rule after a run of degenerate pivots ends
    # the cycle
    lp = BEALE_LP
    for inverse in (False, True):
        solution = lp_module._solve_lp(lp, inverse)
        assert solution.iterations == 54
        assert lp.objective @ solution.variable_values == pytest.approx(
            0.05, abs=1e-12
        )
        assert np.allclose(
            solution.variable_values, [0.04, 0.0, 1.0, 0.0], atol=1e-12
        )
    assert solve_lp(lp).iterations == 54


def test_simplex_that_hits_the_pivot_cap_raises(monkeypatch):
    # Beale's LP needs 54 pivots; a cap of 10 stops it
    run = lp_module._run_simplex
    monkeypatch.setattr(
        lp_module,
        "_run_simplex",
        lambda work, cols, basis, max_iter: run(work, cols, basis, 10),
    )
    with pytest.raises(LpSolveError, match="did not terminate within 10 pivots"):
        solve_lp(BEALE_LP)


def test_solution_that_misses_the_residual_check_raises(monkeypatch):
    # a negative tolerance fails every solution, tight rows included
    monkeypatch.setattr(lp_module, "_CHECK_TOL", -0.5)
    with pytest.raises(LpSolveError, match="inequality residual"):
        solve_lp(_lp([1, 1], [[1, 2], [3, 1]], [4, 6]))


# ---------------------------------------------------------------------------
# the simplex on the whole tableau and on the basis inverse


def _recorded_lps(monkeypatch, solve):
    """The LPs that solve() passes to solve_lp, in order."""
    lps = []
    run = lp_module.solve_lp

    def recording(lp):
        lps.append(lp)
        return run(lp)

    monkeypatch.setattr(lp_module, "solve_lp", recording)
    solve()
    monkeypatch.undo()
    return lps


def _assert_same_pivots(lp):
    tableau = lp_module._solve_lp(lp, inverse=False)
    inverse = lp_module._solve_lp(lp, inverse=True)
    assert tableau.iterations == inverse.iterations
    assert tableau.basis == inverse.basis
    for field in ("variable_values", "duals"):
        a, b = getattr(tableau, field), getattr(inverse, field)
        assert np.allclose(a, b, rtol=0.0, atol=1e-12), field


# the correlated-lp benchmark's ladder: one correlated LP per rung
_CORRELATED_LADDER = [
    *(("random", 3, m, 0) for m in (10, 20)),
    *(("random", 3, 40, seed) for seed in range(8)),
    *(("random", 4, m, 0) for m in (3, 4, 8)),
    ("diagonal", 3, 30, None),
    ("poa", None, None, None),
]


@pytest.mark.parametrize("family, n, m, seed", _CORRELATED_LADDER)
def test_correlated_lp_pivots_alike_in_both_forms(monkeypatch, family, n, m, seed):
    game, _ = make_instance(family, n=n, m=m, seed=seed)
    (lp,) = _recorded_lps(monkeypatch, lambda: solve_maxmin(to_joint_game(game)))
    _assert_same_pivots(lp)


def test_best_response_lp_pivots_alike_in_both_forms(monkeypatch):
    game, _ = make_instance("random", n=3, m=20, seed=0)
    profile = TeamProfile(
        tuple(MixedStrategy(np.full(20, 0.05)) for _ in range(2))
    )
    matrix = member_payoff_matrix(game, profile, 0)
    (lp,) = _recorded_lps(monkeypatch, lambda: solve_maxmin(matrix))
    assert lp.a_ub.shape == (20, 20)
    _assert_same_pivots(lp)


@st.composite
def _packing_lps(draw):
    # small-integer payoffs, whose ties make degenerate vertices, and
    # duplicated columns
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 400))
    distinct = draw(st.integers(1, cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.integers(-3, 4, size=(rows, distinct)).astype(float)
    matrix = base[:, rng.integers(0, distinct, size=cols)]
    return matrix, build_maxmin_lp(matrix)


@given(_packing_lps())
def test_both_forms_reach_the_same_optimum(case):
    # _solve_lp raises if its solution misses the residual check, and
    # check_maxmin unless the duals certify the value
    matrix, lp = case
    tableau = lp_module._solve_lp(lp, inverse=False)
    inverse = lp_module._solve_lp(lp, inverse=True)
    assert lp.objective @ inverse.variable_values == pytest.approx(
        lp.objective @ tableau.variable_values, abs=1e-9
    )
    first, _ = check_maxmin(matrix, tableau)
    second, _ = check_maxmin(matrix, inverse)
    assert first == pytest.approx(second, abs=1e-9)


@pytest.mark.parametrize(
    "m, n, inverse",
    [
        (20, 20, False),  # best response at n3 m20
        (16, 70, False),  # branch-and-bound node at n3 m4
        (10, 100, False),  # correlated LP at n3 m10
        (20, 400, True),  # correlated LP at n3 m20
        (40, 1600, True),  # correlated LP at n3 m40
        (400, 1260, True),  # branch-and-bound node at n3 m20
        (400, 20, False),  # tall: pricing reads as much as the update saves
    ],
)
def test_shape_rule(m, n, inverse):
    assert lp_module._prices_from_inverse(m, n) == inverse


def test_same_lp_twice_is_bitwise_identical_and_few_pivots():
    # a branch-and-bound node LP of the n3 m20 correlated game: 400 rows,
    # 20 payoff columns and one column per marginal or envelope row
    game, _ = make_instance("random", n=3, m=20, seed=0)
    splits = [(0, 3, True), (1, 5, False), (0, 7, False), (1, 2, True)]
    box = box_from_splits(game.team_sizes, splits)
    rows = _node_rows(_node_incidence(game.team_sizes), *box)
    lp = build_maxmin_lp(to_joint_game(game), rows)
    assert lp.a_ub.shape == (400, 20 + rows[1].size)
    first, second = solve_lp(lp), solve_lp(lp)
    assert first.iterations == second.iterations
    assert first.variable_values.tobytes() == second.variable_values.tobytes()
    assert first.duals.tobytes() == second.duals.tobytes()
    assert first.iterations < 1000


def test_solution_satisfies_constraints():
    rng = SplitMix64(11)
    a_ub = rng.floats(12).reshape(4, 3)
    b_ub = rng.floats(4) + 1.0
    lp = _lp(rng.floats(3), a_ub, b_ub)
    solution = solve_lp(lp)
    assert np.all(a_ub @ solution.variable_values <= b_ub + 1e-8)
    assert np.all(solution.variable_values >= -1e-9)


def test_validation_rejects_bad_shapes():
    for objective, a_ub, b_ub in [
        ([1, 2], [[1]], [1]),
        ([1], [[1]], [1, 1]),
        ([np.inf], [[1]], [1]),
        ([1], [[np.nan]], [1]),
        ([1], [[1]], [np.nan]),
        ([1], [[1]], [np.inf]),
        # x >= 2 as -x <= -2: the slack basis would be infeasible
        ([-1], [[-1]], [-2]),
    ]:
        with pytest.raises(ValueError):
            solve_lp(_lp(objective, a_ub, b_ub))


def test_maxmin_rejects_payoffs_that_are_not_finite():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            solve_maxmin(np.array([[0.0, 1.0], [bad, 0.5]]))


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


# the square tableau of this game pivots on entries of 4e-5 and 1e-9 and
# stops at a basis that the certificate refutes by 1.6e-5; the tableau of
# -M^T reaches the value, 0 (scipy-HiGHS agrees)
BADLY_SCALED_GAME = np.array(
    [
        [0.0, 0.0, -8.600181810762484, -7.401453129164783, 6.103515625e-05],
        [-9.208076716732654, 1e-09, 9.999999999999998, 0.0, -6.103515625e-05],
        [2.00001, -7.665510397996925, -2.2838159790931676, 1e-09, -5.503727840529848],
        [0.0, -1e-09, 0.0, 6.103515625e-05, 0.0],
        [0.0, 0.001, -1e-08, 0.0, 0.0],
    ]
)


def test_maxmin_solves_a_badly_scaled_game_on_the_other_tableau():
    matrix = BADLY_SCALED_GAME
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
        count = run(*args)
        pivots.append(count)
        return count

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
    # the packing LP of P = 1 + M = [[2, 1], [1, 2]]: one variable per
    # column, one row per row, rhs all ones
    matrix = np.array([[1.0, 0.0], [0.0, 1.0]])
    lp = build_maxmin_lp(matrix)
    assert np.array_equal(lp.a_ub, [[2.0, 1.0], [1.0, 2.0]])
    assert np.array_equal(lp.b_ub, [1.0, 1.0])
    assert np.array_equal(lp.objective, [1.0, 1.0])
    solution = solve_lp(lp)
    # the optimum is 1 / (value in P) = 1 / 1.5
    assert lp.objective @ solution.variable_values == pytest.approx(2.0 / 3.0)
    value, strategy = check_maxmin(matrix, solution)
    assert value == pytest.approx(0.5)
    assert np.allclose(strategy, [0.5, 0.5])
    # a row g @ x <= h adds the column h 1 - g: -x_0 <= -1/4 the column
    # e_0 - 1/4, then x_0 <= 1/2 the column 1/2 - e_0; payoffs spanning 2
    # price at 2
    lp = build_maxmin_lp(2.0 * matrix, box_rows([0.25, 0.0], [0.5, 1.0]))
    assert np.array_equal(
        lp.a_ub, [[2.0, 1.0, 0.75, -0.5], [1.0, 2.0, -0.25, 0.5]]
    )
    assert np.array_equal(lp.objective, [2.0, 2.0, 0.0, 0.0])
    # the column player's LP, that of -M^T, is the shift 1 + (hi - M^T) / s
    # of M^T with objective max(1, hi - lo), bit for bit: negation is exact
    rng = SplitMix64(5)
    for rows, cols in ((5, 2), (2, 5), (4, 4)):  # tall, wide, square
        for matrix in (
            rng.floats(rows * cols).reshape(rows, cols) * 3.0 - 1.0,
            np.full((rows, cols), 0.7),  # constant: s = 1
        ):
            lo, hi = float(matrix.min()), float(matrix.max())
            lp = build_maxmin_lp(-matrix.T)
            assert np.array_equal(lp.a_ub, 1.0 + (hi - matrix.T) / ((hi - lo) or 1.0))
            assert np.array_equal(lp.objective, np.full(rows, max(1.0, hi - lo)))
            assert np.array_equal(lp.b_ub, np.ones(cols))


# ---------------------------------------------------------------------------
# maxmin LPs with rows: boxes and branch-and-bound nodes


def box_from_splits(team_sizes, splits):
    """The box of a branch-and-bound node, (lo, hi), as global_optimize
    keeps it: every member's action intervals in one vector of lows and one
    of highs, member 0's first. Halves the interval of (member, action) for
    each split as global_optimize does, keeps the lower half when `upper`
    is false, and intersects with the simplex; splits that would empty the
    box are skipped."""
    members = _node_incidence(team_sizes).members
    lo, hi = np.zeros(sum(team_sizes)), np.ones(sum(team_sizes))
    for member, action, upper in splits:
        member %= len(team_sizes)
        k = members[member].start + action % team_sizes[member]
        child_lo, child_hi = lo.copy(), hi.copy()
        mid = (lo[k] + hi[k]) / 2.0
        if upper:
            child_lo[k] = mid
        else:
            child_hi[k] = mid
        if _tighten_box(child_lo, child_hi, members):
            lo, hi = child_lo, child_hi
    return lo, hi


def per_member(team_sizes, vector):
    """One member's part of a box vector per member, as views."""
    return np.split(vector, np.cumsum(team_sizes)[:-1])


def _products(parts):
    out = np.ones(1)
    for vec in parts:
        out = np.multiply.outer(out, vec).reshape(-1)
    return out


def joint_box(team_sizes, splits):
    """The products of a node's member interval endpoints, (lows, highs):
    every joint probability of a profile in the member boxes lies between
    them."""
    lo, hi = (per_member(team_sizes, v) for v in box_from_splits(team_sizes, splits))
    return _products(lo), _products(hi)


def box_rows(lows, highs):
    """lows <= x <= highs as rows (G, h): -x_r <= -lows_r for every positive
    low, then x_r <= highs_r for every high below 1."""
    lows, highs = np.asarray(lows, dtype=float), np.asarray(highs, dtype=float)
    eye = np.eye(lows.size)
    low, high = lows > 0.0, highs < 1.0
    return (
        np.vstack([-eye[low], eye[high]]),
        np.concatenate([-lows[low], highs[high]]),
    )


def node_solution(matrix, rows):
    solution = solve_lp(build_maxmin_lp(matrix, rows))
    return solution, check_maxmin(matrix, solution, rows)


def _reference_box_lp(matrix, lows, highs):
    # the box LP written entry by entry: a column of shifted payoffs per
    # adversary action, then e_r - lows_r for every row with a positive
    # low, then highs_r - e_r for every row with a high below 1
    rows, cols = matrix.shape
    lo, hi = matrix.min(), matrix.max()
    columns = [
        [1.0 + (matrix[r, c] - lo) / (hi - lo) for r in range(rows)]
        for c in range(cols)
    ]
    columns += [
        [float(r == k) - lows[k] for r in range(rows)]
        for k in range(rows)
        if lows[k] > 0.0
    ]
    columns += [
        [highs[k] - float(r == k) for r in range(rows)]
        for k in range(rows)
        if highs[k] < 1.0
    ]
    objective = [max(1.0, hi - lo)] * cols + [0.0] * (len(columns) - cols)
    return LinearProgram(np.array(objective), np.array(columns).T, np.ones(rows))


@pytest.mark.parametrize("n, m", [(3, 3), (3, 4), (4, 3)])
@pytest.mark.parametrize("upper", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_box_lp_is_the_reference_box_lp_bit_for_bit(n, m, upper, seed):
    # two splits per member on random actions. Lower halves leave at least
    # two of m >= 3 highs at 1, so every low stays 0; upper halves raise a
    # low of every member, which adds e_r - lows_r columns. A box's rows
    # give the columns h 1 - g of build_maxmin_lp
    game, _ = make_instance("random", n=n, m=m, seed=seed)
    matrix = to_joint_game(game)
    draws = SplitMix64(seed).floats(2 * (n - 1))
    splits = [(i, int(d * m), upper) for i, d in enumerate(draws)]
    lows, highs = joint_box(game.team_sizes, splits)
    assert np.any(lows > 0.0) == upper
    assert np.any(highs < 1.0)
    got = build_maxmin_lp(matrix, box_rows(lows, highs))
    want = _reference_box_lp(matrix, lows, highs)
    for field in ("objective", "a_ub", "b_ub"):
        a, b = getattr(got, field), getattr(want, field)
        assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), field


def test_box_of_zeros_and_ones_is_the_unboxed_lp():
    # such a box has no rows, and no rows add no columns
    game, _ = make_instance("random", n=3, m=4, seed=1)
    matrix = to_joint_game(game)
    rows = matrix.shape[0]
    boxed = build_maxmin_lp(matrix, box_rows(np.zeros(rows), np.ones(rows)))
    plain = build_maxmin_lp(matrix)
    for field in ("objective", "a_ub", "b_ub"):
        a, b = getattr(boxed, field), getattr(plain, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field


@pytest.mark.parametrize(
    "mixtures",
    [
        ([0.5, 0.25, 0.25], [0.2, 0.0, 0.8]),
        ([0.0, 1.0, 0.0], [0.3, 0.3, 0.4]),
        ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]),
    ],
)
def test_point_box_returns_its_point(mixtures):
    # lows == highs: the box holds one joint strategy, the product of the
    # member mixtures, and the LP's value is that strategy's worth
    game, _ = make_instance("random", n=3, m=3, seed=4)
    matrix = to_joint_game(game)
    point = _products([np.array(p) for p in mixtures])
    _, (value, strategy) = node_solution(matrix, box_rows(point, point))
    assert np.abs(strategy - point).max() <= 1e-12
    assert abs(value - (point @ matrix).min()) <= 1e-12


@pytest.mark.parametrize("excess", [1e-7, 1e-4, 0.5])
def test_box_above_the_simplex_raises(excess):
    # lows summing past 1 leave no mixture in the box: the packing LP is
    # unbounded, and solve_lp raises
    matrix = np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 3.0], [1.0, 2.0, 1.0]])
    rows = box_rows([0.5, 0.25, 0.25 + excess], np.ones(3))
    with pytest.raises(LpSolveError, match="unbounded"):
        solve_lp(build_maxmin_lp(matrix, rows))


def test_box_certificate_by_hand():
    # [[2, 1], [0, 0]] with x_0 <= 1/2: x = (1/2, 1/2) guarantees 1/2, and
    # column 1 holds every mixture in the box to 1/2, although row 0 alone
    # would earn 1 against it
    matrix = np.array([[2.0, 1.0], [0.0, 0.0]])
    rows = box_rows([0.0, 0.0], [0.5, 1.0])
    _, (value, strategy) = node_solution(matrix, rows)
    assert value == pytest.approx(0.5)
    assert np.allclose(strategy, [0.5, 0.5])
    # by hand: P = [[2, 1.5], [1, 1]] and the column 1/2 - e_0; the optimum
    # w = (0, 0.8) with 0.4 of that column, the basis [1, 2], and duals
    # u = (0.4, 0.4). The certificate is y = (0, 1) and lam = 0.4 * 2 / 0.8 = 1:
    # max(matrix @ y - lam e_0) + lam / 2 = max(0, 0) + 1/2
    w = np.array([0.0, 0.8, 0.4])
    right = LpSolution(w, 1, np.array([0.4, 0.4]), [1, 2])
    assert check_maxmin(matrix, right, rows)[0] == 0.5
    with pytest.raises(LpSolveError, match="a row beats"):
        check_maxmin(matrix, right)
    # the row mixture (0.4, 0.6) is worth only 0.4, and y = (0, 1) shows a
    # mixture in the box that earns 0.5
    low = LpSolution(w, 1, np.array([0.4, 0.6]), [1, 2])
    with pytest.raises(LpSolveError, match="a row beats"):
        check_maxmin(matrix, low, rows)


def _tampered(solution, values):
    return LpSolution(values, 1, solution.duals, solution.basis)


def test_node_certificate_needs_its_multipliers_and_its_column_mixture():
    # a node whose rows hold the bound below v_C: without lam the
    # certificate is max(matrix @ y) >= v_C, and moving half of y onto the
    # column the row mixture does best against lets that mixture beat it
    game, _ = make_instance("random", n=3, m=3, seed=0)
    matrix = to_joint_game(game)
    v_c, _ = solve_maxmin(matrix)
    splits = [(0, 0, False), (1, 2, True)]
    box = box_from_splits(game.team_sizes, splits)
    rows = _node_rows(_node_incidence(game.team_sizes), *box)
    solution, (value, x) = node_solution(matrix, rows)
    assert value < v_c - 1e-3
    cols = matrix.shape[1]
    values = solution.variable_values.copy()
    values[cols:] = 0.0
    with pytest.raises(LpSolveError, match="a row beats"):
        check_maxmin(matrix, _tampered(solution, values), rows)
    best = int(np.argmax(x @ matrix))
    assert (x @ matrix)[best] > value + 1e-3
    values = solution.variable_values.copy()
    weight = values[:cols].sum()
    values[:cols] *= 0.5
    values[best] += 0.5 * weight
    with pytest.raises(LpSolveError, match="a row beats"):
        check_maxmin(matrix, _tampered(solution, values), rows)


def test_global_optimize_runs_the_simplex_once_per_lp(monkeypatch):
    # every LP, the node LPs included, starts from the slack basis: no
    # phase 1, so one simplex run per solve_lp call
    counts = {"lp": 0, "runs": 0}
    run, solve = lp_module._run_simplex, lp_module.solve_lp

    def counted_run(*args):
        counts["runs"] += 1
        return run(*args)

    def counted_solve(lp):
        counts["lp"] += 1
        return solve(lp)

    monkeypatch.setattr(lp_module, "_run_simplex", counted_run)
    monkeypatch.setattr(lp_module, "solve_lp", counted_solve)
    monkeypatch.setattr(solvers_module, "solve_lp", counted_solve)
    game, _ = make_instance("random", n=3, m=4, seed=1)
    report = solvers_module.global_optimize(
        game, accuracy=1e-3, restarts=2, max_nodes=10
    )
    assert report.iterations > 0
    assert counts["lp"] > 2 * report.iterations
    assert counts["runs"] == counts["lp"]


# ---------------------------------------------------------------------------
# team best-response reductions


def _counting_game() -> TeamGame:
    return TeamGame(3, (2, 2, 2), np.arange(8, dtype=float))


def test_member_payoff_matrix_by_hand():
    game = _counting_game()
    profile = TeamProfile(
        (
            MixedStrategy(np.array([0.5, 0.5])),
            MixedStrategy(np.array([1.0, 0.0])),
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
            MixedStrategy(np.array([1.0, 0.0])),
            MixedStrategy(np.array([0.25, 0.75])),
        )
    )
    b = TeamProfile(
        (
            MixedStrategy(np.array([0.0, 1.0])),
            MixedStrategy(np.array([0.25, 0.75])),
        )
    )
    assert np.allclose(
        member_payoff_matrix(game, a, 0), member_payoff_matrix(game, b, 0)
    )


def test_member_payoff_matrix_needs_one_strategy_per_member():
    game = _counting_game()
    short = TeamProfile((MixedStrategy(np.array([1.0, 0.0])),))
    with pytest.raises(ValueError):
        member_payoff_matrix(game, short, 0)


def test_best_response_lp_recovers_best_value():
    game = _counting_game()
    profile = TeamProfile(
        (
            MixedStrategy(np.array([0.5, 0.5])),
            MixedStrategy(np.array([1.0, 0.0])),
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
            MixedStrategy(np.array([1.0, 0.0])),
            MixedStrategy(np.array([0.0, 1.0])),
            MixedStrategy(np.array([0.5, 0.5])),
        )
    )
    # member 2 vs fixed (0 -> 0, 1 -> 1): M[l, k] = U[0, 1, l, k]
    matrix = member_payoff_matrix(game, profile, 2)
    assert np.allclose(matrix, tensor[0, 1])
