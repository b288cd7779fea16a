"""The branch-and-bound node helpers and the maxmin LP path, bit for bit
against plain references.

_node_rows, _tighten_box, the tableau solve_lp builds, build_maxmin_lp,
check_maxmin and solve_maxmin make as few numpy calls as they can. The
references below compute the same floating-point operations the plain way,
one numpy call per step; every output must have the same bits on whatever
numpy runs the tests, so that a solve's bounds, counts and witness do not
depend on which of the two is run.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import teammax.lp as lp_module
from teammax.game import to_joint_game
from teammax.generators import make_instance
from teammax.lp import (
    LinearProgram,
    LpSolution,
    LpSolveError,
    build_maxmin_lp,
    check_maxmin,
    solve_lp,
    solve_maxmin,
)
from teammax.solvers import _node_incidence, _node_rows, _tighten_box
from test_lp import BADLY_SCALED_GAME, box_from_splits, per_member

# ---------------------------------------------------------------------------
# references


def _reference_node_rows(team_sizes, los, his):
    members = len(team_sizes)
    actions = np.indices(team_sizes).reshape(members, -1)
    marks = [
        (np.arange(m)[:, None] == act).astype(np.float64)
        for m, act in zip(team_sizes, actions)
    ]
    g_blocks, h_blocks = [], []
    for mark, lo, hi in zip(marks, los, his):
        low, high = lo > 0.0, hi < 1.0
        g_blocks += [-mark[low], mark[high]]
        h_blocks += [-lo[low], hi[high]]
    signs = np.array([-1.0, -1.0, 1.0, 1.0])[:, None, None]
    lower = signs < 0.0
    for i, j in itertools.combinations(range(members), 2):
        x_a, x_b = marks[i][:, None, :], marks[j][None, :, :]
        pair = x_a * x_b
        alpha = np.stack([los[i], his[i], his[i], los[i]])[:, :, None]
        beta = np.stack([los[j], his[j], los[j], his[j]])[:, None, :]
        on_edge = ((alpha == 0.0) | (alpha == 1.0)) & ((beta == 0.0) | (beta == 1.0))
        keep = ~(on_edge & ((alpha == beta) == lower))
        g = signs[..., None] * (pair - alpha[..., None] * x_b - beta[..., None] * x_a)
        g_blocks.append(g[keep])
        h_blocks.append((-signs * alpha * beta)[keep])
    return np.concatenate(g_blocks), np.concatenate(h_blocks)


def _reference_tighten_box(los, his):
    for _ in range(2):
        for lo, hi in zip(los, his):
            np.minimum(hi, 1.0 - (lo.sum() - lo), out=hi)
            np.maximum(lo, 1.0 - (hi.sum() - hi), out=lo)
            if np.any(lo > hi + 1e-12):
                return False
            if lo.sum() > 1.0 + 1e-9 or hi.sum() < 1.0 - 1e-9:
                return False
    return True


def _reference_solve_lp(lp, inverse=None):
    m, n = lp.a_ub.shape
    if inverse is None:
        inverse = lp_module._prices_from_inverse(m, n)
    if inverse:
        cols = np.zeros((n + m, m + 2))
        cols[:n, :m] = lp.a_ub.T
        cols[:n, m] = -lp.objective
        np.fill_diagonal(cols[n:], 1.0)
        work = np.eye(m + 1, m + 2)
        work[:m, -1] = lp.b_ub
    else:
        work = np.zeros((m + 1, n + m + 1))
        work[:m, :n] = lp.a_ub
        np.fill_diagonal(work[:m, n:], 1.0)
        work[:m, -1] = lp.b_ub
        work[-1, :n] = -lp.objective
        cols = None
    basis = list(range(n, n + m))
    pivots = lp_module._run_simplex(work, cols, basis, 1000 * (2 * m + n + 10))
    values = np.zeros(n + m)
    values[basis] = work[:m, -1]
    x = values[:n]
    duals = (work[-1, n:-1] if cols is None else work[-1, :m]).copy()
    return LpSolution(x, pivots, duals, basis)


def _reference_build_maxmin_lp(matrix, rows=None):
    matrix = np.asarray(matrix, dtype=np.float64)
    lo, hi = float(matrix.min()), float(matrix.max())
    packing = 1.0 + (matrix - lo) / ((hi - lo) or 1.0)
    a_ub = packing
    if rows is not None:
        g, h = rows
        a_ub = np.hstack([packing, h - g.T])
    objective = np.zeros(a_ub.shape[1])
    objective[: packing.shape[1]] = max(1.0, hi - lo)
    return LinearProgram(objective, a_ub, np.ones(packing.shape[0]))


def _reference_mixtures(solution, cols):
    u = np.maximum(solution.duals, 0.0)
    w = np.maximum(solution.variable_values[:cols], 0.0)
    return u / u.sum(), w / w.sum()


def _reference_check_maxmin(matrix, solution, rows=None):
    cols = matrix.shape[1]
    x, y = _reference_mixtures(solution, cols)
    value = float((x @ matrix).min())
    if rows is None:
        lp_module._certify(matrix, value, y)
    else:
        spread = float(matrix.max() - matrix.min()) or 1.0
        weight = np.maximum(solution.variable_values[:cols], 0.0).sum()
        lam = np.maximum(solution.variable_values[cols:], 0.0) * (spread / weight)
        lp_module._certify(matrix, value, y, rows, lam)
    return value, x


def _reference_solve_on_support(matrix, x, support, active):
    k = support.size
    system = np.zeros((k + 1, k + 1))
    system[:k, :k] = matrix[support][:, active].T
    system[:k, k] = -1.0
    system[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    solved = np.linalg.solve(system, rhs)[:k]
    if not (solved >= 0.0).all():
        return x
    exact = np.zeros(x.size)
    exact[support] = solved
    return exact


def _reference_solve_packing(matrix, transposed):
    lp = _reference_build_maxmin_lp(-matrix.T if transposed else matrix)
    solution = _reference_solve_lp(lp)
    m, n = lp.a_ub.shape
    u_mix, w_mix = _reference_mixtures(solution, n)
    in_basis = np.zeros(n + m, dtype=bool)
    in_basis[solution.basis] = True
    columns, tight = np.flatnonzero(in_basis[:n]), np.flatnonzero(~in_basis[n:])
    if transposed:
        x, y, support, active = w_mix, u_mix, columns, tight
    else:
        x, y, support, active = u_mix, w_mix, tight, columns
    x = _reference_solve_on_support(matrix, x, support, active)
    value = float((x @ matrix).min())
    lp_module._certify(matrix, value, y)
    return value, x


def _reference_solve_maxmin(matrix):
    tall = matrix.shape[0] > matrix.shape[1]
    try:
        return _reference_solve_packing(matrix, tall)
    except LpSolveError:
        return _reference_solve_packing(matrix, not tall)


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def _assert_same_solution(got, want):
    assert (got.iterations, got.basis) == (want.iterations, want.basis)
    _assert_same_bits(got.variable_values, want.variable_values)
    _assert_same_bits(got.duals, want.duals)


# ---------------------------------------------------------------------------
# branch-and-bound node helpers

_SPLITS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 4), st.booleans()), max_size=14
)


def _random_box(team_sizes, seed):
    # endpoints of 0 and 1, whose rows may be left out, and endpoints that
    # are not dyadic, whose products round
    rng = np.random.default_rng(seed)
    size = sum(team_sizes)
    lo = np.where(rng.random(size) < 0.4, 0.0, rng.uniform(0.0, 0.3, size))
    hi = np.where(rng.random(size) < 0.4, 1.0, rng.uniform(0.4, 1.0, size))
    return lo, hi


def _tighten_both(team_sizes, members, lo, hi):
    # the box tightened in place by _tighten_box, and a copy by the
    # reference through per-member views; the boxes are compared when the
    # intersection is not empty, which is when global_optimize keeps them
    want_lo, want_hi = lo.copy(), hi.copy()
    tightened = _tighten_box(lo, hi, members)
    assert tightened == _reference_tighten_box(
        per_member(team_sizes, want_lo), per_member(team_sizes, want_hi)
    )
    if tightened:
        _assert_same_bits(lo, want_lo)
        _assert_same_bits(hi, want_hi)
    return tightened


def _assert_same_rows(team_sizes, incidence, lo, hi):
    g, h = _node_rows(incidence, lo, hi)
    want_g, want_h = _reference_node_rows(
        team_sizes, per_member(team_sizes, lo), per_member(team_sizes, hi)
    )
    _assert_same_bits(g, want_g)
    _assert_same_bits(h, want_h)


@settings(max_examples=100)
@given(
    st.sampled_from([(3, 3), (4, 4), (2, 5), (3, 3, 3)]),
    st.none() | st.integers(0, 2**32 - 1),
    _SPLITS,
)
def test_node_helpers_match_their_references(team_sizes, seed, splits):
    # splits as global_optimize makes them, from the whole simplex or from
    # a random box, and the rows of every box the splits reach
    incidence = _node_incidence(team_sizes)
    members = incidence.members
    lo, hi = np.zeros(sum(team_sizes)), np.ones(sum(team_sizes))
    if seed is not None:
        lo, hi = _random_box(team_sizes, seed)
        if not _tighten_both(team_sizes, members, lo, hi):
            return
        _assert_same_rows(team_sizes, incidence, lo, hi)
    for member, action, upper in splits:
        member %= len(team_sizes)
        k = members[member].start + action % team_sizes[member]
        mid = lo[k] + (hi[k] - lo[k]) / 2.0
        child_lo, child_hi = lo.copy(), hi.copy()
        (child_lo if upper else child_hi)[k] = mid
        if _tighten_both(team_sizes, members, child_lo, child_hi):
            lo, hi = child_lo, child_hi
            _assert_same_rows(team_sizes, incidence, lo, hi)


@settings(max_examples=60)
@given(
    st.sampled_from([(3, 3), (3, 4), (4, 3)]),
    st.integers(0, 2**16),
    _SPLITS,
)
def test_node_lp_and_its_check_match_their_references(shape, seed, splits):
    n, m = shape
    game, _ = make_instance("random", n=n, m=m, seed=seed)
    matrix = to_joint_game(game)
    box = box_from_splits(game.team_sizes, splits)
    rows = _node_rows(_node_incidence(game.team_sizes), *box)
    lp = build_maxmin_lp(matrix, rows)
    want_lp = _reference_build_maxmin_lp(matrix, rows)
    for got, want in zip(
        (lp.objective, lp.a_ub, lp.b_ub),
        (want_lp.objective, want_lp.a_ub, want_lp.b_ub),
    ):
        _assert_same_bits(got, want)
    solution = solve_lp(lp)
    _assert_same_solution(solution, _reference_solve_lp(want_lp))
    value, x = check_maxmin(matrix, solution, rows)
    want_value, want_x = _reference_check_maxmin(matrix, solution, rows)
    assert value.hex() == want_value.hex()
    _assert_same_bits(x, want_x)


# ---------------------------------------------------------------------------
# the LP in both forms, and unboxed maxmin LPs


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize(
    "family, n, m, seed",
    [("random", 3, 4, 1), ("random", 3, 20, 0), ("poa", None, None, None)],
)
def test_both_forms_of_solve_lp_match_their_reference(inverse, family, n, m, seed):
    # the correlated LP, whose slack identity each form lays out by stride
    game, _ = make_instance(family, n=n, m=m, seed=seed)
    lp = build_maxmin_lp(to_joint_game(game))
    _assert_same_solution(
        lp_module._solve_lp(lp, inverse), _reference_solve_lp(lp, inverse)
    )


def _random_matrix(rows, cols, seed):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(rows, cols))


@pytest.mark.parametrize(
    "matrix",
    [
        _random_matrix(7, 3, 0),
        _random_matrix(3, 7, 1),
        _random_matrix(5, 5, 2),
        np.full((3, 4), 0.5),
        BADLY_SCALED_GAME,
    ],
    ids=["tall", "wide", "square", "constant", "badly-scaled"],
)
def test_solve_maxmin_matches_its_reference(matrix):
    value, x = solve_maxmin(matrix)
    want_value, want_x = _reference_solve_maxmin(matrix)
    assert value.hex() == want_value.hex()
    _assert_same_bits(x, want_x)


def test_the_badly_scaled_game_takes_the_retry():
    # its square tableau fails the certificate, so solve_maxmin's answer
    # above comes from the other orientation
    with pytest.raises(LpSolveError):
        lp_module._solve_packing(BADLY_SCALED_GAME, False)


@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_solve_maxmin_on_small_integer_games_matches_its_reference(rows, cols, seed):
    # ties and degenerate vertices
    matrix = np.random.default_rng(seed).integers(-3, 4, size=(rows, cols)) * 1.0
    value, x = solve_maxmin(matrix)
    want_value, want_x = _reference_solve_maxmin(matrix)
    assert value.hex() == want_value.hex()
    _assert_same_bits(x, want_x)
