"""The branch-and-bound node helpers and the maxmin LP path, bit for bit
against plain references.

_node_rows, the simplex loop, the tableau solve_lp builds,
build_maxmin_lp, check_maxmin, solve_maxmin and global_optimize's node loop
make as few numpy calls as they can. The references below compute the same
floating-point operations the plain way, one numpy call per step; every
output must have the same bits on whatever numpy runs the tests, so that a
solve's bounds, counts and witness do not depend on which of the two is
run.
"""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import teammax.lp as lp_module
from teammax import solvers
from teammax.game import team_value, to_joint_game
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
from teammax.solvers import (
    _node_factors,
    _node_rows,
    global_optimize,
)
from test_lp import (
    BADLY_SCALED_GAME,
    BEALE_LP,
    box_from_splits,
    per_member,
)

# ---------------------------------------------------------------------------
# references


def _reference_node_rows(team_sizes, los, his, most=None):
    # every product of bound factors, one loop step at a time: for each
    # choice per member, in C order, of absent (None), d_a - l_a or
    # u_a - d_a, with at least one member and at most `most` present, the
    # row of the present factors multiplied in member order at every joint
    # action, d_a being 1 where the member plays a; a row without a
    # negative entry is left out
    joint = list(itertools.product(*map(range, team_sizes)))
    choices = [
        [None] + [(a, False) for a in range(m)] + [(a, True) for a in range(m)]
        for m in team_sizes
    ]
    rows = []
    for choice in itertools.product(*choices):
        present = [(i, c) for i, c in enumerate(choice) if c is not None]
        if not present or len(present) > (most or len(team_sizes)):
            continue
        row = []
        for action in joint:
            product = None
            for i, (a, upper) in present:
                played = float(action[i] == a)
                factor = his[i][a] - played if upper else played - los[i][a]
                product = factor if product is None else product * factor
            row.append(product)
        if min(row) < 0.0:
            rows.append(row)
    return np.array(rows).reshape(-1, len(joint))


def _reference_steepest_edge(work, cols, cost):
    # Dantzig's leading candidates, the most negative first and ties to
    # the lowest index, then the one of steepest edge, ties to the lowest
    # index, each by a plain loop over the columns
    tol = lp_module.OPTIMALITY_TOL
    cut = lp_module._CANDIDATE_FRACTION * min(cost)
    leading = [j for j, c in enumerate(cost) if c <= cut and c < -tol]
    ranked = sorted(leading, key=lambda j: cost[j])
    candidates = sorted(ranked[: lp_module._CANDIDATES])
    columns = work @ cols[candidates].T
    best, best_score = -1, -np.inf
    for k, j in enumerate(candidates):
        edge = 0.0
        for entry in columns[:-1, k]:
            edge += entry * entry
        score = cost[j] ** 2 / (1.0 + edge)
        if score > best_score:
            best, best_score = k, score
    return candidates[best], columns[:, best]


def _reference_run_simplex(work, cols, basis, max_iter):
    # the loop with the usual rank-one update: divide the leaving row in
    # place, then subtract a copy of the entering column, its leaving entry
    # zeroed, times that row
    num_rows = work.shape[0] - 1
    num_cols = work.shape[1] - 1 if cols is None else len(cols)
    degenerate = 0
    for pivots in range(max_iter):
        cost = work[-1, :-1] if cols is None else cols @ work[-1]
        bland = degenerate >= lp_module._DEGENERATE_STREAK
        if not bland:
            entering = int(cost.argmin())
            if cost[entering] >= -lp_module.OPTIMALITY_TOL:
                return pivots
        else:
            improving = (cost < -lp_module.OPTIMALITY_TOL).nonzero()[0]
            if improving.size == 0:
                return pivots
            entering = int(improving[0])
        if cols is None:
            column = work[:, entering]
        elif bland:
            column = work @ cols[entering]
        else:
            entering, column = _reference_steepest_edge(work, cols, cost)
        col = column[:num_rows].tolist()
        rhs = work[:num_rows, -1].tolist()
        best_ratio = np.inf
        leaving = -1
        tie = lp_module._RATIO_TIE_TOL
        for i in range(num_rows):
            if col[i] > lp_module.FEASIBILITY_TOL:
                ratio = rhs[i] / col[i]
                if ratio < best_ratio - tie or (
                    ratio <= best_ratio + tie
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    if ratio < best_ratio:
                        best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise LpSolveError(
                f"linear program unbounded: column {entering} enters, no row leaves"
            )
        if rhs[leaving] / col[leaving] <= tie:
            degenerate += 1
        else:
            degenerate = 0
        work[leaving] /= column[leaving]
        factors = column.copy()
        factors[leaving] = 0.0
        work -= factors[:, None] * work[leaving]
        basis[leaving] = entering
    raise LpSolveError(
        f"simplex did not terminate within {max_iter} pivots "
        f"({num_rows} rows, {num_cols} columns)"
    )


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
        # the rows as columns, every zero positive
        a_ub = np.hstack([packing, np.where(rows.T == 0.0, 0.0, rows.T)])
    objective = np.zeros(a_ub.shape[1])
    objective[: packing.shape[1]] = max(1.0, hi - lo)
    return LinearProgram(objective, a_ub, np.ones(packing.shape[0]))


def _reference_mixtures(solution, cols):
    u = np.maximum(solution.duals, 0.0)
    w = np.maximum(solution.variable_values[:cols], 0.0)
    return u / u.sum(), w / w.sum()


def _reference_check_maxmin(matrix, solution, rows=None):
    # the dual bound max_r (matrix @ y + F^T lam)_r and the row mixture
    cols = matrix.shape[1]
    x, y = _reference_mixtures(solution, cols)
    payoffs = matrix @ y
    if rows is not None:
        spread = float(matrix.max() - matrix.min()) or 1.0
        weight = np.maximum(solution.variable_values[:cols], 0.0).sum()
        lam = np.maximum(solution.variable_values[cols:], 0.0) * (spread / weight)
        payoffs = payoffs + lam @ rows
    return float(payoffs.max()), x


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
    st.tuples(st.integers(0, 3), st.integers(0, 4), st.booleans()), max_size=14
)


def _random_box(team_sizes, seed):
    # endpoints of 0 and 1, whose rows may be left out, and endpoints that
    # are not dyadic, whose products round
    rng = np.random.default_rng(seed)
    size = sum(team_sizes)
    lo = np.where(rng.random(size) < 0.4, 0.0, rng.uniform(0.0, 0.3, size))
    hi = np.where(rng.random(size) < 0.4, 1.0, rng.uniform(0.4, 1.0, size))
    return lo, hi


def _meets_every_simplex(team_sizes, lo, hi):
    return all(
        low.sum() <= 1.0 <= high.sum()
        for low, high in zip(per_member(team_sizes, lo), per_member(team_sizes, hi))
    )


def _assert_same_rows(team_sizes, factors, lo, hi, most=None):
    want = _reference_node_rows(
        team_sizes, per_member(team_sizes, lo), per_member(team_sizes, hi), most
    )
    _assert_same_bits(_node_rows(factors, lo, hi), want)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([(3, 3), (4, 4), (2, 5), (2, 2, 2), (3, 3, 3), (2, 2, 2, 2)]),
    st.none() | st.integers(0, 2**32 - 1),
    _SPLITS,
)
def test_node_helpers_match_their_references(team_sizes, seed, splits):
    # splits as global_optimize makes them, from the whole simplex or from
    # a random box that meets every member's simplex, and the rows of the
    # box they end at
    box = None
    if seed is not None:
        box = _random_box(team_sizes, seed)
        if not _meets_every_simplex(team_sizes, *box):
            return
    lo, hi = box_from_splits(team_sizes, splits, box)
    _assert_same_rows(team_sizes, _node_factors(team_sizes), lo, hi)


@pytest.mark.parametrize("cap, most, count", [(9234, 3, 335), (9233, 2, 119)])
def test_node_rows_of_every_degree_fit_under_the_cap(cap, most, count):
    # a (3, 3, 3) team has 7^3 - 1 candidate rows of 27 joint actions,
    # 9,234 entries: at the cap it takes every degree, one entry over it
    # the marginal rows and the pair envelopes, degrees 1 and 2
    team_sizes = (3, 3, 3)
    with mock.patch.object(solvers, "_MAX_MATERIALIZED", cap):
        factors = _node_factors(team_sizes)
    box = _random_box(team_sizes, 0)
    assert _meets_every_simplex(team_sizes, *box)
    lo, hi = box_from_splits(team_sizes, [], box)
    _assert_same_rows(team_sizes, factors, lo, hi, most)
    assert _node_rows(factors, lo, hi).shape == (count, 27)


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
    rows = _node_rows(_node_factors(game.team_sizes), *box)
    lp = build_maxmin_lp(matrix, rows)
    want_lp = _reference_build_maxmin_lp(matrix, rows)
    for got, want in zip(
        (lp.objective, lp.a_ub, lp.b_ub),
        (want_lp.objective, want_lp.a_ub, want_lp.b_ub),
    ):
        _assert_same_bits(got, want)
    solution = solve_lp(lp)
    _assert_same_solution(solution, _reference_solve_lp(want_lp))
    bound, x = check_maxmin(matrix, solution, rows)
    want_bound, want_x = _reference_check_maxmin(matrix, solution, rows)
    assert bound.hex() == want_bound.hex()
    _assert_same_bits(x, want_x)


# ---------------------------------------------------------------------------
# the simplex loop


def _run_both(lp, inverse):
    """(pivots or the error message, basis, work) of _run_simplex and of
    the reference, each from its own copy of _tableau's work."""
    m, n = lp.a_ub.shape
    runs = []
    for run in (lp_module._run_simplex, _reference_run_simplex):
        work, cols = lp_module._tableau(lp, inverse)
        basis = list(range(n, n + m))
        try:
            pivots = run(work, cols, basis, 1000 * (2 * m + n + 10))
        except LpSolveError as error:
            pivots = str(error)
        runs.append((pivots, basis, work))
    (pivots, basis, work), (want_pivots, want_basis, want_work) = runs
    assert (pivots, basis) == (want_pivots, want_basis)
    _assert_same_bits(work, want_work)
    return pivots


# small integers tie ratios, zeros in the rhs make degenerate pivots, and
# negative zeros are data that _tableau turns positive
_ENTRIES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0])
_RHS = st.sampled_from([-0.0, 0.0, 0.0, 1.0, 2.0])


@settings(max_examples=300)
@given(
    st.integers(1, 6).flatmap(
        lambda m: st.integers(1, 8).flatmap(
            lambda n: st.tuples(
                arrays(np.float64, n, elements=_ENTRIES),
                arrays(np.float64, (m, n), elements=_ENTRIES),
                arrays(np.float64, m, elements=_RHS),
            )
        )
    ),
    st.booleans(),
    st.sampled_from([1, 2, lp_module._DEGENERATE_STREAK]),
    st.sampled_from([1, 2, lp_module._CANDIDATES]),
)
def test_run_simplex_matches_the_usual_update(data, inverse, streak, candidates):
    # a short degenerate streak sends small LPs into the Bland phase, and a
    # short candidate list cuts Dantzig's leading columns
    with mock.patch.multiple(
        lp_module, _DEGENERATE_STREAK=streak, _CANDIDATES=candidates
    ):
        _run_both(LinearProgram(*data), inverse)


@pytest.mark.parametrize("inverse", [False, True])
def test_run_simplex_matches_the_usual_update_on_beales_lp(inverse):
    # on the tableau 54 pivots, the last of them under Bland's rule after
    # 50 degenerate ones; steepest edge on the basis inverse takes 5
    assert _run_both(BEALE_LP, inverse) == (5 if inverse else 54)


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


# ---------------------------------------------------------------------------
# global_optimize's node loop

# the branch-bound workload's games, accuracy and node caps
_BRANCH_BOUND_GAMES = [
    ("random", 3, 4, 1, 3000),
    ("random", 3, 4, 2, 3000),
    ("random", 4, 3, 0, 3000),
    ("random", 4, 3, 1, 3000),
    ("poa", None, None, None, 3000),
    ("diagonal", 3, 3, None, 1000),
]


def test_global_skips_only_probes_that_cannot_raise_the_lower_bound(monkeypatch):
    # with BOUND_SLACK infinite every child with a certified bound is
    # probed, as before the skip: the reports are the same, and the skip
    # evaluates fewer profiles
    calls = []

    def counted(game, profile):
        calls[-1] += 1
        return team_value(game, profile)

    monkeypatch.setattr(solvers, "team_value", counted)
    slacks = (solvers.BOUND_SLACK, math.inf)
    totals = np.zeros(2, dtype=int)
    for family, n, m, seed, max_nodes in _BRANCH_BOUND_GAMES:
        game, _ = make_instance(family, n=n, m=m, seed=seed)
        reports = []
        for slack in slacks:
            monkeypatch.setattr(solvers, "BOUND_SLACK", slack)
            calls.append(0)
            reports.append(global_optimize(game, accuracy=1e-3, max_nodes=max_nodes))
        got, want = reports
        for field in ("lower_bound", "upper_bound", "correlated_bound"):
            assert getattr(got, field).hex() == getattr(want, field).hex()
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        assert got.traces == want.traces
        for mine, theirs in zip(got.witness, want.witness, strict=True):
            _assert_same_bits(mine.probs, theirs.probs)
        skipped, probed = calls[-2:]
        assert skipped <= probed
        totals += skipped, probed
    assert totals[0] < totals[1]
