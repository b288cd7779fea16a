"""Dense linear programming with a deterministic primal simplex.

The kernel is one primal simplex loop (_run_simplex). It falls back to
Bland's anti-cycling rule during long runs of degenerate pivots. Every
choice, ties included, is a fixed function of the tableau, so the pivot
sequence (and therefore the returned optimal basis) is a pure function of
the input LP. A solve returns an optimal basic solution or raises
LpSolveError: an unbounded LP raises in solve_lp, like a simplex that does
not terminate.

The loop runs on one of two representations of the tableau, chosen by the
LP's shape (_prices_from_inverse). A wide LP, with several times more
columns than rows, keeps only the basis inverse with the dual row under
it and the rhs, [Q | rhs] of m + 1 rows and m + 2 columns, beside the
original columns: each pivot prices every column with one matrix-vector
product and updates only [Q | rhs], the revised simplex with an explicit
inverse (Dantzig & Orchard-Hays, "The product form for the inverse in the
simplex method", MTAC 1954). It enters by steepest edge among the columns
Dantzig's rule ranks first (_steepest_edge), which takes 2-4 times fewer
pivots on the correlated and node LPs. Any other LP pivots the whole
dense tableau, which costs fewer numpy calls per pivot, and enters by
Dantzig's largest-coefficient rule. The two forms therefore take
different pivots; they reach the same optimum, and on the correlated LPs
measured the same optimal basis.

Every LP here has one form: maximize c @ x subject to A @ x <= b, x >= 0,
with b >= 0. Its slack basis is feasible, so solve_lp runs the simplex once
from it: no phase 1, no artificial or free variables, no equality rows.
build_maxmin_lp writes every maxmin LP in that form, a branch-and-bound
node's relaxation included: the payoffs are shifted and scaled into [1, 2],
the column player's side is solved as a packing LP, and each homogeneous
row f @ x >= 0 on the row mixture becomes one extra column f. check_maxmin
reads the row mixture and the dual certificate (column mixture and row
multipliers) off the solution and returns the bound that the certificate
proves by weak duality. solve_maxmin, for a game without rows, orients the
tableau by shape, refines the row mixture in the original payoffs and
returns its worth, which the certificate's bound must exceed by at most
_CHECK_TOL. The shift costs absolute precision on a game whose payoffs
span a wide range, which that check bounds. Problems in this package are
small and well scaled; the tolerances below are absolute.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .game import contract_except

FEASIBILITY_TOL = 1e-9
OPTIMALITY_TOL = 1e-9
_CHECK_TOL = 1e-8
# ratios this close count as tied, and a step this short as degenerate
_RATIO_TIE_TOL = 1e-12
# consecutive degenerate pivots after which pricing falls back to Bland's rule
_DEGENERATE_STREAK = 50
# on the basis inverse, steepest-edge pricing weighs the columns whose
# reduced cost is at least this fraction of the most negative one, at most
# this many of them, the most negative first
_CANDIDATE_FRACTION = 0.5
_CANDIDATES = 64
# the per-pivot cost model of _prices_from_inverse, in entries of a
# matrix-vector product
_UPDATE_COST = 5
_CALL_COST = 9000


class LpSolveError(RuntimeError):
    """An unbounded LP, or a numerical failure in the simplex (no
    termination, bad basis)."""


class LpDeadlineError(LpSolveError):
    """A simplex run stopped at its deadline before reaching the optimum."""


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize objective @ x subject to a_ub @ x <= b_ub, x >= 0, where
    b_ub >= 0, so that the slack basis is feasible. The fields are float
    arrays of shapes (n,), (m, n) and (m,).
    """

    objective: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray

    def __post_init__(self):
        c, a, b = self.objective, self.a_ub, self.b_ub
        if a.ndim != 2 or c.shape != a.shape[1:] or b.shape != a.shape[:1]:
            raise ValueError("objective, constraint matrix and rhs sizes disagree")
        # solve_lp checks that the data is finite, on the arrays it pivots
        if not b.min(initial=0.0) >= 0.0:
            raise ValueError("the rhs must be nonnegative")


@dataclass(frozen=True, eq=False)
class LpSolution:
    """An optimal basic solution x, found in iterations pivots."""

    variable_values: np.ndarray
    iterations: int
    # optimal duals of the a_ub rows, the reduced costs of their slacks,
    # and the optimal basis: column j < n is x[j] and column n + i the
    # slack of row i, for n variables
    duals: np.ndarray
    basis: list[int]


def _run_simplex(
    work: np.ndarray,
    cols: np.ndarray | None,
    basis: list[int],
    max_iter: int,
    deadline: float = math.inf,
) -> int:
    """Minimize the cost in work[-1] in place and return the number of
    pivots made. Raises LpSolveError if the LP is unbounded, or if the
    simplex has not stopped after max_iter pivots, and LpDeadlineError if
    time.perf_counter() has passed a finite deadline before a pivot.

    work is one of two representations of the same tableau. With cols None
    it is the whole tableau, and the cost row and the entering column are
    slices of it. Otherwise it is [Q | rhs], where Q, of order m + 1, is the
    inverse of the original tableau's basic columns bordered by the cost
    row's unit column: its first m columns are the tableau's slack block,
    with the duals in the last row, and its last column stays that unit
    vector. cols holds the original tableau's columns, one row per column,
    with a 0 in the rhs position; the cost row is then cols @ work[-1] and
    column q is work @ cols[q].

    On the tableau the entering column is Dantzig's: the most negative
    reduced cost, ties to the lowest index. On the basis inverse it is the
    steepest edge among Dantzig's leading candidates (_steepest_edge), so
    the two forms take different pivots. After _DEGENERATE_STREAK
    consecutive degenerate pivots (step ratio at most _RATIO_TIE_TOL) both
    switch to Bland's rule, the lowest index with a reduced cost below
    -OPTIMALITY_TOL, and switch back at the first non-degenerate pivot. The
    leaving row breaks ratio ties by lowest basic variable index
    throughout, which is Bland's leaving rule.

    A pivot divides the leaving row by the pivot entry, subtracts the
    entering column times that row from work and writes the divided row
    back. That is the usual rank-one update, which zeroes the leaving
    entry of a copy of the column, bit for bit, except that the usual
    update's x - 0 x turns a negative zero in the leaving row positive
    where this one keeps it. A pivot makes no negative zero off the cost
    row, barring a division that underflows, so on a work with none there,
    as _tableau builds it, the two leave the same bits.

    Termination: every entering column, under each rule, has a reduced
    cost below -OPTIMALITY_TOL, so a non-degenerate pivot strictly lowers
    the objective, no basis seen before it recurs after it, and a cycle
    would have to lie within one run of degenerate pivots. Such a run makes
    at most _DEGENERATE_STREAK pivots by the form's own rule and then
    continues under Bland's rule, which cannot cycle (Bland, Math. Oper.
    Res. 1977), so every run ends.
    """
    num_rows = work.shape[0] - 1
    num_cols = work.shape[1] - 1 if cols is None else len(cols)
    # views, which every pivot's in-place update keeps current
    cost_row, dual_row, rhs_column = work[-1, :-1], work[-1], work[:num_rows, -1]
    degenerate = 0
    for pivots in range(max_iter):
        cost = cost_row if cols is None else cols @ dual_row
        bland = degenerate >= _DEGENERATE_STREAK
        if not bland:
            entering = int(cost.argmin())
            if cost[entering] >= -OPTIMALITY_TOL:
                return pivots
        else:
            improving = (cost < -OPTIMALITY_TOL).nonzero()[0]
            if improving.size == 0:
                return pivots
            entering = int(improving[0])
        if deadline < math.inf and time.perf_counter() > deadline:
            raise LpDeadlineError(f"simplex passed its deadline after {pivots} pivots")
        if cols is None:
            column = work[:, entering]
        elif bland:
            column = work @ cols[entering]
        else:
            entering, column = _steepest_edge(work, cols, cost, cost[entering])
        # the scan reads Python floats, which compare and divide as the
        # tableau's float64 entries do
        col = column.tolist()
        rhs = rhs_column.tolist()
        best_ratio = np.inf
        leaving = -1
        for i in range(num_rows):
            if col[i] > FEASIBILITY_TOL:
                ratio = rhs[i] / col[i]
                if ratio < best_ratio - _RATIO_TIE_TOL or (
                    ratio <= best_ratio + _RATIO_TIE_TOL
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    if ratio < best_ratio:
                        best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise LpSolveError(
                f"linear program unbounded: column {entering} enters, no row leaves"
            )
        if rhs[leaving] / col[leaving] <= _RATIO_TIE_TOL:
            degenerate += 1
        else:
            degenerate = 0
        # the rank-one update that turns the entering column into the unit
        # vector of the leaving row; the product is formed before work
        # changes, so a column that is a view of work is read whole
        pivot_row = work[leaving] / col[leaving]
        work -= column[:, None] * pivot_row
        work[leaving] = pivot_row
        basis[leaving] = entering
    raise LpSolveError(
        f"simplex did not terminate within {max_iter} pivots "
        f"({num_rows} rows, {num_cols} columns)"
    )


def _steepest_edge(
    work: np.ndarray, cols: np.ndarray, cost: np.ndarray, least: float
) -> tuple[int, np.ndarray]:
    """The entering column of _run_simplex on the basis inverse outside
    its Bland phase, and that column of the tableau, for the reduced costs
    cost whose smallest is least < -OPTIMALITY_TOL.

    The candidates are the columns whose reduced cost is at most
    _CANDIDATE_FRACTION * least and below -OPTIMALITY_TOL, at most
    _CANDIDATES of them, the most negative first, ties to the lowest
    index. One product forms their tableau columns B^-1 a_j, and the
    candidate that maximizes cost_j^2 / (1 + |B^-1 a_j|^2), the squared
    rate of descent per unit length of its edge, enters, ties to the
    lowest index (Goldfarb & Reid, Math. Prog. 1977; Forrest & Goldfarb,
    Math. Prog. 1992). The norms are computed afresh, not updated.
    """
    cut = _CANDIDATE_FRACTION * least
    leading = cost <= cut if cut < -OPTIMALITY_TOL else cost < -OPTIMALITY_TOL
    candidates = leading.nonzero()[0]
    if candidates.size > _CANDIDATES:
        order = np.argsort(cost[candidates], kind="stable")
        candidates = np.sort(candidates[order[:_CANDIDATES]])
    columns = work @ cols[candidates].T
    edges = (columns[:-1] ** 2).sum(axis=0)
    best = int((cost[candidates] ** 2 / (1.0 + edges)).argmax())
    return int(candidates[best]), columns[:, best]


def _prices_from_inverse(m: int, n: int) -> bool:
    """Whether _run_simplex should run an LP of m rows and n structural
    columns on the basis inverse, the shape rule of solve_lp.

    A pivot of the tableau form updates all (m + 1)(n + m + 1) entries of
    the tableau. One of the inverse form updates only (m + 1)(m + 2), but
    reads (n + m)(m + 2) entries to price and (m + 1)(m + 2) to form the
    entering column, in two more numpy calls. An entry of a rank-one update
    costs about _UPDATE_COST entries of a matrix-vector product, and the
    two calls about _CALL_COST, fitted to per-pivot times of both forms on
    random tableaux of 4 to 96 rows and 1 to 40 times as many columns (2
    vCPU Xeon, one BLAS thread). The inverse form is taken where the model
    says it is faster: on LPs whose structural columns outnumber the rows
    several times over, unless the LP is too small for the saved entries
    to pay for the calls, and on large LPs, where the update dominates.
    The model was fitted on Dantzig pivots and is left as it is: a
    steepest-edge pivot of the inverse form costs more, but it needs fewer
    of them.
    """
    saved = _UPDATE_COST * (m + 1) * (n - 1)
    return saved > (n + 2 * m + 1) * (m + 2) + _CALL_COST


def solve_lp(lp: LinearProgram, deadline: float = math.inf) -> LpSolution:
    """Solve with the primal simplex from the slack basis.

    The tableau is [a_ub | I | b_ub] under the cost row [-objective | 0 | 0];
    b_ub >= 0 makes the slack basis feasible, so one run of _run_simplex
    solves the LP. A wide LP (see _prices_from_inverse) runs on the basis
    inverse and the tableau's original columns, any other on the tableau
    itself. Returns the first optimal basic solution the pivot rule
    reaches, with the duals of the a_ub rows and the basis. Raises
    ValueError on data that is not finite, and LpSolveError if the LP is
    unbounded or the arithmetic breaks down (non-termination, residuals out
    of tolerance). A finite deadline, a time.perf_counter() reading, stops
    the simplex before the first pivot that would start after it, with
    LpDeadlineError; the default runs it to the end.
    """
    return _solve_lp(lp, _prices_from_inverse(*lp.a_ub.shape), deadline)


def _tableau(
    lp: LinearProgram, inverse: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """work and cols of _run_simplex at lp's slack basis: [Q | rhs] and the
    tableau's columns if inverse, else the whole tableau and None. Adding
    0.0 to the data turns a negative zero positive, so that no negative
    zero lies off the cost row (see _run_simplex). Raises ValueError on
    data that is not finite."""
    m, n = lp.a_ub.shape
    if inverse:
        # [Q | rhs] of the slack basis, Q the identity of order m + 1, and
        # row j of cols the tableau's column j with a 0 for the rhs
        cols = np.zeros((n + m, m + 2))
        cols[:n, :m] = lp.a_ub.T
        cols[:n, m] = -lp.objective
        # the slacks' unit columns, entries (n + i, i), every (m + 3)th
        cols.reshape(-1)[n * (m + 2) :: m + 3] = 1.0
        work = np.eye(m + 1, m + 2)
        np.add(lp.b_ub, 0.0, out=work[:m, -1])
    else:
        work = np.zeros((m + 1, n + m + 1))
        np.add(lp.a_ub, 0.0, out=work[:m, :n])
        # the slack identity, entries (i, n + i), every (n + m + 2)th
        work.reshape(-1)[n : m * (n + m + 2) : n + m + 2] = 1.0
        np.add(lp.b_ub, 0.0, out=work[:m, -1])
        work[-1, :n] = -lp.objective
        cols = None
    if not (np.isfinite(work).all() and (cols is None or np.isfinite(cols).all())):
        raise ValueError("linear program data must be finite")
    return work, cols


def _solve_lp(
    lp: LinearProgram, inverse: bool, deadline: float = math.inf
) -> LpSolution:
    """solve_lp, with _run_simplex on the basis inverse if inverse, else
    on the whole tableau."""
    m, n = lp.a_ub.shape
    work, cols = _tableau(lp, inverse)
    basis = list(range(n, n + m))
    pivots = _run_simplex(work, cols, basis, 1000 * (2 * m + n + 10), deadline)
    values = np.zeros(n + m)
    values[basis] = work[:m, -1]
    x = values[:n]
    if m and (worst := float((lp.a_ub @ x - lp.b_ub).max())) > _CHECK_TOL:
        raise LpSolveError(f"inequality residual {worst:.3e} out of tolerance")
    # the reduced cost of a row's slack is that row's dual; the tableau's
    # slack block is the basis inverse
    duals = (work[-1, n:-1] if cols is None else work[-1, :m]).copy()
    return LpSolution(x, pivots, duals, basis)


# ---------------------------------------------------------------------------
# maxmin LPs


def _game(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError("matrix must be two-dimensional and nonempty")
    # before the shift, which would turn an infinite payoff into NaN
    if not np.isfinite(matrix).all():
        raise ValueError("linear program data must be finite")
    return matrix


def build_maxmin_lp(
    matrix: np.ndarray, rows: np.ndarray | None = None
) -> LinearProgram:
    """Packing LP of the row player's maxmin of a zero-sum matrix game, with
    the row mixture x restricted to the cone F x >= 0 if the rows F are
    given.

    The payoffs are shifted and scaled into P = 1 + (M - lo) / s in [1, 2],
    where lo and hi are the smallest and largest payoff and s is
    (hi - lo) or 1. Every mixture then earns at least 1 against every
    column, so the row player's LP max t s.t. x @ P >= t 1, F x >= 0 over
    the simplex has t >= 1, and u = x / t turns it into
    min 1 @ u s.t. u @ P >= 1, F u >= 0, u >= 0, with optimum 1 / t
    (Charnes & Cooper, "Programming with linear fractional functionals",
    NRLQ 1962); the rows are homogeneous, so the scaling leaves them as
    they are. Its dual is the LP built here:

        max 1 @ w  s.t.  P w + F^T lambda <= 1,  w, lambda >= 0.

    The variables are w, one per column of M, then lambda, one per row of
    F in order. A row g @ x <= h on the simplex is the row h 1 - g of F.
    The right-hand side is all ones, so the slack basis is feasible
    (Dantzig, *Linear Programming and Extensions* (1963), ch. 13). Without
    rows the LP is max 1 @ w s.t. P w <= 1. The objective is
    max(1, hi - lo) times 1 @ w, so that a simplex that stops within
    OPTIMALITY_TOL of the optimum in P does so in the original payoffs too.
    At the optimum the reduced costs of the slacks are u, and w / sum(w) is
    the column player's mixture; check_maxmin reads both, and lambda.

    The column player's packing LP is build_maxmin_lp(-M^T): the shift of
    -M^T is 1 + (hi - M^T) / s, bit for bit, because negation is exact.
    """
    return _packing_lp(_game(matrix), rows)


def _packing_lp(matrix: np.ndarray, rows: np.ndarray | None = None) -> LinearProgram:
    """build_maxmin_lp of a matrix that _game has checked."""
    lo, hi = float(matrix.min()), float(matrix.max())
    # 1 + (M - lo) / s, in place
    packing = matrix - lo
    packing /= (hi - lo) or 1.0
    packing += 1.0
    a_ub = packing
    if rows is not None:
        # adding 0.0 turns the rows' negative zeros positive, which the
        # basis inverse, copying its columns as they are, would keep
        a_ub = np.concatenate((packing, rows.T + 0.0), axis=1)
    objective = np.zeros(a_ub.shape[1])
    objective[: packing.shape[1]] = max(1.0, hi - lo)
    return LinearProgram(objective, a_ub, np.ones(packing.shape[0]))


def _mixtures(
    solution: LpSolution, cols: int
) -> tuple[np.ndarray, np.floating, np.ndarray, np.floating]:
    """The row weights u and their sum, then the column weights w and their
    sum, of an optimal packing LP solution with cols columns of P, negative
    rounding clipped to 0: u / sum(u) is the row mixture and w / sum(w) the
    column mixture. Raises LpSolveError unless both sums are positive, as
    they are at an optimum, whose objective is positive."""
    u = np.maximum(solution.duals, 0.0)
    w = np.maximum(solution.variable_values[:cols], 0.0)
    u_sum, w_sum = u.sum(), w.sum()
    if not (u_sum > 0.0 and w_sum > 0.0):
        raise LpSolveError("maxmin LP weights do not sum to a positive number")
    return u, u_sum, w, w_sum


def check_maxmin(
    matrix: np.ndarray, solution: LpSolution, rows: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """The bound that the dual certificate of a solution of
    build_maxmin_lp(matrix, rows) proves, and the solution's row mixture.

    The certificate is (y, lam): the column mixture y = w / sum(w) and the
    row multipliers lam = lambda s / sum(w), for the scale s of
    build_maxmin_lp. It bounds the optimum by max_r (matrix @ y + F^T lam)_r
    (_dual_bound) whatever basis the simplex stopped at; at an optimal
    basis, dividing row r of the LP by sum(w) and undoing the shift shows
    that the bound is the optimum, up to rounding. Without rows lam is
    empty and the bound is max(matrix @ y). The row mixture x is the
    slacks' reduced costs scaled by their sum; at the optimum it satisfies
    F x >= 0, because the reduced costs of the lambda columns are
    nonnegative, and its worth min_c (x @ matrix)[c] is the bound up to
    rounding. The LP is bounded whenever the cone meets the simplex;
    otherwise it is unbounded, and solve_lp raises LpSolveError before
    there is a solution to check. Raises LpSolveError only where there is
    no certificate: weights that do not sum to a positive number, a y that
    is not a column mixture, or a bound that is not finite.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    cols = matrix.shape[1]
    u, u_sum, w, weight = _mixtures(solution, cols)
    lam = None
    if rows is not None:
        spread = float(matrix.max() - matrix.min()) or 1.0
        lam = np.maximum(solution.variable_values[cols:], 0.0) * (spread / weight)
    return _dual_bound(matrix, w / weight, rows, lam), u / u_sum


def _dual_bound(
    matrix: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray | None = None,
    lam: np.ndarray | None = None,
) -> float:
    """max_r (matrix @ y + F^T lam)_r, for the column mixture y and the
    multipliers lam >= 0 of the rows F: no row mixture z with F z >= 0
    earns more against y, since
    z @ matrix @ y <= z @ (matrix @ y + F^T lam) <= max_r (...)_r (weak
    duality). Without rows it is max(matrix @ y), minimax over the
    simplex. Raises LpSolveError unless y is a column mixture to
    _CHECK_TOL and the bound is finite; a NaN in y or lam fails.
    """
    if not (y.min() >= -_CHECK_TOL and abs(y.sum() - 1.0) <= _CHECK_TOL):
        raise LpSolveError("maxmin LP duals are not a column mixture")
    payoffs = matrix @ y
    if rows is not None:
        payoffs += lam @ rows
    bound = float(payoffs.max())
    if not math.isfinite(bound):
        raise LpSolveError(f"maxmin LP dual bound {bound} is not finite")
    return bound


def _certify(matrix: np.ndarray, value: float, y: np.ndarray) -> None:
    """Raise LpSolveError unless the column mixture y holds every row
    mixture to at most value + _CHECK_TOL. The optimum is at most y's
    bound (_dual_bound), so such a value is at most _CHECK_TOL below it. A
    NaN in y, the value or the bound fails.
    """
    excess = _dual_bound(matrix, y) - value
    if not excess <= _CHECK_TOL:
        raise LpSolveError(
            f"maxmin value not optimal: a row beats the column mixture by {excess:.3e}"
        )


def solve_maxmin(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Value and an optimal row mixture x of a zero-sum matrix game, where
    the row player maximizes.

    x >= 0 and sums to 1 up to rounding, and the value is the worth of x,
    min_c (x @ matrix)[c].

    The game is solved as the packing LP of build_maxmin_lp without rows.
    The tableau gets one row per row of M, so a tall game is solved as the
    packing LP of -M^T instead, the column player's side. The row mixture
    is then solved again in the original payoffs on the optimal basis's
    support, which is exact where the shifted tableau lost bits, and kept
    when it is still a mixture. The column mixture is checked as a
    certificate by _certify. If it fails, the game is solved once more with
    the tableau oriented the other way, and LpSolveError means it failed
    there too.
    """
    matrix = _game(matrix)
    tall = matrix.shape[0] > matrix.shape[1]
    try:
        return _solve_packing(matrix, tall)
    except LpSolveError:
        # on badly scaled games a tiny degenerate pivot can leave one
        # tableau at a basis that is wrong by more than the certificate's
        # tolerance; the other tableau pivots through other bases
        return _solve_packing(matrix, not tall)


def _solve_packing(matrix: np.ndarray, transposed: bool) -> tuple[float, np.ndarray]:
    """solve_maxmin on the packing LP of matrix, or of -matrix^T when
    transposed; an unbounded LP raises LpSolveError in solve_lp."""
    # the row player of -M^T is the column player of M
    lp = _packing_lp(-matrix.T if transposed else matrix)
    solution = solve_lp(lp)
    m, n = lp.a_ub.shape
    u, u_sum, w, w_sum = _mixtures(solution, n)
    # the basic columns of P and the rows of P whose slack left the basis
    # index the square system of the optimal basis
    in_basis = np.zeros(n + m, dtype=bool)
    in_basis[solution.basis] = True
    columns, tight = in_basis[:n].nonzero()[0], (~in_basis[n:]).nonzero()[0]
    # the row mixture's weights, and the certificate
    if transposed:
        weights, total, y, support, active = w, w_sum, u / u_sum, columns, tight
    else:
        weights, total, y, support, active = u, u_sum, w / w_sum, tight, columns
    x = _solve_on_support(matrix, support, active)
    if x is None:
        x = weights / total
    value = float((x @ matrix).min())
    _certify(matrix, value, y)
    return value, x


def _solve_on_support(
    matrix: np.ndarray, support: np.ndarray, active: np.ndarray
) -> np.ndarray | None:
    """The row mixture that pays every active column the same, on the rows
    of support, or None if that is not a mixture.

    Solves x_S @ matrix[S, T] = v, sum(x_S) = 1 for (x_S, v) with
    |S| = |T|, the optimal basis's equations in the original payoffs.
    """
    k = support.size
    system = np.zeros((k + 1, k + 1))
    system[:k, :k] = matrix[support[:, None], active].T
    system[:k, k] = -1.0
    system[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    solved = np.linalg.solve(system, rhs)[:k]
    if not (solved >= 0.0).all():
        return None
    exact = np.zeros(matrix.shape[0])
    exact[support] = solved
    return exact


def member_payoff_matrix(game, profile, member: int) -> np.ndarray:
    """Team payoff matrix seen by one member with teammates fixed.

    Entry [a, c] is the team's expected utility when `member` plays pure
    action a, every other team member follows `profile`, and the adversary
    plays pure action c. The member's own entry in `profile` is ignored.
    """
    if not 0 <= member < game.num_team_members:
        raise ValueError(f"member index {member} out of range")
    if len(profile) != game.num_team_members:
        raise ValueError(
            f"{len(profile)} strategies for {game.num_team_members} team members"
        )
    return contract_except(game.team_utility, [s.probs for s in profile], member)
