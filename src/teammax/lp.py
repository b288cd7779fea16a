"""Dense linear programming with a deterministic primal simplex.

The kernel is a textbook tableau simplex (_run_simplex). It prices with
Dantzig's largest-coefficient rule and falls back to Bland's anti-cycling
rule during long runs of degenerate pivots. Every choice, ties included,
is a fixed function of the tableau, so the pivot sequence (and therefore
the returned optimal basis) is a pure function of the input LP.

Every LP here has one form: maximize c @ x subject to A @ x <= b, x >= 0,
with b >= 0. Its slack basis is feasible, so solve_lp runs the simplex once
from it: no phase 1, no artificial or free variables, no equality rows.
build_maxmin_lp writes every maxmin LP in that form, a branch-and-bound
node's box included: the payoffs are shifted and scaled into [1, 2], the
column player's side is solved as a packing LP, and the box on the row
mixture becomes extra columns. check_maxmin reads both mixtures off the
solution and certifies the value; solve_maxmin, for an unboxed game, also
orients the tableau by shape and refines the row mixture in the original
payoffs. The shift costs absolute precision on a game whose payoffs span a
wide range; the value returned is the worth of the row mixture, and its
certificate bounds how far the value can be from the optimum. Problems in
this package are small and well scaled; the tolerances below are absolute.
"""

from __future__ import annotations

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


class LpSolveError(RuntimeError):
    """Numerical failure inside the simplex (no termination, bad basis)."""


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
        # solve_lp checks that the data is finite, on its tableau
        if not b.min(initial=0.0) >= 0.0:
            raise ValueError("the rhs must be nonnegative")


@dataclass(frozen=True, eq=False)
class LpSolution:
    status: str  # "optimal" | "unbounded"
    objective_value: float
    variable_values: np.ndarray | None
    iterations: int
    # optimal duals of the a_ub rows, the reduced costs of their slacks,
    # and the optimal basis: column j < n is x[j] and column n + i the
    # slack of row i, for n variables (None unless status is "optimal")
    duals: np.ndarray | None = None
    basis: list[int] | None = None


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * tableau[row]


def _run_simplex(
    tableau: np.ndarray, basis: list[int], max_iter: int
) -> tuple[str, int]:
    """Minimize the cost in tableau[-1] in place.

    The entering column is Dantzig's: the most negative reduced cost, ties
    to the lowest index. After _DEGENERATE_STREAK consecutive degenerate
    pivots (step ratio at most _RATIO_TIE_TOL) it switches to Bland's rule,
    the lowest index with a negative reduced cost, and switches back at the
    first non-degenerate pivot. The leaving row breaks ratio ties by lowest
    basic variable index throughout, which is Bland's leaving rule.

    Termination: a non-degenerate pivot strictly lowers the objective, so
    no basis seen before it recurs after it, and a cycle would have to lie
    within one run of degenerate pivots. Such a run makes at most
    _DEGENERATE_STREAK Dantzig pivots and then continues under Bland's rule,
    which cannot cycle (Bland, Math. Oper. Res. 1977), so every run ends.
    """
    num_rows = tableau.shape[0] - 1
    degenerate = 0
    for pivots in range(max_iter):
        cost = tableau[-1, :-1]
        if degenerate < _DEGENERATE_STREAK:
            entering = int(cost.argmin())
            if cost[entering] >= -OPTIMALITY_TOL:
                return "optimal", pivots
        else:
            improving = (cost < -OPTIMALITY_TOL).nonzero()[0]
            if improving.size == 0:
                return "optimal", pivots
            entering = int(improving[0])
        # the scan reads Python floats, which compare and divide as the
        # tableau's float64 entries do
        col = tableau[:num_rows, entering].tolist()
        rhs = tableau[:num_rows, -1].tolist()
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
            return "unbounded", pivots
        if rhs[leaving] / col[leaving] <= _RATIO_TIE_TOL:
            degenerate += 1
        else:
            degenerate = 0
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
    raise LpSolveError(
        f"simplex did not terminate within {max_iter} pivots "
        f"({num_rows} rows, {tableau.shape[1] - 1} columns)"
    )


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve with the primal simplex from the slack basis.

    The tableau is [a_ub | I | b_ub] under the cost row [-objective | 0 | 0];
    b_ub >= 0 makes the slack basis feasible, so one run of _run_simplex
    solves the LP. Returns status "optimal" with the first optimal basic
    solution the pivot rule reaches, the duals of the a_ub rows and the
    basis, or status "unbounded". Raises ValueError on data that is not
    finite, and LpSolveError if the arithmetic breaks down
    (non-termination, residuals out of tolerance).
    """
    m, n = lp.a_ub.shape
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = lp.a_ub
    np.fill_diagonal(tableau[:m, n:], 1.0)
    tableau[:m, -1] = lp.b_ub
    tableau[-1, :n] = -lp.objective
    if not np.isfinite(tableau).all():
        raise ValueError("linear program data must be finite")
    basis = list(range(n, n + m))
    status, pivots = _run_simplex(tableau, basis, 1000 * (2 * m + n + 10))
    if status == "unbounded":
        return LpSolution("unbounded", float("inf"), None, pivots)
    values = np.zeros(n + m)
    values[basis] = tableau[:m, -1]
    x = values[:n]
    if m and (worst := float((lp.a_ub @ x - lp.b_ub).max())) > _CHECK_TOL:
        raise LpSolveError(f"inequality residual {worst:.3e} out of tolerance")
    objective = float(lp.objective @ x)
    # the reduced cost of a row's slack is that row's dual
    duals = tableau[-1, n:-1].copy()
    return LpSolution("optimal", objective, x, pivots, duals, basis)


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
    matrix: np.ndarray,
    lows: np.ndarray | None = None,
    highs: np.ndarray | None = None,
) -> LinearProgram:
    """Packing LP of the row player's maxmin of a zero-sum matrix game, with
    the row mixture x restricted to the box lows <= x <= highs if given.

    The payoffs are shifted and scaled into P = 1 + (M - lo) / s in [1, 2],
    where lo and hi are the smallest and largest payoff and s is
    (hi - lo) or 1. Every mixture then earns at least 1 against every
    column, so the row player's LP max t s.t. x @ P >= t 1 over the box and
    the simplex has t >= 1, and u = x / t turns it into
    min 1 @ u s.t. u @ P >= 1, u_r >= lows_r (1 @ u), u_r <= highs_r (1 @ u),
    u >= 0, with optimum 1 / t (Charnes & Cooper, "Programming with linear
    fractional functionals", NRLQ 1962). Its dual is the LP built here:

        max 1 @ w  s.t.  P w + sum_{r: lows_r > 0} beta_r (e_r - lows_r 1)
                             + sum_{r: highs_r < 1} alpha_r (highs_r 1 - e_r)
                         <= 1,   w, beta, alpha >= 0.

    The variables are w, one per column of M, then beta and alpha in row
    order; a row with lows_r = 0 or highs_r = 1 needs no column. The
    right-hand side is all ones, so the slack basis is feasible (Dantzig,
    *Linear Programming and Extensions* (1963), ch. 13). Without a box, or
    with lows 0 and highs 1, the LP is max 1 @ w s.t. P w <= 1. The
    objective is max(1, hi - lo) times 1 @ w, so that a simplex that stops
    within OPTIMALITY_TOL of the optimum in P does so in the original
    payoffs too. At the optimum the reduced costs of the slacks are u, and
    w / sum(w) is the column player's mixture; check_maxmin reads both.
    """
    matrix = _game(matrix)
    lo, hi = float(matrix.min()), float(matrix.max())
    return _packing_lp(1.0 + (matrix - lo) / ((hi - lo) or 1.0), hi - lo, lows, highs)


def _packing_lp(
    packing: np.ndarray,
    spread: float,
    lows: np.ndarray | None = None,
    highs: np.ndarray | None = None,
) -> LinearProgram:
    """build_maxmin_lp on payoffs already scaled into packing, whose
    original payoffs span spread."""
    rows, cols = packing.shape
    blocks = [packing]
    if lows is not None and (mask := lows > 0.0).any():
        blocks.append(np.eye(rows)[:, mask] - lows[mask])
    if highs is not None and (mask := highs < 1.0).any():
        blocks.append(highs[mask] - np.eye(rows)[:, mask])
    a_ub = np.hstack(blocks) if len(blocks) > 1 else packing
    objective = np.zeros(a_ub.shape[1])
    objective[:cols] = max(1.0, spread)
    return LinearProgram(objective, a_ub, np.ones(rows))


def _mixtures(solution: LpSolution, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The row mixture u / sum(u) and the column mixture w / sum(w) of an
    optimal packing LP solution with cols columns of P, negative rounding
    clipped to 0."""
    u = np.maximum(solution.duals, 0.0)
    w = np.maximum(solution.variable_values[:cols], 0.0)
    return u / u.sum(), w / w.sum()


def check_maxmin(
    matrix: np.ndarray,
    solution: LpSolution,
    lows: np.ndarray | None = None,
    highs: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Value and row mixture of a solution of build_maxmin_lp(matrix, lows,
    highs), certified from both sides.

    The row mixture x is the slacks' reduced costs scaled by their sum; it
    lies in the box because the reduced costs of the beta and alpha
    columns are nonnegative at the optimum. The value is its worth,
    min_c (x @ matrix)[c], which x guarantees. The column mixture
    y = w / sum(w) bounds the optimum from above: a mixture x' in the box
    is nonnegative, so multiplying the rows of the LP by x' gives
    x' @ P w + sum beta_r (x'_r - lows_r) + sum alpha_r (highs_r - x'_r)
    <= 1, and the beta and alpha terms are nonnegative, so
    x' @ P @ y <= 1 / sum(w), which at the optimum is the maxmin value of P
    over the box. No mixture in the box earns more than that against y,
    and _certify checks this in the original payoffs against the value.
    The LP is bounded whenever the box meets the simplex; any other status,
    or a certificate that does not check, is a solver defect or an empty
    box and raises LpSolveError.
    """
    if solution.status != "optimal":
        raise LpSolveError(f"maxmin LP came back {solution.status}")
    matrix = np.asarray(matrix, dtype=np.float64)
    x, y = _mixtures(solution, matrix.shape[1])
    value = float((x @ matrix).min())
    _certify(matrix, value, y, lows, highs)
    return value, x


def _certify(
    matrix: np.ndarray,
    value: float,
    y: np.ndarray,
    lows: np.ndarray | None = None,
    highs: np.ndarray | None = None,
) -> None:
    """Raise LpSolveError unless y is a column mixture that holds every
    row mixture in the box to at most value + _CHECK_TOL.

    No row mixture in the box earns more than max_x x @ (matrix @ y)
    against y (minimax over the box and the simplex, both convex), so the
    optimum is at most that maximum, and a value that y holds to within
    _CHECK_TOL is at most _CHECK_TOL below the optimum.
    """
    if y.min() < -_CHECK_TOL or abs(y.sum() - 1.0) > _CHECK_TOL:
        raise LpSolveError("maxmin LP duals are not a column mixture")
    excess = _box_max(matrix @ y, lows, highs) - value
    if excess > _CHECK_TOL:
        raise LpSolveError(
            f"maxmin value not optimal: a row beats the column mixture by {excess:.3e}"
        )


def _box_max(
    payoffs: np.ndarray, lows: np.ndarray | None, highs: np.ndarray | None
) -> float:
    """max of x @ payoffs over the mixtures x with lows <= x <= highs.

    Every row gets its low, and the mass left is poured into the rows in
    order of payoff, best first, each up to its high. Without a box the
    best row takes all of it.
    """
    if lows is None and highs is None:
        return float(payoffs.max())
    lows = np.zeros(payoffs.size) if lows is None else lows
    highs = np.ones(payoffs.size) if highs is None else highs
    order = np.argsort(-payoffs, kind="stable")
    room = (highs - lows)[order]
    # mass the better rows take before each row's turn
    before = np.cumsum(room) - room
    fill = np.clip(1.0 - lows.sum() - before, 0.0, room)
    return float(lows @ payoffs + fill @ payoffs[order])


def solve_maxmin(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Value and an optimal row mixture x of a zero-sum matrix game, where
    the row player maximizes.

    x >= 0 and sums to 1 up to rounding, and the value is the worth of x,
    min_c (x @ matrix)[c].

    The game is solved as the packing LP of build_maxmin_lp without a box.
    The tableau gets one row per row of P, so a tall game is solved as the
    packing LP of -M^T instead, whose packing matrix is the same shift of
    M^T. The row mixture is then solved again in the original payoffs on
    the optimal basis's support, which is exact where the shifted tableau
    lost bits, and kept when it is still a mixture. The column mixture is
    checked as a certificate by _certify. If it fails, the game is solved
    once more with the tableau oriented the other way, and LpSolveError
    means it failed there too.
    """
    matrix = _game(matrix)
    lo, hi = float(matrix.min()), float(matrix.max())
    tall = matrix.shape[0] > matrix.shape[1]
    try:
        return _solve_packing(matrix, lo, hi, tall)
    except LpSolveError:
        # on badly scaled games a tiny degenerate pivot can leave one
        # tableau at a basis that is wrong by more than the certificate's
        # tolerance; the other tableau pivots through other bases
        return _solve_packing(matrix, lo, hi, not tall)


def _solve_packing(
    matrix: np.ndarray, lo: float, hi: float, transposed: bool
) -> tuple[float, np.ndarray]:
    """solve_maxmin on the packing LP of matrix, or of -matrix^T when
    transposed, with payoffs in [lo, hi]."""
    scale = (hi - lo) or 1.0
    # the row player of -M^T is the column player of M
    if transposed:
        packing = 1.0 + (hi - matrix.T) / scale
    else:
        packing = 1.0 + (matrix - lo) / scale
    solution = solve_lp(_packing_lp(packing, hi - lo))
    if solution.status != "optimal":
        raise LpSolveError(f"packing LP came back {solution.status}")
    m, n = packing.shape
    u_mix, w_mix = _mixtures(solution, n)
    # the basic columns of P and the rows of P whose slack left the basis
    # index the square system of the optimal basis
    in_basis = np.zeros(n + m, dtype=bool)
    in_basis[solution.basis] = True
    columns, tight = np.flatnonzero(in_basis[:n]), np.flatnonzero(~in_basis[n:])
    if transposed:
        x, y, support, active = w_mix, u_mix, columns, tight
    else:
        x, y, support, active = u_mix, w_mix, tight, columns
    x = _solve_on_support(matrix, x, support, active)
    value = float((x @ matrix).min())
    _certify(matrix, value, y)
    return value, x


def _solve_on_support(
    matrix: np.ndarray, x: np.ndarray, support: np.ndarray, active: np.ndarray
) -> np.ndarray:
    """The row mixture that pays every active column the same, on the rows
    of support, or x unchanged if that is not a mixture.

    Solves x_S @ matrix[S, T] = v, sum(x_S) = 1 for (x_S, v) with
    |S| = |T|, the optimal basis's equations in the original payoffs.
    """
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
