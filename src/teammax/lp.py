"""Dense linear programming with a deterministic primal simplex.

The kernel is a textbook tableau simplex (_run_simplex). It prices with
Dantzig's largest-coefficient rule and falls back to Bland's anti-cycling
rule during long runs of degenerate pivots. Every choice, ties included,
is a fixed function of the tableau, so the pivot sequence (and therefore
the returned optimal basis) is a pure function of the input LP.

Two front ends run on it. solve_lp takes a general LinearProgram with a
two-phase method; the branch-and-bound node LPs (build_maxmin_lp with a
box, certified by check_maxmin) go through it. solve_maxmin solves an
unboxed matrix game as a packing LP whose slack basis is feasible, so it
needs no phase 1. It shifts and scales the payoffs into [1, 2] first,
which costs absolute precision on a game whose payoffs span a wide range;
the value it returns is the worth of its own row mixture, and its
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
    """maximize objective @ x
    subject to a_ub @ x <= b_ub, a_eq @ x == b_eq,
    x[j] >= 0 where nonneg[j], x[j] free otherwise.
    """

    objective: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    nonneg: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.objective, dtype=np.float64))
        nvar = c.size
        a_ub = np.asarray(self.a_ub, dtype=np.float64).reshape(-1, nvar)
        b_ub = np.atleast_1d(np.asarray(self.b_ub, dtype=np.float64))
        a_eq = np.asarray(self.a_eq, dtype=np.float64).reshape(-1, nvar)
        b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=np.float64))
        nonneg = np.atleast_1d(np.asarray(self.nonneg, dtype=bool))
        if b_ub.size != a_ub.shape[0] or b_eq.size != a_eq.shape[0]:
            raise ValueError("constraint matrix and rhs sizes disagree")
        if nonneg.size != nvar:
            raise ValueError("nonneg mask size does not match the objective")
        for arr in (c, a_ub, b_ub, a_eq, b_eq):
            if arr.size and not np.all(np.isfinite(arr)):
                raise ValueError("linear program data must be finite")
        for name, arr in (
            ("objective", c),
            ("a_ub", a_ub),
            ("b_ub", b_ub),
            ("a_eq", a_eq),
            ("b_eq", b_eq),
            ("nonneg", nonneg),
        ):
            object.__setattr__(self, name, arr)

    @property
    def num_variables(self) -> int:
        return self.objective.size


@dataclass(frozen=True, eq=False)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective_value: float
    variable_values: np.ndarray | None
    iterations: int
    # optimal duals of the a_ub rows (None unless status is "optimal")
    duals: np.ndarray | None = None


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])


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
        col = tableau[:num_rows, entering]
        rhs = tableau[:num_rows, -1]
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
    """Solve with a two-phase primal simplex.

    Returns status "optimal" with the first optimal basic solution the
    pivot rule of _run_simplex reaches, and the duals of the a_ub rows, or
    "infeasible"/"unbounded". Raises LpSolveError if the arithmetic breaks
    down (non-termination, residuals out of tolerance).
    """
    nvar = lp.num_variables
    # split free variables into positive and negative parts
    col_var: list[int] = []
    col_sign: list[float] = []
    for j in range(nvar):
        col_var.append(j)
        col_sign.append(1.0)
        if not lp.nonneg[j]:
            col_var.append(j)
            col_sign.append(-1.0)
    nsplit = len(col_var)
    signs = np.asarray(col_sign)
    split = lp.objective[np.asarray(col_var)] * signs

    n_ub = lp.b_ub.size
    n_eq = lp.b_eq.size
    num_rows = n_ub + n_eq
    a_rows = np.zeros((num_rows, nsplit + n_ub))
    rhs = np.zeros(num_rows)
    if n_ub:
        a_rows[:n_ub, :nsplit] = lp.a_ub[:, np.asarray(col_var)] * signs
        a_rows[:n_ub, nsplit : nsplit + n_ub] = np.eye(n_ub)
        rhs[:n_ub] = lp.b_ub
    if n_eq:
        a_rows[n_ub:, :nsplit] = lp.a_eq[:, np.asarray(col_var)] * signs
        rhs[n_ub:] = lp.b_eq
    flip = rhs < 0
    a_rows[flip] *= -1.0
    rhs[flip] = -rhs[flip]

    # slack columns stay basic where their coefficient survived as +1
    needs_artificial = [True] * num_rows
    basis = [0] * num_rows
    for i in range(n_ub):
        if not flip[i]:
            basis[i] = nsplit + i
            needs_artificial[i] = False
    art_cols = []
    total_cols = nsplit + n_ub
    for i in range(num_rows):
        if needs_artificial[i]:
            art_cols.append((i, total_cols))
            basis[i] = total_cols
            total_cols += 1

    tableau = np.zeros((num_rows + 1, total_cols + 1))
    tableau[:num_rows, : nsplit + n_ub] = a_rows
    tableau[:num_rows, -1] = rhs
    for i, c in art_cols:
        tableau[i, c] = 1.0

    max_iter = 1000 * (num_rows + total_cols + 10)
    iterations = 0

    if art_cols:
        # phase 1: minimize the sum of artificials
        tableau[-1, :] = 0.0
        for _, c in art_cols:
            tableau[-1, c] = 1.0
        for i in range(num_rows):
            if tableau[-1, basis[i]] != 0.0:
                tableau[-1] -= tableau[-1, basis[i]] * tableau[i]
        status, pivots = _run_simplex(tableau, basis, max_iter)
        iterations += pivots
        if status != "optimal":
            raise LpSolveError("phase 1 reported an unbounded problem")
        if -tableau[-1, -1] > 1e-7:
            return LpSolution("infeasible", float("nan"), None, iterations)
        artificial_set = {c for _, c in art_cols}
        for i in range(num_rows):
            if basis[i] in artificial_set:
                # degenerate artificial at zero: swap it for any real column
                pivot_col = -1
                for j in range(nsplit + n_ub):
                    if abs(tableau[i, j]) > FEASIBILITY_TOL:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    _pivot(tableau, i, pivot_col)
                    basis[i] = pivot_col
        keep_rows = [
            i for i in range(num_rows) if basis[i] not in artificial_set
        ]
        if len(keep_rows) < num_rows:
            # rows still pinned to an artificial are redundant
            tableau = tableau[keep_rows + [num_rows]]
            basis = [basis[i] for i in keep_rows]
            num_rows = len(keep_rows)
        tableau = np.delete(tableau, sorted(artificial_set), axis=1)

    # phase 2: minimize -objective
    tableau[-1, :] = 0.0
    tableau[-1, : nsplit] = -split
    for i in range(num_rows):
        if tableau[-1, basis[i]] != 0.0:
            tableau[-1] -= tableau[-1, basis[i]] * tableau[i]
    status, pivots = _run_simplex(tableau, basis, max_iter)
    iterations += pivots
    if status == "unbounded":
        return LpSolution("unbounded", float("inf"), None, iterations)

    values_split = np.zeros(tableau.shape[1] - 1)
    for i in range(num_rows):
        values_split[basis[i]] = tableau[i, -1]
    x = np.zeros(nvar)
    for k in range(nsplit):
        x[col_var[k]] += col_sign[k] * values_split[k]

    _validate_solution(lp, x)
    objective = float(lp.objective @ x)
    # the reduced cost of a row's slack is that row's dual (for a flipped
    # row both the slack column and the dual change sign)
    duals = tableau[-1, nsplit : nsplit + n_ub].copy()
    return LpSolution("optimal", objective, x, iterations, duals)


def _validate_solution(lp: LinearProgram, x: np.ndarray) -> None:
    if lp.b_ub.size:
        worst = float(np.max(lp.a_ub @ x - lp.b_ub))
        if worst > _CHECK_TOL:
            raise LpSolveError(f"inequality residual {worst:.3e} out of tolerance")
    if lp.b_eq.size:
        worst = float(np.max(np.abs(lp.a_eq @ x - lp.b_eq)))
        if worst > _CHECK_TOL:
            raise LpSolveError(f"equality residual {worst:.3e} out of tolerance")
    if np.any(x[lp.nonneg] < -_CHECK_TOL):
        raise LpSolveError("negative value for a nonnegative variable")


# ---------------------------------------------------------------------------
# LP builders for maxmin problems


def build_maxmin_lp(
    matrix: np.ndarray,
    lows: np.ndarray | None = None,
    highs: np.ndarray | None = None,
) -> LinearProgram:
    """LP for the row player's maxmin of a zero-sum matrix game.

    Variables are the row probabilities followed by the value variable v:
    maximize v subject to, for every column c,
    v - sum_r matrix[r, c] x_r <= 0, and sum_r x_r = 1, x >= 0, v free.

    A box lows <= x <= highs restricts the row mixture further. Its rows
    follow the column rows: x_r <= highs[r] for every row, then
    -x_r <= -lows[r] for every row with lows[r] > 0, in row order.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError("matrix must be two-dimensional and nonempty")
    rows, cols = matrix.shape
    nvar = rows + 1
    objective = np.zeros(nvar)
    objective[-1] = 1.0
    blocks = [np.zeros((cols, nvar))]
    blocks[0][:, :rows] = -matrix.T
    blocks[0][:, rows] = 1.0
    rhs = [np.zeros(cols)]
    if highs is not None:
        upper = np.zeros((rows, nvar))
        upper[:, :rows] = np.eye(rows)
        blocks.append(upper)
        rhs.append(highs)
    if lows is not None and (mask := lows > 0.0).any():
        lower = np.zeros((int(mask.sum()), nvar))
        lower[:, :rows] = -np.eye(rows)[mask]
        blocks.append(lower)
        rhs.append(-lows[mask])
    a_eq = np.zeros((1, nvar))
    a_eq[0, :rows] = 1.0
    nonneg = np.ones(nvar, dtype=bool)
    nonneg[rows] = False
    return LinearProgram(
        objective, np.vstack(blocks), np.concatenate(rhs), a_eq, np.ones(1), nonneg
    )


def check_maxmin(
    matrix: np.ndarray,
    solution: LpSolution,
    lows: np.ndarray | None = None,
    highs: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Value and row mixture of a solution of build_maxmin_lp(matrix, lows,
    highs), certified from both sides.

    solve_lp checks that the row mixture is feasible, so it guarantees the
    value. The duals of the column rows are a column mixture y, which
    _certify checks against the value over the box. These LPs are always
    feasible and bounded; anything else, or a certificate that does not
    check, is a solver defect and raises LpSolveError.
    """
    if solution.status != "optimal":
        raise LpSolveError(f"maxmin LP came back {solution.status}")
    matrix = np.asarray(matrix, dtype=np.float64)
    value = solution.objective_value
    _certify(matrix, value, solution.duals[: matrix.shape[1]], lows, highs)
    return value, solution.variable_values[:-1]


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
    min_c (x @ matrix)[c]. A constant matrix returns its entry and the
    first pure row.

    The payoffs are shifted and scaled into P = 1 + (M - lo) / (hi - lo)
    in [1, 2], and the column player's side of P is solved as the packing
    LP max 1 @ w subject to P @ w <= 1, w >= 0. Its slack basis is
    feasible, so the simplex starts at once, with no phase 1 and no free
    value variable. The tableau gets one row per row of P, so a tall game
    is solved as the packing LP of -M^T instead. At the optimum w / sum(w)
    is the column player's mixture, and the reduced costs of the slacks,
    scaled by their sum, are the row player's. The row mixture is then
    solved again in the original payoffs on the optimal basis's support,
    which is exact where the shifted tableau lost bits, and kept when it
    is still a mixture. The column mixture is checked as a certificate by
    _certify. If it fails, the game is solved once more with the tableau
    oriented the other way, and LpSolveError means it failed there too.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError("matrix must be two-dimensional and nonempty")
    if not np.isfinite(matrix).all():
        raise ValueError("linear program data must be finite")
    lo, hi = float(matrix.min()), float(matrix.max())
    if lo == hi:
        return lo, np.eye(matrix.shape[0])[0]
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
    transposed, with payoffs in [lo, hi], lo < hi."""
    # the row player of -M^T is the column player of M
    if transposed:
        packing = 1.0 + (hi - matrix.T) / (hi - lo)
    else:
        packing = 1.0 + (matrix - lo) / (hi - lo)
    m, n = packing.shape
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = packing
    np.fill_diagonal(tableau[:m, n:], 1.0)
    tableau[:m, -1] = 1.0
    # priced in payoff units when the payoffs span more than 1, so that
    # the simplex stops within OPTIMALITY_TOL of the optimum in the
    # original payoffs, not only in the shifted ones
    tableau[-1, :n] = -max(1.0, hi - lo)
    basis = list(range(n, n + m))
    status, _ = _run_simplex(tableau, basis, 1000 * (2 * m + n + 10))
    if status != "optimal":
        raise LpSolveError(f"packing LP came back {status}")
    values = np.zeros(n + m)
    values[basis] = tableau[:m, -1]
    w = np.maximum(values[:n], 0.0)
    u = np.maximum(tableau[-1, n:-1], 0.0)
    # the basic columns of P and the rows of P whose slack left the basis
    # index the square system of the optimal basis
    in_basis = np.zeros(n + m, dtype=bool)
    in_basis[basis] = True
    columns, tight = np.flatnonzero(in_basis[:n]), np.flatnonzero(~in_basis[n:])
    if transposed:
        x, y, support, active = w / w.sum(), u / u.sum(), columns, tight
    else:
        x, y, support, active = u / u.sum(), w / w.sum(), tight, columns
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
