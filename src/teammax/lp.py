"""Dense linear programming with a deterministic primal simplex.

The solver is a textbook two-phase tableau simplex. It prices with
Dantzig's largest-coefficient rule and falls back to Bland's anti-cycling
rule during long runs of degenerate pivots (see _run_simplex). Every
choice, ties included, is a fixed function of the tableau, so the pivot
sequence (and therefore the returned optimal basis) is a pure function of
the input LP. Problems in this package are small and well scaled; the
tolerances below are absolute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def build_maxmin_lp(matrix: np.ndarray) -> LinearProgram:
    """LP for the row player's maxmin of a zero-sum matrix game.

    Variables are the row probabilities followed by the value variable v:
    maximize v subject to, for every column c,
    v - sum_r matrix[r, c] x_r <= 0, and sum_r x_r = 1, x >= 0, v free.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError("matrix must be two-dimensional and nonempty")
    rows, cols = matrix.shape
    objective = np.zeros(rows + 1)
    objective[-1] = 1.0
    a_ub = np.zeros((cols, rows + 1))
    a_ub[:, :rows] = -matrix.T
    a_ub[:, rows] = 1.0
    b_ub = np.zeros(cols)
    a_eq = np.zeros((1, rows + 1))
    a_eq[0, :rows] = 1.0
    b_eq = np.ones(1)
    nonneg = np.ones(rows + 1, dtype=bool)
    nonneg[rows] = False
    return LinearProgram(objective, a_ub, b_ub, a_eq, b_eq, nonneg)


def solve_maxmin(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Value and optimal row mixture of a zero-sum matrix game.

    The value is certified from both sides: solve_lp checks that the row
    mixture is feasible, so it guarantees the value, and the LP's duals
    are a column mixture y that holds every row to at most the value,
    max_r (matrix @ y)_r <= value. These LPs are always feasible and
    bounded; anything else, or a certificate that does not check, is a
    solver defect and raises LpSolveError.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    solution = solve_lp(build_maxmin_lp(matrix))
    if solution.status != "optimal":
        raise LpSolveError(f"maxmin LP came back {solution.status}")
    value = solution.objective_value
    y = solution.duals
    if y.min() < -_CHECK_TOL or abs(y.sum() - 1.0) > _CHECK_TOL:
        raise LpSolveError("maxmin LP duals are not a column mixture")
    excess = float((matrix @ y).max()) - value
    if excess > _CHECK_TOL:
        raise LpSolveError(
            f"maxmin value not optimal: a row beats the column mixture by {excess:.3e}"
        )
    return value, solution.variable_values[:-1]


def member_payoff_matrix(game, profile, member: int) -> np.ndarray:
    """Team payoff matrix seen by one member with teammates fixed.

    Entry [a, c] is the team's expected utility when `member` plays pure
    action a, every other team member follows `profile`, and the adversary
    plays pure action c. The member's own entry in `profile` is ignored.
    """
    if not 0 <= member < game.num_team_members:
        raise ValueError(f"member index {member} out of range")
    out = np.moveaxis(game.team_utility, member, 0)
    for j in range(game.num_team_members):
        if j == member:
            continue
        # axis 1 is always the next remaining teammate axis
        out = np.tensordot(out, profile[j].probs, axes=([1], [0]))
    return out


def build_best_response_lp(game, profile, member: int) -> LinearProgram:
    """LP for one team member's best worst-case response.

    With every teammate fixed to `profile`, the member faces a zero-sum
    matrix game against the adversary; her best response is that game's
    maxmin mixture.
    """
    return build_maxmin_lp(member_payoff_matrix(game, profile, member))


def lp_to_text(lp: LinearProgram, name: str = "lp") -> str:
    """Plain-text dump of an LP in the common LP file layout (debug aid)."""

    def term(coef: float, j: int) -> str:
        return f"{coef:+.12g} x{j}"

    lines = [f"\\ {name}", "Maximize", " obj: " + _expr(lp.objective, term)]
    lines.append("Subject To")
    for i in range(lp.b_ub.size):
        lines.append(f" c{i}: " + _expr(lp.a_ub[i], term) + f" <= {lp.b_ub[i]:.12g}")
    for i in range(lp.b_eq.size):
        lines.append(f" e{i}: " + _expr(lp.a_eq[i], term) + f" = {lp.b_eq[i]:.12g}")
    lines.append("Bounds")
    for j in range(lp.num_variables):
        lines.append(f" x{j} free" if not lp.nonneg[j] else f" 0 <= x{j}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _expr(coefs: np.ndarray, term) -> str:
    parts = [term(float(c), j) for j, c in enumerate(coefs) if c != 0.0]
    return " ".join(parts) if parts else "0"
