"""Solvers and bounds for the team-maxmin value.

Exact solution is NP-hard and the optimum can be irrational, so everything
here reports certified brackets instead of pretending to be exact:

* correlated_team_maxmin: LP over joint team actions, an upper bound.
* reconstruct_mixed / reconstruct_best_pivot: independent profile recovered
  from the correlated optimum, a lower bound with a multiplicative
  guarantee.
* support_enumeration: additive epsilon guarantee by searching every
  profile of discretized mixtures (exponential work, timeout-capped).
* iterated_lp: alternating best-response LP ascent with random restarts,
  a monotone anytime lower bound.
* global_optimize: anytime lower/upper bracket combining the above with a
  branch-and-bound refinement of the correlated relaxation.
* grid_oracle: exact grid search with a certified additive error, for
  grids that fit in memory (timeout-capped).
"""

from __future__ import annotations

import heapq
import inspect
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .game import (
    CapacityError,
    JointDistribution,
    MixedStrategy,
    TeamGame,
    TeamProfile,
    check_type,
    team_value,
    to_joint_game,
    uniform_profile,
)
from .lp import (
    LpSolveError,
    build_maxmin_lp,
    check_maxmin,
    member_payoff_matrix,
    solve_lp,
    solve_maxmin,
)
from .rng import SplitMix64

DEFAULT_TIMEOUT = 3600.0
BOUND_SLACK = 1e-7
# a round of iterated_lp must raise the team value by this much to count
IMPROVEMENT_TOL = 1e-9
# global_optimize splits a box at most this many times per team member
MAX_DEPTH = 64
# a restart of iterated_lp makes at most this many rounds
MAX_ROUNDS = 1000


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Certified bracket [lower_bound, upper_bound] for the team-maxmin
    value, with the profile realizing the lower bound.

    correlated_bound is v_C, or the largest payoff over to_joint_game's cap
    (_correlated_bound). Every upper bound is max(lower_bound,
    min(correlated_bound, the solver's own certificate)); construction
    rejects one above max(correlated_bound, lower_bound). NaN passes.

    traces holds, per restart of an iterative solver, the sequence of
    accepted objective values (non-decreasing within each restart);
    restarts_used is their count.
    """

    lower_bound: float
    upper_bound: float
    correlated_bound: float
    witness: TeamProfile | None
    iterations: int
    wall_time: float
    converged: bool
    traces: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self):
        if self.lower_bound > self.upper_bound + BOUND_SLACK:
            raise ValueError(
                f"lower bound {self.lower_bound} exceeds upper bound "
                f"{self.upper_bound}"
            )
        ceiling = max(self.correlated_bound, self.lower_bound)
        if self.upper_bound > ceiling + BOUND_SLACK:
            raise ValueError(
                f"upper bound {self.upper_bound} exceeds the correlated bound "
                f"{self.correlated_bound} and the lower bound"
            )
        if self.iterations < 0 or self.wall_time < 0:
            raise ValueError("counters must be nonnegative")

    @property
    def restarts_used(self) -> int:
        return len(self.traces)


@dataclass(frozen=True, eq=False)
class OracleEstimate:
    """Grid-search estimate with one-sided certification: the true
    team-maxmin value lies in [value, value + error_bound]. evaluations
    counts the grid candidates covered, scored exactly or ruled out by the
    search's Lipschitz bound. A sweep cut short by its timeout certifies no
    upper end: error_bound is inf and evaluations counts the candidates
    scored."""

    value: float
    error_bound: float
    witness: TeamProfile
    resolution: int
    evaluations: int


def _deadline(start: float, timeout: float | None) -> float:
    """The perf_counter reading at which a solver started at `start` stops,
    inf for a timeout of None: the one timeout check of every solver. Raises
    ValueError for a timeout that check_type rejects as a float, or that is
    negative or NaN, which no deadline comparison would ever reach."""
    if timeout is None:
        return math.inf
    timeout = check_type("timeout", timeout, float)
    if not timeout >= 0:
        raise ValueError(f"timeout must be nonnegative, got {timeout}")
    return start + timeout


# ---------------------------------------------------------------------------
# correlated relaxation and reconstruction


def correlated_team_maxmin(game: TeamGame) -> tuple[JointDistribution, float]:
    """Exact maxmin over correlated (joint) team strategies.

    Reduces the game to a two-player zero-sum matrix game whose rows are
    joint team actions and solves the resulting LP. The value dominates the
    independent team-maxmin value.
    """
    value, probs = solve_maxmin(to_joint_game(game))
    dist = JointDistribution(game.team_sizes, probs)
    return dist, value


def _correlated_bound(game: TeamGame) -> float:
    """v_C, which bounds every independent profile. A game whose joint team
    actions exceed to_joint_game's cap gets its largest payoff instead."""
    try:
        return correlated_team_maxmin(game)[1]
    except CapacityError:
        return float(game.team_utility.max())


def reconstruct_mixed(
    dist: JointDistribution, game: TeamGame, pivot: int
) -> TeamProfile:
    """Independent profile derived from a joint distribution.

    The pivot member keeps her exact marginal; every other member plays
    uniformly on her marginal's support. For nonnegative payoffs the result
    guarantees at least the joint strategy's worst-case value divided by the
    product of the non-pivot support sizes (hence by m^(n-2))."""
    if dist.team_sizes != game.team_sizes:
        raise ValueError("joint distribution does not match the game")
    if not 0 <= pivot < game.num_team_members:
        raise ValueError(f"pivot {pivot} out of range")
    strategies = []
    for i in range(game.num_team_members):
        if i == pivot:
            strategies.append(MixedStrategy(dist.marginal(i)))
        else:
            support = dist.support(i)
            probs = np.zeros(game.team_sizes[i])
            probs[support] = 1.0 / support.size
            strategies.append(MixedStrategy(probs))
    return TeamProfile(tuple(strategies))


def reconstruct_best_pivot(
    game: TeamGame, timeout: float | None = DEFAULT_TIMEOUT
) -> SolveReport:
    """Correlated LP once, then the best reconstruction over all pivots.

    Ties between pivots keep the lowest pivot index. timeout caps the
    seconds spent; the clock is read after each pivot's reconstruction, so
    a run cut short has evaluated at least one pivot. It reports the best
    pivot so far, iterations = the pivots evaluated and converged=False;
    the upper bound is max(v_C, lower) either way.
    """
    start = time.perf_counter()
    deadline = _deadline(start, timeout)
    dist, correlated_value = correlated_team_maxmin(game)
    members = game.num_team_members
    best_value = -math.inf
    best_profile = None
    for pivot in range(members):
        profile = reconstruct_mixed(dist, game, pivot)
        value = team_value(game, profile).value
        if value > best_value:
            best_value, best_profile = value, profile
        if time.perf_counter() > deadline:
            break
    evaluated = pivot + 1
    return SolveReport(
        lower_bound=best_value,
        upper_bound=max(correlated_value, best_value),
        correlated_bound=correlated_value,
        witness=best_profile,
        iterations=evaluated,
        wall_time=time.perf_counter() - start,
        converged=evaluated == members,
    )


# ---------------------------------------------------------------------------
# support enumeration


def _require_normalized(game: TeamGame, who: str) -> None:
    lo = float(game.team_utility.min())
    hi = float(game.team_utility.max())
    if lo < -1e-12 or hi > 1.0 + 1e-12:
        raise ValueError(
            f"{who} requires payoffs normalized to [0, 1], "
            f"got range [{lo}, {hi}]; apply normalize_payoffs first"
        )


def _grid_steps(spread: float, error: float, key: str, value: float) -> int:
    """max(1, ceil(spread / error)) for spread >= 0 and error >= 0: the
    steps of a grid fine enough for parameter `key`'s `value`. Raises
    CapacityError when that count is not finite, as when error underflows
    to 0."""
    if spread == 0.0:
        return 1
    steps = spread / error if error else math.inf
    if steps == math.inf:
        raise CapacityError(f"{key} {value} needs more grid steps than a float holds")
    return max(1, math.ceil(steps))


def _grid_radius(game: TeamGame) -> float:
    """k times the certified error of the best profile of k-step grid
    mixtures: (hi - lo) / 2 * sum_i r(m_i), [lo, hi] the range of the team's
    payoffs. Every mixture of m actions lies within r(m) / k =
    2 floor(m/2) ceil(m/2) / (m k) in L1 of a point of the k-step grid
    (Bomze, Gollowitzer & Yildirim, "Rounding on the standard simplex:
    regular grids for global optimization", J. Global Optim. 2014), and
    each member's mixture moves a worst-case value by at most (hi - lo) / 2
    times its L1 distance (grid_oracle; Shubert, SIAM J. Numer. Anal.
    1972)."""
    lo = float(game.team_utility.min())
    hi = float(game.team_utility.max())
    rounding = sum(2.0 * (m // 2) * (m - m // 2) / m for m in game.team_sizes)
    return (hi - lo) / 2.0 * rounding


def _check_enumeration(epsilon: float) -> None:
    """support_enumeration's range rules."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")


def support_enumeration(
    game: TeamGame, epsilon: float = 1.0, timeout: float | None = DEFAULT_TIMEOUT
) -> SolveReport:
    """Additive epsilon-approximation by enumerating discretized mixtures.

    Requires payoffs in [0, 1]. Every member mixes over the action
    multisets of cardinality max(1, ceil(ln m / (2 epsilon^2))), m the
    largest team-member action count (Lipton, Markakis & Mehta, EC 2003).
    _grid_search searches every profile of such mixtures and returns what
    scoring each one and keeping the first best would. When it finishes,
    the lower bound is within epsilon of the team-maxmin value, and the
    grid certifies the value at most _grid_radius(game) / steps above it,
    as grid_oracle's does: the upper bound is the lesser of that and the
    correlated value v_C (_correlated_bound).

    timeout is the one stop rule: the search reads the clock between
    chunks of candidates, so it scores at least one chunk, and a search it
    cuts short reports converged=False, the best value so far and v_C.
    iterations counts the candidates covered, scored or ruled out by
    _grid_search's bound: the whole grid when the search finishes, the
    candidates scored when the timeout cuts it.
    """
    _require_normalized(game, "support_enumeration")
    _check_enumeration(epsilon)
    start = time.perf_counter()
    deadline = _deadline(start, timeout)
    steps = _grid_steps(
        math.log(game.max_team_actions), 2.0 * epsilon * epsilon, "epsilon", epsilon
    )
    total = math.prod(_grid_counts(game.team_sizes, steps))
    value, witness, covered = _grid_search(game, steps, deadline)
    error = _grid_radius(game) / steps if covered == total else math.inf
    return _grid_report(game, value, error, witness, covered, start)


def _grid_report(game, value, error, witness, covered, start) -> SolveReport:
    """The report of a grid search started at `start` whose best value
    `value` lies within `error` of the team-maxmin value (inf for a search
    cut short): its upper bound is the lesser of v_C and value + error."""
    correlated = _correlated_bound(game)
    return SolveReport(
        lower_bound=value,
        upper_bound=max(min(correlated, value + error), value),
        correlated_bound=correlated,
        witness=witness,
        iterations=covered,
        wall_time=time.perf_counter() - start,
        converged=error < math.inf,
    )


# ---------------------------------------------------------------------------
# iterated LP ascent


def _random_profile(game: TeamGame, rng: SplitMix64) -> TeamProfile:
    return TeamProfile(
        tuple(MixedStrategy(rng.simplex_point(m)) for m in game.team_sizes)
    )


def _check_ascent(restarts: int, init: TeamProfile | str, **_) -> None:
    """iterated_lp's range and choice rules."""
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if isinstance(init, str) and init not in ("random", "uniform"):
        raise ValueError(f"init must be 'random' or 'uniform', got {init!r}")


def iterated_lp(
    game: TeamGame,
    init: TeamProfile | str = "random",
    restarts: int = 10,
    seed: int = 0,
    timeout: float | None = DEFAULT_TIMEOUT,
    *,
    correlated_bound: float | None = None,
) -> SolveReport:
    """Alternating best-response LP ascent over team members.

    Per round, every member's best worst-case response against the fixed
    others is taken; only the member with the largest achievable value is
    replaced (ties to the lowest member index), so the current value never
    decreases. A round that cannot improve the value by IMPROVEMENT_TOL
    leaves the profile untouched and ends the restart.

    A member's best-response LP ignores its own strategy, so the mover's
    response stays valid after its move: the first round of a restart solves
    one LP per member, each later round one per member whose teammates
    moved, i.e. num_team_members - 1. The results are those of re-solving
    every member each round, bit for bit.

    init selects the first restart's profile: "uniform", "random", or an
    explicit TeamProfile. Later restarts always start from a random point
    of the flat simplex distribution, drawn from per-restart streams spawned
    off `seed`, so results do not depend on scheduling.

    The report's lower bound is the best value across restarts; its upper
    bound is v_C (_correlated_bound), solved once the ascent is done unless
    the caller passes it as correlated_bound. That keyword is keyword-only,
    so SOLVERS leaves it out: global_optimize passes its root's v_C down, so
    that one run solves the correlated LP once.
    iterations counts rounds summed over restarts. converged is False if the
    timeout cut work short or some restart hit MAX_ROUNDS while still
    improving.
    """
    _check_ascent(restarts, init)
    start = time.perf_counter()
    deadline = _deadline(start, timeout)
    master = SplitMix64(seed)
    num_members = game.num_team_members
    best_value = -math.inf
    best_profile = None
    traces: list[tuple[float, ...]] = []
    total_rounds = 0
    converged = True
    timed_out = False
    for r in range(restarts):
        rng = master.spawn(r)
        if r == 0 and isinstance(init, TeamProfile):
            profile = init
        elif r == 0 and init == "uniform":
            profile = uniform_profile(game)
        else:
            profile = _random_profile(game, rng)
        value = team_value(game, profile).value
        trace = [value]
        settled = False
        # member i's (value, mixture) best response to the current profile,
        # None until solved; it depends only on i's teammates
        responses: list[tuple[float, np.ndarray] | None] = [None] * num_members
        for _ in range(MAX_ROUNDS):
            if time.perf_counter() > deadline:
                timed_out = True
                break
            total_rounds += 1
            round_best = -math.inf
            round_member = -1
            for i in range(num_members):
                if responses[i] is None:
                    responses[i] = solve_maxmin(member_payoff_matrix(game, profile, i))
                if responses[i][0] > round_best:
                    round_best, round_member = responses[i][0], i
            if round_best - value < IMPROVEMENT_TOL:
                settled = True
                break
            strategies = list(profile)
            strategies[round_member] = MixedStrategy(responses[round_member][1])
            profile = TeamProfile(tuple(strategies))
            value = round_best
            trace.append(value)
            # the mover's LP ignores its own strategy, so only its response
            # stays valid
            responses = [
                r if i == round_member else None for i, r in enumerate(responses)
            ]
        traces.append(tuple(trace))
        if value > best_value:
            best_value, best_profile = value, profile
        if not settled:
            # a restart cut short by the timeout is not settled either
            converged = False
        if timed_out:
            break
    if correlated_bound is None:
        correlated_bound = _correlated_bound(game)
    return SolveReport(
        lower_bound=best_value,
        upper_bound=max(correlated_bound, best_value),
        correlated_bound=correlated_bound,
        witness=best_profile,
        iterations=total_rounds,
        wall_time=time.perf_counter() - start,
        converged=converged,
        traces=tuple(traces),
    )


# ---------------------------------------------------------------------------
# grid search and the certified brute-force oracle

# entries of the largest member grid or folded tensor the grid search builds
_MAX_MATERIALIZED = 12_000_000
# entries of one chunk's candidate payoffs against a single adversary action:
# 2 MB of float64, so that the running minimum over the adversary stays in
# a 4 MiB L2 cache
_CHUNK_ENTRIES = 262_144


def _composition_grid(steps: int, parts: int) -> np.ndarray:
    """Every nonnegative integer vector of length `parts` summing to `steps`,
    one per row, in reverse lexicographic order: the action counts of the
    multisets of size steps, in the order itertools.combinations_with_replacement
    lists them."""
    grid = np.zeros((1, 0), dtype=np.int64)
    left = np.array([steps])
    for _ in range(parts - 1):
        # each row branches into one child per next count left, left - 1, ..., 0
        width = left + 1
        starts = np.repeat(np.cumsum(width) - width, width)
        left = np.repeat(left, width)
        head = left - (np.arange(left.size) - starts)
        grid = np.column_stack([np.repeat(grid, width, axis=0), head])
        left -= head
    return np.column_stack([grid, left])


def _grid_counts(sizes, steps: int) -> list[int]:
    """The number of mixtures in each member's grid with `steps` steps."""
    return [math.comb(steps + m - 1, m - 1) for m in sizes]


def _score_rows(
    block: np.ndarray, folded: np.ndarray, worst: np.ndarray, spare: np.ndarray
) -> None:
    """Writes into `worst` the worst-case value of every candidate in
    `block`'s rows of member 0's grid: block times the folded tensor's
    matrix of one adversary action at a time, under a running minimum kept
    through `spare`."""
    np.matmul(block, folded[:, 0], out=worst)
    for c in range(1, folded.shape[1]):
        np.matmul(block, folded[:, c], out=spare)
        np.minimum(worst, spare, out=worst)


def _grid_search(
    game: TeamGame, steps: int, deadline: float = math.inf
) -> tuple[float, TeamProfile, int]:
    """Best worst-case value over every profile of grid mixtures.

    Member i's grid holds every mixture with probabilities in units of
    1/steps, in reverse lexicographic order of the action counts, which is
    the order itertools.combinations_with_replacement lists the action
    multisets of size steps. Candidates are the cross product of the grids
    in product order, member 0 outermost. Returns the largest worst-case
    value among them, the first candidate (lowest product index) with that
    value, and the number of candidates covered: scored exactly, or ruled
    out by the bound below, so all of them when the search finishes. The
    result is that of scoring every candidate and keeping the first best
    one, bit for bit.

    Members last..1 are folded into the tensor once, leaving one
    (m_0, P) matrix per adversary action, P the candidates per row of
    member 0's grid. A chunk of member 0's rows is scored by _score_rows,
    into (rows, P) slices of about _CHUNK_ENTRIES entries; two such slices
    are reused for every chunk and for the bound's temporaries.

    The search is a branch and bound over the rows of member 0's grid.
    Call row x's best value g(x): the max over the other members' grid
    points of the min over the adversary of x times the folded payoffs.
    Every folded payoff vector h has entries in the tensor's range
    [lo, hi], and for mixtures x, x' (x - x').h = (x - x').(h - (lo + hi) / 2),
    so x.h is (hi - lo) / 2-Lipschitz in the L1 norm; mins and maxes keep
    the constant, so g has it too. A scored row p thus bounds every row r
    by g(p) + (hi - lo) / 2 * |x_r - x_p|_1, the pruning rule of Lipschitz
    global optimisation (Shubert, SIAM J. Numer. Anal. 1972):

    * probe: every isqrt(rows)-th row, row 0 first, is scored in chunks;
    * bound: every other row gets the least of the probes' bounds;
    * best-first: those rows are scored in decreasing order of their
      bound, a chunk at a time, and the search stops once the next bound
      is below the best value less a margin of 1e-9 * max(1, |lo|, |hi|),
      far above the rounding of these sums. The rows left over cannot
      reach the best value, and count as covered.

    The bound is skipped, and every row scored in order, when
    probes * m_0 >= P * m_adv, as on one-member games (P = 1). That cutoff
    is measured, not derived: bounding a row takes about m_0 passes over
    its probes, while the matmul and minimum that score it grow with
    P * m_adv but hardly with m_0. On 19 one- and two-member games of 5,000
    to 500,000 rows (a 2-vCPU Xeon, one BLAS thread), scoring every row was
    1.7 to 55 times faster wherever probes * m_0 >= P * m_adv; where
    P * m_adv was 1.4 to 1.9 times probes * m_0 the two were within a third
    of each other, and from 3.3 times up the branch and bound won.

    The clock is read before every chunk but the first, and before every
    slice of the bound phase: a chunk that ends after `deadline` (a
    time.perf_counter() reading) is the last one scored, and a search cut
    short reports the candidates scored as covered. Raises
    CapacityError before building a member grid or a folded tensor of more
    than _MAX_MATERIALIZED entries.
    """
    sizes = game.team_sizes
    members = len(sizes)
    counts = _grid_counts(sizes, steps)
    largest = max(c * m for c, m in zip(counts, sizes))
    folded_size = game.team_utility.size
    for i in range(members - 1, 0, -1):
        folded_size = folded_size // sizes[i] * counts[i]
        largest = max(largest, folded_size)
    if largest > _MAX_MATERIALIZED:
        raise CapacityError(
            f"a grid of {largest} entries exceeds the cap of {_MAX_MATERIALIZED}"
        )
    grids = [_composition_grid(steps, m) / steps for m in sizes]
    # fold members last..1, leaving axes (m_0, m_adv, P_last, ..., P_1), and
    # put the grid axes in member order so that candidates flatten into
    # (m_0, m_adv, P) in product order
    folded = game.team_utility
    for i in range(members - 1, 0, -1):
        folded = np.tensordot(folded, grids[i].T, axes=([i], [0]))
    per_row = math.prod(counts[1:])
    folded = np.ascontiguousarray(
        folded.transpose(0, 1, *range(members, 1, -1))
    ).reshape(sizes[0], game.adversary_size, per_row)
    rows = counts[0]
    chunk_rows = min(rows, max(1, _CHUNK_ENTRIES // per_row))
    stride = math.isqrt(rows)
    probes = -(-rows // stride)
    if probes * sizes[0] >= per_row * game.adversary_size:
        # the measured cutoff of the docstring: score every row in order
        stride, probes = 1, rows
    slice_entries = chunk_rows * per_row
    if stride > 1:
        # the bound's (rows, probes) temporaries reuse the two slices
        slice_entries = max(slice_entries, probes)
    worst_buffer = np.empty(slice_entries)
    spare_buffer = np.empty(slice_entries)
    best_value = -math.inf
    best_index = 0
    scored = 0

    def visit(chosen: np.ndarray) -> np.ndarray:
        """Scores rows `chosen` of member 0's grid, keeps the best candidate
        and returns each row's best value."""
        nonlocal best_value, best_index, scored
        worst = worst_buffer[: len(chosen) * per_row].reshape(len(chosen), per_row)
        spare = spare_buffer[: worst.size].reshape(worst.shape)
        _score_rows(grids[0][chosen], folded, worst, spare)
        scored += worst.size
        row_best = worst.max(axis=1)
        top = row_best.max()
        # chunks come out of order: among equal values, the lowest index
        ties = np.flatnonzero(row_best == top)
        k = ties[np.argmin(chosen[ties])]
        index = int(chosen[k]) * per_row + int(np.argmax(worst[k]))
        if top > best_value or (top == best_value and index < best_index):
            best_value, best_index = float(top), index
        return row_best

    def result(covered: int) -> tuple[float, TeamProfile, int]:
        choice = np.unravel_index(best_index, counts)
        witness = TeamProfile(
            tuple(MixedStrategy(grids[i][c]) for i, c in enumerate(choice))
        )
        return best_value, witness, covered

    # each probe's best value, kept only when the bound uses them
    anchors = np.empty(probes if stride > 1 else 0)
    for start in range(0, probes, chunk_rows):
        if start and time.perf_counter() > deadline:
            return result(scored)
        chosen = np.arange(start, min(start + chunk_rows, probes)) * stride
        row_best = visit(chosen)
        if stride > 1:
            anchors[start : start + len(chosen)] = row_best
    if stride == 1:
        return result(rows * per_row)

    lo = float(game.team_utility.min())
    hi = float(game.team_utility.max())
    lipschitz = (hi - lo) / 2.0
    margin = 1e-9 * max(1.0, abs(lo), abs(hi))
    rest = np.flatnonzero(np.arange(rows) % stride)
    # |x - p|_1 = 2 - 2 sum_a min(x_a, p_a) on the simplex, so the bound
    # is min_p (anchor_p + 2 L - 2 L sum_a min(x_a, p_a))
    points = grids[0][:rows:stride]
    offsets = anchors + 2.0 * lipschitz
    bound = np.empty(rest.size)
    slice_rows = slice_entries // probes
    for start in range(0, rest.size, slice_rows):
        if time.perf_counter() > deadline:
            return result(scored)
        block = grids[0][rest[start : start + slice_rows]]
        overlap = worst_buffer[: len(block) * probes].reshape(len(block), probes)
        term = spare_buffer[: overlap.size].reshape(overlap.shape)
        np.minimum(block[:, :1], points[:, 0], out=overlap)
        for a in range(1, sizes[0]):
            np.minimum(block[:, a : a + 1], points[:, a], out=term)
            overlap += term
        overlap *= -2.0 * lipschitz
        overlap += offsets
        overlap.min(axis=1, out=bound[start : start + len(block)])

    order = np.argsort(-bound, kind="stable")
    rest, bound = rest[order], bound[order]
    start = 0
    while start < rest.size and bound[start] >= best_value - margin:
        if time.perf_counter() > deadline:
            return result(scored)
        # the chunk's rows whose bound still reaches the best value less the
        # margin: a prefix, since the bounds decrease
        end = start + int(
            np.searchsorted(
                -bound[start : start + chunk_rows], margin - best_value, side="right"
            )
        )
        visit(rest[start:end])
        start = end
    return result(rows * per_row)


def _check_oracle(target_error: float) -> None:
    """grid_oracle's range rules."""
    if not target_error > 0:
        raise ValueError(f"target_error must be positive, got {target_error}")


def grid_oracle(
    game: TeamGame, target_error: float = 0.01, timeout: float | None = DEFAULT_TIMEOUT
) -> OracleEstimate:
    """Exact search over per-member probability grids.

    Requires payoffs in [0, 1]. Finds the best combination of grid mixtures
    (k equal steps per member) through _grid_search, which scores only the
    rows of member 0's grid that its Lipschitz bound cannot rule out and
    returns what scoring every combination would; the best value found is
    a valid lower bound. Rounding any optimal profile onto the grid loses
    at most error_bound = _grid_radius(game) / k, so the true value lies
    within [value, value + error_bound], and k = ceil(radius / target_error)
    keeps error_bound <= target_error. The proof, with payoffs in [lo, hi]:

    * fix the other members and one adversary action: the payoff is linear
      in one member's mixture with coefficients in [lo, hi], so it is
      (hi - lo) / 2-Lipschitz in L1;
    * the minimum over the adversary keeps that constant;
    * summed over the members, rounding each one loses at most radius / k.

    The step count k is rounded up to a multiple of lcm(team sizes) when
    that at most doubles it, which puts the uniform profile on the grid. A
    grid too large to materialize raises CapacityError before any search,
    as does a step count too large for a float.

    timeout is the one stop rule: the sweep reads the clock between chunks
    of candidates, as support_enumeration does, and one it cuts short
    certifies nothing (error_bound inf). evaluations counts the candidates
    covered, as support_enumeration's iterations does.
    """
    _require_normalized(game, "grid_oracle")
    _check_oracle(target_error)
    deadline = _deadline(time.perf_counter(), timeout)
    team_sizes = game.team_sizes
    radius = _grid_radius(game)
    k = _grid_steps(radius, target_error, "target_error", target_error)
    scale = math.lcm(*team_sizes)
    snapped = -(-k // scale) * scale
    if snapped <= 2 * k:
        k = snapped
    total = math.prod(_grid_counts(team_sizes, k))
    value, witness, covered = _grid_search(game, k, deadline)
    return OracleEstimate(
        value=value,
        error_bound=radius / k if covered == total else math.inf,
        witness=witness,
        resolution=k,
        evaluations=covered,
    )


# ---------------------------------------------------------------------------
# global anytime bounds


def _node_factors(team_sizes: tuple[int, ...]) -> list[tuple]:
    """What a node's rows take from the team's action counts, built once per
    run. For each member: its slice of a box vector lo or hi (every
    member's action intervals, member 0's first), its block [1^T; I; -I],
    and the rows of the product of the members before it and of its block
    that make each candidate row up to it, in C order. The candidates are
    the products of every degree if their prod(1 + 2 m_i) - 1 rows times
    prod(m_i) joint actions are at most _MAX_MATERIALIZED, else those of
    degree 1 and 2."""
    sizes = [1 + 2 * m for m in team_sizes]
    entries = (math.prod(sizes) - 1) * math.prod(team_sizes)
    most = len(team_sizes) if entries <= _MAX_MATERIALIZED else 2
    start, degrees, factors = 0, np.zeros(1, dtype=int), []
    for m, size in zip(team_sizes, sizes):
        above, here = np.divmod(np.arange(degrees.size * size), size)
        degrees = degrees[above] + (here > 0)
        keep = degrees <= most
        degrees = degrees[keep]
        block = np.concatenate((np.ones((1, m)), np.eye(m), -np.eye(m)))
        factors.append((slice(start, start + m), block, above[keep], here[keep]))
        start += m
    return factors


def _node_rows(factors: list[tuple], lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Rows F of a branch-and-bound node's relaxation: F z >= 0 holds for
    the joint distribution z, indexed by joint team action in C order as
    the rows of to_joint_game, of every team profile inside the box lo, hi.
    factors is _node_factors(team_sizes).

    Every row is a product of bound factors, at most one per member (the
    Reformulation-Linearization Technique: Sherali & Adams, SIAM J.
    Discrete Math. 1990; the team's payoff is multilinear). Member i's
    block B_i = [1^T; I - l 1^T; u 1^T - I] holds, per action a, the member
    absent (1), the factor d_a - l_a or the factor u_a - d_a, d_a = 1 where
    i plays a. The rows are F = B_0 kron ... kron B_{k-1} without its first
    row (every member absent), each entry its factors multiplied in member
    order. They hold because a product of factors that are nonnegative on
    the box is nonnegative at every point of it, so its expectation under a
    profile in the box is too; and the rows of full degree force z to be
    the product of its marginals at a point box, so the bound closes on the
    value there. Degree 1 is the marginal rows and degree 2 the McCormick
    envelopes of every pair marginal. A row without a negative entry is
    implied by z >= 0 and left out: for two members, a marginal row on a
    low of 0 or a high of 1, and an envelope that is a Frechet bound.
    """
    product = np.ones((1, 1))
    for k, block, above, here in factors:
        block = block + np.concatenate(([0.0], -lo[k], hi[k]))[:, None]
        product = product[above][:, :, None] * block[here][:, None, :]
        product = product.reshape(above.size, -1)
    product = product[1:]
    return product[(product < 0.0).any(axis=1)]


def _tighten_box(lo: np.ndarray, hi: np.ndarray) -> None:
    """Shrink one member's box lo, hi, which meets its simplex, in place to
    the least box around their intersection: each high drops to 1 less the
    other lows, then each low rises to 1 less the other highs. One pass is
    exact: each bound becomes the greatest or least value its coordinate
    takes on box and simplex (the others at their lows, then at their new
    highs), so a second pass moves only rounding, and both halves of a
    midpoint split still meet the simplex."""
    np.minimum(hi, 1.0 - (lo.sum() - lo), out=hi)
    np.maximum(lo, 1.0 - (hi.sum() - hi), out=lo)


def _check_global(accuracy: float, max_nodes: int) -> None:
    """global_optimize's range rules."""
    if not accuracy > 0:
        raise ValueError(f"accuracy must be positive, got {accuracy}")
    if max_nodes < 0:
        raise ValueError(f"max_nodes must be nonnegative, got {max_nodes}")


def global_optimize(
    game: TeamGame,
    accuracy: float = 1e-6,
    timeout: float | None = DEFAULT_TIMEOUT,
    max_nodes: int = 20_000,
) -> SolveReport:
    """Anytime bracket of the team-maxmin value for normalized games.

    Starts from reconstruct_best_pivot's bracket: the correlated upper
    bound and its best-pivot reconstruction (timeout 0 returns exactly
    those). With time left it sharpens the lower bound by iterated
    LP ascent, which is handed the root's v_C instead of solving the
    correlated LP again, then refines the upper bound by best-first branch
    and bound: the team strategy box is split on the widest coordinate
    interval and each box is bounded by the correlated relaxation
    restricted to it, pruning boxes that cannot beat the incumbent. Each
    member's box is cut to its simplex (_tighten_box) at the root, and
    after a split only the split member's: the others stay exact, and
    neither half is empty. A box whose widest interval is at most
    max(accuracy / 1000, 1e-12), or that is MAX_DEPTH splits per team
    member deep, is not split again: its bound stays in the upper bound.
    Bounds are valid whenever it stops; converged means the bracket width
    reached `accuracy`. Each node LP is build_maxmin_lp with the node's
    rows F (_node_rows): the correlated relaxation over joint team
    strategies z, cut down by F z >= 0, where
    each row of F is a product of per-member bound factors that is
    nonnegative on the box and not implied by z >= 0. That is every degree
    up to the team's size when the candidate rows times the joint actions
    fit in _MAX_MATERIALIZED entries, and degrees 1 and 2 (marginal rows
    and pair envelopes) otherwise. It is the packing LP with one row per
    joint team action and one column per row of F, solved in one simplex
    run from its slack basis. A box's bound is the smaller of its parent's
    and the one that check_maxmin reads off the LP's dual certificate
    (y, lam): every z with F z >= 0 earns at most max_r (M y + F^T lam)_r,
    by weak duality, whether or not the simplex reached the optimum. A
    node LP that raises LpSolveError leaves its box the parent's bound,
    which holds it because the box lies inside the parent's; so does one
    stopped at the deadline (LpDeadlineError). The product of the joint
    mixture's marginals (JointDistribution.marginal) is a team profile in
    the box, evaluated as a lower bound unless the box's bound
    plus BOUND_SLACK is at most the incumbent, which no point of the box
    can then beat. A timeout of None sets no deadline. The ascent is
    iterated_lp with 8 restarts from seed 0, given half the time left; the
    report's traces are its traces, none when it did not run.
    """
    _require_normalized(game, "global_optimize")
    _check_global(accuracy, max_nodes)
    start = time.perf_counter()
    deadline = _deadline(start, timeout)
    root = reconstruct_best_pivot(game, timeout=None)
    lower, upper, witness = root.lower_bound, root.upper_bound, root.witness
    nodes = 0
    traces = ()

    def done() -> bool:
        return upper - lower <= accuracy or time.perf_counter() > deadline

    if not done():
        remaining = deadline - time.perf_counter()
        ascent = iterated_lp(
            game,
            restarts=8,
            seed=0,
            timeout=max(remaining * 0.5, 0.0),
            correlated_bound=root.correlated_bound,
        )
        traces = ascent.traces
        if ascent.lower_bound > lower:
            lower, witness = ascent.lower_bound, ascent.witness

    if not done():
        matrix = to_joint_game(game)
        members = game.num_team_members
        factors = _node_factors(game.team_sizes)
        # each box entry's member's slice
        owners = [k for k, *_ in factors for _ in range(k.stop - k.start)]
        lo, hi = np.zeros(len(owners)), np.ones(len(owners))
        for k, *_ in factors:
            _tighten_box(lo[k], hi[k])
        counter = itertools.count()
        heap = [(-upper, next(counter), 0, lo, hi)]
        resolved = lower
        while True:
            top = -heap[0][0] if heap else -math.inf
            upper = min(upper, max(lower, top, resolved))
            if (
                not heap
                or nodes >= max_nodes
                or upper - lower <= accuracy
                or time.perf_counter() > deadline
            ):
                break
            _, _, depth, lo, hi = heapq.heappop(heap)
            if top <= lower:
                continue
            nodes += 1
            # split the widest interval, ties to the lowest member and action
            widths = hi - lo
            widest = int(widths.argmax())
            width = float(widths[widest])
            if width <= max(accuracy * 1e-3, 1e-12) or depth >= MAX_DEPTH * members:
                resolved = max(resolved, top)
                continue
            mid = lo[widest] + width / 2.0
            k = owners[widest]
            for half in (0, 1):
                child_lo, child_hi = lo.copy(), hi.copy()
                if half == 0:
                    child_hi[widest] = mid
                else:
                    child_lo[widest] = mid
                _tighten_box(child_lo[k], child_hi[k])
                # the correlated relaxation cut down to the box by its
                # products of bound factors
                rows = _node_rows(factors, child_lo, child_hi)
                # the child's box lies inside its parent's, so the parent's
                # bound holds it too
                try:
                    solution = solve_lp(build_maxmin_lp(matrix, rows), deadline)
                    certified, probs = check_maxmin(matrix, solution, rows)
                    bound = min(top, certified)
                except LpSolveError:
                    bound, probs = top, None
                # the probe is a point of the box, worth at most its bound
                # up to rounding
                if probs is not None and bound + BOUND_SLACK > lower:
                    joint = JointDistribution(game.team_sizes, probs)
                    marginals = [joint.marginal(i) for i in range(members)]
                    probe = TeamProfile(
                        tuple(MixedStrategy(p / p.sum()) for p in marginals)
                    )
                    probe_value = team_value(game, probe).value
                    if probe_value > lower:
                        lower, witness = probe_value, probe
                if bound > lower:
                    heapq.heappush(
                        heap,
                        (-bound, next(counter), depth + 1, child_lo, child_hi),
                    )

    upper = max(upper, lower)
    return SolveReport(
        lower_bound=lower,
        upper_bound=upper,
        correlated_bound=root.correlated_bound,
        witness=witness,
        iterations=nodes,
        wall_time=time.perf_counter() - start,
        converged=upper - lower <= accuracy,
        traces=traces,
    )


# ---------------------------------------------------------------------------
# registry


def _entry(function, check) -> tuple:
    """A SOLVERS entry: the function's name, its parameters and check."""
    parameters = list(inspect.signature(function).parameters.values())[1:]
    return (
        function.__name__,
        {
            p.name: (type(p.default), p.default)
            for p in parameters
            if p.kind is p.POSITIONAL_OR_KEYWORD and p.name != "timeout"
        },
        check,
    )


# name -> (function name, parameters, check). The parameters are read off
# the solver function's signature, the one place they are declared: those
# after `game` that may be passed by position or keyword, timeout aside,
# each mapped to (type(default), default). run_solver calls the function by
# its module-level name, so that a wrapper installed on that name sees the
# call. check takes the parameters and raises ValueError for a value out of
# range or not among the choices; the solver runs the same check.
SOLVERS = {
    "reconstruct": _entry(reconstruct_best_pivot, lambda: None),
    "support-enum": _entry(support_enumeration, _check_enumeration),
    "iterated-lp": _entry(iterated_lp, _check_ascent),
    "global": _entry(global_optimize, _check_global),
    "oracle": _entry(grid_oracle, _check_oracle),
}
SOLVER_NAMES = tuple(SOLVERS)


def solver_params(name: str, params: dict) -> dict:
    """The named solver's keyword parameters: its defaults updated by
    `params`. Raises ValueError for an unknown solver, and ValueError
    prefixed with the solver's name (solver 'global': ...) if params is not
    a dict, names a parameter the solver does not take, or gives one a
    value that check_type or the solver's check rejects."""
    if name not in SOLVERS:
        raise ValueError(f"unknown solver {name!r}, expected one of {SOLVER_NAMES}")
    _, accepted, check = SOLVERS[name]
    try:
        check_type("params", params, dict)
        unknown = sorted(set(params) - set(accepted))
        if unknown:
            raise ValueError(
                f"does not take {', '.join(unknown)}; "
                f"it accepts {', '.join(accepted) or 'no parameters'}"
            )
        resolved = {key: default for key, (_, default) in accepted.items()}
        for key, value in params.items():
            resolved[key] = check_type(key, value, accepted[key][0])
        check(**resolved)
    except ValueError as exc:
        raise ValueError(f"solver {name!r}: {exc}") from None
    return resolved


def run_solver(
    name: str, game: TeamGame, timeout: float | None = DEFAULT_TIMEOUT, **params
) -> SolveReport:
    """Run a solver by registry name with keyword parameters.

    Used by the command line and the experiment harness; every solver comes
    back as a SolveReport so downstream code never cares which one ran.
    grid_oracle's estimate becomes _grid_report's: its upper bound is the
    lesser of v_C and value + error_bound, which is inf for a sweep cut
    short, and its wall_time runs from this call. Unknown names and
    parameters, values of the wrong type, out of range or not among the
    choices, and a timeout that is negative or NaN raise ValueError; a
    timeout of None sets no limit.
    """
    resolved = solver_params(name, params)
    start = time.perf_counter()
    result = globals()[SOLVERS[name][0]](game, timeout=timeout, **resolved)
    if isinstance(result, SolveReport):
        return result
    return _grid_report(
        game,
        result.value,
        result.error_bound,
        result.witness,
        result.evaluations,
        start,
    )
