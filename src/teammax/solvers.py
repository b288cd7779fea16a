"""Solvers and bounds for the team-maxmin value.

Exact solution is NP-hard and the optimum can be irrational, so everything
here reports certified brackets instead of pretending to be exact:

* correlated_team_maxmin: LP over joint team actions, an upper bound.
* reconstruct_mixed / reconstruct_best_pivot: independent profile recovered
  from the correlated optimum, a lower bound with a multiplicative
  guarantee.
* support_enumeration: additive epsilon guarantee by searching every
  profile of discretized mixtures (exponential work, budget-capped).
* iterated_lp: alternating best-response LP ascent with random restarts,
  a monotone anytime lower bound.
* global_optimize: anytime lower/upper bracket combining the above with a
  branch-and-bound refinement of the correlated relaxation.
* grid_oracle: brute-force grid search with a certified additive error,
  for tiny games only.
"""

from __future__ import annotations

import heapq
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
    team_value,
    to_joint_game,
    uniform_profile,
)
from .lp import (
    build_maxmin_lp,
    check_maxmin,
    member_payoff_matrix,
    solve_lp,
    solve_maxmin,
)
from .rng import SplitMix64

DEFAULT_TIMEOUT = 3600.0
BOUND_SLACK = 1e-7


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Certified bracket [lower_bound, upper_bound] for the team-maxmin
    value, with the profile realizing the lower bound.

    traces holds, per restart of an iterative solver, the sequence of
    accepted objective values (non-decreasing within each restart).
    """

    lower_bound: float
    upper_bound: float
    witness: TeamProfile | None
    iterations: int
    restarts_used: int
    wall_time: float
    converged: bool
    traces: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self):
        if self.lower_bound > self.upper_bound + BOUND_SLACK:
            raise ValueError(
                f"lower bound {self.lower_bound} exceeds upper bound "
                f"{self.upper_bound}"
            )
        if self.iterations < 0 or self.restarts_used < 0 or self.wall_time < 0:
            raise ValueError("counters must be nonnegative")


@dataclass(frozen=True, eq=False)
class OracleEstimate:
    """Brute-force estimate with one-sided certification: the true
    team-maxmin value lies in [value, value + error_bound]."""

    value: float
    error_bound: float
    witness: TeamProfile
    resolution: int
    evaluations: int

    @property
    def certified_interval(self) -> tuple[float, float]:
        return (self.value, self.value + self.error_bound)


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
            strategies.append(MixedStrategy(i, dist.marginal(i)))
        else:
            support = dist.support(i)
            probs = np.zeros(game.team_sizes[i])
            probs[support] = 1.0 / support.size
            strategies.append(MixedStrategy(i, probs))
    return TeamProfile(tuple(strategies))


def _best_reconstruction(
    game: TeamGame, dist: JointDistribution
) -> tuple[float, TeamProfile]:
    best_value = -math.inf
    best_profile = None
    for pivot in range(game.num_team_members):
        profile = reconstruct_mixed(dist, game, pivot)
        value = team_value(game, profile).value
        if value > best_value:
            best_value, best_profile = value, profile
    return best_value, best_profile


def reconstruct_best_pivot(game: TeamGame) -> SolveReport:
    """Correlated LP once, then the best reconstruction over all pivots.

    Ties between pivots keep the lowest pivot index.
    """
    start = time.perf_counter()
    dist, correlated_value = correlated_team_maxmin(game)
    best_value, best_profile = _best_reconstruction(game, dist)
    return SolveReport(
        lower_bound=best_value,
        upper_bound=max(correlated_value, best_value),
        witness=best_profile,
        iterations=game.num_team_members,
        restarts_used=0,
        wall_time=time.perf_counter() - start,
        converged=True,
    )


# ---------------------------------------------------------------------------
# support enumeration


@dataclass(frozen=True)
class EnumerationParams:
    """Discretization of the additive-epsilon enumeration.

    Every member's mixture is restricted to action multisets of cardinality
    multiset_size (probabilities in units of 1/multiset_size); the size
    grows with ln(m)/(2 epsilon^2) where m is the largest team-member action
    count.
    """

    epsilon: float
    multiset_size: int

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if self.multiset_size < 1:
            raise ValueError("multiset size must be at least 1")

    @classmethod
    def for_game(cls, game: TeamGame, epsilon: float) -> "EnumerationParams":
        if not 0.0 < epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
        m = game.max_team_actions
        size = max(1, math.ceil(math.log(m) / (2.0 * epsilon * epsilon)))
        return cls(epsilon=epsilon, multiset_size=size)

    def candidates_per_member(self, num_actions: int) -> int:
        return math.comb(num_actions + self.multiset_size - 1, self.multiset_size)

    def total_candidates(self, game: TeamGame) -> int:
        return math.prod(self.candidates_per_member(m) for m in game.team_sizes)


def _require_normalized(game: TeamGame, who: str) -> None:
    lo = float(game.team_utility.min())
    hi = float(game.team_utility.max())
    if lo < -1e-12 or hi > 1.0 + 1e-12:
        raise ValueError(
            f"{who} requires payoffs normalized to [0, 1], "
            f"got range [{lo}, {hi}]; apply normalize_payoffs first"
        )


def support_enumeration(
    game: TeamGame,
    epsilon: float,
    budget: int | None = None,
    upper_bound: float | None = None,
) -> SolveReport:
    """Additive epsilon-approximation by enumerating discretized mixtures.

    Requires payoffs in [0, 1]. Every member mixes over the action
    multisets of the prescribed cardinality; _grid_search scores every
    profile of such mixtures exactly and keeps the first best one. When it
    runs to completion the lower bound is within epsilon of the team-maxmin
    value.

    budget caps the number of candidate profiles visited; hitting the cap
    reports converged=False with the best bracket so far. iterations in the
    report is the exact number of candidates visited.
    """
    _require_normalized(game, "support_enumeration")
    if budget is not None and budget < 1:
        raise ValueError("budget must be at least 1")
    start = time.perf_counter()
    params = EnumerationParams.for_game(game, epsilon)
    total = params.total_candidates(game)
    visited = total if budget is None else min(budget, total)
    best_value, witness = _grid_search(game, params.multiset_size, visited)
    cap = 1.0 if upper_bound is None else min(1.0, upper_bound)
    return SolveReport(
        lower_bound=best_value,
        upper_bound=cap,
        witness=witness,
        iterations=visited,
        restarts_used=0,
        wall_time=time.perf_counter() - start,
        converged=visited == total,
    )


# ---------------------------------------------------------------------------
# iterated LP ascent


def _random_profile(game: TeamGame, rng: SplitMix64) -> TeamProfile:
    return TeamProfile(
        tuple(
            MixedStrategy(i, rng.simplex_point(m))
            for i, m in enumerate(game.team_sizes)
        )
    )


def iterated_lp(
    game: TeamGame,
    init: TeamProfile | str = "random",
    restarts: int = 1,
    seed: int = 0,
    timeout: float | None = DEFAULT_TIMEOUT,
    max_rounds: int = 1000,
    improvement_tol: float = 1e-9,
) -> SolveReport:
    """Alternating best-response LP ascent over team members.

    Per round, every member's best worst-case response against the fixed
    others is taken; only the member with the largest achievable value is
    replaced (ties to the lowest member index), so the current value never
    decreases. A round that cannot improve the value by improvement_tol
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

    The report's lower bound is the best value across restarts; the trivial
    upper bound is the largest payoff entry. iterations counts rounds summed
    over restarts. converged is False if the timeout cut work short or some
    restart hit max_rounds while still improving.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    if isinstance(init, str) and init not in ("random", "uniform"):
        raise ValueError(f"unknown init {init!r}")
    start = time.perf_counter()
    deadline = math.inf if timeout is None else start + timeout
    master = SplitMix64(seed)
    num_members = game.num_team_members
    best_value = -math.inf
    best_profile = None
    traces: list[tuple[float, ...]] = []
    total_rounds = 0
    restarts_done = 0
    all_converged = True
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
        for _ in range(max_rounds):
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
            if round_best - value < improvement_tol:
                settled = True
                break
            strategies = list(profile)
            strategies[round_member] = MixedStrategy(
                round_member, responses[round_member][1]
            )
            profile = TeamProfile(tuple(strategies))
            value = round_best
            trace.append(value)
            # the mover's LP ignores its own strategy, so only its response
            # stays valid
            responses = [
                r if i == round_member else None for i, r in enumerate(responses)
            ]
        traces.append(tuple(trace))
        restarts_done += 1
        if value > best_value:
            best_value, best_profile = value, profile
        if not settled:
            all_converged = False
        if timed_out:
            break
    converged = all_converged and not timed_out and restarts_done == restarts
    return SolveReport(
        lower_bound=best_value,
        upper_bound=max(float(game.team_utility.max()), best_value),
        witness=best_profile,
        iterations=total_rounds,
        restarts_used=restarts_done,
        wall_time=time.perf_counter() - start,
        converged=converged,
        traces=tuple(traces),
    )


# ---------------------------------------------------------------------------
# grid search and the certified brute-force oracle

# entries of the largest member grid or folded tensor the grid search builds
_MAX_MATERIALIZED = 12_000_000
# entries of one chunk of candidate payoffs
_CHUNK_ENTRIES = 4_000_000


def _compositions(total: int, parts: int):
    """All nonnegative integer vectors of the given length summing to total,
    in reverse lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _grid_search(
    game: TeamGame, steps: int, budget: int
) -> tuple[float, TeamProfile]:
    """Best worst-case value over profiles of grid mixtures.

    Member i's grid holds every mixture with probabilities in units of
    1/steps, in reverse lexicographic order of the action counts, which is
    the order itertools.combinations_with_replacement lists the action
    multisets of size steps. Candidates are the cross product of the grids
    in product order, member 0 outermost; the first `budget` of them are
    scored exactly, and the first one with the best value is returned.

    Members last..1 are folded into the tensor once; chunks of member 0's
    grid are then contracted against it, minimized over the adversary and
    maximized. Raises CapacityError before building a member grid or a
    folded tensor of more than _MAX_MATERIALIZED entries.
    """
    sizes = game.team_sizes
    members = len(sizes)
    counts = [math.comb(steps + m - 1, m - 1) for m in sizes]
    largest = max(c * m for c, m in zip(counts, sizes))
    folded_size = game.team_utility.size
    for i in range(members - 1, 0, -1):
        folded_size = folded_size // sizes[i] * counts[i]
        largest = max(largest, folded_size)
    if largest > _MAX_MATERIALIZED:
        raise CapacityError(
            f"a grid of {largest} entries exceeds the cap of {_MAX_MATERIALIZED}"
        )
    grids = [
        np.asarray(list(_compositions(steps, m)), dtype=np.float64) / steps
        for m in sizes
    ]
    # fold members last..1, leaving axes (m_0, m_adv, P_last, ..., P_1), and
    # put the grid axes in member order so that candidates flatten in
    # product order
    folded = game.team_utility
    for i in range(members - 1, 0, -1):
        folded = np.tensordot(folded, grids[i].T, axes=([i], [0]))
    folded = np.ascontiguousarray(
        folded.transpose(0, 1, *range(members, 1, -1))
    )
    per_row = math.prod(counts[1:])
    chunk_rows = max(1, _CHUNK_ENTRIES // (folded.size // sizes[0]))
    best_value = -math.inf
    best_index = 0
    for offset in range(0, -(-budget // per_row), chunk_rows):
        block = grids[0][offset : offset + chunk_rows]
        # axis 1 is the adversary; minimize over it, then score the prefix
        worst = np.tensordot(block, folded, axes=([1], [0])).min(axis=1)
        worst = worst.reshape(-1)[: budget - offset * per_row]
        flat = int(np.argmax(worst))
        if worst[flat] > best_value:
            best_value = float(worst[flat])
            best_index = offset * per_row + flat
    choice = np.unravel_index(best_index, counts)
    witness = TeamProfile(
        tuple(MixedStrategy(i, grids[i][c]) for i, c in enumerate(choice))
    )
    return best_value, witness


def _rounding_constant(m: int) -> float:
    """max over integer r in [0, m-1] of 2 r (m - r) / m; the grid with k
    steps is within this / k in L1 distance of any point of the simplex."""
    best = 0.0
    for r in (m // 2, (m + 1) // 2):
        r = min(r, m - 1)
        best = max(best, 2.0 * r * (m - r) / m)
    return best


def grid_oracle(
    game: TeamGame,
    target_error: float,
    max_evaluations: int = 20_000_000,
) -> OracleEstimate:
    """Exhaustive search over per-member probability grids.

    Requires payoffs in [0, 1]. Evaluates every combination of grid mixtures
    (k equal steps per member) exactly, so the best value found is a valid
    lower bound; rounding any optimal profile onto the grid loses at most
    the certified error, so the true value lies within
    [value, value + error_bound] with error_bound <= target_error.

    The step count k is rounded up to a multiple of lcm(team sizes) when
    small, which puts the uniform profile on the grid. Intended for tiny
    games; anything needing more than max_evaluations combinations, or a
    grid too large to materialize, raises CapacityError.
    """
    _require_normalized(game, "grid_oracle")
    if target_error <= 0:
        raise ValueError("target_error must be positive")
    team_sizes = game.team_sizes
    members = len(team_sizes)
    constants = [_rounding_constant(m) for m in team_sizes]
    worst = max(constants)
    if worst == 0.0:
        k = 1
        error_bound = 0.0
    else:
        k = math.ceil(members * worst / target_error)
        scale = math.lcm(*team_sizes)
        if scale <= 512:
            k = ((k + scale - 1) // scale) * scale
        error_bound = members * worst / k
    total = math.prod(math.comb(k + m - 1, m - 1) for m in team_sizes)
    if total > max_evaluations:
        raise CapacityError(
            f"{total} grid combinations exceed the cap of {max_evaluations}"
        )
    value, witness = _grid_search(game, k, total)
    return OracleEstimate(
        value=value,
        error_bound=error_bound,
        witness=witness,
        resolution=k,
        evaluations=total,
    )


# ---------------------------------------------------------------------------
# global anytime bounds


def _box_products(parts: list[np.ndarray]) -> np.ndarray:
    out = np.ones(1)
    for vec in parts:
        out = np.multiply.outer(out, vec).reshape(-1)
    return out


def _tighten_box(los: list[np.ndarray], his: list[np.ndarray]) -> bool:
    """Intersect interval boxes with the probability simplex; returns False
    when the intersection is empty."""
    for _ in range(2):
        for lo, hi in zip(los, his):
            np.minimum(hi, 1.0 - (lo.sum() - lo), out=hi)
            np.maximum(lo, 1.0 - (hi.sum() - hi), out=lo)
            if np.any(lo > hi + 1e-12):
                return False
            if lo.sum() > 1.0 + 1e-9 or hi.sum() < 1.0 - 1e-9:
                return False
    return True


def _box_probe(game: TeamGame, probs: np.ndarray) -> TeamProfile:
    """Round a joint distribution to its product-of-marginals profile."""
    shaped = probs.reshape(game.team_sizes)
    strategies = []
    for i in range(game.num_team_members):
        axes = tuple(j for j in range(game.num_team_members) if j != i)
        marginal = shaped.sum(axis=axes)
        strategies.append(MixedStrategy(i, marginal / marginal.sum()))
    return TeamProfile(tuple(strategies))


def global_optimize(
    game: TeamGame,
    accuracy: float = 1e-6,
    budget: float = DEFAULT_TIMEOUT,
    seed: int = 0,
    restarts: int = 8,
    max_nodes: int = 20_000,
    max_depth: int = 64,
) -> SolveReport:
    """Anytime bracket of the team-maxmin value for normalized games.

    Always computes the correlated upper bound and its best-pivot
    reconstruction (budget 0 returns exactly those). With remaining budget
    it sharpens the lower bound by iterated LP ascent, then refines the
    upper bound by best-first branch and bound: the team strategy box is
    split on the widest coordinate interval and each box is bounded by the
    correlated relaxation restricted to it, pruning boxes that cannot beat
    the incumbent. Bounds are valid whenever it stops; converged means the
    bracket width reached `accuracy`. Each node LP is build_maxmin_lp with
    the node's box: the packing LP with one row per joint team action and
    a column for every joint probability whose low is positive or whose
    high is below 1, solved in one simplex run from its slack basis. Its
    bound is the worth of the LP's joint mixture, certified by
    check_maxmin with the adversary mixture that holds every joint
    strategy in the box to it, so a node LP that is not solved to
    optimality raises LpSolveError. The product of the joint mixture's
    marginals is a team profile, evaluated as a lower bound.
    """
    _require_normalized(game, "global_optimize")
    if accuracy <= 0:
        raise ValueError("accuracy must be positive")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    start = time.perf_counter()
    deadline = start + budget
    dist, correlated_value = correlated_team_maxmin(game)
    lower, witness = _best_reconstruction(game, dist)
    upper = max(correlated_value, lower)
    nodes = 0
    restarts_used = 0

    def done() -> bool:
        return upper - lower <= accuracy or time.perf_counter() > deadline

    if not done():
        remaining = deadline - time.perf_counter()
        ascent = iterated_lp(
            game,
            restarts=restarts,
            seed=seed,
            timeout=max(remaining * 0.5, 0.0),
        )
        restarts_used = ascent.restarts_used
        if ascent.lower_bound > lower:
            lower, witness = ascent.lower_bound, ascent.witness

    if not done():
        matrix = to_joint_game(game)
        members = game.num_team_members
        root_los = [np.zeros(m) for m in game.team_sizes]
        root_his = [np.ones(m) for m in game.team_sizes]
        counter = itertools.count()
        heap = [(-upper, next(counter), 0, root_los, root_his)]
        resolved = lower
        while heap and nodes < max_nodes:
            top_bound = -heap[0][0]
            upper = min(upper, max(lower, max(top_bound, resolved)))
            if upper - lower <= accuracy or time.perf_counter() > deadline:
                break
            _, _, depth, los, his = heapq.heappop(heap)
            if top_bound <= lower:
                continue
            nodes += 1
            # split the widest interval, ties to the lowest member and action
            widths = [hi - lo for lo, hi in zip(los, his)]
            member = max(range(members), key=lambda i: widths[i].max())
            action = int(np.argmax(widths[member]))
            width = float(widths[member][action])
            if width <= max(accuracy * 1e-3, 1e-12) or depth >= max_depth * members:
                resolved = max(resolved, top_bound)
                continue
            mid = los[member][action] + width / 2.0
            for half in (0, 1):
                child_los = [arr.copy() for arr in los]
                child_his = [arr.copy() for arr in his]
                if half == 0:
                    child_his[member][action] = mid
                else:
                    child_los[member][action] = mid
                if not _tighten_box(child_los, child_his):
                    continue
                # the correlated relaxation restricted to the box: product
                # strategies from the member boxes have joint probabilities
                # between the products of the interval endpoints
                lows = _box_products(child_los)
                highs = _box_products(child_his)
                bound, probs = check_maxmin(
                    matrix, solve_lp(build_maxmin_lp(matrix, lows, highs)), lows, highs
                )
                probe = _box_probe(game, probs)
                probe_value = team_value(game, probe).value
                if probe_value > lower:
                    lower, witness = probe_value, probe
                if bound > lower:
                    heapq.heappush(
                        heap,
                        (-bound, next(counter), depth + 1, child_los, child_his),
                    )
        if heap:
            upper = min(upper, max(lower, max(-heap[0][0], resolved)))
        else:
            upper = min(upper, max(lower, resolved))

    upper = max(upper, lower)
    return SolveReport(
        lower_bound=lower,
        upper_bound=upper,
        witness=witness,
        iterations=nodes,
        restarts_used=restarts_used,
        wall_time=time.perf_counter() - start,
        converged=upper - lower <= accuracy,
    )


# ---------------------------------------------------------------------------
# registry


def _correlated(game: TeamGame, timeout: float, pivot: int) -> SolveReport:
    start = time.perf_counter()
    dist, value = correlated_team_maxmin(game)
    profile = reconstruct_mixed(dist, game, pivot)
    return SolveReport(
        lower_bound=team_value(game, profile).value,
        upper_bound=value,
        witness=profile,
        iterations=1,
        restarts_used=0,
        wall_time=time.perf_counter() - start,
        converged=True,
    )


def _oracle(
    game: TeamGame, timeout: float, target_error: float, max_evaluations: int
) -> SolveReport:
    start = time.perf_counter()
    estimate = grid_oracle(game, target_error, max_evaluations)
    return SolveReport(
        lower_bound=estimate.value,
        upper_bound=estimate.value + estimate.error_bound,
        witness=estimate.witness,
        iterations=estimate.evaluations,
        restarts_used=0,
        wall_time=time.perf_counter() - start,
        converged=True,
    )


# name -> (runner, accepted keyword parameters with their defaults). A runner
# takes the game, the timeout and those parameters, and calls its solver by
# module-level name, so that a wrapper installed on that name sees the call.
SOLVERS = {
    "correlated": (_correlated, {"pivot": 0}),
    "reconstruct": (lambda game, timeout: reconstruct_best_pivot(game), {}),
    "support-enum": (
        lambda game, timeout, **p: support_enumeration(game, **p),
        {"epsilon": 1.0, "budget": None, "upper_bound": None},
    ),
    "iterated-lp": (
        lambda game, timeout, **p: iterated_lp(game, timeout=timeout, **p),
        {"init": "random", "restarts": 10, "seed": 0, "max_rounds": 1000},
    ),
    "global": (
        lambda game, timeout, **p: global_optimize(game, budget=timeout, **p),
        {"accuracy": 1e-6, "seed": 0, "restarts": 8, "max_nodes": 20_000},
    ),
    "oracle": (_oracle, {"target_error": 0.01, "max_evaluations": 20_000_000}),
}
SOLVER_NAMES = tuple(SOLVERS)


def solver_params(name: str, params: dict) -> dict:
    """The named solver's keyword parameters: its defaults updated by
    `params`, each value converted to its default's type where that is a
    number. Raises ValueError for an unknown solver or a parameter the
    solver does not take."""
    if name not in SOLVERS:
        raise ValueError(f"unknown solver {name!r}, expected one of {SOLVER_NAMES}")
    defaults = SOLVERS[name][1]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        accepted = ", ".join(defaults) or "no parameters"
        raise ValueError(
            f"solver {name!r} does not take {', '.join(unknown)}; "
            f"it accepts {accepted}"
        )
    return {
        key: type(defaults[key])(value)
        if isinstance(defaults[key], (int, float))
        else value
        for key, value in {**defaults, **params}.items()
    }


def run_solver(
    name: str, game: TeamGame, timeout: float | None = None, **params
) -> SolveReport:
    """Run a solver by registry name with keyword parameters.

    Used by the command line and the experiment harness; every solver comes
    back as a SolveReport so downstream code never cares which one ran.
    Unknown names and parameters raise ValueError.
    """
    resolved = solver_params(name, params)
    runner = SOLVERS[name][0]
    return runner(game, DEFAULT_TIMEOUT if timeout is None else timeout, **resolved)
