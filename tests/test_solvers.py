"""Solver tests.

Independent routes are cross-checked throughout: closed-form family values,
the brute-force grid oracle, the correlated LP upper bound, and the search
heuristics must all agree within their certified tolerances on the same
instances. No solver is ever validated only against itself.
"""

import dataclasses
import functools
import itertools
import json
import math
import pathlib
import re
import runpy
import time
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teammax.game import (
    CapacityError,
    JointDistribution,
    MixedStrategy,
    TeamGame,
    TeamProfile,
    normalize_payoffs,
    pure_profile,
    team_value,
    to_joint_game,
    uniform_profile,
)
from teammax.generators import (
    coordination_game,
    diagonal_game,
    irrational_game,
    make_instance,
    poa_game,
    random_team_game,
)
from teammax import solvers
from teammax.solvers import (
    BOUND_SLACK,
    DEFAULT_TIMEOUT,
    SOLVER_NAMES,
    SOLVERS,
    SolveReport,
    correlated_team_maxmin,
    global_optimize,
    grid_oracle,
    iterated_lp,
    reconstruct_best_pivot,
    reconstruct_mixed,
    run_solver,
    solver_params,
    support_enumeration,
)
from teammax.lp import (
    LpSolveError,
    build_maxmin_lp,
    check_maxmin,
    member_payoff_matrix,
    solve_lp,
    solve_maxmin,
)
from teammax.rng import SplitMix64
from teammax.solvers import (
    _CHUNK_ENTRIES,
    _composition_grid,
    _grid_radius,
    _grid_search,
    _node_factors,
    _node_rows,
    _random_profile,
    _score_rows,
)
from test_lp import box_from_splits, per_member

REPO = pathlib.Path(__file__).resolve().parent.parent


def _report(lower, upper, correlated=1.0):
    return SolveReport(
        lower_bound=lower,
        upper_bound=upper,
        correlated_bound=correlated,
        witness=None,
        iterations=0,
        wall_time=0.0,
        converged=True,
    )


def test_solve_report_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        _report(1.0, 0.0)


def test_solve_report_rejects_negative_counters():
    with pytest.raises(ValueError):
        SolveReport(0.0, 1.0, 1.0, None, -1, 0.0, True)


def test_solve_report_rejects_an_upper_bound_above_its_correlated_bound():
    # v_C caps every upper bound, unless the lower bound is above it
    with pytest.raises(ValueError, match="exceeds the correlated bound 0.5"):
        _report(0.25, 0.75, correlated=0.5)
    assert _report(0.25, 0.5 + 1e-8, correlated=0.5).upper_bound > 0.5
    assert _report(0.75, 0.75, correlated=0.5).upper_bound == 0.75
    # a failed cell's report is NaN throughout
    assert math.isnan(_report(math.nan, math.nan, math.nan).upper_bound)


# ---------------------------------------------------------------------------
# correlated relaxation and reconstruction


def test_correlated_value_on_counting_game():
    game = TeamGame(3, (2, 2, 2), np.arange(8, dtype=float))
    dist, value = correlated_team_maxmin(game)
    # joint row (1,1) dominates: min(6, 7) = 6
    assert value == pytest.approx(6.0, abs=1e-9)
    index = np.ravel_multi_index((1, 1), dist.team_sizes)
    assert dist.probs[index] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n,m", [(3, 2), (3, 3), (3, 4), (4, 2)])
def test_correlated_value_on_diagonal_family(n, m):
    game, facts = diagonal_game(n, m)
    _, value = correlated_team_maxmin(game)
    assert value == pytest.approx(facts.known_correlated_value, abs=1e-9)


def test_reconstruct_mixed_by_hand():
    game, _ = diagonal_game(3, 2)
    dist = JointDistribution((2, 2), np.array([0.5, 0.0, 0.0, 0.5]))
    profile = reconstruct_mixed(dist, game, pivot=0)
    assert np.allclose(profile[0].probs, [0.5, 0.5])
    assert np.allclose(profile[1].probs, [0.5, 0.5])


def test_reconstruct_mixed_uniform_restricted_to_support():
    game, _ = diagonal_game(3, 3)
    probs = np.zeros(9)
    probs[0] = 0.75  # joint (0, 0)
    probs[4] = 0.25  # joint (1, 1)
    dist = JointDistribution((3, 3), probs)
    profile = reconstruct_mixed(dist, game, pivot=1)
    # pivot keeps its exact marginal
    assert np.allclose(profile[1].probs, [0.75, 0.25, 0.0])
    # the other member mixes uniformly on its support {0, 1}
    assert np.allclose(profile[0].probs, [0.5, 0.5, 0.0])


def test_reconstruct_mixed_validates_arguments():
    game, _ = diagonal_game(3, 2)
    dist = JointDistribution((2, 2), np.full(4, 0.25))
    with pytest.raises(ValueError):
        reconstruct_mixed(dist, game, pivot=5)
    other = JointDistribution((3, 3), np.full(9, 1.0 / 9.0))
    with pytest.raises(ValueError):
        reconstruct_mixed(other, game, pivot=0)


@pytest.mark.parametrize("n,m", [(3, 2), (3, 3), (3, 4), (4, 2)])
def test_reconstruct_best_pivot_on_diagonal_family(n, m):
    game, facts = diagonal_game(n, m)
    report = reconstruct_best_pivot(game)
    assert report.lower_bound == pytest.approx(facts.known_team_maxmin, abs=1e-9)
    assert report.upper_bound == pytest.approx(facts.known_correlated_value, abs=1e-9)
    assert report.converged


def test_correlated_on_matching_game_concentrates_on_matched_pairs():
    from teammax.generators import pou_one_game

    game, _ = pou_one_game()
    dist, value = correlated_team_maxmin(game)
    assert value == pytest.approx(1.0, abs=1e-9)
    for index in np.flatnonzero(dist.probs > 1e-9):
        actions = np.unravel_index(index, dist.team_sizes)
        assert actions[0] == actions[1]


def test_correlated_on_diagonal_is_uniform_over_matches():
    # the optimum is unique: 1/m on each matched joint action
    game, _ = diagonal_game(3, 3)
    dist, value = correlated_team_maxmin(game)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-9)
    for index in range(dist.probs.size):
        actions = np.unravel_index(index, dist.team_sizes)
        expected = 1.0 / 3.0 if actions[0] == actions[1] else 0.0
        assert dist.probs[index] == pytest.approx(expected, abs=1e-9)


def test_two_player_game_reconstruction_is_lossless():
    # with a single team member there is nothing to decorrelate
    game = TeamGame(2, (2, 2), np.array([1.0, 0.0, 0.0, 1.0]))
    _, v_c = correlated_team_maxmin(game)
    report = reconstruct_best_pivot(game)
    assert v_c == pytest.approx(0.5, abs=1e-9)
    assert report.lower_bound == pytest.approx(v_c, abs=1e-9)
    assert report.upper_bound == pytest.approx(v_c, abs=1e-9)


@given(st.integers(min_value=0, max_value=10_000))
def test_reconstruct_mixed_guarantee_for_arbitrary_distributions(seed):
    # the support-size guarantee is a property of the construction itself,
    # not of LP optima, so it must hold for any feasible joint distribution
    from teammax.rng import SplitMix64

    rng = SplitMix64(seed)
    game = normalize_payoffs(random_team_game(3, 3, seed=seed))
    probs = rng.simplex_point(9)
    dist = JointDistribution((3, 3), probs)
    joint_worst = (dist.probs @ to_joint_game(game)).min()
    for pivot in range(2):
        profile = reconstruct_mixed(dist, game, pivot)
        other = 1 - pivot
        support_size = int(dist.support(other).size)
        value = team_value(game, profile).value
        assert value >= joint_worst / support_size - 1e-9


@given(st.integers(min_value=0, max_value=10_000))
def test_reconstruct_guarantee_on_random_games(seed):
    # lower bound within the proven multiplicative factor for payoffs >= 0
    game = normalize_payoffs(random_team_game(3, 3, seed=seed))
    report = reconstruct_best_pivot(game)
    _, v_c = correlated_team_maxmin(game)
    m = game.max_team_actions
    factor = float(m ** (game.num_players - 2))
    assert report.lower_bound >= v_c / factor - 1e-9
    assert report.lower_bound <= v_c + 1e-9
    # witness really achieves the reported bound
    assert team_value(game, report.witness).value == pytest.approx(
        report.lower_bound, abs=1e-12
    )


def test_reconstruct_timeout_stops_after_the_first_pivot():
    # the clock is read after each pivot: a deadline that has passed leaves
    # pivot 0's reconstruction of the three
    game = normalize_payoffs(random_team_game(4, 3, seed=0))
    report = run_solver("reconstruct", game, timeout=0.0)
    assert report.iterations == 1
    assert not report.converged
    dist, v_c = correlated_team_maxmin(game)
    first = reconstruct_mixed(dist, game, 0)
    assert report.lower_bound == team_value(game, first).value
    assert [s.probs.tobytes() for s in report.witness] == [
        s.probs.tobytes() for s in first
    ]
    assert report.lower_bound <= report.upper_bound == max(v_c, report.lower_bound)
    full = run_solver("reconstruct", game)
    assert full.iterations == 3 and full.converged
    assert report.lower_bound <= full.lower_bound
    assert full.upper_bound == report.upper_bound


# ---------------------------------------------------------------------------
# support enumeration


def test_enumeration_params_formula():
    # multisets of size max(1, ceil(ln m / (2 epsilon^2))) of m actions
    game = normalize_payoffs(random_team_game(3, 5, seed=0))
    report = support_enumeration(game, epsilon=0.5)
    assert report.iterations == math.comb(8, 4) ** 2
    for strategy in report.witness:
        scaled = strategy.probs * 4
        assert np.allclose(scaled, np.round(scaled), atol=1e-12)
    assert support_enumeration(game, epsilon=0.9).iterations == 5**2
    small = normalize_payoffs(random_team_game(3, 3, seed=0))
    assert support_enumeration(small, epsilon=0.5).iterations == math.comb(5, 3) ** 2


def test_enumeration_params_validation():
    game = normalize_payoffs(random_team_game(3, 2, seed=0))
    for epsilon in (0.0, 1.2, math.nan):
        with pytest.raises(ValueError, match="epsilon must be in"):
            support_enumeration(game, epsilon=epsilon)


def test_enumeration_visits_every_candidate():
    game = normalize_payoffs(random_team_game(3, 3, seed=3))
    report = support_enumeration(game, epsilon=1.0)
    # multiset size 1: pure strategies only, 3 x 3 candidates
    assert report.iterations == 9
    assert report.converged
    # best pure team profile, computed directly
    best = max(
        team_value(game, pure_profile(game, (i, j))).value
        for i in range(3)
        for j in range(3)
    )
    assert report.lower_bound == pytest.approx(best, abs=1e-12)


def test_enumeration_timeout_stops_between_chunks(monkeypatch):
    # one row of member 0's grid per chunk: a deadline that has passed
    # stops the search after the first chunk, 70 of the 70^2 candidates
    monkeypatch.setattr("teammax.solvers._CHUNK_ENTRIES", 1)
    game = normalize_payoffs(random_team_game(3, 5, seed=0))
    report = run_solver("support-enum", game, timeout=0.0, epsilon=0.5)
    assert report.iterations == math.comb(8, 4) < math.comb(8, 4) ** 2
    assert not report.converged
    assert team_value(game, report.witness).value == pytest.approx(
        report.lower_bound, abs=1e-12
    )
    _, v_c = correlated_team_maxmin(game)
    assert report.lower_bound <= report.upper_bound == max(v_c, report.lower_bound)
    full = support_enumeration(game, epsilon=0.5)
    assert full.converged and full.iterations == math.comb(8, 4) ** 2
    assert report.lower_bound <= full.lower_bound


def test_enumeration_requires_normalized_payoffs():
    game = TeamGame(3, (2, 2, 2), np.arange(8, dtype=float))
    with pytest.raises(ValueError):
        support_enumeration(game, epsilon=0.5)


@pytest.mark.parametrize(
    "game, epsilon, steps, upper, v_c",
    [
        (poa_game()[0], 0.2, 9, 0.358025, 0.5),
        (poa_game()[0], 0.1, 35, 0.278367, 0.5),
        (diagonal_game(3, 3)[0], 0.2, 14, 0.197279, 1 / 3),
    ],
    ids=["poa-0.2", "poa-0.1", "diagonal-0.2"],
)
def test_enumeration_upper_bound_is_the_grid_certificate(
    game, epsilon, steps, upper, v_c
):
    # a finished search certifies the value within _grid_radius / steps of
    # its lower bound, as the oracle's grid does, which beats v_C here
    report = support_enumeration(game, epsilon=epsilon)
    assert report.converged
    assert report.correlated_bound == pytest.approx(v_c, abs=1e-12)
    assert report.upper_bound == report.lower_bound + _grid_radius(game) / steps
    assert report.upper_bound == pytest.approx(upper, abs=1e-6)


def test_enumeration_upper_bound_is_the_correlated_value():
    # one step per member: the grid's certified end, lower + 4/3, is above v_C
    for seed in range(3):
        game = normalize_payoffs(random_team_game(3, 3, seed=seed))
        _, v_c = correlated_team_maxmin(game)
        report = support_enumeration(game, epsilon=1.0)
        assert report.upper_bound == max(v_c, report.lower_bound)
        assert report.upper_bound < 1.0


def test_upper_bound_without_the_correlated_lp_is_the_largest_payoff(monkeypatch):
    # over to_joint_game's row cap the searches keep their lower bounds and
    # fall back to the largest payoff, 1 on a normalized game
    def over_the_cap(game):
        raise CapacityError("joint team action space exceeds the cap")

    monkeypatch.setattr("teammax.solvers.to_joint_game", over_the_cap)
    game = normalize_payoffs(random_team_game(3, 3, seed=0))
    searches = (
        iterated_lp(game, restarts=2, seed=0),
        support_enumeration(game, epsilon=1.0),
    )
    for report in searches:
        assert report.lower_bound < report.upper_bound == 1.0
    # the oracle's certified error is the lesser bound there
    oracle = run_solver("oracle", game)
    assert oracle.converged and oracle.lower_bound < oracle.upper_bound < 1.0
    for report in (*searches, oracle):
        assert report.correlated_bound == 1.0


def test_enumeration_witness_achieves_bound():
    game = normalize_payoffs(random_team_game(3, 4, seed=7))
    report = support_enumeration(game, epsilon=0.8)
    assert team_value(game, report.witness).value == pytest.approx(
        report.lower_bound, abs=1e-12
    )
    # every witness probability is a multiple of 1/multiset_size, here
    # ceil(ln 4 / 1.28) = 2
    size = 2
    for strategy in report.witness:
        scaled = strategy.probs * size
        assert np.allclose(scaled, np.round(scaled), atol=1e-12)


def test_enumeration_refuses_grids_too_large_to_build():
    # each member grid would hold C(125, 9) mixtures of 10 actions
    wide = normalize_payoffs(random_team_game(3, 10, seed=0))
    with pytest.raises(CapacityError):
        support_enumeration(wide, epsilon=0.1)
    # member grids of 3,003 mixtures each, but folding two members into the
    # tensor would build 6 * 6 * 3003 * 3003 entries
    deep = normalize_payoffs(random_team_game(4, 6, seed=0))
    with pytest.raises(CapacityError):
        support_enumeration(deep, epsilon=0.3)


def _random_game(sizes, seed):
    rng = np.random.default_rng(seed)
    return TeamGame(len(sizes), sizes, rng.random(sizes))


@pytest.mark.parametrize(
    "game, steps",
    [
        (normalize_payoffs(random_team_game(3, 4, seed=1)), 2),
        (normalize_payoffs(random_team_game(4, 3, seed=2)), 2),
        (normalize_payoffs(random_team_game(4, 2, seed=3)), 3),
        (_random_game((2, 3, 4, 3), seed=4), 2),
        (_random_game((3, 2, 2, 3, 2), seed=5), 2),
    ],
)
def test_grid_search_matches_brute_force(game, steps):
    # reference: the multisets of each member in the order of
    # combinations_with_replacement, crossed with itertools.product (member 0
    # outermost) and scored one profile at a time with team_value
    grids = [
        [
            np.bincount(combo, minlength=m) / steps
            for combo in itertools.combinations_with_replacement(range(m), steps)
        ]
        for m in game.team_sizes
    ]
    candidates = list(itertools.product(*grids))
    values = [
        team_value(
            game, TeamProfile(tuple(MixedStrategy(p) for p in c))
        ).value
        for c in candidates
    ]
    best = int(np.argmax(values))
    value, witness, scored = _grid_search(game, steps)
    assert scored == len(candidates)
    assert value == pytest.approx(values[best], abs=1e-12)
    for strategy, probs in zip(witness, candidates[best]):
        assert np.array_equal(strategy.probs, probs)


def test_grid_search_ties_go_to_the_first_candidate_across_chunks():
    # 1,542 x 1,542 candidates, scored in chunks of _CHUNK_ENTRIES // 1,542
    # rows of member 0's grid; the tie must cross a chunk boundary
    game = TeamGame(3, (2, 2, 2), np.zeros(8))
    assert -(-1542 // (_CHUNK_ENTRIES // 1542)) > 1
    value, witness, scored = _grid_search(game, 1541)
    assert scored == 1542**2
    assert value == 0.0
    assert [list(s.probs) for s in witness] == [[1.0, 0.0], [1.0, 0.0]]


@pytest.mark.parametrize(
    "game, steps, chunks",
    [
        # one team member: each row of member 0's grid is one candidate
        (_random_game((4, 3), seed=6), 30, 1),
        # an adversary with a single action: no running minimum
        (_random_game((3, 4, 1), seed=7), 20, 2),
        (normalize_payoffs(random_team_game(3, 4, seed=8)), 14, 2),
        (normalize_payoffs(random_team_game(4, 3, seed=9)), 10, 2),
    ],
)
def test_grid_search_result_does_not_depend_on_the_slice_size(
    monkeypatch, game, steps, chunks
):
    counts = [math.comb(steps + m - 1, m - 1) for m in game.team_sizes]
    per_row = math.prod(counts[1:])
    chunk_rows = _CHUNK_ENTRIES // per_row
    assert -(-counts[0] // chunk_rows) == chunks

    def scores():
        value, witness, scored = _grid_search(game, steps)
        probs = tuple(strategy.probs.tobytes() for strategy in witness)
        return value.hex(), probs, scored

    expected = scores()
    assert expected[2] == counts[0] * per_row
    for entries in (1, 2**40):
        monkeypatch.setattr("teammax.solvers._CHUNK_ENTRIES", entries)
        assert scores() == expected


@pytest.mark.parametrize(
    "steps, parts",
    [(0, 1), (0, 3), (5, 1), (6, 5), (5, 6), (21, 3), (90, 3), (1000, 2)],
)
def test_composition_grid_lists_the_multisets_in_order(steps, parts):
    expected = np.array(
        [
            np.bincount(np.array(combo, dtype=np.int64), minlength=parts)
            for combo in itertools.combinations_with_replacement(range(parts), steps)
        ]
    )
    grid = _composition_grid(steps, parts)
    assert grid.dtype == expected.dtype
    assert np.array_equal(grid, expected)


def _exhaustive_grid_search(game, steps):
    """Every candidate scored with _grid_search's kernel, first best kept."""
    sizes = game.team_sizes
    grids = [
        np.array(
            [
                np.bincount(np.array(combo, dtype=np.int64), minlength=m)
                for combo in itertools.combinations_with_replacement(range(m), steps)
            ]
        )
        / steps
        for m in sizes
    ]
    folded = game.team_utility
    for i in range(len(sizes) - 1, 0, -1):
        folded = np.tensordot(folded, grids[i].T, axes=([i], [0]))
    per_row = math.prod(len(grid) for grid in grids[1:])
    folded = np.ascontiguousarray(
        folded.transpose(0, 1, *range(len(sizes), 1, -1))
    ).reshape(sizes[0], game.adversary_size, per_row)
    worst = grids[0] @ folded[:, 0]
    for c in range(1, game.adversary_size):
        np.minimum(worst, grids[0] @ folded[:, c], out=worst)
    worst = worst.reshape(-1)
    best = int(np.argmax(worst))
    choice = np.unravel_index(best, [len(grid) for grid in grids])
    witness = tuple(grid[c].tobytes() for grid, c in zip(grids, choice))
    return worst[best].hex(), witness, worst.size


@st.composite
def _grid_cases(draw):
    members = draw(st.integers(1, 3))
    team = tuple(draw(st.integers(2, 4)) for _ in range(members))
    adversary = draw(st.integers(1, 3))
    steps = draw(st.integers(1, {1: 30, 2: 16, 3: 6}[members]))
    kind = draw(st.sampled_from(["ties", "normal"]))
    seed = draw(st.integers(0, 2**32 - 1))
    return team + (adversary,), kind, seed, steps


@given(_grid_cases())
# cases where the bound rules out most rows, one-action adversaries among them
@example(((3, 4, 1), "ties", 0, 12))
@example(((3, 4, 1), "normal", 1, 12))
@example(((3, 3, 3), "ties", 0, 30))
@example(((3, 3, 3), "normal", 1, 30))
@example(((4, 3, 2), "normal", 5, 16))
@example(((3, 2, 2, 2), "normal", 7, 6))
@example(((4, 3), "ties", 2, 20))
@settings(max_examples=60)
def test_grid_search_prunes_to_the_exhaustive_result(case):
    # payoffs in {0, 1/2, 1} make ties common; normal payoffs of any scale
    # are not normalized
    sizes, kind, seed, steps = case
    rng = np.random.default_rng(seed)
    if kind == "ties":
        payoffs = rng.integers(0, 3, sizes) / 2.0
    else:
        payoffs = rng.normal(size=sizes) * 10.0 ** rng.integers(-3, 4)
    game = TeamGame(len(sizes), sizes, payoffs)
    value, witness, covered = _grid_search(game, steps)
    assert (
        value.hex(),
        tuple(strategy.probs.tobytes() for strategy in witness),
        covered,
    ) == _exhaustive_grid_search(game, steps)


@pytest.mark.parametrize(
    "game, total, value, witness",
    [
        # against the adversary's three actions member 0's mixture t = x_1
        # scores min(4 (1 - t), 4 t, 1/2) with any of member 1's four equal
        # actions. The rows t = 2/16 .. 14/16 tie at exactly 1/2; row 2 is
        # scored after the probe row 4 and must win the tie
        (
            TeamGame(
                3,
                (2, 4, 3),
                np.repeat(np.array([[4.0, 0.0, 0.5], [0.0, 4.0, 0.5]])[:, None], 4, 1),
            ),
            17 * 969,
            0.5,
            ([14 / 16, 2 / 16], [1.0, 0.0, 0.0, 0.0]),
        ),
    ],
)
def test_grid_search_prunes_to_the_exhaustive_result_on_constructed_games(
    game, total, value, witness
):
    # 17 rows of member 0's grid at 16 steps, probes 0, 4, 8, 12 and 16
    found, profile, covered = _grid_search(game, 16)
    assert (found, [list(s.probs) for s in profile], covered) == (
        value,
        [list(p) for p in witness],
        total,
    )
    assert (
        found.hex(),
        tuple(strategy.probs.tobytes() for strategy in profile),
        covered,
    ) == _exhaustive_grid_search(game, 16)


def test_grid_search_cut_by_its_deadline_counts_the_candidates_scored(monkeypatch):
    # one row per chunk, and a clock that reads 1, 2, 3, ...: the probe
    # chunks after the first read it probes - 1 times and the bound's slices
    # of rows // probes rows once each, so a deadline of probes + slices + 1.5
    # passes after the second row scored best bound first
    monkeypatch.setattr("teammax.solvers._CHUNK_ENTRIES", 1)
    ticks = itertools.count(1)
    monkeypatch.setattr(
        "teammax.solvers.time", types.SimpleNamespace(perf_counter=lambda: next(ticks))
    )
    game = normalize_payoffs(random_team_game(3, 3, seed=1))
    rows = math.comb(32, 2)
    probes = -(-rows // math.isqrt(rows))
    slices = -(-(rows - probes) // (rows // probes))
    value, witness, covered = _grid_search(game, 30, probes + slices + 1.5)
    assert covered == (probes + 2) * rows
    assert team_value(game, witness).value == pytest.approx(value, abs=1e-12)
    best, _, everything = _grid_search(game, 30)
    assert everything == rows**2
    assert value <= best
    # a deadline that passes during the bound phase stops it there, before
    # any row is scored best bound first
    ticks = itertools.count(1)
    _, _, covered = _grid_search(game, 30, probes + 2.5)
    assert covered == probes * rows
    # all 23 probe rows in one chunk, which is scored whatever the deadline
    monkeypatch.setattr("teammax.solvers._CHUNK_ENTRIES", 2**40)
    assert probes == 23
    _, _, covered = _grid_search(game, 30, -math.inf)
    assert covered == probes * rows


def test_grid_search_scores_few_rows(monkeypatch):
    # the grid workload's n3 m3 oracle rung: the Lipschitz bound of a few
    # probe rows rules out almost every row of member 0's grid
    rows = []

    def counting(block, *args):
        rows.append(len(block))
        return _score_rows(block, *args)

    monkeypatch.setattr("teammax.solvers._score_rows", counting)
    game, _ = make_instance("random", n=3, m=3, seed=0)
    total = math.comb(92, 2) ** 2
    _, _, covered = _grid_search(game, 90)
    assert covered == total
    assert sum(rows) * math.comb(92, 2) < 0.1 * total


def test_grid_search_holds_two_slices_on_a_one_member_game(monkeypatch):
    # 1,000,001 rows of one candidate each, which the bound skips: scored in
    # order, they need the two cache-sized slices and one chunk's rows of
    # member 0's grid (12 MiB in all), not arrays of one value per row (34 MiB)
    held = []

    def counting(block, *args):
        held.append(tracemalloc.get_traced_memory()[0])
        return _score_rows(block, *args)

    monkeypatch.setattr("teammax.solvers._score_rows", counting)
    game = _random_game((2, 3), seed=10)
    rows = 1_000_001
    tracemalloc.start()
    try:
        _, _, covered = _grid_search(game, rows - 1)
    finally:
        tracemalloc.stop()
    assert covered == rows
    # beyond member 0's grid, rows x 2 floats
    assert max(held) - rows * 2 * 8 < 16 * 2**20


def test_grid_oracle_peak_memory():
    # the grid workload's oracle rungs: scored one adversary action at a
    # time in cache-sized slices that the bound reuses, they peak near 5, 9
    # and 4 MiB; contracting whole chunks against every action took 51 MiB
    rungs = [
        (make_instance("random", n=3, m=3, seed=0)[0], 0.03, 8),
        (make_instance("random", n=4, m=3, seed=0)[0], 0.2, 12),
        (make_instance("poa")[0], 0.002, 8),
    ]
    for game, target, mib in rungs:
        tracemalloc.start()
        try:
            grid_oracle(game, target_error=target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20


def test_enumeration_additive_guarantee_against_oracle():
    for seed in (0, 1):
        game = normalize_payoffs(random_team_game(3, 3, seed=seed))
        oracle = grid_oracle(game, target_error=0.05)
        for eps in (0.5, 1.0):
            report = support_enumeration(game, epsilon=eps)
            floor = oracle.value - eps - oracle.error_bound
            assert report.lower_bound >= floor - 1e-9


# ---------------------------------------------------------------------------
# iterated LP ascent


def test_iterated_lp_traces_monotone_and_witness_consistent():
    for seed in range(5):
        game = normalize_payoffs(random_team_game(3, 3, seed=seed))
        report = iterated_lp(game, restarts=3, seed=seed)
        assert report.restarts_used == 3
        assert len(report.traces) == 3
        for trace in report.traces:
            assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
        assert report.lower_bound == pytest.approx(
            max(t[-1] for t in report.traces), abs=1e-12
        )
        assert team_value(game, report.witness).value == pytest.approx(
            report.lower_bound, abs=1e-9
        )


def test_iterated_lp_uniform_init_on_coordination_game():
    # symmetric start: no single member can improve alone, so the ascent
    # must stop immediately without touching the profile
    for m in (2, 3):
        game, _ = coordination_game(3, m)
        report = iterated_lp(game, init="uniform", restarts=1)
        assert report.lower_bound == pytest.approx(1.0 / m, abs=1e-12)
        assert report.iterations <= 2
        assert report.converged
        assert np.allclose(report.witness[0].probs, 1.0 / m)


def test_iterated_lp_pure_diagonal_init_on_coordination_game():
    game, _ = coordination_game(3, 3)
    start = pure_profile(game, (1, 1))
    report = iterated_lp(game, init=start, restarts=1)
    assert report.lower_bound == pytest.approx(1.0, abs=1e-12)


def test_iterated_lp_escapes_bad_pure_start():
    # mismatched pure start is worth 0; one best response fixes it
    game, _ = coordination_game(3, 2)
    start = pure_profile(game, (0, 1))
    report = iterated_lp(game, init=start, restarts=1)
    assert report.lower_bound == pytest.approx(1.0, abs=1e-9)
    assert report.traces[0][0] == pytest.approx(0.0)


def test_iterated_lp_stalls_on_matched_pure_start_of_two_peak_game():
    # starting on one payoff peak of the two-peak game, no single member can
    # improve alone (the adversary sits on the other peak), so a lone restart
    # honestly reports the stall value instead of the optimum
    from teammax.generators import poa_game

    game, _ = poa_game()
    start = pure_profile(game, (1, 1))
    report = iterated_lp(game, init=start, restarts=1)
    assert report.lower_bound == pytest.approx(0.0, abs=1e-12)
    assert report.converged


def test_iterated_lp_deterministic_given_seed():
    game = normalize_payoffs(random_team_game(3, 4, seed=2))
    a = iterated_lp(game, restarts=4, seed=11)
    b = iterated_lp(game, restarts=4, seed=11)
    assert a.lower_bound == b.lower_bound
    assert a.iterations == b.iterations
    for sa, sb in zip(a.witness, b.witness):
        assert np.array_equal(sa.probs, sb.probs)
    c = iterated_lp(game, restarts=4, seed=12)
    assert c.lower_bound != a.lower_bound or not np.array_equal(
        c.witness[0].probs, a.witness[0].probs
    )


def test_iterated_lp_respects_correlated_upper_bound():
    for seed in range(5):
        game = normalize_payoffs(random_team_game(4, 2, seed=seed))
        report = iterated_lp(game, restarts=3, seed=seed)
        _, v_c = correlated_team_maxmin(game)
        assert report.lower_bound <= v_c + 1e-8


def test_iterated_lp_argument_validation():
    game, _ = diagonal_game(3, 2)
    with pytest.raises(ValueError):
        iterated_lp(game, restarts=0)
    with pytest.raises(ValueError):
        iterated_lp(game, init="nonsense")


def test_iterated_lp_timeout_reports_not_converged():
    game = normalize_payoffs(random_team_game(3, 4, seed=5))
    report = iterated_lp(game, restarts=50, seed=0, timeout=0.0)
    assert not report.converged
    assert report.restarts_used <= 50


def _reference_ascent(game, init, restarts, seed):
    """iterated_lp without reuse: every member's LP is re-solved each round.

    Returns (lower, iterations, traces, witness, converged)."""
    master = SplitMix64(seed)
    best_value, best_profile = -math.inf, None
    traces, rounds, all_settled = [], 0, True
    for r in range(restarts):
        rng = master.spawn(r)
        if r == 0 and isinstance(init, TeamProfile):
            profile = init
        elif r == 0 and init == "uniform":
            profile = uniform_profile(game)
        else:
            profile = _random_profile(game, rng)
        value = team_value(game, profile).value
        trace, settled = [value], False
        for _ in range(1000):
            rounds += 1
            responses = [
                solve_maxmin(member_payoff_matrix(game, profile, i))
                for i in range(game.num_team_members)
            ]
            best_member = -1
            round_best = -math.inf
            for i, (v, _) in enumerate(responses):
                if v > round_best:
                    round_best, best_member = v, i
            if round_best - value < 1e-9:
                settled = True
                break
            strategies = list(profile)
            strategies[best_member] = MixedStrategy(
                np.maximum(responses[best_member][1], 0.0)
            )
            profile = TeamProfile(tuple(strategies))
            value = round_best
            trace.append(value)
        traces.append(tuple(trace))
        all_settled = all_settled and settled
        if value > best_value:
            best_value, best_profile = value, profile
    return best_value, rounds, tuple(traces), best_profile, all_settled


def _explicit_profile(game, seed):
    rng = np.random.default_rng(seed)
    return TeamProfile(
        tuple(MixedStrategy(rng.dirichlet(np.ones(m))) for m in game.team_sizes)
    )


_ASCENT_GAMES = [
    random_team_game(3, 4, seed=0),
    random_team_game(3, 6, seed=1),
    random_team_game(4, 3, seed=2),
    random_team_game(5, 2, seed=3),
    diagonal_game(3, 3)[0],
    poa_game()[0],
]


@pytest.mark.parametrize(
    "game",
    _ASCENT_GAMES,
    ids=["n3-m4", "n3-m6", "n4-m3", "n5-m2", "diagonal-n3-m3", "poa"],
)
@pytest.mark.parametrize("init", ["uniform", "random", "explicit"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_iterated_lp_equals_ascent_that_re_solves_every_member(game, init, seed):
    start = _explicit_profile(game, seed) if init == "explicit" else init
    report = iterated_lp(game, init=start, restarts=3, seed=seed)
    lower, rounds, traces, witness, settled = _reference_ascent(
        game, start, restarts=3, seed=seed
    )
    assert report.lower_bound == lower
    assert report.upper_bound == max(correlated_team_maxmin(game)[1], lower)
    assert report.iterations == rounds
    assert report.restarts_used == 3
    assert report.traces == traces
    assert report.converged == settled
    for got, want in zip(report.witness, witness, strict=True):
        assert np.array_equal(got.probs, want.probs)


def _count_lp_calls(monkeypatch):
    calls = []

    def counted(matrix):
        calls.append(matrix.shape)
        return solve_maxmin(matrix)

    monkeypatch.setattr("teammax.solvers.solve_maxmin", counted)
    return calls


@pytest.mark.parametrize("players", [3, 4])
def test_iterated_lp_solves_only_the_movers_teammates(monkeypatch, players):
    # the first round of a restart solves every member; each accepted move
    # leaves the mover's response valid, so every later round solves the
    # n_team - 1 others. One more LP, the correlated one, gives the upper
    # bound.
    game = random_team_game(players, 4, seed=7)
    members = game.num_team_members
    calls = _count_lp_calls(monkeypatch)
    report = iterated_lp(game, restarts=4, seed=3)
    assert report.converged
    assert any(len(trace) > 2 for trace in report.traces)
    assert len(calls) == 1 + sum(
        members + (len(trace) - 1) * (members - 1) for trace in report.traces
    )


def test_iterated_lp_single_round_solves_every_member(monkeypatch):
    game = random_team_game(4, 4, seed=7)
    calls = _count_lp_calls(monkeypatch)
    monkeypatch.setattr("teammax.solvers.MAX_ROUNDS", 1)
    report = iterated_lp(game, restarts=4, seed=3)
    assert len(calls) == 1 + 4 * game.num_team_members
    assert all(len(trace) == 2 for trace in report.traces)
    assert not report.converged


# ---------------------------------------------------------------------------
# grid oracle


def test_grid_oracle_exact_on_small_diagonal_games():
    # the resolution is snapped so the uniform profile lies on the grid,
    # which makes the estimate exact on these games despite the coarse target
    for n, m, target in ((3, 2, 0.01), (3, 3, 0.05)):
        game, facts = diagonal_game(n, m)
        est = grid_oracle(game, target_error=target)
        assert est.value == pytest.approx(facts.known_team_maxmin, abs=1e-12)
        assert est.error_bound <= target
        assert est.resolution % m == 0
        assert team_value(game, est.witness).value == pytest.approx(
            est.value, abs=1e-12
        )


def test_grid_oracle_brackets_the_optimum_from_below():
    game, facts = irrational_game()
    est = grid_oracle(normalize_payoffs(game), target_error=0.01)
    true_value = (6.0 - 4.0 * math.sqrt(2.0)) / 2.0
    assert est.value <= true_value + 1e-12
    assert est.value >= true_value - est.error_bound - 1e-12


def _certificate_games():
    """Normalized games with their team-maxmin value bracketed: the closed
    form of a family, or global's bracket at 1e-7 on games whose members
    have different action counts."""
    games = []
    for name, (game, facts) in (
        ("diagonal-m2", diagonal_game(3, 2)),
        ("diagonal-m3", diagonal_game(3, 3)),
        ("poa", poa_game()),
        ("irrational", irrational_game()),
    ):
        game, value = _normalized_family(game, facts)
        games.append((name, game, (value, value)))
    for shape, seed in (((2, 4, 3), 1), ((3, 2, 4), 2), ((2, 2, 3, 2), 2)):
        game = _random_shaped(shape, seed)
        report = global_optimize(game, accuracy=1e-7)
        assert report.converged
        games.append((shape, game, (report.lower_bound, report.upper_bound)))
    return games


def test_grid_oracle_certifies_the_value_within_its_radius():
    # value <= v* <= value + error_bound, with error_bound the radius over
    # k: (hi - lo) / 2 times the members' summed rounding radii, not
    # members times the largest
    for name, game, (low, high) in _certificate_games():
        for target in (0.2, 0.1, 0.05):
            est = grid_oracle(game, target_error=target)
            assert est.error_bound == _grid_radius(game) / est.resolution, name
            assert est.error_bound <= target, name
            assert est.value <= high + 1e-9, name
            assert low <= est.value + est.error_bound + 1e-9, name
    # the sum beats members x the largest radius on unequal action counts:
    # radii 1 and 2 at 2 and 4 actions give k = ceil(1.5 / 0.05) = 30, snapped
    # to 32 (lcm 4); 2 x 2 / 0.05 took 80
    game = _random_shaped((2, 4, 3), 1)
    assert _grid_radius(game) == 1.5
    assert grid_oracle(game, target_error=0.05).resolution == 32


def test_grid_oracle_snaps_k_only_when_that_at_most_doubles_it():
    # team sizes 5 and 7: the radius asks for k = 15, and rounding up to a
    # multiple of lcm 35 would make a grid the memory guard refuses
    game = _random_shaped((5, 7, 2), 0)
    cut = grid_oracle(game, target_error=0.2, timeout=0.0)
    assert cut.resolution == 15
    # a snap that at most doubles k is kept: 30 -> 32 at lcm 4 above, and
    # k = 1 -> 2 here
    small = grid_oracle(_random_shaped((2, 2, 2), 0), target_error=1.0)
    assert small.resolution == 2


def test_grid_oracle_trivial_single_action_members():
    game, _ = coordination_game(3, 1)
    est = grid_oracle(game, target_error=0.5)
    assert est.value == pytest.approx(1.0)
    assert est.error_bound == 0.0
    assert est.evaluations == 1


def test_oracle_timeout_stops_between_chunks(monkeypatch):
    # one row of member 0's grid per chunk: a deadline that has passed
    # stops the sweep after the first row
    monkeypatch.setattr("teammax.solvers._CHUNK_ENTRIES", 1)
    game = normalize_payoffs(random_team_game(3, 3, seed=1))
    cut = grid_oracle(game, target_error=0.05, timeout=0.0)
    rows = math.comb(cut.resolution + 2, 2)
    assert cut.evaluations == rows and cut.error_bound == math.inf
    report = run_solver("oracle", game, timeout=0.0, target_error=0.05)
    assert report.iterations == rows
    assert not report.converged
    assert team_value(game, report.witness).value == pytest.approx(
        report.lower_bound, abs=1e-12
    )
    _, v_c = correlated_team_maxmin(game)
    assert report.lower_bound <= report.upper_bound == max(v_c, report.lower_bound)
    full = run_solver("oracle", game, target_error=0.05)
    est = grid_oracle(game, target_error=0.05)
    assert full.converged and full.iterations == est.evaluations == rows**2
    # v_C caps the grid's certified bound, and is the lower of the two here
    assert est.value <= v_c < est.value + est.error_bound
    assert full.upper_bound == v_c
    assert report.correlated_bound == full.correlated_bound == v_c
    assert report.lower_bound <= full.lower_bound


def test_grid_oracle_requires_normalized_payoffs():
    game = TeamGame(3, (2, 2, 2), np.arange(8, dtype=float))
    with pytest.raises(ValueError):
        grid_oracle(game, target_error=0.1)


def test_grid_oracle_capacity_error(monkeypatch):
    # member grids of C(4003, 3) mixtures at k = 4,000: refused by the
    # memory guard before any grid is built
    def no_grid(*args):
        raise AssertionError("built an oversized grid")

    monkeypatch.setattr("teammax.solvers._composition_grid", no_grid)
    game = normalize_payoffs(random_team_game(3, 4, seed=0))
    with pytest.raises(CapacityError, match="exceeds the cap of 12000000$"):
        grid_oracle(game, target_error=1e-3)


def test_grid_oracle_defaults_solve_a_three_player_game():
    # the default target_error searches C(137, 2)^2 candidates at k = 135,
    # most of them ruled out by the Lipschitz bound, well within the timeout
    report = run_solver("oracle", normalize_payoffs(random_team_game(3, 3, seed=2)))
    assert report.converged
    assert report.iterations == 86_787_856
    assert report.upper_bound - report.lower_bound <= 0.01


def test_grid_oracle_rejects_bad_target():
    game, _ = diagonal_game(3, 2)
    with pytest.raises(ValueError):
        grid_oracle(game, target_error=0.0)


@pytest.mark.parametrize(
    "name, params, solves",
    [
        ("oracle", {"target_error": math.inf}, True),
        ("oracle", {"target_error": 1e-308}, False),
        ("support-enum", {"epsilon": 1e-10}, False),
        ("support-enum", {"epsilon": 1e-160}, False),
        ("support-enum", {"epsilon": 1e-170}, False),
    ],
)
def test_extreme_grid_parameters_solve_or_raise_capacity_error(name, params, solves):
    # a step count of at least 1, and a grid too fine for its step count to
    # be a float is a CapacityError, as one too large to build is
    game, _ = diagonal_game(3, 2)
    if solves:
        report = run_solver(name, game, **params)
        assert report.converged and report.iterations == 9
    else:
        with pytest.raises(CapacityError):
            run_solver(name, game, **params)


def test_grid_oracle_agrees_with_iterated_lp_on_random_games():
    # two completely different search strategies must land in each other's
    # certified intervals
    for seed in (2, 3):
        game = normalize_payoffs(random_team_game(3, 3, seed=seed))
        est = grid_oracle(game, target_error=0.05)
        ascent = iterated_lp(game, restarts=5, seed=seed)
        # ascent lower bound cannot exceed the certified upper end
        assert ascent.lower_bound <= est.value + est.error_bound + 1e-9
        # oracle never reports below a feasible profile's value minus error
        assert est.value >= ascent.lower_bound - est.error_bound - 1e-9


# settings that keep every solver's bracket certified and the metamorphic
# test below within a few seconds
_METAMORPHIC_SOLVERS = {
    "reconstruct": {},
    "iterated-lp": {"restarts": 4},
    "support-enum": {"epsilon": 0.6},
    # no drawn example needs more than 82 nodes; the cap binds on the
    # pinned diagonal n4 m3 example alone
    "global": {"accuracy": 1e-3, "max_nodes": 250},
    "oracle": {"target_error": 0.1},
}


def _normalized_family(game, facts):
    """A family game normalized to [0, 1], with its closed-form value
    mapped the same way."""
    lo, hi = float(game.team_utility.min()), float(game.team_utility.max())
    return normalize_payoffs(game), (facts.known_team_maxmin - lo) / (hi - lo)


def _random_shaped(shape, seed):
    """A normalized game with these action counts, its payoffs drawn from
    one SplitMix64 stream in row-major order, as random_team_game's."""
    tensor = SplitMix64(seed).floats(math.prod(shape)).reshape(shape)
    return normalize_payoffs(TeamGame(len(shape), shape, tensor))


def _same_value(value):
    return value


def _permute_actions(game, seed):
    """Every player's actions reordered: the same game under new labels."""
    rng = np.random.default_rng(seed)
    tensor = game.team_utility
    for axis, m in enumerate(game.actions_per_player):
        tensor = np.take(tensor, rng.permutation(m), axis=axis)
    return dataclasses.replace(game, team_utility=tensor), _same_value


def _reverse_team(game, seed):
    """The team members in reverse order, the adversary last as before."""
    n = game.num_players
    order = (*range(n - 2, -1, -1), n - 1)
    sizes = tuple(game.actions_per_player[i] for i in order)
    variant = dataclasses.replace(
        game, actions_per_player=sizes, team_utility=game.team_utility.transpose(order)
    )
    return variant, _same_value


def _rescale(game, seed):
    """Payoffs u mapped to 0.5 u + 0.25, which maps every value the same
    way and keeps them in [0, 1]."""
    variant = dataclasses.replace(game, team_utility=0.5 * game.team_utility + 0.25)
    return variant, lambda value: (value - 0.25) / 0.5


@settings(max_examples=32)
@given(
    st.one_of(
        st.tuples(st.sampled_from([(3, 2), (3, 3), (4, 2)]), st.integers(0, 999)).map(
            lambda c: (normalize_payoffs(random_team_game(*c[0], seed=c[1])), None)
        ),
        # players with different action counts
        st.tuples(
            st.sampled_from([(2, 3, 2), (3, 2, 4), (2, 2, 3, 2), (2, 2, 2, 2, 2)]),
            st.integers(0, 999),
        ).map(lambda c: (_random_shaped(*c), None)),
        st.sampled_from([2, 3]).map(lambda m: _normalized_family(*diagonal_game(3, m))),
        st.just(_normalized_family(*irrational_game())),
    ),
    st.sampled_from([_permute_actions, _reverse_team, _rescale]),
    st.integers(0, 999),
)
# members of 3 and 2 actions: node boxes that slice every member by the
# first member's action count break this bracket
@example((_random_shaped((3, 2, 4), 2), None), _reverse_team, 0)
# diagonal n4 m3: global's 27 x 129 node LPs run on the basis inverse, and
# past about 200 nodes some fail their certificate or raise
@example(_normalized_family(*diagonal_game(4, 3)), _permute_actions, 0)
# diagonal n5 m2, a team of four: global's node LPs run on the whole
# tableau and close the bracket in 245 nodes
@example(_normalized_family(*diagonal_game(5, 2)), _permute_actions, 0)
def test_solvers_agree_on_a_game_and_its_relabelled_or_rescaled_copy(
    case, transform, seed
):
    # relabelling actions or members changes no value, and a positive
    # affine map of the payoffs maps every value by the same map: mapped
    # back, the variant's correlated value is the game's, and the brackets
    # of all five solvers on both games hold one common point (and the
    # closed-form value, where the family has one); every witness is worth
    # its lower bound
    game, known = case
    variant, back = transform(game, seed)
    v_c = correlated_team_maxmin(game)[1]
    assert back(correlated_team_maxmin(variant)[1]) == pytest.approx(v_c, abs=1e-9)
    brackets = []
    for name, params in _METAMORPHIC_SOLVERS.items():
        for solved, to_game in ((game, _same_value), (variant, back)):
            report = run_solver(name, solved, **params)
            assert team_value(solved, report.witness).value >= (
                report.lower_bound - BOUND_SLACK
            ), name
            brackets.append(
                (name, to_game(report.lower_bound), to_game(report.upper_bound))
            )
    lower = max(low for _, low, _ in brackets)
    upper = min(high for _, _, high in brackets)
    assert lower <= upper + BOUND_SLACK, brackets
    if known is not None:
        for name, low, high in brackets:
            assert low - BOUND_SLACK <= known <= high + BOUND_SLACK, name


# ---------------------------------------------------------------------------
# global bracket


def test_global_budget_zero_is_reconstruction_bracket():
    game, facts = diagonal_game(3, 2)
    report = global_optimize(game, accuracy=1e-6, timeout=0.0)
    assert report.lower_bound == pytest.approx(0.25, abs=1e-9)
    assert report.upper_bound == pytest.approx(0.5, abs=1e-9)
    assert not report.converged
    assert report.iterations == 0


def test_global_closes_the_diagonal_gap():
    game, facts = diagonal_game(3, 2)
    report = global_optimize(game, accuracy=1e-4, timeout=60.0)
    assert report.converged
    assert report.upper_bound - report.lower_bound <= 1e-4 + 1e-12
    assert report.lower_bound == pytest.approx(0.25, abs=1e-4)
    assert report.upper_bound >= 0.25 - 1e-12


def test_global_on_poa_game():
    game, facts = poa_game()
    report = global_optimize(game, accuracy=1e-3, timeout=60.0)
    assert report.converged
    assert report.lower_bound == pytest.approx(0.25, abs=1e-3)


def test_global_solves_the_correlated_lp_once(monkeypatch):
    # the root's reconstruction solves v_C; the ascent is handed the root's
    # upper bound instead of solving it again
    import teammax.solvers as solvers_module

    calls = []

    def counted(game):
        calls.append(game)
        return correlated_team_maxmin(game)

    monkeypatch.setattr(solvers_module, "correlated_team_maxmin", counted)
    game, _ = make_instance("random", n=3, m=4, seed=1)
    report = run_solver("global", game, accuracy=1e-3, max_nodes=3000)
    assert report.restarts_used > 0
    assert len(calls) == 1


def test_a_global_report_carries_its_ascents_traces():
    # the restart count is the traces' count, for global as for iterated_lp
    game, _ = make_instance("random", n=3, m=4, seed=1)
    report = run_solver("global", game, accuracy=1e-3, max_nodes=3000)
    assert report.traces == iterated_lp(game, restarts=8, seed=0).traces
    assert len(report.traces) == report.restarts_used == 8


def test_iterated_lp_takes_a_known_upper_bound():
    game, _ = make_instance("random", n=3, m=4, seed=1)
    solved = iterated_lp(game, restarts=2, seed=0)
    given_bound = iterated_lp(game, restarts=2, seed=0, correlated_bound=2.0)
    below = iterated_lp(game, restarts=2, seed=0, correlated_bound=-1.0)
    assert given_bound.lower_bound == solved.lower_bound
    assert given_bound.upper_bound == given_bound.correlated_bound == 2.0
    assert below.upper_bound == below.lower_bound
    assert below.correlated_bound == -1.0


def test_global_bracket_valid_on_random_games():
    for seed in (0, 4):
        game = normalize_payoffs(random_team_game(3, 3, seed=seed))
        report = global_optimize(game, accuracy=0.02, timeout=60.0)
        est = grid_oracle(game, target_error=0.05)
        assert report.lower_bound <= est.value + est.error_bound + 1e-9
        assert report.upper_bound >= est.value - 1e-9
        assert team_value(game, report.witness).value == pytest.approx(
            report.lower_bound, abs=1e-9
        )


def _mixtures_in_box(lo, hi, rng, count):
    """count mixtures x with lo <= x <= hi, up to rounding: alternately a
    vertex of the box and the simplex (lo, then the mass left poured into
    the actions in a random order) and a point lo + t d clipped to hi, for
    a random direction d and the t at which it sums to 1."""
    out = []
    for k in range(count):
        if k % 2 == 0:
            x, room = lo.copy(), max(1.0 - lo.sum(), 0.0)
            for a in np.argsort(rng.floats(lo.size)):
                add = min(hi[a] - lo[a], room)
                x[a] += add
                room -= add
        else:
            d = rng.floats(lo.size) + 1e-3
            below, above = 0.0, 1.0
            while np.minimum(lo + above * d, hi).sum() < 1.0:
                above *= 2.0
            for _ in range(80):
                mid = (below + above) / 2.0
                if np.minimum(lo + mid * d, hi).sum() < 1.0:
                    below = mid
                else:
                    above = mid
            x = np.minimum(lo + above * d, hi)
        out.append(x / x.sum())
    return out


@settings(max_examples=60)
@given(
    st.sampled_from([(3, 2), (3, 3), (3, 4), (4, 3)]),
    st.integers(0, 2**16),
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 3), st.booleans()), max_size=10
    ),
)
def test_node_bound_holds_every_profile_in_its_box(shape, seed, splits):
    # a node's certified bound is at least the team value of every product
    # profile whose members play inside the node's boxes
    n, m = shape
    game, _ = make_instance("random", n=n, m=m, seed=seed)
    matrix = to_joint_game(game)
    lo, hi = box_from_splits(game.team_sizes, splits)
    rows = _node_rows(_node_factors(game.team_sizes), lo, hi)
    bound, _ = check_maxmin(matrix, solve_lp(build_maxmin_lp(matrix, rows)), rows)
    rng = SplitMix64(seed)
    samples = [
        _mixtures_in_box(low, high, rng.spawn(i), 24)
        for i, (low, high) in enumerate(
            zip(per_member(game.team_sizes, lo), per_member(game.team_sizes, hi))
        )
    ]
    for k in range(24):
        profile = TeamProfile(
            tuple(MixedStrategy(mixes[k]) for mixes in samples)
        )
        assert team_value(game, profile).value <= bound + 1e-9


def _reference_node_rows(team_sizes, los, his):
    # the rows _node_rows documents, as its formula reads: per member the
    # block [1^T; I - l 1^T; u 1^T - I] over its actions, F the Kronecker
    # product of the blocks in member order without its first row, less
    # the rows with no negative entry
    blocks = [
        np.concatenate(
            (np.ones((1, m)), np.eye(m) - lo[:, None], hi[:, None] - np.eye(m))
        )
        for m, lo, hi in zip(team_sizes, los, his)
    ]
    rows = functools.reduce(np.kron, blocks)[1:]
    return rows[(rows < 0.0).any(axis=1)]


@given(
    st.sampled_from([(2, 3), (3, 3), (3, 2), (4, 2)]),
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.booleans()), max_size=12
    ),
)
def test_node_rows_are_the_documented_rows(shape, splits):
    team_sizes = (shape[1],) * (shape[0] - 1)
    lo, hi = box_from_splits(team_sizes, splits)
    got = _node_rows(_node_factors(team_sizes), lo, hi)
    want = _reference_node_rows(
        team_sizes, per_member(team_sizes, lo), per_member(team_sizes, hi)
    )
    assert got.shape == want.shape and np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(3, 2), (3, 3), (3, 4), (4, 3), (4, 2), (5, 2)]),
    st.integers(0, 2**16),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.booleans()), max_size=10
    ),
)
def test_node_rows_hold_in_their_box_and_at_the_node_optimum(shape, seed, splits):
    # F z >= 0 at the joint distribution z of every product profile in the
    # box, and the node LP's joint mixture x satisfies F x >= 0 with its
    # marginals in the box: a row of the wrong sign fails one or the other
    n, m = shape
    game, _ = make_instance("random", n=n, m=m, seed=seed)
    team_sizes = game.team_sizes
    lo, hi = box_from_splits(team_sizes, splits)
    rows = _node_rows(_node_factors(team_sizes), lo, hi)
    boxes = list(zip(per_member(team_sizes, lo), per_member(team_sizes, hi)))
    rng = SplitMix64(seed)
    samples = [
        _mixtures_in_box(low, high, rng.spawn(i), 36)
        for i, (low, high) in enumerate(boxes)
    ]
    for mixes in zip(*samples):
        assert (rows @ functools.reduce(np.kron, mixes)).min(initial=0.0) >= -1e-12
    matrix = to_joint_game(game)
    _, x = check_maxmin(matrix, solve_lp(build_maxmin_lp(matrix, rows)), rows)
    assert (rows @ x).min(initial=0.0) >= -1e-9
    joint = JointDistribution(team_sizes, x)
    for i, (low, high) in enumerate(boxes):
        marginal = joint.marginal(i)
        assert np.all(low - 1e-9 <= marginal) and np.all(marginal <= high + 1e-9)


@pytest.mark.parametrize(
    "family, n, m, seed, accuracy, max_nodes",
    [
        ("random", 3, 6, 3, 1e-3, 3000),
        ("random", 4, 4, 0, 1e-2, 100),
        ("diagonal", 3, 3, None, 1e-3, 1000),
    ],
)
def test_global_converges_under_the_node_cap(family, n, m, seed, accuracy, max_nodes):
    # the node rows close these brackets in 73, 12 and 82 nodes; the joint
    # box alone needed more than 3,000, 1,106 and more than 1,000
    game, _ = make_instance(family, n=n, m=m, seed=seed)
    report = global_optimize(game, accuracy=accuracy, max_nodes=max_nodes)
    assert report.converged
    assert report.iterations < max_nodes
    assert team_value(game, report.witness).value == report.lower_bound


def test_global_keeps_the_bound_of_a_box_too_deep_to_split(monkeypatch):
    # a box MAX_DEPTH splits per member deep is not split again and its
    # bound stays in the upper bound: the bracket ends at [1/9, 0.2], not
    # converged, where dropping that bound closes it at [1/9, 1/9]
    monkeypatch.setattr(solvers, "MAX_DEPTH", 1)
    game, facts = make_instance("diagonal", n=3, m=3)
    report = global_optimize(game, accuracy=1e-6)
    assert not report.converged
    assert report.upper_bound - report.lower_bound > 1e-6
    assert report.lower_bound == pytest.approx(facts.known_team_maxmin, abs=1e-12)
    assert report.upper_bound == pytest.approx(0.2, abs=1e-12)


def _failing_node_lps(monkeypatch):
    """Wrap global_optimize's node LP calls; the list counts those that
    raised LpSolveError."""
    failures = []

    def recorded(function):
        def wrapper(*args):
            try:
                return function(*args)
            except LpSolveError:
                failures.append(function.__name__)
                raise

        return wrapper

    for name in ("solve_lp", "check_maxmin"):
        monkeypatch.setattr(solvers, name, recorded(getattr(solvers, name)))
    return failures


@pytest.mark.parametrize(
    "n, m, accuracy", [(4, 3, 1e-2), (5, 2, 1e-2), (6, 2, 1e-2), (4, 2, 1e-3)]
)
def test_global_closes_the_diagonal_bracket_for_three_or_more_members(
    monkeypatch, n, m, accuracy
):
    # the paper's worst case, worth m^-(n-1): the node rows of full degree
    # make a point box exact, so global converges (in 413, 107, 317 and 55
    # nodes) where the marginal rows and pair envelopes alone left these
    # brackets open at any node count; no node LP fails on the way
    failures = _failing_node_lps(monkeypatch)
    game, facts = make_instance("diagonal", n=n, m=m)
    start = time.perf_counter()
    report = global_optimize(game, accuracy=accuracy, timeout=None, max_nodes=1000)
    assert time.perf_counter() - start < 10.0
    assert report.converged and not failures
    known = facts.known_team_maxmin
    assert known == pytest.approx(m ** -(n - 1), rel=1e-12)
    assert report.lower_bound - BOUND_SLACK <= known <= report.upper_bound
    assert team_value(game, report.witness).value == report.lower_bound


def test_a_child_whose_node_lp_raises_keeps_its_parents_bound(monkeypatch):
    # the root's first child's node LP raises: it is pushed with the
    # root's bound, v_C, and no probe. After one node the upper bound is
    # v_C, where the two children's own bounds give 0.25; the search then
    # goes on below the failed child and closes the bracket
    game, facts = make_instance("diagonal", n=3, m=3)
    assert global_optimize(game, accuracy=1e-3, max_nodes=1).upper_bound < 0.26
    calls = []
    check = solvers.check_maxmin

    def first_child_fails(*args):
        calls.append(None)
        if len(calls) == 1:
            raise LpSolveError("planted failure")
        return check(*args)

    monkeypatch.setattr(solvers, "check_maxmin", first_child_fails)
    report = global_optimize(game, accuracy=1e-3, max_nodes=1)
    assert report.upper_bound == report.correlated_bound
    calls.clear()
    report = global_optimize(game, accuracy=1e-3, max_nodes=1000)
    assert report.converged
    known = facts.known_team_maxmin
    assert report.lower_bound - BOUND_SLACK <= known <= report.upper_bound


def test_node_lps_stop_at_the_deadline_and_keep_their_parents_bound(monkeypatch):
    # global hands its deadline to every node LP, none without a timeout.
    # A node LP stopped at it keeps its parent's bound like any failed one,
    # so the box is not lost: here the root's first child is given a
    # deadline already passed, and after one node the upper bound is v_C,
    # where the two children's own bounds give 0.25
    game, _ = make_instance("diagonal", n=3, m=3)
    deadlines = []
    solve = solvers.solve_lp

    def first_past_its_deadline(lp, deadline):
        deadlines.append(deadline)
        return solve(lp, -math.inf if len(deadlines) == 1 else deadline)

    monkeypatch.setattr(solvers, "solve_lp", first_past_its_deadline)
    start = time.perf_counter()
    report = global_optimize(game, accuracy=1e-3, timeout=3600.0, max_nodes=1)
    assert report.upper_bound == report.correlated_bound
    assert len(deadlines) == 2 and deadlines[0] == deadlines[1]
    assert start < deadlines[0] - 3600.0 < time.perf_counter()
    deadlines.clear()
    monkeypatch.setattr(
        solvers,
        "solve_lp",
        lambda lp, deadline: deadlines.append(deadline) or solve(lp, deadline),
    )
    report = global_optimize(game, accuracy=1e-3, timeout=None, max_nodes=1)
    assert deadlines == [math.inf, math.inf]
    assert report.upper_bound < 0.26


@pytest.mark.parametrize(
    "planted, upper",
    [
        # below v_C, the parent's bound, and above the other child's 0.2
        (0.3, 0.3),
        # above the parent's bound, which then holds the child
        (0.5, 1.0 / 3.0),
        # below the incumbent 1/9: the child is not pushed, and the other
        # child's certificate proves 0.2 up to rounding
        (0.05, 0.20000000000000007),
    ],
)
def test_a_child_whose_certificate_fails_keeps_the_smaller_bound(
    monkeypatch, planted, upper
):
    # the root's first child gets a planted certificate bound: the child is
    # pushed with the smaller of that bound and the root's, v_C. After one
    # node the upper bound is the larger child's; the search then goes on
    # and closes the bracket
    game, facts = make_instance("diagonal", n=3, m=3)
    calls = []
    check = solvers.check_maxmin

    def first_child_planted(*args):
        calls.append(None)
        bound, x = check(*args)
        if len(calls) == 1:
            return planted, x
        return bound, x

    monkeypatch.setattr(solvers, "check_maxmin", first_child_planted)
    report = global_optimize(game, accuracy=1e-3, max_nodes=1)
    assert report.correlated_bound == 1.0 / 3.0
    assert report.upper_bound == upper
    calls.clear()
    report = global_optimize(game, accuracy=1e-3, max_nodes=1000)
    assert report.converged
    known = facts.known_team_maxmin
    assert report.lower_bound - BOUND_SLACK <= known <= report.upper_bound


def test_global_argument_validation():
    game, _ = diagonal_game(3, 2)
    with pytest.raises(ValueError):
        global_optimize(game, accuracy=0.0)
    for timeout in (-1.0, math.nan):
        with pytest.raises(ValueError, match="timeout must be nonnegative"):
            global_optimize(game, timeout=timeout)
    unnormalized = TeamGame(3, (2, 2, 2), np.arange(8, dtype=float))
    with pytest.raises(ValueError):
        global_optimize(unnormalized)


@pytest.mark.parametrize(
    "solve",
    [
        reconstruct_best_pivot,
        lambda game, timeout: support_enumeration(game, 1.0, timeout=timeout),
        lambda game, timeout: iterated_lp(game, restarts=2, timeout=timeout),
        lambda game, timeout: global_optimize(
            game, accuracy=0.3, max_nodes=50, timeout=timeout
        ),
        lambda game, timeout: grid_oracle(game, 0.1, timeout=timeout),
    ],
    ids=["reconstruct", "support-enum", "iterated-lp", "global", "oracle"],
)
def test_a_timeout_of_none_sets_no_limit(solve):
    game, _ = diagonal_game(3, 2)
    result = solve(game, timeout=None)
    if isinstance(result, SolveReport):
        assert result.converged
    else:
        assert result.error_bound < math.inf


# the solver function behind each registry name
_SOLVER_FUNCTIONS = {
    "reconstruct": reconstruct_best_pivot,
    "support-enum": support_enumeration,
    "iterated-lp": iterated_lp,
    "global": global_optimize,
    "oracle": grid_oracle,
}


@pytest.mark.parametrize("name", SOLVER_NAMES)
@pytest.mark.parametrize("timeout", [-5.0, math.nan])
def test_solver_functions_reject_a_negative_or_nan_timeout(name, timeout):
    # no clock reading is ever past a NaN deadline, so NaN would mean no limit
    game, _ = diagonal_game(3, 2)
    with pytest.raises(ValueError, match="timeout must be nonnegative"):
        _SOLVER_FUNCTIONS[name](game, timeout=timeout)


@pytest.mark.parametrize("name", SOLVER_NAMES)
@pytest.mark.parametrize("timeout", [True, "5"])
def test_solver_functions_reject_a_timeout_of_the_wrong_type(name, timeout):
    # True is not 1 second, and "5" is not parsed
    game, _ = diagonal_game(3, 2)
    with pytest.raises(ValueError, match="timeout must be float, got"):
        _SOLVER_FUNCTIONS[name](game, timeout=timeout)


# ---------------------------------------------------------------------------
# registry


# parameters that make each solver quick on diagonal_game(3, 2)
_QUICK = {
    "reconstruct": {},
    "support-enum": {"epsilon": 1.0},
    "iterated-lp": {"restarts": 2, "seed": 0},
    "global": {"accuracy": 0.3, "max_nodes": 50},
    "oracle": {"target_error": 0.1},
}


@pytest.mark.parametrize("name", SOLVER_NAMES)
def test_run_solver_calls_the_solver_by_its_module_level_name(monkeypatch, name):
    # a wrapper installed on the name, as the benchmark's tracer does, sees
    # the call
    function = _SOLVER_FUNCTIONS[name]

    def called(*args, **params):
        raise LookupError(function.__name__)

    monkeypatch.setattr(f"teammax.solvers.{function.__name__}", called)
    with pytest.raises(LookupError, match=function.__name__):
        run_solver(name, diagonal_game(3, 2)[0])


def test_solver_parameters_are_the_signature_defaults():
    # the command line's flags, the configs and the benchmark use these
    # names, types and defaults
    pinned = {
        "reconstruct": {},
        "support-enum": {"epsilon": 1.0},
        "iterated-lp": {
            "init": "random",
            "restarts": 10,
            "seed": 0,
        },
        "global": {"accuracy": 1e-6, "max_nodes": 20_000},
        "oracle": {"target_error": 0.01},
    }
    for name, defaults in pinned.items():
        resolved = solver_params(name, {})
        assert list(resolved.items()) == list(defaults.items())
        assert SOLVERS[name][1] == {
            key: (type(value), value) for key, value in defaults.items()
        }


@pytest.mark.parametrize("name", SOLVER_NAMES)
def test_run_solver_timeout_none_sets_no_limit(monkeypatch, name):
    deadline = solvers._deadline
    deadlines = []

    def recorded(start, timeout):
        deadlines.append(deadline(start, timeout) - start)
        return deadline(start, timeout)

    monkeypatch.setattr(solvers, "_deadline", recorded)
    game, _ = diagonal_game(3, 2)
    run_solver(name, game, timeout=None, **_QUICK[name])
    assert deadlines[0] == math.inf
    # left out, the timeout is DEFAULT_TIMEOUT
    deadlines.clear()
    run_solver(name, game, **_QUICK[name])
    assert deadlines[0] == pytest.approx(DEFAULT_TIMEOUT)
    # and so is the solver function's, called directly
    deadlines.clear()
    _SOLVER_FUNCTIONS[name](game, **_QUICK[name])
    assert deadlines[0] == pytest.approx(DEFAULT_TIMEOUT)


def test_run_solver_every_name():
    game, _ = diagonal_game(3, 2)
    for name in SOLVER_NAMES:
        report = run_solver(name, game, **_QUICK[name])
        assert isinstance(report, SolveReport)
        assert report.lower_bound <= report.upper_bound + 1e-7


@pytest.mark.parametrize(
    "name,instance,params,pinned",
    [
        (
            "support-enum",
            ("random", 3, 3, 1),
            {"epsilon": 0.5},
            {"lower_bound": 0.6757893357143951, "iterations": 100, "converged": True},
        ),
        (
            "oracle",
            ("random", 3, 3, 1),
            {"target_error": 0.05},
            {"iterations": 164_836, "converged": True},
        ),
        (
            "global",
            ("random", 3, 4, 1),
            {"accuracy": 1e-3, "max_nodes": 3000},
            {
                "lower_bound": 0.5893829008703708,
                "upper_bound": 0.5896677118601121,
                "iterations": 12,
            },
        ),
        (
            "iterated-lp",
            ("random", 4, 3, 0),
            {"restarts": 20, "seed": 0},
            {
                "lower_bound": 0.7708190080679963,
                "upper_bound": 0.8347443994613483,
                "iterations": 109,
            },
        ),
        (
            "iterated-lp",
            ("random", 4, 3, 0),
            {},
            {"lower_bound": 0.7708190080679963, "iterations": 65, "restarts_used": 10},
        ),
        (
            "reconstruct",
            ("irrational-flawed",),
            {},
            {"lower_bound": 0.0, "upper_bound": 0.0, "iterations": 2},
        ),
    ],
    ids=[
        "support-enum",
        "oracle",
        "global",
        "iterated-lp",
        "iterated-lp-defaults",
        "reconstruct-flawed",
    ],
)
def test_run_solver_keeps_the_pinned_solves(name, instance, params, pinned):
    # the solves the CI example step pins from the command line, to the
    # digits printed: a bit that flips in the grid search, the node loop,
    # the best-response step or the reconstruction fails here
    game, _ = make_instance(*instance)
    report = run_solver(name, game, **params)
    assert {key: getattr(report, key) for key in pinned} == pinned


@pytest.mark.parametrize("name", SOLVER_NAMES)
@pytest.mark.parametrize("timeout", [-5.0, math.nan])
def test_run_solver_rejects_a_negative_or_nan_timeout(monkeypatch, name, timeout):
    # checked before any work: none of them treats -5 as 0 or NaN as no limit
    def no_work(*args, **params):
        raise AssertionError("worked before checking the timeout")

    for work in ("solve_maxmin", "team_value", "_grid_search"):
        monkeypatch.setattr(solvers, work, no_work)
    game, _ = diagonal_game(3, 2)
    with pytest.raises(ValueError, match="timeout must be nonnegative"):
        run_solver(name, game, timeout=timeout)


def test_run_solver_unknown_name():
    game, _ = diagonal_game(3, 2)
    with pytest.raises(ValueError):
        run_solver("newton", game)


def test_run_solver_rejects_unknown_parameter():
    game, _ = diagonal_game(3, 2)
    with pytest.raises(ValueError, match="accepts epsilon$"):
        run_solver("support-enum", game, espilon=0.5)
    with pytest.raises(ValueError, match="does not take seed"):
        run_solver("reconstruct", game, seed=0)
    # global's ascent runs 8 restarts from seed 0, set by global alone
    with pytest.raises(ValueError, match="does not take restarts, seed; "):
        run_solver("global", game, seed=1, restarts=3)


# Each case names itself, so that deleting one renames no other; the names
# are the ones pytest gave the cases by their position, kept as they were.
@pytest.mark.parametrize(
    "name, params, key",
    [
        pytest.param(
            "iterated-lp", {"restarts": 2.7}, "restarts",
            id="iterated-lp-params0-restarts",
        ),
        pytest.param(
            "iterated-lp", {"restarts": True}, "restarts",
            id="iterated-lp-params1-restarts",
        ),
        pytest.param(
            "global", {"accuracy": "1e-3"}, "accuracy",
            id="global-params2-accuracy",
        ),
        pytest.param(
            "support-enum", {"epsilon": False}, "epsilon",
            id="support-enum-params3-epsilon",
        ),
        pytest.param(
            "global", {"max_nodes": 10.0}, "max_nodes",
            id="global-params4-max_nodes",
        ),
        pytest.param(
            "oracle", {"target_error": None}, "target_error",
            id="oracle-params5-target_error",
        ),
    ],
)
def test_solver_params_rejects_values_of_the_wrong_type(name, params, key):
    with pytest.raises(ValueError, match=f"solver '{name}': {key} must be"):
        solver_params(name, params)


@pytest.mark.parametrize(
    "name, params, message",
    [
        pytest.param(
            "support-enum", {"epsilon": 2.0}, "epsilon must be in (0, 1], got 2.0",
            id="support-enum-params0-epsilon must be in (0, 1], got 2.0",
        ),
        pytest.param(
            "support-enum", {"epsilon": 0.0}, "epsilon must be in (0, 1], got 0.0",
            id="support-enum-params1-epsilon must be in (0, 1], got 0.0",
        ),
        pytest.param(
            "iterated-lp", {"init": "uniformly"}, "init must be 'random' or 'uniform'",
            id="iterated-lp-params2-init must be 'random' or 'uniform'",
        ),
        pytest.param(
            "iterated-lp", {"restarts": 0}, "restarts must be at least 1, got 0",
            id="iterated-lp-params3-restarts must be at least 1, got 0",
        ),
        pytest.param(
            "global", {"accuracy": math.nan}, "accuracy must be positive, got nan",
            id="global-params4-accuracy must be positive, got nan",
        ),
        pytest.param(
            "global", {"accuracy": 0.0}, "accuracy must be positive, got 0.0",
            id="global-params5-accuracy must be positive, got 0.0",
        ),
        pytest.param(
            "oracle", {"target_error": -1.0}, "target_error must be positive, got -1.0",
            id="oracle-params6-target_error must be positive, got -1.0",
        ),
        pytest.param(
            "global", {"max_nodes": -1}, "max_nodes must be nonnegative, got -1",
            id="global-params9-max_nodes must be nonnegative, got -1",
        ),
        pytest.param(
            "oracle", {"target_error": math.nan}, "target_error must be positive, got nan",
            id="oracle-params10-target_error must be positive, got nan",
        ),
    ],
)
def test_solver_params_checks_ranges_and_choices(name, params, message):
    with pytest.raises(ValueError, match=re.escape(f"solver '{name}': {message}")):
        solver_params(name, params)
    # the solver function runs the same check before any work
    game, _ = diagonal_game(3, 2)
    with pytest.raises(ValueError, match=re.escape(message)):
        _SOLVER_FUNCTIONS[name](game, **params)


def test_solver_params_takes_an_int_for_a_float():
    resolved = solver_params("global", {"accuracy": 1, "max_nodes": 3})
    assert type(resolved["accuracy"]) is float and resolved["accuracy"] == 1.0
    assert type(resolved["max_nodes"]) is int
    # None is not a value: every parameter has a default to fall back on
    with pytest.raises(ValueError, match="epsilon must be float, got None"):
        solver_params("support-enum", {"epsilon": None})


def test_registry_accepts_every_shipped_parameter():
    workloads = runpy.run_path(str(REPO / "bench" / "workloads.py"), run_name="w")
    used = [
        (rung.solver, rung.params)
        for workload in workloads["WORKLOADS"].values()
        for rung in workload.rungs + workload.smoke
    ]
    for path in sorted((REPO / "configs").glob("*.json")):
        entries = json.loads(path.read_text())["solvers"]
        used += [(entry["name"], entry.get("params", {})) for entry in entries]
    assert len({name for name, _ in used}) >= 5
    for name, params in used:
        solver_params(name, params)


def test_readme_solver_table_lists_the_registry():
    readme = (REPO / "README.md").read_text()
    table = readme.split("## Solvers", 1)[1].split("\n\n", 2)[1]
    names = re.findall(r"^\| `([^`]+)` \|", table, flags=re.MULTILINE)
    assert tuple(names) == SOLVER_NAMES


def test_readme_library_quick_start_runs():
    # the package's top-level names are the ones this block imports
    readme = (REPO / "README.md").read_text()
    block = readme.split("## Quick start (library)", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["v_c"] == 0.5


def test_run_solver_reconstruct_is_at_least_every_single_pivot():
    for seed in range(3):
        game = normalize_payoffs(random_team_game(4, 3, seed=seed))
        dist, v_c = correlated_team_maxmin(game)
        report = run_solver("reconstruct", game)
        assert report.upper_bound == max(v_c, report.lower_bound)
        for pivot in range(game.num_team_members):
            single = team_value(game, reconstruct_mixed(dist, game, pivot)).value
            assert report.lower_bound >= single


def test_run_solver_passes_epsilon_through():
    game = normalize_payoffs(random_team_game(3, 3, seed=0))
    report = run_solver("support-enum", game, epsilon=1.0)
    assert report.iterations == 9
