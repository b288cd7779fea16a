"""Game model tests: tensor layout, evaluation, verification, persistence.

Expected numbers are computed by hand from the counting tensor
U[i, j, k] = 4i + 2j + k on a 2x2x2 game, so any axis-order mistake in the
implementation shows up immediately.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teammax.game import (
    CapacityError,
    GameFormatError,
    JointDistribution,
    MixedStrategy,
    TeamGame,
    TeamProfile,
    contract_except,
    expected_team_utility,
    game_from_dict,
    game_to_dict,
    load_game,
    load_strategies,
    normalize_payoffs,
    per_adversary_utilities,
    pure_adversary,
    pure_profile,
    pure_strategy,
    save_game,
    strategies_from_dict,
    team_value,
    to_joint_game,
    uniform_adversary,
    uniform_profile,
    uniform_strategy,
    verify_nash,
)


def counting_game() -> TeamGame:
    return TeamGame(
        num_players=3,
        actions_per_player=(2, 2, 2),
        team_utility=np.arange(8, dtype=float),
    )


def test_tensor_layout_is_row_major():
    game = counting_game()
    assert game.team_utility[1, 0, 1] == 5.0
    assert game.team_utility[0, 1, 0] == 2.0


def test_shape_properties():
    game = TeamGame(4, (2, 3, 4, 5), np.zeros(120))
    assert game.num_team_members == 3
    assert game.team_sizes == (2, 3, 4)
    assert game.adversary_size == 5
    assert game.joint_team_size == 24
    assert game.max_team_actions == 4


def test_tensor_is_frozen():
    game = counting_game()
    with pytest.raises(ValueError):
        game.team_utility[0, 0, 0] = 99.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_players=1, actions_per_player=(2,), team_utility=np.zeros(2)),
        dict(num_players=3, actions_per_player=(2, 2), team_utility=np.zeros(8)),
        dict(num_players=3, actions_per_player=(2, 0, 2), team_utility=np.zeros(0)),
        dict(num_players=3, actions_per_player=(2, 2, 2), team_utility=np.zeros(7)),
        dict(
            num_players=3,
            actions_per_player=(2, 2, 2),
            team_utility=np.full(8, np.nan),
        ),
    ],
)
def test_invalid_games_rejected(kwargs):
    with pytest.raises((GameFormatError, ValueError)):
        TeamGame(**kwargs)


def test_tensor_size_cap():
    with pytest.raises(CapacityError):
        TeamGame(3, (5000, 5000, 5000), np.zeros(1))


def test_mixed_strategy_validation():
    MixedStrategy(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        MixedStrategy(np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        MixedStrategy(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        MixedStrategy(np.array([np.nan, 1.0]))
    with pytest.raises(ValueError):
        MixedStrategy(np.array([]))


def test_probability_vectors_reject_every_invalid_entry():
    for bad in ([np.nan, 1.0], [np.inf, 1.0], [-np.inf, 1.0], [-0.5, 1.5], [0.6, 0.6]):
        with pytest.raises(ValueError, match="nonnegative and sum to 1"):
            MixedStrategy(np.array(bad))
        with pytest.raises(ValueError, match="nonnegative and sum to 1"):
            JointDistribution((2,), np.array(bad))


def test_team_profile_requires_a_strategy():
    with pytest.raises(ValueError):
        TeamProfile(())


def test_per_adversary_utilities_by_hand():
    game = counting_game()
    profile = TeamProfile(
        (
            MixedStrategy(np.array([0.5, 0.5])),
            MixedStrategy(np.array([1.0, 0.0])),
        )
    )
    # 0.5*U[0,0,k] + 0.5*U[1,0,k] = k + 2
    assert np.allclose(per_adversary_utilities(game, profile), [2.0, 3.0])
    report = team_value(game, profile)
    assert report.value == pytest.approx(2.0)
    assert report.minimizing_adversary_action == 0


def test_team_value_tie_prefers_lowest_action():
    game = TeamGame(3, (2, 2, 2), np.ones(8))
    report = team_value(game, uniform_profile(game))
    assert report.minimizing_adversary_action == 0


def test_expected_team_utility_by_hand():
    game = counting_game()
    profile = TeamProfile(
        (
            MixedStrategy(np.array([0.5, 0.5])),
            MixedStrategy(np.array([1.0, 0.0])),
        )
    )
    adversary = MixedStrategy(np.array([0.25, 0.75]))
    assert expected_team_utility(game, profile, adversary) == pytest.approx(2.75)


def test_profile_game_mismatch_rejected():
    game = counting_game()
    bad = TeamProfile(
        (
            MixedStrategy(np.array([0.5, 0.5])),
            MixedStrategy(np.array([1.0, 0.0, 0.0])),
        )
    )
    with pytest.raises(ValueError):
        team_value(game, bad)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda g: JointDistribution((2, 0), np.zeros(0)),
            r"invalid team sizes \(2, 0\)",
        ),
        (
            lambda g: JointDistribution((2, 2), np.full(3, 1 / 3)),
            "3 entries for 4 joint actions",
        ),
        (
            lambda g: team_value(g, TeamProfile((uniform_strategy(2),))),
            "profile has 1 strategies for 2 team members",
        ),
        (
            lambda g: expected_team_utility(g, uniform_profile(g), uniform_strategy(3)),
            "adversary strategy has 3 actions, game expects 2",
        ),
        (
            lambda g: verify_nash(g, uniform_profile(g), uniform_strategy(3)),
            "adversary strategy does not match the game",
        ),
        (lambda g: pure_profile(g, (0,)), "1 actions given for 2 members"),
    ],
    ids=[
        "joint-sizes",
        "joint-entries",
        "team-value-members",
        "expected-utility-adversary",
        "verify-nash-adversary",
        "pure-profile-members",
    ],
)
def test_inputs_that_do_not_fit_the_game_are_named(call, message):
    with pytest.raises(ValueError, match=message):
        call(counting_game())


def test_to_joint_game_rows_are_row_major_pairs():
    game = counting_game()
    matrix = to_joint_game(game)
    assert matrix.shape == (4, 2)
    assert np.array_equal(matrix, np.array([[0, 1], [2, 3], [4, 5], [6, 7]]))


def test_to_joint_game_row_cap(monkeypatch):
    game = counting_game()
    monkeypatch.setattr("teammax.game.MAX_JOINT_ROWS", 3)
    with pytest.raises(CapacityError):
        to_joint_game(game)


def test_joint_distribution_indexing_and_marginals():
    dist = JointDistribution((2, 2), np.array([0.5, 0.0, 0.5, 0.0]))
    assert np.allclose(dist.marginal(0), [0.5, 0.5])
    assert np.allclose(dist.marginal(1), [1.0, 0.0])
    assert list(dist.support(0)) == [0, 1]
    assert list(dist.support(1)) == [0]


def test_joint_rows_of_a_product_profile_give_its_team_value():
    game = counting_game()
    x = np.array([0.3, 0.7])
    y = np.array([0.6, 0.4])
    profile = TeamProfile((MixedStrategy(x), MixedStrategy(y)))
    joint = np.outer(x, y).reshape(-1) @ to_joint_game(game)
    assert joint.min() == pytest.approx(team_value(game, profile).value)


def test_verify_nash_detects_profitable_deviation():
    # team prefers to match; profile where member 1 mismatches is not stable
    tensor = np.zeros((2, 2, 1))
    tensor[0, 0, 0] = tensor[1, 1, 0] = 1.0
    game = TeamGame(3, (2, 2, 1), tensor)
    profile = pure_profile(game, (0, 1))
    verdict = verify_nash(game, profile, pure_adversary(game, 0))
    assert not verdict.is_equilibrium
    assert verdict.gaps[0] == pytest.approx(1.0)
    assert verdict.best_deviations[0] == 1
    good = verify_nash(game, pure_profile(game, (0, 0)), pure_adversary(game, 0))
    assert good.is_equilibrium


def test_verify_nash_checks_the_adversary_too():
    # adversary at action 0 loses 1; switching to action 1 loses 0
    tensor = np.zeros((2, 2, 2))
    tensor[0, 0, 0] = 1.0
    game = TeamGame(3, (2, 2, 2), tensor)
    verdict = verify_nash(
        game, pure_profile(game, (0, 0)), pure_adversary(game, 0)
    )
    assert not verdict.is_equilibrium
    assert verdict.gaps[2] == pytest.approx(1.0)
    assert verdict.best_deviations[2] == 1


def test_verify_nash_tolerance_widens_acceptance():
    tensor = np.zeros((2, 2, 1))
    tensor[0, 0, 0] = tensor[1, 1, 0] = 1.0
    game = TeamGame(3, (2, 2, 1), tensor)
    profile = pure_profile(game, (0, 1))
    assert verify_nash(
        game, profile, pure_adversary(game, 0), tolerance=1.0
    ).is_equilibrium


def test_verify_nash_rejects_a_negative_or_nan_tolerance():
    # no gap is ever <= NaN, so NaN would reject every profile
    game = counting_game()
    for tolerance in (-1e-9, math.nan):
        with pytest.raises(ValueError, match="tolerance must be nonnegative"):
            verify_nash(
                game, uniform_profile(game), uniform_adversary(game), tolerance
            )


def test_normalize_payoffs_range_and_order():
    game = counting_game()
    normalized = normalize_payoffs(game)
    assert normalized.team_utility.min() == 0.0
    assert normalized.team_utility.max() == 1.0
    assert np.allclose(normalized.team_utility, game.team_utility / 7.0)


def test_normalize_constant_game_is_zero():
    game = TeamGame(3, (2, 2, 2), np.full(8, 3.5))
    assert np.all(normalize_payoffs(game).team_utility == 0.0)


def test_constructor_helpers():
    game = counting_game()
    assert np.allclose(uniform_strategy(4).probs, 0.25)
    assert np.allclose(pure_strategy(3, 2).probs, [0, 0, 1])
    with pytest.raises(ValueError):
        pure_strategy(3, 5)
    # a strategy's player is its position: a call passing an owner fails
    for old_call in (
        lambda: MixedStrategy(0, np.ones(1)),
        lambda: uniform_strategy(0, 4),
        lambda: pure_strategy(1, 3, 2),
    ):
        with pytest.raises(TypeError):
            old_call()
    profile = uniform_profile(game)
    assert len(profile) == 2
    assert np.allclose(profile[0].probs, 0.5)
    assert uniform_adversary(game).num_actions == 2
    assert np.allclose(pure_adversary(game, 1).probs, [0, 1])
    assert np.allclose(pure_profile(game, (1, 0))[0].probs, [0, 1])


# ---------------------------------------------------------------------------
# persistence


def test_game_roundtrip(tmp_path):
    game = TeamGame(
        3, (2, 2, 2), np.arange(8, dtype=float), name="counting", seed=13
    )
    path = tmp_path / "game.json"
    save_game(game, path)
    loaded = load_game(path)
    assert loaded.num_players == 3
    assert loaded.actions_per_player == (2, 2, 2)
    assert np.array_equal(loaded.team_utility, game.team_utility)
    assert loaded.name == "counting"
    assert loaded.seed == 13


def test_game_file_is_flat_row_major(tmp_path):
    game = counting_game()
    path = tmp_path / "game.json"
    save_game(game, path)
    data = json.loads(path.read_text())
    assert data["team_utility"] == list(range(8))
    assert data["actions_per_player"] == [2, 2, 2]


def test_game_from_dict_missing_field():
    with pytest.raises(GameFormatError, match="missing 'actions_per_player'"):
        game_from_dict({"num_players": 3})
    with pytest.raises(GameFormatError, match="game document must be dict"):
        game_from_dict([{"num_players": 3}])


def test_game_from_dict_wrong_length():
    data = game_to_dict(counting_game())
    data["team_utility"] = data["team_utility"][:-1]
    with pytest.raises(GameFormatError):
        game_from_dict(data)


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(num_players=3.9), "num_players must be int, got 3.9"),
        (dict(actions_per_player=[2.7, 2, 2]), "actions_per_player must be int, got 2.7"),
        (dict(team_utility=["1", 1, 2, 3, 4, 5, 6, 7]), "team_utility must be float, got '1'"),
        (dict(team_utility=[0, 1, 2, True, 4, 5, 6, 7]), "team_utility must be float, got True"),
        (dict(team_utility=[0, 1, 2, 3, 4, 5, 6, None]), "team_utility must be float, got None"),
        (dict(team_utility="01234567"), "team_utility must be list"),
        (
            dict(team_utility=[10**400, 1, 2, 3, 4, 5, 6, 7]),
            "team_utility must be float, got an int too large for one",
        ),
        (dict(seed="5"), "seed must be int, got '5'"),
        (dict(name=5), "name must be str, got 5"),
        (dict(comment="hand-made"), "game document has unknown key 'comment'"),
    ],
)
def test_game_from_dict_names_the_malformed_key(change, message):
    data = game_to_dict(counting_game())
    game_from_dict(data)  # the base document is valid
    data.update(change)
    with pytest.raises(GameFormatError, match=re.escape(message)):
        game_from_dict(data)


@pytest.mark.parametrize(
    "data, message",
    [
        ({"strategies": [["0.5", "0.5"], [1.0, 0.0]]}, "strategies[0] must be float"),
        ({"strategies": [[0.5, 0.5], [True, False]]}, "strategies[1] must be float"),
        ({"strategies": [[0.5, 0.5], [1.0, None]]}, "strategies[1] must be float"),
        ({"strategies": [[0.5, 0.5], 1.0]}, "strategies[1] must be list"),
        ({"strategies": {"0": [1.0]}}, "strategies must be list"),
        ({"strategies": [[1.0]], "comment": 1}, "has unknown key 'comment'"),
        ({}, "profile document is missing 'strategies'"),
        (
            {"strategies": [[0.5, 0.5], [0.7, 0.7]]},
            "strategies[1]: probs must be nonnegative and sum to 1: min 0.7, sum 1.4",
        ),
        ({"strategies": [[1.0], []]}, "strategies[1]: probs must be a nonempty vector"),
    ],
)
def test_strategies_from_dict_names_the_malformed_key(data, message):
    with pytest.raises(GameFormatError, match=re.escape(message)):
        strategies_from_dict(data)


def test_load_game_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(GameFormatError):
        load_game(path)


def test_profile_roundtrip(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"strategies": [[0.25, 0.75], [1.0, 0.0]]}))
    loaded = load_strategies(path)
    assert len(loaded) == 2
    assert np.allclose(loaded[0].probs, [0.25, 0.75])


def test_load_strategies_rejects_bad_payload(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"strategies": [[0.7, 0.7]]}))
    with pytest.raises((GameFormatError, ValueError)):
        load_strategies(path)


# ---------------------------------------------------------------------------
# properties


@given(st.integers(min_value=0, max_value=10_000))
def test_value_report_dominated_by_expected_utility(seed):
    # worst case over adversary actions is never better than any mixture
    from teammax.rng import SplitMix64

    rng = SplitMix64(seed)
    tensor = rng.floats(8).reshape(2, 2, 2)
    game = TeamGame(3, (2, 2, 2), tensor)
    profile = TeamProfile(
        (
            MixedStrategy(rng.simplex_point(2)),
            MixedStrategy(rng.simplex_point(2)),
        )
    )
    adversary = MixedStrategy(rng.simplex_point(2))
    worst = team_value(game, profile).value
    assert worst <= expected_team_utility(game, profile, adversary) + 1e-12


def _tensordot_contraction(tensor, vectors, keep=None):
    # contract_except as np.moveaxis and np.tensordot compute it
    out = tensor if keep is None else np.moveaxis(tensor, keep, 0)
    axis = 0 if keep is None else 1
    for j, vec in enumerate(vectors):
        if j != keep:
            out = np.tensordot(out, vec, axes=([axis], [0]))
    return out


@settings(max_examples=300)
@given(
    st.lists(st.integers(1, 6), min_size=2, max_size=5),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_contraction_is_tensordot_bit_for_bit(shape, adversary_too, seed, data):
    # contract_except hands np.dot the operands np.tensordot would, so the
    # bits must match tensordot's on whatever numpy runs the tests; vectors
    # for every team member, or for every player as verify_nash passes them
    rng = np.random.default_rng(seed)
    tensor = rng.standard_normal(shape)
    count = len(shape) if adversary_too else len(shape) - 1
    vectors = [rng.dirichlet(np.ones(m)) for m in shape[:count]]
    keep = data.draw(st.none() | st.integers(0, count - 1))
    got = contract_except(tensor, vectors, keep)
    want = _tensordot_contraction(tensor, vectors, keep)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()
