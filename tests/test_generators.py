"""Benchmark family tests: tensors checked entry by entry against their
defining rules, analytic facts checked against independent closed forms."""

import math

import numpy as np
import pytest

from teammax.game import CapacityError, team_value, TeamProfile
from teammax.generators import (
    GENERATOR_FAMILIES,
    coordination_game,
    diagonal_game,
    irrational_game,
    make_instance,
    poa_game,
    pou_one_game,
    random_team_game,
)


def test_poa_game_tensor():
    game, facts = poa_game()
    assert game.actions_per_player == (2, 2, 2)
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = expected[1, 1, 1] = 1.0
    assert np.array_equal(game.team_utility, expected)
    assert facts.known_team_maxmin == pytest.approx(0.25)
    assert facts.known_correlated_value == pytest.approx(0.5)
    assert facts.known_pou == pytest.approx(2.0)


def test_poa_game_notable_profiles_evaluate_as_recorded():
    game, facts = poa_game()
    names = {p.name for p in facts.notable_profiles}
    assert "all-uniform" in names
    for prof in facts.notable_profiles:
        if prof.expected_value is None or prof.adversary is None:
            continue
        team = TeamProfile(tuple(prof.team))
        from teammax.game import expected_team_utility

        value = expected_team_utility(game, team, prof.adversary)
        assert value == pytest.approx(prof.expected_value, abs=1e-12)


@pytest.mark.parametrize("n,m", [(3, 2), (3, 3), (4, 2)])
def test_diagonal_game_is_equality_indicator(n, m):
    game, facts = diagonal_game(n, m)
    assert game.actions_per_player == (m,) * n
    tensor = game.team_utility
    for index in np.ndindex(*tensor.shape):
        expected = 1.0 if len(set(index)) == 1 else 0.0
        assert tensor[index] == expected
    assert facts.known_team_maxmin == pytest.approx(m ** -(n - 1))
    assert facts.known_correlated_value == pytest.approx(1.0 / m)
    assert facts.known_pou == pytest.approx(float(m ** (n - 2)))


def test_diagonal_game_uniform_profile_attains_the_value():
    game, facts = diagonal_game(3, 3)
    prof = next(p for p in facts.notable_profiles if "uniform" in p.name)
    value = team_value(game, TeamProfile(tuple(prof.team))).value
    assert value == pytest.approx(facts.known_team_maxmin, abs=1e-12)


def test_diagonal_game_rejects_small_n():
    with pytest.raises(ValueError):
        diagonal_game(2, 2)


def test_pou_one_game_matching_indicator():
    game, facts = pou_one_game()
    tensor = game.team_utility
    for i, j, k in np.ndindex(*tensor.shape):
        assert tensor[i, j, k] == (1.0 if i == j else 0.0)
    assert facts.known_pou == pytest.approx(1.0)
    assert facts.known_team_maxmin == pytest.approx(1.0)


def test_coordination_game_single_adversary_action():
    game, facts = coordination_game(3, 3)
    assert game.adversary_size == 1
    tensor = game.team_utility
    for i, j in np.ndindex(3, 3):
        assert tensor[i, j, 0] == (1.0 if i == j else 0.0)
    assert facts.known_team_maxmin == pytest.approx(1.0)
    names = {p.name for p in facts.notable_profiles}
    assert any("diagonal" in name or "pure" in name for name in names)


def test_coordination_game_four_players():
    game, _ = coordination_game(4, 2)
    assert game.actions_per_player == (2, 2, 2, 1)
    assert game.team_utility[0, 0, 0, 0] == 1.0
    assert game.team_utility[0, 0, 1, 0] == 0.0


def test_irrational_game_fixed_tensor():
    game, facts = irrational_game()
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 1.0
    expected[1, 1, 1] = 2.0
    assert np.array_equal(game.team_utility, expected)
    assert facts.known_team_maxmin == pytest.approx(6.0 - 4.0 * math.sqrt(2.0))
    assert facts.known_correlated_value == pytest.approx(2.0 / 3.0)


def test_irrational_game_optimal_mix_evaluates_to_known_value():
    game, facts = irrational_game()
    prof = next(p for p in facts.notable_profiles if "optimal" in p.name)
    s = 2.0 - math.sqrt(2.0)
    assert prof.team[0].probs[0] == pytest.approx(s)
    value = team_value(game, TeamProfile(tuple(prof.team))).value
    assert value == pytest.approx(6.0 - 4.0 * math.sqrt(2.0), abs=1e-12)


def test_irrational_game_flawed_variant_worthless():
    game, facts = irrational_game(fixed_sign=False)
    assert game.team_utility.min() == -2.0
    assert facts.known_team_maxmin == pytest.approx(0.0)
    # each mismatch profile guarantees 0 regardless of the adversary
    for prof in facts.notable_profiles:
        if "mismatch" not in prof.name:
            continue
        value = team_value(game, TeamProfile(tuple(prof.team))).value
        assert value == pytest.approx(0.0, abs=1e-12)


def test_random_game_deterministic_per_seed():
    a = random_team_game(3, 4, seed=9)
    b = random_team_game(3, 4, seed=9)
    c = random_team_game(3, 4, seed=10)
    assert np.array_equal(a.team_utility, b.team_utility)
    assert not np.array_equal(a.team_utility, c.team_utility)
    assert a.seed == 9
    assert "random" in a.name


def test_random_game_entries_in_unit_interval():
    game = random_team_game(4, 3, seed=0)
    assert game.team_utility.shape == (3, 3, 3, 3)
    assert game.team_utility.min() >= 0.0
    assert game.team_utility.max() < 1.0


def test_random_game_capacity_precheck():
    with pytest.raises(CapacityError):
        random_team_game(8, 12, seed=0)


def test_make_instance_dispatch():
    assert set(GENERATOR_FAMILIES) == {
        "poa",
        "diagonal",
        "pou-one",
        "coordination",
        "irrational",
        "irrational-flawed",
        "random",
    }
    game, facts = make_instance("diagonal", n=3, m=2)
    assert game.actions_per_player == (2, 2, 2)
    assert facts is not None
    game, facts = make_instance("random", n=3, m=2, seed=5)
    assert facts is None
    assert game.seed == 5
    game, _ = make_instance("irrational-flawed")
    assert game.team_utility.min() == -2.0
    with pytest.raises(TypeError):  # families take no parameters
        make_instance("irrational", fixed_sign=False)


def test_make_instance_irrational_flawed_is_the_sign_flawed_game():
    game, facts = make_instance("irrational-flawed")
    expected, expected_facts = irrational_game(fixed_sign=False)
    assert game.team_utility.tobytes() == expected.team_utility.tobytes()
    assert game.name == expected.name == "irrational-flawed"
    for name in ("known_team_maxmin", "known_correlated_value", "known_pou"):
        assert getattr(facts, name) == getattr(expected_facts, name)
    assert facts.provenance == expected_facts.provenance
    assert [
        (p.name, p.expected_value, [s.probs.tobytes() for s in p.team])
        for p in facts.notable_profiles
    ] == [
        (p.name, p.expected_value, [s.probs.tobytes() for s in p.team])
        for p in expected_facts.notable_profiles
    ]


def test_make_instance_errors():
    with pytest.raises(ValueError):
        make_instance("no-such-family")
    with pytest.raises(ValueError):
        make_instance("diagonal", n=3)  # m missing
    # a missing seed defaults to 0 rather than failing
    defaulted, _ = make_instance("random", n=3, m=2)
    assert np.array_equal(
        defaulted.team_utility, random_team_game(3, 2, seed=0).team_utility
    )
    # poa ignores n and m entirely
    game, _ = make_instance("poa", n=99, m=99)
    assert game.actions_per_player == (2, 2, 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: diagonal_game(3, 0), "need at least one action, got 0"),
        (lambda: coordination_game(1, 2), "need at least 2 players, got 1"),
        (lambda: coordination_game(3, 0), "need at least one action, got 0"),
        (lambda: random_team_game(1, 2, seed=0), "need at least 2 players, got 1"),
        (lambda: random_team_game(3, 0, seed=0), "need at least one action, got 0"),
    ],
    ids=["diagonal-m", "coordination-n", "coordination-m", "random-n", "random-m"],
)
def test_sizes_below_range_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()
