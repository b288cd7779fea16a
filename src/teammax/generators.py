"""Game instance generators.

Each fixed family returns a (TeamGame, InstanceFacts) pair. The facts carry
analytically known values together with a short provenance note describing
the derivation, so tests can hold solvers against ground truth.
Random games come from the in-package SplitMix64 stream and are fully
reproducible from (n, m, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .game import (
    CapacityError,
    MAX_TENSOR_ENTRIES,
    MixedStrategy,
    TeamGame,
    TeamProfile,
    pure_adversary,
    pure_profile,
    uniform_adversary,
    uniform_profile,
)
from .rng import SplitMix64


@dataclass(frozen=True, eq=False)
class NamedProfile:
    """A profile worth knowing about, with its analytic expected value.

    expected_value is the worst-case team value when adversary is None,
    otherwise the expected team utility against that adversary mixture.
    """

    name: str
    team: TeamProfile
    adversary: MixedStrategy | None
    expected_value: float


@dataclass(frozen=True, eq=False)
class InstanceFacts:
    """Ground truth shipped with a generated instance.

    provenance maps fact names to one-line derivations; every stated value
    carries one.
    """

    known_team_maxmin: float | None = None
    known_correlated_value: float | None = None
    known_pou: float | None = None
    notable_profiles: tuple[NamedProfile, ...] = ()
    provenance: dict[str, str] = field(default_factory=dict)


def poa_game() -> tuple[TeamGame, InstanceFacts]:
    """Three players, two actions each, team payoff 1 on exactly the two
    outcomes where everyone picks the same index.

    The all-uniform profile is a Nash equilibrium worth 0.25 to the team,
    but two pure equilibria are worth 0, so equilibrium selection alone can
    be arbitrarily bad relative to the team-maxmin value.
    """
    tensor = np.zeros((2, 2, 2))
    tensor[0, 0, 0] = 1.0
    tensor[1, 1, 1] = 1.0
    game = TeamGame(3, (2, 2, 2), tensor, name="poa")
    uniform = uniform_profile(game)
    facts = InstanceFacts(
        known_team_maxmin=0.25,
        known_correlated_value=0.5,
        known_pou=2.0,
        notable_profiles=(
            NamedProfile("all-uniform", uniform, uniform_adversary(game), 0.25),
            NamedProfile(
                "worst-equilibrium-a",
                pure_profile(game, (1, 1)),
                pure_adversary(game, 0),
                0.0,
            ),
            NamedProfile(
                "worst-equilibrium-b",
                pure_profile(game, (0, 0)),
                pure_adversary(game, 1),
                0.0,
            ),
        ),
        provenance={
            "known_team_maxmin": (
                "uniform team play gives 1/4 against either adversary action; "
                "no profile does better since min(pq, (1-p)(1-q)) <= 1/4"
            ),
            "known_correlated_value": (
                "half weight on each matching joint action gives 1/2 against "
                "both columns; total matching mass bounds the value"
            ),
            "known_pou": "ratio of the two values above",
            "notable_profiles": (
                "worst equilibria: matched team pair with the adversary on the "
                "other index, no unilateral deviation gains"
            ),
        },
    )
    return game, facts


def diagonal_game(n: int, m: int) -> tuple[TeamGame, InstanceFacts]:
    """n players with m actions each; payoff 1 only when all n actions
    (the adversary's included) coincide.

    Correlating on the m matching joint actions is worth 1/m regardless of
    the adversary, while independent mixing pays only 1/m^(n-1), which makes
    the correlated-to-independent gap exactly m^(n-2), the worst possible.
    m = 1 is allowed and degenerate: every value is 1.
    """
    if n < 3:
        raise ValueError(f"need at least 3 players, got {n}")
    if m < 1:
        raise ValueError(f"need at least one action, got {m}")
    _check_size(m, n)
    tensor = np.zeros((m,) * n)
    idx = np.arange(m)
    tensor[(idx,) * n] = 1.0
    game = TeamGame(n, (m,) * n, tensor, name=f"diagonal-n{n}-m{m}")
    uniform = uniform_profile(game)
    facts = InstanceFacts(
        known_team_maxmin=float(m) ** -(n - 1),
        known_correlated_value=1.0 / m,
        known_pou=float(m) ** (n - 2),
        notable_profiles=(
            NamedProfile("uniform-team", uniform, None, float(m) ** -(n - 1)),
        ),
        provenance={
            "known_team_maxmin": (
                "uniform play matches any adversary action with probability "
                "(1/m)^(n-1); a symmetrization argument shows uniform is optimal"
            ),
            "known_correlated_value": (
                "uniform weight on the m matching joint team actions pays 1/m "
                "against every column and no joint strategy beats it"
            ),
            "known_pou": "ratio of the two values above: m^(n-2)",
            "notable_profiles": "uniform team profile attains the maxmin value",
        },
    )
    return game, facts


def pou_one_game() -> tuple[TeamGame, InstanceFacts]:
    """Three players; the team is paid 1 whenever its two members match,
    whatever the adversary does.

    A pure matched pair already guarantees 1, so correlation buys nothing
    here: the correlated and independent values agree.
    """
    tensor = np.zeros((2, 2, 2))
    tensor[0, 0, :] = 1.0
    tensor[1, 1, :] = 1.0
    game = TeamGame(3, (2, 2, 2), tensor, name="pou-one")
    facts = InstanceFacts(
        known_team_maxmin=1.0,
        known_correlated_value=1.0,
        known_pou=1.0,
        notable_profiles=(
            NamedProfile("matched-pure", pure_profile(game, (0, 0)), None, 1.0),
        ),
        provenance={
            "known_team_maxmin": (
                "the pure matched pair pays 1 against both adversary actions "
                "and payoffs never exceed 1"
            ),
            "known_correlated_value": "sandwiched between the maxmin value and 1",
            "known_pou": "both values equal 1",
            "notable_profiles": "pure matched pair, payoff is adversary-independent",
        },
    )
    return game, facts


def coordination_game(n: int, m: int) -> tuple[TeamGame, InstanceFacts]:
    """n - 1 team members with m actions each, a single adversary action,
    payoff 1 exactly when all team members coordinate on one index.

    Pure coordination is worth 1 while blind uniform mixing is worth only
    1/m^(n-2); local search started from uniform cannot tell its candidate
    moves apart and stays put at that fraction of the optimum.
    """
    if n < 2:
        raise ValueError(f"need at least 2 players, got {n}")
    if m < 1:
        raise ValueError(f"need at least one action, got {m}")
    _check_size(m, n - 1)
    team = n - 1
    tensor = np.zeros((m,) * team + (1,))
    idx = np.arange(m)
    tensor[(idx,) * team + (0,)] = 1.0
    game = TeamGame(n, (m,) * team + (1,), tensor, name=f"coordination-n{n}-m{m}")
    uniform_value = float(m) ** -(n - 2)
    facts = InstanceFacts(
        known_team_maxmin=1.0,
        known_correlated_value=1.0,
        known_pou=1.0,
        notable_profiles=(
            NamedProfile(
                "pure-diagonal", pure_profile(game, (0,) * team), None, 1.0
            ),
            NamedProfile("uniform-team", uniform_profile(game), None, uniform_value),
        ),
        provenance={
            "known_team_maxmin": "coordinating on any single index pays exactly 1",
            "known_correlated_value": "a point mass on one matching joint action",
            "known_pou": "both values equal 1",
            "notable_profiles": (
                "uniform play coordinates with probability m * (1/m)^(n-1)"
            ),
        },
    )
    return game, facts


_SQRT2 = math.sqrt(2.0)


def irrational_game(fixed_sign: bool = True) -> tuple[TeamGame, InstanceFacts]:
    """Three players, two actions each, with payoffs 1 and 2 on the two
    matching outcomes; the optimal team mixture is irrational.

    With fixed_sign the matching outcomes pay the team +1 and +2. Equalizing
    the two adversary columns gives s^2 - 4s + 2 = 0 for the probability s
    each member puts on the first action, so s = 2 - sqrt(2) and the value
    is s^2 = 6 - 4*sqrt(2), both irrational.

    Without fixed_sign (the `irrational-flawed` family) the same magnitudes
    are team losses (payoffs -1 and -2). A mismatched pure pair then
    concedes nothing, making the instance trivially worth 0 and
    uninteresting, which is why the signed variant exists.
    """
    tensor = np.zeros((2, 2, 2))
    if fixed_sign:
        tensor[0, 0, 0] = 1.0
        tensor[1, 1, 1] = 2.0
    else:
        tensor[0, 0, 0] = -1.0
        tensor[1, 1, 1] = -2.0
    name = "irrational-fixed" if fixed_sign else "irrational-flawed"
    game = TeamGame(3, (2, 2, 2), tensor, name=name)
    if not fixed_sign:
        facts = InstanceFacts(
            known_team_maxmin=0.0,
            known_correlated_value=0.0,
            known_pou=None,
            notable_profiles=(
                NamedProfile("mismatch-a", pure_profile(game, (0, 1)), None, 0.0),
                NamedProfile("mismatch-b", pure_profile(game, (1, 0)), None, 0.0),
            ),
            provenance={
                "known_team_maxmin": (
                    "payoffs are nonpositive and any mismatched pure pair "
                    "secures 0 against both columns"
                ),
                "known_correlated_value": "same argument for joint strategies",
                "notable_profiles": "mismatched pure pairs zero out both columns",
            },
        )
        return game, facts
    s = 2.0 - _SQRT2
    value = 6.0 - 4.0 * _SQRT2
    mix = TeamProfile(
        (
            MixedStrategy(np.array([s, 1.0 - s])),
            MixedStrategy(np.array([s, 1.0 - s])),
        )
    )
    facts = InstanceFacts(
        known_team_maxmin=value,
        known_correlated_value=2.0 / 3.0,
        known_pou=(2.0 / 3.0) / value,
        notable_profiles=(NamedProfile("optimal-mix", mix, None, value),),
        provenance={
            "known_team_maxmin": (
                "equalize the columns: s1*s2 = 2*(1-s1)*(1-s2); with s1 = s2 = s "
                "this is s^2 - 4s + 2 = 0, root in [0,1] is 2 - sqrt(2), "
                "value s^2 = 6 - 4*sqrt(2)"
            ),
            "known_correlated_value": (
                "joint mass 2/3 on the payoff-1 outcome and 1/3 on the payoff-2 "
                "outcome equalizes the columns at 2/3"
            ),
            "known_pou": "ratio of the two values above",
            "notable_profiles": "the equalizing mixture described above",
        },
    )
    return game, facts


def random_team_game(n: int, m: int, seed: int) -> TeamGame:
    """Dense random game: every team payoff i.i.d. uniform on [0, 1).

    Entries come from a single SplitMix64 stream seeded with `seed` and fill
    the tensor in row-major order (player 1 outermost, adversary innermost),
    so the tensor is reproducible bit for bit from (n, m, seed).
    """
    if n < 2:
        raise ValueError(f"need at least 2 players, got {n}")
    if m < 1:
        raise ValueError(f"need at least one action, got {m}")
    _check_size(m, n)
    size = m**n
    values = SplitMix64(seed).floats(size)
    return TeamGame(
        n, (m,) * n, values.reshape((m,) * n), name=f"random-n{n}-m{m}", seed=seed
    )


def _check_size(m: int, exponent: int) -> None:
    if exponent * math.log(max(m, 1)) > math.log(MAX_TENSOR_ENTRIES):
        raise CapacityError(
            f"{m}^{exponent} tensor entries exceed the cap of {MAX_TENSOR_ENTRIES}"
        )


# name -> (builder, shape). The builder takes n, m and the seed and returns
# (game, facts or None); shape names which of n and m the family requires.
# Only `random` uses the seed, which defaults to 0.
FAMILIES = {
    "poa": (lambda n, m, seed: poa_game(), ()),
    "diagonal": (lambda n, m, seed: diagonal_game(n, m), ("n", "m")),
    "pou-one": (lambda n, m, seed: pou_one_game(), ()),
    "coordination": (lambda n, m, seed: coordination_game(n, m), ("n", "m")),
    "irrational": (lambda n, m, seed: irrational_game(), ()),
    "irrational-flawed": (lambda n, m, seed: irrational_game(fixed_sign=False), ()),
    "random": (
        lambda n, m, seed: (random_team_game(n, m, 0 if seed is None else seed), None),
        ("n", "m"),
    ),
}
GENERATOR_FAMILIES = tuple(FAMILIES)


def check_family(
    name: str, n: int | None = None, m: int | None = None, error=ValueError
) -> None:
    """Raise `error` for an unknown family or when a shape key the family
    requires is None."""
    if name not in FAMILIES:
        raise error(f"unknown family {name!r}, expected one of {GENERATOR_FAMILIES}")
    shape = {"n": n, "m": m}
    missing = [key for key in FAMILIES[name][1] if shape[key] is None]
    if missing:
        raise error(f"family {name!r} requires {', '.join(missing)}")


def make_instance(
    family: str,
    n: int | None = None,
    m: int | None = None,
    seed: int | None = None,
) -> tuple[TeamGame, InstanceFacts | None]:
    """Build an instance by family name (the CLI and experiment entry point).

    A family ignores n and m unless it requires them.
    """
    check_family(family, n, m)
    return FAMILIES[family][0](n, m, seed)
