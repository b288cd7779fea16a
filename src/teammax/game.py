"""Core model for adversarial team games.

An adversarial team game has n >= 2 players. Players 1..n-1 form a team and
share a single utility tensor; player n is the adversary and receives the
negated team utility. The tensor is stored dense, indexed with player 1
outermost and the adversary innermost.

All types validate on construction and are immutable afterwards. Probability
vectors must sum to 1 within PROB_TOL and are rejected, never renormalized:
silent renormalization hides caller bugs.

Each JSON document's schema is a dataclass (TeamGame, TeamProfile, the
experiment config's): json_object checks its keys against the fields, and
__post_init__ checks each value by the rule of check_type.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

PROB_TOL = 1e-9
MAX_TENSOR_ENTRIES = 50_000_000
# to_joint_game's cap on joint team actions
MAX_JOINT_ROWS = 5_000_000


class GameFormatError(ValueError):
    """A game or strategy file is missing fields or malformed."""


class CapacityError(RuntimeError):
    """The requested computation exceeds a configured size limit."""


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)  # a copy that owns its memory
    arr.setflags(write=False)
    return arr


def _check_probabilities(what: str, probs: np.ndarray) -> None:
    """Raise ValueError unless `probs` is nonnegative and sums to 1 within
    PROB_TOL. A NaN entry makes the minimum NaN and an infinite one makes
    the minimum or the sum infinite, so no np.isfinite pass is needed."""
    low, total = float(probs.min()), float(probs.sum())
    if not (low >= 0.0 and abs(total - 1.0) <= PROB_TOL):
        raise ValueError(
            f"{what} must be nonnegative and sum to 1: min {low}, sum {total!r}"
        )


def check_type(key: str, value, kind: type, error=ValueError):
    """`value` as a `kind`, or `error` naming `key` if it is not one.

    The one type rule for values read from JSON or passed as solver
    parameters: a bool is not a number, an int within the float range may
    stand for a float and comes back as one, and nothing is parsed from a
    string.
    """
    if type(value) is kind:
        return value
    if kind in (int, float):
        number = numbers.Integral if kind is int else numbers.Real
        if isinstance(value, number) and not isinstance(value, bool):
            try:
                return kind(value)
            except OverflowError:
                raise error(f"{key} must be float, got an int too large for one") from None
    elif isinstance(value, kind):
        return value
    raise error(f"{key} must be {kind.__name__}, got {value!r}")


def check_items(key: str, values, kind: type, error=ValueError) -> tuple:
    """`values`, a list or tuple, as a tuple of `kind`s by check_type's rule."""
    if not isinstance(values, (list, tuple)):
        raise error(f"{key} must be list, got {values!r}")
    return tuple(check_type(key, value, kind, error) for value in values)


def json_object(cls, data, what: str, error=ValueError) -> dict:
    """`data` once it is known to be a JSON object that has only keys that
    are fields of the dataclass `cls`, and every field without a default."""
    check_type(what, data, dict, error)
    names = [f.name for f in fields(cls)]
    for key in data:
        if key not in names:
            raise error(f"{what} has unknown key {key!r}; it accepts {', '.join(names)}")
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in data:
            raise error(f"{what} is missing {f.name!r}")
    return data


def read_json(path, error=ValueError):
    """The JSON document in the file at `path`, or `error` if it is not
    valid JSON text in UTF-8."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise error(f"{path} is not valid JSON: {exc}") from None


@dataclass(frozen=True, eq=False)
class TeamGame:
    """Dense adversarial team game; its fields are a game document's keys.

    Attributes:
        num_players: total player count n, team members are 0..n-2 and the
            adversary is player n-1 (0-based indices throughout).
        actions_per_player: action counts, one per player.
        team_utility: tensor of shape actions_per_player, or a flat
            row-major list of numbers; the team's shared payoff, the
            adversary receives its negation.
        name: optional label, generators put family and parameters here.
        seed: optional seed recorded by generators.
    """

    num_players: int
    actions_per_player: tuple[int, ...]
    team_utility: np.ndarray
    name: str | None = None
    seed: int | None = None

    def __post_init__(self):
        n = check_type("num_players", self.num_players, int)
        if n < 2:
            raise ValueError(f"num_players must be at least 2, got {n}")
        sizes = check_items("actions_per_player", self.actions_per_player, int)
        if len(sizes) != n:
            raise ValueError(
                f"actions_per_player has {len(sizes)} entries for {n} players"
            )
        if any(m < 1 for m in sizes):
            raise ValueError(f"actions_per_player must be positive, got {sizes}")
        total = math.prod(sizes)
        if total > MAX_TENSOR_ENTRIES:
            raise CapacityError(
                f"tensor with {total} entries exceeds the cap of {MAX_TENSOR_ENTRIES}"
            )
        tensor = self.team_utility
        if not isinstance(tensor, np.ndarray):
            tensor = check_items("team_utility", tensor, float)
        tensor = np.asarray(tensor, dtype=np.float64)
        if tensor.size != total:
            raise ValueError(f"team_utility has {tensor.size} entries, expected {total}")
        tensor = tensor.reshape(sizes)
        if not np.all(np.isfinite(tensor)):
            raise ValueError("team_utility contains non-finite entries")
        for key, kind in (("name", str), ("seed", int)):
            if getattr(self, key) is not None:
                object.__setattr__(self, key, check_type(key, getattr(self, key), kind))
        object.__setattr__(self, "num_players", n)
        object.__setattr__(self, "actions_per_player", sizes)
        object.__setattr__(self, "team_utility", _frozen_array(tensor))

    @property
    def num_team_members(self) -> int:
        return self.num_players - 1

    @property
    def team_sizes(self) -> tuple[int, ...]:
        return self.actions_per_player[:-1]

    @property
    def adversary_size(self) -> int:
        return self.actions_per_player[-1]

    @property
    def joint_team_size(self) -> int:
        return math.prod(self.team_sizes)

    @property
    def max_team_actions(self) -> int:
        """Largest team-member action count; the m in worst-case bounds."""
        return max(self.team_sizes)


@dataclass(frozen=True, eq=False)
class MixedStrategy:
    """Probability distribution over one player's actions.

    Entries must be nonnegative and sum to 1 within PROB_TOL. The player
    is the strategy's position in its profile.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = _frozen_array(self.probs)
        if probs.ndim != 1 or probs.size < 1:
            raise ValueError("probs must be a nonempty vector")
        _check_probabilities("probs", probs)
        object.__setattr__(self, "probs", probs)

    @property
    def num_actions(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True, eq=False)
class TeamProfile:
    """One mixed strategy per team member, members 0..n-2 in order."""

    strategies: tuple[MixedStrategy, ...]

    def __post_init__(self):
        strategies = tuple(self.strategies)
        if not strategies:
            raise ValueError("a team profile needs at least one strategy")
        object.__setattr__(self, "strategies", strategies)

    def __len__(self) -> int:
        return len(self.strategies)

    def __iter__(self):
        return iter(self.strategies)

    def __getitem__(self, i: int) -> MixedStrategy:
        return self.strategies[i]


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Distribution over joint team actions.

    probs is flat in row-major order over the team action space: member 0
    outermost, member n-2 innermost, matching to_joint_game's row order.
    """

    team_sizes: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self):
        sizes = tuple(int(m) for m in self.team_sizes)
        if any(m < 1 for m in sizes):
            raise ValueError(f"invalid team sizes {sizes}")
        total = math.prod(sizes)
        probs = np.asarray(self.probs, dtype=np.float64).reshape(-1)
        if probs.size != total:
            raise ValueError(f"{probs.size} entries for {total} joint actions")
        _check_probabilities("joint probabilities", probs)
        object.__setattr__(self, "team_sizes", sizes)
        object.__setattr__(self, "probs", _frozen_array(probs))

    def marginal(self, member: int) -> np.ndarray:
        shaped = self.probs.reshape(self.team_sizes)
        axes = tuple(i for i in range(len(self.team_sizes)) if i != member)
        return shaped.sum(axis=axes)

    def support(self, member: int) -> np.ndarray:
        return np.flatnonzero(self.marginal(member) > 0.0)


@dataclass(frozen=True, eq=False)
class ValueReport:
    """Worst-case team value of a profile.

    value is the minimum over adversary actions of the team's expected
    utility; ties in the minimum go to the lowest action index.
    """

    value: float
    minimizing_adversary_action: int
    per_adversary_utility: np.ndarray


@dataclass(frozen=True, eq=False)
class NashVerdict:
    """Result of an equilibrium check.

    gaps[i] is the best deviation gain of player i (adversary included,
    measured in the player's own utility). best_deviations[i] is the pure
    action achieving it.
    """

    is_equilibrium: bool
    gaps: np.ndarray
    best_deviations: np.ndarray
    tolerance: float


# ---------------------------------------------------------------------------
# evaluation


def _check_profile(game: TeamGame, profile: TeamProfile) -> None:
    if len(profile) != game.num_team_members:
        raise ValueError(
            f"profile has {len(profile)} strategies for "
            f"{game.num_team_members} team members"
        )
    for i, (s, m) in enumerate(zip(profile, game.actions_per_player)):
        if s.num_actions != m:
            raise ValueError(
                f"member {i} strategy has {s.num_actions} actions, "
                f"game expects {m}"
            )


def contract_except(tensor: np.ndarray, vectors, keep: int | None = None) -> np.ndarray:
    """Contract a payoff tensor against per-player vectors.

    Axis j is contracted with vectors[j] for every j < len(vectors) other
    than `keep`, in ascending j; vectors[keep] is ignored. The result has the
    kept axis first, then the axes from len(vectors) on, in order.

    The kept axis is moved first as np.moveaxis moves it, and each step is
    np.tensordot(out, vec, axes=([axis], [0])) written out: the contracted
    axis is transposed last, the other axes are flattened into rows, and
    np.dot multiplies that 2-D operand by vec reshaped to an (n, 1) column.
    Those are the operands tensordot hands np.dot, with the same strides, and
    the same copy or view from the reshape, so BLAS gets the same call and
    the result has the same bits; only the two wrappers' Python overhead is
    gone.
    """
    out = tensor
    axis = 0
    if keep is not None:
        out = tensor.transpose(keep, *(j for j in range(tensor.ndim) if j != keep))
        axis = 1
    for j, vec in enumerate(vectors):
        if j != keep:
            shape = out.shape
            rest = shape[:axis] + shape[axis + 1 :]
            order = (*range(axis), *range(axis + 1, len(shape)), axis)
            rows = out.transpose(order).reshape(math.prod(rest), shape[axis])
            out = np.dot(rows, vec.reshape(shape[axis], 1)).reshape(rest)
    return out


def per_adversary_utilities(game: TeamGame, profile: TeamProfile) -> np.ndarray:
    """Expected team utility for each pure adversary action."""
    _check_profile(game, profile)
    return contract_except(game.team_utility, [s.probs for s in profile])


def team_value(game: TeamGame, profile: TeamProfile) -> ValueReport:
    """Worst-case expected team utility of an independent team profile.

    A pure adversary minimizer always suffices: the adversary's expected
    utility is linear in her own mixture.
    """
    return _worst_case(per_adversary_utilities(game, profile))


def _worst_case(per_action: np.ndarray) -> ValueReport:
    worst = int(per_action.argmin())
    return ValueReport(
        value=float(per_action[worst]),
        minimizing_adversary_action=worst,
        per_adversary_utility=_frozen_array(per_action),
    )


def expected_team_utility(
    game: TeamGame, profile: TeamProfile, adversary: MixedStrategy
) -> float:
    """Expected team utility when the adversary mixes as well."""
    if adversary.num_actions != game.adversary_size:
        raise ValueError(
            f"adversary strategy has {adversary.num_actions} actions, "
            f"game expects {game.adversary_size}"
        )
    per_action = per_adversary_utilities(game, profile)
    return float(per_action @ adversary.probs)


def verify_nash(
    game: TeamGame,
    profile: TeamProfile,
    adversary: MixedStrategy,
    tolerance: float = PROB_TOL,
) -> NashVerdict:
    """Check whether (profile, adversary) is a Nash equilibrium.

    Every player, team members and adversary alike, is tested for profitable
    unilateral pure deviations; pure deviations are sufficient because
    expected utility is linear in a single player's mixture.
    """
    _check_profile(game, profile)
    if adversary.num_actions != game.adversary_size:
        raise ValueError("adversary strategy does not match the game")
    if not tolerance >= 0:  # NaN included
        raise ValueError(f"tolerance must be nonnegative, got {tolerance}")
    vectors = [s.probs for s in profile] + [adversary.probs]
    gaps = np.zeros(game.num_players)
    best = np.zeros(game.num_players, dtype=np.int64)
    for i in range(game.num_players):
        # team payoff of each pure action of player i, the others fixed
        team_payoffs = contract_except(game.team_utility, vectors, i)
        own = team_payoffs if i < game.num_team_members else -team_payoffs
        current = float(own @ vectors[i])
        k = int(np.argmax(own))
        gaps[i] = float(own[k]) - current
        best[i] = k
    return NashVerdict(
        is_equilibrium=bool(np.all(gaps <= tolerance)),
        gaps=_frozen_array(gaps),
        best_deviations=_frozen_array(best, dtype=np.int64),
        tolerance=float(tolerance),
    )


# ---------------------------------------------------------------------------
# transformations


def normalize_payoffs(game: TeamGame) -> TeamGame:
    """Affinely rescale the team utility onto [0, 1].

    A constant tensor maps to all zeros. Positive affine maps preserve the
    ordering of profiles by value, so solver outputs transfer back.
    """
    tensor = game.team_utility
    lo = float(tensor.min())
    hi = float(tensor.max())
    if hi - lo == 0.0:
        scaled = np.zeros_like(tensor)
    else:
        scaled = (tensor - lo) / (hi - lo)
    return replace(game, team_utility=scaled)


def to_joint_game(game: TeamGame) -> np.ndarray:
    """Two-player view: one row per joint team action, one column per
    adversary action. Row r corresponds to the team action tuple
    np.unravel_index(r, team_sizes). More than MAX_JOINT_ROWS rows raise
    CapacityError."""
    rows = game.joint_team_size
    if rows > MAX_JOINT_ROWS:
        raise CapacityError(
            f"joint team action space of size {rows} exceeds the cap {MAX_JOINT_ROWS}"
        )
    return np.asarray(game.team_utility).reshape(rows, game.adversary_size)


# ---------------------------------------------------------------------------
# convenience constructors


def uniform_strategy(num_actions: int) -> MixedStrategy:
    return MixedStrategy(np.full(num_actions, 1.0 / num_actions))


def pure_strategy(num_actions: int, action: int) -> MixedStrategy:
    if not 0 <= action < num_actions:
        raise ValueError(f"action {action} out of range [0, {num_actions})")
    probs = np.zeros(num_actions)
    probs[action] = 1.0
    return MixedStrategy(probs)


def uniform_profile(game: TeamGame) -> TeamProfile:
    return TeamProfile(tuple(uniform_strategy(m) for m in game.team_sizes))


def pure_profile(game: TeamGame, actions) -> TeamProfile:
    actions = tuple(int(a) for a in actions)
    if len(actions) != game.num_team_members:
        raise ValueError(
            f"{len(actions)} actions given for {game.num_team_members} members"
        )
    return TeamProfile(
        tuple(pure_strategy(m, a) for m, a in zip(game.team_sizes, actions))
    )


def uniform_adversary(game: TeamGame) -> MixedStrategy:
    return uniform_strategy(game.adversary_size)


def pure_adversary(game: TeamGame, action: int) -> MixedStrategy:
    return pure_strategy(game.adversary_size, action)


# ---------------------------------------------------------------------------
# file formats
#
# Games are JSON objects whose keys are TeamGame's fields:
#   {"num_players": n, "actions_per_player": [m1, ..., mn],
#    "team_utility": [flat row-major numbers, player 1 outermost,
#                     adversary innermost],
#    "name": optional string, "seed": optional integer}
#
# Strategy profiles are JSON objects whose key is TeamProfile's field:
#   {"strategies": [[p, ...], ...]}  one probability vector per player in
# player order; n-1 vectors for a team profile, n when the adversary is
# included (verify-nash needs all n).
#
# An unknown or missing key, or a value of the wrong JSON type, raises
# GameFormatError naming the key.


def game_to_dict(game: TeamGame) -> dict:
    data = {
        "num_players": game.num_players,
        "actions_per_player": list(game.actions_per_player),
        "team_utility": [float(x) for x in game.team_utility.reshape(-1)],
    }
    if game.name is not None:
        data["name"] = game.name
    if game.seed is not None:
        data["seed"] = game.seed
    return data


def game_from_dict(data: dict) -> TeamGame:
    data = json_object(TeamGame, data, "game document", GameFormatError)
    try:
        return TeamGame(**data)
    except ValueError as exc:
        raise GameFormatError(f"invalid game document: {exc}") from None


def save_game(game: TeamGame, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_to_dict(game), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_game(path) -> TeamGame:
    return game_from_dict(read_json(path, GameFormatError))


def strategies_from_dict(data: dict) -> list[MixedStrategy]:
    data = json_object(TeamProfile, data, "profile document", GameFormatError)
    strategies = []
    try:
        vectors = check_type("strategies", data["strategies"], list)
        for i, probs in enumerate(vectors):
            key = f"strategies[{i}]"
            probs = check_items(key, probs, float)
            try:
                strategies.append(MixedStrategy(probs))
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
    except ValueError as exc:
        raise GameFormatError(f"invalid profile document: {exc}") from None
    return strategies


def load_strategies(path) -> list[MixedStrategy]:
    return strategies_from_dict(read_json(path, GameFormatError))
