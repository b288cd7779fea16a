"""Core model for adversarial team games.

An adversarial team game has n >= 2 players. Players 1..n-1 form a team and
share a single utility tensor; player n is the adversary and receives the
negated team utility. The tensor is stored dense, indexed with player 1
outermost and the adversary innermost.

All types validate on construction and are immutable afterwards. Probability
vectors must sum to 1 within PROB_TOL and are rejected, never renormalized:
silent renormalization hides caller bugs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

PROB_TOL = 1e-9
MAX_TENSOR_ENTRIES = 50_000_000


class GameFormatError(ValueError):
    """A game or strategy file is missing fields or malformed."""


class CapacityError(RuntimeError):
    """The requested computation exceeds a configured size limit."""


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)  # a copy that owns its memory
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TeamGame:
    """Dense adversarial team game.

    Attributes:
        num_players: total player count n, team members are 0..n-2 and the
            adversary is player n-1 (0-based indices throughout).
        actions_per_player: action counts, one per player.
        team_utility: tensor of shape actions_per_player; the team's shared
            payoff, the adversary receives its negation.
        name: optional label, generators put family and parameters here.
        seed: optional seed recorded by generators.
    """

    num_players: int
    actions_per_player: tuple[int, ...]
    team_utility: np.ndarray
    name: str | None = None
    seed: int | None = None

    def __post_init__(self):
        n = self.num_players
        if n < 2:
            raise ValueError(f"need at least 2 players, got {n}")
        sizes = tuple(int(m) for m in self.actions_per_player)
        if len(sizes) != n:
            raise ValueError(
                f"actions_per_player has {len(sizes)} entries for {n} players"
            )
        if any(m < 1 for m in sizes):
            raise ValueError(f"every player needs at least one action: {sizes}")
        total = math.prod(sizes)
        if total > MAX_TENSOR_ENTRIES:
            raise CapacityError(
                f"tensor with {total} entries exceeds the cap of {MAX_TENSOR_ENTRIES}"
            )
        tensor = np.asarray(self.team_utility, dtype=np.float64)
        if tensor.size != total:
            raise ValueError(
                f"utility tensor has {tensor.size} entries, expected {total}"
            )
        tensor = tensor.reshape(sizes)
        if not np.all(np.isfinite(tensor)):
            raise ValueError("utility tensor contains non-finite entries")
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

    owner is the 0-based player index. Entries must be nonnegative and sum
    to 1 within PROB_TOL.
    """

    owner: int
    probs: np.ndarray

    def __post_init__(self):
        if self.owner < 0:
            raise ValueError(f"owner must be nonnegative, got {self.owner}")
        probs = _frozen_array(self.probs)
        if probs.ndim != 1 or probs.size < 1:
            raise ValueError("probs must be a nonempty vector")
        # the minimum is NaN if an entry is, and the sum of entries that
        # are not negative is infinite if an entry is (or if it overflows)
        if not probs.min() >= 0.0:
            if not np.isfinite(probs).all():
                raise ValueError("probs contain non-finite entries")
            raise ValueError(f"negative probability in {probs}")
        total = float(probs.sum())
        if not math.isfinite(total) and not np.isfinite(probs).all():
            raise ValueError("probs contain non-finite entries")
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "probs", probs)

    @property
    def num_actions(self) -> int:
        return int(self.probs.size)

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.probs > 0.0)


@dataclass(frozen=True, eq=False)
class TeamProfile:
    """One mixed strategy per team member, owners 0..n-2 in order."""

    strategies: tuple[MixedStrategy, ...]

    def __post_init__(self):
        strategies = tuple(self.strategies)
        if not strategies:
            raise ValueError("a team profile needs at least one strategy")
        for i, s in enumerate(strategies):
            if s.owner != i:
                raise ValueError(f"strategy {i} has owner {s.owner}, expected {i}")
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
        # checked as in MixedStrategy
        invalid = "joint probabilities must be finite and nonnegative"
        if not probs.min() >= 0.0:
            raise ValueError(invalid)
        s = float(probs.sum())
        if not math.isfinite(s) and not np.isfinite(probs).all():
            raise ValueError(invalid)
        if abs(s - 1.0) > PROB_TOL:
            raise ValueError(f"joint probabilities sum to {s!r}, not 1")
        object.__setattr__(self, "team_sizes", sizes)
        object.__setattr__(self, "probs", _frozen_array(probs))

    def index_of(self, actions: tuple[int, ...]) -> int:
        return int(np.ravel_multi_index(actions, self.team_sizes))

    def actions_of(self, index: int) -> tuple[int, ...]:
        return tuple(int(a) for a in np.unravel_index(index, self.team_sizes))

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


def joint_team_value(game: TeamGame, dist: JointDistribution) -> ValueReport:
    """Worst-case team utility of a correlated (joint) team strategy."""
    if dist.team_sizes != game.team_sizes:
        raise ValueError(
            f"joint distribution over {dist.team_sizes} does not match "
            f"team sizes {game.team_sizes}"
        )
    return _worst_case(dist.probs @ to_joint_game(game))


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
    if tolerance < 0:
        raise ValueError("tolerance must be nonnegative")
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
    return TeamGame(
        num_players=game.num_players,
        actions_per_player=game.actions_per_player,
        team_utility=scaled,
        name=game.name,
        seed=game.seed,
    )


def to_joint_game(game: TeamGame, max_rows: int = 5_000_000) -> np.ndarray:
    """Two-player view: one row per joint team action, one column per
    adversary action. Row r corresponds to the team action tuple
    np.unravel_index(r, team_sizes)."""
    rows = game.joint_team_size
    if rows > max_rows:
        raise CapacityError(
            f"joint team action space of size {rows} exceeds the cap {max_rows}"
        )
    return np.asarray(game.team_utility).reshape(rows, game.adversary_size)


# ---------------------------------------------------------------------------
# convenience constructors


def uniform_strategy(owner: int, num_actions: int) -> MixedStrategy:
    return MixedStrategy(owner=owner, probs=np.full(num_actions, 1.0 / num_actions))


def pure_strategy(owner: int, num_actions: int, action: int) -> MixedStrategy:
    if not 0 <= action < num_actions:
        raise ValueError(f"action {action} out of range [0, {num_actions})")
    probs = np.zeros(num_actions)
    probs[action] = 1.0
    return MixedStrategy(owner=owner, probs=probs)


def uniform_profile(game: TeamGame) -> TeamProfile:
    return TeamProfile(
        tuple(uniform_strategy(i, m) for i, m in enumerate(game.team_sizes))
    )


def pure_profile(game: TeamGame, actions) -> TeamProfile:
    actions = tuple(int(a) for a in actions)
    if len(actions) != game.num_team_members:
        raise ValueError(
            f"{len(actions)} actions given for {game.num_team_members} members"
        )
    return TeamProfile(
        tuple(
            pure_strategy(i, m, a)
            for i, (m, a) in enumerate(zip(game.team_sizes, actions))
        )
    )


def uniform_adversary(game: TeamGame) -> MixedStrategy:
    return uniform_strategy(game.num_players - 1, game.adversary_size)


def pure_adversary(game: TeamGame, action: int) -> MixedStrategy:
    return pure_strategy(game.num_players - 1, game.adversary_size, action)


# ---------------------------------------------------------------------------
# file formats
#
# Games are JSON objects:
#   {"num_players": n, "actions_per_player": [m1, ..., mn],
#    "team_utility": [flat row-major floats, player 1 outermost,
#                     adversary innermost],
#    "name": optional string, "seed": optional integer}
#
# Strategy profiles are JSON objects:
#   {"strategies": [[p, ...], ...]}  one probability vector per player in
# player order; n-1 vectors for a team profile, n when the adversary is
# included (verify-nash needs all n).


def game_to_dict(game: TeamGame) -> dict:
    data = {
        "num_players": game.num_players,
        "actions_per_player": list(game.actions_per_player),
        "team_utility": [float(x) for x in game.team_utility.reshape(-1)],
    }
    if game.name is not None:
        data["name"] = game.name
    if game.seed is not None:
        data["seed"] = int(game.seed)
    return data


def game_from_dict(data: dict) -> TeamGame:
    if not isinstance(data, dict):
        raise GameFormatError("game document must be a JSON object")
    missing = {"num_players", "actions_per_player", "team_utility"} - set(data)
    if missing:
        raise GameFormatError(f"game document missing fields {sorted(missing)}")
    try:
        return TeamGame(
            num_players=int(data["num_players"]),
            actions_per_player=tuple(int(m) for m in data["actions_per_player"]),
            team_utility=np.asarray(data["team_utility"], dtype=np.float64),
            name=data.get("name"),
            seed=None if data.get("seed") is None else int(data["seed"]),
        )
    except CapacityError:
        raise
    except (TypeError, ValueError) as exc:
        raise GameFormatError(f"invalid game document: {exc}") from exc


def save_game(game: TeamGame, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_to_dict(game), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_game(path) -> TeamGame:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"{path} is not valid JSON: {exc}") from exc
    return game_from_dict(data)


def profile_to_dict(strategies) -> dict:
    return {"strategies": [[float(p) for p in s.probs] for s in strategies]}


def strategies_from_dict(data: dict) -> list[MixedStrategy]:
    if not isinstance(data, dict) or "strategies" not in data:
        raise GameFormatError("profile document must contain a 'strategies' list")
    try:
        return [
            MixedStrategy(owner=i, probs=np.asarray(vec, dtype=np.float64))
            for i, vec in enumerate(data["strategies"])
        ]
    except (TypeError, ValueError) as exc:
        raise GameFormatError(f"invalid profile document: {exc}") from exc


def save_profile(strategies, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(profile_to_dict(strategies), fh, indent=2)
        fh.write("\n")


def load_strategies(path) -> list[MixedStrategy]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"{path} is not valid JSON: {exc}") from exc
    return strategies_from_dict(data)
