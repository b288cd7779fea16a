#!/usr/bin/env python3
"""Report on the structured benchmark families.

For each named family instance, runs `global` at accuracy 1e-2 on the game
with its payoffs normalized to [0, 1] and prints the certified premium
bracket [v_C / upper, v_C / lower] from metrics.compute_pou next to the
closed-form premium recorded by the generator. Every family here has a
least payoff of 0, so normalizing only rescales the payoffs and leaves the
premium as it is. The diagonal family realizes the worst possible premium
m^(n-2), and the two-peak instance shows a correlated/independent gap
alongside equilibria that are worthless to the team.

It exits 1 if a bracket misses its closed form by more than a relative
1e-9.

Example:
    python3 scripts/worst_case_report.py --max-m 4
"""

import argparse
import sys

from teammax.game import normalize_payoffs
from teammax.generators import (
    diagonal_game,
    irrational_game,
    poa_game,
    pou_one_game,
)
from teammax.metrics import compute_pou

ACCURACY = 1e-2


def describe(name, game, facts):
    """Print the certified premium bracket of `game` next to its closed
    form; True when the bracket holds it."""
    pou = compute_pou(normalize_payoffs(game), "global", accuracy=ACCURACY)
    report, known = pou.report, facts.known_pou
    print(f"== {name}")
    print(f"   players {game.num_players}, actions {list(game.actions_per_player)}")
    print(
        f"   closed form        independent {facts.known_team_maxmin:.6f}, "
        f"correlated {facts.known_correlated_value:.6f}, premium {known:.6f}"
    )
    print(
        f"   normalized game    correlated {report.correlated_bound:.6f}, "
        f"team-maxmin [{report.lower_bound:.6f}, {report.upper_bound:.6f}]"
    )
    print(
        f"   global at {ACCURACY:g}     {report.iterations} nodes, "
        f"converged {str(report.converged).lower()}"
    )
    print(f"   premium bracket    [{pou.low:.6f}, {pou.high:.6f}]")
    print()
    return pou.low <= known * (1 + 1e-9) and known * (1 - 1e-9) <= pou.high


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--max-m", type=int, default=4, help="largest diagonal family size at n=3"
    )
    args = parser.parse_args(argv)

    irrational = f"irrational-optimum instance, 6-4*sqrt(2) = {6 - 4 * 2**0.5:.9f}"
    instances = [
        ("two-peak instance (worthless equilibria)", *poa_game()),
        (irrational, *irrational_game()),
        ("correlation-cannot-help instance", *pou_one_game()),
    ]
    shapes = [(3, m) for m in range(2, args.max_m + 1)]
    shapes += [(4, 2), (4, 3), (5, 2), (6, 2)]
    for n, m in shapes:
        instances.append((f"diagonal family n={n} m={m}", *diagonal_game(n, m)))

    missed = [name for name, *instance in instances if not describe(name, *instance)]
    if missed:
        print(f"premium bracket misses its closed form on {missed}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
