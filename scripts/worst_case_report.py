#!/usr/bin/env python3
"""Report on the structured benchmark families.

For each named family instance, prints the closed-form values recorded by
the generator next to what the solvers actually compute: the correlated
LP value, the reconstruction lower bound, the certified oracle bracket
(where the instance is small enough), and the resulting correlation-premium
estimate. The diagonal family realizes the worst possible premium m^(n-2),
and the two-peak instance shows a correlated/independent gap alongside
equilibria that are worthless to the team.

Past three players it runs `global` on the diagonal family and prints the
certified premium bracket [v_C / upper, v_C / lower] next to m^(n-2). It
exits 1 if a bracket misses m^(n-2) by more than a relative 1e-9.

Example:
    python3 scripts/worst_case_report.py --max-m 4
"""

import argparse
import math
import sys

from teammax.game import CapacityError, normalize_payoffs
from teammax.generators import (
    diagonal_game,
    irrational_game,
    poa_game,
    pou_one_game,
)
from teammax.metrics import compute_pou
from teammax.solvers import global_optimize, grid_oracle


def describe(name, game, facts, oracle_target):
    normalized = normalize_payoffs(game)
    spread = game.team_utility.max() - game.team_utility.min()
    offset = game.team_utility.min()
    try:
        estimate = grid_oracle(normalized, target_error=oracle_target)
        lo = offset + spread * estimate.value
        hi = offset + spread * (estimate.value + estimate.error_bound)
        oracle_text = f"[{lo:.6f}, {hi:.6f}] (k={estimate.resolution})"
    except CapacityError:
        oracle_text = "out of oracle capacity"
    premium = compute_pou(game, team_solver="reconstruct")

    print(f"== {name}")
    print(f"   players {game.num_players}, actions {list(game.actions_per_player)}")
    if facts is not None:
        known = {
            "independent": facts.known_team_maxmin,
            "correlated": facts.known_correlated_value,
            "premium": facts.known_pou,
        }
        text = ", ".join(
            f"{key} {value:.6f}" for key, value in known.items() if value is not None
        )
        print(f"   closed form        {text}")
    print(f"   correlated LP      {premium.v_correlated:.6f}")
    print(f"   reconstruction     {premium.v_team_lower:.6f}")
    print(f"   oracle bracket     {oracle_text}")
    print(f"   premium estimate   {premium.pou_upper_estimate:.6f}")
    print()


def premium_bracket(n, m, accuracy):
    """Print global's certified bracket on the premium of diagonal n, m next
    to the worst case m^(n-2); True when the bracket holds it."""
    game, facts = diagonal_game(n, m)
    report = global_optimize(game, accuracy=accuracy)
    v_c = report.correlated_bound
    low, high = v_c / report.upper_bound, v_c / report.lower_bound
    worst = facts.known_pou
    print(f"== diagonal family n={n} m={m}, global at accuracy {accuracy:g}")
    print(
        f"   team-maxmin bracket [{report.lower_bound:.6f}, "
        f"{report.upper_bound:.6f}], {report.iterations} nodes, "
        f"converged {str(report.converged).lower()}"
    )
    print(f"   premium bracket    [{low:.6f}, {high:.6f}], m^(n-2) = {worst:g}")
    print()
    return low <= worst * (1 + 1e-9) and worst * (1 - 1e-9) <= high


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--max-m", type=int, default=4, help="largest diagonal family size"
    )
    parser.add_argument(
        "--oracle-target",
        type=float,
        default=0.01,
        help="certified additive error requested from the oracle",
    )
    args = parser.parse_args(argv)

    game, facts = poa_game()
    describe("two-peak instance (worthless equilibria)", game, facts, 1e-3)

    game, facts = irrational_game()
    describe("irrational-optimum instance", game, facts, 1e-3)
    print(
        "   note: independent optimum 6-4*sqrt(2) "
        f"= {6 - 4 * math.sqrt(2):.9f} is irrational\n"
    )

    game, facts = pou_one_game()
    describe("correlation-cannot-help instance", game, facts, 0.01)

    for m in range(2, args.max_m + 1):
        game, facts = diagonal_game(3, m)
        # quadratic grids get expensive: loosen the target as m grows
        target = args.oracle_target if m == 2 else max(args.oracle_target, 0.05)
        describe(f"diagonal family n=3 m={m}", game, facts, target)

    missed = [
        (n, m)
        for n, m in ((4, 2), (4, 3), (5, 2), (6, 2))
        if not premium_bracket(n, m, accuracy=1e-2)
    ]
    if missed:
        print(f"premium bracket misses m^(n-2) on diagonal (n, m) {missed}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
