"""Spans and counts around the program's layers, recorded from outside.

A Tracer replaces the public functions listed in TARGETS by wrappers, in
every teammax module that imported them, for the duration of a `with`
block, and restores the originals afterwards. The program's source is not
changed. Each call records a span (name, parent span, operation index,
start, end) and, for the functions in WORK, the work count of its result.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

# (module that defines it, function, layer)
TARGETS = (
    ("teammax.lp", "solve_lp", "lp"),
    ("teammax.lp", "solve_maxmin", "lp"),
    ("teammax.lp", "member_payoff_matrix", "contract"),
    ("teammax.game", "team_value", "game"),
    ("teammax.game", "per_adversary_utilities", "game"),
    ("teammax.game", "to_joint_game", "game"),
    ("teammax.solvers", "reconstruct_best_pivot", "solvers"),
    ("teammax.solvers", "iterated_lp", "solvers"),
    ("teammax.solvers", "global_optimize", "solvers"),
    ("teammax.solvers", "support_enumeration", "solvers"),
    ("teammax.solvers", "grid_oracle", "solvers"),
)
LAYER = {name: layer for _, name, layer in TARGETS}

# pivots, ascent rounds, branch-and-bound nodes, grid candidates, grid evaluations
WORK = {
    "solve_lp": lambda r: r.iterations,
    "iterated_lp": lambda r: r.iterations,
    "global_optimize": lambda r: r.iterations,
    "support_enumeration": lambda r: r.iterations,
    "grid_oracle": lambda r: r.evaluations,
}

NAME, PARENT, OP, START, END, COUNT = range(6)


class Tracer:
    """Records spans for the calls made inside its `with` block."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack = [-1]
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = WORK.get(name)

        def wrapper(*args, **kwargs):
            record = [name, stack[-1], self.op, clock(), 0.0, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if count is not None:
                record[COUNT] = count(result)
            return result

        return wrapper

    def __enter__(self):
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "teammax" or key.startswith("teammax.")
        ]
        originals = [(getattr(sys.modules[mod], name), name) for mod, name, _ in TARGETS]
        for fn, name in originals:
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()
        return False

    def counts_by_op(self, name: str) -> dict[int, int]:
        out: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span[NAME] == name:
                out[span[OP]] += span[COUNT]
        return dict(out)

    def self_times(self) -> list[float]:
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write(self, fh, pass_index: int) -> None:
        for i, s in enumerate(self.spans):
            fh.write(
                json.dumps(
                    {
                        "pass": pass_index,
                        "id": i,
                        "parent": s[PARENT],
                        "op": s[OP],
                        "name": s[NAME],
                        "start": s[START],
                        "end": s[END],
                        "count": s[COUNT],
                    }
                )
                + "\n"
            )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, bnb_converged: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    spans = tracer.spans
    own = tracer.self_times()
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(spans[i][END] - spans[i][START] for i in by_name[name])

    def work(name):
        return sum(spans[i][COUNT] for i in by_name[name])

    def under(i, name):
        parent = spans[i][PARENT]
        while parent >= 0:
            if spans[parent][NAME] == name:
                return True
            parent = spans[parent][PARENT]
        return False

    lp_calls, pivots, lp_busy = calls("solve_lp"), work("solve_lp"), busy("solve_lp")
    rounds = work("iterated_lp")
    ascent_lps = sum(1 for i in by_name["solve_lp"] if under(i, "iterated_lp"))
    nodes = work("global_optimize")
    box_lps = sum(
        1
        for i in by_name["solve_lp"]
        if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == "global_optimize"
    )
    candidates, evals = work("support_enumeration"), work("grid_oracle")
    return {
        "lp.calls": lp_calls,
        "lp.pivots": pivots,
        "lp.busy_s": lp_busy,
        "lp.us_per_pivot": 1e6 * _ratio(lp_busy, pivots),
        "lp.us_per_call": 1e6 * _ratio(lp_busy, lp_calls),
        "contract.member_payoff.calls": calls("member_payoff_matrix"),
        "contract.member_payoff.busy_s": busy("member_payoff_matrix"),
        "game.team_value.calls": calls("team_value"),
        "game.team_value.busy_s": busy("team_value"),
        "game.profiles_per_s": _ratio(calls("team_value"), busy("team_value")),
        "ascent.rounds": rounds,
        "ascent.lp_per_round": _ratio(ascent_lps, rounds),
        "bnb.nodes": nodes,
        "bnb.nodes_per_s": _ratio(nodes, busy("global_optimize")),
        "bnb.lp_per_node": _ratio(box_lps, nodes),
        "bnb.self_s": sum(own[i] for i in by_name["global_optimize"]),
        "bnb.converged": bnb_converged,
        "grid.support_enum.candidates": candidates,
        "grid.support_enum.candidates_per_s": _ratio(candidates, busy("support_enumeration")),
        "grid.oracle.evals": evals,
        "grid.oracle.evals_per_s": _ratio(evals, busy("grid_oracle")),
    }


def self_time_table(tracer: Tracer, wall: float) -> list[str]:
    """Self time per wrapped function and per layer for one traced pass."""
    own = tracer.self_times()
    per_fn: dict[str, list] = {}
    for i, s in enumerate(tracer.spans):
        entry = per_fn.setdefault(s[NAME], [0, 0.0])
        entry[0] += 1
        entry[1] += own[i]
    traced = sum(s[END] - s[START] for s in tracer.spans if s[PARENT] < 0)
    lines = [f"{'layer':<9} {'function':<24} {'calls':>8} {'self_s':>9} {'share':>7}"]
    layers = sorted({LAYER[name] for name in per_fn})
    for layer in layers:
        total = 0.0
        for name in sorted(n for n in per_fn if LAYER[n] == layer):
            n_calls, self_s = per_fn[name]
            total += self_s
            lines.append(
                f"{layer:<9} {name:<24} {n_calls:>8} {self_s:>9.4f} {_ratio(self_s, wall):>7.1%}"
            )
        lines.append(f"{layer:<9} {'(layer total)':<24} {'':>8} {total:>9.4f} {_ratio(total, wall):>7.1%}")
    other = wall - traced
    lines.append(f"{'other':<9} {'(outside wrapped calls)':<24} {'':>8} {other:>9.4f} {_ratio(other, wall):>7.1%}")
    return lines


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
