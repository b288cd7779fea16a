"""Closed-loop benchmark of the teammax solvers.

One client, one thread: the next solve starts only after the previous one
returned. Each pass solves every instance of the workload once through the
public entry point teammax.solvers.run_solver; passes repeat until
--seconds have elapsed. Every solve is checked for correctness after its
pass, outside the timed region.

    python3 bench/run.py --workload grid --seed 0 --seconds 24 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the time of a
typical pass, the mean bracket width, the peak resident memory and the
median of several set-ups, each in a fresh process. Times are scaled to a
nominal host speed by a calibration kernel timed next to them (see
calibration_s); the raw times are printed as well. --trace 1 alternates
untraced and traced passes and reports the per-layer metrics, prints a
self-time table and writes the spans to .bench_out/. The last line of
standard output is the JSON result. --smoke swaps in one tiny instance
per solver, for the benchmark's own tests.
"""

import os

# one BLAS and OpenMP thread, set before numpy is imported; set-up
# processes inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 9
SETUP_TIMEOUT_S = 60
# seconds the calibration kernel takes at the nominal host speed
CALIBRATION_NOMINAL_S = 0.01


def import_program():
    """Import teammax from this checkout's sources, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import teammax
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import teammax from {SRC}: {exc}")
    if Path(teammax.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"bench: teammax came from {teammax.__file__}, not {SRC}")


def _calibration_kernel():
    import numpy as np

    probs = np.full(4, 0.25)
    tensor = np.full((4, 4, 4), 0.25)
    for _ in range(300):
        np.tensordot(probs, tensor, axes=([0], [0])).min()
    tableau = np.ones((62, 1000))
    for i in range(30):
        tableau -= np.outer(tableau[:, i], tableau[i]) * 1e-6


def calibration_s() -> float:
    """Seconds the calibration kernel takes right now, median of three.

    The kernel is fixed work shaped like the solvers' inner loops: small
    numpy calls driven from Python, and rank-one updates of a tableau. On a
    shared host the speed of such code drifts by up to 1.7x within minutes,
    and the kernel's time drifts with it; reported times are scaled by
    CALIBRATION_NOMINAL_S / calibration_s() measured next to them."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _calibration_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class Pass:
    traced: bool
    raw: list[float]  # seconds per solve
    times: list[float]  # seconds per solve at the nominal host speed
    reports: list  # SolveReport, or the traceback text of a solve that raised
    tracer: object = None

    @property
    def wall(self) -> float:
        return sum(self.raw)


def run_pass(cases, tracer=None) -> Pass:
    from workloads import solve

    reports, raw, calibration = [], [], [calibration_s()]
    for op, case in enumerate(cases):
        if tracer is not None:
            tracer.op = op
        start = time.perf_counter()
        try:
            report = solve(case)
        except Exception:  # a solve that raises is a failed operation
            report = traceback.format_exc()
        raw.append(time.perf_counter() - start)
        reports.append(report)
        calibration.append(calibration_s())
    times = [
        t * 2 * CALIBRATION_NOMINAL_S / (before + after)
        for t, before, after in zip(raw, calibration, calibration[1:])
    ]
    return Pass(tracer is not None, raw, times, reports, tracer)


def typical_wall(passes: list[Pass], raw: bool = False) -> float:
    """Time of a typical pass: the sum over instances of each instance's
    median time across passes, so that a burst of load from outside that
    hits one instance in one pass does not count."""
    per_pass = [p.raw if raw else p.times for p in passes]
    return sum(statistics.median(times) for times in zip(*per_pass))


def measure_setup(workload: str, seed: int, smoke: bool) -> float:
    """Median wall time of SETUP_PROBES fresh set-up processes, at the
    nominal host speed."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed), str(int(smoke))]
    times = []
    for _ in range(SETUP_PROBES):
        before = calibration_s()
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        times.append(elapsed * 2 * CALIBRATION_NOMINAL_S / (before + calibration_s()))
    return statistics.median(times)


def environment(workload: str, seed: int) -> str:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (
        f"env: nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} "
        f"python={platform.python_version()} numpy={np.__version__} "
        f"blas={blas.get('name')} {blas.get('version')} "
        f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']} workload={workload} seed={seed}"
    )


def code_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "teammax").glob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_passes(cases, passes) -> list[tuple[int, str, str]]:
    """Correctness failures as (pass, instance, problem)."""
    from checks import check_report, highs_correlated_value

    references = [
        highs_correlated_value(case.game) if case.rung.family == "random" else None
        for case in cases
    ]
    failures = []
    for index, p in enumerate(passes):
        for case, report, ref in zip(cases, p.reports, references):
            if isinstance(report, str):
                problems = [report.strip().splitlines()[-1]]
            else:
                problems = check_report(case, report, ref)
            failures.extend((index, case.rung.label, msg) for msg in problems)
    return failures


def exact_counts(cases, passes) -> tuple[dict, list[str]]:
    """Per-instance exact counts, and the instances whose counts differ
    between passes of this run."""
    counts, unstable = {}, []
    for op, case in enumerate(cases):
        seen = []
        for p in passes:
            report = p.reports[op]
            if isinstance(report, str):
                continue
            row = {
                "iterations": report.iterations,
                "lower": report.lower_bound,
                "upper": report.upper_bound,
            }
            if p.traced:
                row["pivots"] = p.tracer.counts_by_op("solve_lp").get(op, 0)
            seen.append(row)
        merged = {}
        for row in seen:
            for key, value in row.items():
                if merged.setdefault(key, value) != value:
                    unstable.append(f"{case.rung.label} {key}: {merged[key]!r} then {value!r}")
        counts[case.rung.label] = merged
    return counts, unstable


def compare_with_earlier_run(path: Path, digest: str, counts: dict) -> list[str]:
    """Differences from the counts an earlier run of the same code stored."""
    differences = []
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier["digest"] == digest:
            for label, row in counts.items():
                for key, value in row.items():
                    before = earlier["counts"].get(label, {}).get(key, value)
                    if before != value:
                        differences.append(f"{label} {key}: {before!r} earlier, {value!r} now")
    path.write_text(json.dumps({"digest": digest, "counts": counts}, indent=1))
    return differences


def gap_mean(p: Pass) -> float:
    gaps = [r.upper_bound - r.lower_bound for r in p.reports if not isinstance(r, str)]
    return statistics.fmean(gaps) if gaps else float("nan")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    from spans import Tracer, layer_metrics, median_metrics, self_time_table
    from workloads import WORKLOADS, set_up

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(environment(args.workload, args.seed))

    setup_s = None if args.trace else measure_setup(args.workload, args.seed, args.smoke)
    cases = set_up(args.workload, args.seed, args.smoke)

    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            with Tracer() as tracer:
                passes.append(run_pass(cases, tracer))
        else:
            passes.append(run_pass(cases))
        enough = not args.trace or len(passes) >= 2
        if enough and time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = check_passes(cases, passes)
    counts, unstable = exact_counts(cases, passes)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    drift = compare_with_earlier_run(
        OUT_DIR / f"counts-{stem}-trace{args.trace}.json", code_digest(), counts
    )

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    values = {}
    if args.trace:
        converged = sum(
            1
            for case, r in zip(cases, traced[0].reports)
            if case.rung.solver == "global" and not isinstance(r, str) and r.converged
        )
        values = median_metrics([layer_metrics(p.tracer, converged) for p in traced])
        values["trace.overhead_s"] = typical_wall(traced) - typical_wall(plain)
        with open(OUT_DIR / f"spans-{stem}.jsonl", "w") as fh:
            for index, p in enumerate(passes):
                if p.traced:
                    p.tracer.write(fh, index)
        print(f"self time, last traced pass ({traced[-1].wall:.4f} s):")
        for line in self_time_table(traced[-1].tracer, traced[-1].wall):
            print("  " + line)
    else:
        values = {
            "wall_s": typical_wall(plain),
            "gap_mean": statistics.median(gap_mean(p) for p in plain),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }

    print("instances (median seconds over untraced passes, exact counts):")
    for op, (label, row) in enumerate(counts.items()):
        median_s = statistics.median(p.times[op] for p in plain)
        print(f"  {label:<36} {median_s:9.4f} s " + " ".join(f"{k}={v!r}" for k, v in row.items()))
    for kind, group in (("untraced", plain), ("traced", traced)):
        if group:
            walls = sorted(p.wall for p in group)
            print(f"{kind} passes: {len(walls)}, raw wall min {walls[0]:.4f} s, median "
                  f"{statistics.median(walls):.4f} s, max {walls[-1]:.4f} s; "
                  f"typical pass {typical_wall(group, raw=True):.4f} s raw, "
                  f"{typical_wall(group):.4f} s at the nominal speed")
    if args.trace and args.seed == 0:
        baseline = json.loads((BENCH_DIR / "baseline.json").read_text())
        for label, pivots in baseline["ladder_pivots"].items():
            if label in counts:
                print(f"ladder {label}: {counts[label]['pivots']} pivots, "
                      f"{pivots} at commit {baseline['commit']}")
    problems = [f"pass {i} {label}: {msg}" for i, label, msg in failures]
    problems += [f"not repeatable within the run: {u}" for u in unstable]
    problems += [f"differs from an earlier run of the same code: {d}" for d in drift]
    for line in problems:
        print("FAIL " + line)

    attempted = len(cases) * len(passes)
    failed = len({(i, label) for i, label, _ in failures})
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name:<36} {metric['value']:>16.6f} {metric['unit']}")
    print(f"{'ops_attempted':<36} {attempted:>16d} count")
    print(f"{'ops_failed':<36} {failed:>16d} count")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
