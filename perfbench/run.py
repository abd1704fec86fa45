"""fedsim benchmark: one workload (or all four) in one process.

    python3 perfbench/run.py --workload quad-ensemble --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
With ``--trace 0`` the run reports the end-to-end metrics (throughput,
set-up time, peak memory); with ``--trace 1`` it wraps fedsim's public
calls, reports per-layer metrics and the tracing overhead, and writes the
spans to ``perfbench/out/trace-<workload>.json``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("quad-ensemble", "softmax-dense", "softmax-sparse", "mixing-spectrum")
# Set-up is repeated and its median reported, so one slow repetition does
# not move setup_s: at least SETUP_MIN_REPEATS times, and until SETUP_BUDGET_S
# seconds have gone to it (millisecond set-ups), but at most SETUP_MAX_REPEATS.
SETUP_MIN_REPEATS = 7
SETUP_MAX_REPEATS = 201
SETUP_BUDGET_S = 0.25
# A traced run alternates untraced and traced rounds; it needs a few of
# each for the overhead ratio.
MIN_TRACED_ROUNDS = 2

E2E_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must lie in [0, 2^64)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy releases without mode="dicts"
        blas = {}
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"{blas.get('name')} {blas.get('version')} (OPENBLAS_NUM_THREADS={threads}), "
            f"nproc {os.cpu_count()}")


def check(wl, k: int, result) -> None:
    wl.check_round(k, result)
    if result.directory:
        shutil.rmtree(result.directory)


def untraced_run(wl, seconds: float) -> dict:
    setup_times = []
    while len(setup_times) < SETUP_MAX_REPEATS and (
            len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_BUDGET_S):
        start = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - start)
    rates = []
    attempted = failed = 0
    start = time.perf_counter()
    k = 0
    while k < wl.min_rounds or time.perf_counter() - start < seconds:
        result = wl.run_round(k)
        check(wl, k, result)
        rates.append(result.completed / result.seconds)
        attempted += result.attempted
        failed += result.failed
        k += 1
    wl.finish()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"ops_per_s": statistics.median(rates),
               "setup_s": statistics.median(setup_times),
               "peak_rss_mb": peak_kib / 1024.0}
    return {"attempted": attempted, "failed": failed, "rounds": k,
            "metrics": {name: (value, E2E_UNITS[name]) for name, value in metrics.items()}}


def traced_run(wl, seconds: float, tracer, trace_path: Path) -> dict:
    tracer.install()
    try:
        wl.setup()
    finally:
        tracer.uninstall()
    per_layer = tracing.Stats()
    per_layer.add(tracer.take_stats())

    times = {False: [], True: []}
    attempted = failed = 0
    start = time.perf_counter()
    k = 0
    while (k < max(wl.min_rounds, 2 * MIN_TRACED_ROUNDS)
           or time.perf_counter() - start < seconds):
        traced = k % 2 == 1
        if traced:
            tracer.round = k
            tracer.install()
        try:
            result = wl.run_round(k)
        finally:
            tracer.uninstall()
        times[traced].append(result.seconds)
        check(wl, k, result)
        attempted += result.attempted
        failed += result.failed
        k += 1
    wl.finish()

    # Per-layer figures: one set-up plus the mean traced round.
    per_layer.add(tracer.take_stats(), 1.0 / len(times[True]))
    metrics = per_layer.per_layer()
    metrics["bench.trace_overhead"] = (statistics.median(times[True])
                                       / statistics.median(times[False]))
    tracer.write(trace_path, {"workload": wl.name, "seed": wl.seed,
                              "rounds": k, "traced_rounds": len(times[True]),
                              "metrics": metrics})
    return {"attempted": attempted, "failed": failed, "rounds": k,
            "metrics": {name: (value, tracing.PER_LAYER_UNITS[name])
                        for name, value in metrics.items()}}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import workloads  # imports fedsim, so only once src/ is on the path

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir()
    tracer = tracing.Tracer()
    wl = workloads.WORKLOADS[name](seed, str(workdir), tracer)
    try:
        if traced:
            summary = traced_run(wl, seconds, tracer, OUT / f"trace-{name}.json")
        else:
            summary = untraced_run(wl, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for note in wl.notes:
        print(f"{name}: {note}")
    for problem in wl.problems[:20]:
        print(f"{name}: check failed: {problem}", file=sys.stderr)
    for message, count in wl.failures.items():
        print(f"{name}: {count} failed operations: {message}", file=sys.stderr)
    summary["correct"] = not wl.problems
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fedsim" / "__init__.py").is_file():
        print(f"error: fedsim sources not found at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(f"environment: {environment()}")
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        s = run_workload(name, args.seed, args.seconds, bool(args.trace))
        shown = ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in s["metrics"].items())
        print(f"{name}: {shown}; {s['rounds']} rounds, {s['attempted']} operations "
              f"attempted, {s['failed']} failed, correct {s['correct']}")
        print(json.dumps({"correct": s["correct"], "attempted": s["attempted"],
                          "failed": s["failed"],
                          "metrics": {k: {"value": v, "unit": u}
                                      for k, (v, u) in s["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
