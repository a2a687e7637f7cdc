#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload toy-large --seed 1 --seconds 40 --trace 0

Run from the root of a source tree: blindvote is imported from ./src.
The run repeats whole rounds (see workloads.py) until another round would
not fit in --seconds, checks every output against values worked out from
the generated voter lists, and prints, as the last line of stdout,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones in BENCHMARK.json,
medians over the run's rounds. With --trace 1 rounds alternate between
untraced and traced, and the metrics are the per-layer ones, per traced
round, plus the ratio of traced to untraced round time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"


#: Fresh interpreters that time `import blindvote` for setup_s.
IMPORT_REPEATS = 5

TIME_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "start = time.perf_counter(); import blindvote; print(time.perf_counter() - start)"
)


def import_program() -> float:
    """Import blindvote from ./src; return the median seconds the import
    takes in a fresh interpreter, as a command-line user pays it."""
    package = SRC / "blindvote"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no blindvote sources at {package}")
    sys.path.insert(0, str(SRC))
    import blindvote

    if Path(blindvote.__file__).resolve().parent != package:
        raise SystemExit(f"error: blindvote imported from {blindvote.__file__}, not {package}")
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", TIME_IMPORT, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_s = import_program()
    import harness
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    out_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run = harness.Run(workload, out_dir, OUT / "sha256")
    tracer = tracing.Tracer() if args.trace else None
    walls = {False: [], True: []}
    start = time.perf_counter()
    rounds = 0
    try:
        while True:
            traced = bool(args.trace) and rounds % 2 == 1
            t0 = time.perf_counter()
            run.round(rounds, tracer if traced else None)
            walls[traced].append(time.perf_counter() - t0)
            rounds += 1
            print(f"round {rounds}: {walls[traced][-1]:.3f} s{' traced' * traced}", file=sys.stderr)
            if rounds < 1 + args.trace:
                continue
            per_round = statistics.median(walls[False] + walls[True])
            if time.perf_counter() - start + per_round > args.seconds:
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for problem in run.unexpected:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if run.waived:
        print(
            f"privacy row left unchecked on {run.waived} seeded election(s)"
            " with a non-unit first sign request",
            file=sys.stderr,
        )
    print(f"transcript sha256 {run.first_sha}", file=sys.stderr)
    print(f"samples {json.dumps(run.samples)}", file=sys.stderr)

    if args.trace:
        traced_rounds = len(walls[True])
        values = {k: v / traced_rounds for k, v in tracer.totals().items()}
        untraced = statistics.median(walls[False])
        values["trace.overhead_ratio"] = statistics.median(walls[True]) / untraced
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        chosen = spec["per_layer"]
    else:
        s = run.samples
        values = {
            "setup_s": import_s + statistics.median(s["setup"]),
            "election_s": statistics.median(s["election"]),
            "grade_s": statistics.median(s["grade"]),
            "verify_s": statistics.median(s["verify"]),
            "sweep_s": statistics.median(s["sweep"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        chosen = spec["end_to_end"]
    result = {
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in chosen
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
