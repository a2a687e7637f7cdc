#!/usr/bin/env python3
"""Time toy-large's sign stage and privacy row at N/2 and N voters.

    python3 perfbench/scaling.py [--voters N] [--seed S]

A ratio near 2 between the two sizes means linear growth, near 4 means
quadratic. The figures in perfbench/README.md come from this script.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from blindvote import scenario  # noqa: E402

import workloads  # noqa: E402


def measure(voters: int, seed: int) -> tuple[float, float]:
    e = scenario.Election(workloads.toy_config(voters, seed))
    e.setup_stage()
    start = time.perf_counter()
    e.sign_stage()
    sign_s = time.perf_counter() - start
    e.vote_stage()
    e.count_stage()
    start = time.perf_counter()
    scenario._privacy_row(e)
    return sign_s, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--voters", type=int, default=workloads.TOY_VOTERS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    half = measure(args.voters // 2, args.seed)
    full = measure(args.voters, args.seed)
    print(f"{'voters':>8} {'sign_stage_s':>13} {'privacy_row_s':>14}")
    for n, (sign_s, privacy_s) in ((args.voters // 2, half), (args.voters, full)):
        print(f"{n:>8} {sign_s:>13.3f} {privacy_s:>14.3f}")
    print(f"{'ratio':>8} {full[0] / half[0]:>13.2f} {full[1] / half[1]:>14.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
