#!/usr/bin/env python3
"""Run every property suite over the standard fixtures and print a summary.

Usage:
    python3 scripts/run_suites.py [--samples N] [--seed S]
"""

import argparse
import sys
import time

from loopspace.fileformat import resolve_model
from loopspace.suites import SUITES, run_suite, status

FIXTURES = ["sphere:2", "sphere:3", "boundary-simplex:2", "boundary-simplex:3", "wedge:2"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cube-n", type=int, default=4)
    args = ap.parse_args()
    if min(args.samples, args.cube_n) < 0:
        ap.error(f"--samples and --cube-n must be non-negative, got {args.samples}, {args.cube_n}")

    failed = 0
    for spec in FIXTURES:
        zx = resolve_model(spec)
        for name in sorted(SUITES):
            start = time.perf_counter()
            rep = run_suite(name, zx, samples=args.samples, seed=args.seed,
                            cube_n=args.cube_n, max_degree=3, max_length=4)
            elapsed = time.perf_counter() - start
            print(f"{spec:<22} {name:<10} {status(rep)}  ({elapsed:.2f}s)")
            if not rep["ok"]:
                failed += 1
                for f in rep["failures"][:3]:
                    print(f"    {f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
