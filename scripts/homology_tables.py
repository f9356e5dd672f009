#!/usr/bin/env python3
"""Print loop-space homology tables for the builtin complexes.

Usage:
    python3 scripts/homology_tables.py [--degree N] [--variant de|normalized]
"""

import argparse
import sys

from loopspace.chains import Ring
from loopspace.fileformat import resolve_model
from loopspace.homology import field_dimensions, homology


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--degree", type=int, default=4)
    ap.add_argument("--variant", choices=("de", "normalized"), default="normalized")
    ap.add_argument("--complexes", nargs="*",
                    default=["sphere:2", "sphere:3", "boundary-simplex:2", "wedge:2"])
    args = ap.parse_args()
    if args.degree < 0:
        ap.error(f"--degree must be non-negative, got {args.degree}")

    for spec in args.complexes:
        try:
            zx = resolve_model(spec)
            # with edges, truncate at the least weight where degree + 1 has a one-letter word
            table = homology(zx, args.degree, args.variant, args.degree + 2)
        except ValueError as exc:  # every library error subclasses it
            print(f"error: {spec}: {exc}", file=sys.stderr)
            return 2
        label = "exact" if table.max_weight is None else f"truncated at weight {table.max_weight}"
        print(f"{spec}  [{args.variant}, {label}]")
        dims_q = field_dimensions(table, Ring.rationals())
        for g in table.groups:
            print(f"  H_{g.degree} = {g}   (dim_Q = {dims_q[g.degree]})")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
