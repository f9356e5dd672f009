#!/usr/bin/env python3
"""Export the covering graph of a complex's 1-skeleton as DOT.

Usage:
    python3 scripts/export_cover.py wedge:2 --max-len 3 > cover.dot
"""

import argparse
import sys

from loopspace.fileformat import resolve_model
from loopspace.paths import cover_graph, covering_report, to_dot


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("complex", help="builtin spec or complex file")
    ap.add_argument("--max-len", type=int, default=3)
    args = ap.parse_args()
    if args.max_len < 0:
        ap.error(f"--max-len must be non-negative, got {args.max_len}")

    try:
        zx = resolve_model(args.complex)
    except ValueError as exc:  # every library error subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    graph = cover_graph(zx, args.max_len)
    rep = covering_report(zx, graph)
    covering = ("FAIL" if not rep["ok"]
                else "vacuous (no lift checked)" if rep["vacuous"] else "ok")
    print(to_dot(graph))
    print(f"// {rep['vertices']} vertices, {rep['edges']} edges, "
          f"connected={rep['connected']}, tree={rep['tree']}, covering={covering}")
    return 0 if rep["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
