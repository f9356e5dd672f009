#!/usr/bin/env python3
"""Export the covering graph of a complex's 1-skeleton as DOT.

Usage:
    python3 scripts/export_cover.py wedge:2 --max-len 3 > cover.dot
"""

import argparse

from loopspace.fileformat import resolve_complex
from loopspace.paths import cover_graph, covering_report, to_dot


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("complex", help="builtin spec or complex file")
    ap.add_argument("--max-len", type=int, default=3)
    args = ap.parse_args()

    zx = resolve_complex(args.complex)
    if not zx.op_pairs:
        zx = zx.z_extension()
    graph = cover_graph(zx, args.max_len)
    rep = covering_report(zx, graph)
    covering = ("FAIL" if not rep["ok"]
                else "vacuous (no lift checked)" if rep["vacuous"] else "ok")
    print(to_dot(graph))
    print(f"// {rep['vertices']} vertices, {rep['edges']} edges, "
          f"connected={rep['connected']}, tree={rep['tree']}, covering={covering}")


if __name__ == "__main__":
    main()
