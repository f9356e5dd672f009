"""Command-line front end.

Commands: validate, cells, boundary, check, homology, group, cover.
Complexes come from ``--builtin`` specs (sphere:n, wedge:r,
boundary-simplex:n, facets:<file>) or a complex-document path; models are
built on the edge-inverted extension.  ``--json`` switches every command
to machine-readable output; the exit status is nonzero iff a check fails
or the input is invalid.
"""

from __future__ import annotations

import argparse
import json
import sys

from .chains import VARIANTS, ChainError, Ring, boundary_word
from .fileformat import parse_word, resolve_complex, resolve_model
from .homology import field_dimensions, homology
from .paths import cover_graph, covering_report, cube_cells, to_adjacency, to_dot
from .simplicial import SimplicialPresentation, standard_simplex
from .suites import SUITES, run_suite, status
from .words import LoopWord, compose, enumerate_words, invert, power_decompose

DEFAULT_SEED = 0
# integer flags that count something, so a negative value is meaningless
COUNT_FLAGS = ("--degree", "--max-len", "--max-weight", "--count-length", "--samples",
               "--cube", "--cube-n")


class CliError(ValueError):
    pass


def _spec(args) -> str:
    """The complex named on the command line."""
    spec = getattr(args, "builtin", None) or getattr(args, "complex", None)
    if not spec:
        raise CliError("no complex given: pass a source or --builtin")
    return spec


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        for line in lines:
            print(line)


def cmd_validate(args) -> int:
    zx = resolve_complex(_spec(args))  # unchecked: this command reports the violations
    zx = zx if zx.op_pairs else zx.z_extension()
    report = zx.validate()
    _emit(args, {"complex": zx.name, "violations": report, "ok": not report},
          [f"{zx.name}: ok" if not report else f"{zx.name}: {len(report)} violation(s)"]
          + [f"  {r}" for r in report])
    return 1 if report else 0


def _cube_label(blocks, augmented: bool) -> str:
    """``[0,1,2][2,3]``; an augmented cell's base block opens bare: ``0,2][2,3]``."""
    label = "".join("[" + ",".join(map(str, b)) + "]" for b in blocks)
    return label[1:] if augmented else label


def cmd_cells(args) -> int:
    if args.cube is not None:
        if args.complex or args.builtin:
            raise CliError("cells: --cube lists the cube on a simplex and takes no complex")
        zx = standard_simplex(args.cube + (0 if args.aug else 1))
        cells = [(_cube_label(b, args.aug), c.degree) for b, c in cube_cells(zx, args.aug)]
        _emit(args,
              {"cube": args.cube, "augmented": args.aug,
               "cells": [{"label": label, "dim": dim} for label, dim in cells]},
              [f"{label:<30} dim {dim}" for label, dim in cells])
        return 0
    if args.aug:
        raise CliError("cells: --aug needs --cube")
    zx = resolve_model(_spec(args))
    words = enumerate_words(zx, args.degree, args.max_len, zx.basepoint, zx.basepoint)
    _emit(args,
          {"complex": zx.name, "degree": args.degree, "max_length": args.max_len,
           "count": len(words), "cells": [str(w) for w in words]},
          [str(w) for w in words] + [f"# {len(words)} cell(s)"])
    return 0


def _ring(spec: str) -> Ring:
    if spec == "z":
        return Ring.integers()
    if spec == "q":
        return Ring.rationals()
    if spec.startswith("p:") and spec[2:].isdecimal():
        try:
            return Ring.prime_field(int(spec[2:]))
        except ChainError as exc:
            raise CliError(f"coefficient ring {spec!r}: {exc}") from None
    raise CliError(f"unknown coefficient ring {spec!r} (use z, q, or p:<prime>)")


def cmd_boundary(args) -> int:
    ring = _ring(args.coeff)
    zx = resolve_model(_spec(args))
    w = parse_word(zx, args.word)
    # d is integral and Z -> ring is a ring map: reduce once, at the end
    reduced = ((str(f), ring.coerce(c)) for f, c in boundary_word(zx, w, args.variant).items())
    terms = sorted((f, c) for f, c in reduced if c)
    rendered = " + ".join(
        (f"{c}*({f})" if c != 1 else f"({f})") for f, c in terms) or "0"
    _emit(args,
          {"complex": zx.name, "word": str(w), "variant": args.variant,
           "boundary": {f: c for f, c in terms}},
          [rendered])
    return 0


def cmd_check(args) -> int:
    zx = resolve_model(_spec(args))
    report = run_suite(args.suite, zx, samples=args.samples, seed=args.seed,
                       cube_n=args.cube_n, max_degree=args.degree, max_length=args.max_len)
    lines = [f"{zx.name} suite={args.suite}: {status(report)}"]
    lines += [f"  {k}: {v}" for k, v in sorted(report["checks"].items())]
    lines += [f"  FAIL {f}" for f in report["failures"]]
    _emit(args, report, lines)
    return 0 if report["ok"] else 1


def cmd_homology(args) -> int:
    ring = _ring(args.coeff)  # before the computation, which can take long
    zx = resolve_model(_spec(args))
    table = homology(zx, args.degree, args.variant, args.max_weight)
    rows = []
    payload = {"complex": zx.name, "variant": args.variant, "coefficients": ring.name,
               "max_weight": table.max_weight, "basis_sizes": list(table.basis_sizes),
               "nonzeros": list(table.nonzeros), "groups": []}
    dims = field_dimensions(table, ring)
    for g in table.groups:
        if ring.name == "Z":
            desc = str(g)
        else:
            d = dims[g.degree]
            desc = f"{ring.name}^{d}" if d else "0"
        rows.append(f"H_{g.degree:<2} = {desc}")
        payload["groups"].append(
            {"degree": g.degree, "free_rank": g.free_rank,
             "torsion": list(g.torsion), "rendered": desc})
    if table.max_weight is not None:
        rows.append(f"# truncated at weight {table.max_weight}")
    _emit(args, payload, rows)
    return 0


def _group_element(zx: SimplicialPresentation, literal: str) -> LoopWord:
    """A word literal that is a group element: a degree-0 loop at the basepoint."""
    w = parse_word(zx, literal)
    if w.degree or w.start != zx.basepoint or w.end != zx.basepoint:
        raise CliError(f"{literal!r} (degree {w.degree}, from {w.start} to {w.end}) is not a "
                       f"group element, a degree-0 loop at the basepoint {zx.basepoint}")
    return w


def cmd_group(args) -> int:
    zx = resolve_model(_spec(args))
    out: dict[str, object] = {"complex": zx.name}
    lines = []
    if args.element:
        w = _group_element(zx, args.element)
        out["element"] = str(w)
        lines.append(f"element: {w}")
        if args.power_detect:
            root, k = power_decompose(zx, w)
            out["root"], out["exponent"] = str(root), k
            lines.append(f"power: ({root})^{k}")
        if args.invert:
            iw = invert(zx, w)
            out["inverse"] = str(iw)
            lines.append(f"inverse: {iw}")
    if args.compose:
        u, v = (_group_element(zx, literal) for literal in args.compose)
        w = compose(zx, u, v)
        out["composition"] = str(w)
        lines.append(f"composition: {w}")
    if args.count_length is not None:
        words = enumerate_words(zx, 0, args.count_length, zx.basepoint, zx.basepoint)
        out["count"] = len(words)
        lines.append(f"reduced words of length <= {args.count_length}: {len(words)}")
    if len(out) == 1:
        raise CliError("group: nothing to do (pass --element, --compose, or --count-length)")
    _emit(args, out, lines)
    return 0


def cmd_cover(args) -> int:
    zx = resolve_model(_spec(args))
    graph = cover_graph(zx, args.max_len)
    report = covering_report(zx, graph)
    if args.out == "dot":
        body = to_dot(graph)
    elif args.out == "adj":
        body = "\n".join(f"{src} -> {' '.join(dsts)}"
                         for src, dsts in sorted(to_adjacency(graph).items()))
    else:
        covering = ("FAIL" if not report["ok"]
                    else "vacuous (no lift checked)" if report["vacuous"] else "ok")
        body = (f"{zx.name}: {report['vertices']} vertices, {report['edges']} edges, "
                f"connected={report['connected']}, tree={report['tree']}, "
                f"covering={covering}")
    payload = dict(report)
    payload["complex"] = zx.name
    if args.out in ("dot", "adj"):
        payload["export"] = body
    _emit(args, payload, [body])
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="loopspace",
                                description="Combinatorial loop- and path-space models.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("complex", nargs="?", help="builtin spec or complex file")
        sp.add_argument("--builtin", help="sphere:n | wedge:r | boundary-simplex:n | facets:<file>")
        sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("validate", help="check the simplicial identities")
    add_common(sp)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("cells", help="list cube cells or loop-word cells")
    add_common(sp)
    sp.add_argument("--cube", type=int, help="list the cells of the n-cube")
    sp.add_argument("--aug", action="store_true")
    sp.add_argument("--degree", type=int, default=0)
    sp.add_argument("--max-len", type=int)
    sp.set_defaults(fn=cmd_cells)

    sp = sub.add_parser("boundary", help="boundary of a word")
    add_common(sp)
    sp.add_argument("--word", required=True)
    sp.add_argument("--variant", choices=(*VARIANTS, "norm"), default="de")
    sp.add_argument("--coeff", default="z")
    sp.set_defaults(fn=cmd_boundary)

    sp = sub.add_parser("check", help="run a property suite")
    add_common(sp)
    sp.add_argument("--suite", required=True, choices=sorted(SUITES))
    sp.add_argument("--degree", type=int, default=4)
    sp.add_argument("--max-len", type=int, default=4)
    sp.add_argument("--samples", type=int, default=120)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--cube-n", type=int, default=4)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("homology", help="loop-space homology table")
    add_common(sp)
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--max-weight", type=int)
    sp.add_argument("--coeff", default="z")
    sp.add_argument("--variant", choices=(*VARIANTS, "norm"), default="normalized")
    sp.set_defaults(fn=cmd_homology)

    sp = sub.add_parser("group", help="operate on degree-0 words")
    add_common(sp)
    sp.add_argument("--element")
    sp.add_argument("--compose", nargs=2, metavar=("U", "V"))
    sp.add_argument("--invert", action="store_true")
    sp.add_argument("--power-detect", action="store_true")
    sp.add_argument("--count-length", type=int)
    sp.set_defaults(fn=cmd_group)

    sp = sub.add_parser("cover", help="covering graph of the 1-skeleton")
    add_common(sp)
    sp.add_argument("--max-len", type=int, required=True)
    sp.add_argument("--out", choices=("summary", "dot", "adj"), default="summary")
    sp.set_defaults(fn=cmd_cover)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "variant", None) == "norm":
        args.variant = "normalized"
    for flag in COUNT_FLAGS:
        value = getattr(args, flag.lstrip("-").replace("-", "_"), None)
        if value is not None and value < 0:
            print(f"error: {flag} must be non-negative, got {value}", file=sys.stderr)
            return 2
    try:
        return args.fn(args)
    except ValueError as exc:  # every library error subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
