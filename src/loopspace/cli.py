"""Command-line front end.

Commands: validate, cells, boundary, check, homology, group, cover.
Complexes come from ``--builtin`` specs (sphere:n, wedge:r,
boundary-simplex:n, facets:<file>) or a complex-document path; models are
built on the edge-inverted extension.  ``--json`` switches every command
to machine-readable output; the exit status is nonzero iff a check fails,
the input is invalid or the reader of the output left.  The library's chains
are integral: the ``--coeff`` ring (z, q or p:<prime>) is parsed and applied
here, once.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import isqrt

from .chains import VARIANTS, boundary_word
from .fileformat import clip, parse_word, resolve_complex, resolve_model
from .homology import field_dimensions, homology
from .paths import cover_graph, covering_report, cube_cells, to_adjacency, to_dot
from .simplicial import SimplicialPresentation, standard_simplex
from .suites import covering_suite, cubical_suite, dsq_suite, leibniz_suite, status, theorem2_suite
from .words import LoopWord, compose, enumerate_words, invert, power_decompose

# integer flags that count something, so a negative value is meaningless
COUNT_FLAGS = ("--degree", "--max-len", "--max-weight", "--count-length", "--samples",
               "--cube", "--cube-n")
PRIME_BOUND = 2**31  # --coeff p:P takes P below this
# the largest cube each flag takes: the cells of the cube on Delta^(n+1)
# grow about 3-fold with n, and the relation rows on them faster; at its
# bound, ``cells`` runs in about 3.5 s and ``check`` in about 5 s on a
# 2-vCPU host
_CUBE_BOUNDS = {"--cube": 10, "--cube-n": 7}
# the highest dimension of a complex ``check --suite cubical`` takes: its
# random path cells draw their bases from every generator, so one costs
# about dim^3; at the bound the default run takes about 4 s on a 2-vCPU host
_CUBICAL_DIM_BOUND = 32


class CliError(ValueError):
    pass


# each suite, called with the ``check`` flags it reads: their defaults are
# the only ones
_SUITES = {
    "cubical": lambda zx, a: cubical_suite(zx, a.samples, a.seed, cube_n=a.cube_n),
    "dsq": lambda zx, a: dsq_suite(zx, a.samples, a.seed),
    "leibniz": lambda zx, a: leibniz_suite(zx, a.samples, a.seed),
    "theorem2": lambda zx, a: theorem2_suite(zx, a.degree, a.max_len),
    "covering": lambda zx, a: covering_suite(zx, a.max_len),
}


def _spec(args) -> str:
    """The complex named on the command line, by a source or by --builtin."""
    source, builtin = args.complex, args.builtin
    if source and builtin:
        raise CliError(f"two complexes given, {clip(source)} and --builtin {clip(builtin)}: "
                       "pass one")
    if not (source or builtin):
        raise CliError("no complex given: pass a source or --builtin")
    return source or builtin


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
        for flag, value in (("--degree", args.degree), ("--max-len", args.max_len)):
            if value is not None:
                raise CliError(f"cells: --cube lists every cell of the cube and takes no {flag}")
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
    degree = args.degree or 0
    words = enumerate_words(zx, degree, args.max_len, zx.basepoint, zx.basepoint)
    _emit(args,
          {"complex": zx.name, "degree": degree, "max_length": args.max_len,
           "count": len(words), "cells": [str(w) for w in words]},
          [str(w) for w in words] + [f"# {len(words)} cell(s)"])
    return 0


def _coefficients(spec: str) -> tuple[str, int | None]:
    """The printed name and the prime of the ring a ``--coeff`` spec names;
    Z and Q take no prime, as d is integral and no coefficient needs a
    denominator.  Trial division tries fewer than 46 341 divisors."""
    if spec in ("z", "q"):
        return spec.upper(), None
    if spec.startswith("p:") and spec[2:].isdecimal():
        digits = spec[2:].lstrip("0") or "0"
        # int() refuses more than 4 300 digits; a longer string than the
        # bound's is at least the bound
        p = int(digits) if len(digits) <= len(str(PRIME_BOUND)) else PRIME_BOUND
        if p >= PRIME_BOUND:
            raise CliError(f"coefficient ring {clip(repr(spec))}: the prime must be below "
                           f"2^31 = {PRIME_BOUND}")
        if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
            raise CliError(f"coefficient ring {clip(repr(spec))}: {p} is not prime")
        return f"GF({p})", p
    raise CliError(f"unknown coefficient ring {clip(repr(spec))} (use z, q, or p:<prime>)")


def cmd_boundary(args) -> int:
    _, p = _coefficients(args.coeff)
    zx = resolve_model(_spec(args))
    w = parse_word(zx, args.word)
    # d is integral and Z -> GF(p) is a ring map: reduce once, at the end
    reduced = ((str(f), c % p if p else c) for f, c in boundary_word(zx, w, args.variant).items())
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
    if args.suite == "cubical" and zx.max_dim > _CUBICAL_DIM_BOUND:
        raise CliError(f"check --suite cubical takes a complex of dimension at most "
                       f"{_CUBICAL_DIM_BOUND}; {zx.name} has dimension {zx.max_dim}")
    report = _SUITES[args.suite](zx, args)
    lines = [f"{zx.name} suite={args.suite}: {status(report)}"]
    lines += [f"  {k}: {v}" for k, v in sorted(report["checks"].items())]
    lines += [f"  FAIL {f}" for f in report["failures"]]
    _emit(args, report, lines)
    return 0 if report["ok"] else 1


def cmd_homology(args) -> int:
    ring, p = _coefficients(args.coeff)  # before the computation, which can take long
    zx = resolve_model(_spec(args))
    table = homology(zx, args.degree, args.variant, args.max_weight)
    rows = []
    payload = {"complex": zx.name, "variant": args.variant, "coefficients": ring,
               "max_weight": table.max_weight, "basis_sizes": list(table.basis_sizes),
               "nonzeros": list(table.nonzeros), "groups": []}
    dims = field_dimensions(table, p)
    for g in table.groups:
        if ring == "Z":
            desc = str(g)
        else:
            d = dims[g.degree]
            desc = f"{ring}^{d}" if d else "0"
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
        raise CliError(f"{clip(repr(literal))} (degree {w.degree}, from {w.start} to {w.end}) "
                       f"is not a group element, a degree-0 loop at the basepoint {zx.basepoint}")
    return w


def cmd_group(args) -> int:
    zx = resolve_model(_spec(args))
    out: dict[str, object] = {"complex": zx.name}
    lines = []
    for flag, value in (("--invert", args.invert), ("--power-detect", args.power_detect)):
        if value and not args.element:
            raise CliError(f"group: {flag} needs --element")
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
    sp.add_argument("--degree", type=int, help="word degree (default 0)")
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
    sp.add_argument("--suite", required=True, choices=sorted(_SUITES))
    sp.add_argument("--degree", type=int, default=4)
    sp.add_argument("--max-len", type=int, default=4)
    sp.add_argument("--samples", type=int, default=120)
    sp.add_argument("--seed", type=int, default=0)
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
        bound = _CUBE_BOUNDS.get(flag)
        if value is not None and (value < 0 or bound is not None and value > bound):
            limit = "non-negative" if value < 0 else f"at most {bound}"
            print(f"error: {flag} must be {limit}, got {value}", file=sys.stderr)
            return 2
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a reader that left shows here, not at exit
    except ValueError as exc:  # every library error subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # what is still buffered goes to devnull, so that the flush at exit
        # cannot raise again; 141 = 128 + SIGPIPE, as a shell reports it
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return status


if __name__ == "__main__":
    sys.exit(main())
