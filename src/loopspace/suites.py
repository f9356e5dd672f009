"""Self-check suites: relation systems, differentials, and coverings.

Each suite runs a family of exact identities and returns a report dict
with per-row counts, the first few failures rendered as strings, and an
overall ``ok`` flag.  The face/degeneracy rows are classified by the
global position of the face coordinate relative to the two copies a
degeneracy creates: coordinates left of both copies commute past it with
the index shift (row A), coordinates right of both commute without it
(row B), the deleting face at a copy is the identity (row Id), the two
splitting faces at the copies agree (row F), and two degeneracies
interchange with the index shift (row EE).  Identities are compared as
canonical forms; slot indices always refer to the raw, uncanonicalized
representative.  One checker (``_check_relations``) runs these rows, and
the face-face interchange (FF) and the dimension count (dim), on loop
words and path cells alike; each model hands it a small record of its
operators (``_Model``).  Cube cells are no third model: the cube rows run
the word model on the necklaces of standard_simplex(n + 1) from 0 to n + 1,
and the path model on the path cells of standard_simplex(n) ending at n.
A report that ran no row, or a comparator that compared no word, is
marked ``vacuous``.
"""

from __future__ import annotations

import inspect
import random
from functools import partial
from operator import attrgetter
from typing import Callable, NamedTuple

from .chains import boundary_chain, boundary_word, is_killed, leibniz_defect
from .cobar import compare_theorem2
from .cubes import face_coordinates
from .paths import (
    PathCell,
    cover_graph,
    covering_report,
    cube_cells,
    path_canonical,
    path_cell,
    path_degeneracy_raw,
    path_degeneracy_slots,
    path_face,
    path_face_raw,
)
from .simplicial import SimplicialPresentation, standard_simplex
from .words import (
    LoopWord,
    canonical,
    degeneracy_slots,
    random_reduced_word,
    word_degeneracy,
    word_face,
    word_face_raw,
)


class _Recorder:
    def __init__(self, max_failures: int = 5):
        self.counts: dict[str, int] = {}
        self.fail_counts: dict[str, int] = {}
        self.failures: list[str] = []
        self.max_failures = max_failures

    def record(self, row: str, ok: bool, info: tuple = ()) -> None:
        self.counts[row] = self.counts.get(row, 0) + 1
        if not ok:
            self.fail_counts[row] = self.fail_counts.get(row, 0) + 1
            if len(self.failures) < self.max_failures:
                self.failures.append(f"{row}: " + " ".join(str(x) for x in info))

    def report(self, vacuous: bool = False, **extra) -> dict[str, object]:
        """The report; ``vacuous`` (also set when no row ran) marks a run
        that checked nothing, whose ``ok`` says nothing."""
        out = {
            "checks": dict(sorted(self.counts.items())),
            "failed": dict(sorted(self.fail_counts.items())),
            "failures": self.failures,
            "ok": not self.fail_counts,
        }
        if vacuous or not self.counts:
            out["vacuous"] = True
        out.update(extra)
        return out


def status(report: dict[str, object]) -> str:
    """How a report's outcome is printed: fail, pass, or vacuous when
    nothing was checked."""
    if not report["ok"]:
        return "fail"
    return "vacuous (no check ran)" if report.get("vacuous") else "pass"


# -- random cell generators -------------------------------------------------


def random_loop_cells(
    zx: SimplicialPresentation, rng: random.Random, count: int,
    max_degree: int = 4, max_length: int = 3, max_degens: int = 2,
) -> list[LoopWord]:
    """Random canonical basepoint words with degeneracies sprinkled in."""
    base = zx.basepoint
    out = []
    for _ in range(count):
        w = random_reduced_word(zx, rng, base, base, max_degree, max_length)
        for _ in range(rng.randrange(max_degens + 1)):
            raw = word_degeneracy(zx, w, rng.randint(1, degeneracy_slots(w)))
            w = canonical(zx, raw.letters, raw.start)
        out.append(w)
    return out


def random_path_cells(
    zx: SimplicialPresentation, rng: random.Random, count: int
) -> list[PathCell]:
    gens = [g.name for d in range(zx.max_dim + 1) for g in zx.generators_of_dim(d)]
    out = []
    for _ in range(count):
        base = zx.term(gens[rng.randrange(len(gens))])
        for _ in range(rng.randrange(3)):
            base = zx.degenerate(base, rng.randrange(base.dim + 1))
        hi = zx.endpoints(base)[1]
        w = random_reduced_word(zx, rng, hi, zx.basepoint, 3, 3)
        out.append(path_cell(zx, base, w))
    return out


# -- the cubical relation suite ---------------------------------------------


class _Model(NamedTuple):
    """What the relation checker needs of one cell model."""

    face: Callable  # (cell, i, eps) -> canonical face
    face_raw: Callable  # (cell, i, eps) -> raw face
    degeneracy_raw: Callable  # (cell, j) -> raw degeneracy
    normal: Callable  # cell -> normal form
    degree: Callable  # cell -> degree
    positions: Callable  # cell -> necklace position of each face coordinate
    slots: Callable  # cell -> number of degeneracy slots


def _word_model(zx: SimplicialPresentation) -> _Model:
    return _Model(
        partial(word_face, zx), partial(word_face_raw, zx), partial(word_degeneracy, zx),
        lambda w: canonical(zx, w.letters, w.start), attrgetter("degree"),
        lambda w: [p for p, _, _ in face_coordinates(t.dim for t in w.letters)],
        degeneracy_slots,
    )


def _path_model(zx: SimplicialPresentation) -> _Model:
    def positions(c: PathCell) -> list[int]:
        dims = [c.base.dim, *(t.dim for t in c.tail.letters)]
        return [p for p, _, _ in face_coordinates(dims, head=True)]

    return _Model(
        partial(path_face, zx), partial(path_face_raw, zx), partial(path_degeneracy_raw, zx),
        lambda c: path_canonical(zx, c.base, c.tail), attrgetter("degree"),
        positions, path_degeneracy_slots,
    )


def _pad(zx: SimplicialPresentation, c: PathCell) -> PathCell:
    """An empty tail as its unit letter.  The path model handles an empty
    tail itself; the random path rows pad it so that their recorded counts
    (``tests/golden/cubical_rows.json``) stay those of this representative."""
    if c.tail.letters:
        return c
    v = c.tail.start
    return PathCell(c.base, LoopWord((zx.degenerate(zx.term(v), 0),), v, v))


def _check_relations(m: _Model, cells, rec: _Recorder, tag: str) -> None:
    """Run every row on each cell; an operator that raises on a cell (a
    wrong model can address a slot or face out of range) is recorded as a
    failed ``<tag>-error`` row naming the cell, and the next cell runs."""
    for c in cells:
        try:
            _check_cell(m, c, rec, tag)
        except ValueError as exc:
            rec.record(f"{tag}-error", False, (c, exc))


def _check_cell(m: _Model, c, rec: _Recorder, tag: str) -> None:
    n = m.degree(c)
    for j in range(1, n + 1):
        for i in range(1, j):
            for eps in (0, 1):
                for om in (0, 1):
                    left = m.face(m.face(c, j, om), i, eps)
                    right = m.face(m.face(c, i, eps), j - 1, om)
                    rec.record(f"{tag}-FF", left == right, (c, i, j, eps, om))
    home = m.normal(c)
    for j in range(1, m.slots(c) + 1):
        e = m.degeneracy_raw(c, j)  # raw; copies at positions j-1, j
        ps = m.positions(e)
        ok = m.degree(e) == n + 1 and len(ps) == n + 1
        rec.record(f"{tag}-dim", ok, (c, j))
        if not ok:
            continue
        copies = []  # the splitting faces at the two copies
        for idx, p in enumerate(ps, start=1):
            for eps in (0, 1):
                left = m.normal(m.face_raw(e, idx, eps))
                if p < j - 1:
                    right = m.normal(m.degeneracy_raw(m.face_raw(c, idx, eps), j - eps))
                    rec.record(f"{tag}-A", left == right, (c, j, idx, eps))
                elif p > j:
                    right = m.normal(m.degeneracy_raw(m.face_raw(c, idx - 1, eps), j))
                    rec.record(f"{tag}-B", left == right, (c, j, idx, eps))
                elif eps == 1:
                    rec.record(f"{tag}-Id", left == home, (c, j, idx))
                else:
                    copies.append(left)
        if len(copies) == 2:
            rec.record(f"{tag}-F", copies[0] == copies[1], (c, j))
        for i in range(j + 1, m.slots(e) + 1):
            left = m.normal(m.degeneracy_raw(e, i))
            right = m.normal(m.degeneracy_raw(m.degeneracy_raw(c, i - 1), j))
            rec.record(f"{tag}-EE", left == right, (c, j, i))


def cubical_suite(
    zx: SimplicialPresentation | None = None,
    samples: int = 120,
    seed: int = 0,
    cube_n: int = 5,
) -> dict[str, object]:
    """Exhaustive relation checks on the cube cells -- the necklaces and
    path cells of a standard simplex -- plus random loop-word and path-cell
    checks over the given complex."""
    rec = _Recorder()
    for tag, n, aug, model in (("cube", cube_n + 1, False, _word_model),
                               ("cube-aug", cube_n, True, _path_model)):
        delta = standard_simplex(n)
        _check_relations(model(delta), [c for _, c in cube_cells(delta, aug)], rec, tag)
    if zx is not None:
        rng = random.Random(seed)
        _check_relations(_word_model(zx), random_loop_cells(zx, rng, samples), rec, "word")
        paths = [_pad(zx, c) for c in random_path_cells(zx, rng, samples)]
        _check_relations(_path_model(zx), paths, rec, "path")
    return rec.report(suite="cubical", complex=zx.name if zx else None)


# -- differential suites ----------------------------------------------------


def dsq_suite(
    zx: SimplicialPresentation, samples: int = 200, seed: int = 0
) -> dict[str, object]:
    """d(d(w)) = 0 for random words, both variants, and agreement of the
    two variants under the quotient map."""
    rec = _Recorder()
    rng = random.Random(seed)
    cells = random_loop_cells(zx, rng, samples)
    for w in cells:
        if w.degree == 0:
            continue
        for variant in ("de", "normalized"):
            if is_killed(w, variant):
                continue
            d1 = boundary_word(zx, w, variant)
            d2 = boundary_chain(zx, d1, variant)
            rec.record(f"dsq-{variant}", not d2, (w, {str(k): v for k, v in d2.items()}))
        if not is_killed(w, "normalized"):
            de_then_project = {
                f: c
                for f, c in boundary_word(zx, w, "de").items()
                if not is_killed(f, "normalized")
            }
            rec.record(
                "quotient-chain-map",
                de_then_project == boundary_word(zx, w, "normalized"),
                (w,),
            )
    return rec.report(suite="dsq", complex=zx.name, samples=len(cells))


def leibniz_suite(
    zx: SimplicialPresentation, samples: int = 200, seed: int = 0
) -> dict[str, object]:
    """Zero Leibniz defect on random pairs of algebra generators."""
    rec = _Recorder()
    rng = random.Random(seed)
    us = random_loop_cells(zx, rng, samples)
    vs = random_loop_cells(zx, rng, samples)
    for u, v in zip(us, vs):
        for variant in ("de", "normalized"):
            if is_killed(u, variant) or is_killed(v, variant):
                continue
            defect = leibniz_defect(zx, u, v, variant)
            rec.record(
                f"leibniz-{variant}",
                not defect,
                (u, v, {str(k): c for k, c in defect.items()}),
            )
    return rec.report(suite="leibniz", complex=zx.name, samples=len(us))


def theorem2_suite(
    zx: SimplicialPresentation, max_degree: int = 4, max_length: int = 4
) -> dict[str, object]:
    """The chain/cobar comparator in both variant pairings."""
    rec = _Recorder()
    checked = 0
    for variant in ("de", "normalized"):
        rep = compare_theorem2(zx, max_degree, max_length, variant)
        checked += rep["checked"]
        rec.record(f"theorem2-{variant}", rep["ok"], tuple(rep["mismatches"][:2]))
    return rec.report(
        vacuous=not checked,
        suite="theorem2",
        complex=zx.name,
        max_degree=max_degree,
        max_length=max_length,
        words_checked=checked,
    )


def covering_suite(
    zx: SimplicialPresentation, max_length: int = 4
) -> dict[str, object]:
    """Connectivity and the interior covering property of the degree-0
    path graph."""
    graph = cover_graph(zx, max_length)
    rep = covering_report(zx, graph)
    rec = _Recorder()
    rec.record("covering-connected", bool(rep["connected"]), ())
    rec.record("covering-lifts", bool(rep["ok"]), tuple(rep["covering_failures"][:2]))
    return rec.report(
        vacuous=rep["vacuous"],
        suite="covering",
        complex=zx.name,
        max_length=max_length,
        vertices=rep["vertices"],
        edges=rep["edges"],
        interior_vertices=rep["interior_vertices"],
        tree=rep["tree"],
    )


SUITES = {
    "cubical": cubical_suite,
    "dsq": dsq_suite,
    "leibniz": leibniz_suite,
    "theorem2": theorem2_suite,
    "covering": covering_suite,
}


def run_suite(name: str, zx: SimplicialPresentation, **options) -> dict[str, object]:
    """Run the named suite on zx with those of the options it takes (any of
    samples, seed, cube_n, max_degree, max_length)."""
    suite = SUITES[name]
    takes = inspect.signature(suite).parameters
    return suite(zx, **{k: v for k, v in options.items() if k in takes})
