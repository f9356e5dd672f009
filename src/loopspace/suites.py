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
representative.  Normal forms are a function of the raw cell, so a row
whose two raw sides are equal passes without them: a row normalizes its
sides only when they differ.  One checker (``_check_relations``) runs
these rows, and the face-face interchange (FF) and the dimension count
(dim), on loop words and path cells alike; each model hands it a small
record of its operators (``_Model``).  The checker works on bead tuples,
the necklaces the ``cubes`` operators act on (a path cell's base is the
head bead), and builds and compares both raw sides of every row as beads;
a model turns beads back into a cell only to take its normal form
(``canonical``, ``path_canonical``).  The unit word's operators act on
its unit letter s_0 x, but a raw comparison sees the unit itself.  Cube
cells are no third model: the cube rows run the word model on the
necklaces of standard_simplex(n + 1) from 0 to n + 1, and the path model
on the path cells of standard_simplex(n) ending at n.
The rows ask for the checked cell's own raw faces and degeneracies many
times, and build equal raw beads many times; the checker reads them
through dicts that live for that cell only: one of its raw faces
d_k^eps c, one of its raw degeneracies, and one of the normal form of
each distinct raw necklace it normalizes.  The normal forms of the faces
d_k^eps c, where the face-face rows start, come from one dict for the
whole ``_check_relations`` call, since the cells share many faces.  Each
entry is built when a row first asks for it, by the model, so a wrong
model raises where that row asks; every row still runs.  The random
samples repeat cells, so each distinct cell is checked once per call,
into a recorder of its own, whose row counts and failures each of its
draws replays in draw order: the report is the one of checking every
draw.
The differential suites' random samples repeat words, so ``dsq`` and
``leibniz`` take d of each (word, variant), and ``leibniz`` each product,
once per suite call, through caches that live for that call.  A report
that ran no row, or a comparator that compared no word, is ``vacuous``.
"""

from __future__ import annotations

import random
from functools import cache, partial
from typing import Callable, NamedTuple

from .chains import VARIANTS, boundary_chain, boundary_word, is_killed, leibniz_defect
from .cobar import compare_theorem2
from .cubes import Beads, face_positions, necklace_degeneracy, necklace_face, necklace_slots
from .paths import PathCell, PathError, cover_graph, covering_report, cube_cells, path_canonical
from .simplicial import SimplexTerm, SimplicialPresentation, standard_simplex
from .words import (
    LoopWord,
    WordError,
    canonical,
    compose,
    degeneracy_slots,
    random_reduced_word,
    word_degeneracy,
)


class _Recorder:
    MAX_FAILURES = 5  # failures rendered in a report; every one is counted

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.fail_counts: dict[str, int] = {}
        self.failures: list[str] = []

    def record(self, row: str, ok: bool, info: tuple) -> None:
        self.counts[row] = self.counts.get(row, 0) + 1
        if not ok:
            self.fail_counts[row] = self.fail_counts.get(row, 0) + 1
            if len(self.failures) < self.MAX_FAILURES:
                self.failures.append(f"{row}: " + " ".join(str(x) for x in info))

    def replay(self, other: _Recorder) -> None:
        """Record again every row that other recorded, in its order."""
        for row, k in other.counts.items():
            self.counts[row] = self.counts.get(row, 0) + k
        for row, k in other.fail_counts.items():
            self.fail_counts[row] = self.fail_counts.get(row, 0) + k
        self.failures += other.failures[: self.MAX_FAILURES - len(self.failures)]

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
    zx: SimplicialPresentation, rng: random.Random, count: int
) -> list[LoopWord]:
    """Random canonical basepoint words of degree <= 4 and length <= 3,
    each with 0 to 2 random degeneracies applied."""
    base = zx.basepoint
    out = []
    for _ in range(count):
        w = random_reduced_word(zx, rng, base, 4, 3)
        for _ in range(rng.randrange(3)):
            raw = word_degeneracy(zx, w, rng.randint(1, degeneracy_slots(w)))
            w = canonical(zx, raw.letters, raw.start)
        out.append(w)
    return out


def random_path_cells(
    zx: SimplicialPresentation, rng: random.Random, count: int
) -> list[PathCell]:
    """Random path cells: a random generator with 0 to 2 random degeneracies
    as base, and a ``random_reduced_word`` of degree <= 3 home as tail."""
    gens = [g.name for d in range(zx.max_dim + 1) for g in zx.generators_of_dim(d)]
    out = []
    for _ in range(count):
        base = zx.term(gens[rng.randrange(len(gens))])
        for _ in range(rng.randrange(3)):
            base = zx.degenerate(base, rng.randrange(base.dim + 1))
        hi = zx.endpoints(base)[1]
        w = random_reduced_word(zx, rng, hi, 3, 3)
        out.append(path_canonical(zx, base, w))
    return out


# -- the cubical relation suite ---------------------------------------------


class _Model(NamedTuple):
    """What the relation checker needs of one cell model.  The operators
    act on bead tuples and raise ``ValueError`` out of range; a cell's
    anchor is the vertex that, with its beads, fixes the cell (a word's
    start, which the unit's empty beads cannot tell; a path tail's end)."""

    head: bool  # whether the first bead is a head (a path cell's base)
    beads: Callable  # cell -> (its beads, the beads its operators act on, its anchor)
    face_raw: Callable  # (beads, i, eps) -> raw face
    degeneracy_raw: Callable  # (beads, j) -> raw degeneracy
    normal: Callable  # (beads, anchor) -> normal form of the cell they make


def _degree(beads: Beads, head: bool) -> int:
    return sum(t.dim for t in beads) - len(beads) + head


def _word_model(zx: SimplicialPresentation) -> _Model:
    """Loop words.  The unit's operators act on its unit letter s_0 x, as
    ``word_degeneracy`` does, but its own beads stay empty, so a raw
    comparison still sees the unit."""

    def beads(w):
        return w.letters, w.letters or (SimplexTerm(zx.generators[w.start], (2,)),), w.start

    def face(beads, i, eps):
        out = necklace_face(zx, beads, i, eps)
        if out is None:
            raise WordError(f"coordinate {i} out of range 1..{_degree(beads, False)}")
        return out

    def degeneracy(beads, j):
        out = necklace_degeneracy(zx, beads, j)
        if out is None:
            raise WordError(f"degeneracy slot {j} out of range")
        return out

    return _Model(False, beads, face, degeneracy, partial(canonical, zx))


def _path_model(zx: SimplicialPresentation) -> _Model:
    """Path cells: the base is the head bead."""

    def beads(c):
        b = (c.base, *c.tail.letters)
        return b, b, c.tail.end

    def face(beads, i, eps):
        out = necklace_face(zx, beads, i, eps, head=True)
        if out is None:
            raise PathError(f"face index {i} out of range 1..{_degree(beads, True)}")
        return out

    def degeneracy(beads, j):
        out = necklace_degeneracy(zx, beads, j)
        if out is None:
            raise PathError(f"degeneracy slot {j} out of range 1..{necklace_slots(beads)}")
        return out

    def normal(beads, end):
        head = beads[0]
        return path_canonical(zx, head, LoopWord(beads[1:], zx.endpoints(head)[1], end))

    return _Model(True, beads, face, degeneracy, normal)


def _pad(zx: SimplicialPresentation, c: PathCell) -> PathCell:
    """An empty tail as its unit letter.  The path model handles an empty
    tail itself; the random path rows pad it so that their recorded counts
    (``tests/golden/cubical_rows.json``) stay those of this representative."""
    if c.tail.letters:
        return c
    v = c.tail.start
    return PathCell(c.base, LoopWord((zx.degenerate(zx.term(v), 0),), v, v))


class _Built(dict):
    """A dict that builds a missing entry, ``build(key)``, on first lookup."""

    def __init__(self, build: Callable):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def _check_relations(m: _Model, cells, rec: _Recorder, tag: str) -> None:
    """Run every row on each cell; an operator that raises on a cell (a
    wrong model can address a slot or face out of range) is recorded as a
    failed ``<tag>-error`` row naming the cell, and the next cell runs.
    Each distinct cell is checked once, into a recorder of its own, which
    each of its draws replays."""
    face_normal = _Built(lambda key: m.normal(*key))  # the checked cells share many faces
    memo: dict[object, _Recorder] = {}
    for c in cells:
        if c not in memo:
            into = memo[c] = _Recorder()
            into.MAX_FAILURES = rec.MAX_FAILURES
            try:
                _check_cell(m, c, into, tag, face_normal)
            except ValueError as exc:
                into.record(f"{tag}-error", False, (c, exc))
        rec.replay(memo[c])


def _check_cell(m: _Model, c, rec: _Recorder, tag: str, face_normal: dict) -> None:
    # the rows ask for c's own faces and degeneracies, and build equal raw
    # beads, many times: each is built, and normalized, at most once per
    # cell; the normal forms of c's faces come from face_normal, shared
    # across cells.  A row normalizes its two raw sides only when they
    # differ (row F's sides always do).  The face-face rows start from
    # normal forms and c is normalized before the other rows, so a normal
    # form that raises fails each cell before it records a row
    own, ops, at = m.beads(c)
    face_raw, degeneracy_raw, head = m.face_raw, m.degeneracy_raw, m.head
    normal = _Built(lambda b: m.normal(b, at))
    face_of_c = _Built(lambda key: face_raw(ops, *key))
    degeneracy_of_c = _Built(lambda j: degeneracy_raw(ops, j))
    normal_face = _Built(lambda key: m.beads(face_normal[face_of_c[key], at])[1])

    def same(x, y) -> bool:
        return x == y or normal[x] == normal[y]

    n = c.degree
    for j in range(2, n + 1):
        for i in range(1, j):
            for eps in (0, 1):
                for om in (0, 1):
                    left = face_raw(normal_face[j, om], i, eps)
                    right = face_raw(normal_face[i, eps], j - 1, om)
                    rec.record(f"{tag}-FF", same(left, right), (c, i, j, eps, om))
    normal[own]  # a normal form that raises on c fails c here
    for j in range(1, necklace_slots(ops) + 1):
        e = degeneracy_of_c[j]  # raw; copies at positions j-1, j
        ps = face_positions(e, head)
        ok = _degree(e, head) == n + 1 and len(ps) == n + 1
        rec.record(f"{tag}-dim", ok, (c, j))
        if not ok:
            continue
        copies = []  # the splitting faces at the two copies
        for idx, p in enumerate(ps, start=1):
            for eps in (0, 1):
                left = face_raw(e, idx, eps)
                if p < j - 1:
                    right = degeneracy_raw(face_of_c[idx, eps], j - eps)
                    rec.record(f"{tag}-A", same(left, right), (c, j, idx, eps))
                elif p > j:
                    right = degeneracy_raw(face_of_c[idx - 1, eps], j)
                    rec.record(f"{tag}-B", same(left, right), (c, j, idx, eps))
                elif eps == 1:
                    rec.record(f"{tag}-Id", same(left, own), (c, j, idx))
                else:
                    copies.append(normal[left])
        if len(copies) == 2:
            rec.record(f"{tag}-F", copies[0] == copies[1], (c, j))
        for i in range(j + 1, necklace_slots(e) + 1):
            left = degeneracy_raw(e, i)
            right = degeneracy_raw(degeneracy_of_c[i - 1], j)
            rec.record(f"{tag}-EE", same(left, right), (c, j, i))


def cubical_suite(
    zx: SimplicialPresentation | None, samples: int = 120, seed: int = 0, *, cube_n: int
) -> dict[str, object]:
    """Exhaustive relation checks on the cube cells -- the necklaces and
    path cells of a standard simplex -- plus, when zx is given, ``samples``
    random loop words and path cells over it, drawn with ``seed``."""
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


def dsq_suite(zx: SimplicialPresentation, samples: int, seed: int) -> dict[str, object]:
    """d(d(w)) = 0 for random words, both variants, and agreement of the
    two variants under the quotient map."""
    rec = _Recorder()
    rng = random.Random(seed)
    cells = random_loop_cells(zx, rng, samples)
    d = cache(partial(boundary_word, zx))  # the samples repeat words
    for w in cells:
        if w.degree == 0:
            continue
        for variant in VARIANTS:
            if is_killed(w, variant):
                continue
            d1 = d(w, variant)
            d2 = boundary_chain(d1, variant, d)
            rec.record(f"dsq-{variant}", not d2, (w, {str(k): v for k, v in d2.items()}))
        if not is_killed(w, "normalized"):
            de_then_project = {f: c for f, c in d(w, "de").items() if not is_killed(f, "normalized")}
            rec.record("quotient-chain-map", de_then_project == d(w, "normalized"), (w,))
    return rec.report(suite="dsq", complex=zx.name, samples=len(cells))


def leibniz_suite(zx: SimplicialPresentation, samples: int, seed: int) -> dict[str, object]:
    """Zero Leibniz defect on random pairs of algebra generators."""
    rec = _Recorder()
    rng = random.Random(seed)
    us = random_loop_cells(zx, rng, samples)
    vs = random_loop_cells(zx, rng, samples)
    d, mul = cache(partial(boundary_word, zx)), cache(partial(compose, zx))
    for u, v in zip(us, vs):
        for variant in VARIANTS:
            if is_killed(u, variant) or is_killed(v, variant):
                continue
            defect = leibniz_defect(u, v, variant, d, mul)
            rec.record(
                f"leibniz-{variant}",
                not defect,
                (u, v, {str(k): c for k, c in defect.items()}),
            )
    return rec.report(suite="leibniz", complex=zx.name, samples=len(us))


def theorem2_suite(
    zx: SimplicialPresentation, max_degree: int, max_length: int
) -> dict[str, object]:
    """The chain/cobar comparator in both variant pairings."""
    rec = _Recorder()
    checked = 0
    for variant in VARIANTS:
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


def covering_suite(zx: SimplicialPresentation, max_length: int) -> dict[str, object]:
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
