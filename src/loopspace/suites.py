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
representative.
"""

from __future__ import annotations

import inspect
import random

from .chains import Ring, boundary_chain, boundary_word, is_killed, leibniz_defect
from .cobar import compare_theorem2
from .cubes import (
    all_cells,
    dup_canonical,
    dup_degeneracy,
    dup_degeneracy_slots,
    dup_face,
    dup_face_positions,
)
from .paths import (
    PathCell,
    cover_graph,
    covering_report,
    path_canonical,
    path_cell,
    path_degeneracy_raw,
    path_degeneracy_slots,
    path_face_raw,
)
from .simplicial import SimplicialPresentation
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

    def report(self, **extra) -> dict[str, object]:
        out = {
            "checks": dict(sorted(self.counts.items())),
            "failed": dict(sorted(self.fail_counts.items())),
            "failures": self.failures,
            "ok": not self.fail_counts,
        }
        out.update(extra)
        return out


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


def _check_cube_cells(cells, rec: _Recorder, tag: str) -> None:
    for d in cells:
        n = d.dim
        # face-face interchange; faces of duplicate-free cells need no normal form
        for j in range(1, n + 1):
            for i in range(1, j):
                for eps in (0, 1):
                    for om in (0, 1):
                        left = dup_face(dup_face(d, j, om), i, eps)
                        right = dup_face(dup_face(d, i, eps), j - 1, om)
                        rec.record(f"{tag}-FF", left == right, (d, i, j, eps, om))
        slots = len(dup_degeneracy_slots(d))
        for j in range(1, slots + 1):
            ed = dup_degeneracy(d, j)  # raw; copies at positions j-1, j
            fps = dup_face_positions(ed)
            rec.record(f"{tag}-dim", ed.dim == n + 1 and len(fps) == n + 1, (d, j))
            for idx, (p, _, _) in enumerate(fps, start=1):
                for eps in (0, 1):
                    left = dup_canonical(dup_face(ed, idx, eps))
                    if p < j - 1:
                        right = dup_canonical(
                            dup_degeneracy(dup_face(d, idx, eps), j - eps)
                        )
                        rec.record(f"{tag}-A", left == right, (d, j, idx, eps))
                    elif p > j:
                        right = dup_canonical(
                            dup_degeneracy(dup_face(d, idx - 1, eps), j)
                        )
                        rec.record(f"{tag}-B", left == right, (d, j, idx, eps))
                    elif eps == 1:
                        rec.record(f"{tag}-Id", left == dup_canonical(d), (d, j, idx))
            copies = [
                idx for idx, (p, _, _) in enumerate(fps, start=1) if p in (j - 1, j)
            ]
            if len(copies) == 2:
                rec.record(
                    f"{tag}-F",
                    dup_canonical(dup_face(ed, copies[0], 0))
                    == dup_canonical(dup_face(ed, copies[1], 0)),
                    (d, j),
                )
            for i in range(j + 1, len(dup_degeneracy_slots(ed)) + 1):
                left = dup_canonical(dup_degeneracy(ed, i))
                right = dup_canonical(dup_degeneracy(dup_degeneracy(d, i - 1), j))
                rec.record(f"{tag}-EE", left == right, (d, j, i))


def _check_words(zx, words, rec: _Recorder) -> None:
    def interior_positions(w: LoopWord) -> list[int]:
        out, acc = [], 0
        for t in w.letters:
            out.extend(range(acc + 1, acc + t.dim))
            acc += t.dim
        return out

    for w in words:
        n = w.degree
        # face-face interchange
        for j in range(1, n + 1):
            for i in range(1, j):
                for eps in (0, 1):
                    for om in (0, 1):
                        left = word_face(zx, word_face(zx, w, j, om), i, eps)
                        right = word_face(zx, word_face(zx, w, i, eps), j - 1, om)
                        rec.record("word-FF", left == right, (w, i, j, eps, om))
        for j in range(1, degeneracy_slots(w) + 1):
            ew = word_degeneracy(zx, w, j)  # raw; copies at positions j-1, j
            ips = interior_positions(ew)
            rec.record("word-dim", len(ips) == n + 1, (w, j))
            for idx, p in enumerate(ips, start=1):
                for eps in (0, 1):
                    left = word_face(zx, ew, idx, eps)
                    if p < j - 1:
                        fr = word_face_raw(zx, w, idx, eps)
                        right = canonical(
                            zx, word_degeneracy(zx, fr, j - eps).letters, fr.start
                        )
                        rec.record("word-A", left == right, (w, j, idx, eps))
                    elif p > j:
                        fr = word_face_raw(zx, w, idx - 1, eps)
                        right = canonical(
                            zx, word_degeneracy(zx, fr, j).letters, fr.start
                        )
                        rec.record("word-B", left == right, (w, j, idx, eps))
                    elif eps == 1:
                        rec.record("word-Id", left == w, (w, j, idx))
            copies = [idx for idx, p in enumerate(ips, start=1) if p in (j - 1, j)]
            if len(copies) == 2:
                rec.record(
                    "word-F",
                    word_face(zx, ew, copies[0], 0) == word_face(zx, ew, copies[1], 0),
                    (w, j),
                )
            for i in range(j + 1, degeneracy_slots(ew) + 1):
                left = canonical(zx, word_degeneracy(zx, ew, i).letters, ew.start)
                right = canonical(
                    zx,
                    word_degeneracy(zx, word_degeneracy(zx, w, i - 1), j).letters,
                    w.start,
                )
                rec.record("word-EE", left == right, (w, j, i))


def _check_paths(zx, cells, rec: _Recorder) -> None:
    def pad(c: PathCell) -> PathCell:
        # an empty tail is represented by its unit letter for slot arithmetic
        if c.tail.letters:
            return c
        v = c.tail.start
        padl = zx.degenerate(zx.term(v), 0)
        return PathCell(c.base, LoopWord((padl,), v, v))

    def coords(c: PathCell) -> list[int]:
        out, acc = [], 0
        for t in c.tail.letters:
            out.extend(range(acc + 1, acc + t.dim))
            acc += t.dim
        p = c.base.dim
        return list(range(p)) + [p + q for q in out]

    def cn(c: PathCell) -> PathCell:
        return path_canonical(zx, c.base, c.tail)

    for c0 in cells:
        c = pad(c0)
        n = c0.degree
        for j in range(1, n + 1):
            for i in range(1, j):
                for eps in (0, 1):
                    for om in (0, 1):
                        left = cn(path_face_raw(zx, cn(path_face_raw(zx, c, j, om)), i, eps))
                        right = cn(path_face_raw(zx, cn(path_face_raw(zx, c, i, eps)), j - 1, om))
                        rec.record("path-FF", left == right, (c, i, j, eps, om))
        for j in range(1, path_degeneracy_slots(c) + 1):
            er = path_degeneracy_raw(zx, c, j)
            ps = coords(er)
            rec.record("path-dim", len(ps) == n + 1, (c, j))
            if len(ps) != n + 1:
                continue
            for idx, p in enumerate(ps, start=1):
                for eps in (0, 1):
                    left = cn(path_face_raw(zx, er, idx, eps))
                    if p < j - 1:
                        right = cn(
                            path_degeneracy_raw(zx, path_face_raw(zx, c, idx, eps), j - eps)
                        )
                        rec.record("path-A", left == right, (c, j, idx, eps))
                    elif p > j:
                        right = cn(
                            path_degeneracy_raw(zx, path_face_raw(zx, c, idx - 1, eps), j)
                        )
                        rec.record("path-B", left == right, (c, j, idx, eps))
                    elif eps == 1:
                        rec.record("path-Id", left == c0, (c, j, idx))
            copies = [idx for idx, p in enumerate(ps, start=1) if p in (j - 1, j)]
            if len(copies) == 2:
                rec.record(
                    "path-F",
                    cn(path_face_raw(zx, er, copies[0], 0))
                    == cn(path_face_raw(zx, er, copies[1], 0)),
                    (c, j),
                )
            for i in range(j + 1, path_degeneracy_slots(er) + 1):
                left = cn(path_degeneracy_raw(zx, er, i))
                right = cn(
                    path_degeneracy_raw(zx, path_degeneracy_raw(zx, c, i - 1), j)
                )
                rec.record("path-EE", left == right, (c, j, i))


def cubical_suite(
    zx: SimplicialPresentation | None = None,
    samples: int = 120,
    seed: int = 0,
    cube_n: int = 5,
) -> dict[str, object]:
    """Exhaustive relation checks on the cube cell calculus, plus random
    loop-word and path-cell checks over the given complex."""
    rec = _Recorder()
    _check_cube_cells(all_cells(cube_n + 1), rec, "cube")
    _check_cube_cells(all_cells(cube_n, augmented=True), rec, "cube-aug")
    if zx is not None:
        rng = random.Random(seed)
        _check_words(zx, random_loop_cells(zx, rng, samples), rec)
        _check_paths(zx, random_path_cells(zx, rng, samples), rec)
    return rec.report(suite="cubical", complex=zx.name if zx else None)


# -- differential suites ----------------------------------------------------


def dsq_suite(
    zx: SimplicialPresentation, samples: int = 200, seed: int = 0
) -> dict[str, object]:
    """d(d(w)) = 0 for random words, both variants, and agreement of the
    two variants under the quotient map."""
    rec = _Recorder()
    rng = random.Random(seed)
    ring = Ring.integers()
    cells = random_loop_cells(zx, rng, samples)
    for w in cells:
        if w.degree == 0:
            continue
        for variant in ("de", "normalized"):
            if is_killed(w, variant):
                continue
            d1 = boundary_word(zx, ring, w, variant)
            d2 = boundary_chain(zx, ring, d1, variant)
            rec.record(f"dsq-{variant}", not d2, (w, {str(k): v for k, v in d2.items()}))
        if not is_killed(w, "normalized"):
            de_then_project = {
                f: c
                for f, c in boundary_word(zx, ring, w, "de").items()
                if not is_killed(f, "normalized")
            }
            rec.record(
                "quotient-chain-map",
                de_then_project == boundary_word(zx, ring, w, "normalized"),
                (w,),
            )
    return rec.report(suite="dsq", complex=zx.name, samples=len(cells))


def leibniz_suite(
    zx: SimplicialPresentation, samples: int = 200, seed: int = 0
) -> dict[str, object]:
    """Zero Leibniz defect on random pairs of algebra generators."""
    rec = _Recorder()
    rng = random.Random(seed)
    ring = Ring.integers()
    us = random_loop_cells(zx, rng, samples)
    vs = random_loop_cells(zx, rng, samples)
    for u, v in zip(us, vs):
        for variant in ("de", "normalized"):
            if is_killed(u, variant) or is_killed(v, variant):
                continue
            defect = leibniz_defect(zx, ring, u, v, variant)
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
