"""Reduced composable words of simplices: the combinatorial loop model.

A word is a sequence of letters, each a simplex of the edge-inverted
presentation of dimension >= 1, composable in the sense that the last
vertex of each letter is the first vertex of the next.  The degree of a
letter is its simplex dimension minus one.  Canonical generators are
reduced words with nondegenerate letters; degenerate words arising from
faces and degeneracies are identified by junction shifts (an extra copy
of one letter's last vertex equals an extra copy of the next letter's
first vertex), cancellation of adjacent inverse edge pairs, and
absorption of unit letters.  Because cancellations can hide behind shifts
in either direction, no one-directional rewriting is confluent; the
canonical form is instead read off the bead normal form that path cells
share (``cubes._bead_normal_form``), with each letter's vertex
multiplicities as its bead, and the tests check it against the minimum of
the finite orbit of a word under these moves.  The plain cells of the cube
on Delta^n are the words of standard_simplex(n) from vertex 0 to n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .cubes import _bead_normal_form, degeneracy_coordinate, face_coordinate
from .simplicial import SimplexTerm, SimplicialPresentation, _inverse_pair, _split


class WordError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class LoopWord:
    letters: tuple[SimplexTerm, ...]
    start: str
    end: str

    @property
    def degree(self) -> int:
        return sum(t.dim - 1 for t in self.letters)

    def has_degenerate_letter(self) -> bool:
        return not all(t.is_nondegenerate for t in self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        return ";".join(str(t) for t in self.letters)


def unit(at: str) -> LoopWord:
    return LoopWord((), at, at)


def check_composable(
    zx: SimplicialPresentation, letters: tuple[SimplexTerm, ...]
) -> tuple[str, str]:
    """Endpoints of a composable raw word; raises on a mismatch."""
    if not letters:
        raise WordError("empty raw word has no endpoints; use unit(at)")
    prev_max = None
    start = None
    for t in letters:
        if t.dim < 1:
            raise WordError(f"letter {t} must have dimension >= 1")
        lo, hi = zx.endpoints(t)
        if prev_max is not None and lo != prev_max:
            raise WordError(f"word not composable at {t}: {prev_max} != {lo}")
        if start is None:
            start = lo
        prev_max = hi
    return start, prev_max


def canonical(
    zx: SimplicialPresentation,
    letters: tuple[SimplexTerm, ...],
    start: str | None = None,
) -> LoopWord:
    """Canonical representative of the relation class of a raw word.

    Letters are beads with their nondegenerate simplices as cores, and the
    class is the bead normal form of ``cubes._bead_normal_form``: the cores
    left after every cancellation of an adjacent inverse edge pair with no
    duplicate between them, and the number of duplicated vertices at each
    position.  Vertex-collapse letters dissolve into duplicates at their
    position, shedding one.  The representative assigns the duplicates of
    each surviving junction to the first vertex of the right-hand letter,
    those of the end to the last vertex of the last letter, and those of a
    word with no core left to one vertex-collapse letter.
    """
    if start is None:
        if not letters:
            raise WordError("the empty word needs a start vertex")
        start = zx.endpoints(letters[0])[0]
    return _normal_word(zx, letters, start)


def _normal_word(
    zx: SimplicialPresentation,
    letters: tuple[SimplexTerm, ...],
    start: str,
    pool: int = 0,
) -> LoopWord:
    """``canonical`` of the raw word from ``start`` with ``pool`` more free
    duplicates at its start (those a path cell's base hands to its tail)."""
    end = start
    if letters:
        s, end = check_composable(zx, letters)
        if s != start:
            raise WordError(f"declared start {start} does not match word start {s}")
    beads, left = _bead_normal_form(
        ((t, t.mult) for t in letters), pool, partial(_inverse_pair, zx)
    )
    if beads:
        # an unchanged letter is reused, not rebuilt: long words share letters
        out = (t if m == list(t.mult) else SimplexTerm(t.generator, tuple(m)) for t, m in beads)
        return LoopWord(tuple(out), start, end)
    if left:
        letter = SimplexTerm(zx.generators[start], (left + 2,))
        return LoopWord((letter,), start, start)
    return unit(start)


def compose(zx: SimplicialPresentation, u: LoopWord, v: LoopWord) -> LoopWord:
    if u.end != v.start:
        raise WordError(f"cannot compose: {u.end} != {v.start}")
    return canonical(zx, u.letters + v.letters, u.start)


def invert(zx: SimplicialPresentation, w: LoopWord) -> LoopWord:
    """Inverse of a degree-0 word: reversed op-partners."""
    for t in w.letters:
        if t.dim != 1 or not zx.has_op_partner(t):
            raise WordError(f"letter {t} is not an invertible edge")
    letters = tuple(zx.op(t) for t in reversed(w.letters))
    if not letters:
        return unit(w.start)
    return canonical(zx, letters, w.end)


def power_decompose(zx: SimplicialPresentation, w: LoopWord) -> tuple[LoopWord, int]:
    """Shortest root r and exponent k >= 0 with r^k = w, for a degree-0 loop.

    The unit decomposes as (e, 0); a primitive word as (w, 1)."""
    if w.degree != 0:
        raise WordError(f"{w} has degree {w.degree}, not a group element")
    n = len(w.letters)
    if n == 0:
        return w, 0
    for d in range(1, n + 1):
        if n % d:
            continue
        root = LoopWord(w.letters[:d], w.start, zx.endpoints(w.letters[d - 1])[1])
        if root.end != root.start:
            continue
        power = unit(w.start)
        for _ in range(n // d):
            power = compose(zx, power, root)
        if power == w:
            return root, n // d
    return w, 1


# -- face and degeneracy operators ----------------------------------------


def word_face_raw(
    zx: SimplicialPresentation, w: LoopWord, i: int, eps: int
) -> LoopWord:
    """Face at coordinate i without canonicalization (for relation checks,
    where slot indices refer to the raw representative): eps = 1 deletes
    the vertex, eps = 0 splits its letter there into front and back."""
    if eps not in (0, 1):
        raise WordError("epsilon must be 0 or 1")
    at = face_coordinate((t.dim for t in w.letters), i)
    if at is None:
        raise WordError(f"coordinate {i} out of range 1..{w.degree}")
    k, v = at
    t = w.letters[k]
    replaced = (zx.face(t, v),) if eps == 1 else _split(zx, t, v)
    return LoopWord(w.letters[:k] + replaced + w.letters[k + 1 :], w.start, w.end)


def word_face(zx: SimplicialPresentation, w: LoopWord, i: int, eps: int) -> LoopWord:
    raw = word_face_raw(zx, w, i, eps)
    return canonical(zx, raw.letters, raw.start)


def degeneracy_slots(w: LoopWord) -> int:
    """Number of degeneracy slots: degree + length + 1 (one per bead vertex,
    junctions identified)."""
    if not w.letters:
        return 2  # the two slots of the unit letter, which agree
    return w.degree + len(w.letters) + 1


def word_degeneracy(zx: SimplicialPresentation, w: LoopWord, j: int) -> LoopWord:
    """Insert a degeneracy at slot j; returns a raw (unreduced) word.

    Junction slots are addressed as s_0 of the right-hand letter.
    """
    if not w.letters:
        if not 1 <= j <= degeneracy_slots(w):
            raise WordError(f"degeneracy slot {j} out of range")
        e_letter = SimplexTerm(zx.generators[w.start], (2,))  # s_0 of the vertex
        return LoopWord((zx.degenerate(e_letter, 0),), w.start, w.end)
    at = degeneracy_coordinate((t.dim for t in w.letters), j)
    if at is None:
        raise WordError(f"degeneracy slot {j} out of range")
    k, v = at
    letters = w.letters[:k] + (zx.degenerate(w.letters[k], v),) + w.letters[k + 1 :]
    return LoopWord(letters, w.start, w.end)


# -- enumeration -----------------------------------------------------------


def letter_pool(zx: SimplicialPresentation) -> list[SimplexTerm]:
    pool = []
    for d in range(1, zx.max_dim + 1):
        pool.extend(zx.term(g.name) for g in zx.generators_of_dim(d))
    return pool


def enumerate_words(
    zx: SimplicialPresentation,
    degree: int,
    max_length: int | None,
    start: str,
    end: str,
) -> list[LoopWord]:
    """All reduced words with nondegenerate letters of the given degree,
    length bound and endpoints, in deterministic order."""
    if max_length is None:
        if zx.generators_of_dim(1):
            raise WordError("unbounded enumeration needs a complex without edges")
        max_length = max(degree, 1)
    pool = letter_pool(zx)
    found: list[LoopWord] = []
    if degree == 0 and start == end:
        found.append(unit(start))

    def extend(prefix: list[SimplexTerm], at: str, deg_left: int):
        if len(prefix) >= max_length:
            return
        for t in pool:
            d = t.dim - 1
            if d > deg_left:
                continue
            lo, hi = zx.endpoints(t)
            if lo != at:
                continue
            if prefix and _inverse_pair(zx, prefix[-1], t):
                continue
            prefix.append(t)
            if deg_left == d and hi == end:
                found.append(LoopWord(tuple(prefix), start, end))
            extend(prefix, hi, deg_left - d)
            prefix.pop()

    extend([], start, degree)
    found.sort(key=lambda w: (len(w.letters), w.letters))
    return found


def random_reduced_word(zx, rng, start: str, end: str, max_degree: int, max_length: int):
    """A random reduced word between the endpoints, or the unit on failure."""
    pool = letter_pool(zx)
    for _ in range(60):
        target_len = rng.randint(0 if start == end else 1, max_length)
        letters: list[SimplexTerm] = []
        at = start
        ok = True
        for k in range(target_len):
            options = [
                t
                for t in pool
                if zx.endpoints(t)[0] == at
                and t.dim - 1 + sum(x.dim - 1 for x in letters) <= max_degree
                and not (letters and _inverse_pair(zx, letters[-1], t))
            ]
            if not options:
                ok = False
                break
            pick = options[rng.randrange(len(options))]
            letters.append(pick)
            at = zx.endpoints(pick)[1]
        if ok and at == end and (letters or start == end):
            if not letters:
                return unit(start)
            return LoopWord(tuple(letters), start, end)
    if start == end:
        return unit(start)
    raise WordError(f"no word found from {start} to {end}")
