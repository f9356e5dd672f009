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
canonical form is instead read off the bead normal form of the letters'
vertex multiplicities (``_normal_word``, which path cells share; one
dict lookup per letter reads the letter's ends and inverse from its
generator's record), and the tests check it against the minimum of the
finite orbit of a word under these moves.  Faces and degeneracies are
the necklace operators of ``cubes`` on the letters, the unit word taken
as its unit letter s_0 x.  The plain cells of the cube on Delta^n are the
words of standard_simplex(n) from vertex 0 to n.  The raw operators and
the normal form build their words with ``tuple.__new__``, as
``namedtuple._make`` does, to skip the constructor's Python frame; the
path cells of ``paths`` are built the same way.
"""

from __future__ import annotations

from typing import NamedTuple

from .cubes import necklace_degeneracy, necklace_face, necklace_slots
from .simplicial import SimplexTerm, SimplicialError, SimplicialPresentation


class WordError(ValueError):
    pass


class LoopWord(NamedTuple):
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


def canonical(
    zx: SimplicialPresentation,
    letters: tuple[SimplexTerm, ...],
    start: str | None = None,
) -> LoopWord:
    """Canonical representative of the relation class of a raw word.

    Letters are beads with their nondegenerate simplices as cores, and the
    class is their bead normal form: the cores left after every
    cancellation of an adjacent inverse edge pair with no duplicate between
    them, and the number of duplicated vertices at each position.
    Vertex-collapse letters dissolve into duplicates at their position,
    shedding one.  The representative assigns the duplicates of each
    surviving junction to the first vertex of the right-hand letter, those
    of the end to the last vertex of the last letter, and those of a word
    with no core left to one vertex-collapse letter.
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
    duplicates at its start (those a path cell's base hands to its tail).

    One pass over the letters checks each letter and junction, reading
    the letter's ends and inverse from its generator's record in one dict
    lookup, and keeps a stack of the letters that survive, with
    ``fronts[k]`` free duplicates in front of ``kept[k]`` (none when
    absent) and ``junction`` at the current junction.  A letter on a
    vertex dissolves into the junction and sheds one duplicate.  Any other
    letter pools its first vertex's duplicates into the junction, then
    cancels against the top of the stack when the two are an inverse edge
    pair and the junction is empty; the pools on either side merge.  Pools
    only grow, so a nonempty junction never empties and the pool in front
    of a kept letter is final: the stack reaches the same cores as
    cancelling pairs in any order, and a word with no pool left is in
    normal form as it stands.  A wrong declared start is reported only
    after every letter and junction passed.
    """
    records = zx._records
    kept: list[SimplexTerm] = []
    fronts: dict[int, int] = {}  # k: the free duplicates in front of kept[k], if any
    junction = pool
    first = at = top = None  # top: the generator of the top kept letter
    for t in letters:
        if t.dim < 1:
            raise WordError(f"letter {t} must have dimension >= 1")
        name = t.generator.name
        try:
            (lo, hi), inverse = records[name]
        except KeyError:
            raise SimplicialError(f"unknown generator {name!r}") from None
        if at is None:
            first = lo
        elif lo != at:
            raise WordError(f"word not composable at {t}: {at} != {lo}")
        at = hi
        mult = t.mult
        if len(mult) == 1:
            junction += mult[0] - 2
            continue
        d = junction + mult[0] - 1
        if not d and kept and inverse == top:
            kept.pop()
            junction = fronts.pop(len(kept), 0) + mult[-1] - 1
            top = kept[-1].generator.name if kept else None
        else:
            if d:
                fronts[len(kept)] = d
            kept.append(t)
            junction = mult[-1] - 1
            top = name
    if first is not None and first != start:
        raise WordError(f"declared start {start} does not match word start {first}")
    if not kept:
        if junction:
            return LoopWord((SimplexTerm(zx.generators[start], (junction + 2,)),), start, start)
        return unit(start)
    if fronts or junction:
        # each junction's duplicates go to the letter after it, the end's to
        # the last letter; a letter already in that form is reused, not rebuilt
        last = len(kept) - 1
        for k, t in enumerate(kept):
            mult = t.mult
            lead, tail = fronts.get(k, 0) + 1, junction + 1 if k == last else 1
            if mult[0] != lead or mult[-1] != tail:
                kept[k] = SimplexTerm(t.generator, (lead, *mult[1:-1], tail))
    return tuple.__new__(LoopWord, (tuple(kept), start, at))


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
    """Shortest root r and exponent k >= 0 with r^k = w, for a canonical
    degree-0 loop w.

    The unit decomposes as (e, 0).  Any other such loop is u c u^-1 with c
    cyclically reduced: peel the inverse pairs off its two ends.  Its roots
    are the words u p u^-1 with c a power of p, so the shortest root takes
    the shortest period p of c's letters, with exponent |c| / |p|; a
    primitive word decomposes as (w, 1)."""
    if w.degree != 0:
        raise WordError(f"{w} has degree {w.degree}, not a group element")
    letters, n = w.letters, len(w.letters)
    if n == 0:
        return w, 0
    inverse, m = zx.op_pairs, 0  # u = letters[:m]
    while 2 * m + 1 < n and inverse.get(letters[m].generator.name) == letters[n - 1 - m].generator.name:
        m += 1
    c = letters[m : n - m]
    p = next(d for d in range(1, len(c) + 1) if not len(c) % d and c[d:] == c[:-d])
    return LoopWord(letters[:m] + c[:p] + letters[n - m :], w.start, w.end), len(c) // p


# -- face and degeneracy operators ----------------------------------------


def word_face_raw(
    zx: SimplicialPresentation, w: LoopWord, i: int, eps: int
) -> LoopWord:
    """Face at coordinate i without canonicalization (for relation checks,
    where slot indices refer to the raw representative): eps = 1 deletes
    the vertex, eps = 0 splits its letter there into front and back."""
    if eps not in (0, 1):
        raise WordError("epsilon must be 0 or 1")
    letters = necklace_face(zx, w.letters, i, eps)
    if letters is None:
        raise WordError(f"coordinate {i} out of range 1..{w.degree}")
    return tuple.__new__(LoopWord, (letters, w.start, w.end))


def word_face(zx: SimplicialPresentation, w: LoopWord, i: int, eps: int) -> LoopWord:
    raw = word_face_raw(zx, w, i, eps)
    return canonical(zx, raw.letters, raw.start)


def degeneracy_slots(w: LoopWord) -> int:
    """Number of degeneracy slots: degree + length + 1, one per bead vertex;
    the unit has the two of its unit letter s_0 x, which agree."""
    return necklace_slots(w.letters) if w.letters else 2


def word_degeneracy(zx: SimplicialPresentation, w: LoopWord, j: int) -> LoopWord:
    """Insert a degeneracy at slot j; returns a raw (unreduced) word.

    Junction slots are addressed as s_0 of the right-hand letter, and the
    unit is taken as its unit letter s_0 x.
    """
    letters = necklace_degeneracy(zx, w.letters or (SimplexTerm(zx.generators[w.start], (2,)),), j)
    if letters is None:
        raise WordError(f"degeneracy slot {j} out of range")
    return tuple.__new__(LoopWord, (letters, w.start, w.end))


# -- enumeration -----------------------------------------------------------


def enumerate_words(
    zx: SimplicialPresentation,
    degree: int,
    max_length: int | None,
    start: str,
    end: str,
    letters: dict[str, list[tuple[SimplexTerm, str]]] | None = None,
) -> list[LoopWord]:
    """All reduced words (no inverse edge pair adjacent) of the given
    degree, length bound and endpoints, sorted by (length, letters): one
    walk over ``letters``, each vertex's letters with their last vertices,
    each row in order of dimension (default ``zx.letters_from``)."""
    if max_length is None:
        if zx.generators_of_dim(1):
            raise WordError(
                f"{zx.name} has edges, so its words have no length bound: "
                "bound the word length (--max-len)"
            )
        max_length = max(degree, 1)
    table, inverse = zx.letters_from if letters is None else letters, zx.op_pairs
    found: list[LoopWord] = []
    if degree == 0 and start == end:
        found.append(unit(start))

    def extend(prefix: list[SimplexTerm], at: str, deg_left: int):
        if len(prefix) >= max_length:
            return
        banned = inverse.get(prefix[-1].generator.name) if prefix else None
        for t, hi in table.get(at, ()):
            d = t.dim - 1
            if d > deg_left:
                break  # each row is in order of dimension, so no later letter fits
            if t.generator.name == banned:
                continue
            prefix.append(t)
            if deg_left == d and hi == end:
                found.append(LoopWord(tuple(prefix), start, end))
            extend(prefix, hi, deg_left - d)
            prefix.pop()

    extend([], start, degree)
    found.sort(key=lambda w: (len(w.letters), w.letters))
    return found


def random_reduced_word(zx, rng, start: str, max_degree: int, max_length: int):
    """A random reduced word from ``start`` to the basepoint: the first of 60
    random words of length at most ``max_length`` that ends there, each
    letter drawn uniformly from the letters at the current vertex, in
    ``letters_from`` order, that keep the degree within ``max_degree`` and do
    not cancel the letter before; the path home in ``zx.home`` if none does."""
    letters_from, inverse, end = zx.letters_from, zx.op_pairs, zx.basepoint
    for _ in range(60):
        target_len = rng.randint(0 if start == end else 1, max_length)
        letters: list[SimplexTerm] = []
        at, degree, banned = start, 0, None
        for _ in range(target_len):
            options = [
                (t, hi)
                for t, hi in letters_from.get(at, ())
                if degree + t.dim - 1 <= max_degree and t.generator.name != banned
            ]
            if not options:
                break
            pick, at = options[rng.randrange(len(options))]
            letters.append(pick)
            degree += pick.dim - 1
            banned = inverse.get(pick.generator.name)
        else:
            if at == end:
                return LoopWord(tuple(letters), start, end)
    if start != end and start not in zx.home:
        raise WordError(f"no edge path joins {start} to the basepoint {end}")
    letters, at = [], start
    while at != end:
        t, at = zx.home[at]
        letters.append(t)
    return LoopWord(tuple(letters), start, end)
