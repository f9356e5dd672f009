"""Reference rules for degenerate simplices written as degeneracy words.

A degenerate simplex s_{j_k} ... s_{j_1} g is kept here as its canonical
degeneracy word (strictly increasing, applied innermost-first) over the
generator g, and faces are taken by the recursive rewrite of d_i s_j.
The library stores vertex multiplicities instead; tests compare its
``face`` and ``degenerate`` against these rules.
"""

from __future__ import annotations

from typing import Iterable

from loopspace.simplicial import GeneratorId, SimplexTerm, SimplicialPresentation


def push_degeneracy(word: tuple[int, ...], j: int) -> tuple[int, ...]:
    """Apply s_j on the outside of a canonical degeneracy word, rewriting
    s_i s_j = s_{j+1} s_i (i <= j) until the word is canonical again."""
    out = list(word)
    pos = len(out)
    while pos > 0 and out[pos - 1] >= j:
        out[pos - 1] += 1
        pos -= 1
    out.insert(pos, j)
    return tuple(out)


def normalize_degeneracies(raw: Iterable[int]) -> tuple[int, ...]:
    """Canonical form of a raw degeneracy word, applied innermost-first."""
    word: tuple[int, ...] = ()
    for j in raw:
        word = push_degeneracy(word, j)
    return word


def term_from_word(g: GeneratorId, word: tuple[int, ...]) -> SimplexTerm:
    """The term s_word g: list g's vertices, let each s_j (innermost first)
    repeat the vertex at position j, and count the copies."""
    vs = list(range(g.dim + 1))
    for j in word:
        vs.insert(j + 1, vs[j])
    return SimplexTerm(g, tuple(vs.count(v) for v in range(g.dim + 1)))


def face_reference(
    zx: SimplicialPresentation, word: tuple[int, ...], g: GeneratorId, i: int
) -> tuple[tuple[int, ...], GeneratorId]:
    """d_i (s_word g) as (canonical word, generator), peeling the outermost
    degeneracy s_j: d_j s_j = d_{j+1} s_j = id, d_i s_j = s_{j-1} d_i for
    i < j, and d_i s_j = s_j d_{i-1} for i > j + 1."""
    if not word:
        f = zx.faces[g.name][i]
        return f.degens, f.generator
    j, inner = word[-1], word[:-1]
    if i in (j, j + 1):
        return inner, g
    if i < j:
        w, h = face_reference(zx, inner, g, i)
        return push_degeneracy(w, j - 1), h
    w, h = face_reference(zx, inner, g, i - 1)
    return push_degeneracy(w, j), h


def degeneracy_words(g: GeneratorId, most: int) -> list[tuple[int, ...]]:
    """Every canonical degeneracy word on g with at most ``most`` letters."""
    layer = {()}
    found = set(layer)
    for _ in range(most):
        layer = {push_degeneracy(w, j) for w in layer for j in range(g.dim + len(w) + 1)}
        found |= layer
    return sorted(found, key=lambda w: (len(w), w))
