"""The necklace operators, shared by loop words and path cells.

A loop word's beads are its letters; a path cell's are its base, the head
of the necklace, and its tail's letters.  A face or a degeneracy acts on
one bead the same way in both models, so the rule lives here, on bead
tuples (``necklace_face``, ``necklace_degeneracy``, ``necklace_slots``,
``face_positions``); the model operators check their arguments and
rebuild their cell around it.  The cube on a standard simplex is no
separate object: its cells are the necklaces of standard_simplex(n) from
vertex 0 to n (loop words), and its augmented cells the path cells whose
tail ends at n (``paths.cube_cells`` lists both).  Cells are compared
through the one bead normal form, ``words._normal_word``;
``dup_canonical`` pools duplicates the same way on cube cells given as
label blocks, with nothing to cancel.
"""

from __future__ import annotations

from itertools import groupby
from typing import Sequence

from .simplicial import SimplexTerm, SimplicialPresentation, _split


def dup_canonical(augmented: bool, blocks: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Normal form of a cube cell as weakly increasing label blocks (a repeated
    label is a duplicated vertex; an augmented cell's first block is a head).
    The cube rows use the word and path-cell normal forms of the same cells;
    this one stays because the benchmark's per-layer metrics name it."""
    runs = [tuple(zip(*((v, len(list(g))) for v, g in groupby(b)))) for b in blocks]
    out, pool = [], 0
    if augmented:
        core, mult = runs.pop(0)
        out, pool = [list(zip(core, (*mult[:-1], 1)))], mult[-1] - 1
    beads = []
    for core, mult in runs:
        if len(core) == 1:  # a constant bead dissolves and sheds one duplicate
            pool += max(mult[0] - 2, 0)
        else:  # the junction's duplicates go to the bead after it
            beads.append((core, [pool + mult[0], *mult[1:-1], 1]))
            pool = mult[-1] - 1
    if beads:
        beads[-1][1][-1] += pool
    elif pool:  # nothing survived the head: its duplicates form a constant bead
        out.append([(out[0][-1][0], pool + 2)])
    out += [list(zip(core, mult)) for core, mult in beads]
    return tuple(tuple(v for v, m in r for _ in range(m)) for r in out)


# -- the necklace operators --------------------------------------------------
#
# A necklace of beads of dimensions dims has its vertices at positions
# 0..sum(dims), bead b spanning acc_b..acc_b + dims[b] with junctions shared.
# Face coordinates are the interior vertices of each bead, in order, plus the
# vertices but the last of a head bead (a path cell's base).  Degeneracy
# slot j duplicates the vertex at position j - 1: a junction is vertex 0 of
# its right-hand bead, and the last vertex belongs to the last bead.
# Lookups stop at the bead they land in.

Beads = tuple[SimplexTerm, ...]


def necklace_face(
    zx: SimplicialPresentation, beads: Beads, i: int, eps: int, head: bool = False
) -> Beads | None:
    """The beads with face coordinate i (from 1) applied: eps = 1 deletes
    its vertex, eps = 0 splits its bead there into front and back.  None
    out of range."""
    if i < 1:
        return None
    lo = 0 if head else 1
    for k, t in enumerate(beads):
        if lo + i <= t.dim:
            v = lo + i - 1
            replaced = (zx.face(t, v),) if eps else _split(zx, t, v)
            return beads[:k] + replaced + beads[k + 1 :]
        i -= max(t.dim - lo, 0)
        lo = 1
    return None


def necklace_degeneracy(zx: SimplicialPresentation, beads: Beads, j: int) -> Beads | None:
    """The beads with the vertex at degeneracy slot j (from 1) duplicated,
    or None out of range; there are ``necklace_slots(beads)`` slots."""
    if j < 1:
        return None
    for k, t in enumerate(beads):
        if j <= t.dim:
            return beads[:k] + (zx.degenerate(t, j - 1),) + beads[k + 1 :]
        j -= t.dim
    if j == 1 and beads:  # the last bead's last vertex
        return beads[:-1] + (zx.degenerate(beads[-1], beads[-1].dim),)
    return None


def necklace_slots(beads: Beads) -> int:
    """Number of degeneracy slots: one per vertex of the necklace."""
    return sum(t.dim for t in beads) + 1


def face_positions(beads: Beads, head: bool = False) -> list[int]:
    """Necklace position of each face coordinate, in order."""
    out, acc, lo = [], 0, 0 if head else 1
    for t in beads:
        out.extend(range(acc + lo, acc + t.dim))
        acc += t.dim
        lo = 1
    return out
