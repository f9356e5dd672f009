"""The necklace coordinate map, shared by loop words and path cells.

A loop word's beads are its letters; a path cell's are its base, the head
of the necklace, and its tail's letters.  The cube on a standard simplex
is no separate object: its cells are the necklaces of standard_simplex(n)
from vertex 0 to n (loop words), and its augmented cells the path cells
whose tail ends at n (``paths.cube_cells`` lists both).  Cells are
compared through the one bead normal form, ``words._normal_word``:
constant beads dissolve, and the free duplicates at a junction, which may
sit on either side, are pooled and handed to the right-hand bead.
``dup_canonical`` pools the same way on cube cells given as label blocks,
with nothing to cancel.  The coordinate map (``face_coordinate``,
``degeneracy_coordinate``, ``face_coordinates``) finds, from the bead
dimensions and whether the first bead is a head, the bead and vertex a
face coordinate or a degeneracy slot addresses, and where that vertex sits
in the necklace.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable, Sequence


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


# -- the necklace coordinate map ---------------------------------------------
#
# A necklace of beads of dimensions dims has its vertices at positions
# 0..sum(dims), bead b spanning acc_b..acc_b + dims[b] with junctions shared.
# Face coordinates are the interior vertices of each bead, in order, plus the
# vertices but the last of a head bead (a path cell's base).  Degeneracy
# slot j duplicates the vertex at position j - 1: a junction is vertex 0 of
# its right-hand bead, and the last vertex belongs to the last bead.
# Lookups stop at the bead they land in.


def face_coordinate(dims: Iterable[int], i: int, head: bool = False) -> tuple[int, int] | None:
    """(bead, vertex) of face coordinate i (from 1), or None out of range."""
    if i < 1:
        return None
    lo = 0 if head else 1
    for b, d in enumerate(dims):
        if lo + i <= d:
            return b, lo + i - 1
        i -= max(d - lo, 0)
        lo = 1
    return None


def degeneracy_coordinate(dims: Iterable[int], j: int) -> tuple[int, int] | None:
    """(bead, vertex) that degeneracy slot j (from 1) duplicates, or None
    out of range; there are sum(dims) + 1 slots."""
    if j < 1:
        return None
    last = None
    for last in enumerate(dims):
        b, d = last
        if j <= d:
            return b, j - 1
        j -= d
    return last if j == 1 else None  # the last bead's last vertex


def face_coordinates(dims: Iterable[int], head: bool = False) -> list[tuple[int, int, int]]:
    """(necklace position, bead, vertex) of each face coordinate, in order."""
    out = []
    acc, lo = 0, 0 if head else 1
    for b, d in enumerate(dims):
        out.extend((acc + v, b, v) for v in range(lo, d))
        acc += d
        lo = 1
    return out
