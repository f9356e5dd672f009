"""Raw faces and degeneracies of whole loop words and path cells, for the
tests that address a cell by its coordinates and slots.

The library runs the ``cubes`` necklace operators on bead tuples, a path
cell's base the head bead, and rebuilds a cell only for its normal form.
These wrap the same operators around a cell and take no normal form, so a
test can hold a raw face or degeneracy as a cell; out of range they raise
what the ``cubes`` operators raise.
"""

from __future__ import annotations

from loopspace.cubes import necklace_degeneracy, necklace_face, necklace_slots
from loopspace.paths import PathCell
from loopspace.simplicial import SimplicialPresentation
from loopspace.words import LoopWord


def word_face_raw(zx: SimplicialPresentation, w: LoopWord, i: int, eps: int) -> LoopWord:
    """Face of w at coordinate i, not canonicalized: eps = 1 deletes the
    vertex, eps = 0 splits its letter there into front and back."""
    return LoopWord(necklace_face(zx, w.letters, i, eps), w.start, w.end)


def path_face_raw(zx: SimplicialPresentation, c: PathCell, i: int, eps: int) -> PathCell:
    """Face of c at coordinate i, not canonicalized.  The base is the head
    bead, so coordinates 1..dim(base) lie on the base and the rest on the
    tail; ``path_canonical`` of it is the face."""
    beads = necklace_face(zx, (c.base, *c.tail.letters), i, eps, head=True)
    head = beads[0]
    return PathCell(head, LoopWord(beads[1:], zx.endpoints(head)[1], c.tail.end))


def path_degeneracy_slots(c: PathCell) -> int:
    """One slot per position of the cell, junctions once: dim(base) + 1
    base positions, then the positions of the tail after its start."""
    return necklace_slots((c.base, *c.tail.letters))


def path_degeneracy_raw(zx: SimplicialPresentation, c: PathCell, j: int) -> PathCell:
    """Degeneracy of c at slot j, not canonicalized.  The junction slot acts
    on the tail's first letter, or without one duplicates the base's last
    vertex."""
    beads = necklace_degeneracy(zx, (c.base, *c.tail.letters), j)
    return PathCell(beads[0], LoopWord(beads[1:], c.tail.start, c.tail.end))
