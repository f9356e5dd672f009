"""Block-label calculus for the cube cells of a standard simplex, and the
bead normal form shared by cube cells, loop words and path cells.

A cell is a necklace of blocks of weakly increasing labels, consecutive
blocks sharing their junction value, e.g. ``[0,1,2][2,3]`` or, in the
augmented flavour, ``0,2][2,3]`` where the first block is allowed to start
anywhere.  A repeated label is a duplicated position.  Faces split a block
at a position (epsilon = 0) or delete it (epsilon = 1); degeneracies
duplicate a position.  Cells are compared through their normal form
(``dup_canonical``): constant blocks dissolve, and the free duplicates at a
junction, which may sit on either side, are pooled and handed to the
right-hand block.  The word and path models obey the same rules, with
simplices as beads, and share the engine (``_bead_normal_form``).  They
also share the coordinate map (``face_coordinate``,
``degeneracy_coordinate``, ``face_coordinates``): from the bead dimensions
and whether the first bead is a head (an augmented cell's first block, a
path cell's base), it finds the bead and vertex a face coordinate or a
degeneracy slot addresses, and where that vertex sits in the necklace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


class CubeError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class DupCell:
    augmented: bool
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.blocks or any(not b for b in self.blocks):
            raise CubeError("blocks must be non-empty")
        for b in self.blocks:
            if list(b) != sorted(b):
                raise CubeError(f"block {b} is not weakly increasing")
        for left, right in zip(self.blocks, self.blocks[1:]):
            if left[-1] != right[0]:
                raise CubeError("consecutive blocks must share their junction")
        if not self.augmented and self.blocks[0][0] != 0:
            raise CubeError("non-augmented cells must start at 0")

    @property
    def positions(self) -> int:
        """Number of label positions (junctions counted once)."""
        return sum(len(b) for b in self.blocks) - (len(self.blocks) - 1)

    @property
    def dim(self) -> int:
        return self.positions - len(self.blocks) - (0 if self.augmented else 1)

    def __str__(self) -> str:
        head = ",".join(map(str, self.blocks[0]))
        first = head + "]" if self.augmented else "[" + head + "]"
        rest = "".join("[" + ",".join(map(str, b)) + "]" for b in self.blocks[1:])
        return first + rest


def top_cell(n: int, augmented: bool = False) -> DupCell:
    if n < (0 if augmented else 1):
        raise CubeError("n out of range")
    return DupCell(augmented, (tuple(range(n + 1)),))


def psi(c: DupCell) -> tuple[int, ...]:
    """Project an augmented cell to the face of the simplex cut out by its first block."""
    if not c.augmented:
        raise CubeError("psi is only defined on augmented cells")
    return c.blocks[0]


# -- the bead normal form ----------------------------------------------------


def _bead_normal_form(
    beads: Iterable[tuple[object, Sequence[int]]],
    pool: int = 0,
    cancellable: Callable[[object, object], bool] | None = None,
) -> tuple[list[tuple[object, list[int]]], int]:
    """Normal form of a necklace of beads.

    Each bead is (core, mult): its distinct vertices and how many times
    each one repeats.  The duplicates of a bead's first and last vertex are
    free: they pool at the junction, which starts with ``pool`` duplicates
    handed over by a head in front of the necklace.  A constant bead (one
    vertex) dissolves into its junction and sheds one duplicate.  Adjacent
    cores a, b with ``cancellable(a, b)`` cancel when no duplicate sits
    between them, and the pools on either side merge.

    Returns the surviving cores with their multiplicities, each junction's
    duplicates on the right-hand bead and the last junction's on the last
    bead, and the number of duplicates left over when no core survives.
    """
    dups = [pool]
    cores: list[object] = []
    middles: list[list[int]] = []
    for core, mult in beads:
        if len(mult) == 1:
            dups[-1] += max(mult[0] - 2, 0)
        else:
            dups[-1] += mult[0] - 1
            cores.append(core)
            middles.append(mult[1:-1])
            dups.append(mult[-1] - 1)
    if cancellable is not None:
        # leftmost pair first; a cancellation can only enable the pair
        # that now straddles the merged junction
        i = 0
        while i < len(cores) - 1:
            if dups[i + 1] or not cancellable(cores[i], cores[i + 1]):
                i += 1
                continue
            del cores[i : i + 2], middles[i : i + 2]
            dups[i : i + 3] = [dups[i] + dups[i + 2]]
            i = max(i - 1, 0)
    if not cores:
        return [], dups[0]
    out = [(c, [dups[i] + 1, *middles[i], 1]) for i, c in enumerate(cores)]
    out[-1][1][-1] += dups[-1]
    return out, 0


def _run_length(b: tuple[int, ...]) -> tuple[tuple[int, ...], list[int]]:
    strict: list[int] = []
    mult: list[int] = []
    for v in b:
        if strict and strict[-1] == v:
            mult[-1] += 1
        else:
            strict.append(v)
            mult.append(1)
    return tuple(strict), mult


def _expand(core: tuple[int, ...], mult: list[int]) -> tuple[int, ...]:
    return tuple(v for v, m in zip(core, mult) for _ in range(m))


def dup_canonical(d: DupCell) -> DupCell:
    """Normal form of a cell.  The first block of an augmented cell is a
    head: it keeps its own duplicates except those of its last label, which
    join the first junction, and it absorbs nothing."""
    blocks, pool, out = d.blocks, 0, []
    if d.augmented:
        core, mult = _run_length(blocks[0])
        out.append(_expand(core, mult[:-1] + [1]))
        blocks, pool = blocks[1:], mult[-1] - 1
    beads, left = _bead_normal_form(map(_run_length, blocks), pool)
    out.extend(_expand(core, mult) for core, mult in beads)
    if left:
        if not d.augmented:
            raise CubeError("cell dissolved entirely with duplicates left")
        out.append((out[0][-1],) * (left + 2))
    if not out:
        raise CubeError("cell dissolved entirely; no block left")
    return DupCell(d.augmented, tuple(out))


# -- the necklace coordinate map ---------------------------------------------
#
# A necklace of beads of dimensions dims has its vertices at positions
# 0..sum(dims), bead b spanning acc_b..acc_b + dims[b] with junctions shared.
# Face coordinates are the interior vertices of each bead, in order, plus the
# vertices but the last of a head bead (an augmented cell's first block, a
# path cell's base).  Degeneracy slot j duplicates the vertex at position
# j - 1: a junction is vertex 0 of its right-hand bead, and the last vertex
# belongs to the last bead.  Lookups stop at the bead they land in.


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


# -- faces and degeneracies --------------------------------------------------


def _dims(d: DupCell) -> list[int]:
    return [len(b) - 1 for b in d.blocks]


def dup_face_positions(d: DupCell) -> list[tuple[int, int, int]]:
    """(global position, block index, index in block) of each face coordinate.

    Every non-junction position except the two word ends; for augmented
    cells the start position is also a coordinate.
    """
    return face_coordinates(_dims(d), d.augmented)


def dup_face(d: DupCell, i: int, eps: int) -> DupCell:
    if eps not in (0, 1):
        raise CubeError("epsilon must be 0 or 1")
    at = face_coordinate(_dims(d), i, d.augmented)
    if at is None:
        raise CubeError(f"face index {i} out of range 1..{d.dim}")
    bi, p = at
    blocks = list(d.blocks)
    b = blocks[bi]
    if eps == 1:
        blocks[bi] = b[:p] + b[p + 1 :]
    else:
        blocks[bi : bi + 1] = [b[: p + 1], b[p:]]
    return DupCell(d.augmented, tuple(blocks))


def dup_degeneracy_slots(d: DupCell) -> int:
    """Number of degeneracy slots: one per position, junctions once."""
    return d.positions


def dup_degeneracy(d: DupCell, j: int) -> DupCell:
    at = degeneracy_coordinate(_dims(d), j)
    if at is None:
        raise CubeError(f"degeneracy index {j} out of range 1..{d.positions}")
    bi, p = at
    blocks = list(d.blocks)
    b = blocks[bi]
    blocks[bi] = b[: p + 1] + (b[p],) + b[p + 1 :]
    return DupCell(d.augmented, tuple(blocks))


def all_cells(n: int, augmented: bool = False) -> list[DupCell]:
    """Every (nondegenerate) cell of the cube on Delta^n: the face closure of the top cell."""
    seen = {top_cell(n, augmented)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(1, c.dim + 1):
                for eps in (0, 1):
                    f = dup_face(c, i, eps)
                    if f not in seen:
                        seen.add(f)
                        nxt.append(f)
        frontier = nxt
    return sorted(seen, key=lambda c: (-c.dim, c.blocks))
