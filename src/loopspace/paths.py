"""Combinatorial path-space model: pairs of a base simplex and a loop word.

A path cell is a pair (x, y) of a simplex x of the edge-inverted
presentation and a word y running from the last vertex of x to the
basepoint.  Its degree is dim(x) + degree(y).  Extra copies of the
base's last vertex are equivalent to duplicates at the start of the tail;
the canonical form moves them into the tail.  The degree-0 cells with the
1-cells between them form a graph on which words act on the right; over a
connected complex this graph covers the 1-skeleton with deck group the
degree-0 word group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .simplicial import OP_SUFFIX, SimplexTerm, SimplicialPresentation, _simplex_name, _split
from .words import (
    LoopWord,
    _normal_word,
    compose,
    enumerate_words,
    unit,
    word_degeneracy,
    word_face_raw,
)


class PathError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class PathCell:
    base: SimplexTerm
    tail: LoopWord

    @property
    def degree(self) -> int:
        return self.base.dim + self.tail.degree

    def __str__(self) -> str:
        return f"({self.base} | {self.tail})"


def path_canonical(zx: SimplicialPresentation, base: SimplexTerm, tail: LoopWord) -> PathCell:
    """The base is the head of the necklace: it hands the extra copies of
    its last vertex to the tail as free duplicates at its start."""
    hi = zx.endpoints(base)[1]
    if tail.start != hi:
        raise PathError(f"tail starts at {tail.start}, base ends at {hi}")
    pool = base.mult[-1] - 1
    if pool:
        base = SimplexTerm(base.generator, base.mult[:-1] + (1,))
    return PathCell(base, _normal_word(zx, tail.letters, hi, pool))


def path_cell(
    zx: SimplicialPresentation, base: SimplexTerm, tail: LoopWord | None = None
) -> PathCell:
    if tail is None:
        tail = unit(zx.endpoints(base)[1])
    return path_canonical(zx, base, tail)


def path_face_raw(
    zx: SimplicialPresentation, c: PathCell, i: int, eps: int
) -> PathCell:
    """Face at coordinate i without canonicalization (for relation checks,
    where slot indices refer to the raw representative)."""
    if eps not in (0, 1):
        raise PathError("epsilon must be 0 or 1")
    n = c.degree
    if not 1 <= i <= n:
        raise PathError(f"face index {i} out of range 1..{n}")
    p = c.base.dim
    if i <= p:
        if eps == 1:
            return PathCell(zx.face(c.base, i - 1), c.tail)
        head, letter = _split(zx, c.base, i - 1)
        tail = LoopWord((letter,) + c.tail.letters, zx.endpoints(letter)[0], c.tail.end)
        return PathCell(head, tail)
    moved = word_face_raw(zx, c.tail, i - p, eps)
    return PathCell(c.base, moved)


def path_face(zx: SimplicialPresentation, c: PathCell, i: int, eps: int) -> PathCell:
    """Face at coordinate i in 1..degree; coordinates 1..dim(base) lie on the
    base, the rest on the tail."""
    raw = path_face_raw(zx, c, i, eps)
    return path_canonical(zx, raw.base, raw.tail)


def path_degeneracy_slots(c: PathCell) -> int:
    """One slot per position of the cell, junctions once: dim(base) + 1
    base positions, then the positions of the tail after its start."""
    return c.base.dim + 1 + sum(t.dim for t in c.tail.letters)


def path_degeneracy_raw(zx: SimplicialPresentation, c: PathCell, j: int) -> PathCell:
    """Degeneracy at slot j without canonicalization.  The junction slot acts
    on the tail's first letter, or without one duplicates the base's last vertex."""
    S = path_degeneracy_slots(c)
    if not 1 <= j <= S:
        raise PathError(f"degeneracy slot {j} out of range 1..{S}")
    p = c.base.dim
    if j <= p or not c.tail.letters:
        return PathCell(zx.degenerate(c.base, j - 1), c.tail)
    return PathCell(c.base, word_degeneracy(zx, c.tail, j - p))


def path_degeneracy(zx: SimplicialPresentation, c: PathCell, j: int) -> PathCell:
    """Degeneracy at slot j; slots 1..dim(base) duplicate a base vertex,
    the junction and tail slots act on the tail."""
    raw = path_degeneracy_raw(zx, c, j)
    return path_canonical(zx, raw.base, raw.tail)


def act(zx: SimplicialPresentation, c: PathCell, w: LoopWord) -> PathCell:
    """Right action of a word on a path cell, by composing tails."""
    return path_canonical(zx, c.base, compose(zx, c.tail, w))


# -- the cube on a simplex --------------------------------------------------

def cube_cells(
    zx: SimplicialPresentation, augmented: bool = False
) -> list[tuple[tuple[tuple[int, ...], ...], LoopWord | PathCell]]:
    """The cells of the cube on Delta^n, for zx = standard_simplex(n), each
    with the vertex blocks of its beads, by (-degree, blocks).

    A plain cell is a necklace from vertex 0 to n (a loop word); an
    augmented cell is a path cell whose tail ends at n, its base free to
    start anywhere.  Each vertex below n is dropped, kept, or cut (a
    junction) -- all but 0 for plain cells, which start there -- giving
    3^(n-1) plain and 3^n augmented cells.
    """
    n, first = zx.max_dim, 0 if augmented else 1
    cells = []
    for choice in itertools.product("dkc", repeat=n - first):
        blocks, block = [], [] if augmented else [0]
        for v, how in zip(range(first, n), choice):
            if how != "d":
                block.append(v)
            if how == "c":
                blocks.append(tuple(block))
                block = [v]
        blocks.append(tuple(block + [n]))
        beads = tuple(zx.term(_simplex_name([str(v) for v in b])) for b in blocks)
        tail = LoopWord(beads[1:], str(blocks[0][-1]), str(n))
        cells.append((tuple(blocks), PathCell(beads[0], tail) if augmented
                      else LoopWord(beads, "0", str(n))))
    cells.sort(key=lambda bc: (-bc[1].degree, bc[0]))
    return cells


# -- the covering graph of the 1-skeleton ----------------------------------


@dataclass(frozen=True)
class CoverGraph:
    vertices: tuple[PathCell, ...]
    edges: tuple[tuple[PathCell, PathCell, PathCell], ...]
    """Edges are (cell, source, target) with source = d^1_1, target = d^0_1
    read against the base edge direction: the cell lies over its base edge,
    running from the lift over min to the lift over max."""
    max_length: int | None  # the word-length bound; None if not truncated

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        adj: dict[PathCell, list[PathCell]] = {v: [] for v in self.vertices}
        for _, a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = {self.vertices[0]}
        frontier = [self.vertices[0]]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == len(self.vertices)


def _underlying_edges(zx: SimplicialPresentation) -> list[SimplexTerm]:
    """One 1-generator per underlying edge of the complex: the ``^op``
    partner of an inverted edge is the same edge read backwards."""
    return [
        zx.term(a.name)
        for a in zx.generators_of_dim(1)
        if not (a.name in zx.op_pairs and a.name.endswith(OP_SUFFIX))
    ]


def cover_graph(
    zx: SimplicialPresentation, max_length: int | None = None
) -> CoverGraph:
    """Degree-0 path cells and the 1-cells between them.

    Vertices are pairs (vertex v, reduced word v -> basepoint); edges are
    pairs (edge a, reduced word max(a) -> basepoint).  With a word-length
    bound the graph is truncated: edges whose endpoints both survive are
    kept.
    """
    base = zx.basepoint
    vertices = []
    vertex_set = set()
    for g in zx.generators_of_dim(0):
        for w in enumerate_words(zx, 0, max_length, g.name, base):
            c = PathCell(zx.term(g.name), w)
            vertices.append(c)
            vertex_set.add(c)
    edges = []
    for t in _underlying_edges(zx):
        hi = zx.endpoints(t)[1]
        for w in enumerate_words(zx, 0, max_length, hi, base):
            cell = path_cell(zx, t, w)
            # d^0_1 restricts to min(a), prepending the edge to the word;
            # d^1_1 deletes the first vertex, leaving the lift over max(a).
            src = path_face(zx, cell, 1, 0)
            tgt = path_face(zx, cell, 1, 1)
            if src in vertex_set and tgt in vertex_set:
                edges.append((cell, src, tgt))
    return CoverGraph(tuple(vertices), tuple(edges), max_length)


def covering_report(
    zx: SimplicialPresentation, graph: CoverGraph
) -> dict[str, object]:
    """Check the covering property away from the truncation boundary.

    For every graph vertex whose word is strictly shorter than the bound,
    each incidence of its underlying vertex with an edge of the complex
    must lift to exactly one incident graph edge.  A graph with no
    interior vertex checks no lift, and its report is ``vacuous``.
    """
    # incidences (edge, end) of each base vertex, end 0 at min and 1 at max
    want_at: dict[str, dict[tuple[str, int], int]] = {}
    for t in _underlying_edges(zx):
        for end, v in enumerate(zx.endpoints(t)):
            want_at.setdefault(v, {})[(t.generator.name, end)] = 1
    by_vertex: dict[PathCell, list[tuple[str, int]]] = {v: [] for v in graph.vertices}
    for cell, src, tgt in graph.edges:
        name = cell.base.generator.name
        by_vertex[src].append((name, 0))
        by_vertex[tgt].append((name, 1))
    failures = []
    interior = 0
    for v in graph.vertices:
        if graph.max_length is not None and len(v.tail.letters) >= graph.max_length:
            continue  # truncation boundary: lifts may be missing
        interior += 1
        want = want_at.get(v.base.generator.name, {})
        have: dict[tuple[str, int], int] = {}
        for key in by_vertex[v]:
            have[key] = have.get(key, 0) + 1
        if want != have:
            failures.append((str(v), {k: (want.get(k, 0), have.get(k, 0))
                                      for k in set(want) | set(have)}))
    connected = graph.is_connected()
    return {
        "vertices": graph.vertex_count,
        "edges": graph.edge_count,
        "interior_vertices": interior,
        "connected": connected,
        "tree": connected and graph.edge_count == graph.vertex_count - 1,
        "covering_failures": failures,
        "ok": not failures,
        "vacuous": interior == 0,
    }


def to_dot(graph: CoverGraph) -> str:
    lines = ["digraph cover {"]
    index = {v: k for k, v in enumerate(graph.vertices)}
    for v, k in index.items():
        lines.append(f'  n{k} [label="{v.base.generator.name}|{v.tail}"];')
    for cell, src, tgt in graph.edges:
        lines.append(
            f'  n{index[src]} -> n{index[tgt]} [label="{cell.base.generator.name}"];'
        )
    lines.append("}")
    return "\n".join(lines)


def to_adjacency(graph: CoverGraph) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {str(v): [] for v in graph.vertices}
    for cell, src, tgt in graph.edges:
        out[str(src)].append(str(tgt))
    for k in out:
        out[k].sort()
    return out
