"""Combinatorial path-space model: pairs of a base simplex and a loop word.

A path cell is a pair (x, y) of a simplex x of the edge-inverted
presentation and a word y running from the last vertex of x to the
basepoint.  Its degree is dim(x) + degree(y).  Extra copies of the
base's last vertex are equivalent to duplicates at the start of the tail;
the canonical form moves them into the tail.  Faces and degeneracies are
the necklace operators of ``cubes`` on the beads (x, *letters of y), with
x the head, and the relation checker runs them on those beads.
``path_canonical`` is the one normal form: a face is ``path_canonical``
of the raw face beads, the first of them the base.  The degree-0
cells with the 1-cells between them form a graph on which words act on
the right; over a connected complex this graph covers the 1-skeleton with
deck group the degree-0 word group.  ``cover_graph`` grows this tree
from the basepoint, each prepended letter one edge, taking no face and no
normal form; the tests build it through the normalized raw faces as its oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .simplicial import SimplexTerm, SimplicialPresentation, simplex_namer
from .words import LoopWord, _normal_word, compose, unit


class PathError(ValueError):
    pass


class PathCell(NamedTuple):
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
        base = tuple.__new__(SimplexTerm, (base.generator, base.mult[:-1] + (1,), base.dim - pool))
    return tuple.__new__(PathCell, (base, _normal_word(zx, tail.letters, hi, pool)))


def act(zx: SimplicialPresentation, c: PathCell, w: LoopWord) -> PathCell:
    """Right action of a word on a path cell, by composing tails."""
    return path_canonical(zx, c.base, compose(zx, c.tail, w))


# -- the cube on a simplex --------------------------------------------------

def cube_cells(
    zx: SimplicialPresentation, augmented: bool
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
    simplex_name = simplex_namer(g.name for g in zx.generators_of_dim(0))
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
        beads = tuple(zx.term(simplex_name(str(v) for v in b)) for b in blocks)
        tail = LoopWord(beads[1:], str(blocks[0][-1]), str(n))
        cells.append((tuple(blocks), PathCell(beads[0], tail) if augmented
                      else LoopWord(beads, "0", str(n))))
    cells.sort(key=lambda bc: (-bc[1].degree, bc[0]))
    return cells


# -- the covering graph of the 1-skeleton ----------------------------------


@dataclass(frozen=True)
class CoverGraph:
    vertices: tuple[PathCell, ...]
    edges: tuple[tuple[PathCell, int, int], ...]
    """Edges are (cell, source, target), the ends indices into ``vertices``:
    source = d^0_1 and target = d^1_1, so the cell lies over its base edge,
    running from the lift over min to the lift over max."""
    max_length: int  # the word-length bound

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def cover_graph(zx: SimplicialPresentation, max_length: int) -> CoverGraph:
    """Degree-0 path cells and the 1-cells between them.

    Vertices are pairs (vertex v, reduced word v -> basepoint), by vertex
    and then by (length, letters); edges are pairs (edge a, reduced word
    max(a) -> basepoint), one edge a of each pair with its formal inverse,
    by a and then by target.  The graph is truncated at a word-length
    bound: edges whose endpoints both survive are kept.

    The graph is a tree, grown from (basepoint, e) one length at a time:
    the tails of length L + 1 at v are (b, *w), b over the edge letters
    from v in order and w over the length-L tails at max(b) in order, less
    those that start with b's inverse, so each level comes sorted.  Each
    prepend is one edge between w and (b, *w), with no face and no normal
    form taken: for b = a the edge cell (a, w) runs from d^0_1 = (a, *w)
    to d^1_1 = w, and for b = a^op the edge cell (a, (b, *w)) runs from w
    (the necklace (min(a); a, a^op, *w) cancels) to (b, *w).
    """
    inverse, home = zx.op_pairs, zx.basepoint
    # per underlying edge a: (target, source) positions among the tails at max(a), min(a)
    over: dict[str, list[tuple[int, int]]] = {a.name: [] for a in zx.underlying_edges()}
    tails: dict[str, list[LoopWord]] = {g.name: [] for g in zx.generators_of_dim(0)}
    tails[home].append(unit(home))
    # the newest level at each vertex: runs (letters[:1], start, stop) of its tails
    level = {v: [((), 0, 1)] if v == home else [] for v in tails}
    for _ in range(max_length):
        grown = {}
        for v, ws in tails.items():
            grown[v] = runs = []
            for b, hi in zx.letters_from.get(v, ()):
                if b.dim > 1:
                    break  # each row is in order of dimension
                name, first, after = b.generator.name, len(ws), tails[hi]
                forward = name in over
                pairs = over[name if forward else inverse[name]]
                banned = (zx.op(b),) if name in inverse else None
                for key, start, stop in level[hi]:
                    if key != banned:
                        made = len(ws)
                        ws.extend(tuple.__new__(LoopWord, ((b, *w.letters), v, home))
                                  for w in after[start:stop])
                        olds, news = range(start, stop), range(made, len(ws))
                        pairs.extend(zip(olds, news) if forward else zip(news, olds))
                runs.append(((b,), first, len(ws)))
        level = grown
    vertices, offset = [], {}
    for v, ws in tails.items():
        offset[v], base = len(vertices), zx.term(v)
        vertices.extend(tuple.__new__(PathCell, (base, w)) for w in ws)
    edges = []
    for name, pairs in over.items():
        t = zx.term(name)  # nondegenerate, so each (t, w) is canonical
        lo, hi = zx.endpoints(t)
        pairs.sort()
        edges.extend((tuple.__new__(PathCell, (t, tails[hi][k])), offset[lo] + j,
                      offset[hi] + k) for k, j in pairs)
    return CoverGraph(tuple(vertices), tuple(edges), max_length)


def covering_report(
    zx: SimplicialPresentation, graph: CoverGraph
) -> dict[str, object]:
    """Check the covering property away from the truncation boundary, and
    connectivity.

    For every graph vertex whose word is strictly shorter than the bound,
    each incidence of its underlying vertex with an edge of the complex
    must lift to exactly one incident graph edge: the incidences are
    counted under (edge, end) keys, built once per edge name.  A graph with
    no interior vertex checks no lift, and its report is ``vacuous``.
    """
    # incidences (edge, end) of each base vertex, end 0 at min and 1 at max
    want_at: dict[str, dict[tuple[str, int], int]] = {}
    for a in zx.underlying_edges():
        for end, v in enumerate(zx.endpoints(zx.term(a.name))):
            want_at.setdefault(v, {})[(a.name, end)] = 1
    have_at: list[dict[tuple[str, int], int]] = [{} for _ in graph.vertices]
    adj: list[list[int]] = [[] for _ in graph.vertices]
    keys: dict[str, tuple[tuple[str, int], tuple[str, int]]] = {}
    for cell, src, tgt in graph.edges:
        name = cell.base.generator.name
        src_end, tgt_end = keys.get(name) or keys.setdefault(name, ((name, 0), (name, 1)))
        have_at[src][src_end] = have_at[src].get(src_end, 0) + 1
        have_at[tgt][tgt_end] = have_at[tgt].get(tgt_end, 0) + 1
        adj[src].append(tgt)
        adj[tgt].append(src)
    failures = []
    interior = 0
    for v, have in zip(graph.vertices, have_at):
        if len(v.tail.letters) >= graph.max_length:
            continue  # truncation boundary: lifts may be missing
        interior += 1
        want = want_at.get(v.base.generator.name, {})
        if want != have:
            failures.append((str(v), {k: (want.get(k, 0), have.get(k, 0))
                                      for k in set(want) | set(have)}))
    seen = {0} if graph.vertices else set()
    frontier = list(seen)
    while frontier:
        for k in adj[frontier.pop()]:
            if k not in seen:
                seen.add(k)
                frontier.append(k)
    connected = len(seen) == graph.vertex_count
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


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(graph: CoverGraph) -> str:
    lines = ["digraph cover {"]
    for k, v in enumerate(graph.vertices):
        lines.append(f"  n{k} [label={_dot_quote(f'{v.base.generator.name}|{v.tail}')}];")
    for cell, src, tgt in graph.edges:
        lines.append(f"  n{src} -> n{tgt} [label={_dot_quote(cell.base.generator.name)}];")
    lines.append("}")
    return "\n".join(lines)


def to_adjacency(graph: CoverGraph) -> dict[str, list[str]]:
    names = [str(v) for v in graph.vertices]
    out: dict[str, list[str]] = {name: [] for name in names}
    for _, src, tgt in graph.edges:
        out[names[src]].append(names[tgt])
    for k in out:
        out[k].sort()
    return out
