"""Finite simplicial sets presented by nondegenerate generators with face tables.

A presentation lists the nondegenerate simplices ("generators") by dimension
together with the faces of each generator, which may be degenerate.  A
simplex is a generator with the number of copies of each of its vertices,
on which faces and degeneracies act directly.  Generators and simplices are
named tuples, so that hashing, comparing and sorting them runs in C.  Each
presentation tables once, for every generator and every vertex, the front
and back face of the generator meeting at that vertex; a simplex splits at
a position (``_split``) by pushing its vertex multiplicities onto the
tabled faces.  A nondegenerate simplex has one copy of each vertex, so
its face and its split are the table entries as they stand, one lookup
each.  Each generator also has one record, built at construction
from the same table: its first and last vertex, which every simplex on it
shares, and the name of its formal inverse or None.  ``endpoints`` reads
it, and the word normal form reads it once per letter.  The operators
know the dimension of what they build (a face has one less, a degeneracy
one more, a split's halves i and dim - i), so they build it with
``tuple.__new__`` and skip the Python frame and the sum(mult) of
``SimplexTerm(g, mult)``.  Formal edge inverses are attached by
``z_extension``.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

OP_SUFFIX = "^op"
_SIMPLEX_BOUND = 2**14 - 1  # the most simplices of a facet list: one 14-vertex facet's


class SimplicialError(ValueError):
    pass


class GeneratorId(NamedTuple):
    name: str
    dim: int


class _SimplexFields(NamedTuple):
    generator: GeneratorId
    mult: tuple[int, ...]
    dim: int


class SimplexTerm(_SimplexFields):
    """A (possibly degenerate) simplex: a generator and how many copies of
    each of its vertices the simplex has.  By the Eilenberg-Zilber lemma
    these fix the simplex: s_I g repeats the vertices of g in order.

    The dimension, sum(mult) - 1, is stored at construction, since every
    word and face operation reads it.  It follows from ``mult``, so it
    changes neither equality nor the order by field tuples."""

    __slots__ = ()

    def __new__(cls, generator: GeneratorId, mult: tuple[int, ...]) -> "SimplexTerm":
        return tuple.__new__(cls, (generator, mult, sum(mult) - 1))

    @classmethod
    def _make(cls, fields: Iterable) -> "SimplexTerm":
        # ``_replace`` builds through here: recompute dim from mult
        generator, mult, *_ = fields
        return cls(generator, mult)

    def __getnewargs__(self) -> tuple[GeneratorId, tuple[int, ...]]:
        return self.generator, self.mult

    @property
    def is_nondegenerate(self) -> bool:
        return self.dim + 1 == len(self.mult)

    @property
    def degens(self) -> tuple[int, ...]:
        """The canonical degeneracy word (strictly increasing, innermost first)."""
        word: list[int] = []
        pos = 0
        for m in self.mult:
            word.extend(range(pos, pos + m - 1))
            pos += m
        return tuple(word)

    def __str__(self) -> str:
        if self.dim + 1 == len(self.mult):  # nondegenerate: no degeneracy word
            return self.generator.name
        prefix = "".join(f"s{j}." for j in reversed(self.degens))
        return prefix + self.generator.name


def _nondegenerate(g: GeneratorId) -> SimplexTerm:
    return SimplexTerm(g, (1,) * (g.dim + 1))


def _vertex_at(mult: tuple[int, ...], i: int) -> int:
    """Index of the generator vertex whose copies cover position i."""
    v = 0
    while i >= mult[v]:
        i -= mult[v]
        v += 1
    return v


def _degenerate(t: SimplexTerm, j: int) -> SimplexTerm:
    """s_j t: one more copy of the vertex at position j."""
    if not 0 <= j <= t.dim:
        raise SimplicialError(f"degeneracy index {j} out of range for dimension {t.dim}")
    mult = t.mult
    v = _vertex_at(mult, j)
    return tuple.__new__(SimplexTerm, (t.generator, mult[:v] + (mult[v] + 1,) + mult[v + 1 :], t.dim + 1))


class SimplicialPresentation:
    """Generator-based finite simplicial set.

    Immutable after construction.  ``faces[name]`` holds the tuple
    (d_0 g, ..., d_n g) for each generator g of dimension n >= 1.
    """

    def __init__(
        self,
        name: str,
        generators: Iterable[GeneratorId],
        faces: Mapping[str, Sequence[SimplexTerm]],
        basepoint: str,
        op_pairs: Mapping[str, str] | None = None,
    ):
        self.name = name
        self.generators: dict[str, GeneratorId] = {}
        for g in generators:
            if g.name in self.generators:
                raise SimplicialError(f"duplicate generator name {g.name!r}")
            if g.dim < 0:
                raise SimplicialError(f"negative dimension for {g.name!r}")
            self.generators[g.name] = g
        self.faces: dict[str, tuple[SimplexTerm, ...]] = {
            k: tuple(v) for k, v in faces.items()
        }
        self.basepoint = basepoint
        self.op_pairs: dict[str, str] = dict(op_pairs or {})
        self._check_well_formed()
        # per generator, per vertex v: (front v-face, back face from v)
        self._splits: dict[str, tuple[tuple[SimplexTerm, SimplexTerm], ...]] = {
            name: self._split_table(g) for name, g in self.generators.items()
        }
        # per generator: its (first, last) vertex and its formal inverse or None
        self._records: dict[str, tuple[tuple[str, str], str | None]] = {
            name: ((table[0][0].generator.name, table[-1][1].generator.name),
                   self.op_pairs.get(name))
            for name, table in self._splits.items()
        }

    def _check_well_formed(self) -> None:
        if self.basepoint not in self.generators:
            raise SimplicialError(f"unknown basepoint {self.basepoint!r}")
        if self.generators[self.basepoint].dim != 0:
            raise SimplicialError("basepoint must be a 0-generator")
        for g in self.generators.values():
            if g.dim == 0:
                continue
            entries = self.faces.get(g.name)
            if entries is None or len(entries) != g.dim + 1:
                raise SimplicialError(f"face table of {g.name!r} must have {g.dim + 1} entries")
            for t in entries:
                if t.generator.name not in self.generators:
                    raise SimplicialError(f"face of {g.name!r} uses unknown generator {t.generator.name!r}")
                if t.dim != g.dim - 1:
                    raise SimplicialError(f"face of {g.name!r} has dimension {t.dim}, expected {g.dim - 1}")
        for a, b in self.op_pairs.items():
            for g in (a, b):
                if g not in self.generators or self.generators[g].dim != 1:
                    raise SimplicialError(f"op pair {a!r}: {b!r} names {g!r}, not a 1-generator")
            if a == b:
                raise SimplicialError(f"op pair {a!r}: {b!r} pairs an edge with itself")
            if self.op_pairs.get(b) != a:
                raise SimplicialError(f"op-pairing is not an involution at {a!r}")
        unpaired = [g.name for g in self.generators_of_dim(1) if g.name not in self.op_pairs]
        if self.op_pairs and unpaired:
            raise SimplicialError(
                f"op_pairs leaves edge {unpaired[0]!r} unpaired: pair every edge or none")

    # -- basic accessors -------------------------------------------------

    def term(self, name: str) -> SimplexTerm:
        if name not in self.generators:
            raise SimplicialError(f"unknown generator {name!r}")
        return _nondegenerate(self.generators[name])

    def generators_of_dim(self, d: int) -> list[GeneratorId]:
        return sorted(g for g in self.generators.values() if g.dim == d)

    @property
    def max_dim(self) -> int:
        return max(g.dim for g in self.generators.values())

    @cached_property
    def letters_from(self) -> dict[str, list[tuple[SimplexTerm, str]]]:
        """The nondegenerate simplices of dimension >= 1 by first vertex, each
        with its last vertex, in order of dimension and then name: the
        letters that words are built from, tabled on first use."""
        table: dict[str, list[tuple[SimplexTerm, str]]] = {}
        for g in sorted(self.generators.values(), key=lambda g: (g.dim, g.name)):
            if g.dim:
                lo, hi = self._records[g.name][0]
                table.setdefault(lo, []).append((_nondegenerate(g), hi))
        return table

    @cached_property
    def home(self) -> dict[str, tuple[SimplexTerm, str]]:
        """One step (edge letter, next vertex) of a shortest edge path to the
        basepoint from each other vertex one joins to it, tabled on first use:
        a breadth-first tree over the inverses of the edges it reaches vertices
        by.  A simplex's long edge joins its ends, so it reaches what letters do."""
        tree, order = {}, [self.basepoint]
        for at in order:  # grows as the tree does
            for t, hi in self.letters_from.get(at, ()):
                if t.dim == 1 and hi != self.basepoint and hi not in tree:
                    tree[hi] = (self.op(t), at)
                    order.append(hi)
        return tree

    def underlying_edges(self) -> list[GeneratorId]:
        """One 1-generator per edge of the complex: of an edge and its formal
        inverse, the one whose name sorts first."""
        return [a for a in self.generators_of_dim(1)
                if a.name not in self.op_pairs or a.name < self.op_pairs[a.name]]

    def has_op_partner(self, term: SimplexTerm) -> bool:
        return term.is_nondegenerate and term.generator.name in self.op_pairs

    def op(self, term: SimplexTerm) -> SimplexTerm:
        if not self.has_op_partner(term):
            raise SimplicialError(f"{term} has no op-partner")
        return self.term(self.op_pairs[term.generator.name])

    # -- simplicial operators --------------------------------------------

    def face(self, t: SimplexTerm, i: int) -> SimplexTerm:
        """The i-th face of t: one copy fewer of the vertex at position i
        if it has several; otherwise the generator's face at that vertex,
        each of whose vertices collects the copies of the block of the
        remaining vertices it collapses.  A nondegenerate t has no copies,
        so its face is the table entry ``faces[name][i]`` as it stands."""
        mult, dim = t.mult, t.dim
        if dim < 1:
            raise SimplicialError("faces are only defined in dimension >= 1")
        if not 0 <= i <= dim:
            raise SimplicialError(f"face index {i} out of range for dimension {dim}")
        if dim + 1 == len(mult):  # nondegenerate: the tabled face itself
            try:
                return self.faces[t.generator.name][i]
            except KeyError:
                raise SimplicialError(f"unknown generator {t.generator.name!r}") from None
        v = _vertex_at(mult, i)
        if mult[v] > 1:
            return tuple.__new__(SimplexTerm, (t.generator, mult[:v] + (mult[v] - 1,) + mult[v + 1 :], dim - 1))
        try:
            f = self.faces[t.generator.name][v]
        except KeyError:
            raise SimplicialError(f"unknown generator {t.generator.name!r}") from None
        return _push(f, mult[:v] + mult[v + 1 :], dim - 1)

    def degenerate(self, t: SimplexTerm, j: int) -> SimplexTerm:
        """Apply s_j to t."""
        return _degenerate(t, j)

    def endpoints(self, t: SimplexTerm) -> tuple[str, str]:
        """(min, max) = (first, last) vertex of t, as generator names.

        A degeneracy acts on the vertices of t's generator as a monotone
        surjection, which keeps the first and the last vertex, so the answer
        depends on the generator alone and is read from a table built once
        at construction.
        """
        try:
            return self._records[t.generator.name][0]
        except KeyError:
            raise SimplicialError(f"unknown generator {t.generator.name!r}") from None

    def _split_table(self, g: GeneratorId) -> tuple[tuple[SimplexTerm, SimplexTerm], ...]:
        """The front and back face of g at each of its vertices: iterated
        last faces and iterated zeroth faces of g."""
        fronts, backs = [_nondegenerate(g)], [_nondegenerate(g)]
        for d in range(g.dim, 0, -1):
            fronts.append(self.face(fronts[-1], d))
            backs.append(self.face(backs[-1], 0))
        return tuple(zip(reversed(fronts), backs))

    # -- Z(X) -------------------------------------------------------------

    def z_extension(self) -> "SimplicialPresentation":
        """X plus a formal inverse edge a^op for every nondegenerate edge a."""
        if self.op_pairs:
            raise SimplicialError("presentation already carries op-generators")
        gens = list(self.generators.values())
        faces = dict(self.faces)
        pairs: dict[str, str] = {}
        for a in self.generators_of_dim(1):
            op_name = a.name + OP_SUFFIX
            if op_name in self.generators:
                raise SimplicialError(f"name clash adding {op_name!r}")
            gens.append(GeneratorId(op_name, 1))
            d0, d1 = self.faces[a.name]
            faces[op_name] = (d1, d0)
            pairs[a.name] = op_name
            pairs[op_name] = a.name
        return SimplicialPresentation(self.name + "+op", gens, faces, self.basepoint, pairs)

    # -- diagnostics -------------------------------------------------------

    def validate(self) -> list[str]:
        """All violations of the simplicial identities and the op boundary swap."""
        report: list[str] = []
        for g in self.generators.values():
            if g.dim < 2:
                continue
            t = self.term(g.name)
            for j in range(g.dim + 1):
                for i in range(j):
                    left = self.face(self.face(t, j), i)
                    right = self.face(self.face(t, i), j - 1)
                    if left != right:
                        report.append(
                            f"d{i} d{j} != d{j - 1} d{i} on {g.name}: {left} vs {right}"
                        )
        for a, b in self.op_pairs.items():
            if self.face(self.term(b), 0) != self.face(self.term(a), 1):
                report.append(f"d0({b}) != d1({a})")
            if self.face(self.term(b), 1) != self.face(self.term(a), 0):
                report.append(f"d1({b}) != d0({a})")
        return report


def _split(
    zx: SimplicialPresentation, t: SimplexTerm, i: int
) -> tuple[SimplexTerm, SimplexTerm]:
    """The front i-face and the back (dim - i)-face of t, sharing position i.

    Position i is a copy of generator vertex v; the front runs over the
    vertices up to v and the back over those from v, with the copies on
    either side of i.  Both are the tabled faces of the generator at v with
    these multiplicities pushed forward, as ``face`` does; a nondegenerate
    t has none to push, so its split is the table entry at i."""
    mult = t.mult
    if not 0 <= i <= t.dim:
        raise SimplicialError(f"split index {i} out of range for dimension {t.dim}")
    try:
        table = zx._splits[t.generator.name]
    except KeyError:
        raise SimplicialError(f"unknown generator {t.generator.name!r}") from None
    if t.dim + 1 == len(mult):  # nondegenerate: the tabled pair itself
        return table[i]
    v = _vertex_at(mult, i)
    k = i - sum(mult[:v])  # position i is copy k of vertex v
    front, back = table[v]
    return _push(front, mult[:v] + (k + 1,), i), _push(back, (mult[v] - k,) + mult[v + 1 :], t.dim - i)


def _push(f: SimplexTerm, mult: tuple[int, ...], dim: int) -> SimplexTerm:
    """f precomposed with the degeneracy whose vertex copies are mult, of
    dimension dim = sum(mult) - 1: each vertex of f's generator collects the
    copies of the block of mult it collapses."""
    if dim + 1 == len(mult):  # no copies to collect
        return f
    if len(f.mult) != len(mult):  # f is degenerate
        ends = list(itertools.accumulate(f.mult))
        mult = tuple(sum(mult[a:b]) for a, b in zip([0, *ends], ends))
    return tuple.__new__(SimplexTerm, (f.generator, mult, dim))


# -- builders -------------------------------------------------------------


def simplex_namer(vertices: Iterable[str]) -> Callable[[Iterable[str]], str]:
    """How ``from_facets`` names the simplices of a complex with these
    vertex names: it concatenates the names of a simplex's vertices when
    every vertex name has one character, and joins them with ',' otherwise,
    so that the edge on 1 and 2 and a vertex 12 get different names."""
    return ("" if all(len(v) == 1 for v in vertices) else ",").join


def from_facets(facets: Sequence[Sequence[str]], name: str) -> SimplicialPresentation:
    """Simplicial complex on an ordered vertex set, given by its facets,
    based at its first vertex.

    Every nonempty subset of a facet becomes a generator; vertex order within
    each facet must agree with the global order (duplicate-free, increasing).
    The subsets are listed largest facet first, skipping a facet already
    listed, and refused once they number 2^14, before any is built.
    """
    order: dict[str, int] = {}
    for facet in facets:
        if len(set(facet)) != len(facet):
            raise SimplicialError(f"facet {facet} repeats a vertex")
        for v in facet:
            order.setdefault(v, len(order))
    if not order:
        raise SimplicialError("a complex needs a facet with at least one vertex")
    vertices = sorted(order, key=order.get)
    rank = {v: k for k, v in enumerate(vertices)}
    for facet in facets:
        if list(facet) != sorted(facet, key=rank.get):
            raise SimplicialError(f"facet {facet} is not in vertex order")
    subsets: set[tuple[str, ...]] = set()
    for facet in sorted(map(tuple, facets), key=len, reverse=True):
        if facet in subsets:  # a face of a facet listed before
            continue
        for r in range(1, len(facet) + 1):
            for s in itertools.combinations(facet, r):
                subsets.add(s)
                if len(subsets) > _SIMPLEX_BOUND:
                    raise SimplicialError(f"a facet list may have at most {_SIMPLEX_BOUND} distinct simplices")
    simplex_name = simplex_namer(vertices)
    # one term per simplex, shared by the generator list and the face tables
    terms = {s: _nondegenerate(GeneratorId(simplex_name(s), len(s) - 1)) for s in subsets}
    gens = [terms[s].generator for s in sorted(subsets, key=lambda s: ([rank[v] for v in s],))]
    faces = {t.generator.name: tuple(terms[s[:i] + s[i + 1 :]] for i in range(len(s)))
             for s, t in terms.items() if len(s) > 1}
    return SimplicialPresentation(name, gens, faces, vertices[0])


def standard_simplex(n: int) -> SimplicialPresentation:
    if n < 0:
        raise SimplicialError("n must be >= 0")
    return from_facets([[str(i) for i in range(n + 1)]], name=f"delta{n}")


def boundary_simplex(n: int) -> SimplicialPresentation:
    if n < 1:
        raise SimplicialError("n must be >= 1")
    verts = [str(i) for i in range(n + 1)]
    facets = [list(f) for f in itertools.combinations(verts, n)]
    return from_facets(facets, name=f"boundary-delta{n}")


def sphere_quotient(n: int) -> SimplicialPresentation:
    """Delta^n / boundary: one vertex and one n-generator with degenerate faces."""
    if n < 1:
        raise SimplicialError("n must be >= 1")
    x0 = GeneratorId("x0", 0)
    top = GeneratorId("sigma", n)
    collapsed = SimplexTerm(x0, (n,))
    faces = {"sigma": tuple(collapsed for _ in range(n + 1))}
    return SimplicialPresentation(f"sphere{n}", [x0, top], faces, "x0")


def wedge_of_circles(r: int) -> SimplicialPresentation:
    if r < 1:
        raise SimplicialError("r must be >= 1")
    x0 = GeneratorId("x0", 0)
    base = _nondegenerate(x0)
    gens = [x0] + [GeneratorId(f"a{k}", 1) for k in range(1, r + 1)]
    faces = {f"a{k}": (base, base) for k in range(1, r + 1)}
    return SimplicialPresentation(f"wedge{r}", gens, faces, "x0")
