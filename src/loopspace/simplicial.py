"""Finite simplicial sets presented by nondegenerate generators with face tables.

A presentation lists the nondegenerate simplices ("generators") by dimension
together with the faces of each generator, which may be degenerate.  A
simplex is a generator with the number of copies of each of its vertices,
on which faces and degeneracies act directly.  Formal edge inverses are
attached by ``z_extension``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

OP_SUFFIX = "^op"


class SimplicialError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class GeneratorId:
    name: str
    dim: int


@dataclass(frozen=True, order=True)
class SimplexTerm:
    """A (possibly degenerate) simplex: a generator and how many copies of
    each of its vertices the simplex has.  By the Eilenberg-Zilber lemma
    these fix the simplex: s_I g repeats the vertices of g in order."""

    generator: GeneratorId
    mult: tuple[int, ...]

    @property
    def dim(self) -> int:
        return sum(self.mult) - 1

    @property
    def is_nondegenerate(self) -> bool:
        return sum(self.mult) == len(self.mult)

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
    return SimplexTerm(t.generator, mult[:v] + (mult[v] + 1,) + mult[v + 1 :])


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
        self._endpoints: dict[str, tuple[str, str]] = {
            name: self._walk_endpoints(_nondegenerate(g))
            for name, g in self.generators.items()
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
            if self.op_pairs.get(b) != a:
                raise SimplicialError(f"op-pairing is not an involution at {a!r}")
            if self.generators[a].dim != 1:
                raise SimplicialError("op-pairing is only defined on 1-generators")

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
        remaining vertices it collapses."""
        mult = t.mult
        dim = sum(mult) - 1
        if dim < 1:
            raise SimplicialError("faces are only defined in dimension >= 1")
        if not 0 <= i <= dim:
            raise SimplicialError(f"face index {i} out of range for dimension {dim}")
        v = _vertex_at(mult, i)
        if mult[v] > 1:
            return SimplexTerm(t.generator, mult[:v] + (mult[v] - 1,) + mult[v + 1 :])
        try:
            f = self.faces[t.generator.name][v]
        except KeyError:
            raise SimplicialError(f"unknown generator {t.generator.name!r}") from None
        rest = mult[:v] + mult[v + 1 :]
        if sum(rest) == len(rest):  # t is the generator itself
            return f
        ends = list(itertools.accumulate(f.mult))
        return SimplexTerm(f.generator, tuple(sum(rest[a:b]) for a, b in zip([0, *ends], ends)))

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
            return self._endpoints[t.generator.name]
        except KeyError:
            raise SimplicialError(f"unknown generator {t.generator.name!r}") from None

    def _walk_endpoints(self, t: SimplexTerm) -> tuple[str, str]:
        lo, hi = _split(self, t, 0)[0], _split(self, t, t.dim)[1]
        return lo.generator.name, hi.generator.name

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
    """The front i-face and the back (dim - i)-face of t, sharing vertex i:
    iterated last faces and iterated zeroth faces."""
    front, back = t, t
    while front.dim > i:
        front = zx.face(front, front.dim)
    while back.dim > t.dim - i:
        back = zx.face(back, 0)
    return front, back


def _inverse_pair(zx: SimplicialPresentation, a: SimplexTerm, b: SimplexTerm) -> bool:
    """Whether the generators of a and b are an edge and its formal inverse."""
    return zx.op_pairs.get(a.generator.name) == b.generator.name


# -- builders -------------------------------------------------------------


def _simplex_name(vertices: Sequence[str]) -> str:
    if all(len(v) == 1 for v in vertices):
        return "".join(vertices)
    return ",".join(vertices)


def from_facets(
    facets: Sequence[Sequence[str]],
    basepoint: str | None = None,
    name: str = "complex",
) -> SimplicialPresentation:
    """Simplicial complex on an ordered vertex set, given by its facets.

    Every nonempty subset of a facet becomes a generator; vertex order within
    each facet must agree with the global order (duplicate-free, increasing).
    """
    order: dict[str, int] = {}
    for facet in facets:
        if len(set(facet)) != len(facet):
            raise SimplicialError(f"facet {facet} repeats a vertex")
        for v in facet:
            order.setdefault(v, len(order))
    vertices = sorted(order, key=order.get)
    rank = {v: k for k, v in enumerate(vertices)}
    for facet in facets:
        if list(facet) != sorted(facet, key=rank.get):
            raise SimplicialError(f"facet {facet} is not in vertex order")
    subsets: set[tuple[str, ...]] = set()
    for facet in facets:
        for r in range(1, len(facet) + 1):
            subsets.update(itertools.combinations(facet, r))
    gens = [GeneratorId(_simplex_name(s), len(s) - 1) for s in sorted(subsets, key=lambda s: ([rank[v] for v in s],))]
    faces = {}
    for s in subsets:
        if len(s) == 1:
            continue
        entries = []
        for i in range(len(s)):
            sub = s[:i] + s[i + 1 :]
            entries.append(_nondegenerate(GeneratorId(_simplex_name(sub), len(sub) - 1)))
        faces[_simplex_name(s)] = tuple(entries)
    return SimplicialPresentation(name, gens, faces, basepoint or vertices[0])


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
