"""Integral homology of the loop-space complex via Smith normal form.

Boundary matrices are assembled over the canonical-word bases in each
degree, with an optional word-length truncation for complexes whose
degree-0 part is infinite.  The bases of all degrees come from one pass
up a tower: the ``de`` basis of degree n is read off the degeneracy
closure C_n = E_n + D(C_{n-1}), where E_n is the reduced words of degree
n and D applies every degeneracy and canonicalizes, so each closure layer
is built once from the one below.  Smith normal form with
minimal-magnitude pivoting yields free ranks and torsion, and a
stabilization scan raises the truncation until the reported groups stop
changing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chains import Ring, boundary_word, is_killed
from .simplicial import SimplicialPresentation
from .words import (
    LoopWord,
    canonical,
    degeneracy_slots,
    enumerate_words,
    word_degeneracy,
)


class HomologyError(ValueError):
    pass


# -- sparse integer matrices and Smith normal form --------------------------


@dataclass
class SparseIntMatrix:
    rows: int
    cols: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def set(self, i: int, j: int, v: int) -> None:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise HomologyError(f"index ({i},{j}) out of range")
        if v:
            self.entries[(i, j)] = v
        else:
            self.entries.pop((i, j), None)

    def get(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def to_dense(self) -> list[list[int]]:
        m = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            m[i][j] = v
        return m


def smith_normal_form(matrix: SparseIntMatrix | list[list[int]]) -> tuple[int, ...]:
    """Invariant factors (d_1 | d_2 | ...) of an integer matrix.

    Row/column reduction with the minimal-magnitude entry as pivot, which
    keeps coefficient growth in check on the small matrices arising here.
    """
    if isinstance(matrix, SparseIntMatrix):
        m = matrix.to_dense()
    else:
        m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    factors: list[int] = []
    top = 0
    while True:
        pivot = None
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[top], m[pi] = m[pi], m[top]
        for row in m:
            row[top], row[pj] = row[pj], row[top]
        while True:
            # clear the pivot column
            done = True
            for i in range(top + 1, rows):
                if m[i][top]:
                    q = m[i][top] // m[top][top]
                    for j in range(top, cols):
                        m[i][j] -= q * m[top][j]
                    if m[i][top]:  # remainder became the smaller pivot
                        m[top], m[i] = m[i], m[top]
                        done = False
            for j in range(top + 1, cols):
                if m[top][j]:
                    q = m[top][j] // m[top][top]
                    for i in range(top, rows):
                        m[i][j] -= q * m[i][top]
                    if m[top][j]:
                        for i in range(top, rows):
                            m[i][top], m[i][j] = m[i][j], m[i][top]
                        done = False
            if done:
                break
        # make the pivot divide the rest of the block
        p = abs(m[top][top])
        fixed = False
        for i in range(top + 1, rows):
            for j in range(top + 1, cols):
                if m[i][j] % p:
                    for jj in range(top, cols):
                        m[top][jj] += m[i][jj]
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        factors.append(p)
        top += 1
    return tuple(factors)


# -- bases and boundary matrices --------------------------------------------


def degree_bases(
    zx: SimplicialPresentation,
    top: int,
    variant: str,
    max_length: int | None,
) -> list[list[LoopWord]]:
    """Canonical-word bases of degrees 0..top, built in one pass.

    The normalized basis of degree n is E_n, the reduced words of degree n
    with nondegenerate letters.  The ``de`` basis is the part of the
    closure C_n = E_n + D(C_{n-1}) that the variant does not kill, where D
    applies every degeneracy to a word and canonicalizes the result.  D
    acts word by word and raises the degree by one, so C_n equals the
    closure of all E_d (d <= n) under degeneracies; only C_{n-1} is held
    while C_n is built.  Each basis is sorted by (length, letters).
    """
    base = zx.basepoint
    if variant == "normalized":
        return [enumerate_words(zx, n, max_length, base, base) for n in range(top + 1)]
    bases: list[list[LoopWord]] = []
    closure: set[LoopWord] = set()
    for n in range(top + 1):
        layer = set(enumerate_words(zx, n, max_length, base, base))
        for w in closure:
            for j in range(1, degeneracy_slots(w) + 1):
                raw = word_degeneracy(zx, w, j)
                layer.add(canonical(zx, raw.letters, raw.start))
        closure = layer
        basis = [w for w in closure if not is_killed(w, variant)]
        basis.sort(key=lambda w: (len(w.letters), w.letters))
        bases.append(basis)
    return bases


def degree_basis(
    zx: SimplicialPresentation,
    degree: int,
    variant: str,
    max_length: int | None,
) -> list[LoopWord]:
    """Canonical-word basis of one degree: entry ``degree`` of
    ``degree_bases``, which builds the lower bases on the way."""
    return degree_bases(zx, degree, variant, max_length)[degree]


def boundary_matrix(
    zx: SimplicialPresentation,
    degree: int,
    variant: str = "normalized",
    max_length: int | None = None,
    *,
    bases: tuple[list[LoopWord], list[LoopWord]] | None = None,
) -> tuple[SparseIntMatrix, list[LoopWord], list[LoopWord]]:
    """Matrix of the boundary from degree to degree-1 over the word bases.

    Returns (matrix, domain basis, codomain basis); rows are codomain
    words, columns domain words.  ``bases`` = (domain, codomain) reuses
    bases the caller already built with ``degree_bases``; without it both
    come from one ``degree_bases`` call.  With a length truncation,
    boundary terms whose length exceeds the bound are dropped (splits
    lengthen a word by one), so truncated answers need the stabilization
    scan.
    """
    if degree < 1:
        raise HomologyError("boundary matrix needs degree >= 1")
    ring = Ring.integers()
    if bases is None:
        tower = degree_bases(zx, degree, variant, max_length)
        bases = tower[degree], tower[degree - 1]
    domain, codomain = bases
    index = {w: i for i, w in enumerate(codomain)}
    m = SparseIntMatrix(len(codomain), len(domain))
    for j, w in enumerate(domain):
        for f, c in boundary_word(zx, ring, w, variant).items():
            i = index.get(f)
            if i is not None:
                m.set(i, j, m.get(i, j) + c)
    return m, domain, codomain


@dataclass(frozen=True)
class HomologyGroup:
    degree: int
    free_rank: int
    torsion: tuple[int, ...]

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class HomologyTable:
    complex_name: str
    variant: str
    max_length: int | None
    groups: tuple[HomologyGroup, ...]
    stabilized: bool | None = None


def homology(
    zx: SimplicialPresentation,
    max_degree: int,
    variant: str = "normalized",
    max_length: int | None = None,
) -> HomologyTable:
    """H_0..H_max_degree of the loop-space complex.

    The bases of degrees 0..max_degree+1 come from one ``degree_bases``
    call, and each boundary matrix reuses the two it needs.  A negative
    free rank, which a length truncation that is not a subcomplex can
    produce, raises ``HomologyError``.
    """
    bases = degree_bases(zx, max_degree + 1, variant, max_length)
    ranks: dict[int, int] = {}
    snfs: dict[int, tuple[int, ...]] = {}
    for n in range(1, max_degree + 2):
        m, _, _ = boundary_matrix(
            zx, n, variant, max_length, bases=(bases[n], bases[n - 1])
        )
        snfs[n] = smith_normal_form(m)
        ranks[n] = len(snfs[n])
    groups = []
    for n in range(max_degree + 1):
        rank_in = ranks.get(n, 0)  # rank of d_n
        rank_out = ranks.get(n + 1, 0)  # rank of d_{n+1}
        free = len(bases[n]) - rank_in - rank_out
        if free < 0:
            raise HomologyError(
                f"H_{n} has negative free rank {free} at word-length bound "
                f"{max_length}: the truncated complex is not a subcomplex"
            )
        torsion = tuple(t for t in snfs.get(n + 1, ()) if t > 1)
        groups.append(HomologyGroup(n, free, torsion))
    return HomologyTable(zx.name, variant, max_length, tuple(groups))


def field_dimensions(table: HomologyTable, ring: Ring) -> dict[int, int]:
    """Dimensions of the homology with field (or integer) coefficients,
    read off from the integral table by universal coefficients: a torsion
    factor divisible by p contributes to the group in its own degree and
    the one below."""
    dims = {g.degree: g.free_rank for g in table.groups}
    if ring.p is not None:
        p = ring.p
        torsion_p = {
            g.degree: sum(1 for t in g.torsion if t % p == 0) for g in table.groups
        }
        for n in dims:
            dims[n] += torsion_p.get(n, 0) + torsion_p.get(n - 1, 0)
    return dims


def stabilized_homology(
    zx: SimplicialPresentation,
    max_degree: int,
    variant: str = "normalized",
    start_length: int = 2,
    max_rounds: int = 6,
) -> HomologyTable:
    """Raise the word-length truncation until the table stops changing."""
    prev = None
    length = start_length
    for _ in range(max_rounds):
        table = homology(zx, max_degree, variant, length)
        if prev is not None and table.groups == prev.groups:
            return HomologyTable(
                zx.name, variant, length, table.groups, stabilized=True
            )
        prev = table
        length += 1
    return HomologyTable(zx.name, variant, length - 1, prev.groups, stabilized=False)
