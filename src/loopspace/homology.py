"""Integral homology of the loop-space complex via Smith normal form.

Boundary matrices are assembled over the canonical-word bases in each
degree.  A complex without edges has finitely many words per degree and
an exact table; one with edges is truncated at a word weight N, weight
being degree + length: a face keeps a word's weight or lowers it, so the
words of weight <= N span a subcomplex (as total dimension filters Adams'
cobar construction).

Neither bases nor matrices take a canonical form word by word.  The
normalized basis of degree n is E_n, the reduced words of degree n with
nondegenerate letters.  A ``de`` basis word is a word of some E_d, d <= n,
with n - d duplicates on interior vertices of its letters (a duplicate at
a junction or an end is what the variant kills), so the basis is listed
by placing the duplicates.  The chain algebra is a dga, as Adams' cobar
construction is, so its boundary is the derivation fixed by its values on
letters: each matrix column is a signed sum of the word with one letter t
replaced by a term of d(t), and d(t) is taken once per distinct letter.

Free ranks and torsion come from Smith normal form in two phases.  The
boundary matrices are sparse and mostly +-1, so phase 1 removes unit
pivots on sparse rows (Kaczynski-Mrozek-Slusarek 1998; Dumas-Saunders-
Villard 2001): clearing a +-1 entry's column by row operations splits
off a summand [+-1], an invariant factor 1 that divides all the rest.
The pivots come from a priority queue keyed by Markowitz cost (Markowitz
1957), whose row and column counts are kept current as elimination runs;
costs are refreshed lazily, so the order is approximately Markowitz.
Phase 2 runs dense minimal-magnitude reduction only on the small residual
block, modulo twice a nonzero minor of full rank so that entries stay
bounded (Hafner-McCurley 1991).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd

from .chains import VARIANTS, Ring, boundary_word
from .simplicial import SimplexTerm, SimplicialPresentation, _inverse_pair
from .words import LoopWord, canonical, enumerate_words


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


def smith_normal_form(matrix: SparseIntMatrix | list[list[int]]) -> tuple[int, ...]:
    """Invariant factors (d_1 | d_2 | ...) of an integer matrix.

    Phase 1 works on sparse rows and removes unit pivots: it takes an
    entry u = +-1, clears u's column by row operations, drops u's row and
    column and counts one invariant factor 1.  This is exact: once the
    column is clear, column operations clear u's row without touching any
    other row, so the matrix is equivalent to [u] + (the rest), and a
    leading 1 divides every later factor; so any order of unit pivots
    gives the same factors.  The pivots come from a queue of (cost, row,
    column) ordered by Markowitz cost (row nonzeros - 1) * (column nonzeros
    - 1), ties to the lowest position.  Every +-1 entry is queued once at
    the start; after each elimination the queue gets the entries the row
    operations set to +-1 (fill-in included), the +-1 entries of rows that
    got shorter, and the entry of each column left with one row, at cost
    0.  A popped candidate whose row is gone or whose entry is no longer
    +-1 is dropped, and one whose cost rose goes back with its new cost.
    A cost that fell only because a column got shorter is not refreshed,
    and its candidate comes out late, so the order is approximately
    Markowitz.  Phase 2 (``_dense_smith_normal_form``) reduces the residual
    block, the rows and columns that still hold entries; with no unit
    entry that block is the whole matrix.

    A list-of-lists input must be rectangular (``HomologyError`` names
    the first short row).
    """
    rows = _sparse_rows(matrix)
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)

    def cost(i: int, j: int) -> int:
        return (len(rows[i]) - 1) * (len(cols[j]) - 1)

    queue = [(cost(i, j), i, j) for i, row in rows.items() for j, v in row.items()
             if v == 1 or v == -1]
    heapify(queue)
    units = 0
    while queue:
        c, p, q = heappop(queue)
        prow = rows.get(p)
        if prow is None or prow.get(q) not in (1, -1):
            continue
        now = cost(p, q)
        if now > c:
            heappush(queue, (now, p, q))
            continue
        del rows[p]
        u = prow[q]
        fresh = set()  # unit entries to queue once the elimination is done
        for i in cols[q] - {p}:
            row = rows[i]
            before = len(row)
            f = row[q] * u  # u is its own inverse
            for j, v in prow.items():
                w = row.get(j, 0) - f * v
                if w:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = w
                    if w == 1 or w == -1:
                        fresh.add((i, j))
                else:
                    del row[j]
                    cols[j].discard(i)
            if not row:
                del rows[i]
            elif len(row) < before:
                fresh.update((i, j) for j, v in row.items() if v == 1 or v == -1)
        for j in prow:
            col = cols[j]
            col.discard(p)
            if not col:
                del cols[j]
            elif len(col) == 1:  # a column singleton costs 0
                (i,) = col
                if rows[i][j] in (1, -1):
                    fresh.add((i, j))
        for i, j in fresh:
            heappush(queue, (cost(i, j), i, j))
        units += 1
    place = {j: k for k, j in enumerate(sorted(cols))}
    residual = []
    for row in rows.values():
        dense = [0] * len(place)
        for j, v in row.items():
            dense[place[j]] = v
        residual.append(dense)
    return (1,) * units + _dense_smith_normal_form(residual)


def _sparse_rows(matrix: SparseIntMatrix | list[list[int]]) -> dict[int, dict[int, int]]:
    """Nonzero entries as {row: {column: value}}, without empty rows."""
    rows: dict[int, dict[int, int]] = {}
    if isinstance(matrix, SparseIntMatrix):
        for (i, j), v in matrix.entries.items():
            if v:
                rows.setdefault(i, {})[j] = v
        return rows
    width = max((len(r) for r in matrix), default=0)
    for i, r in enumerate(matrix):
        if len(r) != width:
            raise HomologyError(
                f"ragged matrix: row {i} has {len(r)} entries, the widest has {width}"
            )
        row = {j: v for j, v in enumerate(r) if v}
        if row:
            rows[i] = row
    return rows


def _rank_and_minor(m: list[list[int]]) -> tuple[int, int]:
    """Rank r of a dense matrix and |det| of one nonzero r x r minor.

    Fraction-free (Bareiss) elimination with full pivoting: every entry it
    holds is a minor of ``m``, so entry sizes stay polynomial.
    """
    a = [row[:] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    prev = 1
    k = 0
    while k < min(rows, cols):
        pivot = next(
            ((i, j) for i in range(k, rows) for j in range(k, cols) if a[i][j]), None
        )
        if pivot is None:
            break
        pi, pj = pivot
        a[k], a[pi] = a[pi], a[k]
        for row in a:
            row[k], row[pj] = row[pj], row[k]
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
        k += 1
    return k, abs(prev)


def _dense_smith_normal_form(m: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors of a dense rectangular matrix, reduced in place.

    Row/column reduction with the minimal-magnitude entry as pivot, done in
    the integers modulo M = 2 |det B| for a nonzero r x r minor B, r the
    rank.  Every nonzero invariant factor d divides det B, so d equals
    gcd(d, M) and is not 0 mod M: the reduction mod M keeps all r factors,
    and each pivot's gcd with M is the factor itself.  Reducing mod M
    bounds every entry by M; without it, the Euclidean row and column steps
    can grow entries without bound (past a thousand digits on 20 x 20 blocks
    with entries in -3..3).
    """
    rank, minor = _rank_and_minor(m)
    if rank == 0:
        return ()
    mod, half = 2 * minor, minor  # entries kept in [-half, half)
    rows = len(m)
    cols = len(m[0])
    for row in m:
        row[:] = [(v + half) % mod - half for v in row]
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
            # clear the pivot column; a remainder is smaller than the pivot,
            # so it is its own residue and the pivot shrinks until done
            done = True
            for i in range(top + 1, rows):
                if m[i][top]:
                    q = m[i][top] // m[top][top]
                    for j in range(top, cols):
                        m[i][j] = (m[i][j] - q * m[top][j] + half) % mod - half
                    if m[i][top]:  # remainder became the smaller pivot
                        m[top], m[i] = m[i], m[top]
                        done = False
            for j in range(top + 1, cols):
                if m[top][j]:
                    q = m[top][j] // m[top][top]
                    for i in range(top, rows):
                        m[i][j] = (m[i][j] - q * m[i][top] + half) % mod - half
                    if m[top][j]:
                        for i in range(top, rows):
                            m[i][top], m[i][j] = m[i][j], m[i][top]
                        done = False
            if done:
                break
        # make the pivot divide the rest of the block (mod M, the pivot is
        # an associate of its gcd with M)
        p = gcd(m[top][top], mod)
        fixed = False
        for i in range(top + 1, rows):
            for j in range(top + 1, cols):
                if m[i][j] % p:
                    for jj in range(top, cols):
                        m[top][jj] = (m[top][jj] + m[i][jj] + half) % mod - half
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


def _weight_bound(zx: SimplicialPresentation, max_weight: int | None) -> int | None:
    """The weight bound that applies to zx: None (exact) without edges,
    where every degree is finite; with edges a bound is required."""
    if not zx.generators_of_dim(1):
        return None
    if max_weight is None:
        raise HomologyError(
            f"{zx.name} has edges, so its loop complex is infinite in degree 0: "
            "bound the word weight (--max-weight)"
        )
    return max_weight


def degree_bases(
    zx: SimplicialPresentation,
    top: int,
    variant: str,
    max_weight: int | None,
) -> list[list[LoopWord]]:
    """Canonical-word bases of degrees 0..top; with edges, degree n takes
    the words of length <= max_weight - n.

    The normalized basis of degree n is E_n, the reduced words of degree n
    with nondegenerate letters.  A ``de`` basis word of degree n is a word
    of E_d (d <= n) whose letters carry n - d extra duplicates on their
    interior vertices, 1..dim-1 of each letter: a duplicate at a junction
    or an end is what the variant kills, and a degeneracy keeps the
    letters' cores and the length.  So the basis is listed directly, by
    placing the duplicates on the d interior vertices of each reduced word
    in every way (stars and bars), with no canonical form taken.  Each
    basis is sorted by (length, letters).
    """
    if variant not in VARIANTS:
        raise HomologyError(f"unknown variant {variant!r}")
    base = zx.basepoint
    bound = _weight_bound(zx, max_weight)
    lengths = [None if bound is None else bound - n for n in range(top + 1)]
    reduced = [enumerate_words(zx, n, lengths[n], base, base) for n in range(top + 1)]
    if variant == "normalized":
        return reduced
    bases: list[list[LoopWord]] = []
    for n in range(top + 1):
        basis = []
        for d in range(n + 1):
            for w in reduced[d]:
                if lengths[n] is None or len(w.letters) <= lengths[n]:
                    basis.extend(_interior_duplicates(w, n - d))
        basis.sort(key=lambda w: (len(w.letters), w.letters))
        bases.append(basis)
    return bases


def _interior_duplicates(w: LoopWord, extra: int) -> list[LoopWord]:
    """The words made from the reduced word w by ``extra`` more duplicates
    of the interior vertices of its letters, one word per placement."""
    if not extra:
        return [w]
    slots = w.degree  # a letter of dimension m has m - 1 interior vertices
    if not slots:
        return []
    out = []
    width = extra + slots - 1
    for bars in combinations(range(width), slots - 1):
        counts = iter([b - a - 1 for a, b in zip((-1, *bars), (*bars, width))])
        letters = []
        for t in w.letters:
            mult = (1, *(1 + next(counts) for _ in range(t.dim - 1)), 1)
            letters.append(SimplexTerm(t.generator, mult))
        out.append(LoopWord(tuple(letters), w.start, w.end))
    return out


def degree_basis(
    zx: SimplicialPresentation,
    degree: int,
    variant: str,
    max_weight: int | None,
) -> list[LoopWord]:
    """Canonical-word basis of one degree: entry ``degree`` of
    ``degree_bases``, which builds the lower bases on the way."""
    return degree_bases(zx, degree, variant, max_weight)[degree]


def boundary_matrix(
    zx: SimplicialPresentation,
    domain: list[LoopWord],
    codomain: list[LoopWord],
    variant: str = "normalized",
) -> tuple[SparseIntMatrix, list[LoopWord], list[LoopWord]]:
    """Matrix of the boundary from the domain basis to the codomain basis.

    Returns (matrix, domain, codomain); rows are codomain words, columns
    domain words.  The boundary is the derivation fixed by its values on
    letters, d(t_1...t_m) = sum_k (-1)^e t_1...t_{k-1} d(t_k) t_{k+1}...t_m
    with e the degree of t_1...t_{k-1}; d(t) is ``chains.boundary_word`` of
    the one-letter word, computed once per distinct letter in this call.
    The pieces of a canonical word the variant keeps are canonical and
    kept, and so is each term of d(t), so a term is their plain
    concatenation, unless the letters meeting at a junction are an inverse
    edge pair: only then is it canonicalized.  A boundary term outside the
    codomain raises ``HomologyError``: the bases do not span a subcomplex.
    """
    index = {w: i for i, w in enumerate(codomain)}
    letter_boundary: dict[SimplexTerm, list[tuple[tuple[SimplexTerm, ...], int]]] = {}
    m = SparseIntMatrix(len(codomain), len(domain))
    for j, w in enumerate(domain):
        column: dict[LoopWord, int] = {}
        sign = 1  # (-1)^(degree of the letters before t)
        for k, t in enumerate(w.letters):
            terms = letter_boundary.get(t)
            if terms is None:
                lo, hi = zx.endpoints(t)
                one = boundary_word(zx, LoopWord((t,), lo, hi), variant)
                terms = letter_boundary[t] = [(f.letters, c) for f, c in one.items()]
            front, back = w.letters[:k], w.letters[k + 1 :]
            for piece, c in terms:
                letters = front + piece + back
                if _inverse_at_seam(zx, front, piece, back):
                    f = canonical(zx, letters, w.start)
                else:
                    f = LoopWord(letters, w.start, w.end)
                column[f] = column.get(f, 0) + sign * c
            if t.dim % 2 == 0:  # t has odd degree
                sign = -sign
        for f, c in column.items():
            if c:
                i = index.get(f)
                if i is None:
                    raise HomologyError(f"boundary term {f} of {w} is outside the codomain basis")
                m.set(i, j, c)
    return m, domain, codomain


def _inverse_at_seam(
    zx: SimplicialPresentation,
    front: tuple[SimplexTerm, ...],
    piece: tuple[SimplexTerm, ...],
    back: tuple[SimplexTerm, ...],
) -> bool:
    """Whether an inverse edge pair meets where piece is put between front
    and back (inside a canonical piece none does)."""
    seam = front[-1:] + piece + back[:1]
    return any(_inverse_pair(zx, a, b) for a, b in zip(seam, seam[1:]))


def _composes_to_zero(lo: SparseIntMatrix, hi: SparseIntMatrix) -> bool:
    """Whether the product lo . hi of two sparse matrices is zero."""
    by_row: dict[int, list[tuple[int, int]]] = {}
    for (k, j), v in hi.entries.items():
        by_row.setdefault(k, []).append((j, v))
    product: dict[tuple[int, int], int] = {}
    for (i, k), v in lo.entries.items():
        for j, w in by_row.get(k, ()):
            product[(i, j)] = product.get((i, j), 0) + v * w
    return not any(product.values())


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
    max_weight: int | None  # the weight the table was truncated at; None if exact
    groups: tuple[HomologyGroup, ...]
    # per degree n = 0..max_degree + 1: the size of the basis, and the
    # nonzero entries of d_n from it (d_0 = 0 has none)
    basis_sizes: tuple[int, ...] = ()
    nonzeros: tuple[int, ...] = ()


def homology(
    zx: SimplicialPresentation,
    max_degree: int,
    variant: str = "normalized",
    max_weight: int | None = None,
) -> HomologyTable:
    """H_0..H_max_degree of the loop-space complex, truncated at word
    weight ``max_weight`` on a complex with edges and exact without.

    The bases of degrees 0..max_degree+1 come from one ``degree_bases``
    call, and each boundary matrix reuses the two it needs.  Each
    consecutive pair must compose to zero, which also keeps every free
    rank >= 0 (the image of d_{n+1} lies in the kernel of d_n).
    """
    bases = degree_bases(zx, max_degree + 1, variant, max_weight)
    snfs: list[tuple[int, ...]] = [()]  # d_0 = 0
    nonzeros = [0]
    prev = None
    for n in range(1, max_degree + 2):
        m, _, _ = boundary_matrix(zx, bases[n], bases[n - 1], variant)
        if prev is not None and not _composes_to_zero(prev, m):
            raise HomologyError(f"d_{n - 1} d_{n} is not zero on {zx.name}")
        nonzeros.append(len(m.entries))
        snfs.append(smith_normal_form(m))
        prev = m
    groups = []
    for n in range(max_degree + 1):
        free = len(bases[n]) - len(snfs[n]) - len(snfs[n + 1])
        torsion = tuple(t for t in snfs[n + 1] if t > 1)
        groups.append(HomologyGroup(n, free, torsion))
    return HomologyTable(
        zx.name,
        variant,
        _weight_bound(zx, max_weight),
        tuple(groups),
        tuple(len(b) for b in bases),
        tuple(nonzeros),
    )


def field_dimensions(table: HomologyTable, coeff: Ring) -> dict[int, int]:
    """Dimensions of the homology with field (or integer) coefficients,
    read off from the integral table by universal coefficients: a torsion
    factor of H_n divisible by p contributes to the group in its own
    degree and the one above (Tor(H_n, F_p) lands in degree n + 1)."""
    dims = {g.degree: g.free_rank for g in table.groups}
    if coeff.p is not None:
        p = coeff.p
        torsion_p = {
            g.degree: sum(1 for t in g.torsion if t % p == 0) for g in table.groups
        }
        for n in dims:
            dims[n] += torsion_p.get(n, 0) + torsion_p.get(n - 1, 0)
    return dims
