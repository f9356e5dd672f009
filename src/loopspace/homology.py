"""Integral homology of the loop-space complex via Smith normal form.

Boundary matrices are assembled over the canonical-word bases in each
degree.  A complex without edges has finitely many words per degree and
an exact table; one with edges is truncated at a word weight N, weight
being degree + length: a face keeps a word's weight or lowers it, so the
words of weight <= N span a subcomplex (as total dimension filters Adams'
cobar construction).

Both bases are listed over a table of letters: the nondegenerate
letters for ``normalized``, and for ``de`` also those with duplicates on
interior vertices (one at a junction or an end is what the variant
kills).  The chain algebra is a dga, as Adams' cobar construction is, so
its boundary is the derivation fixed by its values on letters, and d(t)
is taken once per distinct letter in one ``homology`` call, for all of
its matrices: ``boundary_matrix`` reads d(t) from a cache its caller
builds.  With edges, each basis is one ``words.enumerate_words``
walk, and each matrix column is a signed sum of the word with one letter
t replaced by a term of d(t), looked up in the codomain's word index and
normalized only if it is not there.  Without edges the
words are all the words in the letters, the tensor algebra T(V) on them:
each basis is listed prefix-major, by concatenation from the lower ones,
and d_n is assembled by index arithmetic from d(t) and the lower
matrices, as d(t.v) = d(t).v + (-1)^|t| t.d(v).

The homology of the matrices is ``chain_homology``'s, and it knows no
words: given the rank of each degree and a function that returns d_n, it
checks each d_n's shape and each d_{n-1} d_n = 0, and reads free ranks
and torsion off Smith normal form.  ``homology`` is its caller on the
loop-word bases, and takes each d_n from one ``boundary_matrix`` call.

Smith normal form is one sparse elimination (Kaczynski-Mrozek-Slusarek
1998; Dumas-Saunders-Villard 2001).  Its priority queue holds rows,
keyed by their smallest |entry| and then their length, and a row goes
back on it only when an elimination changes it.  The boundary matrices
are sparse and mostly +-1, so unit pivots come first, each in the
shortest column among its row's units: the order is approximately
Markowitz (Markowitz 1957).
When the units run out, the smallest entries pivot, and Euclidean row
and column steps reduce each one until it splits off.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from functools import cache, partial
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd

from .chains import VARIANTS, boundary_word
from .simplicial import SimplexTerm, SimplicialPresentation
from .words import LoopWord, canonical, enumerate_words, unit


class HomologyError(ValueError):
    pass


_LetterTerms = list[tuple[tuple[SimplexTerm, ...], int]]  # d of a letter: (term letters, coefficient)


# -- sparse integer matrices and Smith normal form --------------------------


@dataclass
class SparseIntMatrix:
    rows: int
    cols: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)


def smith_normal_form(matrix: SparseIntMatrix | list[list[int]]) -> tuple[int, ...]:
    """Invariant factors (d_1 | d_2 | ...) of an integer matrix.

    One elimination loop on sparse rows takes its pivot rows from a queue
    keyed by (smallest |entry| of the row, row length), ties to the lowest
    row.  ``keys`` holds the one queued key of each live row, and a popped
    key that is not that one is dropped.  A row an elimination changes is
    queued again when its key changed, and the pivot row if it stays, so
    the popped row holds a smallest entry of the whole matrix.  Its pivot
    u is a smallest entry whose column has the fewest rows (ties to the
    lowest column): units pivot first, in approximately Markowitz order
    (Markowitz 1957), and a split-off 1 divides every later factor, so
    their order does not change the factors.

    u clears its column by row operations with quotient floor(v / u).  For
    a unit this is exact; otherwise it leaves remainders smaller than |u|
    in the column, and they pivot next.  Once u is alone in its column,
    column operations reduce its row modulo u without touching another
    row, and what is left of the row pivots next.  When nothing is, the
    matrix is [u] + (the rest), and |u| splits off.  Last, gcd/lcm steps
    on neighbours put the sorted pivots in divisibility order, in one
    linear pass when they already form a chain.

    A list-of-lists input must be rectangular (``HomologyError`` names
    the first short row).
    """
    rows = _sparse_rows(matrix)
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)

    def key(i: int) -> tuple[int, int, int]:
        row = rows[i]
        return min(map(abs, row.values())), len(row), i

    keys = {i: key(i) for i in rows}
    queue = list(keys.values())
    heapify(queue)
    pivots = []
    while queue:
        top = heappop(queue)
        size, _, p = top
        if keys.get(p) is not top:  # p was queued again, or is gone
            continue
        del keys[p]
        prow = rows[p]
        _, q = min((len(cols[j]), j) for j, v in prow.items() if v == size or v == -size)
        u = prow[q]
        changed = []
        for i in cols[q] - {p}:
            row = rows[i]
            f = row[q] // u  # not 0: |row[q]| >= |u|
            for j, v in prow.items():
                w = row.get(j, 0) - f * v
                if w:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = w
                else:
                    del row[j]
                    cols[j].discard(i)
            changed.append(i)
        if size > 1 and len(cols[q]) == 1:
            # u is alone in its column, so column operations reduce its row
            # modulo u and touch no other row
            for j, v in list(prow.items()):
                if w := v % u:
                    prow[j] = w
                elif j != q:
                    del prow[j]
                    cols[j].discard(p)
                    if not cols[j]:
                        del cols[j]
        if size == 1 or len(prow) == len(cols[q]) == 1:
            pivots.append(size)
            del rows[p]
            for j in prow:
                col = cols[j]
                col.discard(p)
                if not col:
                    del cols[j]
        else:
            changed.append(p)  # u pivots again, after the remainders
        for i in changed:
            if not rows[i]:
                del rows[i], keys[i]
            elif (k := key(i)) != keys.get(i):
                keys[i] = k
                heappush(queue, k)
    pivots.sort()
    ordered = False
    while not ordered:  # each gcd/lcm step sorts the pair's exponent of every prime
        ordered = True
        for k in range(len(pivots) - 1):
            a, b = pivots[k], pivots[k + 1]
            if b % a:
                g = gcd(a, b)
                pivots[k], pivots[k + 1] = g, a // g * b
                ordered = False
    return tuple(pivots)


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
    """Canonical-word bases of degrees 0..top, one ``enumerate_words`` walk
    each over the variant's table of letters (``_letter_table``); with
    edges, degree n takes the words of length <= max_weight - n."""
    letters = _letter_table(zx, top, variant)
    base = zx.basepoint
    bound = _weight_bound(zx, max_weight)
    return [enumerate_words(zx, n, None if bound is None else bound - n, base, base, letters)
            for n in range(top + 1)]


def _letter_table(
    zx: SimplicialPresentation, top: int, variant: str
) -> dict[str, list[tuple[SimplexTerm, str]]]:
    """The letters the bases of degrees 0..top are words in, by start
    vertex: ``zx.letters_from`` (the nondegenerate letters) for
    ``normalized``; for ``de`` also each letter of dimension m >= 2 with
    k >= 1 duplicates on its interior vertices 1..m-1, placed in every
    way, for m - 1 + k <= top, each row in order of dimension.  Refuses an
    unknown variant and a negative degree."""
    if variant not in VARIANTS:
        raise HomologyError(f"unknown variant {variant!r}")
    if top < 0:
        raise HomologyError(f"degree must be non-negative, got {top}")
    if variant == "normalized":
        return zx.letters_from
    table = {}
    for at, row in zx.letters_from.items():
        out = list(row)
        for t, hi in row:
            if t.dim < 2:
                continue  # an edge has no interior vertex
            for k in range(1, top - t.dim + 2):
                out.extend((SimplexTerm(t.generator, (1, *(1 + c for c in counts), 1)), hi)
                           for counts in _compositions(k, t.dim - 1))
        table[at] = sorted(out, key=lambda entry: entry[0].dim)
    return table


def _compositions(total: int, parts: int) -> Iterator[list[int]]:
    """Every way to write total as an ordered sum of ``parts`` numbers
    >= 0 (stars and bars)."""
    width = total + parts - 1
    for bars in combinations(range(width), parts - 1):
        yield [b - a - 1 for a, b in zip((-1, *bars), (*bars, width))]


def degree_basis(
    zx: SimplicialPresentation,
    degree: int,
    variant: str,
    max_weight: int | None,
) -> list[LoopWord]:
    """Canonical-word basis of one degree: entry ``degree`` of
    ``degree_bases``, which builds the lower bases on the way."""
    return degree_bases(zx, degree, variant, max_weight)[degree]


@dataclass
class TensorBases:
    """The bases of degrees 0..top of a complex without edges, listed
    prefix-major, and the matrices of d assembled on them so far.

    Without edges every letter has degree >= 1 and no two letters cancel,
    so the kept words are all the words in the letters: the chains are
    the tensor algebra T(V) on them.  B_n lists t.v for each letter t in
    table order and each v of B_{n-|t|} in its order, so index(t.v) =
    ``offsets[n][i] + index(v)``, where ``offsets[n][i]`` is the number of
    words of B_n that start with a letter before ``letters[i]``.
    ``matrices`` holds d_0, d_1, ... as ``boundary_matrix`` assembles them.
    """

    letters: list[SimplexTerm]
    bases: list[list[LoopWord]]
    offsets: list[list[int]]
    matrices: list[SparseIntMatrix]


def tensor_bases(zx: SimplicialPresentation, top: int, variant: str) -> TensorBases:
    """Prefix-major bases of degrees 0..top of a complex without edges,
    each built by concatenation from the lower ones over the variant's
    table of letters (``_letter_table``): the same words as
    ``degree_bases`` lists, in another order, with d_0 = 0 assembled."""
    table = _letter_table(zx, top, variant)
    if zx.generators_of_dim(1):
        raise HomologyError(f"{zx.name} has edges, so its words are not a tensor algebra")
    base = zx.basepoint
    letters = [t for t, _ in table.get(base, ())]
    bases: list[list[LoopWord]] = []
    offsets: list[list[int]] = []
    for n in range(top + 1):
        basis = [] if n else [unit(base)]
        offset = []
        for t in letters:
            offset.append(len(basis))
            if t.dim - 1 <= n:
                basis.extend(LoopWord((t,) + v.letters, base, base) for v in bases[n - t.dim + 1])
        bases.append(basis)
        offsets.append(offset)
    return TensorBases(letters, bases, offsets, [SparseIntMatrix(0, 1)])


def boundary_matrix(
    zx: SimplicialPresentation,
    domain: list[LoopWord],
    codomain: list[LoopWord],
    letter_boundary: Callable[[SimplexTerm], _LetterTerms],
    tensor: TensorBases | None,
) -> tuple[SparseIntMatrix, list[LoopWord], list[LoopWord]]:
    """Matrix of the boundary from the domain basis to the codomain basis.

    Returns (matrix, domain, codomain); rows are codomain words, columns
    domain words.  The boundary is the derivation fixed by its values on
    letters, d(t_1...t_m) = sum_k (-1)^e t_1...t_{k-1} d(t_k) t_{k+1}...t_m
    with e the degree of t_1...t_{k-1}; d(t) is ``letter_boundary(t)``, a
    list of (term letters, coefficient) for this zx and the bases' variant.
    ``homology`` passes every matrix it assembles one cache of
    ``_letter_terms``, so d of each distinct letter is computed once per
    call.

    With ``tensor``, domain and codomain are its B_n and B_{n-1} for the
    next n, and d_n comes from its lower matrices by index arithmetic
    (``_tensor_matrix``).  ``homology`` takes that route on every complex
    without edges, and either way calls this function once per d_n, for
    ``chain_homology``, so a caller that wraps it sees every matrix with
    its two bases.

    Otherwise each column is built word by word, and a term is the plain
    concatenation of the pieces of w around a term of d(t), normalized by
    ``canonical`` only when it is not a codomain word (a basis word is its
    own normal form).  A boundary term outside the codomain raises
    ``HomologyError``: the bases do not span a subcomplex.
    """
    if tensor is not None:
        return _tensor_matrix(zx, domain, codomain, letter_boundary, tensor)
    index = {w: i for i, w in enumerate(codomain)}
    m = SparseIntMatrix(len(codomain), len(domain))
    for j, w in enumerate(domain):
        column: dict[int | LoopWord, int] = {}  # by row, or by a word outside the codomain
        sign = 1  # (-1)^(degree of the letters before t)
        for k, t in enumerate(w.letters):
            front, back = w.letters[:k], w.letters[k + 1 :]
            for piece, c in letter_boundary(t):
                f = LoopWord(front + piece + back, w.start, w.end)
                i = index.get(f)
                if i is None:  # not a basis word, so not canonical
                    f = canonical(zx, f.letters, w.start)
                    i = index.get(f, f)
                column[i] = column.get(i, 0) + sign * c
            if t.dim % 2 == 0:  # t has odd degree
                sign = -sign
        for i, c in column.items():
            if c:
                if isinstance(i, LoopWord):
                    raise HomologyError(f"boundary term {i} of {w} is outside the codomain basis")
                m.entries[(i, j)] = c
    return m, domain, codomain


def _letter_terms(zx: SimplicialPresentation, variant: str, t: SimplexTerm) -> _LetterTerms:
    """d(t), from ``chains.boundary_word`` of the one-letter word."""
    lo, hi = zx.endpoints(t)
    one = boundary_word(zx, LoopWord((t,), lo, hi), variant)
    return [(f.letters, c) for f, c in one.items()]


def _tensor_matrix(
    zx: SimplicialPresentation,
    domain: list[LoopWord],
    codomain: list[LoopWord],
    letter_boundary: Callable[[SimplexTerm], _LetterTerms],
    tensor: TensorBases,
) -> tuple[SparseIntMatrix, list[LoopWord], list[LoopWord]]:
    """d_n on the prefix-major bases of ``tensor``, for the next n, from
    d(t.v) = d(t).v + (-1)^|t| t.d(v); it is appended to ``tensor.matrices``.

    The words t.v are the block of columns from ``offsets[n][i]`` on.  In
    it, the column of v in d_{n-|t|} comes back shifted by
    ``offsets[n-1][i]`` and signed, and a term p of d(t) puts its
    coefficient at row offset(p) + index(v), where offset(p) sums the
    offsets of p's letters, each in the degree the letters before it leave.
    """
    n = len(tensor.matrices)
    bases, offsets = tensor.bases, tensor.offsets
    if n >= len(bases) or domain != bases[n] or codomain != bases[n - 1]:
        raise HomologyError(f"the tensor bases assemble d_{n} next, from their B_{n} to B_{n - 1}")
    position = {t: i for i, t in enumerate(tensor.letters)}
    m = SparseIntMatrix(len(codomain), len(domain))
    entries = m.entries
    for i, t in enumerate(tensor.letters):
        k = t.dim - 1
        if k > n:
            continue
        start, size, shift = offsets[n][i], len(bases[n - k]), offsets[n - 1][i]
        sign = -1 if k % 2 else 1
        below = tensor.matrices[n - k].entries
        entries.update({(r + shift, c + start): sign * v for (r, c), v in below.items()})
        for piece, c in letter_boundary(t):
            # p.v starts with p's first letter, of degree below |t|, so it
            # meets no entry of t.d(v) and no other term.  Only the unit
            # word could, and d(t) never holds it: d of a degree-1 letter
            # is its deleting face minus its split face, and without edges
            # both are the unit.
            if not piece:
                raise HomologyError(f"d({t}) has a unit term on {zx.name}, which has no edges")
            row, left = 0, n - 1
            for s in piece:
                if s not in position:
                    raise HomologyError(f"boundary term {';'.join(map(str, piece))} of {t} "
                                        "is outside the codomain basis")
                row += offsets[left][position[s]]
                left -= s.dim - 1
            entries.update({(row + j, start + j): c for j in range(size)})
    tensor.matrices.append(m)
    return m, domain, codomain


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
    max_weight: int | None  # the weight the table was truncated at; None if exact
    groups: tuple[HomologyGroup, ...]
    # per degree n = 0..max_degree + 1: the size of the basis, and the
    # nonzero entries of d_n from it (d_0 = 0 has none)
    basis_sizes: tuple[int, ...]
    nonzeros: tuple[int, ...]


def chain_homology(
    name: str,
    sizes: Sequence[int],
    boundary: Callable[[int], SparseIntMatrix],
) -> HomologyTable:
    """H_0..H_{len(sizes)-2} of a chain complex of free abelian groups of
    finite rank, in a table with no weight label.

    ``sizes[n]`` is the rank of degree n, and ``boundary(n)`` returns the
    matrix of d_n from degree n to degree n - 1; it is called once for each
    n = 1..len(sizes)-1, in order.  A d_n whose shape is not (sizes[n-1],
    sizes[n]) is refused, and so is a consecutive pair that does not
    compose to zero, which also keeps every free rank >= 0 (the image of
    d_{n+1} lies in the kernel of d_n); each ``HomologyError`` names the
    complex by ``name``.  H_n has free rank sizes[n] - rank d_n -
    rank d_{n+1} and, as torsion, the invariant factors of d_{n+1} above 1.
    """
    snfs: list[tuple[int, ...]] = [()]  # d_0 = 0
    nonzeros = [0]
    prev = None
    for n in range(1, len(sizes)):
        m = boundary(n)
        if (m.rows, m.cols) != (sizes[n - 1], sizes[n]):
            raise HomologyError(f"d_{n} on {name} is {m.rows}x{m.cols}, not {sizes[n - 1]}x"
                                f"{sizes[n]} (the ranks of degrees {n - 1} and {n})")
        if prev is not None and not _composes_to_zero(prev, m):
            raise HomologyError(f"d_{n - 1} d_{n} is not zero on {name}")
        nonzeros.append(len(m.entries))
        snfs.append(smith_normal_form(m))
        prev = m
    groups = tuple(
        HomologyGroup(n, sizes[n] - len(snfs[n]) - len(snfs[n + 1]),
                      tuple(t for t in snfs[n + 1] if t > 1))
        for n in range(len(sizes) - 1)
    )
    return HomologyTable(None, groups, tuple(sizes), tuple(nonzeros))


def homology(
    zx: SimplicialPresentation,
    max_degree: int,
    variant: str,
    max_weight: int | None = None,
) -> HomologyTable:
    """H_0..H_max_degree of the loop-space complex, truncated at word
    weight ``max_weight`` on a complex with edges and exact without.

    The bases of degrees 0..max_degree+1 come from one ``tensor_bases``
    call on a complex without edges, and from one ``degree_bases`` call on
    one with edges.  ``chain_homology`` does the rest, taking each d_n from
    one call of ``boundary_matrix`` on the two bases it needs, so a caller
    that wraps that name sees every matrix.  The matrices share one cached
    function of letter boundaries, built for this call, so d of each
    letter is computed once per call.
    """
    if max_degree < 0:
        raise HomologyError("max_degree must be non-negative")
    top = max_degree + 1
    if zx.generators_of_dim(1):
        tensor, bases = None, degree_bases(zx, top, variant, max_weight)
    else:
        tensor = tensor_bases(zx, top, variant)
        bases = tensor.bases
    letter_boundary = cache(partial(_letter_terms, zx, variant))

    def d(n: int) -> SparseIntMatrix:
        return boundary_matrix(zx, bases[n], bases[n - 1], letter_boundary, tensor)[0]

    table = chain_homology(zx.name, [len(b) for b in bases], d)
    return replace(table, max_weight=_weight_bound(zx, max_weight))


def field_dimensions(table: HomologyTable, p: int | None) -> dict[int, int]:
    """Dimensions of the homology over GF(p), read off from the integral
    table by universal coefficients: a torsion factor of H_n divisible by p
    contributes to the group in its own degree and the one above
    (Tor(H_n, F_p) lands in degree n + 1).  With p None they are the free
    ranks, the dimensions over Q."""
    dims = {g.degree: g.free_rank for g in table.groups}
    if p is not None:
        torsion_p = {
            g.degree: sum(1 for t in g.torsion if t % p == 0) for g in table.groups
        }
        for n in dims:
            dims[n] += torsion_p.get(n, 0) + torsion_p.get(n - 1, 0)
    return dims
