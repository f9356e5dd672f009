"""The cobar-side construction of the loop-space algebra, and its comparator.

This module rebuilds the dg algebra from the coalgebra of the
edge-inverted presentation: the truncated differential keeps only the
interior faces, the reduced diagonal is the Alexander-Whitney splitting
without its primitive terms, and monomials are composable sequences of
letters between basepoints, modulo cancellation of adjacent inverse edge
pairs.  Letters that are positive-degree degeneracies of a vertex vanish
(all degenerate letters, in the normalized variant).  The comparator
translates monomials to loop words letterwise and checks that the two
differentials agree -- the central cross-implementation oracle for the
sign system.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import VARIANTS, Chain, Ring, add_into, boundary_word, is_killed
from .cubes import _bead_normal_form
from .simplicial import SimplexTerm, SimplicialPresentation, _inverse_pair, _split
from .words import canonical, enumerate_words, unit


class CobarError(ValueError):
    pass


def letter_is_zero(t: SimplexTerm, variant: str) -> bool:
    """Whether a letter vanishes in the truncated coalgebra."""
    if variant not in VARIANTS:
        raise CobarError(f"unknown variant {variant!r}")
    if variant == "normalized":
        return not t.is_nondegenerate
    return t.generator.dim == 0 and not t.is_nondegenerate


@dataclass(frozen=True, order=True)
class CobarMonomial:
    letters: tuple[SimplexTerm, ...]

    @property
    def degree(self) -> int:
        return sum(t.dim - 1 for t in self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return "[" + "|".join(str(t) for t in self.letters) + "]"


def hat_reduce(
    zx: SimplicialPresentation, letters: tuple[SimplexTerm, ...]
) -> tuple[SimplexTerm, ...]:
    """Cancel adjacent inverse edge pairs until none remain: the bead normal
    form of letters taken whole as cores, with no duplicates to pool, where
    a degenerate edge is a letter of positive degree and cancels nothing."""
    beads, _ = _bead_normal_form(
        ((t, [1, 1]) for t in letters), 0,
        lambda a, b: a.is_nondegenerate and b.is_nondegenerate and _inverse_pair(zx, a, b),
    )
    return tuple(t for t, _ in beads)


def monomial(
    zx: SimplicialPresentation, letters: tuple[SimplexTerm, ...], variant: str = "de"
) -> CobarMonomial | None:
    """Hat-reduced monomial, or None if a letter vanishes."""
    if any(letter_is_zero(t, variant) for t in letters):
        return None
    return CobarMonomial(hat_reduce(zx, letters))


def d_A(
    zx: SimplicialPresentation, t: SimplexTerm, variant: str = "de"
) -> dict[SimplexTerm, int]:
    """Truncated differential: the alternating interior-face sum."""
    acc: dict[SimplexTerm, int] = {}
    sign = 1
    for i in range(1, t.dim):
        sign = -sign  # (-1)^i
        f = zx.face(t, i)
        if letter_is_zero(f, variant):
            continue
        c = acc.get(f, 0) + sign
        if c:
            acc[f] = c
        else:
            del acc[f]
    return acc


def aw_reduced(
    zx: SimplicialPresentation, t: SimplexTerm
) -> list[tuple[SimplexTerm, SimplexTerm]]:
    """Front/back splittings without the two primitive terms."""
    return [_split(zx, t, i) for i in range(1, t.dim)]


def cobar_boundary(
    zx: SimplicialPresentation, ring: Ring, m: CobarMonomial, variant: str = "de"
) -> Chain:
    """Derivation extension of d1 + d2 with Koszul signs in desuspended
    degrees: d1[a-bar] = -[d_A(a)-bar] and d2[a-bar] = sum over reduced
    splittings a' (x) a'' of (-1)^{|a'|} [a'-bar | a''-bar]."""
    acc: Chain = {}
    koszul = 1
    for k, t in enumerate(m.letters):
        rest = m.letters[:k], m.letters[k + 1 :]

        def emit(repl: tuple[SimplexTerm, ...], coeff: int) -> None:
            mono = monomial(zx, rest[0] + repl + rest[1], variant)
            if mono is not None:
                add_into(ring, acc, mono, ring.coerce(coeff))

        for f, c in d_A(zx, t, variant).items():
            emit((f,), -koszul * c)
        for front, back in aw_reduced(zx, t):
            if letter_is_zero(front, variant) or letter_is_zero(back, variant):
                continue
            split_sign = -1 if front.dim % 2 else 1  # (-1)^{|a'|}
            emit((front, back), koszul * split_sign)
        if (t.dim - 1) % 2:
            koszul = -koszul
    return acc


# -- the comparator ---------------------------------------------------------


def monomial_to_word_chain(
    zx: SimplicialPresentation, ring: Ring, ch: Chain, variant: str = "de"
) -> Chain:
    """Reinterpret each monomial as a loop word (canonical form), dropping
    words killed by the chain-side quotient."""
    acc: Chain = {}
    for m, c in ch.items():
        if m.letters:
            w = canonical(zx, m.letters)
        else:
            w = unit(zx.basepoint)
        if not is_killed(w, variant):
            add_into(ring, acc, w, c)
    return acc


def compare_theorem2(
    zx: SimplicialPresentation,
    max_degree: int,
    max_length: int,
    variant: str = "de",
    ring: Ring | None = None,
) -> dict[str, object]:
    """For every generator word within the bounds, compare its word-model
    boundary with the translated cobar boundary of its monomial.  Under the
    letterwise identification the two differentials are negatives of each
    other (the desuspension sign), uniformly in degree; the comparison
    accounts for that.  An empty mismatch list means the two realizations
    agree."""
    ring = ring or Ring.integers()
    mismatches = []
    checked = 0
    base = zx.basepoint
    for degree in range(1, max_degree + 1):
        for w in enumerate_words(zx, degree, max_length, base, base):
            if is_killed(w, variant):
                continue
            m = monomial(zx, w.letters, variant)
            if m is None or m.letters != w.letters:
                continue  # not a generator on the cobar side
            checked += 1
            chain_side = boundary_word(zx, ring, w, variant)
            cobar_side = monomial_to_word_chain(
                zx, ring, cobar_boundary(zx, ring, m, variant), variant
            )
            diff = dict(chain_side)
            for f, c in cobar_side.items():
                add_into(ring, diff, f, c)  # expect cobar = -chain
            if diff:
                mismatches.append(
                    (str(w), {str(f): c for f, c in sorted(diff.items(), key=lambda kv: str(kv[0]))})
                )
    return {
        "complex": zx.name,
        "variant": variant,
        "max_degree": max_degree,
        "max_length": max_length,
        "checked": checked,
        "mismatches": mismatches,
        "ok": not mismatches,
    }


# -- extended presentation for single-vertex complexes ----------------------


@dataclass(frozen=True, order=True)
class GroupRingLetter:
    """A reduced word in the free group on the nondegenerate 1-generators."""

    word: tuple[str, ...]

    def __str__(self) -> str:
        return "<" + (".".join(self.word) or "1") + ">"


def group_ring_letter(zx: SimplicialPresentation, names: tuple[str, ...]) -> GroupRingLetter:
    out: list[str] = []
    for n in names:
        if n not in zx.op_pairs:
            raise CobarError(f"{n!r} is not an invertible edge")
        if out and zx.op_pairs[out[-1]] == n:
            out.pop()
        else:
            out.append(n)
    return GroupRingLetter(tuple(out))


@dataclass(frozen=True, order=True)
class ExtendedMonomial:
    """Alternating sequence of group-ring letters and higher letters.

    slots holds 2k+1 entries for k higher letters: group elements in the
    even positions, simplices of dimension >= 2 in the odd ones; maximal
    runs of degree-0 letters are merged, and an identity group letter is
    the unit of the algebra.
    """

    slots: tuple[object, ...]

    @property
    def degree(self) -> int:
        return sum(t.dim - 1 for t in self.slots[1::2])

    def __str__(self) -> str:
        return "[" + "|".join(str(s) for s in self.slots) + "]"


def extend_monomial(zx: SimplicialPresentation, m: CobarMonomial) -> ExtendedMonomial:
    """Merge maximal runs of edge letters into group-ring letters."""
    if len(zx.generators_of_dim(0)) != 1:
        raise CobarError("extended presentation needs a single-vertex complex")
    slots: list[object] = []
    run: list[str] = []
    for t in m.letters:
        if t.dim == 1 and t.is_nondegenerate:
            run.append(t.generator.name)
        else:
            slots.append(group_ring_letter(zx, tuple(run)))
            run = []
            slots.append(t)
    slots.append(group_ring_letter(zx, tuple(run)))
    return ExtendedMonomial(tuple(slots))


def extended_boundary(
    zx: SimplicialPresentation, ring: Ring, m: CobarMonomial, variant: str = "de"
) -> dict[ExtendedMonomial, object]:
    """Boundary in the merged basis, induced from the cobar boundary."""
    acc: dict[ExtendedMonomial, object] = {}
    for mono, c in cobar_boundary(zx, ring, m, variant).items():
        add_into(ring, acc, extend_monomial(zx, mono), c)
    return acc
