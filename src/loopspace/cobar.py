"""The cobar-side construction of the loop-space algebra, and its comparator.

This module rebuilds the dg algebra from the coalgebra of the
edge-inverted presentation: the truncated differential keeps only the
interior faces, the reduced diagonal is the Alexander-Whitney splitting
without its primitive terms, and monomials are composable sequences of
letters between basepoints, modulo cancellation of adjacent inverse edge
pairs (``hat_reduce``, a stack of whole letters; the word model's bead
normal form lives in ``words``).  A monomial is held as its hat-reduced
tuple of letters.  A letter s_0 x on a vertex is the unit, as in the word
model; higher degeneracies of a vertex vanish, and in the normalized
variant every other degenerate letter too.  The comparator translates
monomials to loop words letterwise and checks that the two differentials
agree -- the central cross-implementation oracle for the sign system.
"""

from __future__ import annotations

from .chains import VARIANTS, Chain, add_into, boundary_word, is_killed
from .simplicial import SimplexTerm, SimplicialPresentation, _split
from .words import canonical, enumerate_words, unit


class CobarError(ValueError):
    pass


def letter_is_zero(t: SimplexTerm, variant: str) -> bool:
    """Whether a letter vanishes in the truncated coalgebra (s_0 x, the unit, does not)."""
    if variant not in VARIANTS:
        raise CobarError(f"unknown variant {variant!r}")
    if t.generator.dim == 0:
        return t.dim > 1
    return variant == "normalized" and not t.is_nondegenerate


def hat_reduce(
    zx: SimplicialPresentation, letters: tuple[SimplexTerm, ...]
) -> tuple[SimplexTerm, ...]:
    """Cancel adjacent inverse edge pairs until none remain.  Letters are
    taken whole, and a degenerate edge is a letter of positive degree that
    cancels nothing, so it stays between the letters on either side."""
    out: list[SimplexTerm] = []
    for t in letters:
        if (out and zx.op_pairs.get(out[-1].generator.name) == t.generator.name
                and t.is_nondegenerate and out[-1].is_nondegenerate):
            out.pop()
        else:
            out.append(t)
    return tuple(out)


def monomial(zx: SimplicialPresentation, letters: tuple[SimplexTerm, ...]) -> tuple[SimplexTerm, ...]:
    """The monomial of letters none of which vanishes: their hat-reduced
    tuple, unit letters dropped (a letter on a vertex that does not vanish
    is a unit s_0 x)."""
    return hat_reduce(zx, tuple(t for t in letters if t.generator.dim))


def d_A(zx: SimplicialPresentation, t: SimplexTerm, variant: str) -> dict[SimplexTerm, int]:
    """Truncated differential: the alternating interior-face sum."""
    acc: dict[SimplexTerm, int] = {}
    sign = 1
    for i in range(1, t.dim):
        sign = -sign  # (-1)^i
        f = zx.face(t, i)
        if not letter_is_zero(f, variant):
            add_into(acc, f, sign)
    return acc


def aw_reduced(
    zx: SimplicialPresentation, t: SimplexTerm
) -> list[tuple[SimplexTerm, SimplexTerm]]:
    """Front/back splittings without the two primitive terms."""
    return [_split(zx, t, i) for i in range(1, t.dim)]


def cobar_boundary(
    zx: SimplicialPresentation, m: tuple[SimplexTerm, ...], variant: str
) -> Chain:
    """Derivation extension of d1 + d2 with Koszul signs in desuspended
    degrees: d1[a-bar] = -[d_A(a)-bar] and d2[a-bar] = sum over reduced
    splittings a' (x) a'' of (-1)^{|a'|} [a'-bar | a''-bar].  No letter of
    the monomial m vanishes, and the terms of d_A and the splittings that
    replace a letter are taken without the vanishing ones."""
    acc: Chain = {}
    koszul = 1
    for k, t in enumerate(m):
        rest = m[:k], m[k + 1 :]

        def emit(repl: tuple[SimplexTerm, ...], coeff: int) -> None:
            add_into(acc, monomial(zx, rest[0] + repl + rest[1]), coeff)

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


def monomial_to_word_chain(zx: SimplicialPresentation, ch: Chain, variant: str) -> Chain:
    """Reinterpret each monomial as a loop word (canonical form), dropping
    words killed by the chain-side quotient."""
    acc: Chain = {}
    for m, c in ch.items():
        if m:
            w = canonical(zx, m)
        else:
            w = unit(zx.basepoint)
        if not is_killed(w, variant):
            add_into(acc, w, c)
    return acc


def compare_theorem2(
    zx: SimplicialPresentation, max_degree: int, max_length: int, variant: str
) -> dict[str, object]:
    """For every generator word within the bounds, compare its word-model
    boundary with the translated cobar boundary of its monomial.  Under the
    letterwise identification the two differentials are negatives of each
    other (the desuspension sign), uniformly in degree; the comparison
    accounts for that.  Both sides are integral chains, so agreement over Z
    gives agreement over every coefficient ring.  An empty mismatch list
    means the two realizations agree.

    The words are those ``enumerate_words`` lists: reduced, with
    nondegenerate letters.  So no variant kills one, and each is its own
    hat-reduced cobar monomial."""
    mismatches = []
    checked = 0
    base = zx.basepoint
    for degree in range(1, max_degree + 1):
        for w in enumerate_words(zx, degree, max_length, base, base):
            checked += 1
            chain_side = boundary_word(zx, w, variant)
            cobar = cobar_boundary(zx, w.letters, variant)
            cobar_side = monomial_to_word_chain(zx, cobar, variant)
            diff = dict(chain_side)
            for f, c in cobar_side.items():
                add_into(diff, f, c)  # expect cobar = -chain
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
