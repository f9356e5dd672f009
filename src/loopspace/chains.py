"""Chain complexes built on canonical loop words.

The free complex on canonical words supports two quotients: ``de`` kills
the tower of degeneracies of the empty word (single vertex-collapse
letters of positive degree), and ``normalized`` kills every degenerate
word.  The boundary of a word is the signed sum over its coordinates of
the deleting face minus the splitting face; concatenation of words makes
each quotient a ring, with the boundary a derivation for the usual sign.

Chains have integer coefficients, as the paper's C_*(Omega-hat X) is a
dga over Z.  Other coefficients come from it by a change of rings: the
boundary has integer coefficients and Z -> R is a ring map, so the CLI's
``--coeff`` ring is applied once, to a finished chain (``Ring.coerce``),
and ``homology.field_dimensions`` reads field homology off the integral
table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .simplicial import SimplicialPresentation
from .words import LoopWord, compose, word_face

VARIANTS = ("de", "normalized")


class ChainError(ValueError):
    pass


@dataclass(frozen=True)
class Ring:
    """Z, Q, or GF(p): a target of the change of rings from integral chains."""

    name: str
    p: int | None = None

    @staticmethod
    def integers() -> "Ring":
        return Ring("Z")

    @staticmethod
    def rationals() -> "Ring":
        return Ring("Q")

    @staticmethod
    def prime_field(p: int) -> "Ring":
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise ChainError(f"{p} is not prime")
        return Ring(f"GF({p})", p)

    def coerce(self, a: int) -> int:
        """The image of an integer; Q holds it as the integer itself, since
        d is integral and no coefficient ever needs a denominator."""
        if self.p is not None:
            return int(a) % self.p
        return int(a)


Chain = dict  # LoopWord (or cobar monomial) -> nonzero int


def is_killed(w: LoopWord, variant: str) -> bool:
    """Whether a canonical word is zero in the given quotient.

    ``normalized`` kills every degenerate word.  ``de`` kills the ideal
    generated by the degeneracies of the unit word: products u.z.v with z a
    positive-degree degeneracy of the unit.  In the canonical form these
    are exactly the words carrying a free duplicate at a junction or end
    position -- an extra copy of some letter's first vertex or of the last
    letter's last vertex, or a lone vertex-collapse letter.  (Duplicates of
    a letter's interior vertices are not of this form and survive.)
    Killing only the lone vertex-collapse words would not give an ideal:
    multiplying one into a word dissolves it into free duplicates on its
    neighbour, so the boundary would not be a derivation.
    """
    if variant not in VARIANTS:
        raise ChainError(f"unknown variant {variant!r}")
    if w.degree == 0:
        return False
    if variant == "normalized":
        return w.has_degenerate_letter()
    # a vertex-collapse letter's one vertex is its first, with >= 2 copies
    return w.letters[-1].mult[-1] > 1 or any(t.mult[0] > 1 for t in w.letters)


def chain_of(w: LoopWord) -> Chain:
    return {w: 1}


def add_into(acc: Chain, w, coeff: int) -> None:
    c = acc.get(w, 0) + coeff
    if c:
        acc[w] = c
    else:
        acc.pop(w, None)


def chain_sum(*chains: Chain) -> Chain:
    acc: Chain = {}
    for ch in chains:
        for w, c in ch.items():
            add_into(acc, w, c)
    return acc


def chain_scale(ch: Chain, scalar: int) -> Chain:
    return {w: c * scalar for w, c in ch.items()} if scalar else {}


def boundary_word(zx: SimplicialPresentation, w: LoopWord, variant: str = "de") -> Chain:
    """d(w) = sum over coordinates i of (-1)^i (deleting face - split face)."""
    acc: Chain = {}
    sign = 1
    for i in range(1, w.degree + 1):
        sign = -sign  # (-1)^i
        for eps, s in ((1, sign), (0, -sign)):
            f = word_face(zx, w, i, eps)
            if not is_killed(f, variant):
                add_into(acc, f, s)
    return acc


def boundary_chain(zx: SimplicialPresentation, ch: Chain, variant: str = "de") -> Chain:
    acc: Chain = {}
    for w, c in ch.items():
        for f, s in boundary_word(zx, w, variant).items():
            add_into(acc, f, c * s)
    return acc


def multiply(zx: SimplicialPresentation, a: Chain, b: Chain, variant: str = "de") -> Chain:
    """Concatenation product of chains (no internal sign)."""
    acc: Chain = {}
    for u, cu in a.items():
        for v, cv in b.items():
            w = compose(zx, u, v)
            if not is_killed(w, variant):
                add_into(acc, w, cu * cv)
    return acc


def leibniz_defect(
    zx: SimplicialPresentation, u: LoopWord, v: LoopWord, variant: str = "de"
) -> Chain:
    """d(uv) - d(u)v - (-1)^{deg u} u d(v); zero when the product is a
    dg algebra on the given elements."""
    lhs = boundary_chain(zx, multiply(zx, chain_of(u), chain_of(v), variant), variant)
    du_v = multiply(zx, boundary_word(zx, u, variant), chain_of(v), variant)
    u_dv = multiply(zx, chain_of(u), boundary_word(zx, v, variant), variant)
    sgn = 1 if u.degree % 2 == 0 else -1
    return chain_sum(lhs, chain_scale(du_v, -1), chain_scale(u_dv, -sgn))
