"""Chain complexes built on canonical loop words.

The free complex on canonical words supports two quotients: ``de`` kills
the tower of degeneracies of the empty word (single vertex-collapse
letters of positive degree), and ``normalized`` kills every degenerate
word.  The boundary of a word is the signed sum over its coordinates of
the deleting face minus the splitting face; concatenation of words makes
each quotient a ring, with the boundary a derivation for the usual sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .simplicial import SimplicialPresentation
from .words import LoopWord, compose, word_face

VARIANTS = ("de", "normalized")


class ChainError(ValueError):
    pass


@dataclass(frozen=True)
class Ring:
    """Z, Q, or GF(p)."""

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

    def coerce(self, a):
        if self.p is not None:
            return int(a) % self.p
        if self.name == "Q":
            return Fraction(a)
        return int(a)

    def add(self, a, b):
        c = a + b
        return c % self.p if self.p is not None else c

    def mul(self, a, b):
        c = a * b
        return c % self.p if self.p is not None else c


Chain = dict  # LoopWord -> coefficient


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


def chain_of(ring: Ring, w: LoopWord, coeff=1) -> Chain:
    c = ring.coerce(coeff)
    return {w: c} if c else {}


def add_into(ring: Ring, acc: Chain, w: LoopWord, coeff) -> None:
    c = ring.add(acc.get(w, ring.coerce(0)), coeff)
    if c:
        acc[w] = c
    else:
        acc.pop(w, None)


def chain_sum(ring: Ring, *chains: Chain) -> Chain:
    acc: Chain = {}
    for ch in chains:
        for w, c in ch.items():
            add_into(ring, acc, w, c)
    return acc


def chain_scale(ring: Ring, ch: Chain, scalar) -> Chain:
    s = ring.coerce(scalar)
    out: Chain = {}
    for w, c in ch.items():
        sc = ring.mul(c, s)
        if sc:
            out[w] = sc
    return out


def boundary_word(
    zx: SimplicialPresentation, ring: Ring, w: LoopWord, variant: str = "de"
) -> Chain:
    """d(w) = sum over coordinates i of (-1)^i (deleting face - split face)."""
    acc: Chain = {}
    sign = 1
    for i in range(1, w.degree + 1):
        sign = -sign  # (-1)^i
        for eps, s in ((1, sign), (0, -sign)):
            f = word_face(zx, w, i, eps)
            if not is_killed(f, variant):
                add_into(ring, acc, f, ring.coerce(s))
    return acc


def boundary_chain(
    zx: SimplicialPresentation, ring: Ring, ch: Chain, variant: str = "de"
) -> Chain:
    acc: Chain = {}
    for w, c in ch.items():
        for f, s in boundary_word(zx, ring, w, variant).items():
            add_into(ring, acc, f, ring.mul(c, s))
    return acc


def multiply(
    zx: SimplicialPresentation, ring: Ring, a: Chain, b: Chain, variant: str = "de"
) -> Chain:
    """Concatenation product of chains (no internal sign)."""
    acc: Chain = {}
    for u, cu in a.items():
        for v, cv in b.items():
            w = compose(zx, u, v)
            if not is_killed(w, variant):
                add_into(ring, acc, w, ring.mul(cu, cv))
    return acc


def leibniz_defect(
    zx: SimplicialPresentation, ring: Ring, u: LoopWord, v: LoopWord, variant: str = "de"
) -> Chain:
    """d(uv) - d(u)v - (-1)^{deg u} u d(v); zero when the product is a
    dg algebra on the given elements."""
    uv = multiply(zx, ring, chain_of(ring, u), chain_of(ring, v), variant)
    lhs = boundary_chain(zx, ring, uv, variant)
    du_v = multiply(zx, ring, boundary_word(zx, ring, u, variant), chain_of(ring, v), variant)
    sgn = 1 if u.degree % 2 == 0 else -1
    u_dv = chain_scale(
        ring,
        multiply(zx, ring, chain_of(ring, u), boundary_word(zx, ring, v, variant), variant),
        sgn,
    )
    return chain_sum(ring, lhs, chain_scale(ring, du_v, -1), chain_scale(ring, u_dv, -1))
