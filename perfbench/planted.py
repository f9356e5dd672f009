"""Seeded integer matrices with planted Smith normal forms.

A matrix is built as U.D.V: D carries a planted divisibility chain on its
diagonal (mostly 1s, a few of 2, 6, 12 and 60, the rest zero so the matrix
is rank-deficient), and U, V are products of random row/column
permutations and signed unit row/column additions, which are unimodular.
The invariant factors of the result are therefore exactly the planted
diagonal.  The mixing is sparse, so the result looks like the boundary
matrices of the loop model: mostly +-1 entries, a few per column.
"""

from __future__ import annotations

import itertools
import random
from math import gcd

CHAIN = (2, 6, 12, 60)


def planted_factors(rank: int, extra: int) -> tuple[int, ...]:
    """Divisibility chain of the given rank: 1s, then ``extra`` entries
    taken in turn from 2 | 6 | 12 | 60."""
    tail = [CHAIN[k * len(CHAIN) // extra] for k in range(extra)] if extra else []
    return (1,) * (rank - extra) + tuple(tail)


def planted_matrix(
    rows: int, cols: int, factors: tuple[int, ...], mixes: int, rng: random.Random
) -> list[list[int]]:
    """A rows x cols integer matrix whose invariant factors are ``factors``."""
    if len(factors) > min(rows, cols):
        raise ValueError("more factors than the matrix has room for")
    m = [[0] * cols for _ in range(rows)]
    for k, f in enumerate(factors):
        m[k][k] = f
    rng.shuffle(m)
    colperm = list(range(cols))
    rng.shuffle(colperm)
    m = [[row[c] for c in colperm] for row in m]
    for _ in range(mixes):
        sign = rng.choice((1, -1))
        if rows >= 2 and (cols < 2 or rng.random() < 0.5):
            i, j = rng.sample(range(rows), 2)
            ri, rj = m[i], m[j]
            for c in range(cols):
                if rj[c]:
                    ri[c] += sign * rj[c]
        elif cols >= 2:
            i, j = rng.sample(range(cols), 2)
            for row in m:
                if row[j]:
                    row[i] += sign * row[j]
    return m


# -- independent oracle for small matrices -----------------------------------


def _det(m: list[list[int]]) -> int:
    """Determinant by cofactor expansion along the first row (exact)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j, a in enumerate(m[0]):
        if a:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * a * _det(minor)
    return total


def minors_gcd_factors(m: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors from determinantal divisors: d_k = D_k / D_{k-1},
    where D_k is the gcd of all k x k minors.  Exponential; for matrices up
    to about 5 x 5."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    out: list[int] = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                g = gcd(g, _det([[m[r][c] for c in cs] for r in rs]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def small_cases(seed: int, count: int = 60) -> list[tuple[list[list[int]], tuple[int, ...]]]:
    """Seeded planted matrices up to 5 x 5 with their planted factors, small
    enough for ``minors_gcd_factors``."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        rank = rng.randint(0, min(rows, cols))
        factors = planted_factors(rank, rng.randint(0, rank))
        cases.append((planted_matrix(rows, cols, factors, rng.randint(0, 12), rng), factors))
    return cases
