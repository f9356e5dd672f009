"""Independent checks of Smith normal form that share no code path with
the library routine.

``minors_gcd_invariants`` is the definition by gcds of k x k minors; it
never performs an elementary operation and is slow, so it serves small
matrices.  ``rank`` over Q or GF(p) checks larger ones: the rank over Q is
the number of invariant factors, and the rank over GF(p) is the number of
them that p does not divide.  ``dense_smith_normal_form`` is a dense
reduction modulo a multiple of a full-rank minor, the reference for every
factor list of the sparse elimination.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd


def _det(rows):
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    k = len(a)
    sign, prev = 1, 1
    for t in range(k - 1):
        if a[t][t] == 0:
            swap = next((i for i in range(t + 1, k) if a[i][t]), None)
            if swap is None:
                return 0
            a[t], a[swap] = a[swap], a[t]
            sign = -sign
        for i in range(t + 1, k):
            for j in range(t + 1, k):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
    return sign * a[-1][-1]


def minors_gcd_invariants(rows):
    m, n = len(rows), len(rows[0]) if rows else 0
    dks = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                g = gcd(g, _det([[rows[i][j] for j in cs] for i in rs]))
        if g == 0:
            break
        dks.append(g)
    return tuple(dks[k] // dks[k - 1] for k in range(1, len(dks)))


def rank(rows, p=None):
    """Rank over Q (p None) or over GF(p), by Gauss-Jordan elimination."""
    if p is None:
        a = [[Fraction(v) for v in r] for r in rows]
    else:
        a = [[v % p for v in r] for r in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c] if p is None else pow(a[r][c], -1, p)
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
                if p is not None:
                    a[i] = [x % p for x in a[i]]
        r += 1
    return r


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


def dense_smith_normal_form(m: list[list[int]]) -> tuple[int, ...]:
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
