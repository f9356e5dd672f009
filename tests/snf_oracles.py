"""Independent checks of Smith normal form that share no code path with
the library routine.

``minors_gcd_invariants`` is the definition by gcds of k x k minors; it
never performs an elementary operation and is slow, so it serves small
matrices.  ``rank`` over Q or GF(p) checks larger ones: the rank over Q is
the number of invariant factors, and the rank over GF(p) is the number of
them that p does not divide.
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
