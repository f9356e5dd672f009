import random
from math import gcd

import pytest

from loopspace.chains import Ring, is_killed
from loopspace.homology import (
    HomologyError,
    SparseIntMatrix,
    boundary_matrix,
    degree_bases,
    degree_basis,
    field_dimensions,
    homology,
    smith_normal_form,
    stabilized_homology,
)
from loopspace.words import canonical, degeneracy_slots, enumerate_words, word_degeneracy


def closure_basis(zx, degree, variant, max_length):
    """Basis of one degree built from scratch: every E_d (d <= degree)
    closed under degree - d rounds of degeneracies (reference for the
    one-pass tower of ``degree_bases``)."""
    base = zx.basepoint
    if variant == "normalized":
        return enumerate_words(zx, degree, max_length, base, base)
    seen = set()
    for d in range(degree + 1):
        layer = set(enumerate_words(zx, d, max_length, base, base))
        for _ in range(degree - d):
            nxt = set()
            for w in layer:
                for j in range(1, degeneracy_slots(w) + 1):
                    raw = word_degeneracy(zx, w, j)
                    nxt.add(canonical(zx, raw.letters, raw.start))
            layer = nxt
        seen.update(layer)
    out = [w for w in seen if w.degree == degree and not is_killed(w, variant)]
    out.sort(key=lambda w: (len(w.letters), w.letters))
    return out


def minors_gcd_invariants(rows):
    """Invariant factors via gcds of k x k minors (slow oracle)."""
    from itertools import combinations

    m, n = len(rows), len(rows[0]) if rows else 0

    def det(rs, cs):
        sub = [[rows[i][j] for j in cs] for i in rs]
        k = len(sub)
        if k == 0:
            return 1
        if k == 1:
            return sub[0][0]
        total = 0
        for j in range(k):
            minor = [r[:j] + r[j + 1:] for r in sub[1:]]
            sgn = -1 if j % 2 else 1
            total += sgn * sub[0][j] * _det(minor)
        return total

    def _det(sub):
        k = len(sub)
        if k == 1:
            return sub[0][0]
        total = 0
        for j in range(k):
            minor = [r[:j] + r[j + 1:] for r in sub[1:]]
            sgn = -1 if j % 2 else 1
            total += sgn * sub[0][j] * _det(minor)
        return total

    dks = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                g = gcd(g, det(rs, cs))
        if g == 0:
            break
        dks.append(g)
    return tuple(dks[k] // dks[k - 1] for k in range(1, len(dks)))


class TestSmithNormalForm:
    def test_known_matrix(self):
        assert smith_normal_form([[2, 4], [6, 8]]) == (2, 4)
        assert smith_normal_form([[1, 0], [0, 1]]) == (1, 1)
        assert smith_normal_form([[0, 0], [0, 0]]) == ()

    def test_divisibility_chain(self):
        rng = random.Random(17)
        for _ in range(100):
            rows = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
                    for _ in range(rng.randint(1, 5))]
            rows = [r[: len(rows[0])] for r in rows]
            width = min(len(r) for r in rows)
            rows = [r[:width] for r in rows]
            inv = smith_normal_form(rows)
            for a, b in zip(inv, inv[1:]):
                assert b % a == 0

    def test_against_minors_oracle(self):
        rng = random.Random(23)
        for _ in range(60):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
            assert smith_normal_form(rows) == minors_gcd_invariants(rows)

    def test_sparse_input(self):
        m = SparseIntMatrix(2, 2)
        m.set(0, 0, 2)
        m.set(1, 1, 3)
        assert smith_normal_form(m) == (1, 6)


class TestBases:
    def test_normalized_degree0_is_group_ball(self, fixtures):
        zx = fixtures["wedge2"]
        assert len(degree_basis(zx, 0, "normalized", 2)) == 1 + 4 + 12

    def test_de_basis_contains_normalized(self, fixtures):
        zx = fixtures["sphere2"]
        for degree in (2, 3):
            norm = set(degree_basis(zx, degree, "normalized", 3))
            de = set(degree_basis(zx, degree, "de", 3))
            assert norm <= de

    @pytest.mark.parametrize("variant", ["de", "normalized"])
    @pytest.mark.parametrize("name, top, max_length", [
        ("sphere2", 6, None),
        ("sphere3", 7, None),
        ("bd2", 3, 3),
        ("bd3", 3, 3),
    ])
    def test_tower_matches_closure_oracle(self, fixtures, name, top, max_length, variant):
        zx = fixtures[name]
        tower = degree_bases(zx, top, variant, max_length)
        assert len(tower) == top + 1
        for d, basis in enumerate(tower):
            assert basis == closure_basis(zx, d, variant, max_length), (name, d)
        assert degree_basis(zx, top, variant, max_length) == tower[top]

    @pytest.mark.parametrize("variant", ["de", "normalized"])
    def test_boundary_matrix_with_given_bases(self, fixtures, variant):
        zx = fixtures["bd3"]
        tower = degree_bases(zx, 3, variant, 3)
        for n in (1, 2, 3):
            own = boundary_matrix(zx, n, variant, 3)
            given = boundary_matrix(zx, n, variant, 3, bases=(tower[n], tower[n - 1]))
            assert own[0] == given[0]
            assert own[1:] == given[1:] == (tower[n], tower[n - 1])

    def test_boundary_matrix_shapes(self, fixtures):
        zx = fixtures["sphere2"]
        m, dom, cod = boundary_matrix(zx, 2, "normalized", 3)
        assert (m.rows, m.cols) == (len(cod), len(dom))
        with pytest.raises(HomologyError):
            boundary_matrix(zx, 0)


class TestLoopHomology:
    def test_sphere2(self, fixtures):
        # based loops on S^2: H_n = Z for every n
        table = homology(fixtures["sphere2"], 4, "normalized", 5)
        for g in table.groups:
            assert (g.free_rank, g.torsion) == (1, ()), g

    def test_sphere2_de_variant_agrees(self, fixtures):
        de = homology(fixtures["sphere2"], 3, "de", 4)
        norm = homology(fixtures["sphere2"], 3, "normalized", 4)
        assert de.groups == norm.groups

    def test_sphere3(self, fixtures):
        # based loops on S^3: Z in even degrees, 0 in odd
        table = homology(fixtures["sphere3"], 5, "normalized", 3)
        for g in table.groups:
            want = 1 if g.degree % 2 == 0 else 0
            assert (g.free_rank, g.torsion) == (want, ()), g

    def test_wedge_is_discrete_free_group(self, fixtures):
        # loops on a wedge of circles: H_0 counts the truncated group ball,
        # higher homology vanishes
        table = homology(fixtures["wedge2"], 2, "normalized", 3)
        assert table.groups[0].free_rank == 1 + 4 + 12 + 36
        for g in table.groups[1:]:
            assert (g.free_rank, g.torsion) == (0, ())

    def test_negative_rank_raises(self, fixtures):
        with pytest.raises(HomologyError, match=r"H_1 .*-4.*bound 5"):
            homology(fixtures["bd3"], 2, "normalized", 5)

    def test_stabilization(self, fixtures):
        table = stabilized_homology(fixtures["sphere2"], 2, "normalized", 2, 6)
        assert table.stabilized
        assert [g.free_rank for g in table.groups] == [1, 1, 1]


class TestFieldCoefficients:
    def test_free_part_only(self, fixtures):
        table = homology(fixtures["sphere2"], 3, "normalized", 4)
        dims = field_dimensions(table, Ring.rationals())
        assert dims == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_torsion_counts_twice(self):
        from loopspace.homology import HomologyGroup, HomologyTable

        table = HomologyTable("t", "normalized", None, (
            HomologyGroup(0, 1, ()),
            HomologyGroup(1, 0, (2,)),
            HomologyGroup(2, 0, ()),
        ))
        assert field_dimensions(table, Ring.prime_field(2)) == {0: 1, 1: 1, 2: 1}
        assert field_dimensions(table, Ring.prime_field(3)) == {0: 1, 1: 0, 2: 0}
