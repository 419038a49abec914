import random
from fractions import Fraction

import pytest

from curveatlas.curves import (
    CurveId, defining_poly, is_on_curve, paper_points, rational_paper_points,
)
from curveatlas.kernel import BivarPoly, QuadRat
from curveatlas.maps import (
    MapDomainError, cover_k1_to_k2, cover_k3_to_k6,
    euler_resolvent_check, k1_to_k3, k1_to_ks, k2_to_k6, k3_to_ks,
    ks_to_k3, pair_k1_to_k2, pell_params,
)


F = Fraction

# the nine KS table points and their K3 partners
KS_K3_PAIRING = {
    (F(0), F(0)): (F(3), F(14)),
    (F(1), F(4)): (F(7), F(26)),
    (F(1), F(-4)): (F(-1), F(2)),
    (F(-1), F(4)): (F(-3), F(6)),
    (F(-1), F(-4)): (F(1), F(6)),
    (F(1, 2), F(7, 4)): (F(3), F(6)),
    (F(1, 2), F(-7, 4)): (F(-155, 79), F(42486, 6241)),
    (F(2), F(14)): (F(-17), F(150)),
    (F(2), F(-14)): (F(-9, 17), F(6, 289)),
}

PELL_TRIPLES = {
    3: (2, -3, 2), 11: (-2, -1, 0), 19: (-2, 3, -2),
    43: (-14, -3, -2), 67: (14, -17, 12), 163: (82, -99, 70),
}


class TestKsK3Birational:
    def test_pairing(self):
        for zw, xy in KS_K3_PAIRING.items():
            assert ks_to_k3(zw) == xy

    def test_pairing_is_exactly_the_tables(self):
        imgs = {ks_to_k3(r.pt) for r in paper_points(CurveId.KS)}
        k3_rat = {r.pt for r in rational_paper_points(CurveId.K3)}
        # the two exceptional K3 points are not hit
        assert imgs == k3_rat - {(F(1), F(2)), (F(-1), F(-2))}

    def test_round_trips(self):
        for zw in KS_K3_PAIRING:
            assert k3_to_ks(ks_to_k3(zw)) == zw

    def test_images_lie_on_k3(self):
        rng = random.Random(7)
        checked = 0
        while checked < 25:
            z = F(rng.randint(-30, 30), rng.randint(1, 12))
            f = 2 * z * (z**4 + 4 * z**3 - 2 * z * z + 4 * z + 1)
            # build a quadratic point (z, sqrt(f)) when f is not a square
            from curveatlas.kernel import is_squarefree, rational_sqrt
            if f == 0 or rational_sqrt(f) is not None:
                continue
            num = f.numerator * f.denominator
            if num < 0:
                continue
            m, c = 1, 1
            n = num
            p = 2
            while p * p <= n:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                c *= p ** (e // 2)
                if e % 2:
                    m *= p
                p += 1
            m *= n
            if m == 1:
                continue
            w = QuadRat(m, F(0), F(c, f.denominator))
            assert w * w == f
            x, y = ks_to_k3((z, w))
            assert is_on_curve(CurveId.K3, (x, y))
            checked += 1

    def test_exceptional_points_raise(self):
        for pt in ((F(1), F(2)), (F(-1), F(-2))):
            with pytest.raises(MapDomainError) as ei:
                k3_to_ks(pt)
            assert ei.value.factors  # names the vanishing factors

    def test_raises_exactly_where_dz_vanishes(self):
        # the two exceptional K3 points and the off-curve (0, 2) are zeros of
        # Dz; each error names that one factor
        for pt in ((F(1), F(2)), (F(-1), F(-2)), (F(0), F(2))):
            with pytest.raises(MapDomainError) as ei:
                k3_to_ks(pt)
            assert ei.value.factors == ["2x^4+2x^3-3x^2y-2xy+6x-y+2"]
        # off the curve at x = 1, Dz = -588: the map is defined, and w solves
        # ks_to_k3's x-equation, so x comes back even though y does not
        z, w = k3_to_ks((F(1), F(100)))
        assert z == 1 - F(10388, 588)
        assert ks_to_k3((z, w))[0] == 1

    def test_round_trip_where_the_x_equation_has_slope_zero(self):
        # KS has (-3, +-4*sqrt(21)); at z = -3 the x-equation does not
        # involve w, and k3_to_ks reads w off the y-equation
        for sign in (1, -1):
            zw = (F(-3), QuadRat(21, F(0), F(4 * sign)))
            assert is_on_curve(CurveId.KS, zw)
            xy = ks_to_k3(zw)
            assert xy[0] == 3
            assert is_on_curve(CurveId.K3, xy)
            assert k3_to_ks(xy) == zw

    def test_removable_singularity_points_still_map(self):
        # (1,6) and (-1,2) are ordinary points of the x-equation branch
        # (slope 2z + 6 != 0); each maps onto KS and the round trip closes
        for pt in ((F(1), F(6)), (F(-1), F(2))):
            zw = k3_to_ks(pt)
            assert is_on_curve(CurveId.KS, zw)
            assert ks_to_k3(zw) == pt

    def test_ks_to_k3_domain_error(self):
        # z root of z^4+4z^3-2z^2-12z+1 is irrational, but errors must
        # trigger on exact zeros of the denominator only; sanity-check a
        # nearby rational is fine
        assert ks_to_k3((F(1, 13), F(5)))


class TestCoverK3ToK6:
    def test_images_on_k6(self):
        for rec in rational_paper_points(CurveId.K3):
            assert is_on_curve(CurveId.K6, cover_k3_to_k6(rec.pt))

    def test_values(self):
        assert cover_k3_to_k6((F(1), F(2))) == (F(-1), F(-2))
        assert cover_k3_to_k6((F(3), F(6))) == (F(3), F(6))
        assert cover_k3_to_k6((F(-17), F(150))) == (F(139), F(11318))

    def test_quadratic_points(self):
        for rec in paper_points(CurveId.K3):
            if isinstance(rec.pt[0], QuadRat):
                assert is_on_curve(CurveId.K6, cover_k3_to_k6(rec.pt))


class TestPell:
    def test_triples(self):
        by_d = {r.d: r.pt for r in rational_paper_points(CurveId.K3) if r.d}
        for d, expected in PELL_TRIPLES.items():
            tri = pell_params(cover_k3_to_k6(by_d[d]))
            assert (tri.k, tri.u, tri.v) == expected
            assert tri.residual() == 0

    def test_residual_vanishes_on_all_k6_images(self):
        for rec in rational_paper_points(CurveId.K3):
            tri = pell_params(cover_k3_to_k6(rec.pt))
            if tri is not None:
                assert tri.residual() == 0

    def test_undefined_at_a2_equal_one(self):
        assert pell_params((F(1), F(5))) is None

    def test_cleared_residual_is_k6(self):
        # 4(a2-1)^2 (u^2 - 2v^2 - 1) = G(a2, b2) in Q[a, b], with 2(a2-1)u
        # and 2(a2-1)v cleared of k's denominator; so for a2 != 1 the Pell
        # residual vanishes exactly on K6
        a2, b2 = BivarPoly({(1, 0): 1}), BivarPoly({(0, 1): 1})
        m = a2 - 1
        mu, mv = (b2 - 2) - 2 * (a2 + 1) * m, (a2 + 1) * m
        assert mu * mu - 2 * mv * mv - 4 * m * m == defining_poly(CurveId.K6)
        rng = random.Random(6)
        for _ in range(100):
            p = (F(rng.randint(-40, 40), rng.randint(1, 9)),
                 F(rng.randint(-40, 40), rng.randint(1, 9)))
            tri = pell_params(p)
            if tri is None:
                continue
            assert 2 * (p[0] - 1) * tri.u == mu.evaluate(*p)
            assert 2 * (p[0] - 1) * tri.v == mv.evaluate(*p)


class TestEulerResolvent:
    def test_table_points(self):
        for rec in rational_paper_points(CurveId.K3):
            assert euler_resolvent_check(rec.pt)

    def test_random_inputs(self):
        rng = random.Random(31)
        for _ in range(200):
            p = (F(rng.randint(-40, 40), rng.randint(1, 9)),
                 F(rng.randint(-40, 40), rng.randint(1, 9)))
            assert euler_resolvent_check(p)


class TestCommutingSquare:
    def test_k1_table(self):
        for rec in paper_points(CurveId.K1):
            p = rec.pt
            assert cover_k3_to_k6(k1_to_k3(p)) == k2_to_k6(pair_k1_to_k2(p))

    def test_random_pairs(self):
        rng = random.Random(1715)
        for _ in range(500):
            p = (F(rng.randint(-50, 50), rng.randint(1, 50)),
                 F(rng.randint(-50, 50), rng.randint(1, 50)))
            assert cover_k3_to_k6(k1_to_k3(p)) == k2_to_k6(pair_k1_to_k2(p))

    def test_k1_to_k3_lands_on_k3(self):
        for rec in paper_points(CurveId.K1):
            assert is_on_curve(CurveId.K3, k1_to_k3(rec.pt))

    def test_cover_k1_to_k2_lands_on_k2(self):
        for rec in paper_points(CurveId.K1):
            assert is_on_curve(CurveId.K2, cover_k1_to_k2(rec.pt))


class TestK1ToKs:
    def test_images_on_ks(self):
        for rec in paper_points(CurveId.K1):
            if rec.pt[0] == 0:
                continue
            assert is_on_curve(CurveId.KS, k1_to_ks(rec.pt))

    def test_al3_zero_raises(self):
        for pt in ((F(0), F(0)), (F(0), F(2))):
            with pytest.raises(MapDomainError) as ei:
                k1_to_ks(pt)
            assert ei.value.factors == ["al3"]

    def test_value(self):
        # (1, 2) -> z = 2/1 - 1 = 1, w = 4*(1-2)*1 - 2*(3-2-1) = -4
        assert k1_to_ks((F(1), F(2))) == (F(1), F(-4))
