from fractions import Fraction

import pytest

from curveatlas.curves import (
    CurveId, Provenance, defining_poly, is_on_curve, is_singular_point,
    paper_points, rational_paper_points, serialize_coord,
)
from curveatlas.kernel import BivarPoly, QuadRat


F = Fraction


class TestDefiningPolys:
    def test_k2_is_hyperelliptic(self):
        p = defining_poly(CurveId.K2)
        assert p.evaluate(F(0), F(0)) == 0
        assert p.evaluate(F(1), F(0)) == 0
        assert p.evaluate(F(2), F(2)) != 0

    def test_ks_weierstrass_values(self):
        p = defining_poly(CurveId.KS)
        assert p.evaluate(F(1), F(4)) == 0
        assert p.evaluate(F(1), F(-4)) == 0
        assert p.evaluate(F(0), F(0)) == 0

    def test_k6_conic_elimination(self):
        # 2a^4 - 4a^2 b + b^2 + 8a - 6 vanishes on covering images of K3
        # points: (1,2) -> (-1,-2), (3,6) -> (3,6)
        p = defining_poly(CurveId.K6)
        assert p.evaluate(F(-1), F(-2)) == 0
        assert p.evaluate(F(3), F(6)) == 0
        assert p.evaluate(F(0), F(0)) == -6


class TestMembership:
    def test_k3_table_values(self):
        for pt in [(F(1), F(2)), (F(1), F(6)), (F(-1), F(-2)), (F(3), F(6)),
                   (F(-1), F(2)), (F(-17), F(150)),
                   (F(-9, 17), F(6, 289)), (F(-155, 79), F(42486, 6241))]:
            assert is_on_curve(CurveId.K3, pt), pt

    def test_k3_quadratic_point(self):
        pt = (QuadRat(17, F(-1), F(0)), QuadRat(17, F(8), F(2)))
        assert is_on_curve(CurveId.K3, pt)
        conj = (pt[0].conjugate(), pt[1].conjugate())
        assert is_on_curve(CurveId.K3, conj)

    def test_off_curve(self):
        assert not is_on_curve(CurveId.K3, (F(0), F(0)))
        assert not is_on_curve(CurveId.K1, (F(1), F(1)))


class TestSingularPoint:
    def test_k3_double_point(self):
        assert is_singular_point(CurveId.K3, (F(1), F(2)))

    def test_only_one_double_point_in_table(self):
        singular = [r.pt for r in rational_paper_points(CurveId.K3)
                    if is_singular_point(CurveId.K3, r.pt)]
        assert singular == [(F(1), F(2))]

    def test_smooth_points(self):
        assert not is_singular_point(CurveId.K3, (F(1), F(6)))
        assert not is_singular_point(CurveId.K3, (F(-1), F(-2)))
        assert not is_singular_point(CurveId.KS, (F(0), F(0)))

    def test_off_curve_point_is_not_singular(self):
        # a double point lies on the curve, so a point off it is not one;
        # no error either, so a corrupt table entry still gets a verdict
        assert not is_singular_point(CurveId.K3, (F(0), F(0)))
        assert not is_singular_point(CurveId.K3, (F(1), F(3)))

    def test_partials_are_built_once_per_curve(self, monkeypatch):
        built = []
        original = BivarPoly.partial_x
        monkeypatch.setattr(
            BivarPoly, "partial_x", lambda f: built.append(f) or original(f))
        for _ in range(3):
            for r in rational_paper_points(CurveId.K3):
                is_singular_point(CurveId.K3, r.pt)
        assert len(built) <= 1


class TestTables:
    def test_counts(self):
        assert len(paper_points(CurveId.K1)) == 6
        assert len(paper_points(CurveId.K3)) == 14
        assert len(paper_points(CurveId.KS)) == 9
        assert len(rational_paper_points(CurveId.K3)) == 11

    def test_every_record_is_on_its_curve(self):
        for cid in (CurveId.K1, CurveId.K3, CurveId.KS):
            for rec in paper_points(cid):
                assert is_on_curve(cid, rec.pt), (cid, rec)

    def test_k1_discriminant_labels(self):
        ds = sorted(r.d for r in paper_points(CurveId.K1))
        assert ds == [3, 11, 19, 43, 67, 163]

    def test_k3_labelled_subset(self):
        labelled = {r.d for r in paper_points(CurveId.K3) if r.d is not None}
        assert labelled == {3, 11, 19, 43, 67, 163, 51, 123, 267}

    def test_quadratic_records(self):
        quads = [r for r in paper_points(CurveId.K3)
                 if isinstance(r.pt[0], QuadRat)]
        assert {r.d for r in quads} == {51, 123, 267}
        assert {r.pt[0].m for r in quads} == {17, 41, 89}

    def test_ks_points_come_in_w_pairs(self):
        pts = {r.pt for r in paper_points(CurveId.KS)}
        for (z, w) in pts:
            if w != 0:
                assert (z, -w) in pts

    def test_corrupt_entry_is_read_not_judged(self, set_table_entry):
        # paper_points builds the records; membership is judged by the
        # point: checks that report it
        set_table_entry("_K3_RATIONAL_TABLE", 67, (F(7), F(27)))
        rec = next(r for r in paper_points(CurveId.K3) if r.d == 67)
        assert rec.pt == (F(7), F(27))
        assert not is_on_curve(CurveId.K3, rec.pt)

    def test_provenance_marked(self):
        for rec in paper_points(CurveId.K3):
            assert rec.provenance is Provenance.PAPER_TABLE


class TestSerialization:
    def test_rational_coord(self):
        assert serialize_coord(F(22, 27)) == "22/27"
        assert serialize_coord(F(-3)) == "-3"

    def test_quadratic_coord(self):
        s = serialize_coord(QuadRat(17, F(8), F(2)))
        assert "sqrt(17)" in s and s.startswith("8")
