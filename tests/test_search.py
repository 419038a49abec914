import random
from fractions import Fraction
from math import gcd

import pytest

from curveatlas import search
from curveatlas.curves import CurveId, paper_points, rational_paper_points
from curveatlas.kernel import rational_sqrt
from curveatlas.search import (
    ReconcileReport, SearchMode, SearchSpec, reconcile, search_integral,
    search_ks,
)


F = Fraction

KS_POINTS = {
    (F(0), F(0)),
    (F(1), F(4)), (F(1), F(-4)),
    (F(-1), F(4)), (F(-1), F(-4)),
    (F(1, 2), F(7, 4)), (F(1, 2), F(-7, 4)),
    (F(2), F(14)), (F(2), F(-14)),
}

K1_INTEGRAL = {
    (F(0), F(0)), (F(1), F(2)), (F(-1), F(0)), (F(0), F(2)),
    (F(-1), F(2)), (F(2), F(6)),
}

K3_INTEGRAL = {
    (F(3), F(6)), (F(-1), F(2)), (F(1), F(6)), (F(3), F(14)),
    (F(7), F(26)), (F(-17), F(150)), (F(-1), F(-2)), (F(-3), F(6)),
    (F(1), F(2)),
}


class TestSpecValidation:
    def test_bound_positive(self):
        with pytest.raises(ValueError):
            SearchSpec(CurveId.KS, SearchMode.RATIONAL_HEIGHT, 0)

    def test_partitions_positive(self):
        with pytest.raises(ValueError):
            SearchSpec(CurveId.KS, SearchMode.RATIONAL_HEIGHT, 5, 0)

    def test_mode_curve_pairing(self):
        with pytest.raises(ValueError):
            SearchSpec(CurveId.K3, SearchMode.RATIONAL_HEIGHT, 5)
        with pytest.raises(ValueError):
            SearchSpec(CurveId.KS, SearchMode.INTEGRAL_BOX, 5)


class TestKsSearch:
    def test_height_one(self):
        pts = set(search_ks(1).points())
        assert pts == {p for p in KS_POINTS if abs(p[0]) <= 1 and p[0].denominator == 1}
        assert len(pts) == 5

    def test_height_two_finds_all_nine(self):
        assert set(search_ks(2).points()) == KS_POINTS

    def test_height_fifty_finds_nothing_new(self):
        res = search_ks(50)
        assert set(res.points()) == KS_POINTS
        assert res.scanned > 3000

    def test_partition_independence(self):
        base = set(search_ks(30).points())
        for parts in (4, 16):
            assert set(search_ks(30, partitions=parts).points()) == base

    def test_parallel_jobs_same_answer(self):
        assert set(search_ks(40, partitions=4, jobs=4).points()) == KS_POINTS

    def test_scanned_counts_reduced_fractions_once(self):
        res = search_ks(2)
        # reduced p/q with |p| <= 2, 1 <= q <= 2: p/1 for 5 values of p,
        # p/2 for p odd in {-1, 1} -> 5 + 2... plus -2/1, 2/1 etc.
        count = sum(
            1 for p in range(-2, 3) for q in (1, 2) if gcd(abs(p), q) == 1
        )
        assert res.scanned == count

    def test_randomized_completeness_audit(self):
        # independent membership test for 1000 random (p, q) against the
        # emitted set at H = 30
        H = 30
        emitted = set(search_ks(H).points())
        rng = random.Random(4242)
        for _ in range(1000):
            p = rng.randint(-H, H)
            q = rng.randint(1, H)
            if gcd(abs(p), q) != 1:
                continue
            z = F(p, q)
            fz = 2 * z * (z**4 + 4 * z**3 - 2 * z * z + 4 * z + 1)
            r = rational_sqrt(fz) if fz >= 0 else None
            if r is not None:
                assert (z, r) in emitted and (z, -r) in emitted
            else:
                assert all(pt[0] != z for pt in emitted)


def brute_force_ks(H):
    """Reference scan: the exact rational_sqrt test on every reduced p/q."""
    hits, scanned = set(), 0
    for p in range(-H, H + 1):
        for q in range(1, H + 1):
            if gcd(p, q) != 1:
                continue
            scanned += 1
            e = p**4 + 4 * p**3 * q - 2 * p**2 * q**2 + 4 * p * q**3 + q**4
            r = rational_sqrt(F(2 * p * e, q**5))
            if r is not None:
                hits |= {(F(p, q), r), (F(p, q), -r)}
    return hits, scanned


@pytest.mark.parametrize("H", [1, 2, 5, 17, 60])
def test_ks_scan_matches_brute_force(H):
    hits, scanned = brute_force_ks(H)
    for partitions in (1, 2, 3, 4):
        for jobs in (1, 2):
            res = search_ks(H, partitions=partitions, jobs=jobs)
            assert set(res.points()) == hits
            assert len(res.found) == len(hits)
            assert res.scanned == scanned


class TestIntegralSearch:
    def test_k1_box_two(self):
        assert set(search_integral(CurveId.K1, 2).points()) == K1_INTEGRAL

    def test_k1_box_fifty_finds_nothing_new(self):
        assert set(search_integral(CurveId.K1, 50).points()) == K1_INTEGRAL

    def test_k3_box_seventeen(self):
        assert set(search_integral(CurveId.K3, 17).points()) == K3_INTEGRAL

    def test_k3_box_one(self):
        pts = set(search_integral(CurveId.K3, 1).points())
        assert pts == {(F(-1), F(2)), (F(-1), F(-2)), (F(1), F(2)), (F(1), F(6))}

    def test_partition_independence(self):
        base = set(search_integral(CurveId.K3, 20).points())
        for parts in (4, 16):
            got = set(search_integral(CurveId.K3, 20, partitions=parts).points())
            assert got == base

    def test_scanned_count(self):
        assert search_integral(CurveId.K1, 10).scanned == 21


@pytest.mark.parametrize("run", [
    lambda jobs: search_ks(30, partitions=3, jobs=jobs),
    lambda jobs: search_integral(CurveId.K3, 20, partitions=3, jobs=jobs),
], ids=["ks", "integral"])
def test_pool_never_exceeds_partitions(monkeypatch, run):
    # a fork pool starts all max_workers processes on the first submit, so
    # a large --jobs must not reach the executor; a fake records the size
    sizes = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    serial = run(1)
    monkeypatch.setattr(search, "ProcessPoolExecutor", RecordingExecutor)
    pooled = run(5000)
    assert sizes == [3]
    assert pooled.points() == serial.points()
    assert pooled.scanned == serial.scanned


@pytest.mark.parametrize("run", [
    lambda parts: search_ks(5, partitions=parts, jobs=2),
    lambda parts: search_integral(CurveId.K1, 5, partitions=parts, jobs=2),
], ids=["ks", "integral"])
def test_partitions_clamped_to_residue_classes(monkeypatch, run):
    # p (or x) ranges over 2*5 + 1 = 11 values, so more than 11 residue
    # classes would only add empty tasks; a fake executor counts the tasks
    counts = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            counts.append(len(tasks))
            return map(fn, tasks)

    monkeypatch.setattr(search, "ProcessPoolExecutor", RecordingExecutor)
    few = run(4)
    many = run(200000)
    assert counts == [4, 11]
    assert many.points() == few.points()
    assert many.scanned == few.scanned


class TestReconcile:
    def test_ks_table_clean(self):
        rep = reconcile(search_ks(200, partitions=4, jobs=2),
                        list(paper_points(CurveId.KS)))
        assert rep.clean()
        assert len(rep.both) == 9

    def test_k1_table_clean(self):
        rep = reconcile(search_integral(CurveId.K1, 25),
                        list(paper_points(CurveId.K1)))
        assert rep.clean()
        assert len(rep.both) == 6

    def test_k3_integral_subset(self):
        table = [
            r for r in rational_paper_points(CurveId.K3)
            if r.pt[0].denominator == 1 and r.pt[1].denominator == 1
        ]
        rep = reconcile(search_integral(CurveId.K3, 25), table)
        assert rep.clean()
        assert len(rep.both) == 9

    def test_buckets(self):
        res = search_ks(1)
        rep = reconcile(res, list(paper_points(CurveId.KS)))
        assert set(rep.paper_only) == {
            (F(1, 2), F(7, 4)), (F(1, 2), F(-7, 4)),
            (F(2), F(14)), (F(2), F(-14)),
        }
        assert rep.search_only == []
        assert not rep.clean()

    def test_curve_mismatch_rejected(self):
        with pytest.raises(ValueError):
            reconcile(search_ks(1), list(paper_points(CurveId.K1)))


def test_search_images_match_birational_partner_tables():
    # the 9 KS points map exactly onto the 9 non-exceptional rational K3
    # points under the birational map
    from curveatlas.maps import ks_to_k3
    imgs = {ks_to_k3(pt) for pt in search_ks(2).points()}
    k3 = {r.pt for r in rational_paper_points(CurveId.K3)}
    assert imgs == k3 - {(F(1), F(2)), (F(-1), F(-2))}
