import concurrent.futures
import multiprocessing.process
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, isqrt, prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curveatlas import search
from curveatlas.cli import BOUND_MAX
from curveatlas.curves import (
    CurveId, defining_poly, is_integral, paper_points, rational_paper_points,
)
from curveatlas.kernel import BivarPoly, integer_roots, rational_sqrt
from curveatlas.search import (
    ReconcileReport, SearchSpec, reconcile, search_integral, search_ks,
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
            SearchSpec(CurveId.KS, 0)

    def test_integral_search_rejects_other_curves(self):
        for curve in (CurveId.KS, CurveId.K2, CurveId.K6):
            with pytest.raises(ValueError, match="K1/K3 only"):
                search_integral(curve, 5)


class TestCovers:
    def test_ks_covers_exactly_the_scanned_fractions(self):
        # the reduced p/q that covers admits, counted over a box twice as
        # wide, are the 4 Phi(H) - 1 that scanned counts
        for H in range(1, 31):
            spec = SearchSpec(CurveId.KS, H)
            covered = sum(spec.covers((F(p, q), F(0)))
                          for p in range(-2 * H, 2 * H + 1)
                          for q in range(1, 2 * H + 1) if gcd(p, q) == 1)
            assert covered == search_ks(H).scanned

    def test_integral_covers_only_integral_points_in_the_box(self):
        spec = SearchSpec(CurveId.K3, 7)
        assert spec.covers((F(7), F(26))) and spec.covers((F(-7), F(0)))
        assert not spec.covers((F(8), F(0)))
        assert not spec.covers((F(7), F(53, 2)))
        assert not spec.covers((F(-9, 17), F(6, 289)))

    @pytest.mark.parametrize("curve", [CurveId.KS, CurveId.K1, CurveId.K3])
    @pytest.mark.parametrize("bound", [1, 2, 10, 17, 50])
    def test_search_finds_exactly_the_covered_table_entries(self, curve, bound):
        res = search_ks(bound) if curve is CurveId.KS else search_integral(curve, bound)
        assert set(res.points()) == {r.pt for r in rational_paper_points(curve)
                                     if res.spec.covers(r.pt)}


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


# every H up to 60 meets each new square and twice-square class boundary
@pytest.mark.parametrize("H", list(range(1, 61)) + [120, 200])
def test_ks_scan_matches_brute_force(H):
    hits, scanned = brute_force_ks(H)
    for partitions in (1, 2, 3, 4):
        for jobs in (1, 2):
            res = search_ks(H, partitions=partitions, jobs=jobs)
            assert set(res.points()) == hits
            assert len(res.found) == len(hits)
            assert res.scanned == scanned


def totient_sieve_sums(n):
    """[phi(1) + ... + phi(k) for k <= n], by a totient sieve."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return list(accumulate(phi))


def test_totient_sum_matches_sieve():
    sums = totient_sieve_sums(10**5)
    for n in list(range(2001)) + [10**5]:
        assert search._totient_sum(n) == sums[n]
    # the memo is shared by every call: a repeated n is a lookup
    misses = search._totient_sum.cache_info().misses
    assert search._totient_sum(10**5) == sums[10**5]
    assert search._totient_sum.cache_info().misses == misses


# candidates of the scan before the lemma's class pairs: each search_ks(H)
# must reach the exact test no more often
PRE_CLASS_PAIR_CANDIDATES = {100: 63, 300: 223, 400: 291, 500: 331}


@pytest.mark.parametrize("H", sorted(PRE_CLASS_PAIR_CANDIDATES))
def test_ks_candidates_not_above_pre_class_pair_scan(H):
    assert 0 < search_ks(H).candidates <= PRE_CLASS_PAIR_CANDIDATES[H]


# -- the KS residue sieve -----------------------------------------------------

# the lemma's three classes: the two the scan visits and (1, 2, 1), which
# sigma gives from (2, 1, 1)
KS_CLASSES = ((2, 1, 1), (1, 2, 1), (1, 1, 2))
KS_KEYS = [(cls, sign) for cls in KS_CLASSES for sign in (1, -1)]


def ks_e(p, q):
    return p**4 + 4 * p**3 * q - 2 * p**2 * q**2 + 4 * p * q**3 + q**4


def ks_residue_test(key, m, s, t):
    """k*sign*e(sign*cp*s^2, cq*t^2) is a square mod m, by trying every r."""
    (cp, cq, k), sign = key
    n = k * sign * ks_e(sign * cp * s * s, cq * t * t) % m
    return any(r * r % m == n for r in range(m))


def ks_pairs(key, H):
    """How many (s, t) of the key's class search_ks(H) scans."""
    (cp, cq, _), _ = key
    return (len(range(1, isqrt(H // cp) + 1, 1 + (cp == 1)))
            * len(range(1, isqrt(H // cq) + 1, 1 + (cq == 1))))


def ks_walked(H):
    """{key: the moduli the stop rule walks for the key at H}, in exact
    arithmetic; search_ks(H) walks those of its two classes."""
    out = {}
    for key in KS_KEYS:
        expected, walked = F(ks_pairs(key, H)), []
        for m in search._KS_MODULI:
            if expected < 1:
                break
            expected *= F(search._ks_table(key, m).density).limit_denominator(m * m)
            walked.append(m)
        out[key] = walked
    return out


@pytest.mark.parametrize("key", KS_KEYS, ids=str)
def test_ks_table_bits_equal_the_residue_test(key):
    # every modulus the largest bound walks, every residue pair, and the
    # density over the residue pairs of the class's parity
    (cp, cq, _), _ = key
    for m in ks_walked(BOUND_MAX)[key]:
        table = search._ks_table(key, m)
        assert len(table) == m and all(0 <= row < 1 << m for row in table)
        passed = total = 0
        for s in range(m):
            for t in range(m):
                assert (table[s] >> t & 1) == ks_residue_test(key, m, s, t), (m, s, t)
                if m % 2 == 0 and ((cp == 1 and not s % 2) or (cq == 1 and not t % 2)):
                    continue
                total += 1
                passed += table[s] >> t & 1
        assert table.density == passed / total


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(KS_KEYS), st.integers(1, 10**9), st.integers(1, 10**9),
       st.sampled_from(search._KS_MODULI[:30]))
def test_ks_table_reads_the_residues_of_any_pair(key, s, t, m):
    # e mod m depends on s and t mod m only, so a pair whose k|e| is a
    # perfect square (a square mod every m) is never rejected
    table = search._ks_table(key, m)
    assert (table[s % m] >> (t % m) & 1) == ks_residue_test(key, m, s, t)


# (key, s, t) of each affine KS table point with p != 0 in a scanned class;
# sigma(2) gives the point z = 1/2
KS_POINT_PAIRS = {F(2): (((2, 1, 1), 1), 1, 1), F(1): (((1, 1, 2), 1), 1, 1),
                  F(-1): (((1, 1, 2), -1), 1, 1)}


def test_ks_tables_pass_the_table_points():
    assert {pt[0] for pt in KS_POINTS} == (
        set(KS_POINT_PAIRS) | {1 / z for z in KS_POINT_PAIRS} | {0})
    assert all(cls in search._KS_CLASSES
               for (cls, _), _, _ in KS_POINT_PAIRS.values())
    for z, (key, s, t) in KS_POINT_PAIRS.items():
        (cp, cq, k), sign = key
        assert F(sign * cp * s * s, cq * t * t) == z
        for m in search._KS_MODULI:
            assert search._ks_table(key, m)[s % m] >> (t % m) & 1


@pytest.mark.parametrize("H", list(range(1, 41)) + [200, 1000])
def test_ks_scan_visits_exactly_the_class_pairs(monkeypatch, H):
    # with no table, every pair of the scan reaches the gcd and sign tests:
    # then candidates counts the reduced p/q whose |p| and q are each an odd
    # square or twice a square, with p e > 0, in the two scanned classes:
    # q odd (sigma gives the class (1, 2, 1), where q is even)
    monkeypatch.setattr(search, "_walk", lambda *args: ())
    allowed = ({s * s for s in range(1, isqrt(H) + 1, 2)}
               | {2 * t * t for t in range(1, isqrt(H // 2) + 1)})
    expected = sum(1 for a in allowed for q in allowed if q % 2 for p in (a, -a)
                   if gcd(a, q) == 1 and p * ks_e(p, q) > 0)
    assert search_ks(H).candidates == expected


def square_mod(m):
    table = bytearray(m)
    for r in range(m):
        table[r * r % m] = 1
    return table


_SQ64, _SQ63, _SQ65 = square_mod(64), square_mod(63), square_mod(65)


def class_pair_scan(H):
    """search_ks before the residue sieve: the lemma's class pairs, the sign
    test and a mod-64/63/65 prefilter on k|e|, then the exact test.
    (points, scanned, candidates)."""
    odd = [s * s for s in range(1, isqrt(H) + 1, 2)]
    twice = [2 * t * t for t in range(1, isqrt(H // 2) + 1)]
    q_for = ([(q, 1) for q in odd], [(q, 1) for q in twice] + [(q, 2) for q in odd])
    hits = [(F(0), F(0))]
    candidates = 0
    for a in twice + odd:
        qs = [(q, k) for q, k in q_for[a & 1] if gcd(a, q) == 1]
        for p in (a, -a):
            for q, k in qs:
                e = ks_e(p, q)
                n = k * abs(e)
                if p * e <= 0 or not (_SQ64[n % 64] and _SQ63[n % 63]
                                      and _SQ65[n % 65]):
                    continue
                candidates += 1
                r = rational_sqrt(F(2 * p * e * q))
                if r is not None:
                    hits += [(F(p, q), r / q**3), (F(p, q), -r / q**3)]
    return sorted(set(hits)), 4 * totient_sieve_sums(H)[H] - 1, candidates


@pytest.mark.parametrize("H", [10**3, 10**4, 10**5])
def test_ks_sieve_matches_the_class_pair_scan(H):
    points, scanned, candidates = class_pair_scan(H)
    res = search_ks(H)
    assert res.points() == points
    assert res.scanned == scanned
    # each z != 0 of a scanned class (q odd) reached the exact test
    scanned_z = {z for z, _ in points if z and z.denominator % 2}
    assert len(scanned_z) <= res.candidates <= candidates


def test_ks_involution_matches_the_three_class_scan():
    # scanning two classes and adding sigma of each hit gives the points and
    # scanned of the scan of all three classes at every H up to 600
    for H in range(1, 601):
        points, scanned, _ = class_pair_scan(H)
        res = search_ks(H)
        assert (res.points(), res.scanned) == (points, scanned), H


def test_ks_involution_is_exact():
    # e(p, q) = e(q, p) as polynomials, so sigma(z, w) = (1/z, w/z^3) maps KS
    # to itself; the tables of a class and of its image under sigma are
    # transposes (s and t swapped) at every modulus the largest bound walks
    P, Q = BivarPoly({(1, 0): 1}), BivarPoly({(0, 1): 1})
    assert search._ks_e(P, Q) == search._ks_e(Q, P)
    for ((cp, cq, k), sign), walked in ks_walked(BOUND_MAX).items():
        for m in walked:
            table = search._ks_table(((cp, cq, k), sign), m)
            image = search._ks_table(((cq, cp, k), sign), m)
            assert all((table[s] >> t & 1) == (image[t] >> s & 1)
                       for s in range(m) for t in range(m)), (cp, cq, sign, m)


@pytest.mark.parametrize("H", [1, 2, 200, 400, 10**4, BOUND_MAX])
def test_ks_sieve_meets_the_stop_rule(H):
    # the moduli in order until (pairs in the class) * (product of the
    # densities) < 1, the cap unreached; the plan keeps those that reject
    # something, most selective first
    for key, walked in ks_walked(H).items():
        pairs = ks_pairs(key, H)
        assert bool(walked) == (pairs > 0)
        assert search._KS_MODULI[-1] not in walked
        plan = search._walk(search._ks_table, key, search._KS_MODULI, pairs, 0)
        assert sorted(m for m, _ in plan) == sorted(
            m for m in walked if search._ks_table(key, m).density < 1)
        densities = [t.density for _, t in plan]
        assert densities == sorted(densities)


def test_ks_sieve_rules_out_negative_p_with_one_even():
    # |e| = 3 mod 4 when exactly one of p, q is even and p < 0: the mod-4
    # table alone rejects both such classes, whatever the bound
    for cls in ((2, 1, 1), (1, 2, 1)):
        assert search._ks_table((cls, -1), 4).density == 0
        assert search._walk(search._ks_table, (cls, -1), search._KS_MODULI,
                            BOUND_MAX, 0)[0][0] == 4


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
def test_jobs_start_no_process(monkeypatch, run):
    # both searches run in the calling process whatever --jobs says
    def refuse(*args, **kwargs):
        raise AssertionError("a search started a process")

    serial = run(1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    many = run(5000)
    assert many.points() == serial.points()
    assert many.scanned == serial.scanned


@pytest.mark.parametrize("run", [
    lambda parts: search_ks(5, partitions=parts, jobs=2),
    lambda parts: search_integral(CurveId.K1, 5, partitions=parts, jobs=2),
], ids=["ks", "integral"])
def test_partitions_do_not_change_the_answer(run):
    few, many = run(4), run(200000)
    assert many.points() == few.points()
    assert (many.scanned, many.candidates) == (few.scanned, few.candidates)


@pytest.mark.parametrize("run", [
    lambda: search_ks(5, jobs=0),
    lambda: search_integral(CurveId.K1, 5, jobs=0),
], ids=["ks", "integral"])
def test_jobs_must_be_positive(run):
    with pytest.raises(ValueError):
        run()


@pytest.mark.parametrize("run", [
    lambda: search_ks(5, partitions=0),
    lambda: search_integral(CurveId.K1, 5, partitions=0),
], ids=["ks", "integral"])
def test_partitions_must_be_positive(run):
    with pytest.raises(ValueError, match="partitions"):
        run()


def v2(n):
    return (n & -n).bit_length() - 1


@settings(max_examples=500, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_ks_lemma_valuations(p, q):
    # the lemma behind search_ks: p, q and e pairwise coprime, and e has
    # 2-adic valuation 3 when p and q are both odd, 0 otherwise
    assume(gcd(p, q) == 1)
    e = p**4 + 4 * p**3 * q - 2 * p**2 * q**2 + 4 * p * q**3 + q**4
    assert gcd(p, e) == 1 and gcd(q, e) == 1
    assert v2(e) == (3 if p % 2 and q % 2 else 0)


@lru_cache(maxsize=None)
def fibre_roots(curve, B):
    """{x: integer roots of the fibre at x} for |x| <= B, unsieved."""
    poly = defining_poly(curve)
    return {x: integer_roots(poly.specialize_x(x)) for x in range(-B, B + 1)}


@pytest.mark.parametrize("curve", [CurveId.K1, CurveId.K3])
def test_sieve_rejects_only_empty_fibres(curve):
    roots = fibre_roots(curve, 3000)
    for B in (1, 50, 200, 3000, BOUND_MAX):  # the selection grows with B
        sieve = search._sieve(curve, B)
        assert sieve  # both curves have moduli that reject something
        for m, (row,) in sieve:  # each table alone rejects only empty fibres
            assert all(roots[x] == [] for x in roots if not row >> x % m & 1)
        rejected = [x for x in roots
                    if not all(row >> x % m & 1 for m, (row,) in sieve)]
        assert len(rejected) > 0.9 * len(roots)


def fibre_residue_test(curve, m, x):
    """The fibre quartic at x has a root mod m, by trying every y."""
    coeffs = defining_poly(curve).specialize_x(x)
    return any(sum(c * y**j for j, c in coeffs.items()) % m == 0
               for y in range(m))


@pytest.mark.parametrize("curve", [CurveId.K1, CurveId.K3])
def test_box_row_bits_equal_the_residue_test(curve):
    # every modulus the largest bound walks, every residue, and the density
    largest = max(m for m, _ in search._sieve(curve, BOUND_MAX))
    for m in search._SIEVE_MODULI[:search._SIEVE_MODULI.index(largest) + 1]:
        table = search._table(curve, m)
        assert len(table) == 1 and 0 <= table[0] < 1 << m
        bits = [fibre_residue_test(curve, m, x) for x in range(m)]
        assert [table[0] >> x & 1 for x in range(m)] == bits, m
        assert table.density == sum(bits) / m


@pytest.mark.parametrize("curve", [CurveId.K1, CurveId.K3])
def test_sieved_search_matches_unsieved_scan(curve):
    roots = fibre_roots(curve, 3000)
    expected = {(F(x), F(y)) for x, ys in roots.items() if abs(x) <= 2000
                for y in ys}
    res = search_integral(curve, 2000)
    assert set(res.points()) == expected
    assert res.scanned == 4001
    assert len({x for x, _ in expected}) <= res.candidates < 100


def sieve_steps(curve):
    """The B in [2, BOUND_MAX] whose sieve has more tables than B - 1's,
    found by bisection: the selection only grows with B."""
    size = lambda B: len(search._sieve(curve, B))
    def steps(lo, hi):  # the steps in (lo, hi]
        if size(lo) == size(hi):
            return []
        if hi - lo == 1:
            return [hi]
        mid = (lo + hi) // 2
        return steps(lo, mid) + steps(mid, hi)
    return steps(1, BOUND_MAX)


def passing_count(sieve, B):
    """How many x in [-B, B] every table passes: each row written out as a
    string of bits, repeated across the box and read back as a bit mask."""
    n, mask = 2 * B + 1, -1
    for m, (row,) in sieve:
        bits = format(row, f"0{m}b")[::-1]  # bits[j] is bit j of the row
        start = -B % m
        mask &= int((bits * (n // m + 2))[start:start + n], 2)
    return bin(mask).count("1")


@pytest.mark.parametrize("curve", [CurveId.K1, CurveId.K3])
def test_strided_sieve_matches_every_table(curve):
    # past two strides of the largest base modulus, 64, and on both sides of
    # every bound where the sieve adds a prime: candidates are exactly the
    # x that every table of that bound passes, and the points those of the
    # unsieved scan (past |x| = 3000, the table entries the bound covers)
    steps = sieve_steps(curve)
    assert 10 < len(steps) < 40 and max(steps) <= BOUND_MAX
    roots = fibre_roots(curve, 3000)
    table = {r.pt for r in rational_paper_points(curve)}
    for B in sorted(set(range(1, 131)) | {b for s in steps for b in (s - 1, s)}):
        res = search_integral(curve, B)
        assert res.candidates == passing_count(search._sieve(curve, B), B)
        if B <= 3000:
            expected = {(F(x), F(y)) for x in range(-B, B + 1) for y in roots[x]}
        else:
            expected = {pt for pt in table if res.spec.covers(pt)}
        assert set(res.points()) == expected


@pytest.mark.parametrize("curve", [CurveId.K1, CurveId.K3])
@pytest.mark.parametrize("B", [1, 50, 200, 10**4, BOUND_MAX])
def test_sieve_meets_the_stop_rule_or_the_cap(curve, B):
    # every prime power <= 64 that rejects some x, then the rejecting primes
    # in order until (2B + 1) * (product of densities) < 1 or the cap
    rejecting = [m for m in search._SIEVE_MODULI
                 if search._table(curve, m)[0] != (1 << m) - 1]
    density = {m: F(bin(row).count("1"), m) for m, (row,) in search._sieve(curve, B)}
    primes = [m for m in rejecting if m > 64]
    used = [m for m in primes if m in density]
    assert sorted(density) == sorted([m for m in rejecting if m <= 64] + used)
    assert used == primes[:len(used)]
    expected = (2 * B + 1) * prod(density.values())
    assert expected < 1 or used == primes
    if used:  # the last prime was needed
        assert expected / density[used[-1]] >= 1
    assert list(density) == sorted(density, key=density.get)


def test_sieve_primes_by_bound():
    # the density model at work: K1 adds primes from B = 45 on and K3 none
    # below 376, and at BOUND_MAX both stop well below the cap
    extra = lambda curve, B: sorted(m for m, _ in search._sieve(curve, B) if m > 64)
    assert extra(CurveId.K1, 44) == [] and extra(CurveId.K1, 45) == [67]
    assert extra(CurveId.K1, 200) == [67, 71, 73, 79, 83]
    assert extra(CurveId.K3, 375) == [] and extra(CurveId.K3, 376) == [67]
    for curve in (CurveId.K1, CurveId.K3):
        assert max(extra(curve, BOUND_MAX)) < search._SIEVE_MODULI[-1]


def test_each_table_is_built_once():
    # one table per (curve, m), whatever order the bounds come in: the
    # cache holds exactly the moduli the largest bound walks on each curve
    search._table.cache_clear()
    bounds = (1, 10**4, 50, 200, 199, 10**4)
    for B in bounds:
        for curve in (CurveId.K1, CurveId.K3):
            search_integral(curve, B)
    walked = 0
    for curve in (CurveId.K1, CurveId.K3):
        largest = max(m for m, _ in search._sieve(curve, max(bounds)))
        walked += search._SIEVE_MODULI.index(largest) + 1
    info = search._table.cache_info()
    assert info.misses == info.currsize == walked
    assert info.hits > 0


def test_search_tables_not_built_at_import():
    # the box tables take about 10 ms per curve to build at B = 50 and about
    # 90 ms at BOUND_MAX, the KS tables about 3 ms at H = 200 and 30 ms at
    # BOUND_MAX (fresh processes, 2-core Xeon); start-up must not pay for them
    src = str(Path(search.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import curveatlas.cli, curveatlas.search as s; "
            "print(s._table.cache_info().currsize, s._ks_table.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.split() == ["0", "0"]


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
        table = [r for r in rational_paper_points(CurveId.K3)
                 if is_integral(r.pt)]
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
