"""End-to-end acceptance battery: nine criteria, one printed verdict line
each.  Run with -s to see the lines; every criterion also asserts, so a
plain pytest run fails loudly on any regression."""

import random
import time
from fractions import Fraction
from math import gcd

from curveatlas.curves import (
    CurveId, is_on_curve, is_singular_point, paper_points,
    rational_paper_points,
)
from curveatlas.kernel import QuadRat, is_squarefree, rational_sqrt
from curveatlas.maps import (
    MapDomainError, cover_k3_to_k6, k1_to_k3, k2_to_k6, k3_to_ks, ks_to_k3,
    pair_k1_to_k2, pell_params,
)
from curveatlas.modular import (
    CLASS_NUMBER_ONE_DS, ModularContext, gamma2_of, j_invariant,
    paper_labels, recover_pair, schlafli_w, verify_tower,
    weber_product_selftest,
)
from curveatlas.search import reconcile, search_integral, search_ks


F = Fraction


def verdict(n, label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {n}: {label} ({elapsed:.2f}s / budget {budget}s)")
    assert ok, f"criterion {n} ({label}) failed"
    assert elapsed < budget, f"criterion {n} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_point_tables_exact():
    start = time.monotonic()
    ok = True
    counts = {CurveId.K3: 14, CurveId.K1: 6, CurveId.KS: 9}
    for curve, n in counts.items():
        recs = paper_points(curve)
        ok = ok and len(recs) == n
        ok = ok and all(is_on_curve(curve, r.pt) for r in recs)
    ok = ok and len(rational_paper_points(CurveId.K3)) == 11
    verdict(1, "all 29 table points satisfy their equations exactly",
            ok, time.monotonic() - start, 1.0)


def test_criterion_2_double_point():
    start = time.monotonic()
    singular = [r.pt for r in rational_paper_points(CurveId.K3)
                if is_singular_point(CurveId.K3, r.pt)]
    ok = singular == [(F(1), F(2))]
    verdict(2, "(1,2) is the unique singular rational table point",
            ok, time.monotonic() - start, 1.0)


def test_criterion_3_map_pairings():
    start = time.monotonic()
    pairing = {
        (F(1), F(4)): (F(7), F(26)),
        (F(2), F(14)): (F(-17), F(150)),
        (F(2), F(-14)): (F(-9, 17), F(6, 289)),
        (F(1, 2), F(-7, 4)): (F(-155, 79), F(42486, 6241)),
        (F(1, 2), F(7, 4)): (F(3), F(6)),
        (F(0), F(0)): (F(3), F(14)),
        (F(1), F(-4)): (F(-1), F(2)),
        (F(-1), F(4)): (F(-3), F(6)),
        (F(-1), F(-4)): (F(1), F(6)),
    }
    ok = all(ks_to_k3(zw) == xy and k3_to_ks(xy) == zw
             for zw, xy in pairing.items())
    ok = ok and set(pairing) == {r.pt for r in paper_points(CurveId.KS)}
    for pt in ((F(1), F(2)), (F(-1), F(-2))):
        try:
            k3_to_ks(pt)
            ok = False
        except MapDomainError:
            pass
    verdict(3, "birational pairing of the 9 point pairs, with round trips "
            "and the 2 predicted domain errors", ok, time.monotonic() - start, 1.0)


def test_criterion_4_commuting_square():
    start = time.monotonic()
    rng = random.Random(1715)
    pairs = [r.pt for r in paper_points(CurveId.K1)]
    for _ in range(500):
        pairs.append((F(rng.randint(-50, 50), rng.randint(1, 50)),
                      F(rng.randint(-50, 50), rng.randint(1, 50))))
    ok = all(
        cover_k3_to_k6(k1_to_k3(p)) == k2_to_k6(pair_k1_to_k2(p))
        for p in pairs
    )
    verdict(4, "commuting square exact on 506 inputs",
            ok, time.monotonic() - start, 1.0)


def test_criterion_5_pell_invariant():
    start = time.monotonic()
    expected = {
        3: (2, -3, 2), 11: (-2, -1, 0), 19: (-2, 3, -2),
        43: (-14, -3, -2), 67: (14, -17, 12), 163: (82, -99, 70),
    }
    ok = True
    for rec in rational_paper_points(CurveId.K3):
        a2b2 = cover_k3_to_k6(rec.pt)
        ok = ok and is_on_curve(CurveId.K6, a2b2)
        tri = pell_params(a2b2)
        if tri is None:
            continue
        ok = ok and tri.residual() == 0
        if rec.d is not None:
            ok = ok and (tri.k, tri.u, tri.v) == expected[rec.d]
    verdict(5, "Pell invariant u^2-2v^2=1 with the six labeled triples",
            ok, time.monotonic() - start, 1.0)


def test_criterion_6_modular_recovery():
    start = time.monotonic()
    expected_pairs = {
        3: (3, 6), 11: (-1, 2), 19: (1, 6), 43: (3, 14),
        67: (7, 26), 163: (-17, 150),
    }
    ok = True
    for d in CLASS_NUMBER_ONE_DS:
        ctx = ModularContext.create(d)
        ok = ok and ctx.prec <= 512
        ok = ok and recover_pair(ctx) == expected_pairs[d]
        a3b3, al3be3 = paper_labels(d)
        rep = verify_tower(ctx, a3b3, al3be3)
        ok = ok and not rep.failed()  # every residual < 2^-(P/2)
        j = j_invariant(ctx)
        ok = ok and gamma2_of(j) is not None
        if d == 163:
            ok = ok and j == -262537412640768000
    verdict(6, "six integer pairs recovered, residuals < 2^-(P/2), "
            "j(163) exact, j a cube", ok, time.monotonic() - start, 5.0)


def test_criterion_7_selftests():
    start = time.monotonic()
    ok = True
    for p in (64, 128, 256):
        st = weber_product_selftest(p)
        ok = ok and abs(st.to_fraction()) < F(1, 1 << (p - 8))
    ctx3 = ModularContext.create(3)
    w3 = schlafli_w(ctx3)
    ok = ok and abs(w3.to_fraction() - 2) < F(1, 1 << (ctx3.prec - 4))
    p = 128
    r1 = verify_tower(ModularContext.create(163, prec=p), (-17, 150), (2, 6))
    r2 = verify_tower(ModularContext.create(163, prec=2 * p), (-17, 150), (2, 6))
    for eq in r1.residuals:
        v1 = abs(r1.residuals[eq].to_fraction())
        v2 = abs(r2.residuals[eq].to_fraction())
        ok = ok and v2 <= v1 / (1 << (p // 2 - 4)) + F(1, 1 << (2 * p - 10))
    verdict(7, "product selftests, W(3)=2, residual shrink >= 2^(P/2-4) "
            "under precision doubling", ok, time.monotonic() - start, 5.0)


def test_criterion_8_search_reproduction():
    start = time.monotonic()
    table_ks = {r.pt for r in paper_points(CurveId.KS)}
    res = search_ks(200, partitions=4, jobs=4)
    ok = set(p for p in res.points()) == table_ks and len(res.found) == 9
    ok = ok and res.scanned > 40000  # complete scan, no early exit
    ok = ok and len(search_integral(CurveId.K3, 50).found) == 9
    ok = ok and len(search_integral(CurveId.K1, 50).found) == 6
    base = set(search_ks(40).points())
    for parts in (1, 4, 16):
        ok = ok and set(search_ks(40, partitions=parts).points()) == base
    verdict(8, "bounded searches reproduce exactly the 9+9+6 table points, "
            "partition-independent", ok, time.monotonic() - start, 60.0)


def test_criterion_9_quadratic_round_trips():
    start = time.monotonic()
    import sympy

    rng = random.Random(977)
    ok = True
    done = 0
    while done < 100:
        z0 = F(rng.randint(-20, 20), rng.randint(1, 20))
        f = 2 * z0 * (z0**4 + 4 * z0**3 - 2 * z0 * z0 + 4 * z0 + 1)
        if f <= 0 or rational_sqrt(f) is not None:
            continue  # need a genuine real quadratic extension
        n = f.numerator * f.denominator
        m, c = 1, 1
        for prime, e in sympy.factorint(n).items():
            c *= prime ** (e // 2)
            if e % 2:
                m *= prime
        w0 = QuadRat(m, F(0), F(c, f.denominator))
        assert w0 * w0 == f
        xy = ks_to_k3((z0, w0))
        ok = ok and is_on_curve(CurveId.K3, xy)
        ok = ok and k3_to_ks(xy) == (z0, w0)
        done += 1
    verdict(9, "100 quadratic-point round trips close identically",
            ok, time.monotonic() - start, 10.0)
