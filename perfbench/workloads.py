"""The four benchmark workloads: seeded inputs, one operation, and its oracle.

Each workload builds its inputs in rounds.  A round is a stratified draw:
every input size band of the workload appears in it the same number of
times and only the values inside each band and the order come from the
seed, so runs on different seeds do the same mix of work.  ``op`` runs one
operation through the public API of ``curveatlas``; ``check`` compares its
output with an oracle and raises ``OracleError`` on any mismatch.  The
oracle's expected values are copied from the paper's tables, not read from
the package, so a corrupted table fails the check instead of passing it.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

import jsonschema

from curveatlas import cli, curves, maps, modular, search
from curveatlas.curves import CurveId
from curveatlas.kernel import QuadRat
from curveatlas.maps import MapDomainError

F = Fraction

EXPECTED_PAIRS = {
    3: (3, 6), 11: (-1, 2), 19: (1, 6), 43: (3, 14), 67: (7, 26), 163: (-17, 150),
}
EXPECTED_J = {
    3: 0, 11: -2**15, 19: -884736, 43: -884736000, 67: -147197952000,
    163: -640320**3,
}
K1_LABELS = {3: (0, 0), 11: (1, 2), 19: (-1, 0), 43: (0, 2), 67: (-1, 2), 163: (2, 6)}
PELL_TRIPLES = {
    3: (2, -3, 2), 11: (-2, -1, 0), 19: (-2, 3, -2),
    43: (-14, -3, -2), 67: (14, -17, 12), 163: (82, -99, 70),
}
KS_TO_K3 = {
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
KS_POINTS = frozenset(KS_TO_K3)
K1_INTEGRAL = frozenset((F(x), F(y)) for x, y in K1_LABELS.values())
K3_INTEGRAL = frozenset(
    [(F(x), F(y)) for x, y in EXPECTED_PAIRS.values()]
    + [(F(-1), F(-2)), (F(-3), F(6)), (F(1), F(2))]
)
K3_EXCEPTIONAL = ((F(1), F(2)), (F(-1), F(-2)))
QUAD_RADICANDS = (17, 41, 89)
SELFTEST_BITS = (64, 128, 256)


class OracleError(AssertionError):
    """An operation's output differs from the oracle."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise OracleError(msg)


def stratified(rng: random.Random, lo: float, hi: float, n: int) -> List[float]:
    """One uniform draw from each of n equal slices of [lo, hi], shuffled."""
    width = (hi - lo) / n
    out = [lo + width * (i + rng.random()) for i in range(n)]
    rng.shuffle(out)
    return out


def height_box_pairs(rng, heights, boxes, n) -> List[tuple]:
    """n (height, box) pairs, each stratified over its range."""
    hs = stratified(rng, *heights, n)
    bs = stratified(rng, *boxes, n)
    return [(round(h), round(b)) for h, b in zip(hs, bs)]


def ks_height(pt) -> int:
    z = pt[0]
    return max(abs(z.numerator), z.denominator)


# ---------------------------------------------------------------------------
# precision margins


def _log2(x: Fraction) -> float:
    return math.log2(x.numerator) - math.log2(x.denominator)


def residual_margins(rep) -> List[float]:
    """Bits by which each tower residual's |r| + radius clears 2^-(P/2)."""
    keep = rep.prec - rep.threshold_bits()
    return [keep - math.log2(abs(r.mantissa) + r.errbits)
            for r in rep.residuals.values()]


def pair_margin(rep, a3: int) -> float:
    """Bits by which recover_pair's integrality defect for the pair with
    first entry a3 (at the W that verify_tower computed) clears 2^-(P/4)."""
    threshold = Fraction(1, 1 << (rep.prec // 4))
    w = rep.values["W"]
    n, defect = w.nearest_int()
    total = defect + w.error_radius()
    if not (n == 2 and total < threshold):
        c = (8 - w.pow_int(3)) / (2 * w)
        b = a3 * w + c
        _, defect = b.nearest_int()
        total = defect + b.error_radius()
    return _log2(threshold) - _log2(total)


def j_margin(ctx) -> float:
    """Bits by which j_invariant's integrality defect clears 2^-(P/4); the
    quotient is formed at the same boosted precision j_invariant uses."""
    P = ctx.prec
    guard = math.ceil(math.pi * math.sqrt(ctx.d) / math.log(2)) + 32
    w = modular.schlafli_w(modular.ModularContext.create(ctx.d, prec=P + guard))
    u = w.pow_int(8) / 16
    jf = (u.pow_int(3) - 48 * u.pow_int(2) + 768 * u - 4096) / u
    _, defect = jf.nearest_int()
    return -(P // 4) - _log2(defect + jf.error_radius())


def default_precision_margin() -> float:
    """Smallest margin over the six class-number-one towers at the default
    precision: every residual, the pair defect and the j defect.  These are
    the checks `curveatlas report` makes."""
    margins = []
    for d in modular.CLASS_NUMBER_ONE_DS:
        ctx = modular.ModularContext.create(d)
        rep = modular.verify_tower(ctx, EXPECTED_PAIRS[d], K1_LABELS[d])
        margins += residual_margins(rep)
        margins.append(pair_margin(rep, EXPECTED_PAIRS[d][0]))
        margins.append(j_margin(ctx))
    return min(margins)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""

    def round(self, rng: random.Random) -> list:
        raise NotImplementedError

    def op(self, inp, traced: bool = False):
        raise NotImplementedError

    def check(self, inp, out) -> Optional[List[float]]:
        """Raise OracleError on a wrong output; return the precision margins
        (bits) the output shows, if the operation has any."""
        raise NotImplementedError

    def describe(self, inp):
        return inp


class Report(Workload):
    """`curveatlas report --format json --out FILE --height H --box B`."""

    name = "report"

    def __init__(self, work_dir: Path, src_dir: Path, tiny: bool = False):
        self.out = Path(work_dir) / "report.json"
        with open(Path(src_dir) / "curveatlas" / "report_schema.json") as fh:
            self.validator = jsonschema.Draft202012Validator(json.load(fh))
        self.size = 2 if tiny else 9
        self.heights = (20, 24) if tiny else (190, 210)
        self.boxes = (18, 20) if tiny else (45, 55)

    def round(self, rng):
        return height_box_pairs(rng, self.heights, self.boxes, self.size)

    def op(self, inp, traced=False):
        height, box = inp
        return cli.main([
            "report", "--format", "json", "--out", str(self.out),
            "--height", str(height), "--box", str(box),
        ])

    def check(self, inp, out):
        height, box = inp
        expect(out == 0, f"report exit code {out}")
        with open(self.out) as fh:
            data = json.load(fh)
        errors = sorted(self.validator.iter_errors(data), key=str)
        expect(not errors, f"report JSON fails its schema: {errors[:1]}")
        checks = data["checks"]
        bad = [c["id"] for c in checks if c["status"] != "pass"]
        expect(not bad, f"failing checks: {bad[:5]}")
        ids = [c["id"] for c in checks]
        details = {c["id"]: c.get("details", "") for c in checks}
        required = [
            "singular:K3", "map:commuting-square", "map:euler-resolvent",
            f"search:Ks:bound={height}", f"search:K3:bound={box}",
            f"search:K1:bound={box}",
        ] + [f"selftest:product:P={p}" for p in SELFTEST_BITS]
        for d, pair in EXPECTED_PAIRS.items():
            rid = f"tower:d={d}:recover"
            required += [rid, f"tower:d={d}:j-cube"]
            expect(f"recovered (a3,b3)={pair}" in details.get(rid, ""),
                   f"{rid}: {details.get(rid)}")
        missing = [r for r in required if r not in ids]
        expect(not missing, f"missing checks: {missing}")
        expect(sum(i.startswith("point:") for i in ids) == 29, "point checks != 29")
        counts = {
            "Ks": sum(ks_height(p) <= height for p in KS_POINTS),
            "K3": sum(abs(p[0]) <= box for p in K3_INTEGRAL),
            "K1": sum(abs(p[0]) <= box for p in K1_INTEGRAL),
        }
        for curve, n in counts.items():
            found = sum(i.startswith(f"search:{curve}:point:") for i in ids)
            expect(found == n, f"{curve} search reported {found} points, expected {n}")


def _phi_sum(n: int) -> int:
    """sum of Euler's phi(k) for k = 1..n, by a sieve."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return sum(phi[1:])


class SearchSweep(Workload):
    """search_ks(H) then search_integral on K1 and K3 with |x| <= B, each
    reconciled against the embedded table."""

    name = "search-sweep"
    partitions = 4

    def __init__(self, jobs: int, tiny: bool = False):
        self.jobs = jobs
        self.size = 2 if tiny else 5
        self.heights = (20, 24) if tiny else (300, 500)
        self.boxes = (18, 20) if tiny else (100, 200)
        self._ks_scanned: Dict[int, int] = {}

    def round(self, rng):
        return height_box_pairs(rng, self.heights, self.boxes, self.size)

    def op(self, inp, traced=False):
        height, box = inp
        jobs = 1 if traced else self.jobs
        ks = search.search_ks(height, partitions=self.partitions, jobs=jobs)
        k1 = search.search_integral(CurveId.K1, box, partitions=self.partitions, jobs=jobs)
        k3 = search.search_integral(CurveId.K3, box, partitions=self.partitions, jobs=jobs)
        results = []
        for res in (ks, k1, k3):
            table = [r for r in curves.rational_paper_points(res.spec.curve)
                     if res.spec.curve is CurveId.KS
                     or (r.pt[0].denominator == 1 and r.pt[1].denominator == 1)]
            results.append((res, search.reconcile(res, table)))
        return results

    def ks_scanned(self, height: int) -> int:
        # reduced p/q with |p| <= H, 1 <= q <= H: 0/1 plus +-p/q for coprime
        # p, q in [1, H], of which there are 2*Phi(H) - 1
        if height not in self._ks_scanned:
            self._ks_scanned[height] = 4 * _phi_sum(height) - 1
        return self._ks_scanned[height]

    def check(self, inp, out):
        height, box = inp
        expect(len(out) == 3, "expected three search results")
        cases = [
            (KS_POINTS, lambda p: ks_height(p) <= height, self.ks_scanned(height)),
            (K1_INTEGRAL, lambda p: abs(p[0]) <= box, 2 * box + 1),
            (K3_INTEGRAL, lambda p: abs(p[0]) <= box, 2 * box + 1),
        ]
        for (res, rec), (table, within, scanned) in zip(out, cases):
            curve = res.spec.curve
            expected = {p for p in table if within(p)}
            found = {r.pt for r in res.found}
            expect(found == expected,
                   f"{curve}: missing {sorted(expected - found)[:3]}, "
                   f"extra {sorted(found - expected)[:3]}")
            expect(len(res.found) == len(found), f"{curve}: duplicate points")
            expect(res.scanned == scanned, f"{curve}: scanned {res.scanned}, expected {scanned}")
            expect(not rec.search_only and set(rec.both) == expected
                   and set(rec.paper_only) == set(table) - expected,
                   f"{curve}: reconcile mismatch")
            if expected == set(table):
                expect(rec.clean(), f"{curve}: reconcile not clean")


class TowerPrecision(Workload):
    """ModularContext.create(d, P), recover_pair, j_invariant, verify_tower
    and weber_product_selftest(P) for one class-number-one d."""

    name = "tower-precision"

    def __init__(self, tiny: bool = False):
        # per d and round: P = default once, 2048 twice, 4096 and 8192 once,
        # so the median and the tail fall inside a precision band, not on
        # the edge between two
        self.slots = (None, 256) if tiny else (None, 2048, 2048, 4096, 8192)

    def round(self, rng):
        ops = [(d, p) for d in modular.CLASS_NUMBER_ONE_DS for p in self.slots]
        rng.shuffle(ops)
        return ops

    def op(self, inp, traced=False):
        d, prec = inp
        ctx = modular.ModularContext.create(d, prec)
        pair = modular.recover_pair(ctx)
        j = modular.j_invariant(ctx)
        a3b3, al3be3 = modular.paper_labels(d)
        rep = modular.verify_tower(ctx, a3b3, al3be3)
        selftest = modular.weber_product_selftest(ctx.prec)
        return {"prec": ctx.prec, "labels": a3b3, "pair": pair, "j": j,
                "tower": rep, "selftest": selftest}

    def check(self, inp, out):
        d, _ = inp
        P = out["prec"]
        expect(out["pair"] == EXPECTED_PAIRS[d] == out["labels"],
               f"d={d}: pair {out['pair']}, labels {out['labels']}, "
               f"expected {EXPECTED_PAIRS[d]}")
        expect(out["j"] == EXPECTED_J[d], f"d={d}: j {out['j']}, expected {EXPECTED_J[d]}")
        rep = out["tower"]
        expect(rep.j == EXPECTED_J[d], f"d={d}: tower j {rep.j}")
        expect(rep.prec == P, f"d={d}: tower precision {rep.prec}, expected {P}")
        expect(not rep.failed(), f"d={d} P={P}: residuals fail: {rep.failed()}")
        expected_eqs = {"eq2.1", "eq2.2", "eq2.3"} | (
            {"V^3-16"} if d == 3 else {"eq3.1", "eq3.2", "eq3.3"})
        expect(set(rep.residuals) == expected_eqs,
               f"d={d}: residuals {sorted(rep.residuals)}")
        defect = abs(out["selftest"].to_fraction())
        expect(defect < Fraction(1, 1 << (P - 8)), f"P={P}: product self-test defect")
        margins = residual_margins(rep) + [pair_margin(rep, out["pair"][0])]
        expect(min(margins) > 0, f"d={d} P={P}: negative margin")
        return margins


def _k6(a2, b2):
    return 2 * a2**4 - 4 * a2 * a2 * b2 + b2 * b2 + 8 * a2 - 6


def _ks(z, w):
    return w * w - 2 * z * (z**4 + 4 * z**3 - 2 * z * z + 4 * z + 1)


def _chain(p) -> list:
    """k1_to_ks -> ks_to_k3 -> k3_to_ks, stopping at the first domain error."""
    out = []
    try:
        for f in (maps.k1_to_ks, maps.ks_to_k3, maps.k3_to_ks):
            p = f(p)
            out.append(p)
    except MapDomainError as e:
        out.append(e)
    return out


class MapsBatch(Workload):
    """A batch of seeded pairs through the maps API plus the table round
    trips."""

    name = "maps-batch"

    def __init__(self, tiny: bool = False):
        self.size = 2 if tiny else 8
        self.pairs = 4 if tiny else 40
        self.zero_al3 = 1 if tiny else 3
        self.bits = (4, 64)

    def round(self, rng):
        batches = []
        for bits in stratified(rng, *self.bits, self.size):
            h = 1 << round(bits)
            pairs = [
                (F(rng.randint(-h, h), rng.randint(1, h)),
                 F(rng.randint(-h, h), rng.randint(1, h)))
                for _ in range(self.pairs)
            ]
            for i in rng.sample(range(self.pairs), self.zero_al3):
                pairs[i] = (F(0), pairs[i][1])
            for m in QUAD_RADICANDS:
                pairs.append(tuple(
                    QuadRat(m, F(rng.randint(-16, 16), rng.randint(1, 16)),
                            F(rng.randint(-16, 16), rng.randint(1, 16)))
                    for _ in range(2)))
            batches.append((round(bits), pairs))
        return batches

    def describe(self, inp):
        return {"bits": inp[0], "pairs": len(inp[1])}

    def op(self, inp, traced=False):
        _, pairs = inp
        rows = []
        for p in pairs:
            cover = maps.cover_k3_to_k6(p)
            rows.append((
                maps.cover_k3_to_k6(maps.k1_to_k3(p)),
                maps.k2_to_k6(maps.pair_k1_to_k2(p)),
                maps.euler_resolvent_check(p),
                cover,
                maps.pell_params(cover),
                _chain(p),
            ))
        return rows, self.table_round_trips()

    @staticmethod
    def table_round_trips() -> dict:
        ks = {}
        for rec in curves.paper_points(CurveId.KS):
            xy = maps.ks_to_k3(rec.pt)
            ks[rec.pt] = (xy, maps.k3_to_ks(xy))
        exceptional = []
        for pt in K3_EXCEPTIONAL:
            try:
                exceptional.append(maps.k3_to_ks(pt))
            except MapDomainError as e:
                exceptional.append(e)
        k3 = []
        for rec in curves.paper_points(CurveId.K3):
            cover = maps.cover_k3_to_k6(rec.pt)
            k3.append((rec.d, cover, maps.pell_params(cover)))
        k1 = []
        for rec in curves.paper_points(CurveId.K1):
            try:
                to_ks = maps.k1_to_ks(rec.pt)
            except MapDomainError as e:
                to_ks = e
            k1.append((rec.d, rec.pt, maps.k1_to_k3(rec.pt), to_ks))
        return {"ks": ks, "exceptional": exceptional, "k3": k3, "k1": k1}

    def check(self, inp, out):
        _, pairs = inp
        rows, table = out
        expect(len(rows) == len(pairs), "one result row per pair")
        for p, (lhs, rhs, euler, cover, pell, chain) in zip(pairs, rows):
            expect(lhs == rhs, f"commuting square fails at {p}")
            expect(euler is True, f"Euler resolvent fails at {p}")
            a3, b3 = p
            expect(cover == (a3 * a3 - b3, (b3 * b3 - 8 * a3) / 2), f"cover at {p}")
            self._check_pell(cover, pell, p)
            self._check_chain(p, chain)
        self._check_table(table)

    @staticmethod
    def _check_pell(cover, pell, where):
        a2, b2 = cover
        if a2 == 1:
            expect(pell is None, f"Pell parameters defined at a2 = 1 ({where})")
            return
        expect(pell is not None and pell.k * (a2 - 1) == b2 - 2
               and pell.u == pell.k / 2 - (a2 + 1) and pell.v == (a2 + 1) / 2,
               f"Pell parameters at {where}")

    @staticmethod
    def _check_chain(p, chain):
        al3, be3 = p
        if al3 == 0:
            expect(len(chain) == 1 and isinstance(chain[0], MapDomainError),
                   f"k1_to_ks at al3 = 0 must raise ({p})")
            return
        expect(chain and not isinstance(chain[0], MapDomainError), f"k1_to_ks raised at {p}")
        z, w = chain[0]
        expect((z + 1) * al3 * al3 == be3
               and w == 4 * (z - 2) / al3**3 - 2 * (3 * z * z - 2 * z - 1),
               f"k1_to_ks value at {p}")
        den = z**4 + 4 * z**3 - 2 * z * z - 12 * z + 1
        expect(len(chain) >= 2, f"chain stopped early at {p}")
        if den == 0:
            expect(isinstance(chain[1], MapDomainError), f"ks_to_k3 must raise at {p}")
            return
        expect(not isinstance(chain[1], MapDomainError), f"ks_to_k3 raised at {p}")
        x, y = chain[1]
        expect(x * den == -(z**4 + 8 * z**3 + 2 * w * z + 18 * z * z + 6 * w - 3),
               f"ks_to_k3 x-coordinate at {p}")
        expect(len(chain) == 3, f"chain stopped early at {p}")
        z_den = 2 * x**4 + 2 * x**3 - 3 * x * x * y - 2 * x * y + 6 * x - y + 2
        if isinstance(chain[2], MapDomainError):
            vanishing = [x - 1, x * x + 1, x * x - 2 * x - 1, x * x + 2 * x + 3, x + 1, z_den]
            expect(any(v == 0 for v in vanishing), f"spurious k3_to_ks domain error at {p}")
            return
        z2, _ = chain[2]
        expect((1 - z2) * z_den == 4 * x**3 - 4 * x * y - y * y + 4 * x + 4,
               f"k3_to_ks z-coordinate at {p}")

    @staticmethod
    def _check_table(table):
        ks = table["ks"]
        expect(set(ks) == KS_POINTS, "KS table points")
        for zw, (xy, back) in ks.items():
            expect(xy == KS_TO_K3[zw], f"ks_to_k3{zw} = {xy}, expected {KS_TO_K3[zw]}")
            expect(back == zw, f"k3_to_ks round trip of {zw} gives {back}")
        expect(all(isinstance(e, MapDomainError) for e in table["exceptional"]),
               "exceptional K3 points must raise")
        expect(len(table["k3"]) == 14, "K3 table size")
        for d, cover, pell in table["k3"]:
            expect(_k6(*cover) == 0, f"K3 -> K6 image {cover} off K6")
            MapsBatch._check_pell(cover, pell, cover)
            if pell is not None:
                expect(pell.u**2 - 2 * pell.v**2 == 1, f"Pell residual at {cover}")
            if d in PELL_TRIPLES:
                expect((pell.k, pell.u, pell.v) == PELL_TRIPLES[d], f"Pell triple d={d}")
        expect({d for d, *_ in table["k1"]} == set(K1_LABELS), "K1 table labels")
        for d, pt, k3, to_ks in table["k1"]:
            expect(pt == tuple(map(F, K1_LABELS[d])), f"K1 point for d={d}")
            expect(k3 == EXPECTED_PAIRS[d], f"k1_to_k3 for d={d} gives {k3}")
            if pt[0] == 0:
                expect(isinstance(to_ks, MapDomainError), f"k1_to_ks d={d} must raise")
            else:
                expect(not isinstance(to_ks, MapDomainError) and _ks(*to_ks) == 0,
                       f"k1_to_ks image for d={d} off KS")


def make(name: str, work_dir: Path, src_dir: Path, jobs: int, tiny: bool = False) -> Workload:
    if name == "report":
        return Report(work_dir, src_dir, tiny)
    if name == "search-sweep":
        return SearchSweep(jobs, tiny)
    if name == "tower-precision":
        return TowerPrecision(tiny)
    if name == "maps-batch":
        return MapsBatch(tiny)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("report", "search-sweep", "tower-precision", "maps-batch")
