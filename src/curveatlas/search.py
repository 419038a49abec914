"""Exhaustive exact searches: rational points of bounded height on the
hyperelliptic model KS, and integral points in x-boxes on K1/K3.

KS search: w^2 = f(z) makes the z-height the complete parameter; for every
reduced z = p/q with |p| <= H and 1 <= q <= H the value f(z) is computed
exactly and tested for rational squareness.  Since f(p/q) = n/q^6 with the
integer n = 2p*e*q, f(p/q) is a square in Q iff n is a perfect square.  A
cheap prefilter rejects n < 0 and n that are not quadratic residues mod 64,
63 and 65 (necessary conditions only); every survivor is decided by the
exact ``rational_sqrt`` test.  Work splits into residue classes of p for
reproducible parallel chunks.

Integral search: for each integer x in [-B, B] the curve polynomial
specializes to a monic (in y) integer quartic whose integer roots are
extracted exactly by ``integer_roots``: the real roots of the derivatives
bracket the quartic into monotone pieces, and integer bisection inside each
piece, within an integer Fujiwara bound, pins every root.  No scan bound on
y is needed since integer roots of a monic integer polynomial are finite and
found exactly.
"""

from __future__ import annotations

import enum
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import List, Optional, Tuple

from .curves import CurveId, PointRecord, Provenance, defining_poly, is_on_curve
from .kernel import integer_roots, maybe_square, rational_sqrt


class SearchMode(enum.Enum):
    RATIONAL_HEIGHT = "rational-height"
    INTEGRAL_BOX = "integral-box"


@dataclass(frozen=True)
class SearchSpec:
    curve: CurveId
    mode: SearchMode
    bound: int
    partitions: int = 1

    def __post_init__(self):
        if self.bound < 1:
            raise ValueError("bound must be >= 1")
        if self.partitions < 1:
            raise ValueError("partitions must be >= 1")
        if self.mode is SearchMode.RATIONAL_HEIGHT and self.curve is not CurveId.KS:
            raise ValueError("rational-height search is defined for Ks only")
        if self.mode is SearchMode.INTEGRAL_BOX and self.curve not in (
            CurveId.K1, CurveId.K3
        ):
            raise ValueError("integral-box search is defined for K1/K3 only")


@dataclass
class SearchResult:
    spec: SearchSpec
    found: List[PointRecord]
    scanned: int
    elapsed: float

    def points(self) -> List[Tuple[Fraction, Fraction]]:
        return [r.pt for r in self.found]


@dataclass
class ReconcileReport:
    both: List[tuple]
    paper_only: List[tuple]
    search_only: List[tuple]

    def clean(self) -> bool:
        return not self.paper_only and not self.search_only


# -- KS rational-height search ----------------------------------------------


def _ks_scan_class(args) -> Tuple[List[Tuple[Fraction, Fraction]], int]:
    """Scan the residue class p = residue (mod partitions) of the z-numerator."""
    H, residue, partitions = args
    hits: List[Tuple[Fraction, Fraction]] = []
    scanned = 0
    for p in range(-H + (residue + H) % partitions, H + 1, partitions):
        # e = p^4 + 4p^3 q - 2p^2 q^2 + 4p q^3 + q^4, by Horner in q
        c3, c2, c1, c0 = 4 * p, 2 * p * p, 4 * p**3, p**4
        for q in range(1, H + 1):
            if gcd(p, q) != 1:
                continue
            scanned += 1
            # f(p/q) = 2p*e / q^5 = n / q^6 with n = 2p*e*q
            num = 2 * p * ((((q + c3) * q - c2) * q + c1) * q + c0)
            if num < 0:
                continue
            if not maybe_square(num * q):
                continue
            r = rational_sqrt(Fraction(num, q**5))
            if r is None:
                continue
            z = Fraction(p, q)
            if r == 0:
                hits.append((z, Fraction(0)))
            else:
                hits.append((z, r))
                hits.append((z, -r))
    return hits, scanned


def search_ks(H: int, partitions: int = 1, jobs: int = 1) -> SearchResult:
    """All affine rational points (z, w) on KS with height(z) <= H.

    Complete within the bound: w is determined up to sign by the exact
    square test, so no scan over w is needed.
    """
    spec = SearchSpec(CurveId.KS, SearchMode.RATIONAL_HEIGHT, H, partitions)
    start = time.monotonic()
    partitions = min(partitions, 2 * H + 1)  # further classes hold no p
    tasks = [(H, r, partitions) for r in range(partitions)]
    if jobs > 1 and partitions > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, partitions)) as pool:
            parts = list(pool.map(_ks_scan_class, tasks))
    else:
        parts = [_ks_scan_class(t) for t in tasks]
    hits: List[Tuple[Fraction, Fraction]] = []
    scanned = 0
    for h, s in parts:
        hits.extend(h)
        scanned += s
    hits = sorted(set(hits))
    records = []
    for pt in hits:
        if not is_on_curve(CurveId.KS, pt):  # independent re-check
            raise AssertionError(f"search emitted off-curve point {pt}")
        records.append(PointRecord(CurveId.KS, pt, Provenance.SEARCH))
    return SearchResult(spec, records, scanned, time.monotonic() - start)


# -- integral box search -----------------------------------------------------


def _integral_scan_class(args) -> Tuple[List[Tuple[Fraction, Fraction]], int]:
    curve_name, B, residue, partitions = args
    poly = defining_poly(CurveId[curve_name])
    hits: List[Tuple[Fraction, Fraction]] = []
    scanned = 0
    for x0 in range(-B + (residue + B) % partitions, B + 1, partitions):
        scanned += 1
        for y0 in integer_roots(poly.specialize_x(x0)):
            hits.append((Fraction(x0), Fraction(y0)))
    return hits, scanned


def search_integral(
    curve: CurveId, B: int, partitions: int = 1, jobs: int = 1
) -> SearchResult:
    """All integral points (x, y) on K1 or K3 with |x| <= B.

    y is unconstrained: for fixed x the defining polynomial is monic of
    degree 4 in y, so its integer roots are determined exactly.
    """
    spec = SearchSpec(curve, SearchMode.INTEGRAL_BOX, B, partitions)
    start = time.monotonic()
    partitions = min(partitions, 2 * B + 1)  # further classes hold no x
    tasks = [(curve.name, B, r, partitions) for r in range(partitions)]
    if jobs > 1 and partitions > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, partitions)) as pool:
            parts = list(pool.map(_integral_scan_class, tasks))
    else:
        parts = [_integral_scan_class(t) for t in tasks]
    hits: List[Tuple[Fraction, Fraction]] = []
    scanned = 0
    for h, s in parts:
        hits.extend(h)
        scanned += s
    hits = sorted(set(hits))
    records = []
    for pt in hits:
        if not is_on_curve(curve, pt):
            raise AssertionError(f"search emitted off-curve point {pt}")
        records.append(PointRecord(curve, pt, Provenance.SEARCH))
    return SearchResult(spec, records, scanned, time.monotonic() - start)


def reconcile(found: SearchResult, table: List[PointRecord]) -> ReconcileReport:
    """Set comparison of search output against an embedded table.

    A nonempty search_only bucket means the search found a point the table
    does not list: a red flag for the whole artifact.
    """
    for rec in table:
        if rec.curve is not found.spec.curve:
            raise ValueError("reconcile requires records of the same curve")
    f = {r.pt for r in found.found}
    t = {r.pt for r in table}
    return ReconcileReport(
        both=sorted(f & t),
        paper_only=sorted(t - f),
        search_only=sorted(f - t),
    )
