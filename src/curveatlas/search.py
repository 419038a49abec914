"""Exhaustive exact searches: rational points of bounded height on the
hyperelliptic model KS, and integral points in x-boxes on K1/K3.  Both do
work about linear in the bound, in one process.

KS search: w^2 = f(z) makes the z-height the complete parameter.  For
reduced z = p/q with |p| <= H and 1 <= q <= H, f(p/q) = n/q^6 with the
integer n = 2p*e*q, e = p^4 + 4p^3 q - 2p^2 q^2 + 4p q^3 + q^4, so f(z) is a
square in Q iff n is a perfect square.

Lemma: if n is a square, then |p| and q are each a square or twice a square
(p = 0 is the point z = 0).  Proof sketch: e = q^4 (mod p) and e = p^4
(mod q), so p, q and e are pairwise coprime.  If p and q are both odd, then
p^4 = q^4 = 1 and 4pq(p^2 + q^2) = 8 (mod 16), so e = 1 + 8 - 2 + 1 = 8
(mod 16): v2(e) = 3.  Hence n > 0 splits into pairwise coprime factors
{2|p|, |e|, q} (p even), {|p|, |e|, 2q} (q even) or {|p|, 2|e|, q} (both
odd), and each must be a square.  So z = 0 or p = sign*cp*s^2,
q = cq*t^2 in one of the classes (cp, cq, k) = (2, 1, 1), (1, 2, 1),
(1, 1, 2), with s odd where cp = 1 and t odd where cq = 1, and the factor
left open, k|e| = k*sign*e, a perfect square.

Involution: e is palindromic, e(1/z) = e(z)/z^4, so f(1/z) =
(2/z) e(z)/z^4 = f(z)/z^6 and sigma(z, w) = (1/z, w/z^3) maps KS to itself.
sigma is its own inverse and keeps the height, and it maps the reduced
pairs of the class (2, 1, 1) one-to-one onto those of (1, 2, 1), s and t
swapped, and (1, 1, 2) onto itself.  So the scan visits only (2, 1, 1) and
(1, 1, 2), Theta(H) pairs, and adds z = 0 and sigma of each hit.

Residue sieve: k*sign*e is a square mod every m, and e mod m depends on
s and t mod m only.  A table per (class, sign, m) stores row s % m as an
m-bit int whose bit t % m says whether k*sign*e is a square mod m; for
each s the scan ANDs one row per modulus, each repeated across the t range
by one repunit multiply, and walks only the set bits.  The moduli are
4 (it rejects the class (2, 1, 1) when p < 0: there |e| = 3 mod 4), then
the odd primes in order while (pairs in the class) times the product of
the table densities is >= 1; the tables are built once per process, on
first use.  On the survivors, gcd(s, t) = 1, the sign test p e > 0 and the
exact test ``rational_sqrt`` on n decide, and w = sqrt(n)/q^3.  At H = 200,
400, 10^4 and 10^6 only 3 pairs reach the exact test, the z = 2, 1 and -1
of the rational points (4 with the class (1, 2, 1) scanned too; 90, 194,
4516 and 458192 with the mod-64/63/65 prefilter on k|e| that the sieve
replaced).  ``scanned`` counts the reduced p/q the lemma covers,
4 Phi(H) - 1, with Phi(H) = phi(1) + ... + phi(H) from
n(n+1)/2 = sum_{d>=1} Phi(n // d).

Integral search: for each integer x in [-B, B] the curve polynomial
specializes to a monic (in y) integer quartic whose integer roots are
extracted exactly by ``integer_roots``: its roots mod a small prime at
which they are simple, lifted by Newton steps past twice a root bound and
kept where they are exact roots (on the square-free part at K3's double
point x = 1).  A local solubility sieve of the KS form runs first: a table
per modulus m, built once per curve and m, is one m-bit row whose bit
x % m says whether the quartic at x has a root mod m, by ``roots_mod``,
the residue test of the lift.  An integer root is a root mod every m, so
an x that some table rejects has no integral point.  The sieve is sized to
the bound B: every prime power m <= 64, then the primes 67, 71, 73, ... in
order while the expected number of survivors, (2B + 1) times the product
of the table densities, is at least 1, and never past the prime 251; the
moduli that reject nothing are left out.  The scan ANDs the rows, each
repeated across the 2B + 1 bits of the box, and walks only the set bits.
For |x| <= 200 the sieve leaves 4 of 401 x on K1 and 6 on K3, exactly the
x of the integral points; at |x| <= 10^6 it leaves 5 and 8.

``candidates`` counts the (p, q) or x that reached the exact test.
``SearchSpec.covers`` is the region a bound scans completely (on KS, the set
``scanned`` counts); a table entry inside it must be found.
``search_ks`` and ``search_integral`` still accept ``partitions`` and
``jobs`` keywords, which must be >= 1 and change nothing else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import List, Tuple

from .curves import (CurveId, PointRecord, Provenance, defining_poly,
                     is_integral, is_on_curve)
from .kernel import integer_roots, rational_sqrt, roots_mod


@dataclass(frozen=True)
class SearchSpec:
    curve: CurveId
    bound: int

    def __post_init__(self):
        if self.bound < 1:
            raise ValueError("bound must be >= 1")

    def covers(self, pt: Tuple[Fraction, Fraction]) -> bool:
        """True iff the rational point pt lies in the region the search
        scans completely: height(z) <= bound on KS, |x| <= bound on K1/K3."""
        x = pt[0]
        if self.curve is CurveId.KS:
            return max(abs(x.numerator), x.denominator) <= self.bound
        return is_integral(pt) and abs(x) <= self.bound


@dataclass
class SearchResult:
    spec: SearchSpec
    found: List[PointRecord]
    scanned: int
    elapsed: float
    candidates: int

    def points(self) -> List[Tuple[Fraction, Fraction]]:
        return [r.pt for r in self.found]


@dataclass
class ReconcileReport:
    both: List[tuple]
    paper_only: List[tuple]
    search_only: List[tuple]

    def clean(self) -> bool:
        return not self.paper_only and not self.search_only


def _spec(curve: CurveId, bound: int, partitions: int, jobs: int) -> SearchSpec:
    if min(partitions, jobs) < 1:
        raise ValueError("partitions and jobs must be >= 1")
    return SearchSpec(curve, bound)


def _result(spec: SearchSpec, start: float, points: list, scanned: int,
            candidates: int) -> SearchResult:
    """points: the distinct points found, sorted."""
    records = []
    for pt in points:
        if not is_on_curve(spec.curve, pt):  # independent re-check
            raise AssertionError(f"search emitted off-curve point {pt}")
        records.append(PointRecord(spec.curve, pt, Provenance.SEARCH))
    return SearchResult(spec, records, scanned, time.monotonic() - start,
                        candidates)


# -- residue sieves ----------------------------------------------------------

# the odd primes up to 251: a cap that no bound <= 10^6 reaches, so a
# sieve's walk ends whatever the table densities
_PRIMES = tuple(p for p in range(3, 252, 2)
                if all(p % q for q in range(3, isqrt(p) + 1, 2)))
# integral boxes: the prime powers m <= 64 that divide no other (a root mod
# m is also one mod every divisor of m, so the divisors would reject
# nothing more), then the primes from 67 (K1 stops at 181 at 10^6)
_SIEVE_MODULI = (64, 27, 25, 49) + _PRIMES[_PRIMES.index(11):]
# KS: 4 (it rejects every pair of the class (2, 1, 1) with p < 0, where
# |e| = 3 mod 4), then the odd primes
_KS_MODULI = (4,) + _PRIMES


class _Table(tuple):
    """A sieve table mod m, rows of m-bit ints (one for a box, row s % m on
    KS), with its density: the share of the residues it passes."""
    density: float


def _walk(table, key, moduli: tuple, expected: float, always: int) -> tuple:
    """(m, table(key, m)) for the moduli a sieve needs that reject
    something, most selective first: the first `always` of `moduli`, then
    more in order while `expected` times the product of the table densities
    is >= 1."""
    walked = 0
    for m in moduli:
        if walked >= always and expected < 1:
            break
        expected *= table(key, m).density
        walked += 1
    return _plan(table, key, moduli[:walked])


@lru_cache(maxsize=None)
def _plan(table, key, moduli: tuple) -> tuple:
    """_walk's selection from the walked moduli: one plan per number walked,
    so at most len(moduli) per key, whatever the bound."""
    used = sorted((table(key, m).density, m) for m in moduli)
    return tuple((m, table(key, m)) for density, m in used if density < 1)


def _repunit(m: int, bits: int) -> int:
    """The int with bits 0, m, 2m, ... set, at least `bits` bits long: an
    m-bit row times it repeats the row across those bits."""
    return ((1 << m * -(-bits // m)) - 1) // ((1 << m) - 1)


def _set_bits(mask: int):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


# -- KS rational-height search ----------------------------------------------


@lru_cache(maxsize=None)
def _totient_sum(n: int) -> int:
    """phi(1) + ... + phi(n) in O(n^(3/4)) time and O(sqrt n) memory, with
    one cache for every call: an n or quotient n // d seen before is free."""
    total, d = n * (n + 1) // 2, 2
    while d <= n:  # all d with the quotient n // d at once
        d_end = n // (n // d) + 1
        total -= (d_end - d) * _totient_sum(n // d)
        d = d_end
    return total


def _ks_e(p: int, q: int) -> int:
    """e = p^4 + 4p^3 q - 2p^2 q^2 + 4p q^3 + q^4, by Horner in q."""
    return (((q + 4 * p) * q - 2 * p * p) * q + 4 * p**3) * q + p**4


# the lemma's classes (cp, cq, k) but sigma's (1, 2, 1): p = +-cp s^2,
# q = cq t^2, and k|e| must be a square; s is odd where cp = 1, t where cq = 1
_KS_CLASSES = ((2, 1, 1), (1, 1, 2))


@lru_cache(maxsize=None)
def _ks_table(key: Tuple[Tuple[int, int, int], int], m: int) -> _Table:
    """Bit t % m of row s % m is set iff k*sign*e(sign*cp*s^2, cq*t^2) is a
    square mod m, for key = ((cp, cq, k), sign).  e is evaluated once per
    pair of squares (s^2, t^2) mod m."""
    (cp, cq, k), sign = key
    roots = {}  # y -> the t mod m with t^2 = y mod m, as a bit mask
    for t in range(m):
        roots[t * t % m] = roots.get(t * t % m, 0) | 1 << t
    row_of = {x: sum(ts for y, ts in roots.items()
                     if k * sign * _ks_e(sign * cp * x, cq * y) % m in roots)
              for x in roots}
    table = _Table(row_of[s * s % m] for s in range(m))
    # the class makes s odd where cp = 1 and t odd where cq = 1, which an
    # even m sees: count only those residues
    s_odd, t_odd = m % 2 == 0 and cp == 1, m % 2 == 0 and cq == 1
    s_res, t_res = range(s_odd, m, 1 + s_odd), range(t_odd, m, 1 + t_odd)
    t_mask = sum(1 << t for t in t_res)
    passed = sum((table[s] & t_mask).bit_count() for s in s_res)
    table.density = passed / (len(s_res) * len(t_res))
    return table


def search_ks(H: int, partitions: int = 1, jobs: int = 1) -> SearchResult:
    """All affine rational points (z, w) on KS with height(z) <= H.

    Complete within the bound by the lemma and the involution in the module
    docstring and the sieve's necessary condition; w is determined up to
    sign by the exact square test.
    """
    spec = _spec(CurveId.KS, H, partitions, jobs)
    start = time.monotonic()
    hits = [(Fraction(0), Fraction(0))]  # z = 0: f(0) = 0
    candidates = 0
    for cls in _KS_CLASSES:
        cp, cq, k = cls
        s_all = range(1, isqrt(H // cp) + 1, 1 + (cp == 1))
        t_all = range(1, isqrt(H // cq) + 1, 1 + (cq == 1))
        t_bits, pairs = t_all.stop, len(s_all) * len(t_all)
        t_mask = sum(1 << t for t in t_all)
        for sign in (1, -1):
            plan = [(m, rows, _repunit(m, t_bits))
                    for m, rows in _walk(_ks_table, (cls, sign), _KS_MODULI, pairs, 0)]
            for s in s_all:
                mask = t_mask
                for m, rows, repunit in plan:
                    mask &= rows[s % m] * repunit
                for t in _set_bits(mask):
                    if gcd(s, t) != 1:
                        continue
                    p, q = sign * cp * s * s, cq * t * t
                    e = _ks_e(p, q)
                    if p * e <= 0:
                        continue
                    candidates += 1
                    r = rational_sqrt(2 * p * e * q)
                    if r is not None:
                        z, w = Fraction(p, q), r / q**3
                        hits += [(z, w), (z, -w)]
    # sigma gives the class (1, 2, 1) from (2, 1, 1), and (1, 1, 2) from itself
    hits += [(1 / z, w / z**3) for z, w in hits if z]
    return _result(spec, start, sorted(set(hits)), 4 * _totient_sum(H) - 1,
                   candidates)


# -- integral box search -----------------------------------------------------

@lru_cache(maxsize=None)
def _table(curve: CurveId, m: int) -> _Table:
    """Row bit x % m is set iff the fibre quartic at x has a root mod m."""
    poly = defining_poly(curve)
    row = 0
    for x in range(m):
        coeffs = poly.specialize_x(x)
        fibre = [coeffs.get(j, 0) for j in range(max(coeffs) + 1)]
        if next(roots_mod(fibre, m), None) is not None:
            row |= 1 << x
    table = _Table((row,))
    table.density = row.bit_count() / m
    return table


def _sieve(curve: CurveId, B: int) -> Tuple[Tuple[int, _Table], ...]:
    """(m, table) for the moduli that reject some x and that a box |x| <= B
    needs, most selective first: every m <= 64, then the primes in order
    while (2B + 1) times the product of the table densities is >= 1."""
    return _walk(_table, curve, _SIEVE_MODULI, 2 * B + 1, _SIEVE_MODULI.index(67))


def search_integral(
    curve: CurveId, B: int, partitions: int = 1, jobs: int = 1
) -> SearchResult:
    """All integral points (x, y) on K1 or K3 with |x| <= B.

    y is unconstrained: for fixed x the defining polynomial is monic of
    degree 4 in y, so its integer roots are determined exactly.
    """
    if curve not in (CurveId.K1, CurveId.K3):
        raise ValueError("integral-box search is defined for K1/K3 only")
    spec = _spec(curve, B, partitions, jobs)
    start = time.monotonic()
    poly, n = defining_poly(curve), 2 * B + 1
    mask = (1 << n) - 1  # bit i stands for x = i - B
    for m, (row,) in _sieve(curve, B):
        # bit i is row bit (i - B) % m: the repeated row read from bit -B % m
        mask &= (row * _repunit(m, n + m)) >> (-B % m)
    hits = [(i - B, y) for i in _set_bits(mask)
            for y in integer_roots(poly.specialize_x(i - B))]
    points = [(Fraction(x), Fraction(y)) for x, y in sorted(set(hits))]
    return _result(spec, start, points, n, mask.bit_count())


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
