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
odd), and each must be a square.  So the scan visits only p = +-2s^2
with q an odd square, p = +- an odd square with q = 2t^2, and both odd
squares (Theta(H) pairs), plus z = 0.  The sign test p e > 0 and a
mod-64/63/65 prefilter act on the one factor left open, |e| or 2|e|; a
survivor gets the exact test ``rational_sqrt`` on n, and w = sqrt(n)/q^3.
``scanned`` counts the reduced p/q the lemma covers, 4 Phi(H) - 1, with
Phi(H) = phi(1) + ... + phi(H) from n(n+1)/2 = sum_{d>=1} Phi(n // d).

Integral search: for each integer x in [-B, B] the curve polynomial
specializes to a monic (in y) integer quartic whose integer roots are
extracted exactly by ``integer_roots``: the real roots of the derivatives
bracket the quartic into monotone pieces, and integer bisection inside each
piece, within an integer Fujiwara bound, pins every root.  A local
solubility sieve runs first: a table per modulus m, built once per curve
and m, records which x mod m give a quartic with a root mod m, and only
the moduli that reject some residue are used.  An integer root is a root
mod every m, so an x that some table rejects has no integral point.  The
sieve is sized to the bound B: every prime power m <= 64, then the primes
67, 71, 73, ... in order while the expected number of survivors, (2B + 1)
times the product of the table densities, is at least 1, and never past
the prime 251.  The scan strides through the residues the most selective
table allows.  For |x| <= 200 the sieve leaves 4 of 401 x on K1 and 6 on
K3, exactly the x of the integral points; at |x| <= 10^6 it leaves 5 and 8.

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
from .kernel import integer_roots, maybe_square, rational_sqrt


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


# -- KS rational-height search ----------------------------------------------


def _totient_sum(n: int) -> int:
    """phi(1) + ... + phi(n) in O(n^(3/4)) time and O(sqrt n) memory."""
    memo = {}
    def phi_sum(m: int) -> int:
        if m not in memo:
            total, d = m * (m + 1) // 2, 2
            while d <= m:  # all d with the quotient m // d at once
                d_end = m // (m // d) + 1
                total -= (d_end - d) * phi_sum(m // d)
                d = d_end
            memo[m] = total
        return memo[m]
    return phi_sum(n)


def search_ks(H: int, partitions: int = 1, jobs: int = 1) -> SearchResult:
    """All affine rational points (z, w) on KS with height(z) <= H.

    Complete within the bound by the lemma in the module docstring; w is
    determined up to sign by the exact square test.
    """
    spec = _spec(CurveId.KS, H, partitions, jobs)
    start = time.monotonic()
    odd = [s * s for s in range(1, isqrt(H) + 1, 2)]
    twice = [2 * t * t for t in range(1, isqrt(H // 2) + 1)]
    # (q, k) for even and odd |p|: k|e| is the factor of n left to test
    q_for = ([(q, 1) for q in odd], [(q, 1) for q in twice] + [(q, 2) for q in odd])
    hits = [(Fraction(0), Fraction(0))]  # z = 0: f(0) = 0
    candidates = 0
    for a in twice + odd:
        qs = [(q, k) for q, k in q_for[a & 1] if gcd(a, q) == 1]
        for p in (a, -a):
            # e = p^4 + 4p^3 q - 2p^2 q^2 + 4p q^3 + q^4, by Horner in q
            c3, c2, c1, c0 = 4 * p, 2 * p * p, 4 * p**3, p**4
            for q, k in qs:
                e = (((q + c3) * q - c2) * q + c1) * q + c0
                if p * e <= 0 or not maybe_square(k * abs(e)):
                    continue
                candidates += 1
                r = rational_sqrt(2 * p * e * q)
                if r is not None:
                    z, w = Fraction(p, q), r / q**3
                    hits += [(z, w), (z, -w)]
    return _result(spec, start, sorted(set(hits)), 4 * _totient_sum(H) - 1,
                   candidates)


# -- integral box search -----------------------------------------------------

# the prime powers m <= 64 that divide no other (a root mod m is also one
# mod every divisor of m, so the divisors would reject nothing more), then
# the primes from 67 to 251: a cap that no bound <= 10^6 reaches (K1 stops
# at 181 there), so the walk ends whatever the table densities
_SIEVE_MODULI = (64, 27, 25, 49, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61) + tuple(
    p for p in range(67, 252) if all(p % q for q in range(2, isqrt(p) + 1)))


class _Table(bytes):
    """A sieve table with its density, the share of the residues it passes."""
    density: float


@lru_cache(maxsize=None)
def _table(curve: CurveId, m: int) -> _Table:
    """table[x % m] = 1 iff the fibre quartic at x has a root mod m."""
    poly = defining_poly(curve)
    table = bytearray(m)
    for x in range(m):
        coeffs = poly.specialize_x(x)
        high_to_low = [coeffs.get(j, 0) % m for j in range(max(coeffs), -1, -1)]
        for y in range(m):
            acc = 0
            for c in high_to_low:
                acc = acc * y + c
            if acc % m == 0:
                table[x] = 1
                break
    table = _Table(table)
    table.density = sum(table) / m
    return table


def _sieve(curve: CurveId, B: int) -> Tuple[Tuple[int, bytes], ...]:
    """(m, table) for the moduli that reject some x and that a box |x| <= B
    needs, most selective first: every m <= 64, then the primes in order
    while (2B + 1) times the product of the table densities is >= 1."""
    expected, walked = 2 * B + 1, 0
    for m in _SIEVE_MODULI:
        if m > 64 and expected < 1:
            break
        expected *= _table(curve, m).density
        walked += 1
    return _plan(curve, walked)


@lru_cache(maxsize=None)
def _plan(curve: CurveId, walked: int) -> Tuple[Tuple[int, bytes], ...]:
    """_sieve's selection from the first `walked` moduli: one plan per
    number of primes added, so at most 37 per curve, whatever the bound."""
    used = sorted((_table(curve, m).density, m) for m in _SIEVE_MODULI[:walked])
    return tuple((m, _table(curve, m)) for density, m in used if density < 1)


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
    poly, sieve = defining_poly(curve), _sieve(curve, B)
    (m0, t0), rest = sieve[0], sieve[1:]
    hits: List[Tuple[int, int]] = []
    candidates = 0
    for r in (r for r in range(m0) if t0[r]):
        for x0 in range(-B + (r + B) % m0, B + 1, m0):
            for m, table in rest:
                if not table[x0 % m]:
                    break
            else:
                candidates += 1
                for y0 in integer_roots(poly.specialize_x(x0)):
                    hits.append((x0, y0))
    points = [(Fraction(x), Fraction(y)) for x, y in sorted(set(hits))]
    return _result(spec, start, points, 2 * B + 1, candidates)


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
