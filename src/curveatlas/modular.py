"""Multiprecision evaluation of the Stufe-48 q-products at the CM point
(3 + sqrt(-d))/2, integer-pair recovery, the modular j-invariant, and
residual verification of the whole tower of cubics.

At tau = (3 + sqrt(-d))/2 the nome satisfies q^2 = -t with t = exp(-pi*
sqrt(d)), so every product term is real; with |q^(1/4)| = t^(1/8) and the
positivity normalization for the third power of the third Stufe-48 product,
the working value is

    W = 4 * t^(1/8) * prod_{n>=1} (1 + (-1)^n t^n)^3

which satisfies the cubic W^3 - 2*a3*W^2 + 2*b3*W - 8 = 0 with (a3, b3)
the integer pair attached to d when h(-d) = 1.  The rest of the tower
follows the coverings K3 -> K6, K1 -> K2 and K1 -> K3: with S the real cube
root of 2W,

    W = S^3/2,  T = W^2/2,  U = W^8/16,  Z = S^2/2,  V = S^8/16 = U^(1/3).

j and every tower residual come from one W at P + guard(d) (boosted_w), in
one verify_tower call, and are judged at P's thresholds.  The pair comes
from W at P, whose own error keeps its 2**-(P/4) test selective: from a
boosted W, P = 32 sends ~16,600 candidates to the curve test, and P = 16
finds pairs W at P cannot back.  a3 and b3 come whole from one lattice
search; the K1 pair (al3, be3) comes from the table alone (paper_labels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import fixedreal as fr
from .curves import CurveId, is_integral, is_on_curve, paper_points
from .fixedreal import FixedReal, _mul, _rshift_round
from .kernel import band_solutions, integer_root, is_squarefree
from .maps import cover_k3_to_k6, pair_k1_to_k2


class InvalidDiscriminantError(ValueError):
    pass


class RecoveryError(RuntimeError):
    """No unique integer pair, or no integral j (a cube where the tower needs
    one), could be recovered for this d."""


def default_precision(d: int) -> int:
    """Working precision sized to recognize j ~ exp(pi*sqrt(d)) as an
    integer with a wide guard margin."""
    return max(128, math.ceil(1.5 * math.pi * math.sqrt(d) / math.log(2)) + 64)


def series_length(d: int, prec: int) -> int:
    """Truncation length making every neglected product tail < 2**-(prec+8)."""
    return math.ceil(prec * math.log(2) / (math.pi * math.sqrt(d))) + 4


@dataclass(frozen=True)
class ModularContext:
    d: int
    prec: int
    n_terms: int
    t: FixedReal        # exp(-pi*sqrt(d))
    t8: FixedReal       # exp(-pi*sqrt(d)/8)

    @classmethod
    def create(cls, d: int, prec: Optional[int] = None) -> "ModularContext":
        if d <= 0 or d % 8 != 3:
            raise InvalidDiscriminantError(
                f"d must be positive and congruent to 3 mod 8, got {d}"
            )
        if not is_squarefree(d):
            raise InvalidDiscriminantError(f"d must be squarefree, got {d}")
        P = prec if prec is not None else default_precision(d)
        N = series_length(d, P)
        pisd = fr.pi(P) * FixedReal.from_int(d, P).sqrt()
        t8 = fr.exp(pisd / FixedReal.from_int(-8, P))
        t = t8.pow_int(8)
        return cls(d=d, prec=P, n_terms=N, t=t, t8=t8)


def schlafli_w(ctx: ModularContext) -> FixedReal:
    """W = 4 * t^(1/8) * prod_{n=1..N} (1 + (-1)^n t^n)^3, positive.

    The product runs on bare (mantissa, errbits) ints through fixedreal's
    one product step; each factor 1 +- t^n carries t^n's radius."""
    P = ctx.prec
    one = 1 << P
    t, te = ctx.t.mantissa, ctx.t.errbits
    acc, acc_e = one, 0
    tn, tn_e = t, te
    for n in range(1, ctx.n_terms + 1):
        acc, acc_e = _mul(acc, acc_e, one + tn if n % 2 == 0 else one - tn, tn_e, P)
        tn, tn_e = _mul(tn, tn_e, t, te, P)
    w = 4 * ctx.t8 * FixedReal(acc, P, acc_e).pow_int(3)
    # fold the truncation tail (< 2**-(P+8) relative) into the error bound
    w.errbits += (abs(w.mantissa) >> (P + 7)) + 2
    return w


PAIR_SEARCH_BOUND = 10**6
"""Largest |a3| that recover_pair considers."""


def recover_pair(ctx: ModularContext, w: Optional[FixedReal] = None) -> Tuple[int, int]:
    """Recover the integer pair (a3, b3) from W.

    b3 must make (8 + 2*a3*W^2 - W^3)/(2W) = a3*W + c, c = (8 - W^3)/(2W),
    an integer to within 2**-(P/4) counting the tracked error, and (a3, b3)
    must lie exactly on the K3 curve.  Every pair with |a3| <= A =
    PAIR_SEARCH_BOUND that can pass the defect test comes, b3 with a3, from
    an exact lattice search (_pair_candidates), complete, not sampled; each
    is then re-examined by the FixedReal defect a3*W + c - b3 and by exact
    integer curve membership.

    When W is indistinguishable from 2 the cubic degenerates to the triple
    root (W - 2)^3, every integer a3 passes the integrality test, and the
    pair is forced to (3, 6) by matching coefficients.

    Raises RecoveryError when no candidate passes (h(-d) != 1, or the
    precision is too low) and when two different pairs pass.
    """
    P = ctx.prec
    if w is None:
        w = schlafli_w(ctx)
    if (w - 2).magnitude_below(P // 4):
        return (3, 6)

    c = (8 - w.pow_int(3)) / (2 * w)
    found = []
    best = None  # least |defect| + radius, in units of 2^-P
    for a3, b3 in _pair_candidates(w, c):
        dev = a3 * w + c - b3
        units = abs(dev.mantissa) + dev.errbits
        best = units if best is None else min(best, units)
        if dev.magnitude_below(P // 4) and is_on_curve(CurveId.K3, (a3, b3)):
            found.append((a3, b3))
    if not found:
        if best is None:
            closest = f"no |a3| <= {PAIR_SEARCH_BOUND} within 2^-{P // 4}"
        else:
            closest = f"best defect about 2^{best.bit_length() - P - 1}"
        raise RecoveryError(
            f"no pair for d={ctx.d}: h(-d) != 1 or precision too low "
            f"({closest})"
        )
    if len(set(found)) > 1:
        raise RecoveryError(
            f"multiple candidate pairs for d={ctx.d}: {sorted(set(found))}"
        )
    return found[0]


def _pair_candidates(w: FixedReal, c: FixedReal) -> List[Tuple[int, int]]:
    """A superset of the pairs (a, b) with |a| <= PAIR_SEARCH_BOUND for
    which a*w + c - b passes recover_pair's defect test, with b the integer
    nearest a*w + c.

    In units of 2^-P, a*w + c has mantissa a*M_w + M_c and error radius
    e(a) = 2 + (|a| + 1)*w.errbits + c.errbits (FixedReal.__mul__ by an
    exact integer, then __add__), and the test passes when the distance
    from the mantissa to b*2^P plus e(a) is below T = 2^(P - P//4).  A
    passing pair therefore has |a*M_w + M_c - b*2^P| <= ey = T - 1 - e(0)
    and |a| <= ex, the smaller of PAIR_SEARCH_BOUND and the largest |a|
    with (|a| + 1)*w.errbits <= T - 3 - c.errbits.

    The low k bits of both mantissas are then dropped.  With
    M = (M >> k)*2^k + r and 0 <= r < 2^k, |a*r_w + r_c| < (|a| + 1)*2^k,
    so a passing pair also solves the truncated problem, modulo 2^R with
    R = P - k, within ey' = (ey >> k) + ex + 1.  Keeping R = P//4 +
    bitlen(ex) + 8 bits, or all P if fewer, leaves T >> k = 2^(bitlen(ex) +
    8) > 256*ex: the widening adds under 1% to a band near T, while the
    reduction works on numbers about P/4 bits long.

    For P >= 8 (P//4 >= 2) the band's half-width is below half its modulus,
    so b is the integer nearest a*w + c.  If k > 0, R = P//4 + bitlen(ex) +
    8, so ey >> k < 2^(R - 2) and 2*(ex + 1) <= 2^(R - 9), and a returned
    pair has |a*M_w + M_c - b*2^P| < (ey' + ex + 1)*2^k < 2^(P - 1).  If
    k = 0, it has |a*M_w + M_c - b*2^P| <= ey + ex + 1 < 2T <= 2^(P - 1),
    as ey < T and, once w carries an error radius (schlafli_w always adds
    one), ex + 1 < T.
    """
    P = w.prec
    T = 1 << (P - P // 4)
    ey = T - 3 - w.errbits - c.errbits
    ex = PAIR_SEARCH_BOUND
    if w.errbits:
        ex = min(ex, (T - 3 - c.errbits) // w.errbits - 1)
    if ex < 0 or ey < 0:
        return []
    k = max(0, P - (P // 4 + ex.bit_length() + 8))
    return band_solutions(
        w.mantissa >> k, 1 << (P - k), c.mantissa >> k, ex, (ey >> k) + ex + 1
    )


def boosted_w(ctx: ModularContext) -> FixedReal:
    """W at P + guard(d) bits: j and eq2.1 scale W's error by about
    exp(pi*sqrt(d)), so guard(d) = ceil(pi*sqrt(d)/ln 2) + 32."""
    guard = math.ceil(math.pi * math.sqrt(ctx.d) / math.log(2)) + 32
    return schlafli_w(ModularContext.create(ctx.d, prec=ctx.prec + guard))


def j_invariant(ctx: ModularContext) -> int:
    """j from U = W^8 / 16 via (U^3 - 48U^2 + 768U - 4096)/U, rounded to an
    integer; the pre-rounding defect must stay below 2**-(P/4).

    The quotient uses the boosted W and the defect is judged against the
    context's own 2**-(P/4) threshold; verify_tower returns the same j.
    """
    return _j_and_u(ctx, boosted_w(ctx))[0]


def _j_and_u(ctx: ModularContext, w: FixedReal) -> Tuple[int, FixedReal]:
    """From the boosted W: j_invariant's integer and the U = W^8/16 behind it."""
    u = w.pow_int(8) / 16
    jF = (u.pow_int(3) - 48 * u.pow_int(2) + 768 * u - 4096) / u
    n = _rshift_round(jF.mantissa, jF.prec)
    dev = jF - n
    if not dev.magnitude_below(ctx.prec // 4):
        raise RecoveryError(
            f"j for d={ctx.d} not integral to tolerance "
            f"(defect {_pow2(abs(dev.mantissa), dev.prec)}, "
            f"radius {_pow2(dev.errbits, dev.prec)}, threshold 2^-{ctx.prec // 4})"
        )
    return n, u


def _pow2(units: int, prec: int) -> str:
    """units * 2^-prec >= 0 as a power of two, to one decimal, at any size."""
    return f"2^{math.log2(units) - prec:.1f}" if units else "0"


def gamma2_of(j: int) -> Optional[int]:
    """Exact integer cube root of j, when j is a perfect cube."""
    g = integer_root(abs(j), 3)
    if g**3 != abs(j):
        return None
    return -g if j < 0 else g


@dataclass
class TowerReport:
    prec: int
    j: int
    gamma2: Optional[int]
    values: Dict[str, FixedReal]
    residuals: Dict[str, FixedReal]

    def threshold_bits(self) -> int:
        return self.prec // 2

    def failed(self) -> list:
        return [
            k for k, r in self.residuals.items()
            if not r.magnitude_below(self.threshold_bits())
        ]


def _cubic_residual(x: FixedReal, q, r, s) -> FixedReal:
    """x^3 + q*x^2 + r*x + s by Horner; q, r and s are integers (ints or
    Fractions with denominator 1), so they enter exactly."""
    return ((x + int(q)) * x + int(r)) * x + int(s)


def verify_tower(
    ctx: ModularContext,
    a3b3: Tuple[int, int],
    al3be3: Optional[Tuple[int, int]] = None,
) -> TowerReport:
    """Evaluate every cubic of the tower at the computed product values and
    report the residuals.

    Each value comes once from the one before it, along the coverings: S is
    the real cube root of 2W, and W = S^3/2, T = W^2/2, U = W^8/16,
    Z = S^2/2, V = S^8/16.  Checks:
      eq2.2: W^3 - 2*a3*W^2 + 2*b3*W - 8
      eq2.3: T^3 - 2*a2*T^2 + 2*b2*T - 8       ((a2, b2) = cover_k3_to_k6)
      eq2.1: U^3 - 48U^2 + (768 - j)U - 4096   (j the recovered integer)
    and, when 3 does not divide d:
      eq3.1: V^3 - gamma2*V - 16
      eq3.2: Z^3 - 2*al2*Z^2 + 2*be2*Z - 2     ((al2, be2) = pair_k1_to_k2)
      eq3.3: S^3 - 2*al3*S^2 + 2*be3*S - 4
    For d = 3 only the 2.x equations plus V^3 - 16 are checked.

    j (j_invariant's integer), its cube root gamma2 (None when j is not a
    cube) and the residuals come from one boosted W.  The report gives W,
    its only value, and the residuals at P, the report's precision, and
    nothing else.  Raises RecoveryError when eq3.2 and eq3.3 need the K1
    pair and al3be3 is None, when j is not integral, or not the cube eq3.1
    needs.
    """
    if ctx.d % 3 and al3be3 is None:
        raise RecoveryError(
            f"no K1 pair (al3, be3) for d={ctx.d}: eq3.2 and eq3.3 need it")
    P = ctx.prec
    a3, b3 = a3b3
    w = boosted_w(ctx)
    j, u = _j_and_u(ctx, w)
    g2 = gamma2_of(j)
    a2, b2 = cover_k3_to_k6((Fraction(a3), Fraction(b3)))
    s = (w + w).cbrt()
    v = s.pow_int(8) / 16

    res = {
        "eq2.2": _cubic_residual(w, -2 * a3, 2 * b3, -8),
        "eq2.3": _cubic_residual(w * w / 2, -2 * a2, 2 * b2, -8),
        "eq2.1": _cubic_residual(u, -48, 768 - j, -4096),
    }
    if ctx.d == 3:
        res["V^3-16"] = _cubic_residual(v, 0, 0, -16)
    elif ctx.d % 3 != 0:
        if g2 is None:
            raise RecoveryError(f"j for d={ctx.d} is not a perfect cube")
        res["eq3.1"] = _cubic_residual(v, 0, -g2, -16)
        al3, be3 = al3be3
        al2, be2 = pair_k1_to_k2((Fraction(al3), Fraction(be3)))
        res["eq3.3"] = _cubic_residual(s, -2 * al3, 2 * be3, -4)
        res["eq3.2"] = _cubic_residual(s * s / 2, -2 * al2, 2 * be2, -2)
    return TowerReport(prec=P, j=j, gamma2=g2, values={"W": w.round_to(P)},
                       residuals={k: x.round_to(P) for k, x in res.items()})


def weber_product_selftest(prec: int) -> FixedReal:
    """Evaluate the three Stufe-48 q-products at tau = i (q = e**-pi, all
    series real) and return their product minus sqrt(2), which vanishes
    identically; the magnitude bounds the engine's end-to-end error."""
    P = prec
    n_terms = math.ceil((P + 16) * math.log(2) / (2 * math.pi)) + 2
    piv = fr.pi(P)
    q = fr.exp(-piv)
    r2 = fr.sqrt2(P)
    s0 = s1 = fr.exp(piv / 24)     # q^(-1/24)
    s2 = r2 * fr.exp(-piv / 12)    # sqrt2 * q^(1/12)
    # the three products on bare (mantissa, errbits) ints, as in schlafli_w
    one = 1 << P
    m0, e0, m1, e1 = s0.mantissa, s0.errbits, s1.mantissa, s1.errbits
    m2, e2 = s2.mantissa, s2.errbits
    q2, q2e = _mul(q.mantissa, q.errbits, q.mantissa, q.errbits, P)
    q_odd, q_odd_e = q.mantissa, q.errbits     # q^(2n-1)
    q_even, q_even_e = q2, q2e                 # q^(2n)
    for _ in range(n_terms):
        m0, e0 = _mul(m0, e0, one + q_odd, q_odd_e, P)
        m1, e1 = _mul(m1, e1, one - q_odd, q_odd_e, P)
        m2, e2 = _mul(m2, e2, one + q_even, q_even_e, P)
        q_odd, q_odd_e = _mul(q_odd, q_odd_e, q2, q2e, P)
        q_even, q_even_e = _mul(q_even, q_even_e, q2, q2e, P)
    return FixedReal(m0, P, e0) * FixedReal(m1, P, e1) * FixedReal(m2, P, e2) - r2


def paper_labels(d: int) -> Tuple[Optional[Tuple[int, int]], ...]:
    """The embedded (a3, b3) and (al3, be3) integer pairs for d: the
    integral K3 and K1 table entries labelled d, as they stand, each None
    where its table has none.  The K1 pair has no other source; recover_pair
    gives a3 and b3 from W alone."""
    return tuple(next((tuple(map(int, r.pt)) for r in paper_points(c)
                       if r.d == d and is_integral(r.pt)), None)
                 for c in (CurveId.K3, CurveId.K1))


CLASS_NUMBER_ONE_DS = (3, 11, 19, 43, 67, 163)
