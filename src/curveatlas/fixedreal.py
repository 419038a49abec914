"""P-bit fixed-point multiprecision reals with tracked error bounds.

A FixedReal stores value = mantissa * 2**-prec together with errbits, a
conservative bound (in units of 2**-prec) on the distance between the stored
value and the true value it approximates.  Every operation propagates the
bound, so |stored - true| <= errbits * 2**-prec holds whenever it held for
the inputs, however wide the input intervals are: each one-argument
function and the divisor are bounded on the whole interval (see their
docstrings), not by the derivative at the stored value alone.  The bounds
are deliberately generous: correctness of the downstream
integer-recognition steps depends on them being sound, not tight.

Products have one rule, the integer step _mul on bare (mantissa, errbits)
pairs: FixedReal.__mul__ wraps it, and the long q-product loops of
modular run on it directly, building a FixedReal only for the result.
Rendering is integer arithmetic too: decimal() rounds the value half to
even and every printed radius is rounded up, with no Fraction.

Only same-precision operands combine; mixing precisions is a usage error.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Tuple, Union

from .kernel import integer_root


class PrecisionMismatchError(ValueError):
    pass


class IndistinguishableFromZeroError(ZeroDivisionError):
    """Divisor (or comparand) not separated from zero by its error bound."""


def _rshift_round(n: int, k: int) -> int:
    """Round-to-nearest right shift (ties away from zero is fine here)."""
    if k <= 0:
        return n << -k
    half = 1 << (k - 1)
    if n >= 0:
        return (n + half) >> k
    return -((-n + half) >> k)


def _mul(am: int, ae: int, bm: int, be: int, P: int) -> Tuple[int, int]:
    """(mantissa, errbits) of the product of am and bm, with radii ae and
    be, all in units of 2**-P: the product rounded to nearest at P bits,
    and |delta(ab)| <= |b| da + |a| db + da db + rounding, with
    floor(|v|) + 1 as an integer ceiling for |v|.

    The one product rule: FixedReal.__mul__ wraps it, and modular's
    q-product loops run on it with bare ints."""
    return (_rshift_round(am * bm, P),
            2 + ae * ((abs(bm) >> P) + 1) + be * ((abs(am) >> P) + 1)
            + ((ae * be) >> P))


def _scientific(n: int, prec: int, digits: int) -> str:
    """n * 2**-prec as d.ddd...e+XX with `digits` significant digits and
    the magnitude rounded up, so a rendered error radius is still a bound.
    Exact integer arithmetic at every magnitude, where float overflows past
    about 1.8e308."""
    if n == 0:
        return f"{0:.{digits - 1}e}"
    sign, n = "-" if n < 0 else "", abs(n)
    lo = 10 ** (digits - 1)
    # e = floor(log10(n * 2**-prec)): a guess within 1, then exact, as the
    # e that puts n * 2**-prec * 10**(digits - 1 - e) in [lo, 10 * lo)
    e = (n.bit_length() - 1 - prec) * 30103 // 100000
    while True:
        k = digits - 1 - e
        num, den = (n * 10**k, 1 << prec) if k >= 0 else (n, 10**-k << prec)
        if num < lo * den:
            e -= 1
        elif num >= 10 * lo * den:
            e += 1
        else:
            break
    m = str(-(-num // den))
    if len(m) > digits:  # rounded up to 10^digits
        m, e = m[:digits], e + 1
    return f"{sign}{m[0]}.{m[1:]}e{e:+03d}"


class FixedReal:
    __slots__ = ("mantissa", "prec", "errbits")

    def __init__(self, mantissa: int, prec: int, errbits: int = 0):
        self.mantissa = mantissa
        self.prec = prec
        self.errbits = errbits

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_int(cls, n: int, prec: int) -> "FixedReal":
        return cls(n << prec, prec, 0)

    @classmethod
    def from_fraction(cls, x: Union[int, Fraction], prec: int) -> "FixedReal":
        x = Fraction(x)
        num, den = x.numerator, x.denominator
        q, r = divmod(num << prec, den)
        if r == 0:
            return cls(q, prec, 0)
        if 2 * r >= den:
            q += 1
        return cls(q, prec, 1)

    # -- conversions --------------------------------------------------------

    def to_fraction(self) -> Fraction:
        return Fraction(self.mantissa, 1 << self.prec)

    def round_to(self, prec: int) -> "FixedReal":
        """The value rounded to nearest at prec <= self.prec; the radius
        widens by the half unit that rounding adds."""
        k = self.prec - prec
        return FixedReal(_rshift_round(self.mantissa, k), prec,
                         -(-self.errbits >> k) + 1)

    def error_radius(self) -> Fraction:
        return Fraction(self.errbits, 1 << self.prec)

    def decimal(self, digits: int = 30) -> str:
        """Decimal rendering with an explicit error radius: the value
        rounded half to even to `digits` places, the radius rounded up to
        four significant digits."""
        P = self.prec
        q, r = divmod(self.mantissa * 10**digits, 1 << P)
        if 2 * r > 1 << P or (2 * r == 1 << P and q & 1):
            q += 1
        s = f"{abs(q):0{digits + 1}d}"
        sign = "-" if q < 0 else ""
        val = f"{sign}{s[:-digits]}.{s[-digits:]}"
        return f"{val} (+/- {_scientific(self.errbits, P, 4)})"

    def __repr__(self):
        value = _scientific(self.mantissa, self.prec, 12)
        return f"FixedReal({value}, prec={self.prec}, err={self.errbits})"

    # -- helpers ------------------------------------------------------------

    def _chk(self, other: "FixedReal") -> "FixedReal":
        if isinstance(other, int):
            other = FixedReal.from_int(other, self.prec)
        if not isinstance(other, FixedReal):
            raise TypeError(f"cannot combine FixedReal with {type(other)!r}")
        if other.prec != self.prec:
            raise PrecisionMismatchError(
                f"precision mismatch: {self.prec} vs {other.prec}"
            )
        return other

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = self._chk(other)
        return FixedReal(self.mantissa + o.mantissa, self.prec,
                         self.errbits + o.errbits)

    __radd__ = __add__

    def __neg__(self):
        return FixedReal(-self.mantissa, self.prec, self.errbits)

    def __abs__(self):
        return FixedReal(abs(self.mantissa), self.prec, self.errbits)

    def __sub__(self, other):
        o = self._chk(other)
        return FixedReal(self.mantissa - o.mantissa, self.prec,
                         self.errbits + o.errbits)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._chk(other)
        P = self.prec
        m, err = _mul(self.mantissa, self.errbits, o.mantissa, o.errbits, P)
        return FixedReal(m, P, err)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._chk(other)
        P = self.prec
        am = abs(o.mantissa)
        if am <= o.errbits:
            raise IndistinguishableFromZeroError(
                "divisor not distinguishable from zero"
            )
        num = self.mantissa << P
        sign = 1 if (num >= 0) == (o.mantissa >= 0) else -1
        qa, ra = divmod(abs(num), am)
        if 2 * ra >= am:
            qa += 1
        q = sign * qa
        # For |t - x| <= dx and |s - y| <= dy < |y|:
        #   t/s - x/y = (t - x)/s + (x/y)(y - s)/s,
        # so |t/s - x/y| <= (dx + |x/y| dy)/(|y| - dy): the divisor's radius
        # comes off its magnitude, as s may lie at the end nearer zero.  In
        # units, den = |my| - dy and |x/y| <= |q| + 1/2, and
        # floor(|q|/den) + 1 >= (|q| + 1)/den; 2 covers the rounding.
        den = am - o.errbits
        err = (
            2
            + ((self.errbits << P) + den - 1) // den
            + o.errbits * ((abs(q) // den) + 1)
        )
        return FixedReal(q, P, err)

    def sqrt(self) -> "FixedReal":
        """sqrt(x), with a radius sound for every t in [x - dx, x + dx].

        With L = x - dx > 0, |sqrt(t) - sqrt(x)| = |t - x|/(sqrt(t) +
        sqrt(x)) <= dx/(2 sqrt(L)): the derivative at the end nearer zero.
        sqrt(L) = sqrt(x) sqrt(1 - u) >= sqrt(x)(1 - u) with u = dx/x, so
        no second root is needed.  Where the interval reaches 0 (L <= 0,
        and a negative x within its radius is taken as 0),
        |sqrt(t) - sqrt(x)| <= sqrt(|t - x|) <= sqrt(dx).  Each bound is
        rounded up, plus 2 for the floor of the stored root."""
        P = self.prec
        m, e = self.mantissa, self.errbits
        if m < 0:
            if -m <= e:
                m = 0
            else:
                raise ValueError("sqrt of a negative value")
        r = isqrt(m << P)
        if m <= e:
            err = isqrt(e << P) + 2
        else:
            err = 2 + (e * m << P) // (2 * r * (m - e)) + 1
        return FixedReal(r, P, err)

    def cbrt(self) -> "FixedReal":
        """The real cube root of x, with a radius sound for every t in
        [x - dx, x + dx].

        With L = |x| - dx > 0, t has x's sign and |t| >= L, so
        |cbrt(t) - cbrt(x)| = |t - x|/(cbrt(t)^2 + cbrt(t)cbrt(x) +
        cbrt(x)^2) <= dx/(3 L^(2/3)): the derivative at the end nearer
        zero, where L^(2/3) >= |x|^(2/3)(1 - u) with u = dx/|x|.  Where the
        interval reaches 0 (L <= 0), t may have either sign, and
        |r - cbrt(t)| <= r + cbrt(|x| + dx) for the stored root r >= 0 of
        |x|.  Each bound is rounded up, plus 2 for the floor of the stored
        root."""
        P = self.prec
        m, e = abs(self.mantissa), self.errbits
        r = integer_root(m << (2 * P), 3)
        if m <= e:
            err = r + integer_root((m + e) << (2 * P), 3) + 2
        else:
            err = 2 + (e * m << (2 * P)) // (3 * r * r * (m - e)) + 1
        return FixedReal(-r if self.mantissa < 0 else r, P, err)

    def pow_int(self, e: int) -> "FixedReal":
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return FixedReal.from_int(1, self.prec)
        out = self
        for bit in bin(e)[3:]:  # left to right after the leading 1
            out = out * out
            if bit == "1":
                out = out * self
        return out

    # -- comparison ---------------------------------------------------------

    def magnitude_below(self, bits: int) -> bool:
        """True iff |value| + radius < 2**-bits (a sound smallness claim).

        The tower's one acceptance rule: each residual at 2**-(P/2), and
        W - 2, the pair's a3*W + c - b3 and j's defect at 2**-(P/4), each an
        exact x - n that keeps x's radius.  The product self-test is the one
        exception: the radius it leaves out bounds the very defect it tests."""
        if self.prec < bits:
            raise ValueError("threshold finer than the working precision")
        return abs(self.mantissa) + self.errbits < (1 << (self.prec - bits))

    def nearest_int(self) -> tuple:
        """(n, defect) with n the nearest integer and defect = |value - n|
        as a Fraction (the stored value's defect, not the true value's)."""
        P = self.prec
        n = _rshift_round(self.mantissa, P)
        defect = abs(Fraction(self.mantissa - (n << P), 1 << P))
        return n, defect


# ---------------------------------------------------------------------------
# constants and transcendental functions


def _atan_inv_machin(x: int, Q: int) -> int:
    """floor-ish of atan(1/x) * 2**Q by the alternating Taylor series."""
    total = 0
    term = (1 << Q) // x
    x2 = x * x
    k = 0
    while term:
        total += -term // (2 * k + 1) if k & 1 else term // (2 * k + 1)
        term //= x2
        k += 1
    return total


def pi(prec: int) -> FixedReal:
    """pi via Machin's formula, computed with 32 guard bits."""
    Q = prec + 32
    v = 16 * _atan_inv_machin(5, Q) - 4 * _atan_inv_machin(239, Q)
    return FixedReal(_rshift_round(v, 32), prec, 2)


def exp(x: FixedReal) -> "FixedReal":
    """e**x, correctly rounded to within a couple of ulps at every x, with a
    radius sound for every t in [x - dx, x + dx].

    e is increasing and convex, so |e^t - e^x| <= e^(x + dx) dx: the
    derivative at the upper end.  With dx = n + f 2**-P, 0 <= f < 2**P,
    e^(x + dx) <= e^x 3^n (1 + 2 f 2**-P), as e^u <= 1 + (e - 1)u on
    [0, 1] by convexity, and e^x <= (mr + 2) 2**-P for the computed mr.
    Like the value's own size with |x|, the bound's cost grows with dx."""
    P = x.prec
    m = x.mantissa
    # range reduction: r = x / 2**k with |r| < 1/2
    int_bits = max(0, (abs(m) >> P).bit_length())
    k = int_bits + 1
    Q = P + 64 + 2 * k
    if m > 0 and int_bits > 4:
        # the squarings carry the series' error up with e^x, which for
        # x >= 16 outgrows the 64 guard bits; log2(e^x) < 3 << (int_bits - 1)
        Q += 3 << (int_bits - 1)
    r = m << (Q - P - k)  # r at precision Q
    # Taylor series with exact integer ops (floor divisions)
    one = 1 << Q
    total = one
    term = one
    n = 1
    while term:
        term = _rshift_round(term * r, Q) // n
        total += term
        n += 1
    # k squarings
    for _ in range(k):
        total = _rshift_round(total * total, Q)
    mr = _rshift_round(total, Q - P)
    n, f = divmod(x.errbits, 1 << P)
    hi = (mr + 2) * 3**n
    hi += (2 * f * hi >> P) + 1
    err = 2 + x.errbits * ((hi >> P) + 1)
    return FixedReal(mr, P, err)


def sqrt2(prec: int) -> FixedReal:
    return FixedReal.from_int(2, prec).sqrt()
