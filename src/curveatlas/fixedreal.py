"""P-bit fixed-point multiprecision reals with tracked error bounds.

A FixedReal stores value = mantissa * 2**-prec together with errbits, a
conservative bound (in units of 2**-prec) on the distance between the stored
value and the true value it approximates.  Every operation propagates the
bound, so |stored - true| <= errbits * 2**-prec holds whenever it held for
the inputs.  The bounds are deliberately generous: correctness of the
downstream integer-recognition steps depends on them being sound, not tight.

Only same-precision operands combine; mixing precisions is a usage error.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Union

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


def _scientific(x: Fraction, digits: int) -> str:
    """x as d.ddd...e+XX with `digits` significant digits and |x| rounded
    up, so a rendered error radius is still a bound.  Exact at every
    magnitude, where float(x) overflows past about 1.8e308."""
    if x == 0:
        return f"{0:.{digits - 1}e}"
    sign, x = "-" if x < 0 else "", abs(x)
    # within 1 of floor(log10(x)), then exact
    e = (x.numerator.bit_length() - x.denominator.bit_length()) * 30103 // 100000
    while Fraction(10) ** e > x:
        e -= 1
    while Fraction(10) ** (e + 1) <= x:
        e += 1
    m = str(-(-x * Fraction(10) ** (digits - 1 - e) // 1))
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
        """Decimal rendering with an explicit error radius."""
        v = self.to_fraction()
        scaled = round(v * 10**digits)
        s = f"{abs(scaled):0{digits + 1}d}"
        sign = "-" if scaled < 0 else ""
        val = f"{sign}{s[:-digits]}.{s[-digits:]}"
        return f"{val} (+/- {_scientific(self.error_radius(), 4)})"

    def __repr__(self):
        value = _scientific(self.to_fraction(), 12)
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
        m = _rshift_round(self.mantissa * o.mantissa, P)
        # |delta(xy)| <= |y| dx + |x| dy + dx dy + rounding, with
        # floor(|v|) + 1 as an integer ceiling for |v|.
        err = (
            2
            + self.errbits * ((abs(o.mantissa) >> P) + 1)
            + o.errbits * ((abs(self.mantissa) >> P) + 1)
            + ((self.errbits * o.errbits) >> P)
        )
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
        # |delta(x/y)| <= dx/|y| + |x/y^2| dy + rounding; |x/y^2| = |q|/|my|.
        err = (
            2
            + ((self.errbits << P) + am - 1) // am
            + o.errbits * ((abs(q) // am) + 1)
        )
        return FixedReal(q, P, err)

    def sqrt(self) -> "FixedReal":
        P = self.prec
        m = self.mantissa
        if m < 0:
            if -m <= self.errbits:
                m = 0
            else:
                raise ValueError("sqrt of a negative value")
        r = isqrt(m << P)
        if r == 0:
            err = isqrt(self.errbits << P) + 2
        else:
            err = 2 + (self.errbits << P) // (2 * r) + 1
        return FixedReal(r, P, err)

    def cbrt(self) -> "FixedReal":
        P = self.prec
        m = self.mantissa
        neg = m < 0
        r = integer_root(abs(m) << (2 * P), 3)
        if r == 0:
            err = integer_root(self.errbits << (2 * P), 3) + 2
        else:
            err = 2 + (self.errbits << (2 * P)) // (3 * r * r) + 1
        return FixedReal(-r if neg else r, P, err)

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
    """e**x, correctly rounded to within a couple of ulps, with the input's
    own uncertainty propagated through the derivative."""
    P = x.prec
    m = x.mantissa
    # range reduction: r = x / 2**k with |r| < 1/2
    int_bits = max(0, (abs(m) >> P).bit_length())
    k = int_bits + 1
    Q = P + 64 + 2 * k
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
    err = 2 + x.errbits * ((abs(mr) >> P) + 1)
    return FixedReal(mr, P, err)


def sqrt2(prec: int) -> FixedReal:
    return FixedReal.from_int(2, prec).sqrt()
