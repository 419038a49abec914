"""Exact arithmetic substrate: rationals, real quadratic extensions, and
sparse bivariate polynomials with rational coefficients.

Rationals are ``fractions.Fraction`` throughout: it already guarantees the
canonical form we need (positive denominator, gcd(num, den) = 1, structural
equality, hashable).  This module adds the pieces the rest of the package
needs on top of that: exact square roots, integer roots of univariate
integer polynomials, the integer solutions of a linear congruence inside a
band (by 2-D lattice reduction), quadratic extension elements
a + b*sqrt(m), and polynomials in Q[x, y] with exact ring arithmetic.
A polynomial is evaluated at rational or quadratic points in integers over
one common denominator, and reduced to lowest terms once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, inf, isqrt, lcm
from typing import Mapping, Optional, Union

Rational = Fraction

Scalar = Union[int, Fraction]


class MixedRadicandError(ValueError):
    """Arithmetic between quadratic elements of different radicands."""


def integer_sqrt(n: int) -> Optional[int]:
    """Exact square root of a nonnegative integer, or None if not a square."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def integer_root(n: int, k: int) -> int:
    """Floor of the real k-th root of a nonnegative integer n (k >= 1)."""
    if n < 0 or k < 1:
        raise ValueError("integer_root needs n >= 0 and k >= 1")
    if n == 0 or k == 1:
        return n
    # Newton iteration on integers, seeded from the bit length.
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    return x


def rational_sqrt(x: Rational) -> Optional[Rational]:
    """The nonnegative square root of x when x is a square in Q, else None.

    Works on numerator and denominator separately; both must be perfect
    squares of integers (they are coprime, so this is equivalent).
    """
    if x < 0:
        return None
    rn = integer_sqrt(x.numerator)
    if rn is None:
        return None
    rd = integer_sqrt(x.denominator)
    if rd is None:
        return None
    return Fraction(rn, rd)


def integer_roots(coeffs: Mapping[int, int]) -> list[int]:
    """Sorted distinct integer roots of sum c_j y^j with integer coefficients.

    Exact and complete, integers only.  Each complex root has |r| <= R =
    2^(1 + max_k ceil(bitlen(ceil|a_{n-k}/a_n|) / k)), Fujiwara's bound in
    powers of two.  For p = 3, 5, 7, ... the roots of f mod p are found by
    trying every residue; p is skipped when f' = 0 mod p at one (so when p
    divides the content).  Else each is lifted by Newton steps mod p^2,
    p^4, ... until it is an exact root or the modulus M passes 2R, and the
    exact roots are returned.  Proof: an integer root is a root mod p, a
    simple root mod p has one p-adic lift, and an integer root, |r| <= R <
    M/2, is the symmetric residue of its lift mod M.  A repeated root is
    repeated mod every p: if the first primes all see one, the walk runs on
    the square-free part f / gcd(f, f') with no cap on p, and it ends, as
    only the primes dividing its leading coefficient or its discriminant
    see a repeated root.
    """
    coeffs = {j: c for j, c in coeffs.items() if c != 0}
    if not coeffs:
        raise ValueError("the zero polynomial has every integer as a root")
    if min(coeffs) < 0:
        raise ValueError("negative exponent")
    f = [coeffs.get(j, 0) for j in range(max(coeffs) + 1)]
    ratios = enumerate((-(-abs(c) // abs(f[-1])) for c in reversed(f[:-1])), 1)
    reach = 4 << max([-(-r.bit_length() // k) for k, r in ratios] + [0])  # 2R
    for p in (3, 5, 7, 11):  # on f itself: one prime more costs less than the gcd
        if (roots := _lifted_roots(f, p, reach)) is not None:
            return roots
    a, b = f, [j * c for j, c in enumerate(f)][1:]
    while b:  # a gcd of f and f', by primitive pseudo-remainders
        r = _pseudo_divide(a, b)[1]
        g = gcd(*r) or 1
        a, b = b, [u // g for u in r]
    f = _pseudo_divide(f, a)[0]  # the square-free part, times a constant
    return next(roots for p in count(3, 2)
                if all(p % q for q in range(3, isqrt(p) + 1, 2))
                and (roots := _lifted_roots(f, p, reach)) is not None)


def roots_mod(low_to_high: list, m: int):
    """The y in range(m), lowest first, with f(y) = 0 mod m, for f given
    low to high and any m >= 1.  A generator: any caller may stop early."""
    high_to_low = [c % m for c in reversed(low_to_high)]
    for y in range(m):
        acc = 0
        for c in high_to_low:
            acc = acc * y + c
        if acc % m == 0:
            yield y


def _lifted_roots(f: list, p: int, reach: int) -> Optional[list]:
    """The sorted integer roots r of f (low to high) with 2|r| < reach, from
    the roots mod the prime p; None when one of those is repeated."""
    out = []
    for r in roots_mod(f, p):
        mod = p
        while True:
            if r > mod // 2:
                r -= mod
            value = slope = 0
            for c in reversed(f):
                value, slope = value * r + c, slope * r + value
            if mod == p and slope % p == 0:
                return None
            if value == 0 or mod > reach:
                break
            mod *= mod
            r = (r - value * pow(slope, -1, mod)) % mod
        if value == 0:
            out.append(r)
    return sorted(out)


def _pseudo_divide(a: list, b: list) -> tuple:
    """(q, r), low to high, with c*a = q*b + r for an integer c != 0 and r
    shorter than b, without trailing zeros."""
    q = [0] * (len(a) - len(b) + 1)
    while len(a) >= len(b):
        c, k = a[-1], len(a) - len(b)
        q = [b[-1] * u for u in q]
        q[k] += c
        a = [b[-1] * u - (c * b[i - k] if i >= k else 0) for i, u in enumerate(a)]
        while a and a[-1] == 0:
            a.pop()
    return q, a


def band_solutions(m: int, q: int, c: int, ex: int, ey: int) -> list[tuple[int, int]]:
    """Every integer pair (a, b) with |a| <= ex and |a*m + c - b*q| <= ey,
    for q >= 1, sorted.

    Exact and complete, integers only.  The pairs are the points
    p = (a, a*m - b*q) of the lattice with basis (1, m), (0, q) and
    determinant q that lie in the box |x| <= ex, |y + c| <= ey around
    t = (0, -c).  Lagrange-Gauss reduction, in the norm that scales x by
    s = max(1, ey // ex) so that the box is roughly square when ey >= ex,
    gives a basis u, v with det(u, v) = q after a sign change.  A point
    p = k1*u + k2*v of the box has k2 = det(u, p) / q and
    |det(u, p - t)| <= |u_x|*ey + |u_y|*ex, so k2 runs over an integer
    interval around the Babai coordinate det(u, t) / q; on each such line
    the box cuts k1 to an exact interval.  Because u is a shortest vector,
    for ey >= ex the number of lines is about sqrt(ex*ey/q) + 1, and on
    each line only the points of the box are visited.
    """
    if q < 1:
        raise ValueError("band_solutions needs q >= 1")
    if ex < 0 or ey < 0:
        return []
    s2 = max(1, ey // max(ex, 1)) ** 2
    u, v = (1, m), (0, q)
    nu, nv = s2 + m * m, q * q
    if nu > nv:
        u, v, nu, nv = v, u, nv, nu
    while True:
        k = (2 * (s2 * u[0] * v[0] + u[1] * v[1]) + nu) // (2 * nu)
        v = (v[0] - k * u[0], v[1] - k * u[1])
        nv = s2 * v[0] * v[0] + v[1] * v[1]
        if nv >= nu:
            break
        u, v, nu, nv = v, u, nv, nu
    if u[0] * v[1] - u[1] * v[0] < 0:
        v = (-v[0], -v[1])
    centre = -u[0] * c  # det(u, t)
    reach = abs(u[0]) * ey + abs(u[1]) * ex
    out = []
    for k2 in range(-((reach - centre) // q), (centre + reach) // q + 1):
        lo, hi = -inf, inf
        for z0, dz, e in ((k2 * v[0], u[0], ex), (k2 * v[1] + c, u[1], ey)):
            # the k1 with |z0 + k1*dz| <= e
            if dz < 0:
                z0, dz = -z0, -dz
            if dz:
                lo, hi = max(lo, -((e + z0) // dz)), min(hi, (e - z0) // dz)
            elif abs(z0) > e:
                lo, hi = 1, 0
        for k1 in range(lo, hi + 1):
            a = k1 * u[0] + k2 * v[0]
            r = k1 * u[1] + k2 * v[1] + c  # a*m + c - b*q
            out.append((a, (a * m + c - r) // q))
    return sorted(out)


@lru_cache(maxsize=4096)
def is_squarefree(n: int) -> bool:
    if n <= 0:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class QuadRat:
    """Element a + b*sqrt(m) of the real quadratic field Q(sqrt(m)).

    m is a fixed squarefree integer > 1 per value; operations between
    elements of different radicands raise MixedRadicandError.  Plain
    rationals and ints coerce freely (they live in every such field).
    """

    m: int
    a: Fraction
    b: Fraction

    def __post_init__(self):
        if self.m <= 1 or not is_squarefree(self.m):
            raise ValueError(f"radicand must be squarefree and > 1, got {self.m}")
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    def _coerce(self, other) -> "QuadRat":
        if isinstance(other, QuadRat):
            if other.m != self.m:
                raise MixedRadicandError(
                    f"mixed radicands {self.m} and {other.m}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadRat(self.m, Fraction(other), Fraction(0))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadRat(self.m, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadRat(self.m, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadRat(self.m, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadRat(
            self.m,
            self.a * o.a + self.m * self.b * o.b,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero quadratic element")
        c = self * o.conjugate()
        return QuadRat(self.m, c.a / n, c.b / n)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return 1 / (self ** (-e))
        if e == 0:
            return QuadRat(self.m, Fraction(1), Fraction(0))
        out = self
        for bit in bin(e)[3:]:  # left to right after the leading 1
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, QuadRat):
            if other.m != self.m:
                # equal only if both are actually rational and agree
                return self.b == 0 and other.b == 0 and self.a == other.a
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.m, self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def conjugate(self) -> "QuadRat":
        return QuadRat(self.m, self.a, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a - self.m * self.b * self.b

    def __repr__(self):
        return f"QuadRat({self.a} + {self.b}*sqrt({self.m}))"

    def __str__(self):
        return f"{self.a}+{self.b}*sqrt({self.m})"


#: Field element: a rational or a quadratic extension element.
FieldElement = Union[int, Fraction, QuadRat]


class BivarPoly:
    """Sparse polynomial sum c_ij x^i y^j with exact rational coefficients.

    Immutable.  Coefficients are kept exact and canonical: integral values
    are ints, others Fractions, and zero terms are dropped, so two
    polynomials are equal exactly when their term dicts are.  The ring
    operations (+, -, *, ** by a non-negative int, / by a nonzero scalar)
    stay in Q[x, y] and coerce int and Fraction scalars on either side; a
    polynomial equals a scalar only when it is that constant.  Evaluation
    is exact and returns an element of the inputs' ring.  At int, Fraction
    and QuadRat inputs it works in integers over one common denominator:
    the coefficients scaled by their denominator lcm, times power tables of
    the inputs' numerators and denominators, with a single reduction to
    lowest terms at the end.  BivarPoly inputs compose by the ring
    operations.
    """

    __slots__ = ("terms", "_scaled")

    def __init__(self, terms: Mapping[tuple, Scalar]):
        cleaned = {}
        for (i, j), c in terms.items():
            if i < 0 or j < 0:
                raise ValueError("negative exponent")
            c = _exact(c)
            if c != 0:
                cleaned[(i, j)] = c
        self.terms = cleaned
        self._scaled = None

    def __eq__(self, other):
        o = _as_poly(other)
        return o if o is NotImplemented else self.terms == o.terms

    def __hash__(self):
        if not self.terms.keys() - {(0, 0)}:
            return hash(self.terms.get((0, 0), 0))
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        o = _as_poly(other)
        if o is NotImplemented:
            return o
        out = dict(self.terms)
        for k, c in o.terms.items():
            out[k] = out.get(k, 0) + c
        return BivarPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BivarPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        o = _as_poly(other)
        return o if o is NotImplemented else self + -o

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = _as_poly(other)
        if o is NotImplemented:
            return o
        out: dict = {}
        for (i, j), c in self.terms.items():
            for (k, l), d in o.terms.items():
                out[i + k, j + l] = out.get((i + k, j + l), 0) + c * d
        return BivarPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero int or Fraction; never by a polynomial."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("polynomial divided by zero")
        return self * (1 / Fraction(other))

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise ValueError("negative power of a polynomial")
        if e == 0:
            return BivarPoly({(0, 0): 1})
        out = self
        for bit in bin(e)[3:]:  # left to right after the leading 1
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def evaluate(self, x: FieldElement, y: FieldElement) -> FieldElement:
        """p(x, y), exact, in the ring of the inputs: a Fraction at int or
        Fraction inputs, a QuadRat when either input is a QuadRat, and a
        BivarPoly (the composition) when either input is a BivarPoly."""
        if isinstance(x, BivarPoly) or isinstance(y, BivarPoly):
            return self._compose(x, y)
        m, ta, tb, den = self._numerator(x, y)
        if m is None:
            return Fraction(ta, den)
        return QuadRat(m, Fraction(ta, den), Fraction(tb, den))

    def _numerator(self, x: FieldElement, y: FieldElement) -> tuple:
        """(m, ta, tb, den) in integers, den >= 1, with p(x, y) = (ta +
        tb*sqrt(m)) / den; m = None and tb = 0 at rational x and y.  With
        x = (A + B*sqrt(m))/q and y = (C + D*sqrt(m))/s, den = L * q^dx * s^dy
        and the sum over c*L * (A + B*sqrt(m))^i * q^(dx-i) * (C +
        D*sqrt(m))^j * s^(dy-j) is taken in Z[sqrt(m)]: no gcd."""
        a, b, q, mx = _split(x)
        c, d, s, my = _split(y)
        if mx and my and mx != my:
            raise MixedRadicandError(f"mixed radicands {mx} and {my}")
        m = mx or my
        scale, dx, dy, rows = self._scaled_form()
        if m is None:
            px, qk = _scaled_powers(a, q, dx)
            py, sk = _scaled_powers(c, s, dy)
            total = 0
            for j, row in rows:
                total += py[j] * sum([k * px[i] for i, k in row])
            return None, total, 0, scale * qk * sk
        px, qk = _scaled_quad_powers(a, b, m, q, dx)
        py, sk = _scaled_quad_powers(c, d, m, s, dy)
        ta = tb = 0
        for j, row in rows:
            ua = sum([k * px[i][0] for i, k in row])
            ub = sum([k * px[i][1] for i, k in row])
            va, vb = py[j]
            ta += ua * va + m * ub * vb
            tb += ua * vb + ub * va
        return m, ta, tb, scale * qk * sk

    def _compose(self, x, y) -> "BivarPoly":
        """p(x, y) by the ring operations: power tables, then a sum over
        the terms grouped by y-degree."""
        scale, dx, dy, rows = self._scaled_form()
        px, py = [x**0], [y**0]
        for _ in range(dx):
            px.append(px[-1] * x)
        for _ in range(dy):
            py.append(py[-1] * y)
        zero = px[0] * py[0] * 0
        out = zero
        for j, row in rows:
            out = out + py[j] * sum((k * px[i] for i, k in row), zero)
        return out / scale

    def _scaled_form(self) -> tuple:
        """(L, dx, dy, rows): L the lcm of the coefficient denominators, dx
        and dy the degrees in x and y, and rows the pairs (j, [(i, L*c_ij),
        ...]) of integer coefficients grouped by y-degree.  Built on first
        use, so the ring operations never pay for it."""
        if self._scaled is None:
            scale = lcm(*(c.denominator for c in self.terms.values()))
            rows: dict = {}
            for (i, j), c in self.terms.items():
                rows.setdefault(j, []).append(
                    (i, c.numerator * (scale // c.denominator)))
            self._scaled = (
                scale,
                max((i for i, _ in self.terms), default=0),
                max(rows, default=0),
                sorted(rows.items()),
            )
        return self._scaled

    def partial_x(self) -> "BivarPoly":
        return BivarPoly(
            {(i - 1, j): c * i for (i, j), c in self.terms.items() if i > 0}
        )

    def partial_y(self) -> "BivarPoly":
        return BivarPoly(
            {(i, j - 1): c * j for (i, j), c in self.terms.items() if j > 0}
        )

    def specialize_x(self, x0: int) -> dict:
        """Coefficients {j: c} of the univariate polynomial in y at x = x0."""
        out: dict = {}
        for (i, j), c in self.terms.items():
            out[j] = out.get(j, 0) + c * x0**i
        return {j: c for j, c in out.items() if c != 0}

    def __repr__(self):
        if not self.terms:
            return "BivarPoly(0)"
        parts = []
        for (i, j), c in sorted(self.terms.items(), reverse=True):
            s = f"{'-' if c < 0 else '+'}{abs(c)}"
            if i:
                s += f"*x^{i}" if i > 1 else "*x"
            if j:
                s += f"*y^{j}" if j > 1 else "*y"
            parts.append(s)
        return "BivarPoly(" + " ".join(parts) + ")"


def _exact(c) -> Scalar:
    """The exact value of a rational coefficient: an int when integral,
    else a Fraction.  Never truncates."""
    if isinstance(c, int):
        return int(c)
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _as_poly(x) -> "BivarPoly":
    """x as a polynomial: itself, a constant for an int or Fraction, else
    NotImplemented."""
    if isinstance(x, BivarPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return BivarPoly({(0, 0): x})
    return NotImplemented


def _split(v) -> tuple:
    """(a, b, q, m) in integers with v = (a + b*sqrt(m)) / q and q >= 1;
    b = 0 and m = None for an int or Fraction."""
    if isinstance(v, QuadRat):
        q = lcm(v.a.denominator, v.b.denominator)
        return (v.a.numerator * (q // v.a.denominator),
                v.b.numerator * (q // v.b.denominator), q, v.m)
    if isinstance(v, (int, Fraction)):
        return v.numerator, 0, v.denominator, None
    raise TypeError(f"cannot evaluate a polynomial at {type(v).__name__}")


def _scaled_powers(n: int, d: int, k: int) -> tuple:
    """([n^i * d^(k-i) for i = 0..k], d^k)."""
    up, down = [1], [1]
    for _ in range(k):
        up.append(up[-1] * n)
        down.append(down[-1] * d)
    return [u * down[k - i] for i, u in enumerate(up)], down[k]


def _scaled_quad_powers(a: int, b: int, m: int, d: int, k: int) -> tuple:
    """([(P_i * d^(k-i), Q_i * d^(k-i)) for i = 0..k], d^k), where
    P_i + Q_i*sqrt(m) = (a + b*sqrt(m))^i."""
    up, down = [(1, 0)], [1]
    for _ in range(k):
        p, r = up[-1]
        up.append((p * a + m * r * b, p * b + r * a))
        down.append(down[-1] * d)
    return [(p * down[k - i], r * down[k - i]) for i, (p, r) in enumerate(up)], down[k]
