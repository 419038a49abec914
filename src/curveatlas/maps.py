"""Exact evaluators for the coverings and birational maps between the
curves, with domain checks.

All maps are rational maps of the affine plane: they accept arbitrary exact
inputs (Fraction or QuadRat coordinates) and only promise to land on the
target curve when the input lies on the source curve.  The maps with no
branch and no division by a variable also accept BivarPoly coordinates,
which turns an identity between them into an equality in Q[a, b].  Domain
errors name every denominator factor that vanishes at the input.

The pair KS <-> K3 is defined by one set of BivarPoly constants, evaluated
in integers: ks_to_k3's N, D and P8, and k3_to_ks's z = 1 - Zn/Dz.
k3_to_ks solves ks_to_k3's own equations, both linear in w, for w at that
z.  The module depends only on kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .kernel import BivarPoly, FieldElement

Pair = Tuple[FieldElement, FieldElement]


class MapDomainError(ZeroDivisionError):
    """A map denominator vanishes at the requested point."""

    def __init__(self, map_name: str, factors):
        self.map_name = map_name
        self.factors = list(factors)
        super().__init__(
            f"{map_name}: denominator factor(s) vanish: {', '.join(self.factors)}"
        )


@dataclass(frozen=True)
class PellTriple:
    """Solution data of u^2 - 2v^2 = 1 attached to a K6 point with a2 != 1:
    k = (b2-2)/(a2-1), u = k/2 - (a2+1), v = (a2+1)/2."""

    k: Fraction
    u: Fraction
    v: Fraction

    def residual(self) -> Fraction:
        return self.u * self.u - 2 * self.v * self.v - 1


def cover_k3_to_k6(p: Pair) -> Pair:
    """(a3, b3) -> (a2, b2) = (a3^2 - b3, (b3^2 - 8*a3)/2)."""
    a3, b3 = p
    return (a3 * a3 - b3, (b3 * b3 - 8 * a3) / 2)


def pell_params(p: Pair) -> Optional[PellTriple]:
    """Pell-conic parameters of a K6 point; None when a2 = 1 (k undefined).

    Membership in K6 itself is a separate check (curves.is_on_curve); when
    the point does lie on K6 the triple satisfies u^2 - 2v^2 = 1 exactly.
    """
    a2, b2 = p
    if a2 == 1:
        return None
    k = (b2 - 2) / (a2 - 1)
    return PellTriple(k=k, u=k / 2 - (a2 + 1), v=(a2 + 1) / 2)


def euler_resolvent_check(p: Pair) -> bool:
    """With (a2, b2) the image of (a3, b3) under cover_k3_to_k6, check that
    z = a3 satisfies z^4 - 2*a2*z^2 - 8*z + (a2^2 - 2*b2) = 0.  This is an
    identity in Q[a3, b3]: on the generic pair of BivarPoly variables the
    check returns True, which proves it for every exact input."""
    a3, _ = p
    a2, b2 = cover_k3_to_k6(p)
    z = a3
    return z**4 - 2 * a2 * z * z - 8 * z + (a2 * a2 - 2 * b2) == 0


def pair_k1_to_k2(p: Pair) -> Pair:
    """Parameter-pair map (al3, be3) -> (al2, be2) = (al3^2-be3, (be3^2-4*al3)/2)."""
    al3, be3 = p
    return (al3 * al3 - be3, (be3 * be3 - 4 * al3) / 2)


def cover_k1_to_k2(p: Pair) -> Pair:
    """(al3, be3) -> point (x, y) = (al2, be2 - 2*al2^2) on K2."""
    al2, be2 = pair_k1_to_k2(p)
    return (al2, be2 - 2 * al2 * al2)


def k1_to_k3(p: Pair) -> Pair:
    """(al3, be3) -> (a3, b3) = (2*al3^3 - 3*al3*be3 + 3, be3^3 - 6*al3*be3 + 6)."""
    al3, be3 = p
    return (
        2 * al3**3 - 3 * al3 * be3 + 3,
        be3**3 - 6 * al3 * be3 + 6,
    )


def k2_to_k6(p: Pair) -> Pair:
    """Parameter-pair map (al2, be2) -> (a2, b2).

    Defined on the (al2, be2) pair, not on K2's plane coordinates (x, y);
    with curve coordinates the commuting square against cover_k3_to_k6
    fails, with the parameter pair it is a polynomial identity.
    """
    al2, be2 = p
    return (
        4 * al2**3 - 6 * al2 * be2 + 3,
        4 * be2**3 - 12 * al2 * be2 + 6,
    )


def k1_to_ks(p: Pair) -> Pair:
    """(al3, be3) -> (z, w) on KS; undefined when al3 = 0."""
    al3, be3 = p
    if al3 == 0:
        raise MapDomainError("k1_to_ks", ["al3"])
    z = be3 / (al3 * al3) - 1
    y = 1 / al3**3
    w = 4 * (z - 2) * y - 2 * (3 * z * z - 2 * z - 1)
    return (z, w)


_P8 = BivarPoly({
    # (z-exp, w-exp): coefficient of P8(z, w)
    (5, 1): 2, (4, 1): 10, (3, 1): 36, (2, 1): 68, (1, 1): 10, (0, 1): -30,
    (8, 0): -1, (6, 0): 60, (5, 0): 192, (4, 0): 82, (3, 0): -128,
    (2, 0): 172, (1, 0): 64, (0, 0): 7,
})

_N = BivarPoly({
    # N(z, w) = z^4 + 8z^3 + 18z^2 - 3 + w*(2z + 6)
    (4, 0): 1, (3, 0): 8, (2, 0): 18, (0, 0): -3, (1, 1): 2, (0, 1): 6,
})

_D = BivarPoly({
    # D(z) = z^4 + 4z^3 - 2z^2 - 12z + 1, as a polynomial in (z, w)
    (4, 0): 1, (3, 0): 4, (2, 0): -2, (1, 0): -12, (0, 0): 1,
})

_ZN = BivarPoly({
    # Zn(x, y) = 4x^3 - 4xy - y^2 + 4x + 4
    (3, 0): 4, (1, 1): -4, (0, 2): -1, (1, 0): 4, (0, 0): 4,
})

_DZ = BivarPoly({
    # Dz(x, y) = 2x^4 + 2x^3 - 3x^2y - 2xy + 6x - y + 2
    (4, 0): 2, (3, 0): 2, (2, 1): -3, (1, 1): -2, (1, 0): 6, (0, 1): -1,
    (0, 0): 2,
})


def ks_to_k3(p: Pair) -> Pair:
    """Birational map (z, w) -> (x, y):

        x = -N(z, w) / D(z),   N = z^4 + 8z^3 + 18z^2 - 3 + w*(2z + 6)
        y = 2 * P8(z, w) / D(z)^2,   D = z^4 + 4z^3 - 2z^2 - 12z + 1
    """
    z, w = p
    den = _D.evaluate(z, 0)
    if den == 0:
        raise MapDomainError("ks_to_k3", ["z^4+4z^3-2z^2-12z+1"])
    x = -_N.evaluate(z, w) / den
    y = 2 * _P8.evaluate(z, w) / (den * den)
    return (x, y)


def k3_to_ks(p: Pair) -> Pair:
    """Inverse birational map (x, y) -> (z, w):

        z = 1 - Zn(x, y) / Dz(x, y)
        Zn = 4x^3 - 4xy - y^2 + 4x + 4
        Dz = 2x^4 + 2x^3 - 3x^2*y - 2xy + 6x - y + 2

    and w solves one of ks_to_k3's own equations at this z.  Both are linear
    in w: the x-equation N(z, w) = -x*D(z) has slope 2z + 6, and at z = -3,
    where that slope vanishes, the y-equation P8(z, w) = y*D(z)^2/2 has
    slope -96.  So w needs no denominator beyond Dz, and the map raises
    MapDomainError, naming Dz, exactly where Dz vanishes.
    """
    x, y = p
    z_den = _DZ.evaluate(x, y)
    if z_den == 0:
        raise MapDomainError("k3_to_ks", ["2x^4+2x^3-3x^2y-2xy+6x-y+2"])
    z = 1 - _ZN.evaluate(x, y) / z_den
    d = _D.evaluate(z, 0)
    if z != -3:
        return (z, _solve_w(_N, z, -x * d))
    return (z, _solve_w(_P8, z, y * d * d / 2))


def _solve_w(f: BivarPoly, z: FieldElement, rhs: FieldElement) -> FieldElement:
    """The w with f(z, w) = rhs, for f linear in w with nonzero slope at z."""
    f0 = f.evaluate(z, 0)
    return (rhs - f0) / (f.evaluate(z, 1) - f0)
