"""Exact evaluators for the coverings and birational maps between the
curves, with domain checks.

All maps are rational maps of the affine plane: they accept arbitrary exact
inputs (Fraction or QuadRat coordinates) and only promise to land on the
target curve when the input lies on the source curve.  The maps with no
branch and no division by a variable also accept BivarPoly coordinates,
which turns an identity between them into an equality in Q[a, b].  Domain
errors name every denominator factor that vanishes at the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .curves import CurveId, is_on_curve
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
    if not _nonzero(al3):
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

_P12 = BivarPoly({
    # (x-exp, y-exp): coefficient of P12(x, y)
    (12, 0): 4, (11, 0): 252, (10, 1): -24, (10, 0): 156, (9, 1): -622,
    (8, 2): 15, (9, 0): 440, (8, 1): -514, (7, 2): 322, (6, 3): -1,
    (8, 0): 1256, (7, 1): -708, (6, 2): 288, (5, 3): -21, (7, 0): 1536,
    (6, 1): -620, (5, 2): 310, (4, 3): -19, (6, 0): 1344, (5, 1): -716,
    (4, 2): 64, (3, 3): -20, (5, 0): 440, (4, 1): -640, (3, 2): 22,
    (2, 3): -7, (4, 0): -12, (3, 1): -316, (2, 2): -8, (1, 3): -3,
    (3, 0): -124, (2, 1): -140, (1, 2): -6, (0, 3): -1, (2, 0): -92,
    (1, 1): -22, (0, 2): 1, (1, 0): -16, (0, 1): 2,
})


def ks_to_k3(p: Pair) -> Pair:
    """Birational map (z, w) -> (x, y):

        x = -(z^4 + 8z^3 + 2wz + 18z^2 + 6w - 3) / D,   D = z^4+4z^3-2z^2-12z+1
        y = 2 * P8(z, w) / D^2
    """
    z, w = p
    den = z**4 + 4 * z**3 - 2 * z * z - 12 * z + 1
    if not _nonzero(den):
        raise MapDomainError("ks_to_k3", ["z^4+4z^3-2z^2-12z+1"])
    x = -(z**4 + 8 * z**3 + 2 * w * z + 18 * z * z + 6 * w - 3) / den
    y = 2 * _P8.evaluate(z, w) / (den * den)
    return (x, y)


_W_DEN_FACTORS = [
    # (name, base polynomial, exponent) of each factor of the w-denominator
    ("x-1", BivarPoly({(1, 0): 1, (0, 0): -1}), 1),
    ("x^2+1", BivarPoly({(2, 0): 1, (0, 0): 1}), 1),
    ("x^2-2x-1", BivarPoly({(2, 0): 1, (1, 0): -2, (0, 0): -1}), 1),
    ("x^2+2x+3", BivarPoly({(2, 0): 1, (1, 0): 2, (0, 0): 3}), 1),
    ("(x+1)^5", BivarPoly({(1, 0): 1, (0, 0): 1}), 5),
]


def k3_to_ks(p: Pair) -> Pair:
    """Inverse birational map (x, y) -> (z, w):

        z = 1 - (4x^3 - 4xy - y^2 + 4x + 4) / Dz
        Dz = 2x^4 + 2x^3 - 3x^2*y - 2xy + 6x - y + 2
        w = -2 * P12(x, y) / ((x-1)(x^2+1)(x^2-2x-1)(x^2+2x+3)(x+1)^5)

    Raises MapDomainError listing every vanishing denominator factor.

    The printed w-denominator vanishes at two points of the K3 table,
    (1, 6) and (-1, 2), where the singularity is removable on the curve.
    For on-curve inputs of that kind w is recovered instead by solving the
    partner map's x-relation x*(z^4+4z^3-2z^2-12z+1) =
    -(z^4+8z^3+18z^2-3) - w*(2z+6) for w, which needs only z.
    """
    x, y = p
    z_den = 2 * x**4 + 2 * x**3 - 3 * x * x * y - 2 * x * y + 6 * x - y + 2
    bad = []
    w_den = None
    for name, f, e in _W_DEN_FACTORS:
        v = f.evaluate(x, y) ** e
        if not _nonzero(v):
            bad.append(name)
        else:
            w_den = v if w_den is None else w_den * v
    z_den_ok = _nonzero(z_den)
    if not z_den_ok:
        bad.append("2x^4+2x^3-3x^2y-2xy+6x-y+2")
        raise MapDomainError("k3_to_ks", bad)
    z = 1 - (4 * x**3 - 4 * x * y - y * y + 4 * x + 4) / z_den
    if not bad:
        w = -2 * _P12.evaluate(x, y) / w_den
        return (z, w)
    # Removable singularity of the printed formula: only usable on K3.
    if is_on_curve(CurveId.K3, p) and _nonzero(2 * z + 6):
        d_z = z**4 + 4 * z**3 - 2 * z * z - 12 * z + 1
        w = -(x * d_z + z**4 + 8 * z**3 + 18 * z * z - 3) / (2 * z + 6)
        return (z, w)
    raise MapDomainError("k3_to_ks", bad)


def _nonzero(v: FieldElement) -> bool:
    return bool(v != 0)
