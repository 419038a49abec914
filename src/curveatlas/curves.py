"""Curve catalog: the five plane curves, their point tables, and membership
and singularity predicates.

The tables are data, not verdicts: paper_points only builds the records, and
a table entry is judged where it is reported (cli's point: checks), so a
corrupt entry shows as a failing check, not as an error at first read.

Coordinate conventions: (x, y) for K1, K2, K3; (a2, b2) for K6; (z, w) for
KS.  The source tables for KS list pairs with the w-coordinate first; here
everything is stored and printed as (z, w) -- w**2 = 2z(z^4+4z^3-2z^2+4z+1)
holds under this reading and fails under the transposed one.

K6 carries no printed plane equation; its defining polynomial here is the
denominator-free form obtained by eliminating k = (b2-2)/(a2-1) from the
Pell conic (k/2-(a2+1))^2 - 2((a2+1)/2)^2 = 1, expanded:

    G(a2, b2) = 2*a2^4 - 4*a2^2*b2 + b2^2 + 8*a2 - 6
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Tuple

from .kernel import BivarPoly, FieldElement, QuadRat


class CurveId(enum.Enum):
    K1 = "K1"
    K2 = "K2"
    K3 = "K3"
    K6 = "K6"
    KS = "Ks"

    def __str__(self):
        return self.value


class Provenance(enum.Enum):
    PAPER_TABLE = "paper-table"
    SEARCH = "search"

    def __str__(self):
        return self.value


Point2 = Tuple[FieldElement, FieldElement]


@dataclass(frozen=True)
class PointRecord:
    curve: CurveId
    pt: Point2
    provenance: Provenance
    d: Optional[int] = None


_POLYS = {
    CurveId.K1: {
        (8, 0): 8, (6, 1): -32, (4, 2): 40, (5, 0): 32, (2, 3): -16,
        (3, 1): -64, (0, 4): 1, (1, 2): 24, (2, 0): 24, (0, 1): -8,
    },
    CurveId.K2: {
        # y^2 = 2x(x^3 - 1)
        (0, 2): 1, (4, 0): -2, (1, 0): 2,
    },
    CurveId.K3: {
        (8, 0): 8, (6, 1): -32, (4, 2): 40, (5, 0): 64, (2, 3): -16,
        (3, 1): -128, (0, 4): 1, (1, 2): 48, (2, 0): 96, (0, 1): -32,
        (0, 0): -24,
    },
    CurveId.K6: {
        (4, 0): 2, (2, 1): -4, (0, 2): 1, (1, 0): 8, (0, 0): -6,
    },
    CurveId.KS: {
        # w^2 = 2z(z^4 + 4z^3 - 2z^2 + 4z + 1), variables (x, y) = (z, w)
        (0, 2): 1, (5, 0): -2, (4, 0): -8, (3, 0): 4, (2, 0): -8, (1, 0): -2,
    },
}


@lru_cache(maxsize=None)
def defining_poly(c: CurveId) -> BivarPoly:
    """Integer-coefficient polynomial whose affine zero set is the curve."""
    return BivarPoly(_POLYS[c])


@lru_cache(maxsize=None)
def _partials(c: CurveId) -> Tuple[BivarPoly, BivarPoly]:
    f = defining_poly(c)
    return f.partial_x(), f.partial_y()


def is_on_curve(c: CurveId, p: Point2) -> bool:
    u, v = p
    return defining_poly(c).evaluate(u, v) == 0


def is_singular_point(c: CurveId, p: Point2) -> bool:
    """True iff p is a double point of the curve: on it, with both formal
    partials vanishing.  A point off the curve is not singular."""
    if not is_on_curve(c, p):
        return False
    fx, fy = _partials(c)
    u, v = p
    return fx.evaluate(u, v) == 0 and fy.evaluate(u, v) == 0


def _F(n, d=1):
    return Fraction(n, d)


# (point, d-label); d None for the extraneous / unlabeled entries.
_K1_TABLE = [
    ((_F(0), _F(0)), 3),
    ((_F(1), _F(2)), 11),
    ((_F(-1), _F(0)), 19),
    ((_F(0), _F(2)), 43),
    ((_F(-1), _F(2)), 67),
    ((_F(2), _F(6)), 163),
]

_K3_RATIONAL_TABLE = [
    ((_F(3), _F(6)), 3),
    ((_F(-1), _F(2)), 11),
    ((_F(1), _F(6)), 19),
    ((_F(3), _F(14)), 43),
    ((_F(7), _F(26)), 67),
    ((_F(-17), _F(150)), 163),
    ((_F(-1), _F(-2)), None),
    ((_F(-3), _F(6)), None),
    ((_F(1), _F(2)), None),
    ((_F(-9, 17), _F(6, 289)), None),
    ((_F(-155, 79), _F(42486, 6241)), None),
]

# Real quadratic points on K3 for the three class-number-two fields.
_K3_QUAD_TABLE = [
    ((QuadRat(17, _F(-1), _F(0)), QuadRat(17, _F(8), _F(2))), 51),
    ((QuadRat(41, _F(4), _F(1)), QuadRat(41, _F(40), _F(6))), 123),
    ((QuadRat(89, _F(-10), _F(-1)), QuadRat(89, _F(310), _F(32))), 267),
]

_KS_TABLE = [
    ((_F(0), _F(0)), None),
    ((_F(1), _F(4)), None),
    ((_F(1), _F(-4)), None),
    ((_F(-1), _F(4)), None),
    ((_F(-1), _F(-4)), None),
    ((_F(1, 2), _F(7, 4)), None),
    ((_F(1, 2), _F(-7, 4)), None),
    ((_F(2), _F(14)), None),
    ((_F(2), _F(-14)), None),
]


@lru_cache(maxsize=None)
def paper_points(c: CurveId) -> Tuple[PointRecord, ...]:
    """The embedded point table of c as records, built once and not
    evaluated: membership is judged by the callers that report it."""
    if c is CurveId.K1:
        raw = _K1_TABLE
    elif c is CurveId.K3:
        raw = _K3_RATIONAL_TABLE + _K3_QUAD_TABLE
    elif c is CurveId.KS:
        raw = _KS_TABLE
    else:
        return ()
    return tuple(PointRecord(c, pt, Provenance.PAPER_TABLE, d) for pt, d in raw)


def rational_paper_points(c: CurveId) -> List[PointRecord]:
    """Paper table restricted to points with rational coordinates."""
    return [r for r in paper_points(c)
            if not any(isinstance(x, QuadRat) for x in r.pt)]


def is_integral(pt: Point2) -> bool:
    """True iff both coordinates are integers.  Nothing is rounded: a corrupt
    table entry (7, 53/2) is not integral."""
    return all(not isinstance(x, QuadRat) and x.denominator == 1 for x in pt)

