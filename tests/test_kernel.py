import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from curveatlas.curves import CurveId, defining_poly
from curveatlas.kernel import (
    BivarPoly, MixedRadicandError, QuadRat, band_solutions, integer_root,
    integer_roots, integer_sqrt, is_squarefree, rational_sqrt,
)


F = Fraction

rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**6
)


class TestRationalArithmetic:
    def test_add(self):
        assert F(1, 2) + F(1, 3) == F(5, 6)

    def test_reciprocal_product(self):
        assert F(-9, 17) * F(17, 9) == -1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            F(1, 2) / F(0)

    def test_canonical_form(self):
        x = F(6, -4)
        assert x.numerator == -3 and x.denominator == 2

    @given(rationals)
    def test_multiplicative_inverse(self, x):
        if x != 0:
            assert x * (1 / x) == 1

    @given(rationals)
    def test_normalization_idempotent(self, x):
        assert F(x.numerator, x.denominator) == x


class TestRationalSqrt:
    def test_curve_value_at_half(self):
        # f(z) = 2z(z^4+4z^3-2z^2+4z+1) at z = 1/2 is 49/16
        z = F(1, 2)
        val = 2 * z * (z**4 + 4 * z**3 - 2 * z * z + 4 * z + 1)
        assert val == F(49, 16)
        assert rational_sqrt(val) == F(7, 4)

    def test_zero(self):
        assert rational_sqrt(F(0)) == 0

    def test_irrational(self):
        assert rational_sqrt(F(2)) is None

    def test_negative(self):
        assert rational_sqrt(F(-4)) is None

    def test_thousand_random_squares(self):
        rng = random.Random(99)
        for _ in range(1000):
            x = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            assert rational_sqrt(x * x) == abs(x)


def test_integer_cbrt():
    # the cube roots taken by gamma2_of and FixedReal.cbrt, all of n >= 0
    assert integer_root(27, 3) == 3
    assert integer_root(26, 3) == 2
    assert integer_root(0, 3) == 0
    big = 640320**3
    assert integer_root(big, 3) == 640320
    assert integer_root(big - 1, 3) == 640319


def test_integer_root():
    for k in range(1, 8):
        for r in (0, 1, 2, 3, 10, 12345, 10**20 + 7):
            assert integer_root(r**k, k) == r
            if r > 1:
                assert integer_root(r**k - 1, k) == r - 1
            if r > 1 and k > 1:
                assert integer_root(r**k + 1, k) == r
    with pytest.raises(ValueError):
        integer_root(-1, 2)


# -- integer_roots against sympy's factorization-based reference ---------------

_Y = sympy.Symbol("y")


def sympy_integer_roots(coeffs):
    poly = sympy.Poly({(j,): c for j, c in coeffs.items()}, _Y, domain=sympy.ZZ)
    return sorted(int(r) for r in poly.ground_roots() if sympy.Rational(r).q == 1)


def times_linear(coeffs, root):
    """coeffs (low to high) of f(y) * (y - root)."""
    out = [0] * (len(coeffs) + 1)
    for j, c in enumerate(coeffs):
        out[j + 1] += c
        out[j] -= root * c
    return out


@st.composite
def planted_polys(draw):
    degree = draw(st.integers(1, 6))
    planted = draw(st.lists(
        st.one_of(st.just(0), st.integers(-10**4, 10**4)), max_size=degree))
    if planted and len(planted) < degree and draw(st.booleans()):
        planted.append(planted[0])  # a repeated root
    rest = degree - len(planted)
    coeffs = draw(st.lists(
        st.integers(-10**12, 10**12), min_size=rest, max_size=rest)) + [1]
    for r in planted:
        coeffs = times_linear(coeffs, r)
    return {j: c for j, c in enumerate(coeffs) if c}, set(planted)


class TestIntegerRoots:
    @settings(max_examples=300, deadline=None)
    @given(planted_polys())
    def test_matches_sympy_on_planted_polynomials(self, case):
        coeffs, planted = case
        roots = integer_roots(coeffs)
        assert roots == sympy_integer_roots(coeffs)
        assert planted <= set(roots)

    @pytest.mark.parametrize("curve", [CurveId.K1, CurveId.K3])
    def test_matches_sympy_on_curve_fibres(self, curve):
        poly = defining_poly(curve)
        for x0 in range(-300, 301):
            coeffs = poly.specialize_x(x0)
            assert integer_roots(coeffs) == sympy_integer_roots(coeffs), x0

    def test_small_cases(self):
        assert integer_roots({0: 7}) == []
        assert integer_roots({1: 1}) == [0]
        assert integer_roots({0: -4, 2: 1}) == [-2, 2]
        assert integer_roots({0: 2, 2: -1}) == []          # roots +-sqrt(2)
        assert integer_roots({0: -6, 1: 1, 2: 1}) == [-3, 2]
        assert integer_roots({0: 1, 1: -2, 2: 1}) == [1]   # double root
        assert integer_roots({0: -3, 1: 2}) == []          # non-monic, root 3/2
        assert integer_roots({0: -6, 1: 3}) == [2]         # non-monic

    def test_low_degree_special_cases(self):
        assert integer_roots({0: -9, 1: 6, 2: -1}) == [3]        # -(y - 3)^2
        assert integer_roots({0: 4, 1: -4, 2: 1}) == [2]         # double root
        assert integer_roots({0: -3, 1: 7, 2: -2}) == [3]        # -(2y - 1)(y - 3)
        assert integer_roots({0: 3, 1: -5, 2: 2}) == [1]         # roots 1 and 3/2
        assert integer_roots({0: -1, 1: 1, 2: 1}) == []          # disc 5
        assert integer_roots({0: 1, 1: 1, 2: 1}) == []           # disc < 0
        assert integer_roots({0: 7, 1: -1}) == [7]               # -(y - 7)
        assert integer_roots({0: -2, 1: 1}) == [2]               # root at +bound
        assert integer_roots({0: 2, 1: 1}) == [-2]               # root at -bound

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            integer_roots({})
        with pytest.raises(ValueError):
            integer_roots({3: 0})


def low_degree_cases():
    """low_to_high of degree 0 to 2 with double roots, perfect-square and
    non-square discriminants, negative leading coefficients and rational
    roots that are not integers."""
    cases = [[5], [-7], [-6, 3], [6, -3], [3, 2], [-3, -2], [-4, 1], [4, 1],
             [-4, 0, 1], [4, 0, -1], [16, -8, 1], [-16, 8, -1], [9, 6, 1],
             [-3, 1, 2], [3, -5, 2], [-2, 0, 1], [2, 0, -1], [-1, -1, 1],
             [1, 1, -1], [1, 1, 1], [-3, 0, 1], [-10, 0, 1], [-5, 0, 1]]
    rng = random.Random(24)
    for _ in range(400):
        degree = rng.randint(1, 2)
        lead = rng.choice([-1, 1]) * rng.randint(1, 40)
        if rng.random() < 0.5:  # planted rational roots, maybe repeated
            roots = [F(rng.randint(-60, 60), rng.randint(1, 4))
                     for _ in range(degree)]
            if degree == 2 and rng.random() < 0.3:
                roots[1] = roots[0]
            poly = sympy.Poly(lead, _Y)
            for r in roots:
                poly *= sympy.Poly(r.denominator * _Y - r.numerator, _Y)
            coeffs = [int(c) for c in reversed(poly.all_coeffs())]
        else:
            coeffs = [rng.randint(-10**4, 10**4) for _ in range(degree)] + [lead]
        cases.append(coeffs)
    return cases


def test_low_degree_roots_match_sympy():
    for low_to_high in low_degree_cases():
        coeffs = {j: c for j, c in enumerate(low_to_high) if c}
        assert integer_roots(coeffs) == sympy_integer_roots(coeffs), low_to_high


# -- the lift's certificate: primes with simple roots, a bound, an exact test ---

def test_roots_that_meet_mod_every_small_prime():
    # 7 and 7 + P are congruent mod every odd prime up to 47, so the first
    # primes all see a double root, and 7 + P (about 3e17) needs every lift
    # step mod 53
    P = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47
    assert integer_roots({0: 7 * (7 + P), 1: -(14 + P), 2: 1}) == [7, 7 + P]


def test_repeated_roots_go_through_the_square_free_part():
    assert integer_roots({0: 45, 1: -21, 2: -1, 3: 1}) == [-5, 3]  # (y-3)^2 (y+5)
    # K3 at x = 1 is ((y - 2)(y - 6))^2: the double point (1, 2) and (1, 6)
    assert integer_roots(defining_poly(CurveId.K3).specialize_x(1)) == [2, 6]


def test_content_divisible_by_the_first_prime():
    assert integer_roots({0: 6, 1: -9, 2: 3}) == [1, 2]


@pytest.mark.parametrize("curve", [CurveId.K1, CurveId.K3])
def test_far_fibres_match_sympy(curve):
    for x0 in (10**6, -10**6):
        coeffs = defining_poly(curve).specialize_x(x0)
        assert integer_roots(coeffs) == sympy_integer_roots(coeffs), x0


quad_elems = st.builds(
    QuadRat,
    st.just(17),
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
)


def brute_band_solutions(m, q, c, ex, ey):
    out = []
    for a in range(-ex, ex + 1):
        v = a * m + c
        # b with |v - b*q| <= ey: ceil((v - ey)/q) <= b <= floor((v + ey)/q)
        for b in range(-((ey - v) // q), (v + ey) // q + 1):
            out.append((a, b))
    return out


@st.composite
def band_problems(draw):
    """Random m, q, c and box, with solutions planted by choosing c."""
    bits = draw(st.integers(1, 120))
    q = draw(st.one_of(st.just(1 << bits), st.integers(1, 1 << bits)))
    m = draw(st.integers(-(1 << (bits + 4)), 1 << (bits + 4)))
    ex = draw(st.integers(0, 2000))
    ey = draw(st.one_of(st.integers(0, 64), st.integers(0, 2 * q)))
    if draw(st.booleans()):
        a0 = draw(st.integers(-ex, ex))
        b0 = draw(st.integers(-(1 << 20), 1 << 20))
        r0 = draw(st.integers(-ey, ey))
        c = b0 * q + r0 - a0 * m
    else:
        c = draw(st.integers(-(1 << (bits + 16)), 1 << (bits + 16)))
    return m, q, c, ex, ey


class TestBandSolutions:
    @settings(max_examples=300, deadline=None)
    @given(band_problems())
    def test_matches_brute_force(self, case):
        assert band_solutions(*case) == brute_band_solutions(*case)

    def test_small_cases(self):
        # a*3 - b*7 within 1 of -5, |a| <= 4
        expect = brute_band_solutions(3, 7, 5, 4, 1)
        assert expect and band_solutions(3, 7, 5, 4, 1) == expect
        assert band_solutions(3, 7, 5, -1, 1) == []
        assert band_solutions(3, 7, 5, 4, -1) == []
        # q = 1: every a, every b in the band
        assert len(band_solutions(10**30 + 7, 1, -3, 2, 0)) == 5

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            band_solutions(3, 0, 5, 4, 1)


class TestQuadRat:
    def test_norm_product(self):
        u = QuadRat(17, F(8), F(2))
        v = QuadRat(17, F(8), F(-2))
        assert u * v == -4

    def test_add_to_pure_root(self):
        assert QuadRat(41, F(4), F(1)) + QuadRat(41, F(-4), F(0)) == QuadRat(41, F(0), F(1))

    def test_division_identity(self):
        u = QuadRat(17, F(1), F(1))
        assert u / u == 1

    def test_mixed_radicand_rejected(self):
        with pytest.raises(MixedRadicandError):
            QuadRat(17, F(1), F(1)) + QuadRat(41, F(1), F(1))

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QuadRat(17, F(1), F(0)) / QuadRat(17, F(0), F(0))

    def test_radicand_must_be_squarefree(self):
        for _ in range(2):  # the second time the verdict is memoized
            with pytest.raises(ValueError):
                QuadRat(12, F(1), F(1))
        assert not is_squarefree(12) and is_squarefree(17)

    @settings(max_examples=200)
    @given(quad_elems, quad_elems)
    def test_conjugation_is_multiplicative(self, u, v):
        assert (u * v).conjugate() == u.conjugate() * v.conjugate()

    @settings(max_examples=200)
    @given(quad_elems, quad_elems)
    def test_norm_is_multiplicative(self, u, v):
        assert (u * v).norm() == u.norm() * v.norm()

    def test_scalar_coercion(self):
        u = QuadRat(17, F(1), F(2))
        assert 2 * u == QuadRat(17, F(2), F(4))
        assert u - 1 == QuadRat(17, F(0), F(2))

    def test_power_by_left_to_right_squaring(self, monkeypatch):
        # e >= 1 needs (bit length - 1) squarings and (popcount - 1)
        # further products; x**5 takes 3 multiplications
        u = QuadRat(89, F(-10, 3), F(-1, 7))
        expect = QuadRat(89, F(1), F(0))
        powers = []
        for e in range(10):
            powers.append(expect)
            expect = expect * u
        calls = []
        original = QuadRat.__mul__
        monkeypatch.setattr(
            QuadRat, "__mul__", lambda a, b: calls.append(1) or original(a, b))
        for e, expect in enumerate(powers):
            calls.clear()
            assert u**e == expect
            assert len(calls) == (e.bit_length() + bin(e).count("1") - 2 if e else 0)


class TestBivarPolyPower:
    def test_power_by_left_to_right_squaring(self, monkeypatch):
        # as for QuadRat: e >= 1 takes (bit length - 1) squarings and
        # (popcount - 1) further products, so X**3 takes 2 and X**5 takes 3
        p = BivarPoly({(1, 0): 1, (0, 1): F(-1, 2), (0, 0): 3})
        expect = BivarPoly({(0, 0): 1})
        powers = []
        for e in range(10):
            powers.append(expect)
            expect = expect * p
        calls = []
        original = BivarPoly.__mul__
        monkeypatch.setattr(
            BivarPoly, "__mul__", lambda a, b: calls.append(1) or original(a, b))
        for e, expect in enumerate(powers):
            calls.clear()
            assert p**e == expect
            assert len(calls) == (e.bit_length() + bin(e).count("1") - 2 if e else 0)


K2_POLY = BivarPoly({(0, 2): 1, (4, 0): -2, (1, 0): 2})
K3_POLY = BivarPoly({
    (8, 0): 8, (6, 1): -32, (4, 2): 40, (5, 0): 64, (2, 3): -16,
    (3, 1): -128, (0, 4): 1, (1, 2): 48, (2, 0): 96, (0, 1): -32, (0, 0): -24,
})


class TestBivarPoly:
    def test_k2_at_origin(self):
        assert K2_POLY.evaluate(F(0), F(0)) == 0

    def test_k3_constant_term(self):
        assert K3_POLY.evaluate(F(0), F(0)) == -24

    def test_k3_quadratic_point(self):
        x = QuadRat(17, F(-1), F(0))
        y = QuadRat(17, F(8), F(2))
        assert K3_POLY.evaluate(x, y) == 0

    def test_zero_coefficients_dropped(self):
        p = BivarPoly({(1, 1): 0, (0, 0): 5})
        assert p.terms == {(0, 0): 5}

    def test_partial_derivatives(self):
        # d/dx of y^2 - 2x^4 + 2x is -8x^3 + 2
        px = K2_POLY.partial_x()
        assert px.evaluate(F(0), F(0)) == 2
        assert px.evaluate(F(1), F(0)) == -6
        assert K2_POLY.partial_y().evaluate(F(3), F(5)) == 10

    @settings(max_examples=100)
    @given(quad_elems, quad_elems)
    def test_evaluation_commutes_with_conjugation(self, x, y):
        lhs = K3_POLY.evaluate(x.conjugate(), y.conjugate())
        rhs = K3_POLY.evaluate(x, y)
        rhs = rhs.conjugate() if isinstance(rhs, QuadRat) else rhs
        assert lhs == rhs


small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
bivar_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), small_rationals, max_size=6,
).map(BivarPoly)
points = st.one_of(
    st.tuples(small_rationals, small_rationals),
    st.tuples(quad_elems, quad_elems),
)
X, Y = BivarPoly({(1, 0): 1}), BivarPoly({(0, 1): 1})


class TestBivarPolyArithmetic:
    def test_fraction_coefficients_are_not_truncated(self):
        # int(c) once turned this into {(0, 0): 0, (1, 0): 1}
        p = BivarPoly({(0, 0): F(1, 2), (1, 0): F(3, 2)})
        assert p.terms == {(0, 0): F(1, 2), (1, 0): F(3, 2)}
        assert p.evaluate(F(1), F(0)) == 2
        assert p != BivarPoly({(1, 0): 1})

    def test_integral_fractions_become_ints_and_zeros_drop(self):
        p = BivarPoly({(0, 0): F(4, 2), (1, 0): F(0, 3), (0, 1): F(-3, 1)})
        assert p.terms == {(0, 0): 2, (0, 1): -3}
        assert all(type(c) is int for c in p.terms.values())
        assert BivarPoly({(2, 2): F(1, 2)}) * 2 == X**2 * Y**2

    def test_equals_a_scalar_only_as_that_constant(self):
        assert BivarPoly({}) == 0 and hash(BivarPoly({})) == hash(0)
        assert BivarPoly({(0, 0): 3}) == 3 and hash(BivarPoly({(0, 0): 3})) == hash(3)
        half = BivarPoly({(0, 0): F(1, 2)})
        assert half == F(1, 2) and hash(half) == hash(F(1, 2))
        assert len({3, BivarPoly({(0, 0): 3})}) == 1
        assert X != 0 and X + 3 != 3 and BivarPoly({(0, 0): 3}) != 4
        assert X != QuadRat(17, F(0), F(1))

    def test_expansion(self):
        assert (X + Y) ** 2 == X * X + 2 * X * Y + Y * Y
        assert (X - 1) * (X + 1) == X**2 - 1
        assert 1 - X == -(X - 1)
        assert (X**2 - Y) / 2 == BivarPoly({(2, 0): F(1, 2), (0, 1): F(-1, 2)})
        assert X**0 == 1

    def test_rejected_operations(self):
        with pytest.raises(ZeroDivisionError):
            X / 0
        with pytest.raises(TypeError):
            1 / X
        with pytest.raises(TypeError):
            X / Y
        with pytest.raises(ValueError):
            X ** -1
        with pytest.raises(TypeError):
            X + QuadRat(17, F(1), F(1))
        with pytest.raises(TypeError):
            BivarPoly({(0, 0): QuadRat(17, F(1), F(1))})

    def test_repr_shows_fractions(self):
        assert repr(X / 2 - 3) == "BivarPoly(+1/2*x -3)"

    @settings(max_examples=200)
    @given(bivar_polys, bivar_polys, points, small_rationals)
    def test_evaluation_is_a_ring_homomorphism(self, p, q, pt, c):
        x, y = pt
        px, qx = p.evaluate(x, y), q.evaluate(x, y)
        assert (p + q).evaluate(x, y) == px + qx
        assert (p - q).evaluate(x, y) == px - qx
        assert (-p).evaluate(x, y) == -px
        assert (p * q).evaluate(x, y) == px * qx
        for e in range(4):
            assert (p**e).evaluate(x, y) == px**e
        assert (c + p).evaluate(x, y) == c + px
        assert (p + c).evaluate(x, y) == px + c
        assert (c - p).evaluate(x, y) == c - px
        assert (p - c).evaluate(x, y) == px - c
        assert (c * p).evaluate(x, y) == c * px
        assert (p * c).evaluate(x, y) == px * c
        if c != 0:
            assert (p / c).evaluate(x, y) == px / c
            assert (p / c.numerator).evaluate(x, y) == px / c.numerator

    @settings(max_examples=100)
    @given(bivar_polys, bivar_polys, points)
    def test_evaluation_at_polynomials_is_composition(self, p, q, pt):
        # p(q, X) evaluated at (x, y) is p at (q(x, y), x)
        x, y = pt
        composed = p.evaluate(q, X)
        assert isinstance(composed, BivarPoly)
        assert composed.evaluate(x, y) == p.evaluate(q.evaluate(x, y), x)


def reference_value(p, x, y):
    """p(x, y) as a plain sum of terms, with powers by repeated products,
    in the field of the inputs."""
    m = next((v.m for v in (x, y) if isinstance(v, QuadRat)), None)
    out = F(0) if m is None else QuadRat(m, F(0), F(0))
    for (i, j), c in p.terms.items():
        term = c
        for _ in range(i):
            term = term * x
        for _ in range(j):
            term = term * y
        out = out + term
    return out


coefficients = st.one_of(
    st.integers(-10**9, 10**9),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**5),
)
sparse_polys = st.one_of(
    st.dictionaries(
        st.tuples(st.integers(0, 12), st.integers(0, 12)), coefficients,
        max_size=10,
    ),
    st.builds(lambda c: {(0, 0): c}, coefficients),
    st.just({}),
).map(BivarPoly)
rational_coords = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-10**3, max_value=10**3, max_denominator=10**12),
)
radicands = st.sampled_from([2, 3, 17, 41, 89])


@st.composite
def field_points(draw):
    """(x, y) with int or Fraction coordinates, or with QuadRat coordinates
    of one radicand in either or both places."""
    m = draw(radicands)
    quad = st.builds(QuadRat, st.just(m), rational_coords, rational_coords)
    return draw(st.one_of(
        st.tuples(rational_coords, rational_coords),
        st.tuples(quad, quad),
        st.tuples(rational_coords, quad),
        st.tuples(quad, rational_coords),
    ))


class TestEvaluation:
    @settings(max_examples=300, deadline=None)
    @given(sparse_polys, field_points())
    def test_matches_the_term_by_term_sum(self, p, pt):
        x, y = pt
        got, expect = p.evaluate(x, y), reference_value(p, x, y)
        assert type(got) is type(expect)
        assert got == expect
        if isinstance(expect, QuadRat):
            parts = lambda v: (v.m, v.a.numerator, v.a.denominator,
                               v.b.numerator, v.b.denominator)
            assert parts(got) == parts(expect)
        else:
            assert (got.numerator, got.denominator) == (
                expect.numerator, expect.denominator)

    @settings(max_examples=50, deadline=None)
    @given(sparse_polys, rational_coords, rational_coords)
    def test_mixed_radicands_are_rejected(self, p, a, b):
        with pytest.raises(MixedRadicandError):
            p.evaluate(QuadRat(17, a, b), QuadRat(41, b, a))

    def test_result_follows_the_inputs(self):
        u = QuadRat(17, F(8), F(2))
        for p in (BivarPoly({}), BivarPoly({(0, 0): F(-3, 4)}), K2_POLY):
            assert type(p.evaluate(2, F(1, 3))) is F
            assert type(p.evaluate(u, 2)) is QuadRat
            assert type(p.evaluate(F(1, 2), u)) is QuadRat
            assert type(p.evaluate(X, F(1, 2))) is BivarPoly
            assert type(p.evaluate(3, Y)) is BivarPoly
        assert BivarPoly({}).evaluate(u, u) == QuadRat(17, F(0), F(0))
        assert BivarPoly({(0, 0): 5}).evaluate(X, Y) == 5

    def test_other_inputs_are_rejected(self):
        with pytest.raises(TypeError):
            K2_POLY.evaluate(1.5, F(0))
        with pytest.raises(TypeError):
            K2_POLY.evaluate(X, QuadRat(17, F(1), F(1)))
