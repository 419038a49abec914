import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveatlas.fixedreal import (
    FixedReal, IndistinguishableFromZeroError, PrecisionMismatchError,
    _mul, exp, pi, sqrt2,
)
from curveatlas.kernel import integer_root


F = Fraction

# reference digits from an independent arbitrary-precision evaluation
PI_60 = F("3.14159265358979323846264338327950288419716939937510582097494")
SQRT2_60 = F("1.41421356237309504880168872420969807856967187537694807317668")
EXP_T8_163 = F("0.006646623823886841167467506534925810442243077160487021942534")


def close(x: FixedReal, ref: Fraction) -> bool:
    return abs(x.to_fraction() - ref) <= x.error_radius() + F(1, 2**55)


class TestConstruction:
    def test_from_int(self):
        x = FixedReal.from_int(7, 128)
        assert x.to_fraction() == 7
        assert x.error_radius() == 0

    def test_from_fraction_exact_dyadic(self):
        x = FixedReal.from_fraction(F(3, 8), 128)
        assert x.to_fraction() == F(3, 8)
        assert x.errbits == 0

    def test_from_fraction_rounds(self):
        x = FixedReal.from_fraction(F(1, 3), 128)
        assert abs(x.to_fraction() - F(1, 3)) <= x.error_radius()
        assert x.errbits >= 1

    def test_precision_mismatch(self):
        a = FixedReal.from_int(1, 128)
        b = FixedReal.from_int(1, 96)
        with pytest.raises(PrecisionMismatchError):
            a + b


class TestArithmetic:
    def test_add_sub_exact(self):
        a = FixedReal.from_fraction(F(1, 2), 128)
        b = FixedReal.from_fraction(F(1, 4), 128)
        assert (a + b).to_fraction() == F(3, 4)
        assert (a - b).to_fraction() == F(1, 4)

    def test_mul(self):
        a = FixedReal.from_int(3, 128)
        assert (a * a).to_fraction() == 9

    def test_div(self):
        a = FixedReal.from_int(1, 128)
        b = FixedReal.from_int(3, 128)
        q = a / b
        assert abs(q.to_fraction() - F(1, 3)) <= q.error_radius()

    def test_div_by_indistinguishable_zero(self):
        a = FixedReal.from_int(1, 128)
        z = FixedReal(0, 128, errbits=5)
        with pytest.raises(IndistinguishableFromZeroError):
            a / z

    def test_pow_int(self):
        a = FixedReal.from_fraction(F(3, 2), 128)
        assert a.pow_int(4).to_fraction() == F(81, 16)
        assert a.pow_int(0).to_fraction() == 1

    def test_pow_int_by_left_to_right_squaring(self, monkeypatch):
        # e >= 1 takes floor(log2 e) squarings and popcount(e) - 1 further
        # products, as for QuadRat and BivarPoly
        a = FixedReal.from_fraction(F(-3, 2), 64)  # every power is exact
        calls = []
        original = FixedReal.__mul__
        monkeypatch.setattr(
            FixedReal, "__mul__", lambda x, y: calls.append(1) or original(x, y))
        for e in range(10):
            calls.clear()
            assert a.pow_int(e).to_fraction() == F(-3, 2) ** e
            assert len(calls) == (e.bit_length() + bin(e).count("1") - 2 if e else 0)

    def test_pow_int_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="negative exponent"):
            FixedReal.from_int(2, 64).pow_int(-1)

    def test_int_scalar_ops(self):
        a = FixedReal.from_int(5, 128)
        assert (a - 2).to_fraction() == 3
        assert (2 * a).to_fraction() == 10


class TestRoots:
    def test_sqrt_exact(self):
        assert FixedReal.from_int(4, 128).sqrt().to_fraction() == 2

    def test_sqrt2_matches_reference(self):
        assert close(sqrt2(192), SQRT2_60)

    def test_cbrt(self):
        x = FixedReal.from_int(27, 128).cbrt()
        assert abs(x.to_fraction() - 3) <= x.error_radius() + F(1, 2**120)

    def test_cbrt_negative(self):
        x = FixedReal.from_int(-8, 128).cbrt()
        assert abs(x.to_fraction() + 2) <= x.error_radius() + F(1, 2**120)


class TestTranscendental:
    def test_pi_reference(self):
        assert close(pi(192), PI_60)
        assert pi(192).errbits <= 4

    def test_exp_zero(self):
        assert exp(FixedReal.from_int(0, 128)).to_fraction() == 1

    def test_exp_one_squares_to_exp_two(self):
        e1 = exp(FixedReal.from_int(1, 160))
        e2 = exp(FixedReal.from_int(2, 160))
        diff = e1 * e1 - e2
        assert diff.magnitude_below(140)

    def test_exp_reference_value(self):
        # exp(-pi*sqrt(163)/8), the expansion parameter t^(1/8) at d = 163
        p = 192
        arg = pi(p) * FixedReal.from_int(163, p).sqrt() / FixedReal.from_int(-8, p)
        assert close(exp(arg), EXP_T8_163)


class TestComparisonsAndRecognition:
    def test_magnitude_below(self):
        tiny = FixedReal(1 << 10, 128)  # 2^-118
        assert tiny.magnitude_below(100)
        assert not tiny.magnitude_below(120)

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_integer_test_matches_the_fraction_rule_at_the_edge(self, data):
        # |x - n| + radius planted one unit below, at, and one unit above
        # 2^-bits; (x - n).magnitude_below(bits), the pair, j and W ~ 2 test
        # (n = 2), must decide as the reference rule: n the nearest integer,
        # and the Fraction defect plus radius below 2^-bits.
        prec = data.draw(st.integers(8, 300), label="prec")
        bits = data.draw(st.integers(1, prec), label="bits")
        n = data.draw(st.one_of(st.just(2), st.integers(-(1 << 80), 1 << 80)), label="n")
        units = (1 << (prec - bits)) + data.draw(st.sampled_from([-1, 0, 1]), label="edge")
        err = min(data.draw(st.integers(0, 1 << 12), label="errbits"), units)
        sign = data.draw(st.sampled_from([-1, 1]), label="sign")
        x = FixedReal((n << prec) + sign * (units - err), prec, err)
        nearest, defect = x.nearest_int()
        reference = nearest == n and defect + x.error_radius() < F(1, 1 << bits)
        assert (x - n).magnitude_below(bits) == reference
        assert reference == (units < 1 << (prec - bits))

    def test_nearest_int(self):
        x = FixedReal.from_fraction(F(299, 100), 128)
        n, defect = x.nearest_int()
        assert n == 3
        assert abs(defect.to_fraction() if hasattr(defect, "to_fraction") else defect) <= F(1, 50)


class TestRoundTo:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_exact_value_stays_within_widened_radius(self, data):
        # a FixedReal at prec + k bits whose radius covers x, rounded to prec
        prec = data.draw(st.integers(1, 200), label="prec")
        k = data.draw(st.integers(0, 200), label="k")
        m = data.draw(st.one_of(
            st.integers(-(1 << (prec + k + 8)), 1 << (prec + k + 8)),
            # rounding ties
            st.integers(-(1 << 20), 1 << 20).map(lambda n: (2 * n + 1) << max(k - 1, 0)),
        ), label="mantissa")
        err = data.draw(st.integers(0, 1 << (k + 8)), label="errbits")
        offset = data.draw(st.one_of(st.integers(-err, err), st.sampled_from([-err, err])))
        x = F(m + offset, 1 << (prec + k))
        r = FixedReal(m, prec + k, err).round_to(prec)
        assert r.prec == prec
        assert abs(r.to_fraction() - x) <= r.error_radius()

    def test_keeps_value_and_tightens(self):
        w = FixedReal(SQRT2_60.numerator * (1 << 300) // SQRT2_60.denominator, 300, 5)
        r = w.round_to(128)
        assert r.errbits == 2
        assert abs(r.to_fraction() - SQRT2_60) <= r.error_radius()

    def test_cannot_round_up(self):
        with pytest.raises(ValueError):
            FixedReal.from_int(1, 64).round_to(128)


class TestErrorBoundSoundness:
    """Random expression trees evaluated at P and 2P bits: the value at 2P
    is the better approximation, and the P-bit error radius must cover the
    observed disagreement."""

    OPS = ("add", "sub", "mul", "div", "sqrt", "cbrt", "exp")

    def _random_tree(self, rng, depth):
        if depth == 0:
            return ("leaf", F(rng.randint(-40, 40), rng.randint(1, 40)))
        op = rng.choice(self.OPS)
        if op in ("add", "sub", "mul", "div"):
            return (op, self._random_tree(rng, depth - 1),
                    self._random_tree(rng, depth - 1))
        return (op, self._random_tree(rng, depth - 1))

    def _eval(self, tree, prec):
        op = tree[0]
        if op == "leaf":
            return FixedReal.from_fraction(tree[1], prec)
        a = self._eval(tree[1], prec)
        if op == "exp":
            # keep the argument small so values stay representable
            a = a / FixedReal.from_int(64, prec)
            return exp(a)
        if op == "sqrt":
            return abs(a).sqrt()
        if op == "cbrt":
            return a.cbrt()
        b = self._eval(tree[2], prec)
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        q = b.to_fraction()
        if abs(q) < F(1, 4):
            b = b + FixedReal.from_int(1, prec)
        return a / b

    def test_hundred_random_trees(self):
        rng = random.Random(2024)
        P = 128
        for _ in range(100):
            tree = self._random_tree(rng, rng.randint(1, 4))
            try:
                lo = self._eval(tree, P)
                hi = self._eval(tree, 2 * P)
            except IndistinguishableFromZeroError:
                continue
            gap = abs(lo.to_fraction() - hi.to_fraction())
            assert gap <= lo.error_radius() + hi.error_radius(), tree


class TestRendering:
    def test_huge_radius_renders_exactly(self):
        # the radius 2^2000 / 2^16 is far beyond float range
        x = FixedReal(3 << 16, 16, 1 << 2000)
        text = x.decimal(10)
        assert text.startswith("3.0000000000 (+/- ")
        shown = F(text.split("+/- ")[1].rstrip(")"))
        assert x.error_radius() <= shown <= x.error_radius() * F(1001, 1000)
        assert "prec=16" in repr(x)

    def test_huge_value_repr(self):
        assert repr(FixedReal(-1 << 2100, 16)).startswith("FixedReal(-2.22080774690e+627,")

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**80), st.integers(0, 200))
    def test_radius_rounded_up_to_four_digits(self, errbits, prec):
        # the rendered radius is still a bound, and keeps the %.3e layout
        shown = FixedReal(0, prec, errbits).decimal(4).split("+/- ")[1].rstrip(")")
        assert re.fullmatch(r"\d\.\d{3}e[+-]\d{2,}", shown)
        r = F(errbits, 2**prec)
        assert r <= F(shown) and (F(shown) - r) * 1000 <= F(shown)


def _exp_bounds(t: Fraction, bits: int) -> tuple:
    """Rational lo <= e^t <= hi, less than 2^-bits apart.

    The Taylor series of e^|t| in integers scaled by 2^w: every term is
    positive, and each is rounded down for lo and up for hi.  Once the term
    ratio |t|/(i + 1) is at most 1/2, the tail after term i is at most
    term i.  A rounding unit grows by at most e^|t| < 4^ceil(|t|) through
    the later terms, which w allows for.  e^t = 1/e^|t| for t < 0."""
    n, d = abs(t).numerator, abs(t).denominator
    w = bits + 48 + 2 * -(-n // d)
    lo = hi = tlo = thi = 1 << w
    i = 0
    while not (2 * n <= (i + 1) * d and thi <= 1):
        i += 1
        tlo = tlo * n // (d * i)
        thi = -(-thi * n // (d * i))
        lo, hi = lo + tlo, hi + thi
    hi += thi
    if t >= 0:
        return Fraction(lo, 1 << w), Fraction(hi, 1 << w)
    return Fraction(1 << w, hi), Fraction(1 << w, lo)


class TestWideIntervalSoundness:
    """Each function evaluated exactly at both ends of a wide input interval
    (radius up to the value itself, and past it for the roots, whose
    intervals may then reach or cross 0) must land in the output interval.
    sqrt, cbrt and exp are monotone and t/s is monotone in t and in s on a
    box clear of s = 0, so the ends (corners) are the extremes of the
    range."""

    @staticmethod
    def _draw(data, lo=0, past_zero=False):
        prec = data.draw(st.integers(8, 128), label="prec")
        m = data.draw(st.one_of(st.just(0), st.integers(lo, 1 << (prec + 8))),
                      label="mantissa")
        radii = [st.integers(0, abs(m)), st.just(abs(m))]
        if past_zero:
            radii.append(st.integers(abs(m), 3 * abs(m) + (1 << prec)))
        e = data.draw(st.one_of(*radii), label="errbits")
        return prec, m, e

    @staticmethod
    def _ends(prec, m, e):
        return Fraction(m - e, 1 << prec), Fraction(m + e, 1 << prec)

    @staticmethod
    def _box(x):
        return x.to_fraction() - x.error_radius(), x.to_fraction() + x.error_radius()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_sqrt(self, data):
        prec, m, e = self._draw(data, lo=-(1 << 136), past_zero=True)
        e = max(e, -m)  # a negative value only within its radius of 0
        lo, hi = self._box(FixedReal(m, prec, e).sqrt())
        for t in self._ends(prec, m, e):
            t = max(t, 0)
            assert t <= hi * hi and (lo <= 0 or lo * lo <= t)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_cbrt(self, data):
        prec, m, e = self._draw(data, lo=-(1 << 136), past_zero=True)
        lo, hi = self._box(FixedReal(m, prec, e).cbrt())
        for t in self._ends(prec, m, e):
            assert lo**3 <= t <= hi**3

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_div(self, data):
        prec, m, e = self._draw(data, lo=-(1 << 136))
        my = data.draw(st.integers(1, 1 << (prec + 8)), label="divisor")
        my *= data.draw(st.sampled_from([-1, 1]), label="sign")
        ey = data.draw(st.one_of(st.integers(0, abs(my) - 1), st.just(abs(my) - 1)),
                       label="divisor errbits")
        lo, hi = self._box(FixedReal(m, prec, e) / FixedReal(my, prec, ey))
        for t in self._ends(prec, m, e):
            for s in self._ends(prec, my, ey):
                assert lo <= t / s <= hi

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_exp(self, data):
        prec = data.draw(st.integers(8, 96), label="prec")
        m = data.draw(st.integers(-(8 << prec), 8 << prec), label="mantissa")
        e = data.draw(st.one_of(st.integers(0, abs(m)), st.just(abs(m))),
                      label="errbits")
        lo, hi = self._box(exp(FixedReal(m, prec, e)))
        for t in self._ends(prec, m, e):
            elo, ehi = _exp_bounds(t, prec + 16)
            assert lo <= elo and ehi <= hi

    @pytest.mark.parametrize("prec", [64, 256])
    @pytest.mark.parametrize("x", [F(16), F(47, 2), F(60), F(-60), F(100), F(1001, 3)])
    def test_exp_of_large_arguments(self, x, prec):
        # the squarings scale the series' error by e^x: at x = 60 and P = 64
        # the stored value was 4e5 units off, with a radius of 2
        r = exp(FixedReal.from_fraction(x, prec))
        t = Fraction(FixedReal.from_fraction(x, prec).mantissa, 1 << prec)
        elo, ehi = _exp_bounds(t, prec + 16)
        lo, hi = self._box(r)
        assert lo <= elo and ehi <= hi

    def test_counterexamples_of_the_value_derivative(self):
        # radii that the derivative at the stored value gave: 0.375, 0.25,
        # 1.5 and 4, against true distances 0.5, 0.37, 3 and 6.39
        x = FixedReal(1 << 64, 64, 3 << 62)  # 1 +- 0.75
        assert x.sqrt().error_radius() >= Fraction(1, 2)
        assert x.cbrt().error_radius() >= 1 - integer_root(1 << 190, 3) / Fraction(1 << 64)
        assert (FixedReal.from_int(1, 64) / x).error_radius() >= 3
        assert exp(FixedReal(0, 64, 2 << 64)).error_radius() >= Fraction(639, 100)

    def test_narrow_sqrt_is_second_order_sound(self):
        # sqrt(1 - 2^-20) is about 1e-13 further from 1 than the derivative
        # at 1 allows, far above the 2^-64 units the radius counts in
        x = FixedReal(1 << 64, 64, 1 << 44)
        r = x.sqrt()
        t = Fraction((1 << 64) - (1 << 44), 1 << 64)
        assert (r.to_fraction() - r.error_radius()) ** 2 <= t


# ---------------------------------------------------------------------------
# The integer core against the Fraction arithmetic it replaced: the product
# rule of FixedReal.__mul__, decimal() and the scientific radius, kept here
# as they were written with Fraction.


def _ref_rshift_round(n, k):
    half = 1 << (k - 1)
    return (n + half) >> k if n >= 0 else -((-n + half) >> k)


def _ref_mul(am, ae, bm, be, P):
    m = _ref_rshift_round(am * bm, P)
    err = (2 + ae * ((abs(bm) >> P) + 1) + be * ((abs(am) >> P) + 1)
           + ((ae * be) >> P))
    return m, err


def _ref_scientific(x: Fraction, digits: int) -> str:
    if x == 0:
        return f"{0:.{digits - 1}e}"
    sign, x = "-" if x < 0 else "", abs(x)
    e = (x.numerator.bit_length() - x.denominator.bit_length()) * 30103 // 100000
    while Fraction(10) ** e > x:
        e -= 1
    while Fraction(10) ** (e + 1) <= x:
        e += 1
    m = str(-(-x * Fraction(10) ** (digits - 1 - e) // 1))
    if len(m) > digits:
        m, e = m[:digits], e + 1
    return f"{sign}{m[0]}.{m[1:]}e{e:+03d}"


def _ref_decimal(x: FixedReal, digits: int) -> str:
    scaled = round(x.to_fraction() * 10**digits)
    s = f"{abs(scaled):0{digits + 1}d}"
    sign = "-" if scaled < 0 else ""
    val = f"{sign}{s[:-digits]}.{s[-digits:]}"
    return f"{val} (+/- {_ref_scientific(x.error_radius(), 4)})"


def _ref_repr(x: FixedReal) -> str:
    value = _ref_scientific(x.to_fraction(), 12)
    return f"FixedReal({value}, prec={x.prec}, err={x.errbits})"


@st.composite
def _fixed_reals(draw):
    """Mantissas at P from 8 to 16384 and radii up to 2^2000; negatives and
    exact half-way ties of decimal(digits) are forced, the latter as odd
    multiples of 2^(P - 1 - digits)."""
    prec = draw(st.one_of(st.integers(8, 300), st.integers(8, 16384)), label="prec")
    digits = draw(st.sampled_from([4, 10, 30, 40]), label="digits")
    tie = draw(st.booleans(), label="tie") and prec > digits
    if tie:
        m = (2 * draw(st.integers(-(1 << 80), 1 << 80), label="k") + 1) << (prec - 1 - digits)
    else:
        m = draw(st.integers(-(1 << (prec + 80)), 1 << (prec + 80)), label="mantissa")
    m = -abs(m) if draw(st.booleans(), label="negative") else m
    e = draw(st.one_of(st.integers(0, 1 << 16), st.integers(0, 1 << 2000)), label="errbits")
    return FixedReal(m, prec, e), digits


class TestIntegerCoreMatchesFractions:
    @settings(max_examples=400, deadline=None)
    @given(_fixed_reals(), _fixed_reals())
    def test_product_rule(self, a, b):
        a, b = a[0], FixedReal(b[0].mantissa, a[0].prec, b[0].errbits)
        ref = _ref_mul(a.mantissa, a.errbits, b.mantissa, b.errbits, a.prec)
        assert _mul(a.mantissa, a.errbits, b.mantissa, b.errbits, a.prec) == ref
        p = a * b
        assert (p.mantissa, p.errbits) == ref

    @settings(max_examples=400, deadline=None)
    @given(_fixed_reals())
    def test_decimal_and_repr(self, xd):
        x, digits = xd
        assert x.decimal(digits) == _ref_decimal(x, digits)
        assert x.decimal() == _ref_decimal(x, 30)
        assert repr(x) == _ref_repr(x)

    @pytest.mark.parametrize("m", [1, -1, 3, -3, 5, -5])
    def test_half_way_ties_round_to_even(self, m):
        # m/32 at P = 16 is (m * 312.5) * 10^-4: exactly half of the last
        # place shown, rounded to the even neighbour, down or up
        x = FixedReal(m << (16 - 1 - 4), 16)
        assert x.decimal(4) == _ref_decimal(x, 4)
        assert x.decimal(4).startswith(
            {1: "0.0312 ", -1: "-0.0312 ", 3: "0.0938 ", -3: "-0.0938 ",
             5: "0.1562 ", -5: "-0.1562 "}[m])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-(1 << 3000), 1 << 3000), st.integers(0, 16384),
           st.integers(1, 40))
    def test_scientific_radius(self, n, prec, digits):
        x = FixedReal(n, prec, abs(n))
        assert repr(x) == _ref_repr(x)
        assert x.decimal(digits).split("+/- ")[1] == \
            _ref_decimal(x, digits).split("+/- ")[1]
