from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveatlas import modular
from curveatlas.fixedreal import FixedReal, IndistinguishableFromZeroError
from curveatlas.kernel import is_squarefree
from curveatlas.modular import (
    CLASS_NUMBER_ONE_DS, InvalidDiscriminantError, ModularContext,
    RecoveryError, default_precision, gamma2_of, j_invariant, paper_labels,
    recover_pair, schlafli_w, series_length, verify_tower,
    weber_product_selftest,
)


F = Fraction

EXPECTED_PAIRS = {
    3: (3, 6), 11: (-1, 2), 19: (1, 6), 43: (3, 14),
    67: (7, 26), 163: (-17, 150),
}

# classical singular moduli
EXPECTED_J = {
    3: 0, 11: -32768, 19: -884736, 43: -884736000,
    67: -147197952000, 163: -262537412640768000,
}


class TestContext:
    def test_default_precision_floor(self):
        assert default_precision(3) == 128

    def test_default_precision_scales(self):
        assert default_precision(163) > default_precision(43) >= 128

    def test_series_length_positive(self):
        for d in CLASS_NUMBER_ONE_DS:
            assert series_length(d, default_precision(d)) >= 5

    @pytest.mark.parametrize("bad", [0, -11, 5, 8, 27, 75])
    def test_invalid_d_rejected(self, bad):
        # needs d > 0, d = 3 mod 8, squarefree
        with pytest.raises(InvalidDiscriminantError):
            ModularContext.create(bad)

    def test_t_is_exp_minus_pi_sqrt_d(self):
        ctx = ModularContext.create(11)
        # t8^8 = t by construction; sanity against a float evaluation
        import math
        assert abs(ctx.t.to_fraction() - F(math.exp(-math.pi * math.sqrt(11)))) < 1e-12


class TestSchlafliW:
    def test_d3_value_is_two(self):
        ctx = ModularContext.create(3)
        w = schlafli_w(ctx)
        assert abs(w.to_fraction() - 2) < F(1, 1 << (ctx.prec - 4))

    def test_d11_against_cubic_root_oracle(self):
        # W(11) is the unique positive root of W^3 + 2W^2 + 4W - 8
        # ((a3,b3) = (-1,2)); bisect the cubic in exact arithmetic
        lo, hi = F(1), F(2)
        f = lambda x: x**3 + 2 * x * x + 4 * x - 8
        assert f(lo) < 0 < f(hi)
        for _ in range(200):
            mid = (lo + hi) / 2
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        ctx = ModularContext.create(11)
        w = schlafli_w(ctx)
        assert abs(w.to_fraction() - lo) < F(1, 1 << 190) + w.error_radius()

    def test_monotone_decreasing_in_d(self):
        vals = []
        for d in CLASS_NUMBER_ONE_DS:
            ctx = ModularContext.create(d, prec=128)
            vals.append(schlafli_w(ctx).to_fraction())
        assert vals == sorted(vals, reverse=True)
        assert all(0 < v <= 2 + F(1, 1 << 100) for v in vals)

    def test_error_bound_is_tight(self):
        ctx = ModularContext.create(163)
        w = schlafli_w(ctx)
        assert w.error_radius() < F(1, 1 << (ctx.prec - 24))


class TestRecoverPair:
    @pytest.mark.parametrize("d", CLASS_NUMBER_ONE_DS)
    def test_recovers_expected_pair(self, d):
        ctx = ModularContext.create(d)
        assert recover_pair(ctx) == EXPECTED_PAIRS[d]

    def test_reuses_supplied_w(self):
        ctx = ModularContext.create(43)
        w = schlafli_w(ctx)
        assert recover_pair(ctx, w=w) == (3, 14)

    @pytest.mark.parametrize("prec", [128, 512, 2048, 8192])
    @pytest.mark.parametrize("d", CLASS_NUMBER_ONE_DS)
    def test_stable_across_precision(self, d, prec):
        ctx = ModularContext.create(d, prec=prec)
        assert recover_pair(ctx) == EXPECTED_PAIRS[d]

    def test_class_number_dichotomy_below_1000(self):
        # a pair exists iff h(-d) = 1, over every admissible d < 1000
        ds = [d for d in range(3, 1000, 8) if is_squarefree(d)]
        assert len(ds) == 101
        for d in ds:
            ctx = ModularContext.create(d)
            if class_number(d) == 1:
                assert recover_pair(ctx) == EXPECTED_PAIRS[d], d
            else:
                with pytest.raises(RecoveryError, match="no pair"):
                    recover_pair(ctx)

    def test_low_precision_finds_no_pair(self):
        ctx = ModularContext.create(67, prec=32)
        with pytest.raises(RecoveryError, match="precision too low"):
            recover_pair(ctx)

    def test_two_passing_pairs_are_rejected(self):
        # an exact W at P = 16 lets an eighth of all a3 pass the defect
        # test; with curve membership forced, several pairs pass
        ctx = ModularContext.create(11, prec=16)
        w = FixedReal(3 << 14, 16)
        with mock.patch.object(modular, "PAIR_SEARCH_BOUND", 100), \
                mock.patch.object(modular, "is_on_curve", lambda c, p: True):
            with pytest.raises(RecoveryError, match="multiple"):
                recover_pair(ctx, w=w)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_candidates_cover_every_passing_a3(self, data):
        # brute force over |a| <= bound with recover_pair's own defect test
        prec = data.draw(st.integers(16, 160), label="prec")
        bound = data.draw(st.integers(0, 2000), label="bound")
        w = FixedReal(data.draw(st.integers(1, 4 << prec)), prec,
                      data.draw(st.integers(0, 64)))
        werr = data.draw(st.integers(0, 1 << 12))
        if data.draw(st.booleans(), label="planted"):
            # c puts a0*w + c within r0 units of the integer b0; at the edge
            # r0 plus the error radius is one unit below the threshold
            a0 = data.draw(st.integers(-bound, bound))
            b0 = data.draw(st.integers(-10**6, 10**6))
            band = 1 << (prec - prec // 4)
            edge = band - 1 - (a0 * w + FixedReal(0, prec, werr)).errbits
            r0 = data.draw(st.one_of(
                st.integers(-band // 2, band // 2),
                st.sampled_from([-edge, edge]),
            ))
            cm = (b0 << prec) + r0 - a0 * w.mantissa
        else:
            cm = data.draw(st.integers(-(1 << (prec + 20)), 1 << (prec + 20)))
        c = FixedReal(cm, prec, werr)
        threshold = Fraction(1, 1 << (prec // 4))
        passing = []
        for a in range(-bound, bound + 1):
            v = a * w + c
            b, defect = v.nearest_int()
            if defect + v.error_radius() < threshold:
                passing.append((a, b))
        with mock.patch.object(modular, "PAIR_SEARCH_BOUND", bound):
            pairs = modular._pair_candidates(w, c)
        assert set(passing) <= set(pairs)
        assert all(abs(a) <= bound for a, _ in pairs)

    @pytest.mark.parametrize("prec", [None, 48])
    @pytest.mark.parametrize("d", CLASS_NUMBER_ONE_DS + (35,))
    def test_pair_integers_come_from_the_lattice(self, d, prec):
        # b3 comes whole with a3 from band_solutions: nothing rounds a3*W + c
        ctx = ModularContext.create(d, prec=prec)
        with mock.patch.object(FixedReal, "nearest_int",
                               side_effect=AssertionError("nearest_int called")):
            if d in EXPECTED_PAIRS:
                assert recover_pair(ctx) == EXPECTED_PAIRS[d]
            else:
                with pytest.raises(RecoveryError, match="no pair for d=35"):
                    recover_pair(ctx)

    def test_lattice_b_is_the_nearest_integer(self):
        # the band is narrower than half its modulus for P >= 8, so the b of
        # every candidate pair is the integer nearest a*W + c
        ds = [d for d in range(3, 428, 8) if is_squarefree(d)]
        precs = range(8, 257)
        pairs = 0
        for d in ds:
            for prec in precs:
                w = schlafli_w(ModularContext.create(d, prec=prec))
                if (w - 2).magnitude_below(prec // 4):
                    continue  # recover_pair returns (3, 6) without a search
                try:
                    c = (8 - w.pow_int(3)) / (2 * w)
                except IndistinguishableFromZeroError:
                    continue  # recover_pair stops here too
                for a, b in modular._pair_candidates(w, c):
                    assert (a * w + c).nearest_int()[0] == b, (d, prec, a)
                    pairs += 1
        assert pairs > len(ds) * len(precs)


def class_number(d):
    """h(-d) for a fundamental discriminant -d < 0, by counting the reduced
    forms (a, b, c): b^2 - 4ac = -d, |b| <= a <= c, b >= 0 if |b| = a or
    a = c."""
    h = 0
    a = 1
    while 3 * a * a <= d:
        for b in range(-a + 1, a + 1):
            c, r = divmod(b * b + d, 4 * a)
            if r == 0 and c >= a and not (b < 0 and c == a):
                h += 1
        a += 1
    return h


def test_class_number_by_reduced_forms():
    assert [class_number(d) for d in (3, 11, 19, 43, 67, 163)] == [1] * 6
    assert [class_number(d) for d in (35, 51, 59, 83, 91, 107, 131)] == [
        2, 2, 3, 3, 2, 3, 5,
    ]


class TestJInvariant:
    @pytest.mark.parametrize("d", CLASS_NUMBER_ONE_DS)
    def test_matches_singular_moduli(self, d):
        ctx = ModularContext.create(d)
        assert j_invariant(ctx) == EXPECTED_J[d]

    def test_d163_is_minus_640320_cubed(self):
        assert EXPECTED_J[163] == -(640320**3)

    def test_gamma2(self):
        assert gamma2_of(-32768) == -32
        assert gamma2_of(0) == 0
        assert gamma2_of(-(640320**3)) == -640320
        assert gamma2_of(7) is None

    @pytest.mark.parametrize("d", CLASS_NUMBER_ONE_DS)
    def test_j_is_perfect_cube_iff_3_does_not_divide_d_or_is_3(self, d):
        g2 = gamma2_of(EXPECTED_J[d])
        assert g2 is not None
        assert g2**3 == EXPECTED_J[d]


class TestVerifyTower:
    @pytest.mark.parametrize("d", CLASS_NUMBER_ONE_DS)
    def test_all_residuals_pass(self, d):
        ctx = ModularContext.create(d)
        a3b3, al3be3 = paper_labels(d)
        rep = verify_tower(ctx, a3b3, al3be3)
        assert not rep.failed(), rep.failed()

    @pytest.mark.parametrize("d", CLASS_NUMBER_ONE_DS)
    def test_residuals_clear_threshold_by_32_bits(self, d):
        # eq2.1 multiplies U's error by j ~ exp(pi*sqrt(d)); evaluated from
        # the boosted W, every residual keeps a wide margin at P
        ctx = ModularContext.create(d)
        rep = verify_tower(ctx, *paper_labels(d))
        assert rep.prec == ctx.prec
        for eq, r in rep.residuals.items():
            assert r.prec == ctx.prec, eq
            assert r.magnitude_below(rep.threshold_bits() + 32), eq

    @pytest.mark.parametrize("d", CLASS_NUMBER_ONE_DS)
    def test_reports_j_invariants_j_from_one_boosted_w(self, d):
        # one boosted context per call, from which j comes; W is reported at
        # P and agrees with W computed at P
        ctx = ModularContext.create(d)
        with mock.patch.object(modular.ModularContext, "create",
                               side_effect=modular.ModularContext.create) as create:
            rep = verify_tower(ctx, *paper_labels(d))
        assert create.call_count == 1
        assert create.call_args.kwargs["prec"] > ctx.prec
        assert rep.j == j_invariant(ctx) == EXPECTED_J[d]
        assert rep.values["W"].prec == ctx.prec
        assert abs(rep.values["W"].to_fraction()
                   - schlafli_w(ctx).to_fraction()) < F(1, 1 << (ctx.prec - 8))

    @pytest.mark.parametrize("d", CLASS_NUMBER_ONE_DS)
    def test_reports_gamma2_of_its_j(self, d):
        rep = verify_tower(ModularContext.create(d), *paper_labels(d))
        assert rep.gamma2 == gamma2_of(rep.j)
        assert rep.gamma2**3 == EXPECTED_J[d]

    @pytest.mark.parametrize("d", [3, 11, 163])
    def test_one_cube_root_along_the_coverings(self, d):
        # S = cbrt(2W) is the only root taken; Z = S^2/2 and V = S^8/16
        # follow from it, and the residuals that judge them pass
        ctx = ModularContext.create(d)
        with mock.patch.object(FixedReal, "cbrt", autospec=True,
                               side_effect=FixedReal.cbrt) as cbrt, \
                mock.patch.object(modular.fr, "sqrt2") as sqrt2:
            rep = verify_tower(ctx, *paper_labels(d))
        assert cbrt.call_count == 1
        sqrt2.assert_not_called()
        assert not rep.failed()

    @pytest.mark.parametrize("d", [3, 163])
    def test_reports_w_as_its_only_value(self, d):
        rep = verify_tower(ModularContext.create(d), *paper_labels(d))
        assert set(rep.values) == {"W"}

    def test_d3_checks_only_base_equations(self):
        ctx = ModularContext.create(3)
        rep = verify_tower(ctx, (3, 6))
        assert set(rep.residuals) == {"eq2.2", "eq2.3", "eq2.1", "V^3-16"}

    def test_nondivisible_d_checks_full_tower(self):
        ctx = ModularContext.create(11)
        rep = verify_tower(ctx, (-1, 2), (1, 2))
        assert set(rep.residuals) == {
            "eq2.2", "eq2.3", "eq2.1", "eq3.1", "eq3.2", "eq3.3",
        }

    def test_residuals_shrink_with_precision(self):
        p = 128
        r1 = verify_tower(ModularContext.create(163, prec=p), (-17, 150), (2, 6))
        r2 = verify_tower(ModularContext.create(163, prec=2 * p), (-17, 150), (2, 6))
        for eq in r1.residuals:
            v1 = abs(r1.residuals[eq].to_fraction())
            v2 = abs(r2.residuals[eq].to_fraction())
            # doubling the precision must improve each residual by at
            # least the first run's own acceptance factor
            assert v2 <= v1 / (1 << (p // 2 - 4)) + F(1, 1 << (2 * p - 10)), eq

    def test_wrong_pair_fails(self):
        ctx = ModularContext.create(11)
        rep = verify_tower(ctx, (1, 6), (1, 2))  # K3 pair for d=19, not 11
        assert "eq2.2" in rep.failed()

    @pytest.mark.parametrize("d", [11, 19, 43, 67, 163])
    def test_missing_k1_pair_is_an_error(self, d):
        # eq3.2 and eq3.3 are never left out for a d that 3 does not divide
        with pytest.raises(RecoveryError,
                           match=rf"no K1 pair \(al3, be3\) for d={d}"):
            verify_tower(ModularContext.create(d), EXPECTED_PAIRS[d])


class TestSelftest:
    @pytest.mark.parametrize("p", [64, 128, 256])
    def test_product_identity_at_tau_i(self, p):
        st = weber_product_selftest(p)
        assert abs(st.to_fraction()) < F(1, 1 << (p - 8))


def _ref_schlafli_w(ctx):
    """schlafli_w's loop as it was written on FixedReal objects."""
    P = ctx.prec
    one = FixedReal.from_int(1, P)
    acc = one
    tn = ctx.t
    for n in range(1, ctx.n_terms + 1):
        factor = one + tn if n % 2 == 0 else one - tn
        acc = acc * factor
        tn = tn * ctx.t
    w = 4 * ctx.t8 * acc.pow_int(3)
    w.errbits += (abs(w.mantissa) >> (P + 7)) + 2
    return w


def _ref_weber_product_selftest(prec):
    """weber_product_selftest's three products on FixedReal objects."""
    import math
    from curveatlas import fixedreal as fr
    P = prec
    n_terms = math.ceil((P + 16) * math.log(2) / (2 * math.pi)) + 2
    piv = fr.pi(P)
    q = fr.exp(-piv)
    one = FixedReal.from_int(1, P)
    r2 = fr.sqrt2(P)
    s0 = s1 = fr.exp(piv / 24)
    s2 = r2 * fr.exp(-piv / 12)
    q2 = q.pow_int(2)
    q_odd = q
    q_even = q2
    for _ in range(n_terms):
        s0 = s0 * (one + q_odd)
        s1 = s1 * (one - q_odd)
        s2 = s2 * (one + q_even)
        q_odd = q_odd * q2
        q_even = q_even * q2
    return s0 * s1 * s2 - r2


class TestIntegerLoopsMatchObjectLoops:
    """The q-products on bare (mantissa, errbits) ints give the very bits
    of the same loops on FixedReal objects."""

    @pytest.mark.parametrize("prec", [None, 8, 16, 48, 256, 2048])
    @pytest.mark.parametrize("d", CLASS_NUMBER_ONE_DS)
    def test_schlafli_w(self, d, prec):
        ctx = ModularContext.create(d, prec=prec)
        w, ref = schlafli_w(ctx), _ref_schlafli_w(ctx)
        assert (w.prec, w.mantissa, w.errbits) == (ref.prec, ref.mantissa, ref.errbits)

    @pytest.mark.parametrize("prec", [8, 16, 48, 64, 128, 256, 2048])
    def test_weber_product_selftest(self, prec):
        st, ref = weber_product_selftest(prec), _ref_weber_product_selftest(prec)
        assert (st.prec, st.mantissa, st.errbits) == (ref.prec, ref.mantissa, ref.errbits)


def test_paper_labels():
    assert paper_labels(163) == ((-17, 150), (2, 6))
    assert paper_labels(3) == ((3, 6), (0, 0))
    assert paper_labels(7) == (None, None)


def test_paper_labels_round_no_coordinate(set_table_entry):
    # a labelled entry is a pair only when both coordinates are integers
    set_table_entry("_K1_TABLE", 11, (F(1), F(5, 2)))
    assert paper_labels(11) == ((-1, 2), None)
    set_table_entry("_K3_RATIONAL_TABLE", 67, (F(7), F(53, 2)))
    assert paper_labels(67) == (None, (-1, 2))


def test_paper_labels_skip_quadratic_points():
    # the class-number-two fields have quadratic K3 points, no integer pair
    for d in (51, 123, 267):
        assert paper_labels(d) == (None, None)
