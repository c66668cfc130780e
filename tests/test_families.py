import math
import random

import pytest
from hypothesis import given, settings

from gamma3lab import (
    DEFAULT_ORDER,
    F1,
    F2,
    F3,
    Family,
    NotNormalized,
    SchwarzTriple,
    TruncatedSeries,
    family_by_tag,
    gamma3_closed_form,
    gamma_sequence,
    identity_series,
    koebe_series,
    member_series,
    milin_functional,
    taylor_of_blaschke,
    triple_of_blaschke,
)

import reference
from conftest import assert_series_close, bits, bounded_complex, sampled_product

ALL_FAMILIES = (F1, F2, F3)


def member_from_sample(family, seed, degree=3, order=8, real_only=False):
    w = taylor_of_blaschke(sampled_product(seed, degree, real_only), order)
    return member_series(family, w, order)


def member_of(family, c1, c2, c3, order=DEFAULT_ORDER):
    """The member series of w = c1 z + c2 z^2 + c3 z^3."""
    w = TruncatedSeries.from_polynomial((0, c1, c2, c3), order)
    return member_series(family, w, order)


class TestFamilyRecords:
    def test_lookup(self):
        assert family_by_tag("f1") is F1
        assert family_by_tag("F3") is F3
        with pytest.raises(KeyError):
            family_by_tag("f4")

    def test_generators_and_scales(self):
        assert F1.generator == (1.0, -1.0)
        assert F2.generator == (1.0, 0.0, -1.0)
        assert F3.generator == (1.0, -1.0, 1.0)
        assert (F1.scale, F2.scale, F3.scale) == (48, 12, 48)

    def test_a_generator_must_be_one_at_the_origin(self):
        # member_series divides by h through h(0) = 1
        with pytest.raises(ValueError, match="h\\(0\\) = 1"):
            Family("G", (2.0, -1.0), 48, F1.gamma3_weights)


class TestCoefficientMaps:
    """(a2, a3, a4) of the member series at the order the gamma command uses."""

    def test_first_family_at_rotation(self):
        a2, a3, a4 = member_of(F1, 1, 0, 0).coeffs[2:5]
        assert abs(a2 - 1.5) <= 1e-15
        assert abs(a3 - 5 / 3) <= 1e-15
        assert abs(a4 - 7 / 4) <= 1e-15

    def test_second_family_at_zero(self):
        a2, a3, a4 = member_of(F2, 0, 0, 0).coeffs[2:5]
        assert (a2, a4) == (0j, 0j)
        assert abs(a3 - 1 / 3) <= 1e-15

    def test_third_family_at_zero(self):
        a2, a3, a4 = member_of(F3, 0, 0, 0).coeffs[2:5]
        assert abs(a2 - 0.5) <= 1e-15
        assert a3 == 0j
        assert abs(a4 - (-0.25)) <= 1e-15

    def test_first_family_at_zero(self):
        assert member_of(F1, 0, 0, 0).coeffs[2:5] == (0.5 + 0j, 1 / 3 + 0j, 0.25 + 0j)


class TestGamma3:
    def test_from_coefficients(self):
        # gamma_3 of f = z + a2 z^2 + a3 z^3 + a4 z^4, read off the series logarithm
        def gamma3(a2, a3, a4):
            return gamma_sequence(TruncatedSeries((0, 1, a2, a3, a4)), 3)[2]

        assert abs(gamma3(1.5, 5 / 3, 7 / 4) - 3 / 16) <= 1e-15
        assert gamma3(0, 1 / 3, 0) == 0j
        assert abs(gamma3(0.5, 0, -0.25) - (-5 / 48)) <= 1e-15

    def test_closed_form_values(self):
        assert abs(gamma3_closed_form(F1, SchwarzTriple(1, 0, 0)) - 0.1875) <= 1e-15
        assert gamma3_closed_form(F2, SchwarzTriple(0, 0, 0)) == 0j
        assert abs(gamma3_closed_form(F3, SchwarzTriple(0, 0, 0)) - (-5 / 48)) <= 1e-15

    @given(bounded_complex(), bounded_complex(), bounded_complex())
    @settings(max_examples=300)
    def test_closed_form_equals_composition(self, c1, c2, c3):
        c = SchwarzTriple(c1, c2, c3)
        for family in ALL_FAMILIES:
            via_log = gamma_sequence(member_of(family, c1, c2, c3), 3)[2]
            assert abs(gamma3_closed_form(family, c) - via_log) <= 1e-12


class TestMemberSeries:
    def test_first_family_trivial(self):
        f = member_series(F1, TruncatedSeries.from_polynomial((0.0,), 8), 4)
        assert_series_close(f, TruncatedSeries((0, 1, 0.5, 1 / 3, 0.25)))

    def test_first_family_linear_w(self):
        w = TruncatedSeries.from_polynomial((0, 1), 8)
        f = member_series(F1, w, 4)
        assert_series_close(f, TruncatedSeries((0, 1, 1.5, 5 / 3, 7 / 4)))

    def test_second_family_trivial(self):
        f = member_series(F2, TruncatedSeries.from_polynomial((0.0,), 8), 4)
        assert_series_close(f, TruncatedSeries((0, 1, 0, 1 / 3, 0)))

    def test_rejects_a_w_whose_origin_is_nan(self):
        w = TruncatedSeries((complex(math.nan, 0.0), 0.5, 0.0, 0.0))
        with pytest.raises(ValueError, match="w must fix the origin"):
            member_series(F1, w, 4)

    def test_normalization_by_construction(self):
        for family in ALL_FAMILIES:
            f = member_from_sample(family, seed=23, degree=4)
            assert abs(f.coeffs[0]) == 0.0
            assert abs(f.coeffs[1] - 1) <= 1e-12

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.tag)
    def test_equals_the_uncached_composition_bit_for_bit(self, family):
        # on dyadic w both the recurrences and (1 + w) * 1/(1 - w) * 1/h are
        # exact, signed zeros included; elsewhere they round differently, by
        # at most 5.6e-16 relative over 400 seeds of each degree and kind
        rng = random.Random(family.tag)
        parts = (-0.5, -0.25, -0.0, 0.0, 0.25, 0.5)
        dyadic = [TruncatedSeries((-0.0, 0.5, -0.0, 0, complex(-0.0, 0.25)) + (0,) * 5)]
        for _ in range(40):
            head = rng.choice((0, -0.0, complex(-0.0, -0.0)))
            tail = [complex(rng.choice(parts), rng.choice(parts)) for _ in range(9)]
            dyadic.append(TruncatedSeries((head, *tail)))
        sampled = [taylor_of_blaschke(sampled_product(seed, 1 + seed % 6), 10) for seed in range(6)]
        # w(0) may miss 0 by the normalization slack
        sampled.append(TruncatedSeries((4e-13j,) + sampled[3].coeffs[1:]))
        for order in range(1, 11):
            for w in dyadic:
                assert bits(member_series(family, w, order)) == bits(
                    reference.member_series(family, w, order)
                )
            for w in sampled:
                f = member_series(family, w, order)
                assert bits(member_series(family, w, order)) == bits(f)
                for x, y in zip(f.coeffs, reference.member_series(family, w, order).coeffs):
                    assert abs(x - y) <= 1e-15 * max(1.0, abs(y))

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.tag)
    def test_solves_its_defining_equation(self, family):
        # h f' (1 - w) = 1 + w by Cauchy products, with no division and none of
        # member_series' recurrences; at most 3.7e-15 over 300 seeds at these orders
        for seed in range(40):
            for real_only in (False, True):
                w = taylor_of_blaschke(sampled_product(seed, 1 + seed % 6, real_only), 10)
                for order in (2, 4, 8, 10):
                    n = order - 1
                    wt = reference.truncate(w, n)
                    one = TruncatedSeries.from_polynomial((1.0,), n)
                    h = TruncatedSeries.from_polynomial(family.generator, n)
                    f_prime = reference.derivative(member_series(family, w, order))
                    lhs = reference.multiply(reference.multiply(h, f_prime), reference.sub(one, wt))
                    assert_series_close(lhs, reference.add(one, wt), 1e-14)

    def test_requires_w_data(self):
        with pytest.raises(ValueError):
            member_series(F1, TruncatedSeries.from_polynomial((0.0,), 2), 8)
        with pytest.raises(ValueError):
            member_series(F1, TruncatedSeries((0.5, 0, 0)), 3)


class TestGammaSequence:
    def test_koebe(self):
        gammas = gamma_sequence(koebe_series(8), 6)
        for n, g in enumerate(gammas, start=1):
            assert abs(g - 1 / n) <= 1e-12

    def test_identity_all_zero(self):
        assert all(abs(g) <= 1e-15 for g in gamma_sequence(identity_series(8), 5))

    def test_matches_closed_form_for_trivial_member(self):
        f = member_series(F1, TruncatedSeries.from_polynomial((0.0,), 8), 8)
        g3 = gamma_sequence(f, 3)[2]
        assert abs(g3 - 1 / 16) <= 1e-12
        assert abs(g3 - gamma3_closed_form(F1, SchwarzTriple(0, 0, 0))) <= 1e-12

    def test_order_restriction(self):
        with pytest.raises(NotNormalized):
            gamma_sequence(identity_series(3), 3)

    def test_equals_the_full_series_logarithm_bit_for_bit(self):
        # gamma_1..gamma_m come from the logarithm of f cut at order m + 1
        # and must be half the whole series logarithm's coefficients
        members = [koebe_series(8)] + [
            member_from_sample(family, seed, 1 + seed % 6, real_only=real_only)
            for family in ALL_FAMILIES
            for seed in range(6)
            for real_only in (False, True)
        ]
        for f in members:
            full = reference.log_over_z(f).coeffs
            for m in range(1, 8):
                expected = [(g.real.hex(), g.imag.hex()) for g in (c / 2 for c in full[1:m + 1])]
                assert [(g.real.hex(), g.imag.hex()) for g in gamma_sequence(f, m)] == expected

    def test_low_order_formulas_match_log_route(self):
        # gamma1 = a2/2, gamma2 = (a3 - a2^2/2)/2 and
        # gamma3 = (a4 - a2 a3 + a2^3/3)/2, as the log series forces
        for family in ALL_FAMILIES:
            for seed in range(20):
                f = member_from_sample(family, seed=seed, degree=3)
                a2, a3, a4 = f.coeffs[2], f.coeffs[3], f.coeffs[4]
                g1, g2, g3 = gamma_sequence(f, 3)
                assert abs(g1 - a2 / 2) <= 1e-12
                assert abs(g2 - (a3 - a2 * a2 / 2) / 2) <= 1e-12
                assert abs(g3 - (a4 - a2 * a3 + a2**3 / 3) / 2) <= 1e-12


class TestRealRestriction:
    def test_real_samples_give_real_data_below_sharp_values(self):
        from gamma3lab import REMARK_VALUES

        for family in ALL_FAMILIES:
            sharp = REMARK_VALUES[family.tag]
            for seed in range(400):
                b = sampled_product(seed, 1 + seed % 4, real_only=True)
                c = triple_of_blaschke(b)
                a2 = member_series(family, taylor_of_blaschke(b, 2), 3).coeffs[2]
                g3 = gamma3_closed_form(family, c)
                assert a2.imag == 0.0
                assert g3.imag == 0.0
                assert abs(g3) <= sharp + 1e-6


class TestMilinFunctional:
    def test_koebe_vanishes_termwise(self):
        for n in range(1, 6):
            assert abs(milin_functional(koebe_series(8), n)) <= 1e-12

    def test_identity_harmonic_sums(self):
        assert abs(milin_functional(identity_series(8), 3) - (-13 / 3)) <= 1e-12

    def test_random_members_nonpositive(self):
        for family in ALL_FAMILIES:
            for seed in range(40):
                f = member_from_sample(family, seed=seed, degree=1 + seed % 4)
                assert milin_functional(f, 3) <= 1e-9
