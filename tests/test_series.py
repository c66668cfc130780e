import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from gamma3lab import (
    F3,
    BlaschkeProduct,
    NotNormalized,
    TruncatedSeries,
    antiderivative,
    log_over_z,
    member_series,
    taylor_of_blaschke,
)
from gamma3lab.families import koebe_series

import reference
from conftest import assert_series_close, bits, normalized_series, series_strategy
from reference import (
    ZeroConstantTerm,
    add,
    derivative,
    evaluate,
    exp_series,
    multiply,
    reciprocal,
    sub,
)


class TestMultiply:
    def test_difference_of_squares(self):
        a = TruncatedSeries((1, 1, 0))
        b = TruncatedSeries((1, -1, 0))
        assert_series_close(multiply(a, b), TruncatedSeries((1, 0, -1)))

    def test_hand_cauchy_product(self):
        # (1+z)/(1-z) times 1/(1-z) at order 3: the derivative of the first
        # family's member for w(z) = z
        a = TruncatedSeries((1, 2, 2, 2))
        b = TruncatedSeries((1, 1, 1, 1))
        assert_series_close(multiply(a, b), TruncatedSeries((1, 3, 5, 7)))

    def test_truncates_to_min_order(self):
        a = TruncatedSeries((1, 2))
        b = TruncatedSeries((1, 1, 1, 1, 1))
        assert multiply(a, b).order == 1

    def test_reciprocal_identity(self):
        s = TruncatedSeries((2.0, -0.3 + 0.1j, 0.7, 0.2j, -1.1))
        prod = multiply(s, reciprocal(s))
        assert abs(prod.coeffs[0] - 1) <= 1e-12
        for c in prod.coeffs[1:]:
            assert abs(c) <= 1e-12


class TestReciprocal:
    def test_geometric_series(self):
        r = reciprocal(TruncatedSeries((1, -1, 0, 0)))
        assert_series_close(r, TruncatedSeries((1, 1, 1, 1)))

    def test_long_division_oracle(self):
        # 1/(1 - z + z^2) = (1 + z)/(1 + z^3) = 1 + z - z^3 - z^4 + ...
        r = reciprocal(TruncatedSeries((1, -1, 1, 0)))
        assert_series_close(r, TruncatedSeries((1, 1, 0, -1)))

    def test_constant(self):
        r = reciprocal(TruncatedSeries((2.0,)))
        assert_series_close(r, TruncatedSeries((0.5,)))

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ZeroConstantTerm):
            reciprocal(TruncatedSeries((0, 1, 2)))
        with pytest.raises(ZeroConstantTerm):
            reciprocal(TruncatedSeries((1e-13, 1)))


class TestDerivativeAntiderivative:
    def test_derivative(self):
        assert_series_close(
            derivative(TruncatedSeries((0, 1, 1))), TruncatedSeries((1, 2))
        )

    def test_antiderivative_termwise(self):
        a = antiderivative(TruncatedSeries((1, 3, 5, 7)))
        assert_series_close(a, TruncatedSeries((0, 1, 1.5, 5 / 3, 7 / 4)))

    def test_antiderivative_of_zero(self):
        a = antiderivative(TruncatedSeries((0.0,)))
        assert_series_close(a, TruncatedSeries((0.0, 0.0)))

    @given(series_strategy(order=6))
    def test_round_trip(self, s):
        # exact up to the one rounding of the divide-multiply pair (1 ulp)
        for back, orig in zip(derivative(antiderivative(s)).coeffs, s.coeffs):
            assert abs(back - orig) <= 2.3e-16 * max(1.0, abs(orig))

    def test_round_trip_exact_on_dyadic_data(self):
        s = TruncatedSeries((1.0, -0.5, 0.25, 2.0))
        assert derivative(antiderivative(s)).coeffs == s.coeffs

    def test_orders(self):
        s = TruncatedSeries((1, 2, 3))
        assert derivative(s).order == 1
        assert antiderivative(s).order == 3


class TestLogOverZ:
    def test_identity_gives_zero(self):
        g = log_over_z(TruncatedSeries((0, 1, 0, 0)))
        assert all(abs(c) <= 1e-15 for c in g.coeffs)

    def test_koebe_logarithmic_coefficients(self):
        # log((1-z)^-2) = 2 sum z^n / n
        g = log_over_z(koebe_series(8))
        for n in range(1, 8):
            assert abs(g.coeffs[n] - 2.0 / n) <= 1e-12

    def test_first_family_trivial_member(self):
        f = TruncatedSeries((0, 1, 0.5, 1 / 3, 0.25))
        g = log_over_z(f)
        assert abs(g.coeffs[3] / 2 - 1 / 16) <= 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            log_over_z(TruncatedSeries((0.5, 1, 0)))
        with pytest.raises(NotNormalized):
            log_over_z(TruncatedSeries((0, 1.5, 0)))
        with pytest.raises(NotNormalized):
            log_over_z(TruncatedSeries((0.0,)))

    @given(normalized_series(order=7, radius=0.8))
    @settings(max_examples=200)
    def test_exp_log_round_trip(self, f):
        g = log_over_z(f)
        back = exp_series(g)
        for k in range(g.order + 1):
            assert abs(back.coeffs[k] - f.coeffs[k + 1]) <= 1e-10


class TestRingLaws:
    @given(series_strategy(), series_strategy())
    def test_commutative(self, a, b):
        assert_series_close(multiply(a, b), multiply(b, a), 1e-12)

    @given(series_strategy(), series_strategy(), series_strategy())
    @settings(max_examples=150)
    def test_associative(self, a, b, c):
        assert_series_close(
            multiply(multiply(a, b), c), multiply(a, multiply(b, c)), 1e-12
        )

    @given(series_strategy(), series_strategy(), series_strategy())
    @settings(max_examples=150)
    def test_distributive(self, a, b, c):
        assert_series_close(
            multiply(a, add(b, c)), add(multiply(a, b), multiply(a, c)), 1e-12
        )

    @given(series_strategy(order=6, radius=1.0))
    @settings(max_examples=200)
    def test_reciprocal_round_trip_well_conditioned(self, a):
        if abs(a.coeffs[0]) < 0.5:
            a = TruncatedSeries((a.coeffs[0] + 1.0,) + a.coeffs[1:])
        prod = multiply(a, reciprocal(a))
        assert abs(prod.coeffs[0] - 1) <= 1e-12
        for c in prod.coeffs[1:]:
            assert abs(c) <= 1e-12

    @given(series_strategy(order=6, radius=1.0))
    @settings(max_examples=200)
    def test_reciprocal_round_trip_conditioning_scaled(self, a):
        # near-singular constant terms amplify rounding by the growth of the
        # reciprocal's coefficients, so the tolerance must scale with it
        if abs(a.coeffs[0]) < 0.1:
            a = TruncatedSeries((a.coeffs[0] + 0.5,) + a.coeffs[1:])
        inv = reciprocal(a)
        growth = max(1.0, max(abs(c) for c in inv.coeffs))
        tol = 64 * 2.3e-16 * (a.order + 1) * growth
        prod = multiply(a, inv)
        assert abs(prod.coeffs[0] - 1) <= tol
        for c in prod.coeffs[1:]:
            assert abs(c) <= tol

    @given(series_strategy(order=4), series_strategy(order=4))
    def test_coefficient_count_never_promotes(self, a, b):
        for result in (multiply(a, b), add(a, b), sub(a, b)):
            assert len(result.coeffs) == result.order + 1 == 5


class TestEvaluate:
    def test_horner_matches_direct_sum(self):
        s = TruncatedSeries((1, -2, 3, 0.5j))
        z = 0.3 + 0.4j
        direct = sum(c * z**k for k, c in enumerate(s.coeffs))
        assert abs(evaluate(s, z) - direct) <= 1e-14

    def test_truncate_rejects_extension(self):
        with pytest.raises(ValueError):
            TruncatedSeries((1, 2)).truncate(5)

    @pytest.mark.parametrize("order", [-1, -2, -4])
    def test_truncate_rejects_negative_order(self, order):
        # a slice would read -2 as "drop the last coefficient"
        with pytest.raises(ValueError, match="order must be >= 0"):
            TruncatedSeries((1, 2, 3, 4)).truncate(order)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(())

    def test_from_polynomial_pads_known_zeros(self):
        s = TruncatedSeries.from_polynomial((1, -1), 4)
        assert s.coeffs == (1, -1, 0, 0, 0)

    def test_exp_of_constant(self):
        e = exp_series(TruncatedSeries((1.0, 0, 0)))
        assert abs(e.coeffs[0] - math.e) <= 1e-12


def _coefficient(rng: random.Random):
    """Outside data of every kind the constructor takes: signed zeros, ints,
    floats and complex numbers."""
    kind = rng.randrange(6)
    if kind == 0:
        return complex(rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0)))
    if kind == 1:
        return rng.randint(-3, 3)
    if kind == 2:
        return rng.uniform(-2.0, 2.0)
    if kind == 3:
        return complex(rng.choice((0.0, -0.0)), rng.uniform(-1.0, 1.0))
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def _random_series(rng: random.Random, order: int) -> TruncatedSeries:
    return TruncatedSeries(tuple(_coefficient(rng) for _ in range(order + 1)))


ORDERS = range(11)

#: Parts of dyadic coefficients: sums and products of up to eleven of them
#: are exact in doubles, and so is a reciprocal of a unit constant term.
_HALVES = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0)


def _dyadic_series(rng: random.Random, order: int, head=None) -> TruncatedSeries:
    """A series of signed zeros, small ints and halves, led by ``head`` if given."""
    coeffs = [
        rng.choice((rng.randint(-1, 1), complex(rng.choice(_HALVES), rng.choice(_HALVES))))
        for _ in range(order + 1)
    ]
    if head is not None:
        coeffs[0] = head
    return TruncatedSeries(tuple(coeffs))


def _exact(c: complex) -> tuple[Fraction, Fraction]:
    return Fraction(c.real), Fraction(c.imag)


def _exact_product(a: TruncatedSeries, b: TruncatedSeries) -> list[tuple[Fraction, Fraction]]:
    """The Cauchy product in rational arithmetic, truncated to the shorter operand."""
    out = []
    for k in range(min(a.order, b.order) + 1):
        re = im = Fraction(0)
        for i in range(k + 1):
            (xr, xi), (yr, yi) = _exact(a.coeffs[i]), _exact(b.coeffs[k - i])
            re += xr * yr - xi * yi
            im += xr * yi + xi * yr
        out.append((re, im))
    return out


def _doubles(values: list[tuple[Fraction, Fraction]]) -> tuple[complex, ...]:
    """Exactly representable rationals as complex numbers; a zero is +0.0,
    as a sum that starts at 0j gives it."""
    assert all(Fraction(float(v)) == v for pair in values for v in pair)
    return tuple(complex(float(re), float(im)) for re, im in values)


class TestBitForBit:
    """Every series operation equals its index-loop reference bit for bit:
    the same sums in the same order, ±0.0 included.  The reference's Cauchy
    arithmetic, which the program's recurrences are checked against on
    dyadic data, equals rational arithmetic there."""

    @pytest.mark.parametrize("order", ORDERS)
    def test_constructor_coerces_outside_data(self, order):
        rng = random.Random(order)
        data = [_coefficient(rng) for _ in range(order + 1)]
        assert bits(TruncatedSeries(tuple(data))) == tuple(
            (complex(c).real.hex(), complex(c).imag.hex()) for c in data
        )
        assert bits(TruncatedSeries.from_polynomial(data, order + 2))[-2:] == (("0x0.0p+0",) * 2,) * 2

    @pytest.mark.parametrize("order", ORDERS)
    def test_binary_operations(self, order):
        # the reference sum, difference and product are exact on dyadic data
        rng = random.Random(100 + order)
        for other in ORDERS:
            for _ in range(3):
                a, b = _dyadic_series(rng, order), _dyadic_series(rng, other)
                product = TruncatedSeries(_doubles(_exact_product(a, b)))
                assert bits(multiply(a, b)) == bits(product)
                terms = [(_exact(x), _exact(y)) for x, y in zip(a.coeffs, b.coeffs)]
                # == on values: the sign of a zero sum is IEEE's, not the product's
                assert add(a, b).coeffs == _doubles([(xr + yr, xi + yi) for (xr, xi), (yr, yi) in terms])
                assert sub(a, b).coeffs == _doubles([(xr - yr, xi - yi) for (xr, xi), (yr, yi) in terms])

    @pytest.mark.parametrize("order", ORDERS)
    def test_reciprocal(self, order):
        rng = random.Random(200 + order)
        for _ in range(20):
            a = _random_series(rng, order)
            if abs(a.coeffs[0]) <= 1e-12:
                with pytest.raises(ZeroConstantTerm):
                    reciprocal(a)
            # a unit constant term: the reciprocal and its product with a are exact
            a = _dyadic_series(rng, order, head=rng.choice((1, -1.0, 1j, complex(-0.0, -1.0))))
            one = TruncatedSeries.from_polynomial((1.0,), order)
            assert bits(multiply(a, reciprocal(a))) == bits(one)
            inverse = reciprocal(a).coeffs
            assert _exact_product(a, TruncatedSeries(inverse)) == [(1, 0)] + [(0, 0)] * order

    @pytest.mark.parametrize("order", ORDERS)
    def test_antiderivative_and_truncate(self, order):
        rng = random.Random(300 + order)
        for _ in range(10):
            a = _random_series(rng, order)
            assert bits(antiderivative(a)) == bits(reference.antiderivative(a))
            for n in range(order + 1):
                assert bits(a.truncate(n)) == bits(reference.truncate(a, n))

    @pytest.mark.parametrize("order", ORDERS[1:])
    def test_log_over_z(self, order):
        rng = random.Random(400 + order)
        for _ in range(10):
            tail = _random_series(rng, order).coeffs[2:]
            # f(0) and f'(0) may miss 0 and 1 by the normalization slack
            head = (
                rng.choice((0, 0.0, -0.0, complex(-0.0, 0.0), 3e-13j)),
                rng.choice((1, 1.0, 1 - 0j, 1 + 4e-13, complex(1, -5e-13))),
            )
            f = TruncatedSeries(head + tail)
            assert bits(log_over_z(f)) == bits(reference.log_over_z(f))

    def test_results_hold_python_complex(self):
        # np.complex128 is a subclass of complex, so the check is by exact type
        a = TruncatedSeries((np.complex128(1 + 1j), np.float64(0.5), 2))
        assert bits(a) == bits(TruncatedSeries((1 + 1j, 0.5, 2)))
        b = TruncatedSeries.from_polynomial((np.complex128(-0.0), np.int64(3)), 3)
        assert bits(b) == bits(TruncatedSeries.from_polynomial((-0.0, 3), 3))
        w = TruncatedSeries.from_polynomial((0, np.float64(0.5), np.complex128(0.25j)), 3)
        blaschke = BlaschkeProduct((np.complex128(0.5 - 0.25j),), np.complex128(-1j))
        for result in (
            member_series(F3, w, 4),
            taylor_of_blaschke(blaschke, 4),
            antiderivative(b),
            b.truncate(1),
        ):
            bits(result)
