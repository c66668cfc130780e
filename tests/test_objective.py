import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma3lab import (
    F1,
    F2,
    F3,
    SchwarzTriple,
    carlson_check,
    gamma3_closed_form,
    global_bound,
    triple_of_blaschke,
    value_xy,
)
from gamma3lab.optimize import _edge_polynomial

from conftest import lattice, sampled_product
from reference import gradient_xy

ALL_FAMILIES = (F1, F2, F3)

X2 = (4 - math.sqrt(7)) / 6
Y2 = (47 - 14 * math.sqrt(7)) / 108


def region_points():
    """Random points (x, y) of E: draw x, then y below the parabola."""
    return st.tuples(
        st.floats(0.0, 1.0, allow_nan=False), st.floats(0.0, 1.0, allow_nan=False)
    ).map(lambda t: (t[0], t[1] * (1.0 - t[0] * t[0])))


class TestObjectiveValue:
    def test_first_family_interior_value(self):
        assert abs(value_xy(F1, 0.25, 0.3125) - 15.75) <= 1e-12

    def test_second_family_interior_value(self):
        assert abs(value_xy(F2, X2, Y2) - 3.10518) <= 1e-5

    def test_third_family_interior_value(self):
        assert abs(value_xy(F3, 0.25, 0.3125) - 17.75) <= 1e-12

    def test_first_family_origin(self):
        assert value_xy(F1, 0.0, 0.0) == 15.0

    def test_parabolic_boundary_passes_with_slack(self):
        # on y = 1 - x^2 the objective is the top-edge cubic
        x = 0.3
        for family in ALL_FAMILIES:
            cubic = sum(c * x**k for k, c in enumerate(_edge_polynomial(family, "top")))
            assert abs(value_xy(family, x, 1.0 - x * x) - cubic) <= 1e-12

    @given(region_points())
    @settings(max_examples=300)
    def test_third_is_first_plus_two(self, p):
        x, y = p
        assert abs(value_xy(F3, x, y) - value_xy(F1, x, y) - 2.0) <= 1e-12


def _expanded_value_xy(family, x, y):
    """The objective term by term, as the objective module defines it."""
    w0, w1, w2, w3, w12, w111 = family.gamma3_weights
    return (
        abs(w0)
        + abs(w1) * x
        + abs(w2) * y
        + w3 * (1.0 - x * x - y * y / (1.0 + x))
        + abs(w12) * x * y
        + abs(w111) * x ** 3
    )


def _value_before_the_helper(family, x, y):
    """:func:`value_xy` as written with a, b and c inline, before :func:`quadratic_in_y`."""
    w0, w1, w2, w3, w12, w111 = family.gamma3_weights
    a = abs(w0) + abs(w1) * x + w3 * (1.0 - x * x) + abs(w111) * x ** 3
    b = abs(w2) + abs(w12) * x
    c = w3 / (1.0 + x)
    return a + y * (b - c * y)


def _rounding(family):
    """How far two orders of the same arithmetic may drift apart on E."""
    return 8 * np.finfo(float).eps * sum(map(abs, family.gamma3_weights))


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.tag)
class TestQuadraticInY:
    def test_arrays_agree_with_the_expanded_form(self, family):
        rng = np.random.default_rng(9)
        x = rng.random(100_000)
        y = rng.random(100_000) * (1.0 - x * x)
        drift = np.abs(value_xy(family, x, y) - _expanded_value_xy(family, x, y))
        assert drift.max() <= _rounding(family)

    def test_scalars_agree_with_the_expanded_form(self, family):
        rng = random.Random(9)
        for _ in range(1000):
            x = rng.random()
            y = rng.random() * (1.0 - x * x)
            value = value_xy(family, x, y)
            assert type(value) is float
            assert abs(value - _expanded_value_xy(family, x, y)) <= _rounding(family)

    def test_lattice_agrees_with_the_expanded_form(self, family):
        x, y = lattice(0.007)
        drift = np.abs(value_xy(family, x, y) - _expanded_value_xy(family, x, y))
        assert drift.max() <= _rounding(family)

    def test_the_helper_leaves_the_value_bit_for_bit(self, family):
        rng = np.random.default_rng(11)
        x = rng.random(10_000)
        y = rng.random(10_000) * (1.0 - x * x)
        assert value_xy(family, x, y).tobytes() == _value_before_the_helper(family, x, y).tobytes()
        grid, before = (f(family, x[:64, None], y[:1000]) for f in (value_xy, _value_before_the_helper))
        assert grid.tobytes() == before.tobytes()
        for xi, yi in zip(x[:500].tolist(), y[:500].tolist()):
            assert value_xy(family, xi, yi).hex() == _value_before_the_helper(family, xi, yi).hex()

    def test_column_broadcast_is_the_pointwise_value(self, family):
        x, y = np.linspace(0.0, 1.0, 64)[:, None], np.linspace(0.0, 1.0, 1000)
        grid = value_xy(family, x, y)
        assert grid.shape == (64, 1000)
        assert (grid == value_xy(family, *np.broadcast_arrays(x, y))).all()


class TestObjectiveGradient:
    def test_vanishes_at_first_family_critical_point(self):
        gx, gy = gradient_xy(F1, 0.25, 0.3125)
        assert abs(gx) <= 1e-12 and abs(gy) <= 1e-12

    def test_vanishes_at_second_family_critical_point(self):
        gx, gy = gradient_xy(F2, X2, Y2)
        assert abs(gx) <= 1e-12 and abs(gy) <= 1e-12

    def test_origin_value(self):
        assert gradient_xy(F1, 0.0, 0.0) == (2.0, 4.0)

    @given(region_points())
    @settings(max_examples=200)
    def test_matches_central_differences(self, p):
        x, y = p
        h = 1e-6
        for family in ALL_FAMILIES:
            gx, gy = gradient_xy(family, x, y)
            fx = (value_xy(family, x + h, y) - value_xy(family, x - h, y)) / (2 * h)
            fy = (value_xy(family, x, y + h) - value_xy(family, x, y - h)) / (2 * h)
            err = math.hypot(gx - fx, gy - fy)
            assert err <= 1e-6 * max(1.0, math.hypot(gx, gy))


class TestDomination:
    def test_sampled_schwarz_functions(self):
        # the triangle-inequality step: scale*|gamma3| <= objective at (|c1|, |c2|)
        for family in ALL_FAMILIES:
            for seed in range(300):
                c = triple_of_blaschke(sampled_product(seed, 1 + seed % 5))
                lhs = family.scale * abs(gamma3_closed_form(family, c))
                assert lhs <= value_xy(family, abs(c.c1), abs(c.c2)) + 1e-9

    @given(
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 2 * math.pi, allow_nan=False),
        st.floats(0, 2 * math.pi, allow_nan=False),
        st.floats(0, 2 * math.pi, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_feasible_triples(self, x, u, v, t1, t2, t3):
        # build a Lemma-feasible triple saturating nothing in particular
        y = u * (1.0 - x * x)
        z = v * (1.0 - x * x - y * y / (1.0 + x))
        c = SchwarzTriple(
            x * complex(math.cos(t1), math.sin(t1)),
            y * complex(math.cos(t2), math.sin(t2)),
            z * complex(math.cos(t3), math.sin(t3)),
        )
        assert all(s >= -1e-12 for s in carlson_check(c))
        for family in ALL_FAMILIES:
            lhs = family.scale * abs(gamma3_closed_form(family, c))
            rhs = value_xy(family, abs(c.c1), abs(c.c2))
            assert lhs <= rhs + 1e-9


class TestBoundFromValue:
    def test_scales(self):
        # the bound is the objective's value at the interior maximum over the scale
        bounds = {f.tag: global_bound(f).gamma3_bound for f in ALL_FAMILIES}
        assert bounds["F1"] == value_xy(F1, 0.25, 0.3125) / 48 == 0.328125
        assert abs(bounds["F2"] - 0.258765) <= 1e-6
        assert abs(bounds["F2"] - value_xy(F2, X2, Y2) / F2.scale) <= 1e-15
        assert abs(bounds["F3"] - 17.75 / 48) <= 1e-15
