"""Real objective functions whose maxima over E bound |gamma_3|.

Applying the triangle inequality to the gamma_3 closed form and replacing
|c3| by its Carlson bound leaves a function of x = |c1| and y = |c2| alone:

    f(x, y) = |w0| + |w1| x + |w2| y + w3 (1 - x^2 - y^2/(1+x))
              + |w12| x y + |w111| x^3

on the region E = {0 <= x <= 1, 0 <= y <= 1 - x^2}.  The weights are the
family's gamma_3 weights, so domination of scale*|gamma_3| by the
objective is structural.  That expanded form is the definition;
:func:`value_xy` evaluates the same function as a quadratic in y,

    f(x, y) = a(x) + y (b(x) - c(x) y),
    a = |w0| + |w1| x + w3 (1 - x^2) + |w111| x^3,
    b = |w2| + |w12| x,    c = w3 / (1 + x),

by Horner's rule, which agrees with the expanded form to rounding.  The
denominator 1 + x is >= 1 on E, so no singularity handling is needed
anywhere.  The evaluations do not check that (x, y) lies in E.
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import Family


@dataclass(frozen=True)
class RegionPoint:
    """A point (x, y) = (|c1|, |c2|) of the feasibility region E."""

    x: float
    y: float


def value_xy(family: Family, x: float, y: float) -> float:
    """Objective at (x, y), as the quadratic a + y (b - c y) in y.

    a, b and c depend on x alone, so broadcasting a column of x against a
    row of y computes them once per x and leaves four operations per point.
    """
    w0, w1, w2, w3, w12, w111 = family.gamma3_weights
    a = abs(w0) + abs(w1) * x + w3 * (1.0 - x * x) + abs(w111) * x ** 3
    b = abs(w2) + abs(w12) * x
    c = w3 / (1.0 + x)
    return a + y * (b - c * y)


def gradient_xy(family: Family, x: float, y: float) -> tuple[float, float]:
    """Analytic partial derivatives of the objective."""
    w0, w1, w2, w3, w12, w111 = family.gamma3_weights
    t = y / (1.0 + x)
    dx = abs(w1) - 2.0 * w3 * x + w3 * t * t + abs(w12) * y + 3.0 * abs(w111) * x * x
    dy = abs(w2) - 2.0 * w3 * t + abs(w12) * x
    return (dx, dy)


def hessian_xy(
    family: Family, x: float, y: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Exact second partials of the objective."""
    _, _, _, w3, w12, w111 = family.gamma3_weights
    hxx = -2.0 * w3 - 2.0 * w3 * y * y / (1.0 + x) ** 3 + 6.0 * abs(w111) * x
    hxy = abs(w12) + 2.0 * w3 * y / (1.0 + x) ** 2
    hyy = -2.0 * w3 / (1.0 + x)
    return ((hxx, hxy), (hxy, hyy))


def is_negative_definite(h: tuple[tuple[float, float], tuple[float, float]]) -> bool:
    return h[0][0] < 0.0 and h[0][0] * h[1][1] - h[0][1] * h[1][0] > 0.0
