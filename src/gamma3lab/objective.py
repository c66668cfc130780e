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

from .families import Family


def quadratic_in_y(family: Family, x: float) -> tuple[float, float, float]:
    """(a, b, c) of the objective a + y (b - c y) at x; c > 0 exactly when w3 > 0."""
    w0, w1, w2, w3, w12, w111 = family.gamma3_weights
    a = abs(w0) + abs(w1) * x + w3 * (1.0 - x * x) + abs(w111) * x ** 3
    b = abs(w2) + abs(w12) * x
    c = w3 / (1.0 + x)
    return a, b, c


def value_xy(family: Family, x: float, y: float) -> float:
    """Objective at (x, y), as the quadratic a + y (b - c y) in y.

    a, b and c depend on x alone, so broadcasting a column of x against a
    row of y computes them once per x and leaves four operations per point.
    """
    a, b, c = quadratic_in_y(family, x)
    return a + y * (b - c * y)
