"""Truncated Taylor series over complex coefficients.

A :class:`TruncatedSeries` stores the coefficients of a finite expansion

    a(z) = a[0] + a[1] z + ... + a[N] z**N

where ``N`` is the *order*.  Coefficients beyond the order are unknown, not
zero, so every binary operation truncates its result to the shorter
operand: nothing is ever fabricated beyond known data.

The module supplies the sum, difference and Cauchy product, reciprocal,
antiderivative, and the series logarithm of ``f/z`` that defines the
logarithmic coefficients of a normalized function (``f(0) = 0``,
``f'(0) = 1``); derivative and exponential are the references they are
checked against.

All values are immutable and all functions are pure, so everything here is
safe for unrestricted concurrent use.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

from .config import TOL


class ZeroConstantTerm(ArithmeticError):
    """Reciprocal of a series whose constant term is (numerically) zero."""


class NotNormalized(ValueError):
    """Series operation requires f(0) = 0 and f'(0) = 1."""


@dataclass(frozen=True)
class TruncatedSeries:
    """Finite Taylor expansion; ``coeffs[k]`` multiplies ``z**k``."""

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise ValueError("a series needs at least its constant term")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    @classmethod
    def from_polynomial(cls, coeffs: Sequence[complex], order: int) -> "TruncatedSeries":
        """Lift a polynomial to a series of the given order.

        Padding with zeros is legitimate here because a polynomial's higher
        coefficients are known to be exactly zero.
        """
        if order < 0:
            raise ValueError("order must be >= 0")
        padded = list(coeffs[: order + 1]) + [0.0] * (order + 1 - len(coeffs))
        return cls(tuple(padded))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a series past its known order")
        return TruncatedSeries(self.coeffs[: order + 1])

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(
            tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1))
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(
            tuple(self.coeffs[k] - other.coeffs[k] for k in range(n + 1))
        )

    def evaluate(self, z: complex) -> complex:
        """Horner evaluation of the truncated polynomial at a point.

        Truncation error is the caller's responsibility via the order.
        """
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc


def multiply(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated to the shorter operand."""
    n = min(a.order, b.order)
    out = []
    for k in range(n + 1):
        s = 0j
        for i in range(k + 1):
            s += a.coeffs[i] * b.coeffs[k - i]
        out.append(s)
    return TruncatedSeries(tuple(out))


def reciprocal(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse at the same order; needs a nonzero constant term."""
    if abs(a.coeffs[0]) <= TOL.zero_constant:
        raise ZeroConstantTerm(
            f"constant term {a.coeffs[0]!r} is too small to invert"
        )
    inv0 = 1.0 / a.coeffs[0]
    out = [inv0]
    for k in range(1, a.order + 1):
        s = 0j
        for i in range(1, k + 1):
            s += a.coeffs[i] * out[k - i]
        out.append(-inv0 * s)
    return TruncatedSeries(tuple(out))


def derivative(a: TruncatedSeries) -> TruncatedSeries:
    """Term-wise derivative; drops the order by one (floor at zero)."""
    if a.order == 0:
        return TruncatedSeries((0j,))
    return TruncatedSeries(tuple((k + 1) * a.coeffs[k + 1] for k in range(a.order)))


def antiderivative(a: TruncatedSeries) -> TruncatedSeries:
    """Term-wise antiderivative with constant term zero; raises order by one."""
    out = [0j] + [a.coeffs[k] / (k + 1) for k in range(a.order + 1)]
    return TruncatedSeries(tuple(out))


def exp_series(g: TruncatedSeries) -> TruncatedSeries:
    """Series exponential via the recurrence E' = g' E."""
    e0 = cmath.exp(g.coeffs[0])
    out = [e0]
    for n in range(g.order):
        s = 0j
        for j in range(n + 1):
            s += (j + 1) * g.coeffs[j + 1] * out[n - j]
        out.append(s / (n + 1))
    return TruncatedSeries(tuple(out))


def log_over_z(f: TruncatedSeries) -> TruncatedSeries:
    """Series logarithm of f(z)/z for a normalized f.

    Returns g of order ``f.order - 1`` with g(0) = 0 and exp(g) = f/z.
    Half of g's coefficients are the logarithmic coefficients of f.

    The computation solves g'*(f/z) = (f/z)' term by term; this is better
    conditioned than composing with the logarithm's Maclaurin expansion and
    takes a single pass.
    """
    if f.order < 1:
        raise NotNormalized("need at least the z coefficient")
    if abs(f.coeffs[0]) > TOL.normalized or abs(f.coeffs[1] - 1.0) > TOL.normalized:
        raise NotNormalized(
            f"series is not normalized: f(0)={f.coeffs[0]!r}, f'(0)={f.coeffs[1]!r}"
        )
    u = f.coeffs[1:]  # coefficients of f/z; u[0] == 1 up to tolerance
    n_max = len(u) - 1
    g = [0j] * (n_max + 1)
    for n in range(n_max):
        # (n+1) u[n+1] = sum_{j=0..n} (j+1) g[j+1] u[n-j]
        s = 0j
        for j in range(n):
            s += (j + 1) * g[j + 1] * u[n - j]
        g[n + 1] = ((n + 1) * u[n + 1] - s) / ((n + 1) * u[0])
    return TruncatedSeries(tuple(g))
