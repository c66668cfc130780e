"""Truncated Taylor series over complex or exact rational coefficients.

A :class:`TruncatedSeries` stores the coefficients of a finite expansion

    a(z) = a[0] + a[1] z + ... + a[N] z**N

where ``N`` is the *order*.  Coefficients beyond the order are unknown, not
zero, so no operation fabricates data beyond them.

The module supplies the antiderivative and the series logarithm of ``f/z``
that defines the logarithmic coefficients of a normalized function
(``f(0) = 0``, ``f'(0) = 1``).  It has no Cauchy product: the series that
the program multiplies by or divides by are rational of small degree, so
their builders, :func:`gamma3lab.schwarz.taylor_of_blaschke` and
:func:`gamma3lab.families.member_series`, run one linear recurrence per
factor instead.  The O(n^2) products and reciprocals they replace are kept
as the test suite's reference, which the recurrences are checked against.

A series holds its coefficients as given, and every operation takes its
zero and its one from its own data, so ``fractions.Fraction`` data gives
exact results and complex data complex ones.  Only the float entry points
coerce: :class:`gamma3lab.schwarz.BlaschkeProduct` and the command line.

All values are immutable and all functions are pure, so everything here is
safe for unrestricted concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .config import TOL


class NotNormalized(ValueError):
    """Series operation requires f(0) = 0 and f'(0) = 1."""


@dataclass(frozen=True)
class TruncatedSeries:
    """Finite Taylor expansion; ``coeffs[k]`` multiplies ``z**k``."""

    coeffs: tuple

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise ValueError("a series needs at least its constant term")

    @classmethod
    def from_polynomial(cls, coeffs: Sequence, order: int) -> "TruncatedSeries":
        """Lift a polynomial to a series of the given order.

        Padding with zeros, c0 - c0 in c0's type, is legitimate here because
        a polynomial's higher coefficients are known to be exactly zero.
        """
        if order < 0:
            raise ValueError("order must be >= 0")
        zero = coeffs[0] - coeffs[0]
        return cls(tuple(coeffs[: order + 1]) + (zero,) * (order + 1 - len(coeffs)))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def truncate(self, order: int) -> "TruncatedSeries":
        if order < 0:
            raise ValueError("order must be >= 0")
        if order > self.order:
            raise ValueError("cannot extend a series past its known order")
        return TruncatedSeries(self.coeffs[: order + 1])


def antiderivative(a: TruncatedSeries) -> TruncatedSeries:
    """Term-wise antiderivative with constant term zero; raises order by one."""
    zero = a.coeffs[0] - a.coeffs[0]
    return TruncatedSeries((zero,) + tuple(c / k for k, c in enumerate(a.coeffs, 1)))


def log_over_z(f: TruncatedSeries) -> TruncatedSeries:
    """Series logarithm of f(z)/z for a normalized f.

    Returns g of order ``f.order - 1`` with g(0) = 0 and exp(g) = f/z.
    Half of g's coefficients are the logarithmic coefficients of f.

    The computation solves g'*(f/z) = (f/z)' term by term; this is better
    conditioned than composing with the logarithm's Maclaurin expansion and
    takes a single pass.
    """
    x = f.coeffs
    if len(x) < 2:
        raise NotNormalized("need at least the z coefficient")
    if not (abs(x[0]) <= TOL.normalized and abs(x[1] - 1.0) <= TOL.normalized):
        raise NotNormalized(f"series is not normalized: f(0)={x[0]!r}, f'(0)={x[1]!r}")
    u = x[1:]  # coefficients of f/z; u[0] == 1 up to tolerance
    n_max = len(u) - 1
    zero = u[0] - u[0]
    g = [zero] * (n_max + 1)
    for n in range(n_max):
        # (n+1) u[n+1] = sum_{j=0..n} (j+1) g[j+1] u[n-j]
        s = zero
        for j in range(n):
            s += (j + 1) * g[j + 1] * u[n - j]
        g[n + 1] = ((n + 1) * u[n + 1] - s) / ((n + 1) * u[0])
    return TruncatedSeries(tuple(g))
