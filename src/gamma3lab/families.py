"""The three close-to-convex families and their gamma_3 machinery.

Each family consists of normalized univalent functions f with

    Re{ h(z) f'(z) } > 0   on the unit disk,

for a fixed generator polynomial h: 1-z, 1-z^2 or 1-z+z^2.  Membership is
equivalent to h(z) f'(z) = (1+w)/(1-w) for a Schwarz function w, which
makes the Taylor coefficients (a2, a3, a4) polynomials in the Schwarz
coefficients (c1, c2, c3) and, through

    gamma_3 = (1/2)(a4 - a2 a3 + a2^3 / 3),

gives a closed form

    gamma_3 = (w0 + w1 c1 + w2 c2 + w3 c3 + w12 c1 c2 + w111 c1^3) / scale

with integer weights particular to the family.  The weights are stored on
the family record; taking their absolute values gives exactly the
objective function maximized in :mod:`gamma3lab.objective`, so the
triangle-inequality step that links the two lives in one place.

The closed form's independent check is the series-log route: the member
series of w and its logarithm log(f(z)/z) = 2 sum gamma_n z^n, which
forces gamma_1 = a2/2 and gamma_2 = (a3 - a2^2/2)/2 and is never
hand-expanded further.  The member series takes two linear recurrences,
no Cauchy product: one pass for the quotient q = (1+w)/(1-w), from
q (1 - w) = 1 + w, and one that divides q by h in O(n deg h) steps.  The
test suite checks them against the O(n^2) composition
(1 + w) * 1/(1 - w) * 1/h, and against h f' (1 - w) = 1 + w.

Everything here is a pure function over immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import TOL
from .schwarz import SchwarzTriple
from .series import NotNormalized, TruncatedSeries, antiderivative, log_over_z


@dataclass(frozen=True)
class Family:
    """One of the three subclasses, identified by its generator polynomial.

    ``generator`` holds the coefficients of h (constant term first, 1),
    ``scale`` the denominator of the gamma_3 closed form, and
    ``gamma3_weights`` the numerator weights of the monomials
    (1, c1, c2, c3, c1*c2, c1^3) in that order.
    """

    tag: str
    generator: tuple[float, ...]
    scale: int
    gamma3_weights: tuple[float, float, float, float, float, float]

    def __post_init__(self) -> None:
        if self.generator[0] != 1.0:
            raise ValueError(f"a generator must have h(0) = 1, not {self.generator[0]!r}")


F1 = Family("F1", (1.0, -1.0), 48, (3.0, 2.0, 4.0, 12.0, 8.0, 4.0))
F2 = Family("F2", (1.0, 0.0, -1.0), 12, (0.0, 1.0, 0.0, 3.0, 2.0, 1.0))
F3 = Family("F3", (1.0, -1.0, 1.0), 48, (-5.0, -2.0, 4.0, 12.0, 8.0, 4.0))

FAMILIES: dict[str, Family] = {"f1": F1, "f2": F2, "f3": F3}


def family_by_tag(tag: str) -> Family:
    try:
        return FAMILIES[tag.lower()]
    except KeyError:
        raise KeyError(f"unknown family {tag!r}; expected one of f1, f2, f3") from None


def gamma3_closed_form(family: Family, c: SchwarzTriple) -> complex:
    """Family closed form for gamma_3 in terms of (c1, c2, c3).

    Agrees to rounding error, for arbitrary inputs, with the series-log
    route gamma_sequence(member_series(family, c1 z + c2 z^2 + c3 z^3)).
    On a triple of arrays it gives an array.
    """
    c1, c2, c3 = c.c1, c.c2, c.c3
    w0, w1, w2, w3, w12, w111 = family.gamma3_weights
    return (w0 + w1 * c1 + w2 * c2 + w3 * c3 + w12 * c1 * c2 + w111 * c1 ** 3) / family.scale


def member_series(family: Family, w: TruncatedSeries, order: int) -> TruncatedSeries:
    """The member f with h(z) f'(z) = (1 + w)/(1 - w), as a series.

    ``w`` must carry data up to order-1 so that no coefficient of f is
    fabricated; f(0) = 0 and f'(0) = 1 hold by construction.  One pass
    solves q (1 - w) = 1 + w for q, one divides q by h (h(0) = 1), through
    f'_k = q_k - h_1 f'_{k-1} - h_2 f'_{k-2} - ..., and f is the
    antiderivative.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not abs(w.coeffs[0]) <= TOL.normalized:
        raise ValueError("w must fix the origin: w(0) = 0")
    if w.order < order - 1:
        raise ValueError(
            f"w carries data to order {w.order}, need {order - 1} for f at order {order}"
        )
    x = w.coeffs
    inv = 1.0 / (1.0 - x[0])
    q = [(1.0 + x[0]) * inv]
    for k in range(1, order):
        # q_k (1 - w_0) = w_k + sum_{j=1..k} w_j q_{k-j}; adding 0j makes a
        # -0.0 part of w_k +0.0, so no zero part of f is -0.0
        s = x[k] + 0j
        for j in range(1, k + 1):
            s += x[j] * q[k - j]
        q.append(s * inv)
    h = family.generator
    f_prime = []
    for k, c in enumerate(q):
        for j in range(1, min(k + 1, len(h))):
            c -= h[j] * f_prime[k - j]
        f_prime.append(c)
    return antiderivative(TruncatedSeries._of(tuple(f_prime)))


def gamma_sequence(f: TruncatedSeries, m: int) -> list[complex]:
    """Logarithmic coefficients gamma_1..gamma_m of a normalized f.

    gamma_m needs f only to order m + 1, and coefficient k of the series
    logarithm depends only on coefficients <= k + 1 of f, so the logarithm
    of f truncated there gives the full series' values bit for bit.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > f.order - 1:
        raise NotNormalized(
            f"series of order {f.order} determines gamma_n only for n <= {f.order - 1}"
        )
    g = log_over_z(f.truncate(m + 1))
    return [g.coeffs[k] / 2 for k in range(1, m + 1)]


def milin_functional(f: TruncatedSeries, n: int) -> float:
    """Double sum of k|gamma_k|^2 - 1/k for m <= n, k <= m.

    Nonpositive for univalent functions; zero term by term for the Koebe
    function.
    """
    gammas = gamma_sequence(f, n)
    total = 0.0
    partial = 0.0
    for k in range(1, n + 1):
        g = gammas[k - 1]
        partial += k * (g.real * g.real + g.imag * g.imag) - 1.0 / k
        total += partial
    return total


def koebe_series(order: int) -> TruncatedSeries:
    """z/(1-z)^2 = sum n z^n, the extremal function of the full class."""
    return TruncatedSeries(tuple(complex(n) for n in range(order + 1)))


def identity_series(order: int) -> TruncatedSeries:
    """f(z) = z."""
    return TruncatedSeries.from_polynomial((0.0, 1.0), order)
