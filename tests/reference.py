"""Test-only references: the series arithmetic, and helpers with no caller
in the program.

The index-loop bodies below are plain definitions: they read every
coefficient through ``.coeffs`` and build every result through the public
constructor, which holds its data as given.  ``truncate``,
``antiderivative`` and ``log_over_z`` define the operations of
:mod:`gamma3lab.series`, which must agree with them bit for bit; like
them, the last two take their zero from their data.  ``add``, ``sub``, ``multiply`` and ``reciprocal`` are
the O(n^2) sum, difference, Cauchy product and reciprocal that the program
no longer has: ``taylor_of_blaschke`` and ``member_series`` below compose
them factor by factor, building every series afresh on every call.  The
program's linear recurrences must equal these compositions bit for bit on
dyadic inputs, where both are exact, and agree with them to a few ulps on
sampled ones; ``multiply`` also checks ``member_series`` through
h f' (1 - w) = 1 + w, with no division.  ``evaluate``, ``derivative`` and
``exp_series`` have no program twin; they are the independent checks of
``taylor_of_blaschke``, ``antiderivative`` and ``log_over_z``.
``blaschke_value`` evaluates a Blaschke product directly, the reference its
Taylor series is checked against; ``gradient_xy``, ``hessian_xy`` and
``is_negative_definite`` are the objective's exact derivatives, which check
its interior maxima.  ``sample_batch`` and ``search_points`` draw a whole
batch of products or of a search's (a, b) from one stream at once, the
one-shot references that the program's blocked streams are checked
against, and ``row`` reads one product out of a batch.
``schur_parameters`` inverts ``schur_triple``, whose round trip it checks,
degenerate cases included.
"""

import cmath
import math
import random

import numpy as np

from gamma3lab import TOL, BlaschkeBatch, BlaschkeProduct, NotNormalized, TruncatedSeries
from gamma3lab.schwarz import _batch, _draws, _zeros

#: |a0| at or below this cannot be inverted by ``reciprocal``.
ZERO_CONSTANT = 1e-12


class ZeroConstantTerm(ArithmeticError):
    """Reciprocal of a series whose constant term is (numerically) zero."""


def truncate(a: TruncatedSeries, order: int) -> TruncatedSeries:
    if order > a.order:
        raise ValueError("cannot extend a series past its known order")
    return TruncatedSeries(a.coeffs[: order + 1])


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    n = min(a.order, b.order)
    return TruncatedSeries(tuple(a.coeffs[k] + b.coeffs[k] for k in range(n + 1)))


def sub(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    n = min(a.order, b.order)
    return TruncatedSeries(tuple(a.coeffs[k] - b.coeffs[k] for k in range(n + 1)))


def multiply(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    n = min(a.order, b.order)
    out = []
    for k in range(n + 1):
        s = 0j
        for i in range(k + 1):
            s += a.coeffs[i] * b.coeffs[k - i]
        out.append(s)
    return TruncatedSeries(tuple(out))


def reciprocal(a: TruncatedSeries) -> TruncatedSeries:
    if abs(a.coeffs[0]) <= ZERO_CONSTANT:
        raise ZeroConstantTerm(f"constant term {a.coeffs[0]!r} is too small to invert")
    inv0 = 1.0 / a.coeffs[0]
    out = [inv0]
    for k in range(1, a.order + 1):
        s = 0j
        for i in range(1, k + 1):
            s += a.coeffs[i] * out[k - i]
        out.append(-inv0 * s)
    return TruncatedSeries(tuple(out))


def antiderivative(a: TruncatedSeries) -> TruncatedSeries:
    out = [a.coeffs[0] - a.coeffs[0]] + [a.coeffs[k] / (k + 1) for k in range(a.order + 1)]
    return TruncatedSeries(tuple(out))


def log_over_z(f: TruncatedSeries) -> TruncatedSeries:
    if f.order < 1:
        raise NotNormalized("need at least the z coefficient")
    if abs(f.coeffs[0]) > TOL.normalized or abs(f.coeffs[1] - 1.0) > TOL.normalized:
        raise NotNormalized("series is not normalized")
    u = f.coeffs[1:]
    n_max = len(u) - 1
    zero = u[0] - u[0]
    g = [zero] * (n_max + 1)
    for n in range(n_max):
        s = zero
        for j in range(n):
            s += (j + 1) * g[j + 1] * u[n - j]
        g[n + 1] = ((n + 1) * u[n + 1] - s) / ((n + 1) * u[0])
    return TruncatedSeries(tuple(g))


def taylor_of_blaschke(b, order: int) -> TruncatedSeries:
    """The Taylor coefficients of a Blaschke product, one factor at a time."""
    tail = TruncatedSeries.from_polynomial((1.0,), order - 1)
    for a in b.zeros:
        ac = a.conjugate()
        lead = 1.0 - (a * ac).real
        coeffs = [-a]
        p = 1.0 + 0j
        for _ in range(order - 1):
            coeffs.append(p * lead)
            p *= ac
        tail = multiply(tail, TruncatedSeries(tuple(coeffs)))
    return TruncatedSeries(tuple([0j] + [b.rotation * c for c in tail.coeffs]))


def member_series(family, w: TruncatedSeries, order: int) -> TruncatedSeries:
    """f with h f' = (1 + w)/(1 - w), with 1 and 1/h built on every call."""
    n = order - 1
    wt = truncate(w, n)
    one = TruncatedSeries.from_polynomial((1.0,), n)
    h = TruncatedSeries.from_polynomial(family.generator, n)
    return antiderivative(multiply(multiply(add(one, wt), reciprocal(sub(one, wt))), reciprocal(h)))


def evaluate(a: TruncatedSeries, z: complex) -> complex:
    """Horner evaluation of the truncated polynomial at a point."""
    acc = 0j
    for c in reversed(a.coeffs):
        acc = acc * z + c
    return acc


def derivative(a: TruncatedSeries) -> TruncatedSeries:
    """Term-wise derivative; drops the order by one (floor at zero)."""
    if a.order == 0:
        return TruncatedSeries((0j,))
    return TruncatedSeries(tuple((k + 1) * a.coeffs[k + 1] for k in range(a.order)))


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


def blaschke_value(b, z: complex) -> complex:
    """Evaluate the product directly (no series truncation)."""
    w = b.rotation * z
    for a in b.zeros:
        w *= (z - a) / (1.0 - a.conjugate() * z)
    return w


def gradient_xy(family, x: float, y: float) -> tuple[float, float]:
    """Analytic partial derivatives of the objective."""
    w0, w1, w2, w3, w12, w111 = family.gamma3_weights
    t = y / (1.0 + x)
    dx = abs(w1) - 2.0 * w3 * x + w3 * t * t + abs(w12) * y + 3.0 * abs(w111) * x * x
    dy = abs(w2) - 2.0 * w3 * t + abs(w12) * x
    return (dx, dy)


def hessian_xy(
    family, x: float, y: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Exact second partials of the objective."""
    _, _, _, w3, w12, w111 = family.gamma3_weights
    hxx = -2.0 * w3 - 2.0 * w3 * y * y / (1.0 + x) ** 3 + 6.0 * abs(w111) * x
    hxy = abs(w12) + 2.0 * w3 * y / (1.0 + x) ** 2
    hyy = -2.0 * w3 / (1.0 + x)
    return ((hxx, hxy), (hxy, hyy))


def is_negative_definite(h: tuple[tuple[float, float], tuple[float, float]]) -> bool:
    return h[0][0] < 0.0 and h[0][0] * h[1][1] - h[0][1] * h[1][0] > 0.0


#: SplitMix64's increment and finalizer multipliers, as Python ints.
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MASK = 2**64 - 1


def stream_word(origin: int, i: int) -> int:
    """Word i of the stream at ``origin``, in Python ints masked to 64 bits: the
    SplitMix64 finalizer of origin + (i + 1) gamma mod 2^64, one word at a time."""
    z = (origin + (i + 1) * _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def stream_words(key: str | int, n: int) -> list[int]:
    """The first n words of the stream keyed ``key``, from the origin
    ``random.Random(key).getrandbits(64)``."""
    origin = random.Random(key).getrandbits(64)
    return [stream_word(origin, i) for i in range(n)]


def _stream(key: str | int, rows: int, n: int) -> np.ndarray:
    """n columns of ``rows`` uniforms, the first n * rows words of one stream in order."""
    words = np.array(stream_words(key, n * rows), dtype=np.uint64)
    return (words >> np.uint64(11)).reshape(n, rows).T * 2.0**-53


def sample_batch(key: str | int, degree: int, n: int, real_only: bool = False) -> BlaschkeBatch:
    """n deterministic random Blaschke products of the given degree.

    Complex zeros are area-uniform on the open disk (radius = sqrt(u));
    the rotation is uniform on the circle.  With ``real_only`` the zeros
    are uniform on (-1, 1) and the rotation is +-1, which makes all Taylor
    coefficients real.  All uniforms come from one stream, read in order,
    so the first m products do not depend on n >= m; ``sample_blocks`` keys
    degree d's stream ``products/{seed}/{d}`` (``products/real/{seed}/{d}``).
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return _batch(_stream(key, _draws(degree, real_only), n), real_only)


def search_points(seed: int, n: int, real_only: bool = False):
    """The first n points (a, b) of the search's global phase at this seed, every row decoded."""
    key = f"search/real/{seed}" if real_only else f"search/{seed}"
    return _zeros(_stream(key, 2 if real_only else 4, n), real_only)


def row(batch: BlaschkeBatch, j: int) -> BlaschkeProduct:
    """Product j of a batch, with exactly the numbers of the batch."""
    return BlaschkeProduct(tuple(a[j] for a in batch.zeros), batch.rotation[j])


def schur_parameters(c) -> tuple[complex, complex, complex]:
    """The Schur parameters (a, b, eta) of a scalar triple, inverting ``schur_triple``:

    a = c1, b = c2/(1 - |a|^2), eta = (c3/(1 - |a|^2) + conj(a) b^2)/(1 - |b|^2).
    The triple begins a Schwarz function exactly when |a|, |b|, |eta| <= 1.
    |a| = 1 forces c2 = c3 = 0, and |b| = 1 forces c3 = -conj(a) b^2 (1 - |a|^2):
    a parameter left free then reads 0, and one whose forced value fails reads inf.
    """
    a, inf = c.c1, complex(math.inf)
    ka = 1.0 - (a * a.conjugate()).real
    if ka == 0.0:
        return a, (inf if c.c2 else 0j), (inf if c.c3 else 0j)
    b = c.c2 / ka
    kb = 1.0 - (b * b.conjugate()).real
    r = c.c3 / ka + a.conjugate() * b * b
    return a, b, (r / kb if kb != 0.0 else (inf if r else 0j))
