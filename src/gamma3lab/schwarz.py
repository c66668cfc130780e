"""Schwarz functions as coefficient triples and finite Blaschke products.

A Schwarz function is an analytic self-map w of the unit disk with
w(0) = 0.  Its first three Taylor coefficients obey Carlson's bounds

    |c1| <= 1,   |c2| <= 1 - |c1|^2,   |c3| <= 1 - |c1|^2 - |c2|^2/(1+|c1|),

which :func:`carlson_check` reports as three slack values.  Concrete
witnesses are finite Blaschke products: one zero is pinned at the origin
(so w(0) = 0 holds structurally) and the remaining zeros live strictly
inside the disk, so every product is a genuine Schwarz function by
construction.

Schur's algorithm describes the triples exactly, by parameters |a|, |b|,
|eta| <= 1 (:func:`schur_triple`; :func:`in_body` tests a triple);
Carlson's third bound is the triangle inequality on |eta| <= 1.  For
unimodular eta, :func:`schur_witness` is the degree-3 product with them.

The same products come one at a time (:class:`BlaschkeProduct`) or as a
batch of one degree (:class:`BlaschkeBatch`, one complex array per zero),
and :func:`triple_of_blaschke` reads (c1, c2, c3) off either with the
same lines of arithmetic.  :func:`taylor_of_blaschke` expands a product
to any order in one linear pass per zero a, multiplying by z - a and
dividing by 1 - conj(a) z as two-term recurrences, with no Cauchy
product; the test suite checks it against the O(n^2) product of the
factors' series.

Samplers are pure functions of their seed.  Every stream is keyed by a
string naming its purpose, and its origin is 64 bits of
``random.Random(key)``, which CPython seeds with all of the key's bytes
plus their SHA-512.  Word i of the stream is the SplitMix64 finalizer
(Steele, Lea and Flood 2014) of origin + (i + 1) gamma mod 2^64, a
counter-based generator (Salmon et al. 2011) in numpy ``uint64``
arithmetic: any word is drawn without the others (:func:`_draw`), and
each decodes to a uniform by its top 53 bits.  The counters of two
streams of n words each are two runs of n steps by gamma from unrelated
origins, and the finalizer is a bijection, so the streams share a word
with probability at most 2n/2^64, whatever the arithmetic relation
between their seeds.  :func:`sample_blocks` draws products of cycling
degrees from the keys ``products/{seed}/{degree}``, or
``products/real/{seed}/{degree}`` when real-only: one uniform per real
zero, two per complex zero (radius, then angle) and one for the
rotation, in blocks of at most ``BLOCK_ROWS`` products (:func:`_columns`).
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .config import TOL
from .series import TruncatedSeries


class ZeroOutsideDisk(ValueError):
    """A Blaschke zero must satisfy |alpha| < 1."""


@dataclass(frozen=True)
class SchwarzTriple:
    """First three Taylor coefficients of a Schwarz function.

    The fields are numbers, or equal-shaped arrays holding the coefficients
    of a batch of functions, held as given: complex data stays complex, and
    real data real.
    """

    c1: complex
    c2: complex
    c3: complex


@dataclass(frozen=True)
class BlaschkeProduct:
    """rotation * z * prod_k (z - alpha_k) / (1 - conj(alpha_k) z).

    The pinned factor z enforces w(0) = 0; ``degree`` is the number of
    factors including the pinned one.
    """

    zeros: tuple[complex, ...]
    rotation: complex = 1.0 + 0j

    def __post_init__(self) -> None:
        object.__setattr__(self, "zeros", tuple(complex(a) for a in self.zeros))
        object.__setattr__(self, "rotation", complex(self.rotation))
        # each check passes only when its condition holds, so a nan fails it
        for a in self.zeros:
            if not abs(a) < 1.0:
                raise ZeroOutsideDisk(f"zero {a!r} is not inside the unit disk")
        if not abs(abs(self.rotation) - 1.0) <= TOL.rotation_unimodular:
            raise ValueError(f"rotation {self.rotation!r} is not unimodular")

    @property
    def degree(self) -> int:
        return len(self.zeros) + 1


@dataclass(frozen=True, eq=False)
class BlaschkeBatch:
    """Products of one degree, stored by zero: product j has the zeros
    ``(zeros[0][j], zeros[1][j], ...)`` and the rotation ``rotation[j]``.

    The invariants of :class:`BlaschkeProduct` hold for every product.
    """

    zeros: tuple[np.ndarray, ...]
    rotation: np.ndarray

    def __post_init__(self) -> None:
        for a in self.zeros:
            if a.shape != self.rotation.shape:
                raise ValueError("every zero array must match the rotation array")
            if not (abs(a) < 1.0).all():
                raise ZeroOutsideDisk("a zero of the batch is not inside the unit disk")
        if not (abs(abs(self.rotation) - 1.0) <= TOL.rotation_unimodular).all():
            raise ValueError("a rotation of the batch is not unimodular")

    @property
    def degree(self) -> int:
        return len(self.zeros) + 1


def taylor_of_blaschke(b: BlaschkeProduct, order: int) -> TruncatedSeries:
    """Taylor coefficients of the product up to the given order.

    The series t of the free factors starts at 1.  Each zero a multiplies
    it by z - a and divides it by 1 - conj(a) z in one pass, through
    p_k = t_{k-1} - a t_k and q_k = p_k + conj(a) q_{k-1}, and q replaces
    t; the pinned factor z and the rotation then shift and scale it.  The
    zero and the one come from the rotation, a ``complex``, so every operation
    is between complex numbers, and the constant coefficient is exactly zero.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    rotation = b.rotation
    zero = rotation - rotation
    t = [zero + 1] + [zero] * (order - 1)
    for a in b.zeros:
        ac = a.conjugate()
        prev = q = zero
        out = []
        for c in t:
            q = prev - a * c + ac * q
            prev = c
            out.append(q)
        t = out
    return TruncatedSeries((zero,) + tuple(rotation * c for c in t))


def triple_of_blaschke(b: BlaschkeProduct | BlaschkeBatch) -> SchwarzTriple:
    """(c1, c2, c3) of a product, or arrays of them for a batch.

    Each factor (z - a)/(1 - conj(a) z) = -a + (1 - |a|^2) z
    + conj(a)(1 - |a|^2) z^2 + ... multiplies the running series
    t0 + t1 z + t2 z^2; the pinned factor z and the rotation then shift
    and scale it.  Only arithmetic, ``conjugate`` and ``real`` are used, so
    the same lines run on complex scalars and on complex arrays.
    :func:`taylor_of_blaschke` is the independent series route.
    """
    t0, t1, t2 = 1, 0, 0
    for a in b.zeros:
        ac = a.conjugate()
        lead = 1 - (a * ac).real
        t0, t1, t2 = -a * t0, lead * t0 - a * t1, ac * lead * t0 + lead * t1 - a * t2
    return SchwarzTriple(b.rotation * t0, b.rotation * t1, b.rotation * t2)


def schur_triple(a: complex, b: complex, eta: complex) -> SchwarzTriple:
    """(c1, c2, c3) with Schur parameters a, b, eta (Schur 1917):

    c1 = a, c2 = (1 - |a|^2) b, c3 = (1 - |a|^2)((1 - |b|^2) eta - conj(a) b^2).
    Like :func:`triple_of_blaschke`, it runs on scalars and on arrays.
    """
    return SchwarzTriple(*_schur(a, b, eta)[2])


def _schur(a, b, eta):
    """1 - |a|^2, 1 - |b|^2 and the coefficients (c1, c2, c3) of :func:`schur_triple`."""
    ac = a.conjugate()
    ka = 1 - (a * ac).real
    kb = 1 - (b * b.conjugate()).real
    return ka, kb, (a, ka * b, ka * (kb * eta - ac * b * b))


def in_body(c: SchwarzTriple) -> bool:
    """Whether a scalar triple begins a Schwarz function, to ``TOL.carlson_slack``.

    It tests |eta| <= 1 times (1 - |a|^2)(1 - |b|^2), in coefficient units,
    |c3 + conj(a) c2^2/(1 - |a|^2)| <= (1 - |a|^2) - |c2|^2/(1 - |a|^2) + slack,
    so no rounding in c3 can make eta infinite where |b| = 1.
    """
    a, c2, slack = c.c1, c.c2, TOL.carlson_slack
    ka = 1.0 - (a * a.conjugate()).real
    if ka <= 0.0:  # |a| = 1 forces c2 = c3 = 0
        return abs(a) <= 1.0 + slack and abs(c2) <= slack and abs(c.c3) <= slack
    return abs(c.c3 + a.conjugate() * c2 * c2 / ka) <= ka - (c2 * c2.conjugate()).real / ka + slack


def schur_witness(a: complex, b: complex, eta: complex) -> BlaschkeProduct:
    """The degree-3 product with Schur parameters a, b and unimodular eta.

    Its rotation is eta and its zeros are the roots of z^2 + p z + q, with
    p = a conj(b) + b/eta and q = a/eta: real or a conjugate pair when a, b
    are real and eta = +-1.  A zero may lie (1 - |a|)(1 - |b|)/2 inside the
    circle, below double resolution, so one rounded onto or past the circle
    is pulled in to modulus 1 - 1e-15.
    """
    p = a * b.conjugate() + b / eta
    s = cmath.sqrt(p * p / 4.0 - a / eta)
    zeros = (-p / 2.0 + s, -p / 2.0 - s)
    inside = tuple(z if abs(z) < 1.0 else z * ((1.0 - 1e-15) / abs(z)) for z in zeros)
    return BlaschkeProduct(inside, eta)


def _draws(degree: int, real_only: bool) -> int:
    # uniforms per product: one per real zero or two per complex zero, one rotation
    return (degree - 1) * (1 if real_only else 2) + 1


def _zeros(u: np.ndarray, real_only: bool) -> tuple[np.ndarray, ...]:
    """Zeros from rows of uniforms: a radius and an angle row per zero, or one row when real."""
    if real_only:
        a = 2.0 * u - 1.0
        return tuple(np.where(abs(a) < 1.0, a, 0.0) + 0j)  # a = -1 at u = 0
    return tuple(np.sqrt(u[::2]) * np.exp(2j * np.pi * u[1::2]))


def _radii(u: np.ndarray, real_only: bool) -> np.ndarray:
    """The moduli of the zeros that :func:`_zeros` draws, from their radius rows
    alone: every row of its ``u`` when real, ``u[::2]`` otherwise."""
    if real_only:
        r = abs(2.0 * u - 1.0)
        return np.where(r < 1.0, r, 0.0)
    return np.sqrt(u)


def _batch(u: np.ndarray, real_only: bool) -> BlaschkeBatch:
    """The products drawn by the columns of ``u``: zeros area-uniform on the disk and
    rotations uniform on the circle, or zeros uniform on (-1, 1) and rotations +-1 when real."""
    r = u[-1]
    rotation = np.where(r < 0.5, 1.0, -1.0) + 0j if real_only else np.exp(2j * np.pi * r)
    return BlaschkeBatch(_zeros(u[:-1], real_only), rotation)


#: Most samples (columns) in one block of :func:`_columns`, which bounds the memory of a draw.
BLOCK_ROWS = 10_000

# SplitMix64 (Steele, Lea and Flood 2014): the counter's increment, the odd integer
# nearest 2^64 over the golden ratio, and its finalizer's two multipliers.  Every
# constant is an np.uint64: with a Python int, numpy 1.24 would promote uint64 arithmetic
# to float64, and on uint64 arrays the arithmetic wraps mod 2^64 without a warning.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_ONE, _R30, _R27, _R31, _R11 = (np.uint64(k) for k in (1, 30, 27, 31, 11))


def _origin(key: str | int) -> np.uint64:
    """The origin of the stream keyed ``key``: 64 bits of ``random.Random(key)``,
    which seeds a str from all of its bytes plus their SHA-512."""
    return np.uint64(random.Random(key).getrandbits(64))


def _words(origin: np.uint64, index: np.ndarray) -> np.ndarray:
    """Words ``index`` (a uint64 array) of the stream at ``origin``: word i is the
    SplitMix64 finalizer of origin + (i + 1) gamma mod 2^64, so each word is drawn
    on its own, in any order."""
    z = origin + (index + _ONE) * _GAMMA
    z ^= z >> _R30
    z *= _MIX1
    z ^= z >> _R27
    z *= _MIX2
    z ^= z >> _R31
    return z


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) from 64-bit words: the top 53 bits of each, as random() decodes."""
    return (words >> _R11) * 2.0**-53


def _draw(origin: np.uint64, rows: int, which, columns: np.ndarray) -> np.ndarray:
    """The uniforms of rows ``which`` of the samples ``columns`` (a uint64 array), one
    line per row: sample j owns ``rows`` uniforms, and its row r is word j rows + r.

    Any row of any sample is drawn without the others, and sample j's rows do not
    depend on how many samples are drawn, nor on which.
    """
    index = columns * np.uint64(rows) + np.array(which, dtype=np.uint64)[:, None]
    return _uniforms(_words(origin, index))


def _columns(n: int) -> Iterator[np.ndarray]:
    """The sample indices 0..n-1, as uint64 arrays of at most ``BLOCK_ROWS`` in order."""
    for start in range(0, n, BLOCK_ROWS):
        yield np.arange(start, min(start + BLOCK_ROWS, n), dtype=np.uint64)


def sample_blocks(
    seed: int, n: int, max_degree: int, real_only: bool = False
) -> Iterator[BlaschkeBatch]:
    """n products with degrees cycling 1..max_degree, in batches of one degree.

    Sample i has degree 1 + i % max_degree and is sample i // max_degree of
    that degree's stream, keyed ``products/{seed}/{degree}``, or
    ``products/real/{seed}/{degree}`` when real-only, so distinct seeds and
    modes draw distinct streams.  It comes in batches of at most ``BLOCK_ROWS``.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    mode = "real/" if real_only else ""
    for degree in range(1, min(max_degree, n) + 1):
        origin, rows = _origin(f"products/{mode}{seed}/{degree}"), _draws(degree, real_only)
        for columns in _columns(len(range(degree - 1, n, max_degree))):
            yield _batch(_draw(origin, rows, range(rows), columns), real_only)


def carlson_check(c: SchwarzTriple) -> tuple[float, float, float]:
    """Slack of each of the three coefficient bounds; all >= 0 when feasible.

    On a triple of arrays the slacks are arrays.
    """
    x1 = abs(c.c1)
    x2 = abs(c.c2)
    x3 = abs(c.c3)
    s1 = 1.0 - x1
    s2 = (1.0 - x1 * x1) - x2
    s3 = (1.0 - x1 * x1 - x2 * x2 / (1.0 + x1)) - x3
    return (s1, s2, s3)
