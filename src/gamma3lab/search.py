"""Lower-bound search for sup |gamma_3| over each family, in Schur coordinates.

Schur's algorithm gives the body of Schwarz triples exactly from (a, b, eta)
with |a|, |b| < 1 and |eta| <= 1 (:func:`gamma3lab.schwarz.schur_triple`).
The closed form is affine in eta: scale * gamma_3 = P(a, b) + w3 (1 - |a|^2)
(1 - |b|^2) eta with w3 > 0, so eta = P/|P| (1 where P = 0) maximizes
|gamma_3|, to (|P| + w3 (1 - |a|^2)(1 - |b|^2)) / scale, and the search
runs over (a, b) alone.

The budget splits 70/30 between global sampling and refinement.  The
global phase evaluates (a, b), area-uniform on the bidisk (uniform on
(-1, 1)^2 when real-only), in blocks of bounded size from the one
counter-based stream keyed ``search/{seed}``, or ``search/real/{seed}``
when real-only, which no other sampler, seed or mode draws, so a run is
deterministic.  Each point owns four uniforms, a's radius and angle then
b's, or two, a's then b's, when real-only.  With c1 = a and
c2 = (1 - |a|^2) b, the objective of :mod:`gamma3lab.objective` at
(|a|, (1 - |a|^2)|b|) bounds the value at the best eta from above and
needs only the radii, so a block draws the radius rows of every point,
and a point is evaluated, its angle rows drawn, only if that majorant
reaches the tenth-best value kept so far; while fewer than ten are kept,
a block seeds that floor with the exact values at its ten largest
majorants.  Most points never draw their angles; a point's uniforms are
the same whether or not the others are drawn, so skipping them changes
no result.  One running top ten takes in each block's evaluated points,
and no point of the overall top ten is skipped, so the ten best are
those of evaluating every point.  They are refined in lockstep by moving
a or b by +-step (and +-i step unless real-only), keeping each one's
best move of a round and halving its step after a round without
progress; the refinement budget is split evenly, and its remainder goes
to the first candidates in top order.  The best point becomes one
witness (:func:`gamma3lab.schwarz.schur_witness`), a degree-3 product
whose zeros are real or a conjugate pair in real-only searches.  Its
series value must match the Schur value, and is reported.  The proved
bound is certified once per family per process.

Whether the general (complex a2) upper bounds are attained is open; a
result's gap quantifies the remaining interval without drawing conclusions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_ITERATIONS, DEFAULT_SEED, TOL, VerificationFailed
from .families import Family, gamma3_closed_form
from .objective import value_xy
from .optimize import global_bound
from .schwarz import (
    BlaschkeProduct,
    SchwarzTriple,
    _columns,
    _draw,
    _origin,
    _radii,
    _zeros,
    schur_triple,
    schur_witness,
    taylor_of_blaschke,
)


class WitnessMismatch(VerificationFailed):
    """A Schur value disagrees with its witness's series-route value."""


#: Sharp suprema of |gamma_3| under the restriction that a2 is real,
#: for comparison against real-coefficient searches.
REMARK_VALUES: dict[str, float] = {
    "F1": (11.0 + 15.0 * math.sqrt(30.0)) / 288.0,   # 0.323466...
    "F2": (95.0 + 23.0 * math.sqrt(46.0)) / 972.0,   # 0.258223...
    "F3": (743.0 + 131.0 * math.sqrt(262.0)) / 7776.0,  # 0.368238...
}

_TOP_CANDIDATES = 10
_REFINE_ROUNDS = 40
_GLOBAL_FRACTION = 0.7
_INITIAL_STEP = 0.1


@dataclass(frozen=True)
class SearchResult:
    """The best witness found, against the proved bound it brackets.

    The upper bound is not claimed to be attained for complex a2; the gap
    measures the unresolved interval, nothing more.
    """

    family: Family
    best_value: float
    witness: BlaschkeProduct
    iterations: int
    real_only: bool
    upper_bound: float

    def __post_init__(self) -> None:
        if self.best_value > self.upper_bound + TOL.bound_compliance:
            raise VerificationFailed(
                f"search value {self.best_value!r} exceeds the proved bound "
                f"{self.upper_bound!r}; a witness is not a Schwarz function"
            )
        if self.remark_value is not None and (
            self.best_value > self.remark_value + TOL.remark_compliance
        ):
            raise VerificationFailed(
                f"real-coefficient search value {self.best_value!r} exceeds the "
                f"sharp real-a2 value {self.remark_value!r}"
            )

    @property
    def remark_value(self) -> float | None:
        """The sharp real-a2 value, which bounds real-coefficient searches."""
        return REMARK_VALUES[self.family.tag] if self.real_only else None

    @property
    def gap(self) -> float:
        return self.upper_bound - self.best_value

    @property
    def relative_gap(self) -> float:
        return self.gap / self.upper_bound


@functools.cache
def _proved_bound(family: Family) -> float:
    """The family's certified |gamma_3| bound, computed once per process."""
    return global_bound(family).gamma3_bound


def _schur_value(family: Family, a, b):
    """|gamma_3| at the best eta for Schur parameters a, b (scalars or arrays)."""
    p = gamma3_closed_form(family, schur_triple(a, b, 0.0))
    ka, kb = 1.0 - (a * a.conjugate()).real, 1.0 - (b * b.conjugate()).real
    return abs(p) + family.gamma3_weights[3] * ka * kb / family.scale


def _majorant(family: Family, radii: np.ndarray, real_only: bool) -> np.ndarray:
    """Upper bounds on :func:`_schur_value` at the points (a, b) whose radius rows are ``radii``.

    The objective at x = |a|, y = |c2| = (1 - |a|^2)|b| is the triangle
    inequality applied to scale * |P|, and its w3 term equals the eta term
    w3 (1 - |a|^2)(1 - |b|^2) plus w3 (1 - |a|^2)|a||b|^2, the modulus of
    P's; ``TOL.tie_break`` covers rounding.  It needs no angle.
    """
    x, r = _radii(radii, real_only)
    return value_xy(family, x, (1.0 - x * x) * r) / family.scale + TOL.tie_break


def _points(origin: np.uint64, columns: np.ndarray, radii: np.ndarray, real_only: bool):
    """The points (a, b) of the samples ``columns``, whose radius rows are ``radii``:
    only their angle rows, 1 and 3 of four, are drawn here."""
    if real_only:
        return _zeros(radii, True)
    u = np.empty((4, len(columns)))
    u[::2], u[1::2] = radii, _draw(origin, 4, (1, 3), columns)
    return _zeros(u, False)


def _floor(values: np.ndarray) -> float:
    """The tenth largest value, which a top-ten point must reach; -inf while fewer exist."""
    k = len(values) - _TOP_CANDIDATES
    return np.partition(values, k)[k] if k >= 0 else -np.inf


def _top_candidates(values: np.ndarray) -> np.ndarray:
    """Indices of the largest values, ordered by (-value, index)."""
    k = min(_TOP_CANDIDATES, len(values))
    cut = np.partition(values, len(values) - k)[len(values) - k]
    tied_or_above = np.flatnonzero(values >= cut)
    return tied_or_above[np.argsort(-values[tied_or_above], kind="stable")][:k]


def _refine(family: Family, a, b, values, caps: np.ndarray, real_only: bool):
    """Coordinate search from every (a[i], b[i]) at once, one evaluation per round.

    ``caps[i]`` caps the evaluations of row i.  A row skips moves that leave
    the bidisk, evaluates no more than is left of its cap and takes its
    first best move.  Returns (a, b, value, used).
    """
    directions = np.array([1, -1] if real_only else [1, -1, 1j, -1j])
    m = len(directions)
    step = np.full(len(a), _INITIAL_STEP)
    used = np.zeros(len(a), dtype=int)
    for _ in range(_REFINE_ROUNDS):
        live = (used < caps) & (step >= 1e-12)
        if not live.any():
            break
        shift = step[:, None] * directions
        ma = np.concatenate([a[:, None] + shift, np.repeat(a[:, None], m, 1)], axis=1)
        mb = np.concatenate([np.repeat(b[:, None], m, 1), b[:, None] + shift], axis=1)
        valid = np.maximum(abs(ma), abs(mb)) < 1.0 - 1e-9
        tried = valid & live[:, None] & (valid.cumsum(axis=1) <= (caps - used)[:, None])
        v = np.full(ma.shape, -np.inf)
        v[tried] = _schur_value(family, ma[tried], mb[tried])
        used += tried.sum(axis=1)
        rows, best = np.arange(len(a)), v.argmax(axis=1)
        better = v[rows, best] > values
        a = np.where(better, ma[rows, best], a)
        b = np.where(better, mb[rows, best], b)
        values = np.where(better, v[rows, best], values)
        step = np.where(better, step, 0.5 * step)
    return a, b, values, used


def search_lower_bound(
    family: Family,
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = DEFAULT_SEED,
    real_only: bool = False,
) -> SearchResult:
    """Best |gamma_3| witness over the Schur parameters (a, b).

    ``iterations`` is the total evaluation budget; 70% goes to global
    sampling, the rest to refining the top candidates, split evenly with
    the remainder to the first in top order.  The reported value is the
    witness's series value, checked against its Schur value.
    Deterministic for fixed arguments.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    upper_bound = _proved_bound(family)
    n_global = max(1, round(_GLOBAL_FRACTION * iterations))
    # values, a, b are the top ten so far by (-value, index); a block's rows whose majorant
    # reaches their tenth-best value come after them in index order, so position is index
    values = a = b = np.empty(0)
    origin = _origin(f"search/real/{seed}" if real_only else f"search/{seed}")
    rows, radius_rows = (2, (0, 1)) if real_only else (4, (0, 2))
    for columns in _columns(n_global):
        radii = _draw(origin, rows, radius_rows, columns)
        bound = _majorant(family, radii, real_only)
        floor = _floor(values)
        if floor == -np.inf:  # the exact values at the block's largest majorants give one
            top = _top_candidates(bound)
            first = _schur_value(family, *_points(origin, columns[top], radii[:, top], real_only))
            floor = _floor(np.concatenate([values, first]))
        keep = bound >= floor
        block_a, block_b = _points(origin, columns[keep], radii[:, keep], real_only)
        values = np.concatenate([values, _schur_value(family, block_a, block_b)])
        a, b = np.concatenate([a, block_a]), np.concatenate([b, block_b])
        top = _top_candidates(values)
        values, a, b = values[top], a[top], b[top]

    budget, k = iterations - n_global, len(values)
    caps = budget // k + (np.arange(k) < budget % k)
    a, b, values, _ = _refine(family, a, b, values, caps, real_only)
    best = int(np.argmax(values))  # the first candidate, in top order, with the best value
    best_a, best_b, schur = complex(a[best]), complex(b[best]), float(values[best])

    p = gamma3_closed_form(family, schur_triple(best_a, best_b, 0.0))
    p = p + (p == 0)  # eta = 1 where P = 0
    witness = schur_witness(best_a, best_b, p / abs(p))
    w = taylor_of_blaschke(witness, 3)
    series = abs(gamma3_closed_form(family, SchwarzTriple(*w.coeffs[1:])))
    # a search value may exceed the proved bound by this much, so the witness may not drift further
    if abs(schur - series) > TOL.bound_compliance:
        raise WitnessMismatch(
            f"Schur value {schur!r} disagrees with the series value {series!r} of {witness!r}"
        )
    return SearchResult(
        family=family,
        best_value=series,
        witness=witness,
        iterations=iterations,
        real_only=real_only,
        upper_bound=upper_bound,
    )
