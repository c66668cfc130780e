"""Lower-bound search for sup |gamma_3| over each family, in Schur coordinates.

Schur's algorithm gives the body of Schwarz triples exactly from (a, b, eta)
with |a|, |b| < 1 and |eta| <= 1 (:func:`gamma3lab.schwarz.schur_triple`).
The closed form is affine in eta: scale * gamma_3 = P(a, b) + w3 (1 - |a|^2)
(1 - |b|^2) eta with w3 > 0, so eta = P/|P| (1 where P = 0) maximizes
|gamma_3|, to (|P| + w3 (1 - |a|^2)(1 - |b|^2)) / scale, and the search
runs over (a, b) alone.

Of the budget, 70% goes to global sampling and at most 30% to
refinement, in whole rounds of one evaluation per move of every
candidate: min(40, share // (10 candidates x 8 moves)) rounds, with 4
moves real-only.  So the refinement makes at most 3200 evaluations (1600
real-only), runs all 40 rounds from about 10 700 iterations (5 300
real-only), and a search at the default 10^5 makes at most 73 200.
Below 266 iterations (132 real-only) its share pays for no round.

The global phase evaluates (a, b), area-uniform on the bidisk (uniform on
(-1, 1)^2 when real-only), in blocks of bounded size from the one
counter-based stream keyed ``search/{seed}``, or ``search/real/{seed}``
when real-only, which no other sampler, seed or mode draws, so a run is
deterministic.  Each point owns four uniforms, a's radius and angle then
b's, or two, a's then b's, when real-only.  With c1 = a and
c2 = (1 - |a|^2) b, the objective of :mod:`gamma3lab.objective` at
(|a|, (1 - |a|^2)|b|) bounds the value at the best eta from above and
needs only the radii, so a block draws the radius rows of every point,
and a point is evaluated, its angle rows drawn, only if that majorant
reaches the tenth-best value kept so far.  While fewer than ten are
kept, a block first evaluates its largest majorants in chunks, of ten
and then four times as many as the chunk before, each among the points
not yet evaluated that still reach the floor the chunks so far give, and
stops once no more points reach it than the next chunk would hold; the
rest of those points are evaluated together.  Most points never draw
their angles; a point's uniforms are the same whether or not the others
are drawn, so skipping them changes no result.  One running top ten,
ordered by (-value, sample index), takes in every evaluated chunk, and
no point of the overall top ten is skipped, so the ten best are those
of evaluating every point.  They are refined in lockstep by moving a or
b by +-step (and +-i step unless real-only), keeping each one's best
move of a round and halving its step after a round without progress.
The best point becomes one witness
(:func:`gamma3lab.schwarz.schur_witness`), a degree-3 product whose zeros
are real or a conjugate pair in real-only searches.  Its series value
must match the Schur value, and is reported.  The proved bound is
certified once per family per process.

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
    _schur,
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
#: Growth factor of the chunks of best majorants that seed the first floor.
_SEED_GROWTH = 4


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
        # each check passes only when its condition holds, so a nan fails it
        if not self.best_value <= self.upper_bound + TOL.bound_compliance:
            raise VerificationFailed(
                f"search value {self.best_value!r} exceeds the proved bound "
                f"{self.upper_bound!r}; a witness is not a Schwarz function"
            )
        if self.remark_value is not None and not (
            self.best_value <= self.remark_value + TOL.bound_compliance
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
    """|gamma_3| at the best eta for complex Schur parameters a, b (scalars or arrays)."""
    ka, kb, c = _schur(a, b, 0.0)
    p = gamma3_closed_form(family, SchwarzTriple(*c))
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
    """The tenth value of the top ten that :func:`_take` keeps in order, which a top-ten
    point must reach; -inf while fewer are kept."""
    return values[-1] if len(values) == _TOP_CANDIDATES else -np.inf


def _top_candidates(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Positions of the largest values, ordered by (-value, index)."""
    k = min(_TOP_CANDIDATES, len(values))
    cut = np.partition(values, len(values) - k)[len(values) - k]
    tied_or_above = np.flatnonzero(values >= cut)
    return tied_or_above[np.lexsort((index[tied_or_above], -values[tied_or_above]))][:k]


def _take(kept: tuple, family: Family, origin: np.uint64, columns: np.ndarray,
          radii: np.ndarray, real_only: bool) -> tuple:
    """The top ten, by (-value, index), of ``kept`` (values, indices, a, b) and of the
    samples ``columns``, whose radius rows are ``radii``."""
    a, b = _points(origin, columns, radii, real_only)
    new = (_schur_value(family, a, b), columns, a, b)
    merged = [np.concatenate(pair) for pair in zip(kept, new)]
    top = _top_candidates(merged[0], merged[1])
    return tuple(x[top] for x in merged)


def _refine(family: Family, a, b, values, share: int, real_only: bool):
    """Coordinate search from every (a[i], b[i]) at once, in whole rounds.

    It runs min(40, share // (rows x moves)) rounds, so it evaluates at most
    ``share`` moves.  In each round every row whose step is at least 1e-12
    evaluates its moves that stay in the bidisk and takes its first best
    one.  A round writes every row's moves into one array allocated once,
    evaluates them all in one pass and discards, as -inf, the values of
    the moves a row skips.  Returns (a, b, value).
    """
    directions = np.array([1, -1] if real_only else [1, -1, 1j, -1j])
    n, m = len(a), len(directions)
    step = np.full(n, _INITIAL_STEP)
    rows = np.arange(n)
    ab = np.stack([a, b])
    moves = np.empty((2, n, 2 * m), complex)  # the a, then the b, of each row's moves
    for _ in range(min(_REFINE_ROUNDS, share // (n * 2 * m))):
        shift = step[:, None] * directions
        moves[:] = ab[:, :, None]
        moves[0, :, :m] += shift
        moves[1, :, m:] += shift
        tried = (np.maximum(*abs(moves)) < 1.0 - 1e-9) & (step >= 1e-12)[:, None]
        v = np.where(tried, _schur_value(family, *moves), -np.inf)
        best = v.argmax(axis=1)
        v = v[rows, best]
        better = v > values
        ab = np.where(better, moves[:, rows, best], ab)
        values = np.where(better, v, values)
        step = np.where(better, step, 0.5 * step)
    return ab[0], ab[1], values


def search_lower_bound(
    family: Family,
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = DEFAULT_SEED,
    real_only: bool = False,
) -> SearchResult:
    """Best |gamma_3| witness over the Schur parameters (a, b).

    ``iterations`` is the evaluation budget; 70% goes to global sampling,
    the rest to refining the top candidates in as many whole rounds of
    all their moves as it pays for, at most 40: 3200 evaluations (1600
    real-only), short of the share above about 10 700 iterations (5 300
    real-only).  The reported value is the witness's series value,
    checked against its Schur value.  Deterministic for fixed arguments.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    upper_bound = _proved_bound(family)
    n_global = max(1, round(_GLOBAL_FRACTION * iterations))
    # the top ten so far by (-value, index): their values, sample indices and points (a, b)
    kept = (np.empty(0), np.empty(0, dtype=np.uint64), np.empty(0, complex), np.empty(0, complex))
    origin = _origin(f"search/real/{seed}" if real_only else f"search/{seed}")
    rows, radius_rows = (2, (0, 1)) if real_only else (4, (0, 2))
    for columns in _columns(n_global):
        radii = _draw(origin, rows, radius_rows, columns)
        bound = _majorant(family, radii, real_only)
        left = bound >= _floor(kept[0])  # not evaluated yet, and may reach the top ten
        chunk = _TOP_CANDIDATES if len(kept[0]) < _TOP_CANDIDATES else len(bound)
        # in a block that starts with fewer than ten kept, the best majorants left, in chunks
        # growing from ten, raise the floor until no more points reach it than the next chunk holds
        while np.count_nonzero(left) > chunk:
            which = np.flatnonzero(left)
            which = which[np.argpartition(bound[which], -chunk)[-chunk:]]
            kept = _take(kept, family, origin, columns[which], radii[:, which], real_only)
            left[which] = False
            left &= bound >= _floor(kept[0])
            chunk *= _SEED_GROWTH
        kept = _take(kept, family, origin, columns[left], radii[:, left], real_only)
    values, _, a, b = kept

    a, b, values = _refine(family, a, b, values, iterations - n_global, real_only)
    best = int(np.argmax(values))  # the first candidate, in top order, with the best value
    best_a, best_b, schur = complex(a[best]), complex(b[best]), float(values[best])

    p = gamma3_closed_form(family, schur_triple(best_a, best_b, 0.0))
    p = p + (p == 0)  # eta = 1 where P = 0
    witness = schur_witness(best_a, best_b, p / abs(p))
    w = taylor_of_blaschke(witness, 3)
    series = abs(gamma3_closed_form(family, SchwarzTriple(*w.coeffs[1:])))
    # a search value may exceed the proved bound by this much, so the witness may not drift further
    if not abs(schur - series) <= TOL.bound_compliance:
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
