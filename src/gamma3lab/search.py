"""Randomized lower-bound search for sup |gamma_3| over each family.

Candidates are finite Blaschke products, so every evaluation is a genuine
member witness and the best value found is a rigorous lower bound (up to
rounding) for the supremum that the proved maxima bound from above.
The budget splits 70/30 between area-uniform global sampling across
degrees and coordinate-wise refinement of the ten best candidates; the
refinement perturbs one zero coordinate (or the rotation angle) at a time,
keeps improvements, and halves the step after a round without progress,
which stays robust where coincident zeros make the landscape non-smooth.

The global phase is batched: sample i has degree 1 + i % max_degree, and
each degree's samples are one numpy batch drawn from its own stream, whose
seed derives from the master seed and the degree by fixed integer mixing
(:func:`gamma3lab.schwarz.sample_blocks`).  Distinct master seeds therefore
share no stream, and runs are deterministic for a fixed (seed, iterations).
The selected candidates are replayed through the series route before
refinement, and refinement evaluates one product at a time through the
same coefficient recurrence.  The proved bound each result is checked
against is certified once per family per process.

Whether the general (complex a2) upper bounds are attained is open; a
result's gap quantifies the remaining interval without drawing conclusions.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .config import TOL, VerificationFailed
from .families import Family, gamma3_closed_form
from .optimize import global_bound
from .schwarz import (
    BlaschkeProduct,
    SchwarzTriple,
    sample_blocks,
    taylor_of_blaschke,
    triple_of_blaschke,
)


class WitnessMismatch(VerificationFailed):
    """A sampled value disagrees with its product's series-route value."""


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


def _evaluate(family: Family, b: BlaschkeProduct) -> float:
    return abs(gamma3_closed_form(family, triple_of_blaschke(b)))


def _replay(family: Family, sampled: float, b: BlaschkeProduct) -> float:
    """The candidate's value one product at a time, checked against the
    series route; refinement starts from it, so every reported value is
    exactly what ``_evaluate`` gives its witness."""
    w = taylor_of_blaschke(b, 3)
    series = abs(gamma3_closed_form(family, SchwarzTriple(*w.coeffs[1:])))
    # a search value may exceed the proved bound by this much, so a replay may not drift further
    if abs(sampled - series) > TOL.bound_compliance:
        raise WitnessMismatch(
            f"sampled value {sampled!r} of {b!r} disagrees with its series value {series!r}"
        )
    return _evaluate(family, b)


def _perturbations(b: BlaschkeProduct, step: float, real_only: bool):
    """Deterministic one-coordinate moves, zeros kept strictly in the disk."""
    for i, zero in enumerate(b.zeros):
        deltas = (step, -step) if real_only else (step, -step, 1j * step, -1j * step)
        for d in deltas:
            moved = zero + d
            if abs(moved) < 1.0 - 1e-9:
                zeros = b.zeros[:i] + (moved,) + b.zeros[i + 1 :]
                yield BlaschkeProduct(zeros, b.rotation)
    if not real_only:
        theta = cmath.phase(b.rotation)
        for d in (step, -step):
            yield BlaschkeProduct(b.zeros, cmath.exp(1j * (theta + d)))


def _refine(
    family: Family, b: BlaschkeProduct, value: float, budget: int
) -> tuple[BlaschkeProduct, float, int]:
    """Coordinate descent; returns (witness, value, evaluations used)."""
    real_only = all(z.imag == 0.0 for z in b.zeros) and b.rotation.imag == 0.0
    step = _INITIAL_STEP
    used = 0
    for _ in range(_REFINE_ROUNDS):
        if used >= budget or step < 1e-12:
            break
        improved = False
        for candidate in _perturbations(b, step, real_only):
            if used >= budget:
                break
            v = _evaluate(family, candidate)
            used += 1
            if v > value:
                b, value = candidate, v
                improved = True
        if not improved:
            step *= 0.5
    return b, value, used


def search_lower_bound(
    family: Family,
    iterations: int = 100_000,
    seed: int = 1,
    real_only: bool = False,
    max_degree: int = 4,
) -> SearchResult:
    """Best |gamma_3| witness over Blaschke products of degree <= max_degree.

    ``iterations`` is the total evaluation budget; 70% goes to global
    sampling cycling through the degrees, the rest to refining the top
    candidates.  Deterministic for fixed arguments.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    upper_bound = _proved_bound(family)
    n_global = max(1, round(_GLOBAL_FRACTION * iterations))
    sampled: list[tuple[float, int, BlaschkeProduct]] = []
    for batch in sample_blocks(seed, n_global, max_degree, real_only):
        values = abs(gamma3_closed_form(family, triple_of_blaschke(batch)))
        for j in (-values).argsort(kind="stable")[:_TOP_CANDIDATES]:
            # row j of the batch is sample i = degree - 1 + j * max_degree
            i = batch.degree - 1 + int(j) * max_degree
            sampled.append((float(values[j]), i, batch.product(j)))
    sampled.sort(key=lambda t: (-t[0], t[1]))
    top = [(_replay(family, v, b), b) for v, _, b in sampled[:_TOP_CANDIDATES]]

    budget = iterations - n_global
    best_value, best = top[0]
    if budget > 0:
        per_candidate = max(1, budget // len(top))
        remaining = budget
        for v, b in top:
            if remaining <= 0:
                break
            rb, rv, used = _refine(family, b, v, min(per_candidate, remaining))
            remaining -= used
            if rv > best_value:
                best_value, best = rv, rb

    return SearchResult(
        family=family,
        best_value=best_value,
        witness=best,
        iterations=iterations,
        real_only=real_only,
        upper_bound=upper_bound,
    )
