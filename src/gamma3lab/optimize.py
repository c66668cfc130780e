"""Maximization of the family objectives over the region E.

Every step of the case analysis has a closed form.  Setting df/dy = 0
gives t = y/(1+x) = p + qx with p = |w2|/(2 w3) and q = |w12|/(2 w3);
substituting it into df/dx = 0 leaves a quadratic in x, whose roots
inside E are the interior critical points.  Each boundary edge restricts
the objective to a polynomial of degree at most three (on the parabolic
edge 1 - x^2 - y^2/(1+x) = x - x^3), whose coefficients are read off the
weights, so its critical points are roots of a quadratic too.  The global
maximum is the largest candidate value and divides by the family scale to
give the |gamma_3| bound.

A dense lattice sweep over E at ``GRID_STEP`` is the independent route:
if it ever exceeds the analytic maximum beyond ``TOL.certification``,
some formula was transcribed wrong and :class:`CertificationMismatch` is
raised.  The lattice is described once, by columns (x, shared y ticks,
ticks below each column's top, top points); the csv dump walks it point
by point.  The sweep needs w3 > 0: each column is then a concave
parabola in y, whose best tick is one of four around its vertex, or its
highest tick if the vertex lies above it; every other tick is lower by
at least 3.75 c step^2, far above rounding.  Each edge maximum must also
be the objective's value at its own point, which catches a restriction
transcribed too high or too low.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TOL, VerificationFailed
from .families import Family
from .objective import quadratic_in_y, value_xy


EDGES = ("bottom", "left", "top")  # y = 0, x = 0, y = 1 - x^2

#: Lattice step of the dense-grid sweep, and the finest step of a csv dump.
GRID_STEP = 1e-3

#: A published transcription of the third family's top-edge restriction;
#: substitution gives -16x^3 where it has -20x^3.
PUBLISHED_F3_TOP = (9, 22, -4, -20)


class UnknownEdge(ValueError):
    """Edge id must be one of 'bottom', 'left', 'top'."""


class CertificationMismatch(VerificationFailed):
    """The analytic maximum disagrees with the objective; formula bug likely.

    Either the dense-grid sweep exceeded it, or an edge maximum is not the
    objective's value at its own point.
    """


@dataclass(frozen=True)
class BoundReport:
    """Everything the maximization produced for one family.

    The maximum, the bound and the notes are derived from the candidates.
    """

    family: Family
    interior_points: tuple[tuple[float, float, float], ...]  # (x, y, value)
    edge_maxima: tuple[tuple[str, float, float], ...]  # (edge, argmax, value)
    grid_max: float

    def __post_init__(self) -> None:
        # each check passes only when its condition holds, so a nan fails it
        if not self.grid_max <= self.global_max + TOL.certification:
            raise CertificationMismatch(
                f"dense grid reached {self.grid_max!r} > analytic maximum "
                f"{self.global_max!r}; a formula was likely transcribed wrong"
            )
        # a wrong edge restriction passes the grid check if it reads too high,
        # or too low under the interior maximum; so each edge maximum must be
        # the objective's value at its own point
        points = np.array([_edge_point(e, t) for e, t, _ in self.edge_maxima])
        values = value_xy(self.family, *points.reshape(-1, 2).T)
        for (edge, t, v), value in zip(self.edge_maxima, values):
            if not abs(value - v) <= TOL.certification:
                raise CertificationMismatch(
                    f"{edge} edge maximum {v!r} at {t!r} differs from the objective's "
                    f"value {float(value)!r} there; its restriction was likely "
                    "transcribed wrong"
                )

    @property
    def global_max(self) -> float:
        return max(v for _, _, v in (*self.interior_points, *self.edge_maxima))

    @property
    def gamma3_bound(self) -> float:
        return self.global_max / self.family.scale

    @property
    def notes(self) -> tuple[str, ...]:
        if self.family.tag != "F3":
            return ()
        _, top_t, top_v = self.edge_maxima[EDGES.index("top")]
        return (_f3_top_edge_note(self.family, top_t, top_v, self.global_max),)


def _quadratic_roots(c0: float, c1: float, c2: float) -> list[float]:
    """Real roots of c0 + c1 t + c2 t^2, degenerate degrees included."""
    if c2 == 0.0:
        return [] if c1 == 0.0 else [-c0 / c1]
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    return [q / c2] if q == 0.0 else [q / c2, c0 / q]


def interior_critical_points(family: Family) -> list[tuple[float, float, float]]:
    """All gradient zeros strictly inside E, in closed form, as (x, y, value) triples.

    Returned sorted by value (descending), ties by smaller x then smaller y.
    """
    _, w1, w2, w3, w12, w111 = map(abs, family.gamma3_weights)
    p, q = w2 / (2.0 * w3), w12 / (2.0 * w3)
    # df/dx along t = p + qx, collected by powers of x
    c0 = w1 + w3 * p * p + w12 * p
    c1 = -2.0 * w3 + 2.0 * w3 * p * q + w12 * (p + q)
    c2 = w3 * q * q + w12 * q + 3.0 * w111
    results = []
    for x in _quadratic_roots(c0, c1, c2):
        y = (1.0 + x) * (p + q * x)
        if 1e-9 < x < 1.0 - 1e-9 and 1e-9 < y < 1.0 - x * x - 1e-9:
            results.append((x, y, value_xy(family, x, y)))
    results.sort(key=lambda item: (-item[2], item[0], item[1]))
    return results


def _edge_polynomial(family: Family, edge: str) -> tuple[float, ...]:
    """Coefficients (ascending) of the objective restricted to an edge.

    The parameter is x on the bottom and parabolic edges and y on the left.
    """
    w0, w1, w2, w3, w12, w111 = map(abs, family.gamma3_weights)
    if edge == "bottom":
        return (w0 + w3, w1, -w3, w111)
    if edge == "left":
        return (w0 + w3, w2, -w3)
    if edge == "top":
        return (w0 + w2, w1 + w3 + w12, -w2, w111 - w3 - w12)
    raise UnknownEdge(f"unknown edge {edge!r}; expected one of {EDGES}")


def _edge_point(edge: str, t: float) -> tuple[float, float]:
    """The point (x, y), in t's type, of an edge at the parameter of :func:`_edge_polynomial`."""
    return {"bottom": (t, t - t), "left": (t - t, t), "top": (t, 1 - t * t)}[edge]


def _maximize_on_unit_interval(coeffs: tuple[float, ...]) -> tuple[float, float]:
    """(argmax, value) over [0, 1] of a polynomial of degree <= 3.

    Values come from Horner's rule in plain floats, numpy's ``polyval``
    step for step, so they match it bit for bit.
    """
    padded = tuple(coeffs) + (0.0,) * (4 - len(coeffs))
    roots = _quadratic_roots(padded[1], 2.0 * padded[2], 3.0 * padded[3])
    candidates = [0.0, 1.0] + [r for r in roots if 0.0 < r < 1.0]
    best_t, best_v = 0.0, -math.inf
    for t in sorted(candidates):
        v = coeffs[-1] + t * 0.0
        for c in reversed(coeffs[:-1]):
            v = c + v * t
        if v > best_v + TOL.tie_break:
            best_t, best_v = t, v
    return (best_t, best_v)


def edge_maximum(family: Family, edge: str) -> tuple[float, float]:
    """(argmax, value) of the objective on one boundary edge of E.

    The maximum is taken over the derivative's real roots and the endpoints.
    """
    return _maximize_on_unit_interval(_edge_polynomial(family, edge))


def _poly_text(coeffs: tuple[float, ...]) -> str:
    text = f"{coeffs[0]:g}"
    for k, c in enumerate(coeffs[1:], 1):
        text += f" {'-' if c < 0 else '+'} {abs(c):g}x" + (f"^{k}" if k > 1 else "")
    return text


def _f3_top_edge_note(family: Family, t: float, v: float, global_max: float) -> str:
    """The top edge (argmax t, value v) against its published transcription."""
    _, published_v = _maximize_on_unit_interval(PUBLISHED_F3_TOP)
    return (
        f"top edge by substitution: {_poly_text(_edge_polynomial(family, 'top'))} "
        f"with maximum {v:.6f} at x = {t:.6f}; a published transcription gives "
        f"{_poly_text(PUBLISHED_F3_TOP)} with maximum {published_v:.5f} instead; "
        f"both lie below the interior maximum {global_max:g}, so the bound "
        "stands under either reading."
    )


def _lattice_columns(step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The lattice of E at the given step, as columns (x, ticks, counts, top).

    Column i sits at x[i] = min(i * step, 1) and holds the points
    (x[i], ticks[j]) for j < counts[i], i.e. ticks[j] = j * step
    < top[i] - 1e-12, then the top point (x[i], top[i] = 1 - x[i]^2).
    Counts never increase with i.  There are n + 1 columns for the least
    n with n * step >= 1 (to within 1e-9 of 1/step), so the last column
    sits at x = 1 for every step, clipped there if n * step overshoots.
    """
    n = math.ceil(1.0 / step - 1e-9)
    ticks = np.arange(n + 1) * step
    x = np.minimum(ticks, 1.0)
    top = 1.0 - x * x
    return x, ticks, np.searchsorted(ticks, top - 1e-12), top


def _dense_grid_max(family: Family) -> float:
    """Maximum of the objective over the lattice of step ``GRID_STEP``, bit for bit.

    Besides the top points, it evaluates the ticks floor(y_v / step) + (-1,
    0, 1, 2) around each column's vertex y_v = b / (2 c), clipped, not
    masked, into the column.  It raises ValueError unless w3 > 0.
    """
    x, ticks, counts, top = _lattice_columns(GRID_STEP)
    _, b, c = quadratic_in_y(family, x)
    if not (c > 0.0).all():
        raise ValueError(f"the grid sweep needs w3 > 0, not {family.gamma3_weights[3]!r}")
    live = counts > 0
    vertex = np.floor(b[live] / (2.0 * c[live]) / GRID_STEP)[:, None]
    window = np.clip(vertex + np.arange(-1.0, 3.0), 0, counts[live, None] - 1).astype(np.intp)
    near = value_xy(family, x[live, None], ticks[window])
    return float(max(np.max(value_xy(family, x, top)), np.max(near)))


def global_bound(family: Family) -> BoundReport:
    """Assemble interior and edge maxima into the certified bound report."""
    return BoundReport(
        family=family,
        interior_points=tuple(interior_critical_points(family)),
        edge_maxima=tuple((e,) + edge_maximum(family, e) for e in EDGES),
        grid_max=_dense_grid_max(family),
    )
