import math

import numpy as np
from hypothesis import strategies as st

from gamma3lab import TruncatedSeries
from gamma3lab.optimize import PUBLISHED_F3_TOP, _edge_polynomial, _lattice_columns
from reference import row, sample_batch


def assert_series_close(a: TruncatedSeries, b: TruncatedSeries, tol: float = 1e-12):
    assert a.order == b.order, f"orders differ: {a.order} vs {b.order}"
    for k, (ca, cb) in enumerate(zip(a.coeffs, b.coeffs)):
        assert abs(ca - cb) <= tol, f"coefficient {k}: {ca} vs {cb}"


def bits(s: TruncatedSeries) -> tuple[tuple[str, str], ...]:
    """The exact bits of every coefficient, ±0.0 told apart; a series'
    coefficients must be a tuple of Python ``complex``."""
    assert type(s.coeffs) is tuple
    assert all(type(c) is complex for c in s.coeffs), s.coeffs
    return tuple((c.real.hex(), c.imag.hex()) for c in s.coeffs)


def sampled_product(key: str | int, degree: int, real_only: bool = False):
    """One seeded Blaschke product: the one-row batch of ``sample_batch``."""
    return row(sample_batch(key, degree, 1, real_only), 0)


def bounded_complex(radius: float = 1.0):
    return st.builds(
        complex,
        st.floats(-radius, radius, allow_nan=False),
        st.floats(-radius, radius, allow_nan=False),
    )


def disk_complex(radius: float = 0.95):
    """Complex numbers with modulus strictly below radius."""
    return st.builds(
        lambda r, t: complex(r * math.cos(t), r * math.sin(t)),
        st.floats(0.0, radius, exclude_max=True, allow_nan=False),
        st.floats(0.0, 2 * math.pi, allow_nan=False),
    )


def series_strategy(order: int = 5, radius: float = 1.0):
    return st.lists(
        bounded_complex(radius), min_size=order + 1, max_size=order + 1
    ).map(lambda cs: TruncatedSeries(tuple(cs)))


def normalized_series(order: int = 6, radius: float = 0.8):
    """Random series with f(0) = 0 and f'(0) = 1."""
    return st.lists(
        bounded_complex(radius), min_size=order - 1, max_size=order - 1
    ).map(lambda cs: TruncatedSeries((0.0, 1.0) + tuple(cs)))


def lattice(step):
    """The points (x, y) of :func:`_lattice_columns`, flattened with masks."""
    x, ticks, counts, top = _lattice_columns(step)
    ys = np.empty((len(x), len(ticks) + 1))
    ys[:, :-1] = ticks
    ys[:, -1] = top
    keep = np.ones(ys.shape, dtype=bool)
    keep[:, :-1] = np.arange(len(ticks)) < counts[:, None]
    return np.broadcast_to(x[:, None], ys.shape)[keep], ys[keep]


def published_f3_top(family, edge, original=_edge_polynomial):
    """Edge restrictions, with the third family's top edge as published."""
    if (family.tag, edge) == ("F3", "top"):
        return PUBLISHED_F3_TOP
    return original(family, edge)
