"""Expected values and output checks, derived independently of the program.

Every reference figure here comes from the paper's mathematics, not from
an earlier run of the program:

* the objectives are transcribed by hand, one explicit formula per family;
* the interior maxima sit at the exact critical points obtained from
  grad f = 0: (1/4, 5/16) for F1 and F3, and x = (4 - sqrt 7)/6,
  y = (47 - 14 sqrt 7)/108 for F2, with values 63/4, (233 + 7 sqrt 7)/81
  and 71/4;
* the sharp values under a real a2 are the surds of the paper's remark.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import json
import math

#: Absolute tolerance on every compared value.  Printed numbers carry 12
#: significant digits, so rounding alone stays below 1e-10 for values < 20.
TOL = 1e-9
#: Slack against the sharp real-a2 values, as stated for the search.
REMARK_TOL = 1e-6

_SQRT7 = math.sqrt(7.0)


def objective(tag: str, x, y):
    """The benchmark's own transcription of the three objectives on E.

    Works on floats and on ``fractions.Fraction`` alike.
    """
    carlson = 1 - x * x - y * y / (1 + x)
    if tag == "F1":
        return 3 + 2 * x + 4 * y + 12 * carlson + 8 * x * y + 4 * x ** 3
    if tag == "F2":
        return x + 3 * carlson + 2 * x * y + x ** 3
    if tag == "F3":
        return 5 + 2 * x + 4 * y + 12 * carlson + 8 * x * y + 4 * x ** 3
    raise KeyError(tag)


#: tag -> (critical point, maximum, scale of the gamma_3 closed form)
EXACT = {
    "F1": ((0.25, 0.3125), 63.0 / 4.0, 48),
    "F2": (((4.0 - _SQRT7) / 6.0, (47.0 - 14.0 * _SQRT7) / 108.0), (233.0 + 7.0 * _SQRT7) / 81.0, 12),
    "F3": ((0.25, 0.3125), 71.0 / 4.0, 48),
}

#: The paper's proved |gamma_3| bounds.
PAPER_BOUND = {tag: vmax / scale for tag, (_, vmax, scale) in EXACT.items()}

#: Sharp sup |gamma_3| when a2 is real.
REAL_A2_VALUE = {
    "F1": (11.0 + 15.0 * math.sqrt(30.0)) / 288.0,
    "F2": (95.0 + 23.0 * math.sqrt(46.0)) / 972.0,
    "F3": (743.0 + 131.0 * math.sqrt(262.0)) / 7776.0,
}


def check_bound_report(tag: str, text: str) -> list[str]:
    """Check one ``gamma3lab bound <family> --format json`` output."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"{tag}: stdout is not JSON ({exc})"]
    (x0, y0), vmax, scale = EXACT[tag]
    bad = []
    if report.get("family") != tag:
        bad.append(f"{tag}: report names family {report.get('family')!r}")
    points = report.get("interior_points") or []
    if not points:
        bad.append(f"{tag}: no interior critical point")
    else:
        top = points[0]
        if abs(top["x"] - x0) > TOL or abs(top["y"] - y0) > TOL:
            bad.append(f"{tag}: interior maximum at ({top['x']}, {top['y']}), expected ({x0}, {y0})")
        own = objective(tag, x0, y0)
        if abs(top["value"] - own) > TOL:
            bad.append(f"{tag}: interior value {top['value']} differs from f(x*, y*) = {own}")
    gmax, bound, grid = report["global_max"], report["gamma3_bound"], report["grid_max"]
    if abs(gmax - vmax) > TOL:
        bad.append(f"{tag}: global_max {gmax} differs from the exact maximum {vmax}")
    if abs(bound - PAPER_BOUND[tag]) > TOL or abs(bound - gmax / scale) > TOL:
        bad.append(f"{tag}: gamma3_bound {bound} differs from max/scale {vmax / scale}")
    if grid > gmax:
        bad.append(f"{tag}: grid_max {grid} exceeds global_max {gmax}")
    return bad


def check_same_stdout(first: str, this: str) -> list[str]:
    """Identical invocations must print byte-identical output."""
    a, b = first.encode(), this.encode()
    if a == b:
        return []
    at = next((i for i, (p, q) in enumerate(zip(a, b)) if p != q), min(len(a), len(b)))
    return [f"stdout differs from the first round at byte {at}"]


def check_oracle(tag: str, closed: complex, series: complex) -> list[str]:
    """Closed form against the series logarithm, and against the proved bound."""
    bad = []
    if abs(closed - series) > TOL:
        bad.append(f"{tag}: closed form {closed} vs series route {series}")
    if abs(closed) > PAPER_BOUND[tag] + TOL:
        bad.append(f"{tag}: |gamma3| = {abs(closed)} exceeds the bound {PAPER_BOUND[tag]}")
    return bad


def check_slacks(slacks) -> list[str]:
    """Carlson's three coefficient bounds hold for every Schwarz function."""
    if all(s >= -TOL for s in slacks):
        return []
    return [f"Carlson slacks {tuple(slacks)} are negative"]


def check_search(tag: str, real_only: bool, best: float, upper: float,
                 zeros, rotation: complex, replay) -> list[str]:
    """Check one search result.

    ``replay(zeros, rotation)`` recomputes |gamma3| of the witness by an
    independent route.
    """
    bad = []
    if abs(upper - PAPER_BOUND[tag]) > TOL:
        bad.append(f"{tag}: reported upper bound {upper}, proved bound {PAPER_BOUND[tag]}")
    if best > PAPER_BOUND[tag] + TOL:
        bad.append(f"{tag}: best value {best} exceeds the proved bound {PAPER_BOUND[tag]}")
    if real_only and best > REAL_A2_VALUE[tag] + REMARK_TOL:
        bad.append(f"{tag}: real-only value {best} exceeds the real-a2 value {REAL_A2_VALUE[tag]}")
    outside = [z for z in zeros if not abs(z) < 1.0]
    if outside:
        return bad + [f"{tag}: witness zeros {outside} are not inside the disk"]
    value = replay(zeros, rotation)
    if abs(value - best) > TOL:
        bad.append(f"{tag}: witness replays to {value}, search reported {best}")
    return bad
