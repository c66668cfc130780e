import math
import random
import tracemalloc

import numpy as np
import pytest

from gamma3lab import (
    F1,
    F2,
    F3,
    BoundReport,
    Family,
    UnknownEdge,
    edge_maximum,
    global_bound,
    interior_critical_points,
    value_xy,
)
from gamma3lab import cli
from gamma3lab import optimize as optimize_module
from gamma3lab.optimize import (
    GRID_STEP,
    PUBLISHED_F3_TOP,
    CertificationMismatch,
    _dense_grid_max,
    _edge_polynomial,
    _lattice_columns,
    _maximize_on_unit_interval,
)

from conftest import lattice, published_f3_top
from reference import hessian_xy, is_negative_definite

X2 = (4 - math.sqrt(7)) / 6
Y2 = (47 - 14 * math.sqrt(7)) / 108


class TestInteriorCriticalPoints:
    def test_first_family_unique_point(self):
        points = interior_critical_points(F1)
        assert len(points) == 1
        (x, y, v) = points[0]
        assert math.hypot(x - 0.25, y - 0.3125) <= 1e-9
        assert abs(v - 15.75) <= 1e-9

    def test_second_family_unique_point(self):
        points = interior_critical_points(F2)
        assert len(points) == 1
        (x, y, v) = points[0]
        assert math.hypot(x - X2, y - Y2) <= 1e-9
        assert abs(v - 3.10518) <= 1e-5

    def test_third_family_unique_point(self):
        points = interior_critical_points(F3)
        assert len(points) == 1
        (x, y, v) = points[0]
        assert math.hypot(x - 0.25, y - 0.3125) <= 1e-9
        assert abs(v - 17.75) <= 1e-9

    def test_hessian_negative_definite_at_maxima(self):
        for family in (F1, F2, F3):
            (x, y, _), = interior_critical_points(family)
            assert is_negative_definite(hessian_xy(family, x, y))


class TestEdgeMaximum:
    def test_first_family_edges(self):
        t, v = edge_maximum(F1, "bottom")
        assert abs(v - (9 + 10 * math.sqrt(30) / 9)) <= 1e-9
        t, v = edge_maximum(F1, "left")
        assert abs(v - 46 / 3) <= 1e-9
        assert abs(t - 1 / 6) <= 1e-9
        t, v = edge_maximum(F1, "top")
        assert abs(v - 15.304035) <= 1e-4  # published decimal is rounded

    def test_second_family_edges(self):
        _, v = edge_maximum(F2, "bottom")
        assert abs(v - (2 + 4 * math.sqrt(6) / 9)) <= 1e-9
        t, v = edge_maximum(F2, "left")
        assert v == 3.0 and t == 0.0
        t, v = edge_maximum(F2, "top")
        assert abs(v - 2 * math.sqrt(2)) <= 1e-9
        assert abs(t - 1 / math.sqrt(2)) <= 1e-9

    def test_third_family_edges_shift_by_two(self):
        for edge in ("bottom", "left", "top"):
            t1, v1 = edge_maximum(F1, edge)
            t3, v3 = edge_maximum(F3, edge)
            assert abs(t1 - t3) <= 1e-9
            assert abs(v3 - v1 - 2.0) <= 1e-9

    def test_unknown_edge(self):
        with pytest.raises(UnknownEdge):
            edge_maximum(F1, "diagonal")

    def test_value_is_numpys_polyval_bit_for_bit(self):
        # the maximum is evaluated by Horner's rule in plain floats
        polys = [_edge_polynomial(f, e) for f in (F1, F2, F3) for e in optimize_module.EDGES]
        for poly in polys + [PUBLISHED_F3_TOP]:
            t, v = _maximize_on_unit_interval(poly)
            assert type(v) is float
            assert v.hex() == float(np.polynomial.polynomial.polyval(t, poly)).hex()

    def test_edge_restrictions_match_hand_substitution(self):
        # substituting y=0, x=0 and y=1-x^2 into the objectives by hand
        expected = {
            ("F1", "bottom"): (15, 2, -12, 4),
            ("F1", "left"): (15, 4, -12),
            ("F1", "top"): (7, 22, -4, -16),
            ("F2", "bottom"): (3, 1, -3, 1),
            ("F2", "left"): (3, 0, -3),
            ("F2", "top"): (0, 6, 0, -4),
            ("F3", "bottom"): (17, 2, -12, 4),
            ("F3", "left"): (17, 4, -12),
            ("F3", "top"): (9, 22, -4, -16),
        }
        for family in (F1, F2, F3):
            for edge in ("bottom", "left", "top"):
                assert _edge_polynomial(family, edge) == expected[(family.tag, edge)]


class TestGlobalBound:
    def test_first_family_report(self):
        r = global_bound(F1)
        assert abs(r.global_max - 15.75) <= 1e-9
        assert f"{r.gamma3_bound:.12g}" == "0.328125"
        assert r.grid_max <= r.global_max + 1e-9

    def test_second_family_report(self):
        r = global_bound(F2)
        assert abs(r.gamma3_bound - 0.258765) <= 1e-6

    def test_third_family_report_documents_discrepancy(self):
        r = global_bound(F3)
        assert abs(r.global_max - 17.75) <= 1e-9
        assert abs(r.gamma3_bound - 17.75 / 48) <= 1e-9
        assert len(r.notes) == 1
        note = r.notes[0]
        assert "16x^3" in note and "20x^3" in note
        assert "17.304049" in note and "16.56455" in note

    def test_interior_dominates_edges(self):
        for family in (F1, F2, F3):
            r = global_bound(family)
            interior_best = max(v for _, _, v in r.interior_points)
            assert r.global_max == interior_best
            assert all(v < interior_best for _, _, v in r.edge_maxima)

    def test_grid_reproduces_global_max_closely(self):
        for family in (F1, F2, F3):
            r = global_bound(family)
            assert abs(r.grid_max - r.global_max) <= 1e-3

    def test_dense_grid_never_exceeds(self):
        for family in (F1, F2, F3):
            r = global_bound(family)
            assert _dense_grid_max(family) <= r.global_max + 1e-9


class TestBoundReportInvariants:
    def _valid_kwargs(self):
        r = global_bound(F1)
        return dict(
            family=r.family,
            interior_points=r.interior_points,
            edge_maxima=r.edge_maxima,
            grid_max=r.grid_max,
        )

    def test_global_max_must_match_candidates(self):
        # the maximum is derived from the candidates, so it follows them
        kwargs = self._valid_kwargs()
        (x, y, v), = kwargs["interior_points"]
        kwargs["interior_points"] = ((x, y, v + 0.5),)
        r = BoundReport(**kwargs)
        assert r.global_max == v + 0.5
        kwargs["interior_points"] = ()
        kwargs["grid_max"] = 0.0
        r = BoundReport(**kwargs)
        assert r.global_max == max(v for _, _, v in r.edge_maxima)

    def test_bound_must_match_scale(self):
        for family in (F1, F2, F3):
            r = global_bound(family)
            assert r.gamma3_bound == r.global_max / family.scale

    def test_grid_max_may_not_exceed(self):
        kwargs = self._valid_kwargs()
        global_max = BoundReport(**kwargs).global_max
        for excess in (1e-3, 1e-7):
            kwargs["grid_max"] = global_max + excess
            with pytest.raises(CertificationMismatch):
                BoundReport(**kwargs)

    def test_edge_maximum_must_be_the_objective_there(self):
        kwargs = self._valid_kwargs()
        edges = kwargs["edge_maxima"]
        for i in range(len(edges)):
            for shift in (1e-7, -1e-7, 1e-3):
                e, t, v = edges[i]
                kwargs["edge_maxima"] = edges[:i] + ((e, t, v + shift),) + edges[i + 1:]
                with pytest.raises(CertificationMismatch, match=f"{e} edge"):
                    BoundReport(**kwargs)
            kwargs["edge_maxima"] = edges[:i] + ((e, t, v + 1e-11),) + edges[i + 1:]
            BoundReport(**kwargs)

    def test_certification_catches_the_published_top_edge(self, monkeypatch):
        # the published cubic of F3's top edge stays below the interior
        # maximum, so only the edge's own value can expose it
        monkeypatch.setattr(optimize_module, "_edge_polynomial", published_f3_top)
        with pytest.raises(CertificationMismatch, match="top edge"):
            optimize_module.global_bound(F3)

    def test_certification_catches_a_lost_interior_maximum(self, monkeypatch):
        # without the interior maximum the best edge value falls 0.4 below
        # the dense sweep, and certification fires
        monkeypatch.setattr(
            optimize_module, "interior_critical_points", lambda *a, **k: []
        )
        with pytest.raises(CertificationMismatch):
            optimize_module.global_bound(F1)


def _column_loop(step):
    """The lattice of E, one column and one point at a time."""
    points = []
    for i in range(math.ceil(1.0 / step - 1e-9) + 1):
        x = min(i * step, 1.0)
        ymax = 1.0 - x * x
        ys = [j * step for j in range(int(ymax / step) + 1) if j * step < ymax - 1e-12]
        points += [(x, y) for y in ys + [ymax]]
    return points


class TestLattice:
    @pytest.mark.parametrize("step", [0.1, 0.05, 0.03, 0.01, 0.007, 0.0013, 0.001])
    def test_matches_the_column_loop(self, step):
        xs, ys = lattice(step)
        assert list(zip(xs.tolist(), ys.tolist())) == _column_loop(step)

    @pytest.mark.parametrize("step", [0.1, 0.05, 0.03, 0.007, 0.0013, 0.001])
    def test_last_column_is_x_equal_one(self, capsys, step):
        # round(1/step) steps stopped short of x = 1 at 0.03 and 0.0013
        x, _, counts, top = _lattice_columns(step)
        assert (x[-1], top[-1], counts[-1]) == (1.0, 0.0, 0)
        assert x[-2] < 1.0
        if step >= 0.007:  # the finer dumps print 4e5 rows and more
            assert cli.main(["bound", "f1", "--format", "csv", "--grid-step", str(step)]) == 0
            assert capsys.readouterr().out.splitlines()[-1].startswith("1,0,")

    @pytest.mark.parametrize("step", [0.1, 0.007])
    def test_csv_dump_walks_the_lattice(self, capsys, step):
        assert cli.main(["bound", "f3", "--format", "csv", "--grid-step", str(step)]) == 0
        rows = capsys.readouterr().out.splitlines()
        fmt = "{:.12g}".format
        assert rows[0] == "x,y,value"
        assert rows[1:] == [
            f"{fmt(x)},{fmt(y)},{fmt(value_xy(F3, x, y))}" for x, y in _column_loop(step)
        ]


def _vertex_tick(family, i):
    """Column i's tick floor(y_v / step), y_v = (|w2| + |w12| x)(1 + x) / (2 w3) its vertex."""
    x = _lattice_columns(GRID_STEP)[0][i]
    _, _, w2, w3, w12, _ = family.gamma3_weights
    return math.floor((abs(w2) + abs(w12) * x) * (1.0 + x) / (2.0 * w3) / GRID_STEP)


#: A family whose columns all peak at y = 0: w2 = w12 = 0.
FLAT = Family("flat", (1.0,), 1, (1.0, 1.0, 0.0, 3.0, 0.0, 1.0))
#: F1's vertex lies inside column 300 and above column 850's top.
_INSIDE, _ABOVE = 300, 850
#: Columns that keep the ids of cases first written for the former sweep in
#: 64-column blocks: 961 began its ragged last block, 127 ended its second
#: block (a short column, F1's vertex inside it) and 64 was that block's tallest.
_RAGGED, _SHORT, _TALL = 961, 127, 64


def _sweep_points():
    """One lattice point of each kind that the sweep must reach, with its family."""
    x, ticks, counts, top = _lattice_columns(GRID_STEP)
    i, j = _INSIDE, _ABOVE
    m = _vertex_tick(F1, i)
    assert 1 <= m and m + 2 < counts[i] and _vertex_tick(F1, j) > counts[j]
    assert _vertex_tick(FLAT, i) == 0 and (x[-1], top[-1]) == (1.0, 0.0)
    r = _RAGGED
    assert _vertex_tick(F1, r) > counts[r]
    return {
        "vertex tick": (F1, x[i], ticks[m]),
        "tick below the vertex tick": (F1, x[i], ticks[m - 1]),
        "second tick above the vertex tick": (F1, x[i], ticks[m + 2]),
        "top point": (F1, x[i + 3], top[i + 3]),
        "tick 0 under a vertex at y = 0": (FLAT, x[i], ticks[0]),
        "last tick below a vertex above the top": (F1, x[j], ticks[counts[j] - 1]),
        "corner (1, 0)": (F1, x[-1], top[-1]),
        "ragged last block": (F1, x[r], ticks[counts[r] - 1]),
    }


def _points_off_the_lattice():
    """Ticks above a column's top, which the sweep's clipped window never reaches."""
    x, ticks, counts, top = _lattice_columns(GRID_STEP)
    j, s, t = _ABOVE, _SHORT, _TALL
    assert ticks[counts[j]] > top[j]
    assert _vertex_tick(F1, s) + 2 < counts[s] < counts[t] and ticks[counts[s]] > top[s]
    return {
        "first tick above a column's top": (x[j], ticks[counts[j]]),
        "vertex tick above a column's top": (x[j], ticks[_vertex_tick(F1, j)]),
        "first tick above a block's shortest column": (x[s], ticks[counts[s]]),
        "tallest column's last tick in the shortest column": (x[s], ticks[counts[t] - 1]),
    }


def _bump(x0, y0):
    """The objective with a bump of 100 at one point, above the analytic maximum."""

    def bumped(family, x, y):
        return value_xy(family, x, y) + 100.0 * ((x == x0) & (y == y0))

    return bumped


def _seeded_families(seed, count):
    """Weight families with w3 > 0: a third with integer weights, a fifth with
    w2 = w12 = 0 (vertex at y = 0); of the others, most have their vertex
    above some columns' tops and a quarter above every column's."""
    rng = random.Random(seed)
    for k in range(count):
        w = [rng.uniform(-20.0, 20.0) for _ in range(6)]
        w[3] = rng.uniform(0.01, 20.0)
        if k % 3 == 0:
            w = [float(round(v)) for v in w]
            w[3] = float(rng.randint(1, 20))
        if k % 5 == 0:
            w[2] = w[4] = 0.0
        yield Family(f"W{seed}.{k}", (1.0,), 1, tuple(w))


#: Lattice steps of most seeded families: the sweep's arithmetic does not
#: depend on the step, and the flat maximum at ``GRID_STEP`` takes 20 ms.
_SEEDED_STEPS = (0.1, 0.05, 0.03, 0.01, 0.007)


def _sweep_cases():
    """(family, step) pairs by test id: F1-F3 and 10 seeded families at
    ``GRID_STEP``, and 1000 more in five groups, cycling through ``_SEEDED_STEPS``."""
    cases = {f.tag: [(f, GRID_STEP)] for f in (F1, F2, F3)}
    for seed in range(5):
        families = _seeded_families(seed, 200)
        cases[f"seeded {seed}"] = [
            (f, _SEEDED_STEPS[k % len(_SEEDED_STEPS)]) for k, f in enumerate(families)
        ]
    cases["seeded at GRID_STEP"] = [(f, GRID_STEP) for f in _seeded_families(5, 10)]
    return cases


_SWEEP_CASES = _sweep_cases()


class TestDenseGridSweep:
    @pytest.mark.parametrize("case", list(_SWEEP_CASES))
    def test_vertex_ticks_give_the_flat_maximum_bit_for_bit(self, monkeypatch, case):
        lattices = {}
        for family, step in _SWEEP_CASES[case]:
            if step not in lattices:
                lattices[step] = lattice(step)
            monkeypatch.setattr(optimize_module, "GRID_STEP", step)
            flat = float(np.max(value_xy(family, *lattices[step])))
            assert _dense_grid_max(family).hex() == flat.hex(), family

    @pytest.mark.parametrize("w3", [0.0, -3.0])
    def test_a_convex_or_flat_objective_is_refused(self, w3):
        family = Family("convex", (1.0,), 1, (3.0, 2.0, 4.0, w3, 8.0, 4.0))
        with pytest.raises(ValueError, match="w3 > 0"):
            _dense_grid_max(family)

    def test_columns_describe_the_lattice(self):
        for step in (0.1, 0.0013, GRID_STEP):
            x, ticks, counts, top = _lattice_columns(step)
            xs, ys = lattice(step)
            assert (xs == np.repeat(x, counts + 1)).all()
            assert (ys[np.cumsum(counts + 1) - 1] == top).all()
            assert (np.diff(counts) <= 0).all()

    @pytest.mark.parametrize("where", list(_sweep_points()))
    def test_sweep_reaches_every_kind_of_point(self, monkeypatch, where):
        family, x0, y0 = _sweep_points()[where]
        monkeypatch.setattr(optimize_module, "value_xy", _bump(x0, y0))
        with pytest.raises(CertificationMismatch, match="dense grid"):
            global_bound(family)

    @pytest.mark.parametrize("where", list(_points_off_the_lattice()))
    def test_sweep_skips_ticks_above_a_column(self, monkeypatch, where):
        grid_max = global_bound(F1).grid_max
        monkeypatch.setattr(optimize_module, "value_xy", _bump(*_points_off_the_lattice()[where]))
        assert global_bound(F1).grid_max == grid_max

    def test_warm_bound_stays_small_in_memory(self):
        global_bound(F1)
        tracemalloc.start()
        try:
            global_bound(F1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
