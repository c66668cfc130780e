import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from gamma3lab import (
    F1,
    F2,
    F3,
    SchwarzTriple,
    SearchResult,
    VerificationFailed,
    WitnessMismatch,
    gamma3_closed_form,
    sample_blocks,
    schur_triple,
    search,
    search_lower_bound,
    taylor_of_blaschke,
    triple_of_blaschke,
)
from gamma3lab import schwarz
from gamma3lab.objective import value_xy
from gamma3lab.search import REMARK_VALUES, _refine, _schur_value

import reference
from reference import sample_batch, search_points


def _reference_refine(family, a, b, value, budget, real_only):
    """The coordinate search of one candidate, one scalar evaluation at a time."""
    directions = (1, -1) if real_only else (1, -1, 1j, -1j)
    step = search._INITIAL_STEP
    used = 0
    for _ in range(search._REFINE_ROUNDS):
        if used >= budget or step < 1e-12:
            break
        moves = [(a + d * step, b) for d in directions] + [(a, b + d * step) for d in directions]
        improved = False
        for ma, mb in moves:
            if used >= budget:
                break
            if max(abs(ma), abs(mb)) >= 1.0 - 1e-9:
                continue
            v = _schur_value(family, ma, mb)
            used += 1
            if v > value:
                a, b, value = ma, mb, v
                improved = True
        if not improved:
            step *= 0.5
    return a, b, value, used


def _best_over_eta(family, a, b):
    """max over |eta| <= 1 of |gamma_3|: |P| + w3 (1 - |a|^2)(1 - |b|^2) / scale."""
    p = gamma3_closed_form(family, schur_triple(a, b, 0.0))
    w3 = family.gamma3_weights[3]
    return abs(p) + w3 * (1 - abs(a) ** 2) * (1 - abs(b) ** 2) / family.scale


class TestSearchLowerBound:
    def test_single_rotation_evaluation(self):
        # one evaluation: the sampled (a, b) with the rotation eta = P/|P| in closed form
        for seed in (1, 2, 3):
            r = search_lower_bound(F1, iterations=1, seed=seed, real_only=True)
            a, b = search_points(seed, 1, True)
            assert r.best_value == pytest.approx(_best_over_eta(F1, a[0], b[0]), abs=1e-15)
            p = complex(gamma3_closed_form(F1, schur_triple(a[0], b[0], 0.0)))
            assert r.witness.degree == 3
            assert r.witness.rotation == p / abs(p)
            assert r.witness.rotation in (1 + 0j, -1 + 0j)

    def test_deterministic(self):
        a = search_lower_bound(F1, iterations=800, seed=5)
        b = search_lower_bound(F1, iterations=800, seed=5)
        assert a.best_value == b.best_value
        assert a.witness == b.witness

    def test_witness_reproduces_best_value(self):
        # iterations=1 leaves no refinement budget, so the best is a sampled value
        runs = [(family, 600, 3) for family in (F1, F2)] + [(F2, 1, s) for s in range(1, 11)]
        for family, iterations, seed in runs:
            for real_only in (False, True):
                r = search_lower_bound(family, iterations, seed, real_only)
                # the reported value is the witness's order-3 series value, by definition
                w = taylor_of_blaschke(r.witness, 3).coeffs
                series = abs(gamma3_closed_form(family, SchwarzTriple(*w[1:])))
                assert series == r.best_value
                # the triple recurrence rounds differently: at most 5 ulp over 552 searches, and
                # 44 ulp (3.8e-17) only at a budget-1 value of 0.0052 whose summands cancel
                replay = abs(gamma3_closed_form(family, triple_of_blaschke(r.witness)))
                assert abs(replay - r.best_value) <= 8 * math.ulp(r.best_value)

    def test_real_only_reaches_the_sharp_real_a2_values(self):
        # their extremal Schwarz functions have conjugate-pair zeros
        for family in (F1, F2):
            for seed in (1, 2, 3):
                r = search_lower_bound(family, 100_000, seed, real_only=True)
                assert r.best_value >= REMARK_VALUES[family.tag] - 1e-9
                z1, z2 = r.witness.zeros
                assert z1.imag != 0 and z1 == z2.conjugate()

    def test_respects_upper_bound(self):
        for seed in (1, 2, 3):
            r = search_lower_bound(F2, iterations=400, seed=seed)
            assert r.best_value <= r.upper_bound + 1e-9

    def test_remark_value_only_when_real(self):
        r = search_lower_bound(F1, iterations=50, seed=1, real_only=True)
        assert r.remark_value == REMARK_VALUES["F1"]
        r = search_lower_bound(F1, iterations=50, seed=1, real_only=False)
        assert r.remark_value is None

    def test_refinement_never_loses_the_sampled_best(self):
        iterations, seed = 700, 9
        n_global = round(0.7 * iterations)
        a, b = search_points(seed, n_global)
        sampled_best = _best_over_eta(F1, a, b).max()
        r = search_lower_bound(F1, iterations=iterations, seed=seed)
        # the witness route may differ from the Schur route by rounding
        assert r.best_value >= sampled_best - 1e-13

    def test_top_candidates_order_by_value_then_index(self):
        values = np.array([0.5, 0.9, 0.1, 0.9, 0.7] + [0.0] * 20 + [0.9])
        assert search._top_candidates(values).tolist() == [1, 3, 25, 4, 0, 2, 5, 6, 7, 8]
        assert search._top_candidates(values[:3]).tolist() == [1, 0, 2]

    def test_replay_catches_a_wrong_sampled_value(self, monkeypatch):
        exact = search.schur_triple

        def skewed(a, b, eta):
            t = exact(a, b, eta)
            return SchwarzTriple(t.c1, t.c2, t.c3 + 1e-6)

        monkeypatch.setattr(search, "schur_triple", skewed)
        with pytest.raises(WitnessMismatch):
            search_lower_bound(F1, iterations=100, seed=1)

    def test_values_above_a_bound_fail_verification(self):
        r = search_lower_bound(F1, iterations=50, seed=1, real_only=True)
        fields = dict(family=F1, witness=r.witness, iterations=50, upper_bound=r.upper_bound)
        with pytest.raises(VerificationFailed):
            SearchResult(best_value=r.upper_bound + 1e-6, real_only=False, **fields)
        with pytest.raises(VerificationFailed):
            SearchResult(best_value=REMARK_VALUES["F1"] + 1e-5, real_only=True, **fields)

    def test_bound_is_certified_once_per_family(self, monkeypatch):
        calls = []
        certify = search.global_bound
        monkeypatch.setattr(search, "global_bound", lambda f: calls.append(f.tag) or certify(f))
        search._proved_bound.cache_clear()
        for family in (F2, F2, F1, F2):
            search_lower_bound(family, iterations=50, seed=1)
        assert calls == ["F2", "F1"]

    def test_refine_is_monotone(self):
        for real_only in (False, True):
            a, b = sample_batch(4, 3, 20, real_only).zeros
            start = _best_over_eta(F1, a, b)
            for budget in (10, 50, 200):
                ra, rb, refined, used = _refine(F1, a, b, start, np.full(len(a), budget), real_only)
                assert (refined >= start).all() and (used <= budget).all()
                assert (abs(ra) < 1 - 1e-9).all() and (abs(rb) < 1 - 1e-9).all()
                if real_only:
                    assert (ra.imag == 0).all() and (rb.imag == 0).all()

    def test_lockstep_refine_matches_the_scalar_reference(self):
        # besides the samples: F2's tie between a = +-step at the origin, and
        # starts whose moves cross |a|, |b| < 1 - 1e-9
        edge_a = np.array([0, 0.9999999, 1 - 1.5e-9, 0.3]) + 0j
        edge_b = np.array([0, 0, 0, -0.99999995]) + 0j
        worst = 0.0
        for family in (F1, F2, F3):
            for real_only in (False, True):
                a, b = sample_batch(4, 3, 20, real_only).zeros
                a, b = np.concatenate([a, edge_a]), np.concatenate([b, edge_b])
                start = _schur_value(family, a, b)
                for budget in (1, 3, 10, 50, 200, 3000):
                    batched = _refine(family, a, b, start, np.full(len(a), budget), real_only)
                    for j, (ra, rb, rv, used) in enumerate(zip(*batched)):
                        ref = _reference_refine(
                            family, complex(a[j]), complex(b[j]), float(start[j]),
                            budget, real_only,
                        )
                        assert used == ref[3]
                        worst = max(worst, abs(ra - ref[0]), abs(rb - ref[1]), abs(rv - ref[2]))
        assert worst <= 1e-15

    def test_candidates_share_the_budget_in_top_order(self, monkeypatch):
        # an even split whose remainder goes to the first candidates, for budgets below, at
        # and above the number of candidates, with a remainder (45, 2005) and without
        seen = {}
        lockstep, witness = search._refine, search.schur_witness

        def spy_refine(family, a, b, values, budget, real_only):
            refined = lockstep(family, a, b, values, budget, real_only)
            seen["refine"] = (a, b, values, budget), refined
            return refined

        def spy_witness(a, b, eta):
            seen["best"] = (a, b)
            return witness(a, b, eta)

        monkeypatch.setattr(search, "_refine", spy_refine)
        monkeypatch.setattr(search, "schur_witness", spy_witness)
        for iterations in (4, 10, 13, 20, 33, 45, 400, 2005):
            budget = iterations - round(0.7 * iterations)
            for seed in range(1, 13):
                search_lower_bound(F1, iterations, seed)
                (a, b, values, caps), refined = seen["refine"]
                assert caps.sum() == budget
                best = (-np.inf, None, None)
                for j, row in enumerate(zip(*refined)):
                    cap = budget // len(a) + (j < budget % len(a))
                    assert caps[j] == cap
                    ref = _reference_refine(
                        F1, complex(a[j]), complex(b[j]), float(values[j]), cap, False
                    )
                    assert row[3] == ref[3]
                    assert max(abs(row[i] - ref[i]) for i in range(3)) <= 1e-15
                    if ref[2] > best[0]:
                        best = (ref[2], ref[0], ref[1])
                assert abs(seen["best"][0] - best[1]) <= 1e-15
                assert abs(seen["best"][1] - best[2]) <= 1e-15

    def test_ties_go_to_the_first_candidate_in_top_order(self, monkeypatch):
        def tied(family, a, b, values, budget, real_only):
            return a, b, np.full(len(a), values.max()), np.zeros(len(a), dtype=int)

        monkeypatch.setattr(search, "_refine", tied)
        r = search_lower_bound(F1, 700, seed=9)
        a, b = search_points(9, 490)
        assert r.best_value == pytest.approx(_best_over_eta(F1, a, b).max(), abs=1e-13)

    def test_draws_its_points_from_its_own_stream(self, monkeypatch):
        # the global phase evaluates the points of the stream keyed search/{seed} bit for bit,
        # however it is chunked, and its pruning keeps the top ten of evaluating every point
        calls, top, exact, lockstep = [], {}, search._schur_value, search._refine

        def record(family, a, b):
            if not top:  # the refinement's evaluations follow the global phase's
                calls.append((a, b))
            return exact(family, a, b)

        def record_top(family, a, b, values, budget, real_only):
            top.update(a=a, b=b, values=values)
            return lockstep(family, a, b, values, budget, real_only)

        def row_bytes(a, b):
            return {row.tobytes() for row in np.stack([a, b], axis=1)}

        monkeypatch.setattr(search, "_schur_value", record)
        monkeypatch.setattr(search, "_refine", record_top)
        for rows in (schwarz.BLOCK_ROWS, 7):
            monkeypatch.setattr(schwarz, "BLOCK_ROWS", rows)
            for family in (F1, F2):
                for seed in (1, 7):
                    for real_only in (False, True):
                        calls.clear()
                        top.clear()
                        search_lower_bound(family, 800, seed, real_only)
                        a, b = search_points(seed, 560, real_only)
                        drawn = row_bytes(a, b)
                        assert calls and all(row_bytes(*c) <= drawn for c in calls)
                        values = exact(family, a, b)
                        best = search._top_candidates(values)
                        assert top["values"].tobytes() == values[best].tobytes()
                        assert top["a"].tobytes() == a[best].tobytes()
                        assert top["b"].tobytes() == b[best].tobytes()

    def test_lazily_drawn_points_are_the_fully_decoded_ones(self, monkeypatch):
        # the angle rows drawn for the evaluated columns alone give, bit for bit, the
        # points of decoding every row of every sample
        drawn, lazy = [], search._points

        def record(origin, columns, radii, real_only):
            drawn.append((columns, lazy(origin, columns, radii, real_only)))
            return drawn[-1][1]

        monkeypatch.setattr(search, "_points", record)
        for rows in (schwarz.BLOCK_ROWS, 7):
            monkeypatch.setattr(schwarz, "BLOCK_ROWS", rows)
            for seed in (1, 7):
                for real_only in (False, True):
                    drawn.clear()
                    search_lower_bound(F1, 800, seed, real_only)
                    a, b = search_points(seed, 560, real_only)
                    evaluated = 0
                    for columns, (lazy_a, lazy_b) in drawn:
                        j = columns.astype(int)
                        assert lazy_a.tobytes() == a[j].tobytes()
                        assert lazy_b.tobytes() == b[j].tobytes()
                        evaluated += len(j)
                    assert evaluated >= 10

    def test_real_only_draws_other_words_than_complex(self, monkeypatch):
        # search/{seed} and search/real/{seed} are distinct streams: the two modes of a
        # seed read no word in common, the first ones included
        drawn, words = [], schwarz._words
        monkeypatch.setattr(schwarz, "_words", lambda o, i: drawn.append(words(o, i)) or drawn[-1])
        seen = []
        for real_only in (False, True):
            drawn.clear()
            search_lower_bound(F1, 800, 1, real_only)
            seen.append({int(w) for block in drawn for w in block.ravel()})
        first = [reference.stream_words(key, 1)[0] for key in ("search/1", "search/real/1")]
        assert first[0] in seen[0] and first[1] in seen[1]
        assert first[0] != first[1] and not seen[0] & seen[1]

    def test_shares_no_point_with_the_products_of_its_seed(self, monkeypatch):
        # the search's stream is its own: none of its points is the zeros of a degree-3
        # product that sample_blocks draws for the same seed
        drawn, decode = [], search._zeros

        def record(u, real_only):
            drawn.append(decode(u, real_only))
            return drawn[-1]

        monkeypatch.setattr(search, "_zeros", record)
        for seed in (1, 7):
            for real_only in (False, True):
                drawn.clear()
                search_lower_bound(F1, 800, seed, real_only)
                points = {(complex(a), complex(b)) for pair in drawn for a, b in zip(*pair)}
                batches = sample_blocks(seed, 3 * 560, 3, real_only)
                products = next(batch for batch in batches if batch.degree == 3)
                zeros = {(complex(a), complex(b)) for a, b in zip(*products.zeros)}
                assert points and not points & zeros

    def test_majorant_bounds_the_value_at_the_best_eta(self):
        # the objective at (|c1|, |c2|) bounds the Schur value, also at the edges of the bidisk
        edge = np.array([0, 0.3, 1 - 1e-9, 1 - 1e-9, 0, (1 - 1e-9) * 1j])
        for family in (F1, F2, F3):
            for real_only in (False, True):
                a, b = sample_batch(12, 3, 10**4, real_only).zeros
                a = np.concatenate([a, edge + 0j])
                b = np.concatenate([b, np.roll(edge, 2) + 0j])
                if real_only:
                    a, b = a.real + 0j, b.real + 0j
                x, r = abs(a), abs(b)
                majorant = value_xy(family, x, (1 - x * x) * r) / family.scale
                assert (majorant >= _schur_value(family, a, b) - 4 * np.spacing(0.5)).all()

    def test_majorant_of_the_uniforms_bounds_every_drawn_value(self):
        for real_only in (False, True):
            rows = 2 if real_only else 4
            columns = np.arange(12_000 // rows, dtype=np.uint64)
            u = schwarz._draw(schwarz._origin(3), rows, range(rows), columns)
            u[:, 0] = 0.0  # a = b = 0, or a real draw of -1 that the draw maps to 0
            radii = u if real_only else u[::2]
            moduli = abs(np.array(schwarz._zeros(u, real_only)))
            assert (abs(schwarz._radii(radii, real_only) - moduli) <= np.spacing(1.0)).all()
            for family in (F1, F2, F3):
                values = _schur_value(family, *schwarz._zeros(u, real_only))
                assert (search._majorant(family, radii, real_only) >= values).all()

    def test_one_pass_value_is_the_value_at_the_best_eta(self):
        # the closed form rounds at the scale of its summands, all below 1/2 in modulus
        for family in (F1, F2, F3):
            for real_only in (False, True):
                a, b = sample_batch(12, 3, 10**4, real_only).zeros
                p = gamma3_closed_form(family, schur_triple(a, b, 0.0))
                at_eta = abs(gamma3_closed_form(family, schur_triple(a, b, p / abs(p))))
                assert (abs(_schur_value(family, a, b) - at_eta) <= 4 * np.spacing(0.5)).all()

    def test_witness_rotation_is_one_where_p_vanishes(self, monkeypatch):
        # a = 0, b = 1/2 gives P = 0 for F2, and |gamma_3| = w3 (1 - 1/4) / 12
        assert gamma3_closed_form(F2, schur_triple(0j, 0.5 + 0j, 0.0)) == 0
        u = np.array([[0.0], [0.0], [0.25], [0.0]])
        monkeypatch.setattr(search, "_draw", lambda origin, rows, which, columns: u[list(which)])
        r = search_lower_bound(F2, iterations=1)
        assert r.witness.rotation == 1
        assert r.best_value == pytest.approx(0.1875, abs=1e-15)

    def test_chunked_draw_gives_the_unchunked_results(self, monkeypatch):
        # budgets 1 and 2 draw one global sample and 14 draws ten, so none is left out of the top ten
        runs = [
            (f, real_only, seed, iterations)
            for f in (F1, F2) for real_only in (False, True) for seed in (1, 7)
            for iterations in (800, 1, 2, 14)
        ]
        whole = [search_lower_bound(f, it, seed, ro) for f, ro, seed, it in runs]
        monkeypatch.setattr(schwarz, "BLOCK_ROWS", 7)  # 560 global samples in 80 batches
        for (f, ro, seed, it), r in zip(runs, whole):
            chunked = search_lower_bound(f, it, seed, ro)
            assert chunked.best_value == r.best_value and chunked.witness == r.witness

    def test_a_large_search_stays_small_in_memory(self):
        search_lower_bound(F1, iterations=50)  # certifies the bound outside the measurement
        tracemalloc.start()
        try:
            search_lower_bound(F1, iterations=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_validation(self):
        with pytest.raises(ValueError):
            search_lower_bound(F1, iterations=0)

    def test_never_imports_numpy_random(self):
        # its import alone adds 6.3 MB of RSS, +17 % on the search benchmark's peak_rss_mb
        code = (
            "import sys, gamma3lab; "
            "gamma3lab.search_lower_bound(gamma3lab.F1, iterations=500); "
            "print('numpy.random' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestGapReport:
    def test_gap_subtraction(self):
        r = search_lower_bound(F1, iterations=300, seed=2)
        assert r.gap == r.upper_bound - r.best_value
        assert r.relative_gap == r.gap / r.upper_bound
        assert r.gap >= -1e-9
