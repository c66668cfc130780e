import subprocess
import sys

import pytest

from gamma3lab import (
    F1,
    F2,
    SchwarzTriple,
    SearchResult,
    VerificationFailed,
    WitnessMismatch,
    gamma3_closed_form,
    sample_blocks,
    search,
    search_lower_bound,
    taylor_of_blaschke,
    triple_of_blaschke,
)
from gamma3lab.search import REMARK_VALUES, _refine


class TestSearchLowerBound:
    def test_single_rotation_evaluation(self):
        # seed 2 yields the rotation +1 sample, i.e. w(z) = z
        r = search_lower_bound(F1, iterations=1, seed=2, real_only=True, max_degree=1)
        assert r.best_value == 3 / 16
        assert r.witness.degree == 1
        assert r.witness.rotation == 1 + 0j

    def test_deterministic(self):
        a = search_lower_bound(F1, iterations=800, seed=5, max_degree=3)
        b = search_lower_bound(F1, iterations=800, seed=5, max_degree=3)
        assert a.best_value == b.best_value
        assert a.witness == b.witness

    def test_witness_reproduces_best_value(self):
        # iterations=1 leaves no refinement budget, so the best is a sampled value
        runs = [(family, 600, 3) for family in (F1, F2)] + [(F2, 1, s) for s in range(1, 11)]
        for family, iterations, seed in runs:
            r = search_lower_bound(family, iterations=iterations, seed=seed, max_degree=4)
            replay = abs(gamma3_closed_form(family, triple_of_blaschke(r.witness)))
            assert replay == r.best_value
            w = taylor_of_blaschke(r.witness, 3).coeffs
            series = abs(gamma3_closed_form(family, SchwarzTriple(*w[1:])))
            assert abs(series - r.best_value) <= 1e-9

    def test_respects_upper_bound(self):
        for seed in (1, 2, 3):
            r = search_lower_bound(F2, iterations=400, seed=seed, max_degree=5)
            assert r.best_value <= r.upper_bound + 1e-9

    def test_remark_value_only_when_real(self):
        r = search_lower_bound(F1, iterations=50, seed=1, real_only=True)
        assert r.remark_value == REMARK_VALUES["F1"]
        r = search_lower_bound(F1, iterations=50, seed=1, real_only=False)
        assert r.remark_value is None

    def test_refinement_never_loses_the_sampled_best(self):
        iterations, seed, max_degree = 700, 9, 4
        n_global = round(0.7 * iterations)
        sampled_best = max(
            abs(gamma3_closed_form(F1, triple_of_blaschke(batch))).max()
            for batch in sample_blocks(seed, n_global, max_degree)
        )
        r = search_lower_bound(F1, iterations=iterations, seed=seed, max_degree=max_degree)
        assert r.best_value >= sampled_best - 1e-15

    def test_replay_catches_a_wrong_sampled_value(self, monkeypatch):
        exact = search.triple_of_blaschke

        def skewed(b):
            t = exact(b)
            return SchwarzTriple(t.c1, t.c2, t.c3 + 1e-6)

        monkeypatch.setattr(search, "triple_of_blaschke", skewed)
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
        r = search_lower_bound(F1, iterations=200, seed=4, max_degree=3)
        value = r.best_value
        for budget in (10, 50, 200):
            _, refined, _ = _refine(F1, r.witness, value, budget)
            assert refined >= value

    def test_validation(self):
        with pytest.raises(ValueError):
            search_lower_bound(F1, iterations=0)
        with pytest.raises(ValueError):
            search_lower_bound(F1, iterations=10, max_degree=0)


    def test_never_imports_numpy_random(self):
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
        r = search_lower_bound(F1, iterations=300, seed=2, max_degree=4)
        assert r.gap == r.upper_bound - r.best_value
        assert r.relative_gap == r.gap / r.upper_bound
        assert r.gap >= -1e-9
