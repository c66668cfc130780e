import cmath
import math
import random
import sys
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma3lab import (
    F1,
    F2,
    F3,
    BlaschkeProduct,
    SchwarzTriple,
    ZeroOutsideDisk,
    carlson_check,
    gamma3_closed_form,
    sample_blocks,
    schur_triple,
    schur_witness,
    taylor_of_blaschke,
    triple_of_blaschke,
)
from gamma3lab import schwarz
from gamma3lab.schwarz import _batch, _uniforms, in_body

import reference
from reference import blaschke_value, row, sample_batch, schur_parameters
from conftest import bits, disk_complex, sampled_product


#: Zeros with real and imaginary parts in quarters, signed zeros included.
QUARTER_ZEROS = [
    complex(x / 4, y / 4) for x in range(-3, 4) for y in range(-3, 4) if x * x + y * y < 16
] + [complex(-0.0, 0.0), complex(0.5, -0.0), complex(-0.0, -0.75)]


class TestTaylorOfBlaschke:
    def test_pure_rotation_is_z(self):
        w = taylor_of_blaschke(BlaschkeProduct((), 1.0), 3)
        assert w.coeffs == (0j, 1 + 0j, 0j, 0j)

    def test_zero_at_origin_is_z_squared(self):
        w = taylor_of_blaschke(BlaschkeProduct((0.0,), 1.0), 3)
        assert w.coeffs == (0j, 0j, 1 + 0j, 0j)

    def test_half_zero_expansion(self):
        w = taylor_of_blaschke(BlaschkeProduct((0.5,), 1.0), 3)
        assert w.coeffs == (0j, -0.5 + 0j, 0.75 + 0j, 0.375 + 0j)

    def test_constant_coefficient_exactly_zero(self):
        b = sampled_product(3, 4)
        assert taylor_of_blaschke(b, 5).coeffs[0] == 0j

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            taylor_of_blaschke(BlaschkeProduct((), 1.0), 0)

    @given(disk_complex(0.95), st.floats(0, 2 * math.pi, allow_nan=False))
    @settings(max_examples=300)
    def test_degree_two_closed_form(self, a, theta):
        rot = cmath.exp(1j * theta)
        t = triple_of_blaschke(BlaschkeProduct((a,), rot))
        lead = 1.0 - abs(a) ** 2
        assert abs(t.c1 - (-a * rot)) <= 1e-12
        assert abs(t.c2 - rot * lead) <= 1e-12
        assert abs(t.c3 - rot * a.conjugate() * lead) <= 1e-12

    @pytest.mark.parametrize("degree", range(1, 7))
    def test_matches_reference_bit_for_bit(self, degree):
        # on zeros in quarters and rotations +-1, +-i both routes are exact,
        # signed zeros included; elsewhere the recurrence and the product of
        # the factors' series round differently, by at most 5.3e-16 over
        # 400 seeds of each degree and kind at these orders
        rng = random.Random(degree)
        for _ in range(40):
            zeros = tuple(rng.choice(QUARTER_ZEROS) for _ in range(degree - 1))
            b = BlaschkeProduct(zeros, rng.choice((1, -1, 1j, complex(-0.0, -1.0))))
            for order in range(1, 7):
                assert bits(taylor_of_blaschke(b, order)) == bits(reference.taylor_of_blaschke(b, order))
        for seed in range(5):
            for real_only in (False, True):
                b = sampled_product(seed, degree, real_only)
                for order in (1, 2, 3, 6, 10):
                    w = taylor_of_blaschke(b, order)
                    assert bits(taylor_of_blaschke(b, order)) == bits(w)
                    expected = reference.taylor_of_blaschke(b, order).coeffs
                    assert max(abs(x - y) for x, y in zip(w.coeffs, expected)) <= 1e-15

    def test_taylor_matches_direct_evaluation(self):
        b = sampled_product(11, 3)
        w = taylor_of_blaschke(b, 20)
        z = 0.3 - 0.2j
        assert abs(reference.evaluate(w, z) - blaschke_value(b, z)) <= 1e-9


class TestTripleRecurrence:
    def test_matches_series_on_scalars(self):
        for degree in range(1, 7):
            for seed in range(50):
                b = sampled_product(seed, degree)
                t = triple_of_blaschke(b)
                w = taylor_of_blaschke(b, 3).coeffs
                assert max(abs(t.c1 - w[1]), abs(t.c2 - w[2]), abs(t.c3 - w[3])) <= 1e-13

    def test_matches_series_on_a_batch(self):
        for degree in range(1, 7):
            for real_only in (False, True):
                batch = sample_batch(degree, degree, 200, real_only)
                t = triple_of_blaschke(batch)
                for j in range(len(batch.rotation)):
                    w = taylor_of_blaschke(row(batch, j), 3).coeffs
                    assert abs(t.c1[j] - w[1]) <= 1e-13
                    assert abs(t.c2[j] - w[2]) <= 1e-13
                    assert abs(t.c3[j] - w[3]) <= 1e-13

    def test_row_of_a_batch_is_its_product(self):
        # numpy's complex loops may fuse multiply-adds and divide by a
        # reciprocal, so the batch agrees with the scalar route to a few
        # units in the last place; the product carries the row exactly
        eps = sys.float_info.epsilon
        for real_only in (False, True):
            batch = sample_batch(3, 4, 300, real_only)
            triple = triple_of_blaschke(batch)
            values = {f.tag: abs(gamma3_closed_form(f, triple)) for f in (F1, F2, F3)}
            for j in range(len(batch.rotation)):
                b = row(batch, j)
                assert b.zeros == tuple(complex(a[j]) for a in batch.zeros)
                assert b.rotation == complex(batch.rotation[j])
                for f in (F1, F2, F3):
                    scalar = abs(gamma3_closed_form(f, triple_of_blaschke(b)))
                    assert abs(values[f.tag][j] - scalar) <= 4 * eps


class TestBlaschkeProduct:
    def test_zero_outside_disk_rejected(self):
        with pytest.raises(ZeroOutsideDisk):
            BlaschkeProduct((1.0,), 1.0)
        with pytest.raises(ZeroOutsideDisk):
            BlaschkeProduct((0.3, 1.2j), 1.0)

    def test_rotation_must_be_unimodular(self):
        with pytest.raises(ValueError):
            BlaschkeProduct((), 0.5)

    def test_degree_counts_pinned_zero(self):
        assert BlaschkeProduct((), 1.0).degree == 1
        assert BlaschkeProduct((0.1, 0.2), 1.0).degree == 3

    def test_fixes_origin_exactly(self):
        b = sampled_product(5, 4)
        assert blaschke_value(b, 0j) == 0j

    def test_maps_disk_into_disk_on_grid(self):
        # 10^3-point grid with |z| <= 0.999
        b = sampled_product(17, 5)
        for i in range(40):
            r = 0.999 * (i + 1) / 40
            for j in range(25):
                z = cmath.rect(r, 2 * math.pi * j / 25)
                assert abs(blaschke_value(b, z)) < 1.0


class TestSampleSchwarz:
    """Single products, each the one-row batch of its seed."""

    def test_deterministic(self):
        assert sampled_product(7, 3) == sampled_product(7, 3)
        assert sampled_product(7, 3, True) == sampled_product(7, 3, True)

    def test_different_seeds_differ(self):
        assert sampled_product(7, 3) != sampled_product(8, 3)

    def test_real_only_structure(self):
        b = sampled_product(7, 3, real_only=True)
        assert all(z.imag == 0.0 for z in b.zeros)
        assert b.rotation in (1 + 0j, -1 + 0j)

    def test_degree_validated(self):
        with pytest.raises(ValueError):
            sample_batch(1, 0, 1)

    def test_is_row_zero_of_the_batch(self):
        for real_only in (False, True):
            for degree in (1, 2, 5):
                batch = sample_batch(31, degree, 40, real_only)
                assert sampled_product(31, degree, real_only) == row(batch, 0)

    def test_samples_pass_carlson(self):
        for seed in range(500):
            b = sampled_product(seed, 1 + seed % 6)
            assert all(s >= -1e-9 for s in carlson_check(triple_of_blaschke(b)))


class TestSampleBatch:
    def test_deterministic(self):
        for real_only in (False, True):
            a = sample_batch(7, 4, 100, real_only)
            b = sample_batch(7, 4, 100, real_only)
            assert all((x == y).all() for x, y in zip(a.zeros, b.zeros))
            assert (a.rotation == b.rotation).all()

    def test_prefix_does_not_depend_on_size(self):
        short, long = sample_batch(7, 3, 10), sample_batch(7, 3, 1000)
        assert all((x == y[:10]).all() for x, y in zip(short.zeros, long.zeros))
        assert (short.rotation == long.rotation[:10]).all()

    def test_real_only_all_zero_bytes_stay_inside_the_disk(self):
        # u = 0 gives a = -1, which the guard sends to 0; a real-only product reads
        # one uniform per free zero and one for its rotation, degree in all
        n, degree = 8, 5
        batch = _batch(_uniforms(np.zeros((degree, n), dtype=np.uint64)), real_only=True)
        assert len(batch.rotation) == n and batch.degree == degree
        assert all((abs(a) < 1.0).all() for a in batch.zeros)
        assert all((a == 0).all() for a in batch.zeros)
        assert (batch.rotation == 1).all()
        for j in range(n):
            row(batch, j)

    def test_real_only_structure(self):
        batch = sample_batch(11, 4, 500, real_only=True)
        assert all((a.imag == 0).all() and (abs(a) < 1).all() for a in batch.zeros)
        assert set(batch.rotation.tolist()) == {1 + 0j, -1 + 0j}

    def test_degree_validated(self):
        with pytest.raises(ValueError):
            sample_batch(1, 0, 5)
        with pytest.raises(ValueError):
            list(sample_blocks(1, 5, 0))


def _products(blocks):
    return {
        (tuple(complex(a[j]) for a in batch.zeros), complex(batch.rotation[j]))
        for batch in blocks
        for j in range(len(batch.rotation))
    }


class TestSampleBlocks:
    def test_degrees_cycle(self):
        blocks = list(sample_blocks(5, 23, 4))
        assert [b.degree for b in blocks] == [1, 2, 3, 4]
        assert [len(b.rotation) for b in blocks] == [6, 6, 6, 5]
        assert sum(len(b.rotation) for b in sample_blocks(5, 2, 4)) == 2

    def test_only_degrees_that_draw_a_sample_have_a_batch(self):
        assert len(list(sample_blocks(1, 3, 400))) == 3
        assert [len(b.rotation) for b in sample_blocks(1, 3, 400)] == [1, 1, 1]

    def test_distinct_seed_and_degree_streams_differ(self):
        blocks = list(sample_blocks(1, 600, 6)) + list(sample_blocks(2, 600, 6))
        rotations = [complex(r) for b in blocks for r in b.rotation]
        assert len(set(rotations)) == len(rotations)

    def test_seeds_one_and_seven_share_no_product(self):
        # nearby seeds must not reuse each other's samples, as they would
        # if sample i were seeded with seed + i
        assert not _products(sample_blocks(1, 3000, 6)) & _products(sample_blocks(7, 3000, 6))

    @pytest.mark.parametrize("seed", [1, 5, -(2**63) + 5, 2**64 + 1])
    def test_seeds_congruent_mod_two_to_the_63_share_no_product(self, seed):
        # a seed reduced mod 2**63 would give both the same streams
        other = seed + 2**63
        assert not _products(sample_blocks(seed, 600, 6)) & _products(sample_blocks(other, 600, 6))

    def test_chunked_rows_are_the_unchunked_rows(self, monkeypatch):
        monkeypatch.setattr(schwarz, "BLOCK_ROWS", 7)
        for real_only in (False, True):
            blocks = list(sample_blocks(3, 101, 4, real_only))
            assert max(len(b.rotation) for b in blocks) == 7
            for degree in (1, 2, 3, 4):
                chunks = [b for b in blocks if b.degree == degree]
                count = len(range(degree - 1, 101, 4))
                key = f"products/real/3/{degree}" if real_only else f"products/3/{degree}"
                whole = sample_batch(key, degree, count, real_only)
                for k, a in enumerate(whole.zeros):
                    assert (np.concatenate([c.zeros[k] for c in chunks]) == a).all()
                assert (np.concatenate([c.rotation for c in chunks]) == whole.rotation).all()


def _ks_distance(x: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of the sample x from the uniform law on [0, 1)."""
    x, n = np.sort(x), len(x)
    i = np.arange(1, n + 1)
    return max((i / n - x).max(), (x - (i - 1) / n).max())


class TestCounterStream:
    """The SplitMix64 counter stream against its scalar twin in Python ints."""

    def test_words_match_the_scalar_twin_bit_for_bit(self):
        rng = random.Random(41)
        top = 2**64 - 1
        origins = [0, 1, top, top - 5, 2**63] + [rng.getrandbits(64) for _ in range(20)]
        # origin + (i + 1) gamma and each product wrap mod 2^64; i = 2^64 - 1 wraps i + 1 to 0
        indices = list(range(50)) + [2**32, 2**63 - 1, 2**63, top - 1, top]
        indices += [rng.getrandbits(64) for _ in range(200)]
        for origin in origins:
            words = schwarz._words(np.uint64(origin), np.array(indices, dtype=np.uint64))
            assert [int(w) for w in words] == [reference.stream_word(origin, i) for i in indices]

    def test_known_answers(self):
        # origin 0 gives SplitMix64's published outputs for the seed 0
        assert [hex(reference.stream_word(0, i)) for i in range(3)] == [
            "0xe220a8397b1dcdaf", "0x6e789e6aa1b965f4", "0x6c45d188009454f",
        ]
        assert int(schwarz._origin("search/1")) == 0xCB0A6F9DA8F467CC
        words = schwarz._words(schwarz._origin("search/1"), np.arange(4, dtype=np.uint64))
        assert [hex(int(w)) for w in words] == [
            "0x8151266b6b30524d", "0x3bbb4f9d85d04c64", "0xd27648f164bbffe6", "0x2029d72b2e3beb0c",
        ]

    def test_any_rows_of_any_samples_are_the_words_in_order(self):
        # row r of sample j is word j rows + r, drawn alone or with the others
        origin, rows, n = schwarz._origin("products/3/4"), 7, 60
        whole = schwarz._draw(origin, rows, range(rows), np.arange(n, dtype=np.uint64))
        assert whole.tobytes() == reference._stream("products/3/4", rows, n).tobytes()
        columns = np.array([59, 3, 17, 17, 0], dtype=np.uint64)
        some = schwarz._draw(origin, rows, (6, 1, 2), columns)
        assert some.tobytes() == whole[[6, 1, 2]][:, columns.astype(int)].tobytes()

    def test_real_only_draws_other_words_than_complex(self, monkeypatch):
        # the two modes of one seed key their own streams: products/{seed}/{degree}
        # and products/real/{seed}/{degree}
        drawn, words = [], schwarz._words
        monkeypatch.setattr(schwarz, "_words", lambda o, i: drawn.append(words(o, i)) or drawn[-1])
        seen = []
        for real_only in (False, True):
            drawn.clear()
            list(sample_blocks(1, 60, 6, real_only))
            seen.append({int(w) for block in drawn for w in block.ravel()})
        assert seen[0] and seen[1] and not seen[0] & seen[1]

    def test_draws_cover_the_disk_and_the_interval(self):
        # Kolmogorov-Smirnov distance from uniform below 1.63/sqrt(n), its 1 % point, for
        # |a|^2 and arg a/(2 pi) of area-uniform zeros and for (a + 1)/2 of real ones
        n = 10**5
        columns = np.arange(n, dtype=np.uint64)
        u = schwarz._draw(schwarz._origin("search/1"), 4, range(4), columns)
        complex_zeros = schwarz._zeros(u, False)
        u = schwarz._draw(schwarz._origin("search/real/1"), 2, range(2), columns)
        real_zeros = schwarz._zeros(u, True)
        samples = [abs(a) ** 2 for a in complex_zeros]
        samples += [np.angle(a) / (2 * np.pi) % 1.0 for a in complex_zeros]
        samples += [(a.real + 1.0) / 2.0 for a in real_zeros]
        for x in samples:
            assert _ks_distance(x) < 1.63 / math.sqrt(n)


def _random_schur_parameters(rng, real):
    """(a, b, eta): a, b in the disk (or real), eta unimodular (or +-1)."""
    if real:
        return rng.uniform(-1, 1) + 0j, rng.uniform(-1, 1) + 0j, complex(rng.choice((1, -1)))
    a, b = (cmath.rect(math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi)) for _ in range(2))
    return a, b, cmath.exp(1j * rng.uniform(0, 2 * math.pi))


class TestSchurParameters:
    def test_witness_has_the_schur_triple(self):
        rng = random.Random(17)
        for real in (False, True):
            for _ in range(2000):
                a, b, eta = _random_schur_parameters(rng, real)
                w = schur_witness(a, b, eta)
                t, u = schur_triple(a, b, eta), triple_of_blaschke(w)
                assert max(abs(t.c1 - u.c1), abs(t.c2 - u.c2), abs(t.c3 - u.c3)) <= 1e-13
                assert w.degree == 3 and w.rotation == eta
                if real:
                    z1, z2 = w.zeros
                    assert (z1.imag == 0 and z2.imag == 0) or z1 == z2.conjugate()
                    assert w.rotation in (1 + 0j, -1 + 0j)

    def test_runs_on_arrays(self):
        a, b = sample_batch(5, 3, 50).zeros
        eta = sample_batch(6, 1, 50).rotation
        t = schur_triple(a, b, eta)
        for j in range(50):
            s = schur_triple(complex(a[j]), complex(b[j]), complex(eta[j]))
            assert max(abs(t.c1[j] - s.c1), abs(t.c2[j] - s.c2), abs(t.c3[j] - s.c3)) <= 1e-15

    def test_witness_zeros_stay_inside_near_the_boundary(self):
        # a zero may lie about (1-|a|)(1-|b|)/2 from the circle, below double resolution
        rng = random.Random(23)
        for ra in (0.0, 0.5, 1 - 1e-6, 1 - 1e-9):
            for rb in (0.0, 0.5, 1 - 1e-6, 1 - 1e-9):
                for _ in range(500):
                    a = cmath.rect(ra, rng.uniform(0, 2 * math.pi))
                    b = cmath.rect(rb, rng.uniform(0, 2 * math.pi))
                    eta = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                    assert all(abs(z) < 1 for z in schur_witness(a, b, eta).zeros)

    def test_schur_triples_are_feasible(self):
        rng = random.Random(29)
        for real in (False, True):
            for _ in range(2000):
                assert in_body(schur_triple(*_random_schur_parameters(rng, real)))

    def test_parameters_invert_the_triple(self):
        # the inverse divides by 1 - |a|^2 and 1 - |b|^2, so its error grows
        # as either parameter nears the circle
        rng = random.Random(31)
        for real in (False, True):
            for _ in range(2000):
                a, b, eta = _random_schur_parameters(rng, real)
                eta *= rng.random()
                ka, kb = 1 - abs(a) ** 2, 1 - abs(b) ** 2
                pa, pb, peta = schur_parameters(schur_triple(a, b, eta))
                assert pa == a
                assert abs(pb - b) <= 1e-15 / ka
                assert abs(peta - eta) <= 1e-14 / (ka * kb)

    def test_forced_coefficients(self):
        # |a| = 1 forces c2 = c3 = 0; |b| = 1 forces c3 = -conj(a) b^2 (1 - |a|^2)
        assert schur_parameters(SchwarzTriple(1j, 0, 0)) == (1j, 0, 0)
        assert schur_parameters(SchwarzTriple(-1, 0.1, 0))[1] == math.inf
        assert schur_parameters(SchwarzTriple(-1, 0, 0.1))[2] == math.inf
        assert schur_parameters(SchwarzTriple(-0.5, 0.75, 0.375)) == (-0.5, 1, 0)
        assert schur_parameters(SchwarzTriple(0.5, 0.75, 0))[2] == math.inf
        assert in_body(SchwarzTriple(0.5, 0.75, -0.375))
        assert not in_body(SchwarzTriple(0.5, 0.75, 0))

    def test_boundary_triples_built_in_floats_are_in_the_body(self):
        # |b| = 1 forces c3 = -a (1 - a^2); one rounding in c3 made the
        # quotient eta of schur_parameters infinite for 360 of these
        for k in range(-989, 990):
            a = k / 1000
            for sign in (1, -1):
                c2, c3 = sign * (1 - a * a), -a * (1 - a * a)
                assert in_body(SchwarzTriple(a, c2, c3))
                assert not in_body(SchwarzTriple(a, c2, c3 + 1e-9))
        assert in_body(SchwarzTriple(-0.499, 0.750999, 0.374748501))

    def test_carlson_third_bound_is_the_triangle_inequality(self):
        # 1 - |c1|^2 - |c2|^2/(1+|c1|) = (1-|a|^2)(1-|b|^2) + (1-|a|^2)|a||b|^2,
        # so Carlson's |c3| bound is the triangle inequality on |eta| <= 1
        rng = random.Random(37)
        for _ in range(500):
            a, b = (Fraction(rng.randint(-999, 999), 1000) for _ in range(2))
            c1, c2 = a, (1 - a * a) * b
            carlson = 1 - c1 * c1 - c2 * c2 / (1 + abs(c1))
            assert carlson == (1 - a * a) * (1 - b * b) + (1 - a * a) * abs(a) * b * b

    def test_carlson_region_is_larger_than_the_body(self):
        # F1's paper maximum (|c1|, |c2|) = (1/4, 5/16) with Carlson's |c3|
        # meets all three bounds, yet eta = 17/16
        c = SchwarzTriple(0.25, 0.3125, 0.859375)
        assert min(carlson_check(c)) >= 0
        a, b, eta = schur_parameters(c)
        assert a == 0.25 and abs(b - 1 / 3) <= 1e-15 and abs(eta - 17 / 16) <= 1e-15
        assert not in_body(c)


class TestCarlsonCheck:
    def test_boundary_rotation(self):
        assert carlson_check(SchwarzTriple(1, 0, 0)) == (0.0, 0.0, 0.0)

    def test_degree_two_equality_cases(self):
        slacks = carlson_check(SchwarzTriple(-0.5, 0.75, 0.375))
        assert abs(slacks[0] - 0.5) <= 1e-12
        assert abs(slacks[1]) <= 1e-12
        assert abs(slacks[2]) <= 1e-12

    def test_infeasible_triple(self):
        slacks = carlson_check(SchwarzTriple(1, 0.1, 0))
        assert abs(slacks[1] - (-0.1)) <= 1e-12
        assert not in_body(SchwarzTriple(1, 0.1, 0))

    def test_feasible_accepts_tiny_negative_noise(self):
        assert in_body(SchwarzTriple(1 + 1e-14, 0, 0))
