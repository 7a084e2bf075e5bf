import functools
import json
import operator
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.special

import lqlearn

from lqlearn import (
    Gain,
    NoiseModel,
    RngStream,
    SystemModel,
    draw_noise,
    monte_carlo_cost,
    ms_stability_check,
    realize,
    simulate_trajectory,
)
from lqlearn import lqcore, sampling
from lqlearn.config import preset_file, read_json
from lqlearn.errors import DivergedError, NotStabilizingError
from lqlearn.lqcore import _closed_loop, _stage_weight
from lqlearn.sampling import OVERFLOW_LIMIT, _ndtri, draw_noise_rows

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def sequential_rollout(sys, noise, K, x0, horizon, rng):
    """Step-by-step reference: x(k+1) = A(k)x + B(k)u with u = Kx, stage cost
    x'Qx + u'Ru, truncated at the first state with not ||x|| <= limit."""
    x = np.asarray(x0, dtype=float)
    xs, costs = [x], []
    for k in range(horizon):
        w = draw_noise(rng, noise)
        u = K.K @ x
        costs.append(x @ sys.Q @ x + u @ sys.R @ u)
        x = (sys.A + sys.A_bar * w) @ x + (sys.B + sys.B_bar * w) @ u
        if not np.linalg.norm(x) <= OVERFLOW_LIMIT:
            return np.array(xs), np.array(costs), k + 1
        xs.append(x)
    return np.array(xs), np.array(costs), None


def generated_loop(seed, radius):
    """A random n = 3, m = 2 plant and gain, all of A, Abar, B, Bbar scaled so
    that the mean step Acl + Abcl (noise mean 1) has the given spectral
    radius."""
    g = np.random.default_rng(seed)
    A, A_bar = g.normal(size=(2, 3, 3))
    B, B_bar = g.normal(size=(2, 3, 2))
    K = g.normal(size=(2, 3))
    c = radius / np.abs(np.linalg.eigvals(A + B @ K + A_bar + B_bar @ K)).max()
    sys = SystemModel(A=c * A, A_bar=c * A_bar, B=c * B, B_bar=c * B_bar,
                      Q=np.eye(3), R=np.eye(2))
    return sys, Gain(K)


def assert_close_to_running_scale(actual, expected, bound=1e-12):
    """Differences relative to the largest magnitude reached so far: a state
    decaying through 0 may differ in every digit between summation orders."""
    expected = np.asarray(expected)
    diff = np.abs(np.asarray(actual) - expected).reshape(len(expected), -1)
    size = np.abs(expected).reshape(len(expected), -1)
    scale = np.maximum.accumulate(np.linalg.norm(size, axis=1))
    assert np.all(np.linalg.norm(diff, axis=1) <= bound * scale)


class TestRngStream:
    def test_same_key_same_sequence(self):
        noise = NoiseModel(0.5, 2.0)
        a, b = RngStream(123, 7), RngStream(123, 7)
        assert [draw_noise(a, noise) for _ in range(50)] == [
            draw_noise(b, noise) for _ in range(50)
        ]

    def test_different_stream_ids_differ(self):
        noise = NoiseModel(0.0, 1.0)
        a, b = RngStream(123, 0), RngStream(123, 1)
        assert draw_noise(a, noise, 10).tolist() != draw_noise(b, noise, 10).tolist()

    def test_substreams_disjoint_and_reproducible(self):
        noise = NoiseModel(0.0, 1.0)
        root = RngStream(9, 0)
        first = draw_noise(root.substream(0), noise, 5)
        again = draw_noise(root.substream(0), noise, 5)
        other = draw_noise(root.substream(1), noise, 5)
        assert np.array_equal(first, again)
        assert not np.array_equal(first, other)

    @pytest.mark.parametrize("size", [None, 4])
    def test_top_raw_integer_stays_below_one(self, monkeypatch, size):
        # The all-ones raw word gives k = 2^53 - 1, and 2^53 - 1 + 0.5 rounds
        # to 2^53 in float64, which would give u = 1.0 and an infinite
        # Gaussian draw.
        def top_words(bits, rng, size):
            return np.full(size, 2**64 - 1, dtype=np.uint64)

        monkeypatch.setattr(sampling, "_raw_words", top_words)
        rng = RngStream(0)
        u = rng.uniform_open(size)
        assert np.all(u < 1.0) and np.all(u == np.nextafter(1.0, 0.0))
        assert np.all(np.isfinite(draw_noise(rng, NoiseModel(0.0, 1.0), size)))

    @pytest.mark.parametrize("seed, stream_id, spawn", [
        (0, 0, ()),
        (123, 7, (0,)),
        (2**32 - 1, 2**32 - 1, (2**32 - 1, 5)),
        (2**32, 2**32, (2**32,)),
        (2**64 - 1, 2**40 + 3, (1, 2**63)),
    ])
    def test_raw_words_equal_the_generator_integers_path(self, seed, stream_id, spawn):
        # The top 53 bits of each raw Philox word are what
        # Generator.integers(0, 2**53) returns for it, draw by draw, for
        # keys below and above 2^32 in every position.
        rng = stream(seed, stream_id, spawn)
        gen = philox_generator(seed, stream_id, spawn)
        assert rng.uniform_open() == reference_uniforms(gen)
        assert np.array_equal(rng.uniform_open(1000), reference_uniforms(gen, 1000))
        assert rng.uniform_open(0).shape == (0,)
        assert rng.uniform_open() == reference_uniforms(gen)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            RngStream(-1)

    @pytest.mark.parametrize("make, message", [
        (lambda: RngStream(0, -1), "stream_id must be an integer in"),
        (lambda: RngStream(0, 2**64), "stream_id must be an integer in"),
        (lambda: RngStream(1.5), "seed must be an integer in"),
        (lambda: RngStream(True), "seed must be an integer in"),
        (lambda: RngStream(0).substream(-1), "substream index must be an integer in"),
        (lambda: RngStream(0).substream(1.5), "substream index must be an integer in"),
        (lambda: RngStream(0).substream(True), "substream index must be an integer in"),
        (lambda: RngStream(0).substream(2**64), "substream index must be an integer in"),
        (lambda: RngStream(0).substream(3).substream(0, -1),
         "substream index must be an integer in"),
        (lambda: RngStream(5, 1).substream(), "substream needs at least one index"),
        (lambda: RngStream(0).substream(1, 2, 3),
         "a substream path has at most 2 indices, got 3"),
        (lambda: RngStream(0).substream(1).substream(2).substream(3),
         "a substream path has at most 2 indices, got 3"),
    ], ids=["id-negative", "id-2^64", "seed-float", "seed-bool", "index-negative",
            "index-float", "index-bool", "index-2^64", "nested-negative", "index-none",
            "depth-3", "chained-depth-3"])
    def test_rejects_bad_key_entry_where_it_is_given(self, make, message):
        # A negative index would otherwise be built and fail at the first
        # draw, a float fail naming the seed, True alias index 1, no index
        # at all give the parent's own key and tape, and a third index find
        # no counter word to go in.
        with pytest.raises(ValueError, match=message):
            make()

    def test_root_and_zero_paths_draw_distinct_tapes(self):
        # All three have index words 0; only the depth word tells them apart.
        root = RngStream(4, 2)
        tapes = [rng.uniform_open(8).tobytes()
                 for rng in (root, root.substream(0), root.substream(0, 0))]
        assert len(set(tapes)) == 3

    def test_two_indices_at_once_equal_two_calls(self):
        noise = NoiseModel(0.0, 1.0)
        for i, j in [(0, 0), (3, 2**64 - 1)]:
            assert same_bits(draw_noise(RngStream(6, 1).substream(i, j), noise, 9),
                             draw_noise(RngStream(6, 1).substream(i).substream(j),
                                        noise, 9))

    def test_numpy_integer_entries_accepted(self):
        noise = NoiseModel(0.0, 1.0)
        rng = RngStream(np.uint64(5), np.int64(2)).substream(np.uint32(7))
        assert same_bits(draw_noise(rng, noise, 8),
                         draw_noise(RngStream(5, 2).substream(7), noise, 8))


# Key and index words at the edges of one and two 32-bit words.
EDGES = [0, 2**32 - 1, 2**32, 2**64 - 1]


def stream(seed, stream_id, spawn=()):
    """RngStream(seed, stream_id), spawned along the path spawn if any."""
    rng = RngStream(seed, stream_id)
    return rng.substream(*spawn) if spawn else rng


def philox_generator(seed, stream_id, spawn=()):
    """NumPy's own Philox at a stream's key [seed, stream_id] and counter
    [0, depth, i1, i2], unused index words 0, as a Generator."""
    counter = (0, len(spawn), *spawn, 0, 0)[:4]
    return np.random.Generator(np.random.Philox(
        key=np.array([seed, stream_id], dtype=np.uint64),
        counter=np.array(counter, dtype=np.uint64)))


def reference_uniforms(gen, size=None):
    """uniform_open's uniforms from Generator.integers(0, 2**53)."""
    raw = gen.integers(0, 2**53, size=size)
    return np.minimum((raw + 0.5) / 2.0**53, np.nextafter(1.0, 0.0))


def reference_noise(seed, stream_id, spawn, noise, size):
    """draw_noise's path of a stream, from NumPy's Philox and scipy's ndtri."""
    u = reference_uniforms(philox_generator(seed, stream_id, spawn), size)
    return noise.mu + np.sqrt(noise.sigma2) * scipy.special.ndtri(u)


class TestStreamKeys:
    @pytest.mark.parametrize("seed", EDGES)
    @pytest.mark.parametrize("stream_id", EDGES)
    def test_stream_is_numpys_philox(self, seed, stream_id):
        # Depths 0, 1 and 2, every index word at the edges; 9 draws cross a
        # 4-word block.
        for spawn in [(), *((i,) for i in EDGES),
                      *((i, j) for i in EDGES for j in EDGES)]:
            gen = philox_generator(seed, stream_id, spawn)
            assert np.array_equal(stream(seed, stream_id, spawn).uniform_open(9),
                                  reference_uniforms(gen, 9)), spawn

    def test_batch_of_mixed_depths(self, monkeypatch):
        # One draw_noise_rows call over streams of depths 0 to 2, in shuffled
        # order and 12-row chunks, each row checked against the reference.
        monkeypatch.setattr(sampling, "_CHUNK_DRAWS", 60)
        g = np.random.default_rng(5)
        pick = [*EDGES, 1, 2**31, 2**40 + 3, 2**63]
        entries = [tuple(pick[i] for i in g.integers(len(pick), size=g.integers(2, 5)))
                   for _ in range(300)]
        assert {len(e) - 2 for e in entries} == {0, 1, 2}
        noise = NoiseModel(1.0, 0.1)
        rows = draw_noise_rows([stream(e[0], e[1], e[2:]) for e in entries], noise, 5)
        assert rows.shape == (300, 5)
        for row, e in zip(rows, entries):
            assert same_bits(row, reference_noise(e[0], e[1], e[2:], noise, 5)), e

    def test_drawing_in_pieces_equals_one_draw(self):
        # Pieces end at every offset within Philox's 4-word blocks.
        whole = RngStream(8, 3).substream(2).uniform_open(409)
        rng = RngStream(8, 3).substream(2)
        pieces = [rng.uniform_open(size) for size in (1, 3, 5, 400)]
        assert same_bits(np.concatenate(pieces), whole)

    def test_monte_carlo_builds_no_generator_per_run(self, monkeypatch, bench_sys,
                                                     bench_noise, bench_oracle):
        built = []
        philox = np.random.Philox
        monkeypatch.setattr(np.random, "Philox",
                            lambda *args, **kwargs: built.append(1) or philox(*args, **kwargs))
        monte_carlo_cost(bench_sys, bench_noise, bench_oracle.K_star, [1.0, 1.0],
                         400, 250, RngStream(0, 1))
        assert len(built) <= 2, built


class TestDrawNoise:
    def test_degenerate_gaussian_returns_mu_exactly(self):
        rng, noise = RngStream(0, 0), NoiseModel(3.25, 0.0)
        assert all(draw_noise(rng, noise) == 3.25 for _ in range(100))

    def test_sample_mean_within_clt_bound(self):
        mu, sigma2, n = 1.0, 0.1, 100_000
        samples = draw_noise(RngStream(2024, 0), NoiseModel(mu, sigma2), n)
        bound = 4.0 * np.sqrt(sigma2 / n)
        assert abs(samples.mean() - mu) < bound
        assert samples.var() == pytest.approx(sigma2, rel=0.05)

    def test_batched_draws_match_scalar_draws(self):
        noise = NoiseModel(1.0, 0.1)
        a, b = RngStream(5, 0), RngStream(5, 0)
        assert [draw_noise(a, noise) for _ in range(32)] == list(
            draw_noise(b, noise, 32)
        )


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def neighbours(y, k=50):
    """The k floats below y, y itself and the k floats above it."""
    below, above = [y], [y]
    for _ in range(k):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], 1.0))
    return np.array(below[:0:-1] + above)


class TestNdtri:
    """The Cephes port against scipy.special.ndtri, bit for bit. It needs
    math.log to be the libm log that scipy links; a platform where it is
    not shows here first."""

    def test_uniform_draws_of_several_streams(self):
        for stream in range(4):
            u = RngStream(2718, stream).uniform_open(2**18)
            assert same_bits(_ndtri(u), scipy.special.ndtri(u)), stream

    @pytest.mark.parametrize("tail", ["lower", "upper"])
    def test_tail_sweep_down_to_2_pow_minus_54(self, tail):
        # y = e^-t from the e^-2 switch to 2^-54, and 1 - y in the upper
        # tail up to the largest float below 1.
        y = np.exp(-np.linspace(2.0, 54 * np.log(2.0), 300_001))
        if tail == "upper":
            y = 1.0 - y
            y = y[y < 1.0]
        assert same_bits(_ndtri(y), scipy.special.ndtri(y))

    @pytest.mark.parametrize("y", [
        1.0 - np.exp(-2.0), np.exp(-2.0), np.exp(-32.0), 1.0 - np.exp(-32.0),
    ], ids=["1-e^-2", "e^-2", "e^-32", "1-e^-32"])
    def test_neighbours_of_the_range_switches(self, y):
        # e^-2 and 1 - e^-2 bound the centre; y = e^-32 is x = 8, where the
        # tail changes its rational approximation.
        u = neighbours(y)
        assert same_bits(_ndtri(u), scipy.special.ndtri(u))

    def test_edge_values(self):
        u = np.array([np.nextafter(1.0, 0.0), 0.5, 2.0**-1074, 2.0**-54])
        assert same_bits(_ndtri(u), scipy.special.ndtri(u))
        assert _ndtri(0.5) == 0.0

    def test_scalar_and_empty_input(self):
        for y in (0.3, 0.01, 0.99, np.float64(1e-20)):
            z = _ndtri(y)
            assert np.shape(z) == () and same_bits(z, scipy.special.ndtri(y))
        assert _ndtri(np.empty(0)).shape == (0,)
        assert _ndtri(np.empty((3, 0))).shape == (3, 0)

    def test_keeps_the_input_shape_and_values(self):
        u = RngStream(3).uniform_open(24).reshape(2, 3, 4)
        before = u.copy()
        assert same_bits(_ndtri(u), scipy.special.ndtri(u))
        assert same_bits(u, before)


class TestDrawNoiseRows:
    @pytest.mark.parametrize("size", [1, 4, 25])
    def test_each_row_is_its_streams_own_draw(self, monkeypatch, size):
        # A 10-draw chunk splits the 7 rows into chunks of 10 // size rows,
        # or one row per chunk once a row is longer than the chunk.
        monkeypatch.setattr(sampling, "_CHUNK_DRAWS", 10)
        noise = NoiseModel(1.0, 0.1)
        rows = draw_noise_rows([RngStream(9, i) for i in range(7)], noise, size)
        assert rows.shape == (7, size)
        for i, row in enumerate(rows):
            assert same_bits(row, draw_noise(RngStream(9, i), noise, size))

    def test_rows_longer_than_a_chunk(self):
        noise = NoiseModel(0.0, 1.0)
        size = sampling._CHUNK_DRAWS + 3
        rows = draw_noise_rows([RngStream(4, 0), RngStream(4, 1)], noise, size)
        for i, row in enumerate(rows):
            assert same_bits(row, draw_noise(RngStream(4, i), noise, size))

    def test_advances_each_stream(self):
        noise = NoiseModel(0.0, 1.0)
        rngs = [RngStream(6, 0).substream(i) for i in range(3)]
        first = draw_noise_rows(rngs, noise, 5)
        second = draw_noise_rows(rngs, noise, 5)
        for i in range(3):
            both = draw_noise(RngStream(6, 0).substream(i), noise, 10)
            assert same_bits(np.concatenate([first[i], second[i]]), both)

    def test_no_streams(self):
        assert draw_noise_rows([], NoiseModel(0.0, 1.0), 8).shape == (0, 8)

    def test_validation_draw_memory_is_bounded(self):
        # 250 streams of 400 draws, the size of validate-controller's Monte
        # Carlo draw, which goes through the same chunked generator: beyond
        # the 0.8 MB output, the chunks' temporaries stay below 1 MB (about
        # 0.4 MB at 2**13 draws a chunk, 2.9 MB at 2**16).
        noise = NoiseModel(1.0, 0.1)
        rngs = [RngStream(7, 1).substream(run) for run in range(250)]
        tracemalloc.start()
        try:
            rows = draw_noise_rows(rngs, noise, 400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - rows.nbytes < 2**20
        for run, row in enumerate(rows):
            assert same_bits(row, draw_noise(RngStream(7, 1).substream(run),
                                             noise, 400))


class TestRealize:
    def test_zero_omega(self, bench_sys):
        r = realize(bench_sys, 0.0)
        assert np.array_equal(r[:, :2], bench_sys.A)
        assert np.array_equal(r[:, 2:], bench_sys.B)

    def test_unit_omega_benchmark_values(self, bench_sys):
        r = realize(bench_sys, 1.0)
        assert r[:, :2] == pytest.approx(np.array([[0.9, 0.0], [0.0, 1.4]]))
        assert r[:, 2:] == pytest.approx(np.array([[0.8], [1.0]]))

    def test_bars_zero_ignores_omega(self, det_sys):
        r = realize(det_sys, 17.5)
        assert np.array_equal(r[:, :2], det_sys.A)
        assert np.array_equal(r[:, 2:], det_sys.B)

    def test_affine_in_omega(self, bench_sys):
        a, b, w1, w2 = 0.3, 0.7, -1.2, 2.1
        combo = realize(bench_sys, a * w1 + b * w2)
        r1, r2 = realize(bench_sys, w1), realize(bench_sys, w2)
        expected = (
            a * r1[:, :2] + b * r2[:, :2] - (a + b - 1.0) * bench_sys.A
        )
        assert combo[:, :2] == pytest.approx(expected, abs=1e-14)

    def test_array_equals_stacked_scalar_calls(self, bench_sys):
        omegas = draw_noise(RngStream(11), NoiseModel(1.0, 0.1), 20).reshape(4, 5)
        batch = realize(bench_sys, omegas)
        assert batch.shape == (4, 5, 2, 3)
        scalar = np.stack([
            np.stack([realize(bench_sys, float(w)) for w in row]) for row in omegas
        ])
        assert np.array_equal(batch, scalar)


def _fold(terms):
    """Left-to-right sum from the first term, each addition rounded once
    (Python floats are IEEE doubles), so a zero sum keeps its sign."""
    return functools.reduce(operator.add, terms)


def py_matmul(a, b):
    """a @ b on nested lists of Python floats, each entry summed left to
    right from the first product."""
    return [[_fold(row[j] * b[j][col] for j in range(len(b)))
             for col in range(len(b[0]))] for row in a]


def py_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def closed_loop_reference(sys, K):
    """(Acl, Abcl, C) = (A + BK, Abar + Bbar K, Q + (K'R)K) in pure Python
    floats, every matrix product summed in ascending order."""
    k = K.K.tolist()
    return (py_add(sys.A.tolist(), py_matmul(sys.B.tolist(), k)),
            py_add(sys.A_bar.tolist(), py_matmul(sys.B_bar.tolist(), k)),
            py_add(sys.Q.tolist(), py_matmul(py_matmul(K.K.T.tolist(), sys.R.tolist()), k)))


def elementwise_costs(sys, K, xs):
    """Stage costs x'Cx, C = Q + K'RK, as (Cx)_i = sum_j x_j C_ji and then
    sum_i (Cx)_i x_i, each an n-term sum taken left to right."""
    C = closed_loop_reference(sys, K)[2]
    n = len(C)
    return np.array([
        _fold(_fold(x[j] * C[j][i] for j in range(n)) * x[i] for i in range(n))
        for x in np.asarray(xs).tolist()
    ])


def elementwise_step(sys, K, x, w):
    """x(k+1) = sum_j M_ij x_j with M = Acl + Abcl * w, left to right."""
    Acl, Abcl, _ = map(np.array, closed_loop_reference(sys, K))
    M = (Acl + Abcl * w).tolist()
    return np.array([_fold(row[j] * x[j] for j in range(len(x))) for row in M])


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_closed_loop_matrices_are_ascending_sums_bit_for_bit(m, seed):
    # With m >= 2 each entry of BK, Bbar K and (K'R)K is a sum of m
    # products, which a BLAS build may fuse or reorder; they are summed in
    # ascending order instead. With m = 1 each is one product.
    g = np.random.default_rng(seed)
    n = 3
    X = g.normal(size=(m, m))
    sys = SystemModel(A=g.normal(size=(n, n)), A_bar=g.normal(size=(n, n)),
                      B=g.normal(size=(n, m)), B_bar=g.normal(size=(n, m)),
                      Q=np.eye(n), R=X @ X.T + np.eye(m))
    K = Gain(g.normal(size=(m, n)))
    Acl, Abcl = _closed_loop(K, sys)
    for got, want in zip((Acl, Abcl, _stage_weight(K, sys)),
                         closed_loop_reference(sys, K)):
        assert same_bits(got, want)


class TestSimulateTrajectory:
    def test_deadbeat(self):
        # K = -A (with B = I) zeroes the state in one step.
        sys = SystemModel(A=[[0.5, 0.1], [0.0, 0.3]], A_bar=np.zeros((2, 2)),
                          B=np.eye(2), B_bar=np.zeros((2, 2)),
                          Q=np.eye(2), R=np.eye(2))
        K = Gain(-sys.A)
        traj = simulate_trajectory(sys, K, [1.0, -2.0], np.zeros(10))
        assert np.all(traj.xs[1:] == 0.0)
        assert not traj.overflow

    def test_geometric_decay(self):
        sys = SystemModel(A=[[0.5]], A_bar=[[0.0]], B=[[1.0]], B_bar=[[0.0]],
                          Q=[[1.0]], R=[[1.0]])
        traj = simulate_trajectory(sys, Gain([[0.0]]), [1.0], np.zeros(20))
        assert traj.xs[:, 0] == pytest.approx(0.5 ** np.arange(21))

    def test_overflow_flag_truncates(self):
        sys = SystemModel(A=[[3.0]], A_bar=[[0.0]], B=[[1.0]], B_bar=[[0.0]],
                          Q=[[1.0]], R=[[1.0]])
        traj = simulate_trajectory(sys, Gain([[0.0]]), [1.0], np.zeros(200))
        assert traj.overflow
        assert traj.overflow_step is not None
        assert len(traj.xs) <= traj.overflow_step + 1

    def test_stage_costs_nonnegative(self, bench_sys, bench_noise, bench_oracle):
        traj = simulate_trajectory(bench_sys, bench_oracle.K_star, [1.0, 1.0],
                                   draw_noise(RngStream(5), bench_noise, 100))
        assert np.all(traj.costs >= 0.0)

    def test_benchmark_gain_state_decays(self, bench_sys, bench_noise, bench_oracle):
        # Mean of ||x(200)||^2 over 1000 seeds far below ||x0||^2 = 2.
        total = 0.0
        runs = 1000
        for seed in range(runs):
            traj = simulate_trajectory(
                bench_sys, bench_oracle.K_star, [1.0, 1.0],
                draw_noise(RngStream(seed, 3), bench_noise, 200),
            )
            assert not traj.overflow
            total += float(traj.xs[-1] @ traj.xs[-1])
        assert total / runs < 2.0 * 1e-3

    def test_matches_written_out_open_loop(self, bench_sys, bench_noise,
                                           bench_oracle):
        # x(k+1) = A(k)x + B(k)u with u = Kx and stage cost x'Qx + u'Ru,
        # one draw per step shared by A(k) and B(k).
        K = bench_oracle.K_star
        horizon = 300
        traj = simulate_trajectory(bench_sys, K, [1.0, -0.5],
                                   draw_noise(RngStream(8, 2), bench_noise, horizon))
        rng = RngStream(8, 2)
        x = np.array([1.0, -0.5])
        xs, costs = [x], []
        for _ in range(horizon):
            w = draw_noise(rng, bench_noise)
            A_k = bench_sys.A + bench_sys.A_bar * w
            B_k = bench_sys.B + bench_sys.B_bar * w
            u = K.K @ x
            costs.append(x @ bench_sys.Q @ x + u @ bench_sys.R @ u)
            x = A_k @ x + B_k @ u
            xs.append(x)
        assert not traj.overflow
        assert traj.xs.shape == (horizon + 1, 2)
        # Relative to the trajectory's scale so far: the state decays towards
        # 0, where the two summation orders may differ in every digit.
        xs, costs = np.array(xs), np.array(costs)
        x_scale = np.maximum.accumulate(np.linalg.norm(xs, axis=1))
        assert np.all(np.linalg.norm(traj.xs - xs, axis=1) <= 1e-12 * x_scale)
        cost_scale = np.maximum.accumulate(costs)
        assert np.all(np.abs(traj.costs - costs) <= 1e-12 * cost_scale)

    @pytest.mark.parametrize("a, step", [(3.0, 26), (1e3, 5), (1e100, 1)])
    def test_exact_overflow_step(self, a, step):
        sys = SystemModel(A=[[a]], A_bar=[[0.0]], B=[[1.0]], B_bar=[[0.0]],
                          Q=[[1.0]], R=[[1.0]])
        traj = simulate_trajectory(sys, Gain([[0.0]]), [1.0], np.zeros(400))
        assert traj.overflow
        assert traj.overflow_step == step
        assert len(traj.xs) == step
        assert len(traj.costs) == step

    @pytest.mark.parametrize("seed", range(5))
    def test_unstable_noisy_loop_matches_sequential(self, bench_sys, bench_noise,
                                                    seed):
        # Under K = [0.5 0.5] the mean step Acl + Abcl has spectral radius
        # above 2, so every run overflows within the horizon; Acl and Abcl
        # do not commute, so the order of the products matters.
        K = Gain([[0.5, 0.5]])
        traj = simulate_trajectory(bench_sys, K, [1.0, -0.5],
                                   draw_noise(RngStream(seed, 4), bench_noise, 2000))
        xs, costs, step = sequential_rollout(bench_sys, bench_noise, K,
                                             [1.0, -0.5], 2000,
                                             RngStream(seed, 4))
        assert step is not None
        assert traj.overflow_step == step
        assert traj.xs.shape == xs.shape and traj.costs.shape == costs.shape
        assert_close_to_running_scale(traj.xs, xs)
        assert_close_to_running_scale(traj.costs, costs)

    @pytest.mark.parametrize("horizon", [1, 2, 3, 5, 257, 400])
    @pytest.mark.parametrize("radius", [0.5, 3.0], ids=["stable", "overflowing"])
    def test_generated_three_state_loop_matches_sequential(self, bench_noise,
                                                           radius, horizon):
        # n = 3 takes the scan's multiply-add loops past two terms. The
        # horizons cover a single step (no pass), a power of two, lengths
        # just past one (3, 5, 257) and the 400 steps of validation.
        sys, K = generated_loop(11, radius)
        assert ms_stability_check(K, sys, bench_noise).stable == (radius < 1.0)
        x0 = [1.0, -0.5, 0.25]
        traj = simulate_trajectory(sys, K, x0,
                                   draw_noise(RngStream(13, 5), bench_noise, horizon))
        xs, costs, step = sequential_rollout(sys, bench_noise, K, x0, horizon,
                                             RngStream(13, 5))
        if horizon >= 257:
            assert (step is None) == (radius < 1.0)
        assert traj.overflow_step == step
        assert traj.xs.shape == xs.shape and traj.costs.shape == costs.shape
        assert_close_to_running_scale(traj.xs, xs)
        assert_close_to_running_scale(traj.costs, costs)

    def test_start_orthogonal_to_growing_mode_does_not_overflow(self):
        # The products of diag(1e3, 0.5) overflow after ~103 steps, but
        # x0 = [0, 1] never touches the growing mode and decays.
        sys = SystemModel(A=[[1e3, 0.0], [0.0, 0.5]], A_bar=np.zeros((2, 2)),
                          B=np.eye(2), B_bar=np.zeros((2, 2)),
                          Q=np.eye(2), R=np.eye(2))
        K = Gain(np.zeros((2, 2)))
        traj = simulate_trajectory(sys, K, [0.0, 1.0], np.zeros(400))
        xs, costs, step = sequential_rollout(sys, NoiseModel(0.0, 0.0), K,
                                             [0.0, 1.0], 400, RngStream(0))
        assert step is None and not traj.overflow
        assert np.array_equal(traj.xs, xs)
        assert np.array_equal(traj.costs, costs)

    @pytest.mark.parametrize("case", ["benchmark", "stable3", "overflowing3"])
    def test_stage_costs_are_elementwise_sums_bit_for_bit(self, bench_sys,
                                                           bench_noise,
                                                           bench_oracle, case):
        if case == "benchmark":
            sys, K, x0 = bench_sys, bench_oracle.K_star, [1.0, -0.5]
        else:
            sys, K = generated_loop(11, 0.5 if case == "stable3" else 3.0)
            x0 = [1.0, -0.5, 0.25]
        traj = simulate_trajectory(sys, K, x0,
                                   draw_noise(RngStream(17, 6), bench_noise, 400))
        assert traj.overflow == (case == "overflowing3")
        expected = elementwise_costs(sys, K, traj.xs[:len(traj.costs)])
        assert traj.costs.tobytes() == expected.tobytes()

    def test_restarted_scans_begin_with_an_elementwise_step_bit_for_bit(
            self, bench_noise, monkeypatch):
        # The first column of every product grows past float range within
        # about 100 steps, but x0 has no first component, so the scanned
        # state turns NaN (inf * 0) while the true state decays: each time,
        # the scan restarts from the last kept state, and its first state is
        # one elementwise step from there.
        sys = SystemModel(
            A=[[1e3, 0.0, 0.0], [0.3, 0.5, 0.2], [0.1, -0.3, 0.6]],
            A_bar=[[10.0, 0.0, 0.0], [0.05, 0.1, -0.05], [0.02, 0.03, 0.1]],
            B=np.ones((3, 1)), B_bar=np.zeros((3, 1)), Q=np.eye(3), R=np.eye(1),
        )
        K = Gain(np.zeros((1, 3)))
        starts = []  # (steps taken, start state) of each scan
        scan = sampling._scan_states
        monkeypatch.setattr(sampling, "_scan_states", lambda M, x: starts.append(
            (400 - M.shape[2], x.copy())) or scan(M, x))
        w = draw_noise(RngStream(19, 7), bench_noise, 400)
        traj = simulate_trajectory(sys, K, [0.0, 1.0, -0.5], w)
        assert not traj.overflow and len(traj.xs) == 401
        assert len(starts) >= 4  # the first scan and at least 3 restarts
        for k, x in starts:
            assert traj.xs[k].tobytes() == x.tobytes()
            assert traj.xs[k + 1].tobytes() == elementwise_step(
                sys, K, x, w[k]).tobytes()

    @pytest.mark.parametrize("w", [np.empty(0), np.ones((2, 5))], ids=["empty", "2-d"])
    def test_rejects_a_path_that_is_not_nonempty_1d(self, scalar_sys, w):
        with pytest.raises(ValueError, match="w must be a nonempty 1-d noise path"):
            simulate_trajectory(scalar_sys, Gain([[-0.5]]), [1.0], w)

    def test_one_gain_on_two_systems_gets_each_systems_bits(
            self, bench_sys, det_sys, bench_noise):
        # The gain keeps the loop of the last system it met; switching
        # systems, and back, rebuilds it, as a fresh gain per call would.
        K, x0 = Gain([[-0.3, -0.2]]), [1.0, -1.0]
        w = draw_noise(RngStream(3), bench_noise, 100)
        runs = []
        for sys in (bench_sys, det_sys, bench_sys):
            got = simulate_trajectory(sys, K, x0, w)
            want = simulate_trajectory(sys, Gain(K.K), x0, w)
            assert same_bits(got.xs, want.xs) and same_bits(got.costs, want.costs)
            runs.append(got.costs)
        assert not same_bits(runs[0], runs[1])

    def test_nan_state_counts_as_overflow(self, scalar_sys):
        traj = simulate_trajectory(scalar_sys, Gain([[-0.5]]), [np.nan],
                                   np.zeros(10))
        assert traj.overflow
        assert traj.overflow_step == 1
        assert len(traj.xs) == 1


@pytest.fixture
def no_draw(monkeypatch):
    """Fail the test if any noise is drawn."""
    def fail(*args, **kwargs):
        raise AssertionError("noise drawn for a rejected input")

    monkeypatch.setattr(sampling, "_uniform_rows", fail)


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (2, 2), (1, 3)],
                         ids=["1x1", "2x1", "2x2", "1x3"])
def test_gain_of_wrong_shape_rejected(bench_sys, bench_noise, no_draw, shape):
    # Every gain meets the plant in _closed_loop. There a 1 x 1 gain would
    # broadcast to [[k, k]], and a 2 x 1 one pass the stability check and
    # fail inside the rollout.
    K = Gain(np.full(shape, -0.3))
    match = re.escape(f"K has shape {shape}, expected (1, 2)")
    with pytest.raises(ValueError, match=match):
        ms_stability_check(K, bench_sys, bench_noise)
    with pytest.raises(ValueError, match=match):
        simulate_trajectory(bench_sys, K, np.ones(2), np.ones(5))
    with pytest.raises(ValueError, match=match):
        monte_carlo_cost(bench_sys, bench_noise, K, np.ones(2), 5, 2,
                         RngStream(0))


@pytest.mark.parametrize("x0", [[1.0], [1.0, 1.0, 1.0]], ids=["1", "3"])
def test_start_state_of_wrong_length_rejected(bench_sys, bench_noise,
                                              bench_oracle, no_draw, x0):
    # n = 2: a start of any other length used to fail in numpy's reshape,
    # and monte_carlo_cost drew a chunk of noise first.
    match = re.escape(f"x0 must have 2 entries, got {len(x0)}")
    with pytest.raises(ValueError, match=match):
        simulate_trajectory(bench_sys, bench_oracle.K_star, x0, np.ones(5))
    with pytest.raises(ValueError, match=match):
        monte_carlo_cost(bench_sys, bench_noise, bench_oracle.K_star, x0, 5, 2,
                         RngStream(0))


class TestMonteCarloCost:
    def test_deterministic_plant_zero_stderr(self, det_sys, det_noise, det_oracle):
        est = monte_carlo_cost(det_sys, det_noise, det_oracle.K_star,
                               [1.0, 1.0], 100, 10, RngStream(0))
        traj = simulate_trajectory(det_sys, det_oracle.K_star, [1.0, 1.0],
                                   draw_noise(RngStream(0), det_noise, 100))
        assert est.std_err == 0.0
        assert est.mean == pytest.approx(traj.total_cost())

    def test_scalar_matches_golden_ratio_value(self, scalar_sys):
        noise = NoiseModel(0.0, 0.0)
        K = Gain([[-(np.sqrt(5) - 1) / 2]])
        est = monte_carlo_cost(scalar_sys, noise, K, [1.0], 200, 5, RngStream(1))
        assert est.mean == pytest.approx(GOLDEN, abs=1e-6)

    def test_rejects_destabilizing_gain(self, bench_sys, bench_noise):
        with pytest.raises(NotStabilizingError):
            monte_carlo_cost(bench_sys, bench_noise, Gain([[0.0, 0.0]]),
                             [1.0, 1.0], 50, 5, RngStream(0))

    def test_nan_start_raises_diverged(self, scalar_sys):
        K = Gain([[-(np.sqrt(5) - 1) / 2]])
        with pytest.raises(DivergedError, match="run 0 overflowed at step 1"):
            monte_carlo_cost(scalar_sys, NoiseModel(0.0, 0.0), K, [np.nan],
                             20, 5, RngStream(1))

    def test_matches_mean_of_sequential_rollouts(self, bench_sys, bench_noise,
                                                  bench_oracle):
        K = bench_oracle.K_star
        rng = RngStream(21)
        est = monte_carlo_cost(bench_sys, bench_noise, K, [1.0, 1.0], 400, 30,
                               rng)
        totals = [
            sequential_rollout(bench_sys, bench_noise, K, [1.0, 1.0], 400,
                               rng.substream(run))[1].sum()
            for run in range(30)
        ]
        assert est.mean == pytest.approx(np.mean(totals), rel=1e-12, abs=0.0)
        assert est.std_err == pytest.approx(np.std(totals, ddof=1) / np.sqrt(30),
                                            rel=1e-12, abs=0.0)

    def test_runs_drawn_in_chunks_equal_runs_alone(self, monkeypatch, bench_sys,
                                                   bench_noise, bench_oracle):
        # 1000-draw chunks hold two 400-step runs: chunks of 2, 2 and 1.
        monkeypatch.setattr(sampling, "_CHUNK_DRAWS", 1000)
        K, x0, rng = bench_oracle.K_star, [1.0, 1.0], RngStream(33)
        est = monte_carlo_cost(bench_sys, bench_noise, K, x0, 400, 5, rng)
        totals = np.array([
            simulate_trajectory(bench_sys, K, x0, draw_noise(
                rng.substream(run), bench_noise, 400)).total_cost()
            for run in range(5)
        ])
        assert est.mean == float(totals.mean())
        assert est.std_err == float(totals.std(ddof=1) / np.sqrt(5))

        # 7 runs: chunks of 2, 2, 2 and 1, so the last chunk ends halfway
        # through the buffer. Each rollout gets its own run's path, bit for
        # bit.
        paths = []
        simulate = sampling.simulate_trajectory
        monkeypatch.setattr(sampling, "simulate_trajectory",
                            lambda s, k, x, w: paths.append(w.copy()) or simulate(s, k, x, w))
        monte_carlo_cost(bench_sys, bench_noise, K, x0, 400, 7, RngStream(34))
        assert len(paths) == 7
        for run, w in enumerate(paths):
            assert same_bits(w, draw_noise(RngStream(34).substream(run),
                                           bench_noise, 400)), run

    def test_builds_the_closed_loop_once(self, monkeypatch, bench_sys,
                                         bench_noise, bench_oracle):
        # The stability check builds the loop; all 20 rollouts reuse it.
        built = []
        closed_loop, stage_weight = lqcore._closed_loop, lqcore._stage_weight
        monkeypatch.setattr(lqcore, "_closed_loop",
                            lambda *args: built.append("loop") or closed_loop(*args))
        monkeypatch.setattr(lqcore, "_stage_weight",
                            lambda *args: built.append("weight") or stage_weight(*args))
        K = Gain(bench_oracle.K_star.K)
        est = monte_carlo_cost(bench_sys, bench_noise, K, [1.0, 1.0], 50, 20,
                               RngStream(5))
        assert built == ["loop", "weight"]
        assert est == monte_carlo_cost(bench_sys, bench_noise, bench_oracle.K_star,
                                       [1.0, 1.0], 50, 20, RngStream(5))

    def test_memory_stays_bounded(self, bench_sys, bench_noise, bench_oracle):
        # 2000 runs of 400 steps. One chunk of streams and their paths is
        # held at a time: about 0.5 MB under tracemalloc (numpy 2.4), where
        # all 2000 paths at once would be 6.4 MB.
        args = bench_sys, bench_noise, bench_oracle.K_star, [1.0, 1.0], 400
        monte_carlo_cost(*args, 2, RngStream(8))  # fills caches built on first use
        tracemalloc.start()
        try:
            monte_carlo_cost(*args, 2000, RngStream(8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    def test_overflowing_stability_operator_is_not_stabilizing(self, bench_sys):
        # The lifted operator T overflows (entries ~ 1e320): the check reports
        # an unstable loop with radius inf instead of failing in eigvals.
        K, noise = Gain(np.zeros((1, 2))), NoiseModel(1e160, 0.0)
        report = ms_stability_check(K, bench_sys, noise)
        assert report.stable is False and report.spectral_radius == np.inf
        with pytest.raises(NotStabilizingError, match="radius inf"):
            monte_carlo_cost(bench_sys, noise, K, [1.0, 1.0], 10, 2, RngStream(0))

    @pytest.mark.parametrize("horizon, n_runs, message", [
        (10, 1, "n_runs must be >= 2"),
        (0, 5, "horizon must be >= 1"),
    ], ids=["one-run", "no-steps"])
    def test_rejects_bad_sizes(self, bench_sys, bench_noise, bench_oracle, horizon,
                               n_runs, message):
        with pytest.raises(ValueError, match=message):
            monte_carlo_cost(bench_sys, bench_noise, bench_oracle.K_star,
                             [1.0, 1.0], horizon, n_runs, RngStream(0))

    def test_deterministic_given_seed(self, bench_sys, bench_noise, bench_oracle):
        a = monte_carlo_cost(bench_sys, bench_noise, bench_oracle.K_star,
                             [1.0, 1.0], 50, 20, RngStream(77))
        b = monte_carlo_cost(bench_sys, bench_noise, bench_oracle.K_star,
                             [1.0, 1.0], 50, 20, RngStream(77))
        assert a == b


def test_import_does_not_load_scipy_special(tmp_path):
    # numpy is the only runtime dependency: importing the package, a draw,
    # a learning run and the Monte Carlo validation leave scipy unloaded.
    data = read_json(preset_file("paper_sec4"))
    data.update(rounds=20, seeds=[0],
                validation={**data["validation"], "horizon": 50, "n_runs": 20})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    env = {**os.environ,
           "PYTHONPATH": str(Path(lqlearn.__file__).resolve().parent.parent)}
    code = """if True:
        import sys
        import lqlearn as lq
        from lqlearn import cli
        lq.draw_noise(lq.RngStream(0), lq.NoiseModel(0.0, 1.0))
        config, out = sys.argv[1:]
        assert cli.main(["run", "--config", config, "--out", out]) == 0
        assert cli.main(["validate-controller", "--config", config, "--out", out]) == 0
        print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
    """
    proc = subprocess.run([sys.executable, "-c", code, config, tmp_path / "run"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "controller_report.json").is_file()
    assert proc.stdout.splitlines()[-1] == "[]"
