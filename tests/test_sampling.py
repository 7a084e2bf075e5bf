import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
from lqlearn.errors import DivergedError, NotStabilizingError
from lqlearn.sampling import OVERFLOW_LIMIT

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
    def test_top_raw_integer_stays_below_one(self, size):
        # 2^53 - 1 + 0.5 rounds to 2^53 in float64, which would give u = 1.0
        # and an infinite Gaussian draw.
        class TopGenerator:
            def integers(self, low, high, size=None):
                top = np.int64(high - 1)
                return top if size is None else np.full(size, top)

        rng = RngStream(0)
        rng._gen = TopGenerator()
        u = rng.uniform_open(size)
        assert np.all(u < 1.0) and np.all(u == np.nextafter(1.0, 0.0))
        assert np.all(np.isfinite(draw_noise(rng, NoiseModel(0.0, 1.0), size)))

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            RngStream(-1)


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


class TestSimulateTrajectory:
    def test_deadbeat(self):
        # K = -A (with B = I) zeroes the state in one step.
        sys = SystemModel(A=[[0.5, 0.1], [0.0, 0.3]], A_bar=np.zeros((2, 2)),
                          B=np.eye(2), B_bar=np.zeros((2, 2)),
                          Q=np.eye(2), R=np.eye(2))
        K = Gain(-sys.A)
        traj = simulate_trajectory(sys, NoiseModel(0.0, 0.0), K,
                                   [1.0, -2.0], 10, RngStream(0))
        assert np.all(traj.xs[1:] == 0.0)
        assert not traj.overflow

    def test_geometric_decay(self):
        sys = SystemModel(A=[[0.5]], A_bar=[[0.0]], B=[[1.0]], B_bar=[[0.0]],
                          Q=[[1.0]], R=[[1.0]])
        traj = simulate_trajectory(sys, NoiseModel(0.0, 0.0), Gain([[0.0]]),
                                   [1.0], 20, RngStream(0))
        assert traj.xs[:, 0] == pytest.approx(0.5 ** np.arange(21))

    def test_overflow_flag_truncates(self):
        sys = SystemModel(A=[[3.0]], A_bar=[[0.0]], B=[[1.0]], B_bar=[[0.0]],
                          Q=[[1.0]], R=[[1.0]])
        traj = simulate_trajectory(sys, NoiseModel(0.0, 0.0), Gain([[0.0]]),
                                   [1.0], 200, RngStream(0))
        assert traj.overflow
        assert traj.overflow_step is not None
        assert len(traj.xs) <= traj.overflow_step + 1

    def test_stage_costs_nonnegative(self, bench_sys, bench_noise, bench_oracle):
        traj = simulate_trajectory(bench_sys, bench_noise, bench_oracle.K_star,
                                   [1.0, 1.0], 100, RngStream(5))
        assert np.all(traj.costs >= 0.0)

    def test_benchmark_gain_state_decays(self, bench_sys, bench_noise, bench_oracle):
        # Mean of ||x(200)||^2 over 1000 seeds far below ||x0||^2 = 2.
        total = 0.0
        runs = 1000
        for seed in range(runs):
            traj = simulate_trajectory(
                bench_sys, bench_noise, bench_oracle.K_star,
                [1.0, 1.0], 200, RngStream(seed, 3),
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
        traj = simulate_trajectory(bench_sys, bench_noise, K, [1.0, -0.5],
                                   horizon, RngStream(8, 2))
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
        traj = simulate_trajectory(sys, NoiseModel(0.0, 0.0), Gain([[0.0]]),
                                   [1.0], 400, RngStream(0))
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
        traj = simulate_trajectory(bench_sys, bench_noise, K, [1.0, -0.5], 2000,
                                   RngStream(seed, 4))
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
        traj = simulate_trajectory(sys, bench_noise, K, x0, horizon,
                                   RngStream(13, 5))
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
        traj = simulate_trajectory(sys, NoiseModel(0.0, 0.0), K, [0.0, 1.0],
                                   400, RngStream(0))
        xs, costs, step = sequential_rollout(sys, NoiseModel(0.0, 0.0), K,
                                             [0.0, 1.0], 400, RngStream(0))
        assert step is None and not traj.overflow
        assert np.array_equal(traj.xs, xs)
        assert np.array_equal(traj.costs, costs)

    def test_nan_state_counts_as_overflow(self, scalar_sys):
        traj = simulate_trajectory(scalar_sys, NoiseModel(0.0, 0.0),
                                   Gain([[-0.5]]), [np.nan], 10, RngStream(0))
        assert traj.overflow
        assert traj.overflow_step == 1
        assert len(traj.xs) == 1


class TestMonteCarloCost:
    def test_deterministic_plant_zero_stderr(self, det_sys, det_noise, det_oracle):
        est = monte_carlo_cost(det_sys, det_noise, det_oracle.K_star,
                               [1.0, 1.0], 100, 10, RngStream(0))
        traj = simulate_trajectory(det_sys, det_noise, det_oracle.K_star,
                                   [1.0, 1.0], 100, RngStream(0))
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

    def test_deterministic_given_seed(self, bench_sys, bench_noise, bench_oracle):
        a = monte_carlo_cost(bench_sys, bench_noise, bench_oracle.K_star,
                             [1.0, 1.0], 50, 20, RngStream(77))
        b = monte_carlo_cost(bench_sys, bench_noise, bench_oracle.K_star,
                             [1.0, 1.0], 50, 20, RngStream(77))
        assert a == b


def test_import_does_not_load_scipy_special():
    # scipy.special (for ndtri) is imported by the first noise draw only.
    env = {**os.environ,
           "PYTHONPATH": str(Path(lqlearn.__file__).resolve().parent.parent)}
    loaded = "'scipy.special' in sys.modules"
    draw = "lq.draw_noise(lq.RngStream(0), lq.NoiseModel(0.0, 1.0))"
    code = f"import sys, lqlearn as lq; print({loaded}); {draw}; print({loaded})"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
