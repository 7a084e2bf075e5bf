import numpy as np
import pytest

from lqlearn import (
    NoiseModel,
    QFactor,
    RngStream,
    Schedule,
    SensorBank,
    SystemModel,
    centralized_step,
    expectation_map,
    realize,
    run_centralized,
    y_operator,
)
from lqlearn.errors import DivergedError


class TestSchedule:
    def test_benchmark_schedule_values(self):
        sched = Schedule(exponent=0.6, offset=2)
        assert sched.alpha(0) == pytest.approx(0.5**0.6)
        assert sched.alpha(198) == pytest.approx((1.0 / 200.0) ** 0.6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"exponent": 0.5},
            {"exponent": 1.2},
            {"offset": 0},
            {"offset": 1},          # alpha(0) = 1 violates alpha < 1
            {"scale": -0.1},
            {"scale": 2.0},         # alpha(0) >= 1
            {"scale": float("nan")},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            Schedule(**kwargs)

    @pytest.mark.parametrize("offset", [float("inf"), float("-inf"), float("nan")])
    def test_rejects_non_finite_offset(self, offset):
        with pytest.raises(ValueError, match="offset must be an integer >= 1"):
            Schedule(offset=offset)

    @pytest.mark.parametrize("offset", [2**1024, 10**400, 10**5000],
                             ids=["2**1024", "10**400", "10**5000"])
    def test_rejects_offset_beyond_float_range(self, offset):
        # alpha divides by the offset as a float; an integer that cannot
        # become one is rejected with the offset's own message, not with
        # float()'s OverflowError.
        with pytest.raises(ValueError, match="offset must be an integer >= 1"):
            Schedule(offset=offset)

    def test_largest_float_offset_accepted(self):
        offset = 2**1023
        assert Schedule(offset=offset).alpha(0) == (1.0 / float(offset)) ** 0.6

    def test_degenerate_zero_scale_allowed(self):
        sched = Schedule(scale=0.0)
        assert sched.alpha(0) == 0.0

    def test_alpha_in_unit_interval(self):
        sched = Schedule()
        ks = np.concatenate([np.arange(100), [10**4, 10**8]])
        alphas = np.array([sched.alpha(int(k)) for k in ks])
        assert np.all(alphas > 0.0)
        assert np.all(alphas < 1.0)

    def test_robbins_monro_sums(self):
        # sum(alpha) diverges: partial sum over k < 1e6 already beyond 100.
        sched = Schedule()
        ks = np.arange(1_000_000, dtype=float)
        alphas = (1.0 / (ks + sched.offset)) ** sched.exponent
        assert alphas.sum() > 100.0
        # sum(alpha^2) converges: per-term increments past k = 1e6 are below
        # 1e-6 and the integral tail bound vanishes as the cutoff grows.
        assert sched.alpha(10**6) ** 2 < 1e-6

        def tail_bound(K):
            # sum_{k>=K} (k+offset)^(-2e) <= integral from K-1
            p = 2.0 * sched.exponent
            return (K - 1 + sched.offset) ** (1.0 - p) / (p - 1.0)

        assert tail_bound(10**6) < tail_bound(10**3) < tail_bound(1)
        assert tail_bound(10**20) < 1e-3


class TestYOperator:
    def test_vanishes_at_fixed_point_in_expectation(self, bench_sys, bench_noise,
                                                    bench_oracle):

        drift = expectation_map(bench_oracle.G_star.mat, bench_sys, bench_noise)
        assert np.linalg.norm(drift - bench_oracle.G_star.mat) <= 1e-10

    def test_zero_for_every_draw_when_deterministic(self, det_sys, det_oracle):
        for omega in (-2.0, 0.0, 0.7, 3.0):
            Y = y_operator(det_oracle.G_star.mat, realize(det_sys, omega),
                           det_sys.Q, det_sys.R)
            assert np.linalg.norm(Y) <= 1e-10

    def test_benchmark_fixture_at_unit_omega(self, bench_sys):
        G = bench_sys.cost_block()
        Y = y_operator(G, realize(bench_sys, 1.0), bench_sys.Q, bench_sys.R)
        expected = np.array(
            [[0.324, 0.0, 0.288], [0.0, 1.372, 0.98], [0.288, 0.98, 0.956]]
        )
        assert Y == pytest.approx(expected, abs=1e-12)

    def test_symmetric_output(self, bench_sys, bench_oracle):
        Y = y_operator(bench_oracle.G_star.mat, realize(bench_sys, 0.3),
                       bench_sys.Q, bench_sys.R)
        assert np.array_equal(Y, Y.T)


class TestCentralizedStep:
    def test_zero_alpha_keeps_iterate(self, bench_sys):
        state = SensorBank(bench_sys.cost_block()[None], 0)
        nxt = centralized_step(state, bench_sys, realize(bench_sys, 1.3),
                               Schedule(scale=0.0))
        assert np.array_equal(nxt.G, state.G)
        assert nxt.k == 1

    def test_fixed_point_of_sampled_map(self, det_sys, det_oracle):
        # Deterministic plant: Y(G*) = 0 for any draw, so G* is invariant.
        state = SensorBank(det_oracle.G_star.mat[None], 5)
        nxt = centralized_step(state, det_sys, realize(det_sys, 0.0), Schedule())
        assert nxt.G[0] == pytest.approx(det_oracle.G_star.mat, abs=1e-12)

    def test_one_step_replay_fixture(self, bench_sys, bench_noise):
        from lqlearn import draw_noise

        rng = RngStream(0)
        omega = draw_noise(rng, bench_noise)
        assert omega == pytest.approx(1.1854360793774206, abs=1e-15)
        state = SensorBank(bench_sys.cost_block()[None], 0)
        nxt = centralized_step(state, bench_sys, realize(bench_sys, omega),
                               Schedule())
        expected = np.array(
            [
                [0.6798673281850312, 0.0, 0.22245333408302007],
                [0.0, 1.8071785974069208, 0.8078904100264277],
                [0.22245333408302007, 0.8078904100264277, 1.7663222938591916],
            ]
        )
        assert nxt.G[0] == pytest.approx(expected, abs=1e-14)

    def test_preserves_symmetry(self, bench_sys, bench_noise):
        rng = RngStream(4)
        state = SensorBank(bench_sys.cost_block()[None], 0)
        from lqlearn import draw_noise

        for _ in range(50):
            state = centralized_step(
                state, bench_sys, realize(bench_sys, draw_noise(rng, bench_noise)),
                Schedule(),
            )
            assert np.array_equal(state.G[0], state.G[0].T)

    def test_divergence_cap(self):
        sys = SystemModel(A=[[1.0]], A_bar=[[0.0]], B=[[1.0]], B_bar=[[0.0]],
                          Q=[[1.0]], R=[[1.0]])
        huge = QFactor(np.diag([2e9, 1.0]), 1, 1)
        state = SensorBank(huge.mat[None], 0)
        with pytest.raises(DivergedError):
            centralized_step(state, sys, realize(sys, 0.0), Schedule())


class TestRunCentralized:
    def test_deterministic_plant_converges(self, det_sys, det_noise, det_oracle):
        trace = run_centralized(det_sys, det_noise, Schedule(), 10_000,
                                RngStream(0), oracle=det_oracle)
        assert trace.mean_err[-1] < 1e-3

    def test_error_shrinks_on_noisy_plant(self, bench_sys, bench_noise,
                                          bench_oracle):
        finals, earlies = [], []
        for seed in range(5):
            trace = run_centralized(bench_sys, bench_noise, Schedule(), 200,
                                    RngStream(seed), oracle=bench_oracle)
            earlies.append(trace.mean_err[9])
            finals.append(trace.mean_err[-1])
        assert np.median(finals) < np.median(earlies)

    def test_single_iteration_trace(self, bench_sys, bench_noise):
        trace = run_centralized(bench_sys, bench_noise, Schedule(), 1,
                                RngStream(0))
        assert trace.n_rounds == 1
        assert trace.n_sensors == 1
        assert len(list(trace.csv_rows())) == 1

    def test_boundedness_monitoring(self, bench_sys, bench_noise):
        trace = run_centralized(bench_sys, bench_noise, Schedule(), 300,
                                RngStream(0))
        assert trace.max_fro_norm < 1e3
        assert trace.max_fro_norm >= max(
            np.linalg.norm(m) for m in trace.mean_history
        )
