import warnings

import numpy as np
import pytest

from lqlearn import (
    NoiseModel,
    RankDeficientWarning,
    RngStream,
    Schedule,
    SensorBank,
    SystemModel,
    allocate_gains,
    build_graph,
    centralized_step,
    compare_centralized,
    consensus_operator,
    distributed_round,
    initial_bank,
    realize,
    run_centralized,
    run_distributed,
    symmetrize,
)
from lqlearn.errors import DivergedError, SeedMismatchError


def bank_of(sys, mats):
    return SensorBank(G=np.array([symmetrize(m) for m in mats]), k=0)


class TestDistributedRound:
    def test_consensus_and_innovation_vanish_at_fixed_point(self, det_sys,
                                                            det_oracle):
        g = build_graph("ring:4")
        cons = consensus_operator(g)
        alloc = allocate_gains(g, (2, 1), "uniform")
        bank = bank_of(det_sys, [det_oracle.G_star.mat] * 4)
        nxt = distributed_round(bank, det_sys, cons, alloc,
                                realize(det_sys, 0.0), Schedule())
        for g_new in nxt.G:
            assert g_new == pytest.approx(det_oracle.G_star.mat, abs=1e-12)
        assert nxt.k == 1

    def test_two_sensor_averaging(self, bench_sys):
        g = build_graph("complete:2")
        cons = consensus_operator(g, 0.5)
        alloc = allocate_gains(g, (2, 1), "uniform")
        rng = np.random.default_rng(0)
        M1 = rng.standard_normal((3, 3))
        M2 = rng.standard_normal((3, 3))
        G1, G2 = M1 + M1.T, M2 + M2.T
        bank = bank_of(bench_sys, [G1, G2])
        nxt = distributed_round(bank, bench_sys, cons, alloc,
                                realize(bench_sys, 0.0), Schedule(scale=0.0))
        avg = (G1 + G2) / 2.0
        assert nxt.G[0] == pytest.approx(avg, abs=1e-14)
        assert nxt.G[1] == pytest.approx(avg, abs=1e-14)

    def test_single_round_replay_fixture(self, bench_sys, bench_noise):
        # Identical init + shared noise + uniform gains: every sensor matches
        # one centralized step bit for bit.
        g = build_graph("ring:4")
        alloc = allocate_gains(g, (2, 1), "uniform")
        trace = run_distributed(bench_sys, bench_noise, g, alloc, Schedule(),
                                1, RngStream(0))
        expected = np.array(
            [
                [0.6798673281850312, 0.0, 0.22245333408302007],
                [0.0, 1.8071785974069208, 0.8078904100264277],
                [0.22245333408302007, 0.8078904100264277, 1.7663222938591916],
            ]
        )
        assert trace.mean_history[0] == pytest.approx(expected, abs=1e-14)

    def test_average_preserved_under_pure_mixing(self, bench_sys):
        g = build_graph("edges:1-2,2-3,3-4,1-4,1-3")
        cons = consensus_operator(g)
        alloc = allocate_gains(g, (2, 1), "uniform")
        rng = np.random.default_rng(5)
        mats = [m + m.T for m in rng.standard_normal((4, 3, 3))]
        bank = bank_of(bench_sys, mats)
        mean_before = np.mean(bank.G, axis=0)
        for _ in range(10):
            bank = distributed_round(bank, bench_sys, cons, alloc,
                                     realize(bench_sys, 0.0), Schedule(scale=0.0))
        mean_after = np.mean(bank.G, axis=0)
        assert np.linalg.norm(mean_after - mean_before) <= 1e-12

    def test_diameter_non_increasing_under_mixing(self, bench_sys):
        g = build_graph("ring:4")
        cons = consensus_operator(g)
        alloc = allocate_gains(g, (2, 1), "uniform")
        rng = np.random.default_rng(8)
        mats = [m + m.T for m in rng.standard_normal((4, 3, 3))]
        bank = bank_of(bench_sys, mats)

        def diameter(b):
            ms = b.G
            return max(
                np.linalg.norm(ms[i] - ms[j])
                for i in range(4)
                for j in range(i + 1, 4)
            )

        prev = diameter(bank)
        for _ in range(20):
            bank = distributed_round(bank, bench_sys, cons, alloc,
                                     realize(bench_sys, 0.0), Schedule(scale=0.0))
            cur = diameter(bank)
            assert cur <= prev + 1e-12
            prev = cur

    def test_averaged_iterate_recursion_uniform_shared(self, bench_sys):
        # With uniform gains the consensus terms cancel in the average, so
        # Gbar(k+1) = Gbar(k) + alpha(k)/N * sum_i Y(G_i(k)).
        g = build_graph("ring:4")
        cons = consensus_operator(g)
        alloc = allocate_gains(g, (2, 1), "uniform")
        rng = np.random.default_rng(21)
        mats = [m + m.T + 3.0 * np.eye(3) for m in rng.standard_normal((4, 3, 3))]
        bank = bank_of(bench_sys, mats)
        real = realize(bench_sys, 0.9)
        sched = Schedule()

        from lqlearn import y_operator

        ys = [
            y_operator(gi, real, bench_sys.Q, bench_sys.R)
            for gi in bank.G
        ]
        expected = np.mean(bank.G, axis=0) + sched.alpha(0) * np.mean(ys, axis=0)
        nxt = distributed_round(bank, bench_sys, cons, alloc, real, sched)
        assert np.linalg.norm(np.mean(nxt.G, axis=0) - expected) <= 1e-12

    def test_matches_centralized_when_equal_estimates(self, bench_sys,
                                                      bench_noise):
        g = build_graph("ring:4")
        cons = consensus_operator(g)
        alloc = allocate_gains(g, (2, 1), "uniform")
        G0 = bench_sys.cost_block()
        real = realize(bench_sys, 0.85)
        bank = bank_of(bench_sys, [G0] * 4)
        nxt = distributed_round(bank, bench_sys, cons, alloc, real, Schedule())
        cent = centralized_step(SensorBank(G0[None], 0), bench_sys, real,
                                Schedule())
        for g_new in nxt.G:
            assert np.linalg.norm(g_new - cent.G[0]) <= 1e-12

    def test_symmetry_each_round(self, bench_sys, bench_noise):
        # masked gains scale the owned rows by N, so keep alpha(0)*N < 1
        g = build_graph("star:4")
        alloc = allocate_gains(g, (2, 1), "masked")
        trace = run_distributed(bench_sys, bench_noise, g, alloc,
                                Schedule(scale=0.2), 50, RngStream(3),
                                init="spread")
        # symmetry enforced on the recorded mean at every round
        for mean in trace.mean_history:
            assert np.array_equal(mean, mean.T)

    def test_divergence_cap(self):
        sys = SystemModel(A=[[1.0]], A_bar=[[0.0]], B=[[1.0]], B_bar=[[0.0]],
                          Q=[[1.0]], R=[[1.0]])
        g = build_graph("complete:2")
        cons = consensus_operator(g)
        alloc = allocate_gains(g, (1, 1), "uniform")
        bank = bank_of(sys, [np.diag([2e9, 1.0]), np.diag([2e9, 1.0])])
        with pytest.raises(DivergedError):
            distributed_round(bank, sys, cons, alloc, realize(sys, 0.0),
                              Schedule())

    def test_divergence_names_sensor_and_norm(self):
        # Weak mixing on a path keeps the middle sensor below the cap; only
        # the far end stays above it.
        sys = SystemModel(A=[[1.0]], A_bar=[[0.0]], B=[[1.0]], B_bar=[[0.0]],
                          Q=[[1.0]], R=[[1.0]])
        g = build_graph("path:3")
        bank = bank_of(sys, [np.eye(2), np.eye(2), np.diag([5e9, 1.0])])
        with pytest.raises(DivergedError, match="sensor 2 ") as info:
            distributed_round(bank, sys, consensus_operator(g, 0.01),
                              allocate_gains(g, (1, 1), "uniform"),
                              realize(sys, 0.0), Schedule(scale=0.0))
        err = info.value
        assert (err.step, err.sensor) == (1, 2)
        assert err.norm == pytest.approx(0.99 * 5e9, rel=1e-6)
        assert DivergedError("boom").sensor is None
        assert DivergedError("boom").norm is None

    def test_rank_deficient_sensor_named_in_the_rounds_one_warning(self,
                                                                    bench_sys):
        # The round evaluates every sensor's residual in one call, so it
        # warns once; the warning still points at the deficient sensor.
        g = build_graph("ring:4")
        mats = [bench_sys.cost_block() for _ in range(4)]
        mats[2][2:, 2:] = 0.0  # G_uu = 0 at sensor 2 only
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            distributed_round(bank_of(bench_sys, mats), bench_sys,
                              consensus_operator(g),
                              allocate_gains(g, (2, 1), "uniform"),
                              realize(bench_sys, 1.0), Schedule())
        assert [w.category for w in caught] == [RankDeficientWarning]
        message = str(caught[0].message)
        assert "in 1 of 4 blocks (first at index (2,))" in message

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_estimate_raises_diverged(self, bad):
        # NaN fails "norm > cap" as well as "norm <= cap"; the guard must
        # still name the sensor and the round.
        sys = SystemModel(A=[[1.0]], A_bar=[[0.0]], B=[[1.0]], B_bar=[[0.0]],
                          Q=[[1.0]], R=[[1.0]])
        g = build_graph("single")
        bank = SensorBank(G=np.array([np.diag([bad, 1.0])]), k=4)
        with np.errstate(invalid="ignore"), pytest.raises(
            DivergedError, match="sensor 0 .* at round 5"
        ) as info:
            distributed_round(bank, sys, consensus_operator(g),
                              allocate_gains(g, (1, 1), "uniform"),
                              realize(sys, 0.0), Schedule())
        assert (info.value.step, info.value.sensor) == (5, 0)
        assert not np.isfinite(info.value.norm)

    @pytest.mark.parametrize("mode", ["uniform", "masked"])
    def test_matches_written_out_update_on_irregular_graph(self, bench_sys,
                                                           mode):
        g = build_graph("edges:1-2,2-3,3-4,1-4,1-3")
        cons = consensus_operator(g)
        alloc = allocate_gains(g, (2, 1), mode)
        rng = np.random.default_rng(13)
        mats = [m @ m.T + np.eye(3) for m in rng.standard_normal((4, 3, 3))]
        bank = bank_of(bench_sys, mats)
        reals = [realize(bench_sys, wv) for wv in (0.3, 1.1, -0.4, 0.9)]
        sched = Schedule(scale=0.2)
        nxt = distributed_round(bank, bench_sys, cons, alloc, reals, sched)

        from lqlearn import y_operator

        alpha = sched.alpha(0)
        for i in range(4):
            Gi = bank.G[i]
            ref = Gi.copy()
            for j in g.neighbors(i):
                ref += cons.w * (bank.G[j] - Gi)
            Y = y_operator(Gi, reals[i], bench_sys.Q, bench_sys.R)
            ref += alpha * np.diag(alloc[i]) @ Y
            # masked L_i scales rows only; the round symmetrizes its output
            ref = (ref + ref.T) / 2.0
            assert np.abs(nxt.G[i] - ref).max() <= 1e-13


class TestRunDistributed:
    def test_single_sensor_equals_centralized(self, bench_sys, bench_noise,
                                              bench_oracle):
        g = build_graph("single")
        alloc = allocate_gains(g, (2, 1), "uniform")
        td = run_distributed(bench_sys, bench_noise, g, alloc, Schedule(), 100,
                             RngStream(0), oracle=bench_oracle)
        tc = run_centralized(bench_sys, bench_noise, Schedule(), 100,
                             RngStream(0), oracle=bench_oracle)
        assert list(td.csv_rows()) == list(tc.csv_rows())
        for a, b in zip(td.mean_history, tc.mean_history):
            assert np.array_equal(a, b)

    def test_masked_gains_still_converge(self, det_sys, det_noise, det_oracle):
        g = build_graph("ring:4")
        alloc = allocate_gains(g, (2, 1), "masked")
        trace = run_distributed(det_sys, det_noise, g, alloc, Schedule(), 3000,
                                RngStream(0), oracle=det_oracle, init="spread")
        assert trace.mean_err[-1] < 1e-3
        assert trace.diameters[-1] < trace.diameters[9]

    def test_independent_noise_mode(self, bench_sys, bench_noise, bench_oracle):
        g = build_graph("ring:4")
        alloc = allocate_gains(g, (2, 1), "uniform")
        trace = run_distributed(bench_sys, bench_noise, g, alloc, Schedule(),
                                50, RngStream(0), oracle=bench_oracle,
                                shared_noise=False)
        # per-sensor draws differ within a round
        assert len(set(trace.omegas[0])) == 4
        # and are reproducible
        again = run_distributed(bench_sys, bench_noise, g, alloc, Schedule(),
                                50, RngStream(0), oracle=bench_oracle,
                                shared_noise=False)
        assert trace.omegas == again.omegas

    def test_spread_init_is_seeded_and_psd(self, bench_sys, bench_noise):
        b1 = initial_bank(bench_sys, 4, RngStream(1), init="spread")
        b2 = initial_bank(bench_sys, 4, RngStream(1), init="spread")
        base = bench_sys.cost_block()
        mats = b1.G
        assert all(np.array_equal(a, b) for a, b in zip(mats, b2.G))
        assert len({m.tobytes() for m in mats}) == 4
        for m in mats:
            jitter = m - base
            assert np.linalg.norm(jitter) == pytest.approx(0.1, abs=1e-12)
            assert np.linalg.eigvalsh(jitter).min() >= -1e-12

    @pytest.mark.parametrize("scale", [float("nan"), -1.0])
    def test_bad_spread_scale_rejected(self, bench_sys, bench_noise, scale):
        g = build_graph("ring:4")
        with pytest.raises(ValueError, match="spread_scale must be >= 0"):
            run_distributed(bench_sys, bench_noise, g,
                            allocate_gains(g, (2, 1), "uniform"), Schedule(), 5,
                            RngStream(0), init="spread", spread_scale=scale)

    def test_deterministic_plant_all_sensors_converge(self, det_sys, det_noise,
                                                      det_oracle):
        g = build_graph("ring:4")
        alloc = allocate_gains(g, (2, 1), "uniform")
        trace = run_distributed(det_sys, det_noise, g, alloc, Schedule(), 2000,
                                RngStream(0), oracle=det_oracle)
        assert max(trace.fro_err[-1]) < 1e-3


class TestCompareCentralized:
    def test_single_sensor_gap_is_zero(self, bench_sys, bench_noise):
        g = build_graph("single")
        alloc = allocate_gains(g, (2, 1), "uniform")
        td = run_distributed(bench_sys, bench_noise, g, alloc, Schedule(), 60,
                             RngStream(4))
        tc = run_centralized(bench_sys, bench_noise, Schedule(), 60,
                             RngStream(4))
        report = compare_centralized(td, tc)
        assert report.max_gap == 0.0

    def test_zero_alpha_identical_init_gap_is_zero(self, bench_sys, bench_noise):
        g = build_graph("ring:4")
        alloc = allocate_gains(g, (2, 1), "uniform")
        sched = Schedule(scale=0.0)
        td = run_distributed(bench_sys, bench_noise, g, alloc, sched, 40,
                             RngStream(2))
        tc = run_centralized(bench_sys, bench_noise, sched, 40, RngStream(2))
        report = compare_centralized(td, tc)
        assert report.max_gap == 0.0

    def test_gap_shrinks_with_spread_init(self, bench_sys, bench_noise):
        g = build_graph("ring:4")
        alloc = allocate_gains(g, (2, 1), "uniform")
        td = run_distributed(bench_sys, bench_noise, g, alloc, Schedule(), 200,
                             RngStream(6), init="spread")
        tc = run_centralized(bench_sys, bench_noise, Schedule(), 200,
                             RngStream(6))
        report = compare_centralized(td, tc)
        assert report.gaps[199] < report.gaps[9]

    def test_seed_mismatch_detected(self, bench_sys, bench_noise):
        g = build_graph("ring:4")
        alloc = allocate_gains(g, (2, 1), "uniform")
        td = run_distributed(bench_sys, bench_noise, g, alloc, Schedule(), 30,
                             RngStream(0))
        tc = run_centralized(bench_sys, bench_noise, Schedule(), 30,
                             RngStream(1))
        with pytest.raises(SeedMismatchError):
            compare_centralized(td, tc)

    def test_round_count_mismatch_rejected(self, bench_sys, bench_noise):
        g = build_graph("ring:4")
        alloc = allocate_gains(g, (2, 1), "uniform")
        td = run_distributed(bench_sys, bench_noise, g, alloc, Schedule(), 30,
                             RngStream(0))
        tc = run_centralized(bench_sys, bench_noise, Schedule(), 31,
                             RngStream(0))
        with pytest.raises(ValueError, match="round counts"):
            compare_centralized(td, tc)

    def test_multi_sensor_centralized_side_rejected(self, bench_sys,
                                                    bench_noise):
        g = build_graph("ring:4")
        alloc = allocate_gains(g, (2, 1), "uniform")
        td = run_distributed(bench_sys, bench_noise, g, alloc, Schedule(), 20,
                             RngStream(0))
        with pytest.raises(ValueError, match="1 sensor, got 4"):
            compare_centralized(td, td)

    def test_seed_mismatch_names_first_differing_round(self, bench_sys,
                                                       bench_noise):
        g = build_graph("ring:4")
        alloc = allocate_gains(g, (2, 1), "uniform")
        td = run_distributed(bench_sys, bench_noise, g, alloc, Schedule(), 30,
                             RngStream(0))
        tc = run_centralized(bench_sys, bench_noise, Schedule(), 30,
                             RngStream(0))
        for r in (4, 11):
            tc.omegas[r] = [tc.omegas[r][0] + 1.0]
        with pytest.raises(SeedMismatchError, match="at round 5;"):
            compare_centralized(td, tc)

    def test_one_sensor_distributed_trace_is_centralized_side(self, bench_sys,
                                                              bench_noise):
        ring, single = build_graph("ring:4"), build_graph("single")
        td = run_distributed(bench_sys, bench_noise, ring,
                             allocate_gains(ring, (2, 1), "uniform"),
                             Schedule(), 60, RngStream(4))
        tc = run_distributed(bench_sys, bench_noise, single,
                             allocate_gains(single, (2, 1), "uniform"),
                             Schedule(), 60, RngStream(4))
        report = compare_centralized(td, tc)
        assert report.n_rounds == 60
        assert report.max_gap == 0.0
