import re
import warnings

import numpy as np
import pytest

from lqlearn import (
    NoiseModel,
    RankDeficientWarning,
    RngStream,
    Schedule,
    SystemModel,
    allocate_gains,
    build_graph,
    centralized_step,
    compare_centralized,
    consensus_operator,
    distributed_round,
    initial_bank,
    load_preset,
    realize,
    run_centralized,
    run_distributed,
    run_learners,
    solve_oracle,
    symmetrize,
)
from lqlearn import distributed
from lqlearn.qlearning import single_sensor
from lqlearn.errors import DivergedError, SeedMismatchError
from lqlearn.trace import RunTrace


def gains_shape_error(shape):
    """The message both public entries give for ring:4 gains of this shape."""
    return re.escape(f"gains must have shape (4, 3), got {shape}")


def bank_of(sys, mats):
    return np.array([symmetrize(m) for m in mats])


class TestDistributedRound:
    def test_consensus_and_innovation_vanish_at_fixed_point(self, det_sys,
                                                            det_oracle):
        g = build_graph("ring:4")
        cons = consensus_operator(g)
        alloc = allocate_gains(g, (2, 1), "uniform")
        bank = bank_of(det_sys, [det_oracle.G_star.mat] * 4)
        nxt = distributed_round(bank, 0, det_sys, cons, alloc,
                                realize(det_sys, 0.0), Schedule())
        for g_new in nxt:
            assert g_new == pytest.approx(det_oracle.G_star.mat, abs=1e-12)

    @pytest.mark.parametrize("spec", ["ring:4", "single"])
    def test_input_estimates_left_unchanged(self, bench_sys, spec):
        # The caller keeps the estimates as a plain array, so the round must
        # return a new one and leave its input as it was, bit for bit.
        g = build_graph(spec)
        rng = np.random.default_rng(3)
        X = rng.standard_normal((g.n_sensors, 3, 3))
        mats = [m @ m.T + np.eye(3) for m in X]
        bank = bank_of(bench_sys, mats)
        before = bank.copy()
        nxt = distributed_round(bank, 0, bench_sys, consensus_operator(g),
                                allocate_gains(g, (2, 1), "uniform"),
                                realize(bench_sys, 1.2), Schedule())
        assert bank.tobytes() == before.tobytes()
        assert not np.shares_memory(nxt, bank)

    def test_two_sensor_averaging(self, bench_sys):
        g = build_graph("complete:2")
        cons = consensus_operator(g, 0.5)
        alloc = allocate_gains(g, (2, 1), "uniform")
        rng = np.random.default_rng(0)
        M1 = rng.standard_normal((3, 3))
        M2 = rng.standard_normal((3, 3))
        G1, G2 = M1 + M1.T, M2 + M2.T
        bank = bank_of(bench_sys, [G1, G2])
        nxt = distributed_round(bank, 0, bench_sys, cons, alloc,
                                realize(bench_sys, 0.0), Schedule(scale=0.0))
        avg = (G1 + G2) / 2.0
        assert nxt[0] == pytest.approx(avg, abs=1e-14)
        assert nxt[1] == pytest.approx(avg, abs=1e-14)

    def test_single_round_replay_fixture(self, bench_sys, bench_noise):
        # Identical init + shared noise + uniform gains: every sensor matches
        # one centralized step bit for bit.
        g = build_graph("ring:4")
        alloc = allocate_gains(g, (2, 1), "uniform")
        trace = run_distributed(bench_sys, bench_noise, g, alloc, Schedule(),
                                1, RngStream(0))
        expected = np.array(
            [
                [0.44161359333008504, 0.0, 0.07630683934045053],
                [0.0, 1.0145248941893046, 0.1894561383821556],
                [0.07630683934045053, 0.1894561383821556, 1.254043989772172],
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
        mean_before = np.mean(bank, axis=0)
        for k in range(10):
            bank = distributed_round(bank, k, bench_sys, cons, alloc,
                                     realize(bench_sys, 0.0), Schedule(scale=0.0))
        mean_after = np.mean(bank, axis=0)
        assert np.linalg.norm(mean_after - mean_before) <= 1e-12

    def test_diameter_non_increasing_under_mixing(self, bench_sys):
        g = build_graph("ring:4")
        cons = consensus_operator(g)
        alloc = allocate_gains(g, (2, 1), "uniform")
        rng = np.random.default_rng(8)
        mats = [m + m.T for m in rng.standard_normal((4, 3, 3))]
        bank = bank_of(bench_sys, mats)

        def diameter(ms):
            return max(
                np.linalg.norm(ms[i] - ms[j])
                for i in range(4)
                for j in range(i + 1, 4)
            )

        prev = diameter(bank)
        for k in range(20):
            bank = distributed_round(bank, k, bench_sys, cons, alloc,
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
            for gi in bank
        ]
        expected = np.mean(bank, axis=0) + sched.alpha(0) * np.mean(ys, axis=0)
        nxt = distributed_round(bank, 0, bench_sys, cons, alloc, real, sched)
        assert np.linalg.norm(np.mean(nxt, axis=0) - expected) <= 1e-12

    def test_matches_centralized_when_equal_estimates(self, bench_sys,
                                                      bench_noise):
        g = build_graph("ring:4")
        cons = consensus_operator(g)
        alloc = allocate_gains(g, (2, 1), "uniform")
        G0 = bench_sys.cost_block()
        real = realize(bench_sys, 0.85)
        bank = bank_of(bench_sys, [G0] * 4)
        nxt = distributed_round(bank, 0, bench_sys, cons, alloc, real, Schedule())
        cent = centralized_step(G0[None], 0, bench_sys, real, Schedule())
        for g_new in nxt:
            assert np.linalg.norm(g_new - cent[0]) <= 1e-12

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
            distributed_round(bank, 0, sys, cons, alloc, realize(sys, 0.0),
                              Schedule())

    def test_divergence_names_sensor_and_norm(self):
        # Weak mixing on a path keeps the middle sensor below the cap; only
        # the far end stays above it.
        sys = SystemModel(A=[[1.0]], A_bar=[[0.0]], B=[[1.0]], B_bar=[[0.0]],
                          Q=[[1.0]], R=[[1.0]])
        g = build_graph("path:3")
        bank = bank_of(sys, [np.eye(2), np.eye(2), np.diag([5e9, 1.0])])
        with pytest.raises(DivergedError, match="sensor 2 ") as info:
            distributed_round(bank, 0, sys, consensus_operator(g, 0.01),
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
            distributed_round(bank_of(bench_sys, mats), 0, bench_sys,
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
        bank = np.array([np.diag([bad, 1.0])])
        with np.errstate(invalid="ignore"), pytest.raises(
            DivergedError, match="sensor 0 .* at round 5"
        ) as info:
            distributed_round(bank, 4, sys, consensus_operator(g),
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
        nxt = distributed_round(bank, 0, bench_sys, cons, alloc, reals, sched)

        from lqlearn import y_operator

        alpha = sched.alpha(0)
        for i in range(4):
            Gi = bank[i]
            ref = Gi.copy()
            for j in g.neighbors(i):
                ref += cons.w * (bank[j] - Gi)
            Y = y_operator(Gi, reals[i], bench_sys.Q, bench_sys.R)
            ref += alpha * np.diag(alloc[i]) @ Y
            # masked L_i scales rows only; the round symmetrizes its output
            ref = (ref + ref.T) / 2.0
            assert np.abs(nxt[i] - ref).max() <= 1e-13

    @pytest.mark.parametrize("shape", [(1, 3), (4, 2), (2, 3)])
    def test_gains_of_wrong_shape_rejected(self, bench_sys, shape):
        # (1, 3) would broadcast row 0's gains to every sensor; the others
        # would fail inside numpy, or (4, 2) pass a sensor-count check.
        g = build_graph("ring:4")
        bank = initial_bank(bench_sys, 4, RngStream(0))
        with pytest.raises(ValueError, match=gains_shape_error(shape)):
            distributed_round(bank, 0, bench_sys, consensus_operator(g),
                              np.ones(shape), realize(bench_sys, 1.0), Schedule())


    @pytest.mark.parametrize("d", [4, 2])
    def test_bank_of_wrong_shape_rejected(self, bench_sys, d):
        # A (4, 4, 4) bank of the 3 x 3 problem would warn of rank-deficient
        # blocks, then fail as numpy broadcasts it against the residuals.
        g = build_graph("ring:4")
        with pytest.raises(ValueError, match=re.escape(
                f"bank must have shape (4, 3, 3), got (4, {d}, {d})")):
            distributed_round(np.tile(np.eye(d), (4, 1, 1)), 0, bench_sys,
                              consensus_operator(g),
                              allocate_gains(g, (2, 1), "uniform"),
                              realize(bench_sys, 1.0), Schedule())
        with pytest.raises(ValueError, match=re.escape(
                f"bank must have shape (1, 3, 3), got (1, {d}, {d})")):
            centralized_step(np.eye(d)[None], 0, bench_sys,
                             realize(bench_sys, 1.0), Schedule())


    def test_bank_and_consensus_sensor_counts_must_agree(self, bench_sys):
        g = build_graph("ring:4")
        with pytest.raises(ValueError, match="must agree on the sensor count"):
            distributed_round(np.tile(np.eye(3), (3, 1, 1)), 0, bench_sys,
                              consensus_operator(g),
                              allocate_gains(g, (2, 1), "uniform"),
                              realize(bench_sys, 1.0), Schedule())


class TestRunDistributed:
    @pytest.mark.parametrize("shape", [(1, 3), (4, 2), (2, 3)])
    def test_gains_of_wrong_shape_rejected(self, bench_sys, bench_noise, shape):
        g = build_graph("ring:4")
        with pytest.raises(ValueError, match=gains_shape_error(shape)):
            run_distributed(bench_sys, bench_noise, g, np.ones(shape),
                            Schedule(), 5, RngStream(0))

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

    def test_infinite_weight_rejected_on_one_sensor(self, bench_sys, bench_noise):
        # Before any round: an infinite weight would make the first mixing
        # step NaN and trip the divergence guard.
        g = build_graph("single")
        with pytest.raises(ValueError, match="consensus weight must be finite"):
            run_distributed(bench_sys, bench_noise, g,
                            allocate_gains(g, (2, 1), "uniform"), Schedule(), 5,
                            RngStream(0), w=float("inf"))

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
        assert trace.omegas.tobytes() == again.omegas.tobytes()

    def test_spread_init_is_seeded_and_psd(self, bench_sys, bench_noise):
        b1 = initial_bank(bench_sys, 4, RngStream(1), init="spread")
        b2 = initial_bank(bench_sys, 4, RngStream(1), init="spread")
        base = bench_sys.cost_block()
        mats = b1
        assert all(np.array_equal(a, b) for a, b in zip(mats, b2))
        assert len({m.tobytes() for m in mats}) == 4
        for m in mats:
            jitter = m - base
            assert np.linalg.norm(jitter) == pytest.approx(0.1, abs=1e-12)
            assert np.linalg.eigvalsh(jitter).min() >= -1e-12

    @pytest.mark.parametrize("init", ["identity", "spread"])
    def test_initial_bank_is_one_array(self, bench_sys, init):
        G = initial_bank(bench_sys, 4, RngStream(1), init=init)
        assert type(G) is np.ndarray
        assert G.shape == (4, 3, 3)

    def test_unknown_init_rejected(self, bench_sys):
        with pytest.raises(ValueError, match="unknown initialization mode 'zeros'"):
            initial_bank(bench_sys, 4, RngStream(0), init="zeros")

    def test_zero_rounds_rejected(self, bench_sys, bench_noise):
        g = build_graph("ring:4")
        with pytest.raises(ValueError, match="rounds must be >= 1"):
            run_learners(bench_sys, bench_noise,
                         [(g, allocate_gains(g, (2, 1), "uniform"), {})],
                         Schedule(), 0, [RngStream(0)])

    @pytest.mark.parametrize("scale", [float("nan"), -1.0, float("inf")])
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
        assert report.max() == 0.0

    def test_zero_alpha_identical_init_gap_is_zero(self, bench_sys, bench_noise):
        g = build_graph("ring:4")
        alloc = allocate_gains(g, (2, 1), "uniform")
        sched = Schedule(scale=0.0)
        td = run_distributed(bench_sys, bench_noise, g, alloc, sched, 40,
                             RngStream(2))
        tc = run_centralized(bench_sys, bench_noise, sched, 40, RngStream(2))
        report = compare_centralized(td, tc)
        assert report.max() == 0.0

    def test_gap_shrinks_with_spread_init(self, bench_sys, bench_noise):
        g = build_graph("ring:4")
        alloc = allocate_gains(g, (2, 1), "uniform")
        td = run_distributed(bench_sys, bench_noise, g, alloc, Schedule(), 200,
                             RngStream(6), init="spread")
        tc = run_centralized(bench_sys, bench_noise, Schedule(), 200,
                             RngStream(6))
        report = compare_centralized(td, tc)
        assert report[199] < report[9]

    def test_last_and_largest_gap_pinned(self, bench_sys, bench_noise):
        # The gaps are one (rounds,) array; its last entry and its maximum
        # are pinned to the values this run has always given.
        g = build_graph("ring:4")
        alloc = allocate_gains(g, (2, 1), "uniform")
        td = run_distributed(bench_sys, bench_noise, g, alloc, Schedule(), 200,
                             RngStream(6), init="spread")
        tc = run_centralized(bench_sys, bench_noise, Schedule(), 200,
                             RngStream(6))
        gaps = compare_centralized(td, tc)
        assert type(gaps) is np.ndarray
        assert gaps.shape == (200,)
        assert gaps[-1] == pytest.approx(0.0014092038455682829, rel=1e-12)
        assert gaps.max() == pytest.approx(0.14586134848700305, rel=1e-12)

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
        # The stored column itself: a read does not hand out a copy.
        tc.omegas[[4, 11]] += 1.0
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
        assert len(report) == 60
        assert report.max() == 0.0


def assert_same_trace(batch, solo):
    """Every column of two traces, and the final estimate, bit for bit."""
    assert (batch.n_sensors, batch.n_rounds) == (solo.n_sensors, solo.n_rounds)
    for column in ("alphas", "diameters", "mean_err", "max_fro_norm"):
        assert getattr(batch, column) == getattr(solo, column), column
    for column in ("omegas", "norm1", "fro_err", "mean_history"):
        a, b = getattr(batch, column), getattr(solo, column)
        if a is None or b is None:
            assert a is b, column
        else:
            assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), column
    assert np.array_equal(batch.final_mean(), solo.final_mean())


def check_outcomes(cfg, kinds, sched, rounds, seeds, stacked, oracle=None):
    """Check that each seed's outcome of each kind in stacked, what
    run_learners returned for them, equals bit for bit what that kind's
    run_distributed alone gives on the seed; returns the outcomes by seed,
    each "ok" or (round, sensor) of its DivergedError."""
    assert len(stacked) == len(seeds)
    outcomes = {}
    for seed, got in zip(seeds, stacked):
        assert len(got) == len(kinds)
        for result, (graph, gains, options) in zip(got, kinds):
            try:
                solo = run_distributed(cfg.system, cfg.noise, graph, gains, sched,
                                       rounds, RngStream(seed), oracle=oracle,
                                       **options)
            except DivergedError as exc:
                assert isinstance(result, DivergedError)
                assert (result.step, result.sensor, result.norm, str(result)) == (
                    exc.step, exc.sensor, exc.norm, str(exc))
            else:
                assert isinstance(result, RunTrace)
                assert_same_trace(result, solo)
        outcomes[seed] = tuple("ok" if isinstance(r, RunTrace) else (r.step, r.sensor)
                               for r in got)
    return outcomes


def check_stack(cfg, kinds, sched, rounds, seeds, oracle=None):
    """check_outcomes of the kinds learned together on the seeds."""
    stacked = run_learners(cfg.system, cfg.noise, kinds, sched, rounds,
                           [RngStream(seed) for seed in seeds], oracle=oracle)
    return check_outcomes(cfg, kinds, sched, rounds, seeds, stacked, oracle)


class TestOneKindBatch:
    """A seed learned inside a one-kind run_learners batch gives the bits of
    its run alone."""

    @pytest.fixture(scope="class")
    def preset(self):
        cfg = load_preset("paper_sec4")
        return cfg, solve_oracle(cfg.system, cfg.noise)

    def check_batch(self, cfg, graph, gains, sched, rounds, seeds, oracle=None,
                    **options):
        outcomes = check_stack(cfg, [(graph, gains, options)], sched, rounds,
                               seeds, oracle=oracle)
        return {seed: outcome for seed, (outcome,) in outcomes.items()}

    def test_paper_preset_shared_noise(self, preset):
        cfg, oracle = preset
        gains = allocate_gains(cfg.graph, (2, 1), cfg.gain_mode)
        outcomes = self.check_batch(cfg, cfg.graph, gains, cfg.schedule, 200,
                                    range(5), oracle=oracle, shared_noise=True)
        assert set(outcomes.values()) == {"ok"}

    def test_single_sensor(self, preset):
        cfg, oracle = preset
        graph, gains = single_sensor(cfg.system)
        outcomes = self.check_batch(cfg, graph, gains, cfg.schedule, 200,
                                    [0, 7, 3], oracle=oracle)
        assert set(outcomes.values()) == {"ok"}

    def test_ring32_private_noise_spread_init(self, preset):
        # Three ring:32 seeds make blocks of three rounds: 12 rounds step
        # four blocks.
        cfg, oracle = preset
        graph = build_graph("ring:32")
        gains = allocate_gains(graph, (2, 1), "uniform")
        outcomes = self.check_batch(cfg, graph, gains, cfg.schedule, 12,
                                    range(3), oracle=oracle, shared_noise=False,
                                    init="spread")
        assert set(outcomes.values()) == {"ok"}

    def test_diverged_seeds_leave_the_batch(self, preset):
        # Masked gains at offset 6: seeds 2, 3 and 8 trip the guard at
        # sensor 1 and leave the stack; the other seven learn on, each with
        # the bits of its run alone.
        cfg, oracle = preset
        gains = allocate_gains(cfg.graph, (2, 1), "masked")
        outcomes = self.check_batch(cfg, cfg.graph, gains, Schedule(offset=6),
                                    200, range(10), oracle=oracle)
        assert outcomes == {0: "ok", 1: "ok", 2: (18, 1), 3: (29, 1), 4: "ok",
                            5: "ok", 6: "ok", 7: "ok", 8: (12, 1), 9: "ok"}

    def test_all_seeds_diverge(self, preset):
        cfg, _ = preset
        gains = allocate_gains(cfg.graph, (2, 1), "masked")
        outcomes = self.check_batch(cfg, cfg.graph, gains, cfg.schedule, 200,
                                    range(3))
        assert all(outcome != "ok" for outcome in outcomes.values())

    def test_no_streams(self, preset):
        cfg, _ = preset
        gains = allocate_gains(cfg.graph, (2, 1), "uniform")
        assert run_learners(cfg.system, cfg.noise, [(cfg.graph, gains, {})],
                            cfg.schedule, 10, []) == []


class TestRunLearners:
    """Kinds stepped together on one stack give, seed by seed and kind by
    kind, what each kind's run_distributed alone gives."""

    @pytest.fixture(scope="class")
    def preset(self):
        cfg = load_preset("paper_sec4")
        return cfg, solve_oracle(cfg.system, cfg.noise)

    @pytest.mark.parametrize("gain_mode", ["uniform", "masked"])
    @pytest.mark.parametrize("init", ["identity", "spread"])
    @pytest.mark.parametrize("shared_noise", [True, False])
    def test_single_sensor_and_ring_stepped_together(self, preset, shared_noise,
                                                     init, gain_mode):
        cfg, oracle = preset
        options = {"shared_noise": shared_noise, "init": init}
        kinds = [(*single_sensor(cfg.system), {}),
                 (cfg.graph, allocate_gains(cfg.graph, (2, 1), gain_mode), options)]
        outcomes = check_stack(cfg, kinds, cfg.schedule, 40, range(4),
                               oracle=oracle)
        if gain_mode == "uniform":
            assert set(outcomes.values()) == {("ok", "ok")}
        else:
            # Masked ring:4 diverges within a few rounds; each centralized
            # trace is still complete.
            assert all(c == "ok" and d for c, d in outcomes.values())
            assert all(d != "ok" for _, d in outcomes.values())

    def test_earlier_kind_diverged_skips_the_later(self, preset):
        # Skipping a diverged seed's later kinds is lqlearn run's rule
        # (cli._run_group); the library learns the later kind on, and "ok"
        # is the complete trace of its run alone.
        cfg, oracle = preset
        kinds = [(cfg.graph, allocate_gains(cfg.graph, (2, 1), "masked"), {}),
                 (*single_sensor(cfg.system), {})]
        outcomes = check_stack(cfg, kinds, cfg.schedule, 40, range(3),
                               oracle=oracle)
        assert outcomes == {0: ((14, 1), "ok"), 1: ((7, 1), "ok"), 2: ((7, 1), "ok")}

    def test_earlier_kinds_learn_on_after_a_later_trip(self, preset):
        # Offset 6: masked ring:4 with private noise and spread init trips
        # seeds 2, 5, 12, 15, 24 and 28 (rounds 10, 8, 18, 13, 21, 11), with
        # shared noise seeds 2, 3, 8, 15, 20, 23 and 28 (rounds 18, 29, 12,
        # 18, 14, 32, 8). Seed 28 trips the third kind first, at round 8;
        # its first kind learns on and trips at round 11, as it does alone.
        cfg, oracle = preset
        masked = allocate_gains(cfg.graph, (2, 1), "masked")
        kinds = [(cfg.graph, masked, {"shared_noise": False, "init": "spread"}),
                 (*single_sensor(cfg.system), {}),
                 (cfg.graph, masked, {})]
        outcomes = check_stack(cfg, kinds, Schedule(offset=6), 60,
                               range(30), oracle=oracle)
        assert outcomes[28] == ((11, 1), "ok", (8, 1))
        assert outcomes[5] == ((8, 1), "ok", "ok")
        assert outcomes[3] == ("ok", "ok", (29, 1))
        assert outcomes[0] == ("ok", "ok", "ok")

    def learn_masked_with_centralized(self, cfg, oracle, monkeypatch):
        """The centralized and masked ring:4 kinds on seeds 0-9, 200 rounds
        at offset 6, their outcomes checked against each kind alone; returns
        the outcomes and the number of estimates each y_operator call took.
        Masked ring:4 trips seeds 2, 3 and 8 at rounds 18, 29 and 12."""
        kinds = [(*single_sensor(cfg.system), {}),
                 (cfg.graph, allocate_gains(cfg.graph, (2, 1), "masked"), {})]
        sizes = []
        real = distributed.y_operator

        def counted(G, *args, **kwargs):
            sizes.append(G[..., 0, 0].size)
            return real(G, *args, **kwargs)

        monkeypatch.setattr(distributed, "y_operator", counted)
        stacked = run_learners(cfg.system, cfg.noise, kinds, Schedule(offset=6),
                               200, [RngStream(seed) for seed in range(10)],
                               oracle=oracle)
        monkeypatch.undo()
        outcomes = check_outcomes(cfg, kinds, Schedule(offset=6), 200, range(10),
                                  stacked, oracle=oracle)
        assert outcomes == {seed: ("ok", {2: (18, 1), 3: (29, 1), 8: (12, 1)}.get(
            seed, "ok")) for seed in range(10)}
        return outcomes, sizes

    def test_one_y_operator_call_per_round_when_a_kind_trips(self, preset,
                                                             monkeypatch):
        # The centralized kind learns on beside the tripped banks: no round
        # is learned twice.
        _, sizes = self.learn_masked_with_centralized(*preset, monkeypatch)
        assert len(sizes) == 200

    def test_tripped_bank_leaves_the_stack(self, preset, monkeypatch):
        # A bank (one kind of one seed) that trips the guard is stepped no
        # further: the estimates the rounds step sum, over every seed and
        # kind, to N_c times the trip round, or the run's 200 rounds.
        outcomes, sizes = self.learn_masked_with_centralized(*preset, monkeypatch)
        stepped = sum(n_sensors * (200 if outcome == "ok" else outcome[0])
                      for seed_outcomes in outcomes.values()
                      for outcome, n_sensors in zip(seed_outcomes, (1, 4)))
        assert stepped == 10 * 200 + 4 * (7 * 200 + 18 + 29 + 12)
        assert sum(sizes) == stepped

    def test_no_learners_rejected(self, preset):
        cfg, _ = preset
        with pytest.raises(ValueError, match="at least one learner"):
            run_learners(cfg.system, cfg.noise, [], cfg.schedule, 10, [RngStream(0)])
