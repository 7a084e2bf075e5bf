"""Acceptance suite: the project's exit criteria.

Each test prints one `[criterion NN] PASS/FAIL` line (visible with -s or -rA)
and enforces the stated numeric tolerance and runtime budget.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg

from lqlearn import (
    Gain,
    NoiseModel,
    QFactor,
    RngStream,
    Schedule,
    SystemModel,
    allocate_gains,
    build_graph,
    cli,
    compare_centralized,
    consensus_operator,
    draw_noise,
    expectation_map,
    gamma_map,
    load_preset,
    monte_carlo_cost,
    ms_stability_check,
    optimal_gain_closed_form,
    pi_map,
    realize,
    riccati_residual,
    run_centralized,
    run_distributed,
    solve_oracle,
    y_operator,
)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


@contextmanager
def criterion(num: int, description: str, budget_s: float | None = None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_s is not None:
            assert elapsed < budget_s, (
                f"runtime {elapsed:.2f}s exceeded the {budget_s:.0f}s budget"
            )
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(f"[criterion {num:02d}] {status} ({elapsed:6.2f}s) {description}")


@pytest.fixture(scope="module")
def preset_cfg():
    return load_preset("paper_sec4")


@pytest.fixture(scope="module")
def preset_oracle(preset_cfg):
    return solve_oracle(preset_cfg.system, preset_cfg.noise, oracle_tol=1e-12)


def test_criterion_01_oracle_correctness(preset_cfg):
    with criterion(1, "oracle solves the generalized Riccati fixed point",
                   budget_s=1.0):
        oracle = solve_oracle(preset_cfg.system, preset_cfg.noise,
                              oracle_tol=1e-12)
        assert oracle.residual <= 1e-10
        assert riccati_residual(oracle.P, preset_cfg.system,
                                preset_cfg.noise) <= 1e-8
        closed = optimal_gain_closed_form(oracle.P, preset_cfg.system,
                                          preset_cfg.noise)
        assert np.linalg.norm(gamma_map(oracle.G_star).K - closed.K) <= 1e-8
        report = ms_stability_check(oracle.K_star, preset_cfg.system,
                                    preset_cfg.noise)
        assert report.spectral_radius < 1.0


def test_criterion_02_deterministic_collapse(preset_cfg):
    with criterion(2, "zero-noise oracle matches the classical discrete ARE"):
        one, zero = [[1.0]], [[0.0]]
        scalar = SystemModel(A=one, A_bar=zero, B=one, B_bar=zero, Q=one, R=one)
        sol = solve_oracle(scalar, NoiseModel(0.0, 0.0))
        assert abs(sol.P[0, 0] - GOLDEN) <= 1e-10
        assert abs(sol.K_star.K[0, 0] + (np.sqrt(5.0) - 1.0) / 2.0) <= 1e-10

        det = SystemModel(
            A=preset_cfg.system.A, A_bar=np.zeros((2, 2)),
            B=preset_cfg.system.B, B_bar=np.zeros((2, 1)),
            Q=preset_cfg.system.Q, R=preset_cfg.system.R,
        )
        sol_det = solve_oracle(det, NoiseModel(0.0, 0.0))
        P_ref = scipy.linalg.solve_discrete_are(det.A, det.B, det.Q, det.R)
        assert np.linalg.norm(sol_det.P - P_ref) <= 1e-8


def test_criterion_03_unbiased_fixed_point(preset_cfg, preset_oracle):
    with criterion(3, "the sampled residual is unbiased at G*", budget_s=10.0):
        oracle = preset_oracle
        drift = expectation_map(oracle.G_star, preset_cfg.system,
                                preset_cfg.noise)
        assert np.linalg.norm(drift.mat - oracle.G_star.mat) <= 1e-10

        n_draws = 100_000
        omegas = draw_noise(RngStream(12345), preset_cfg.noise, n_draws)
        Y = y_operator(oracle.G_star.mat, realize(preset_cfg.system, omegas),
                       preset_cfg.system.Q, preset_cfg.system.R)
        mean = Y.mean(axis=0)
        var = (Y * Y).mean(axis=0) - mean**2
        se = np.sqrt(var / n_draws)
        assert np.linalg.norm(mean) <= 4.0 * np.linalg.norm(se)


def test_criterion_04_centralized_convergence_trend(preset_cfg,
                                                    preset_oracle):
    with criterion(4, "centralized error at k=5000 under 25% of its k=50 value",
                   budget_s=60.0):
        errs_50, errs_5000 = [], []
        for seed in range(20):
            trace = run_centralized(
                preset_cfg.system, preset_cfg.noise, preset_cfg.schedule,
                5000, RngStream(seed), oracle=preset_oracle,
            )
            errs_50.append(trace.mean_err[49])
            errs_5000.append(trace.mean_err[4999])
        assert np.median(errs_5000) < 0.25 * np.median(errs_50)


def test_criterion_05_consensus(preset_cfg, preset_oracle):
    with criterion(5, "ring(4) consensus: diameter shrinks; pure mixing decays "
                      "at the contraction rate"):
        graph = build_graph("ring:4")
        cons = consensus_operator(graph)
        assert cons.w == pytest.approx(1.0 / 3.0)
        alloc = allocate_gains(graph, (2, 1), "uniform")

        # identical-start runs keep the sensors identical, so the diameter
        # trend is probed from the spread initialization
        shrunk = 0
        for seed in range(20):
            trace = run_distributed(
                preset_cfg.system, preset_cfg.noise, graph, alloc,
                preset_cfg.schedule, 200, RngStream(seed),
                w=1.0 / 3.0, init="spread",
            )
            shrunk += trace.diameters[199] < trace.diameters[9]
        assert shrunk >= 19

        frozen = Schedule(scale=0.0)
        trace = run_distributed(
            preset_cfg.system, preset_cfg.noise, graph, alloc, frozen, 30,
            RngStream(0), w=1.0 / 3.0, init="spread",
        )
        rate = (trace.diameters[19] / trace.diameters[4]) ** (1.0 / 15.0)
        assert rate <= cons.rho + 0.05


def test_criterion_06_distributed_to_centralized(preset_cfg, preset_oracle):
    with criterion(6, "N=1 reduces to the centralized trace; N=4 averaged "
                      "iterate tracks it"):
        single = build_graph("single")
        alloc1 = allocate_gains(single, (2, 1), "uniform")
        td = run_distributed(preset_cfg.system, preset_cfg.noise, single, alloc1,
                             preset_cfg.schedule, 200, RngStream(0),
                             oracle=preset_oracle)
        tc = run_centralized(preset_cfg.system, preset_cfg.noise,
                             preset_cfg.schedule, 200, RngStream(0),
                             oracle=preset_oracle)
        assert list(td.csv_rows()) == list(tc.csv_rows())

        ring = build_graph("ring:4")
        alloc4 = allocate_gains(ring, (2, 1), "uniform")
        gaps_10, gaps_200 = [], []
        for seed in range(20):
            td = run_distributed(preset_cfg.system, preset_cfg.noise, ring,
                                 alloc4, preset_cfg.schedule, 200,
                                 RngStream(seed), shared_noise=True,
                                 init="spread")
            tc = run_centralized(preset_cfg.system, preset_cfg.noise,
                                 preset_cfg.schedule, 200, RngStream(seed))
            report = compare_centralized(td, tc)
            gaps_10.append(report.gaps[9])
            gaps_200.append(report.gaps[199])
        assert np.median(gaps_200) < np.median(gaps_10)


def test_criterion_07_distributed_convergence_deterministic(preset_cfg):
    with criterion(7, "deterministic plant: every sensor within 1e-3 of G* "
                      "inside 1e4 rounds", budget_s=30.0):
        det = SystemModel(
            A=preset_cfg.system.A, A_bar=np.zeros((2, 2)),
            B=preset_cfg.system.B, B_bar=np.zeros((2, 1)),
            Q=preset_cfg.system.Q, R=preset_cfg.system.R,
        )
        noise = NoiseModel(0.0, 0.0)
        oracle = solve_oracle(det, noise)
        graph = build_graph("ring:4")
        alloc = allocate_gains(graph, (2, 1), "uniform")
        trace = run_distributed(det, noise, graph, alloc, preset_cfg.schedule,
                                10_000, RngStream(0), oracle=oracle)
        assert max(trace.fro_err[-1]) < 1e-3


def test_criterion_08_value_identity(preset_cfg, preset_oracle):
    with criterion(8, "Monte Carlo cost under K* matches x0' P x0",
                   budget_s=60.0):
        oracle = preset_oracle
        x0 = np.array([1.0, 1.0])
        est = monte_carlo_cost(preset_cfg.system, preset_cfg.noise,
                               oracle.K_star, x0, 400, 2000, RngStream(0, 1))
        value = float(x0 @ oracle.P @ x0)
        assert abs(est.mean - value) <= 3.0 * est.std_err


def test_criterion_09_trace_determinism(tmp_path):
    with criterion(9, "identical config and seed give byte-identical trace.csv"):
        for sub in ("first", "second"):
            code = cli.main([
                "run", "--preset", "paper_sec4", "--mode", "distributed",
                "--seeds", "1", "--out", str(tmp_path / sub),
            ])
            assert code == 0
        first = (tmp_path / "first" / "seed_0000" / "trace.csv").read_bytes()
        second = (tmp_path / "second" / "seed_0000" / "trace.csv").read_bytes()
        assert first == second


def test_criterion_10_invariant_suite(preset_cfg):
    with criterion(10, "structural invariants: Schur-complement identities, "
                       "gain sums, mixing, schedule sums"):
        rng = np.random.default_rng(2718)
        n, m = 3, 2
        for _ in range(50):
            M = rng.standard_normal((n + m, n + m))
            G = QFactor.symmetrized(M.T @ M + 0.1 * np.eye(n + m), n, m)
            T1 = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
            T2 = rng.standard_normal((m, m)) + 2.0 * np.eye(m)
            T = np.block([[T1, np.zeros((n, m))], [np.zeros((m, n)), T2]])
            lhs = pi_map(QFactor.symmetrized(T.T @ G.mat @ T, n, m))
            rhs = T1.T @ pi_map(G) @ T1
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(
                1.0, np.linalg.norm(rhs))

            W = rng.standard_normal((n + m, n + m))
            G_hi = QFactor.symmetrized(G.mat + W.T @ W, n, m)
            assert np.linalg.eigvalsh(pi_map(G_hi) - pi_map(G)).min() >= -1e-10

        for desc in ("ring:4", "star:5", "complete:3", "path:2"):
            graph = build_graph(desc)
            for mode in ("uniform", "masked"):
                alloc = allocate_gains(graph, (2, 1), mode)
                assert np.array_equal(
                    sum(alloc.matrices), graph.n_sensors * np.eye(3)
                )
            cons = consensus_operator(graph)
            ones = np.ones(graph.n_sensors)
            assert cons.A_mix @ ones == pytest.approx(ones)
            assert cons.A_mix.T @ ones == pytest.approx(ones)
            assert np.array_equal(cons.A_mix, cons.A_mix.T)
            assert cons.rho < 1.0

        sched = preset_cfg.schedule
        ks = np.arange(1_000_000, dtype=float)
        assert ((1.0 / (ks + sched.offset)) ** sched.exponent).sum() > 100.0
        assert sched.alpha(10**6) ** 2 < 1e-6
