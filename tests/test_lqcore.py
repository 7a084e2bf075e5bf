import re

import numpy as np
import pytest
import scipy.linalg

from lqlearn import (
    Gain,
    NoiseModel,
    QFactor,
    RankDeficientWarning,
    SystemModel,
    expectation_map,
    gamma_map,
    load_preset,
    ms_stability_check,
    optimal_gain_closed_form,
    pi_map,
    realize,
    riccati_residual,
    solve_oracle,
    symmetrize,
    y_operator,
)
from lqlearn.config import preset_names
from lqlearn.errors import (
    NoConvergenceError,
    NotStabilizingError,
    SingularInnerMatrixError,
)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def qf(mat):
    return np.asarray(mat, dtype=float)


class TestPiMap:
    def test_scalar_schur_complement(self):
        assert pi_map(qf([[2.0, 1.0], [1.0, 1.0]]), 1) == pytest.approx(1.0)

    def test_block_diagonal_passthrough(self):
        assert pi_map(qf([[3.5, 0.0], [0.0, 2.0]]), 1) == pytest.approx(3.5)

    def test_pinv_of_zero_block(self):
        with pytest.warns(RankDeficientWarning):
            out = pi_map(qf([[1.0, 1.0], [1.0, 0.0]]), 1)
        assert out == pytest.approx(1.0)

    def test_output_symmetric(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((5, 5))
        G = symmetrize(M.T @ M + 0.1 * np.eye(5))
        P = pi_map(G, 3)
        assert np.array_equal(P, P.T)


class TestGammaMap:
    def test_zero_coupling(self):
        K = gamma_map(qf([[1.0, 0.0], [0.0, 4.0]]), 1)
        assert K.K == pytest.approx(0.0)

    def test_scalar(self):
        K = gamma_map(qf([[1.0, 1.0], [1.0, 2.0]]), 1)
        assert K.K[0, 0] == pytest.approx(-0.5)

    def test_identity_input_block(self):
        a, b = 0.3, -0.8
        G = np.array([[1.0, 0.0, a], [0.0, 1.0, b], [a, b, 1.0]])
        K = gamma_map(qf(G), 2)
        assert K.K == pytest.approx(np.array([[-a, -b]]))


class TestExpectationMap:
    def test_zero_noise_collapse(self, det_sys, det_noise):
        G = det_sys.cost_block()
        out = expectation_map(G, det_sys, det_noise)
        P = pi_map(G, 2)
        A, B, Q, R = det_sys.A, det_sys.B, det_sys.Q, det_sys.R
        expected = np.block(
            [[Q + A.T @ P @ A, A.T @ P @ B], [B.T @ P @ A, B.T @ P @ B + R]]
        )
        assert out == pytest.approx(expected, abs=1e-14)

    def test_noise_decoupled_when_bars_zero(self, det_sys, det_oracle):
        # With Abar = Bbar = 0 the noise never touches the plant, so the map
        # and the oracle are the noise-free ones, even where mu^2 overflows.
        G = det_sys.cost_block()
        base = expectation_map(G, det_sys, NoiseModel(0.0, 0.0))
        for noise in (NoiseModel(2.5, 7.0), NoiseModel(1e200, 0.0)):
            assert np.array_equal(base, expectation_map(G, det_sys, noise))
            oracle = solve_oracle(det_sys, noise)
            assert np.array_equal(oracle.G_star.mat, det_oracle.G_star.mat)

    def test_monte_carlo_cross_check(self, bench_sys, bench_noise):
        # Independent oracle: average the sampled matrix over 1e6 Gaussian
        # draws and compare with the closed-form expectation within 3 SEs.
        G = bench_sys.cost_block()
        exact = expectation_map(G, bench_sys, bench_noise)
        P = pi_map(G, 2)
        U, V = bench_sys.stacked()
        N = bench_sys.cost_block()

        rng = np.random.default_rng(20240811)
        n_draws, chunk = 1_000_000, 100_000
        total = np.zeros_like(exact)
        total_sq = np.zeros_like(exact)
        for _ in range(n_draws // chunk):
            w = bench_noise.mu + np.sqrt(bench_noise.sigma2) * rng.standard_normal(chunk)
            ups = U[None, :, :] + w[:, None, None] * V[None, :, :]
            samples = N[None, :, :] + np.einsum("sij,ik,skl->sjl", ups, P, ups)
            total += samples.sum(axis=0)
            total_sq += (samples**2).sum(axis=0)
        mean = total / n_draws
        var = total_sq / n_draws - mean**2
        se = np.sqrt(var / n_draws)
        assert np.all(np.abs(mean - exact) <= 3.0 * se + 1e-12)

    @pytest.mark.parametrize("preset", preset_names())
    def test_two_point_average_of_sampled_residual_is_exact(self, preset):
        # The sampled residual is quadratic in w, so its average over the two
        # points mu -/+ sd equals the expectation with no sampling error. This
        # ties the oracle's H to the learners' sampled plant.
        cfg = load_preset(preset)
        sys, noise = cfg.system, cfg.noise
        n, d = sys.n, sys.n + sys.m
        sd = np.sqrt(noise.sigma2)
        plants = realize(sys, np.array([noise.mu - sd, noise.mu + sd]))
        rng = np.random.default_rng(5)
        for _ in range(10):
            G = symmetrize(rng.standard_normal((d, d)))
            C = rng.standard_normal((sys.m, sys.m))
            G[n:, n:] = C @ C.T + np.eye(sys.m)
            two_point = y_operator(G, plants, sys.Q, sys.R).mean(axis=0)
            exact = expectation_map(G, sys, noise) - G
            assert np.abs(two_point - exact).max() <= 1e-12 * max(
                1.0, np.abs(exact).max()
            )

    def test_dominates_cost_block_on_psd(self, bench_sys, bench_noise):
        rng = np.random.default_rng(11)
        for _ in range(20):
            M = rng.standard_normal((3, 3))
            G = symmetrize(M.T @ M)
            out = expectation_map(G, bench_sys, bench_noise)
            gap = out - bench_sys.cost_block()
            assert np.linalg.eigvalsh(gap).min() >= -1e-10


class TestSolveOracle:
    def test_scalar_golden_ratio(self, scalar_sys):
        sol = solve_oracle(scalar_sys, NoiseModel(0.0, 0.0))
        assert sol.P[0, 0] == pytest.approx(GOLDEN, abs=1e-10)
        assert sol.K_star.K[0, 0] == pytest.approx(-(np.sqrt(5) - 1) / 2, abs=1e-10)

    def test_benchmark_fixture_regression(self, bench_oracle):
        # Frozen from a converged run at oracle_tol = 1e-12.
        expected = np.array(
            [
                [2.2947610147280546, -3.0703612729485315, -0.6105144361979766],
                [-3.0703612729485315, 11.389867326580287, 5.05820585077776],
                [-0.6105144361979766, 5.05820585077776, 4.188627737832997],
            ]
        )
        assert bench_oracle.G_star.mat == pytest.approx(expected, abs=1e-9)
        assert bench_oracle.residual <= 1e-12

    def test_zero_dynamics(self):
        zero2 = np.zeros((2, 2))
        zero21 = np.zeros((2, 1))
        sys = SystemModel(A=zero2, A_bar=zero2, B=zero21, B_bar=zero21,
                          Q=np.eye(2), R=[[1.0]])
        sol = solve_oracle(sys, NoiseModel(0.0, 1.0))
        assert sol.G_star.mat == pytest.approx(np.eye(3))
        assert sol.P == pytest.approx(np.eye(2))
        assert sol.K_star.K == pytest.approx(np.zeros((1, 2)))

    def test_matches_scipy_dare_when_deterministic(self, det_sys, det_oracle):
        P_ref = scipy.linalg.solve_discrete_are(
            det_sys.A, det_sys.B, det_sys.Q, det_sys.R
        )
        assert det_oracle.P == pytest.approx(P_ref, abs=1e-9)

    def test_solution_invariants(self, bench_sys, bench_noise, bench_oracle):
        sol = bench_oracle
        assert sol.P == pytest.approx(pi_map(sol.G_star.mat, 2), abs=1e-12)
        drift = expectation_map(sol.G_star.mat, bench_sys, bench_noise)
        assert np.linalg.norm(drift - sol.G_star.mat) <= 1e-10

    def test_unstabilizable_raises(self):
        # No control authority over an exploding state.
        sys = SystemModel(A=[[2.0]], A_bar=[[0.0]], B=[[0.0]], B_bar=[[0.0]],
                          Q=[[1.0]], R=[[1.0]])
        with pytest.raises(NoConvergenceError):
            solve_oracle(sys, NoiseModel(0.0, 0.0), max_iter=200)

    def test_overflowing_iterates_raise_no_convergence(self):
        # With the default cap the iterates of the plant above grow 4x per
        # step until the residual overflows; the solve stops right there.
        sys = SystemModel(A=[[2.0]], A_bar=[[0.0]], B=[[0.0]], B_bar=[[0.0]],
                          Q=[[1.0]], R=[[1.0]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NoConvergenceError
        ) as info:
            solve_oracle(sys, NoiseModel(0.0, 0.0))
        assert info.value.iterations < 1000


class TestSolveOracleStart:
    @pytest.mark.parametrize("preset", preset_names())
    def test_one_step_from_g_star_gives_the_cold_solve(self, preset):
        cfg = load_preset(preset)
        cold = solve_oracle(cfg.system, cfg.noise, cfg.oracle_tol)
        warm = solve_oracle(cfg.system, cfg.noise, cfg.oracle_tol, max_iter=1,
                            start=cold.G_star.mat.tolist())
        assert warm.iterations == 1
        for a, b in [(warm.G_star.mat, cold.G_star.mat), (warm.P, cold.P),
                     (warm.K_star.K, cold.K_star.K)]:
            assert a.tobytes() == b.tobytes()
        assert warm.residual == cold.residual

    def test_cost_block_start_is_the_default(self, bench_sys, bench_noise,
                                             bench_oracle):
        sol = solve_oracle(bench_sys, bench_noise, start=bench_sys.cost_block())
        assert sol.iterations == bench_oracle.iterations
        assert sol.G_star.mat.tobytes() == bench_oracle.G_star.mat.tobytes()
        assert sol.residual == bench_oracle.residual

    def test_start_is_copied(self, bench_sys, bench_noise, bench_oracle):
        start = bench_oracle.G_star.mat.copy()
        sol = solve_oracle(bench_sys, bench_noise, max_iter=1, start=start)
        start[0, 0] = 0.0
        assert sol.G_star.mat.tobytes() == bench_oracle.G_star.mat.tobytes()

    def test_fixed_point_of_the_other_riccati_root_is_not_stabilizing(self):
        # On scalar_deterministic, P = (1 - sqrt 5) / 2 solves the Riccati
        # equation P = 1 + P - P^2 / (1 + P) too. Its G is a fixed point of
        # expectation_map, so one step passes the residual test, but its gain
        # K = -P / (1 + P) = GOLDEN puts the closed loop at 1 + GOLDEN =
        # GOLDEN^2, so the second moment grows by GOLDEN^4 = 6.854 a step.
        cfg = load_preset("scalar_deterministic")
        P = (1.0 - np.sqrt(5.0)) / 2.0
        G = [[1.0 + P, P], [P, 1.0 + P]]
        with pytest.raises(NotStabilizingError) as info:
            solve_oracle(cfg.system, cfg.noise, max_iter=1, start=G)
        assert info.value.spectral_radius == pytest.approx(GOLDEN**4, rel=1e-12)

    @pytest.mark.parametrize("start, reason", [
        (np.eye(2), "shape"),
        ([[1.0, 0.0, 0.0], [0.0, np.nan, 0.0], [0.0, 0.0, 1.0]], "finite"),
        ([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "symmetric"),
    ], ids=["shape", "NaN", "asymmetric"])
    def test_bad_start_rejected(self, bench_sys, bench_noise, start, reason):
        with pytest.raises(ValueError, match=reason):
            solve_oracle(bench_sys, bench_noise, start=start)

    @pytest.mark.parametrize("settings, message", [
        ({"oracle_tol": 0.0}, "oracle_tol must be > 0"),
        ({"max_iter": 0}, "max_iter must be >= 1"),
    ], ids=["oracle_tol", "max_iter"])
    def test_bad_solver_settings_rejected(self, bench_sys, bench_noise, settings,
                                          message):
        with pytest.raises(ValueError, match=message):
            solve_oracle(bench_sys, bench_noise, **settings)


class TestOptimalGainClosedForm:
    def test_scalar_closed_form(self, scalar_sys):
        K = optimal_gain_closed_form([[GOLDEN]], scalar_sys, NoiseModel(0.0, 0.0))
        assert K.K[0, 0] == pytest.approx(-GOLDEN / (GOLDEN + 1.0), abs=1e-12)
        assert K.K[0, 0] == pytest.approx(-(np.sqrt(5) - 1) / 2, abs=1e-12)

    def test_zero_noise_reduces_to_lqr_gain(self, det_sys, det_noise, det_oracle):
        P = det_oracle.P
        K = optimal_gain_closed_form(P, det_sys, det_noise)
        B, A, R = det_sys.B, det_sys.A, det_sys.R
        expected = -np.linalg.solve(B.T @ P @ B + R, B.T @ P @ A)
        assert K.K == pytest.approx(expected, abs=1e-12)

    def test_singular_inner_matrix_raises(self, scalar_sys):
        # H_uu = R + B'PB = 1 - 1 = 0.
        with pytest.raises(SingularInnerMatrixError):
            optimal_gain_closed_form([[-1.0]], scalar_sys, NoiseModel(0.0, 0.0))

    def test_consistent_with_gamma_map(self, bench_sys, bench_noise, bench_oracle):
        K_blocks = gamma_map(bench_oracle.G_star.mat, 2)
        K_closed = optimal_gain_closed_form(bench_oracle.P, bench_sys, bench_noise)
        assert np.linalg.norm(K_blocks.K - K_closed.K) <= 1e-8


class TestMsStability:
    def test_stable_scalar_modes(self):
        sys = SystemModel(A=0.5 * np.eye(2), A_bar=np.zeros((2, 2)),
                          B=[[1.0], [0.0]], B_bar=np.zeros((2, 1)),
                          Q=np.eye(2), R=[[1.0]])
        report = ms_stability_check(Gain(np.zeros((1, 2))), sys, NoiseModel(0.0, 0.0))
        assert report.stable
        assert report.spectral_radius == pytest.approx(0.25)

    def test_unstable(self):
        sys = SystemModel(A=2.0 * np.eye(2), A_bar=np.zeros((2, 2)),
                          B=[[1.0], [0.0]], B_bar=np.zeros((2, 1)),
                          Q=np.eye(2), R=[[1.0]])
        report = ms_stability_check(Gain(np.zeros((1, 2))), sys, NoiseModel(0.0, 0.0))
        assert not report.stable
        assert report.spectral_radius == pytest.approx(4.0)

    def test_oracle_gain_stabilizes(self, bench_sys, bench_noise, bench_oracle):
        report = ms_stability_check(bench_oracle.K_star, bench_sys, bench_noise)
        assert report.stable

    def test_invariant_under_state_coordinates(self, bench_sys, bench_noise,
                                               bench_oracle):
        # In exact arithmetic x -> T^-1 x leaves the spectrum of the lifted
        # operator unchanged. In floats, forming the transformed operator
        # op_t perturbs it by about c * eps * ||op_t||_F, and to first order
        # (Bauer-Fike) that moves the radius by at most kappa times as much,
        # kappa being the condition number of the dominant eigenvalue, from
        # its left and right eigenvectors. c = 8 covers the roughly dozen
        # roundings of at most eps / 2 on the longest chain that forms an
        # entry of op_t (the inverse, two products per transformed matrix,
        # the closed loop's product and sum, the Kronecker product and the
        # weighted three-term sum), plus both eigensolvers' backward errors.
        c, eps, mu = 8.0, np.finfo(float).eps, bench_noise.mu
        rng = np.random.default_rng(7)
        base = ms_stability_check(bench_oracle.K_star, bench_sys, bench_noise)
        for _ in range(10):
            T = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
            Ti = np.linalg.inv(T)
            sys_t = SystemModel(
                A=Ti @ bench_sys.A @ T,
                A_bar=Ti @ bench_sys.A_bar @ T,
                B=Ti @ bench_sys.B,
                B_bar=Ti @ bench_sys.B_bar,
                Q=symmetrize(T.T @ bench_sys.Q @ T),
                R=bench_sys.R,
            )
            K_t = bench_oracle.K_star.K @ T
            report = ms_stability_check(Gain(K_t), sys_t, bench_noise)
            Acl = sys_t.A + sys_t.B @ K_t
            Abcl = sys_t.A_bar + sys_t.B_bar @ K_t
            op_t = (np.kron(Acl, Acl) + mu * (np.kron(Acl, Abcl) + np.kron(Abcl, Acl))
                    + (mu * mu + bench_noise.sigma2) * np.kron(Abcl, Abcl))
            w, vl, vr = scipy.linalg.eig(op_t, left=True, right=True)
            i = np.abs(w).argmax()
            x, y = vr[:, i], vl[:, i]
            kappa = np.linalg.norm(x) * np.linalg.norm(y) / abs(np.vdot(y, x))
            bound = c * eps * kappa * np.linalg.norm(op_t)
            assert abs(report.spectral_radius - base.spectral_radius) <= bound


class TestRiccatiResidual:
    def test_oracle_solution_near_zero(self, bench_sys, bench_noise, bench_oracle):
        assert riccati_residual(bench_oracle.P, bench_sys, bench_noise) <= 1e-8

    def test_golden_ratio_near_zero(self, scalar_sys):
        resid = riccati_residual([[GOLDEN]], scalar_sys, NoiseModel(0.0, 0.0))
        assert resid <= 1e-12

    def test_zero_is_not_a_solution(self, bench_sys, bench_noise):
        assert riccati_residual(np.zeros((2, 2)), bench_sys, bench_noise) > 0.1


class TestPiMapIdentities:
    def test_block_congruence(self):
        # Pi(T' G T) = T1' Pi(G) T1 for block-diagonal invertible T.
        rng = np.random.default_rng(42)
        n, m = 3, 2
        for _ in range(50):
            M = rng.standard_normal((n + m, n + m))
            G = symmetrize(M.T @ M + 0.1 * np.eye(n + m))
            T1 = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
            T2 = rng.standard_normal((m, m)) + 2.0 * np.eye(m)
            T = np.block(
                [[T1, np.zeros((n, m))], [np.zeros((m, n)), T2]]
            )
            lhs = pi_map(symmetrize(T.T @ G @ T), n)
            rhs = T1.T @ pi_map(G, n) @ T1
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(
                1.0, np.linalg.norm(rhs)
            )

    def test_monotonicity_on_psd_pairs(self):
        # G1 >= G2 >= 0 with G2_uu > 0 implies Pi(G1) >= Pi(G2).
        rng = np.random.default_rng(99)
        n, m = 3, 2
        for _ in range(50):
            M = rng.standard_normal((n + m, n + m))
            G2 = symmetrize(M.T @ M + 0.1 * np.eye(n + m))
            W = rng.standard_normal((n + m, n + m))
            G1 = symmetrize(G2 + W.T @ W)
            gap = pi_map(G1, n) - pi_map(G2, n)
            assert np.linalg.eigvalsh(gap).min() >= -1e-10


class TestModelValidation:
    def test_rejects_indefinite_R(self):
        with pytest.raises(ValueError, match="R must be positive definite"):
            SystemModel(A=[[1.0]], A_bar=[[0.0]], B=[[1.0]], B_bar=[[0.0]],
                        Q=[[1.0]], R=[[0.0]])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            SystemModel(A=[[1.0]], A_bar=[[0.0]], B=[[1.0]], B_bar=[[0.0]],
                        Q=np.eye(2), R=[[1.0]])

    @pytest.mark.parametrize("n, m", [(1, 0), (0, 1)])
    def test_rejects_system_without_state_or_input(self, n, m):
        # A config cannot reach this case: its matrices have at least one
        # row, so it cannot write the (0, 0) A or R that n = 0 or m = 0
        # needs, and its shape checks reject a B of [[]] first.
        with pytest.raises(ValueError, match=f"got n = {n} and m = {m}"):
            SystemModel(A=np.full((n, n), 0.5), A_bar=np.zeros((n, n)),
                        B=np.zeros((n, m)), B_bar=np.zeros((n, m)),
                        Q=np.eye(n), R=np.eye(m))

    @pytest.mark.parametrize("field, value, message", [
        ("A", [0.5, 0.5], re.escape("A must be a 2-D matrix, got shape (2,)")),
        ("Q", [[1.0, 0.5], [0.0, 1.0]], "Q must be symmetric"),
    ], ids=["1-d", "asymmetric"])
    def test_rejects_bad_matrix(self, bench_sys, field, value, message):
        matrices = {name: getattr(bench_sys, name)
                    for name in ("A", "A_bar", "B", "B_bar", "Q", "R")}
        with pytest.raises(ValueError, match=message):
            SystemModel(**{**matrices, field: value})

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            NoiseModel(mu=0.0, sigma2=-1.0)

    @pytest.mark.parametrize(
        "mu, sigma2",
        [(np.nan, 0.1), (np.inf, 0.1), (-np.inf, 0.1), (0.0, np.nan), (0.0, np.inf)],
    )
    def test_rejects_non_finite_moments(self, mu, sigma2):
        with pytest.raises(ValueError, match="finite"):
            NoiseModel(mu=mu, sigma2=sigma2)

    def test_qfactor_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            QFactor(np.array([[1.0, 2.0], [0.0, 1.0]]), 1, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_qfactor_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            QFactor(np.array([[1.0, 0.0], [0.0, bad]]), 1, 1)
