"""Property tests of the oracle on generated mean-square stable systems.

The 60 systems come from fixed numpy seeds, so the set checked does not move
when a literal changes anywhere in the package."""

import numpy as np
import pytest
import scipy.linalg

from lqlearn import (
    Gain,
    NoiseModel,
    SystemModel,
    expectation_map,
    gamma_map,
    ms_stability_check,
    optimal_gain_closed_form,
    pi_map,
    realize,
    riccati_residual,
    solve_oracle,
    symmetrize,
    y_operator,
)

EPS = np.finfo(float).eps


def stable_problem(seed):
    """(system, noise) with n in {1,2,3}, m in {1,2} and entries in [-1, 1],
    whose open loop K = 0 is mean-square stable with radius below 0.99, so
    the oracle converges. A draw that misses the margin is redrawn from the
    same stream.

    The margin bounds the solve: a weakly actuated system with an open-loop
    radius near 1 has a large G* that Picard approaches about as slowly as
    the open loop decays, past the iteration cap (NoConvergenceError)."""
    rng = np.random.default_rng(seed)

    def mat(rows, cols):
        return rng.uniform(-1.0, 1.0, (rows, cols))

    while True:
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        Lq, Lr = mat(n, n), mat(m, m)
        system = SystemModel(
            A=mat(n, n), A_bar=mat(n, n), B=mat(n, m), B_bar=mat(n, m),
            Q=Lq @ Lq.T + 0.1 * np.eye(n), R=Lr @ Lr.T + 0.1 * np.eye(m),
        )
        noise = NoiseModel(rng.uniform(-1.0, 1.0), rng.uniform(0.0, 1.0))
        open_loop = ms_stability_check(Gain(np.zeros((m, n))), system, noise)
        if open_loop.spectral_radius < 0.99:
            return system, noise


@pytest.mark.parametrize("seed", range(60))
def test_oracle_identities_on_generated_systems(seed):
    system, noise = stable_problem(seed)
    oracle = solve_oracle(system, noise)
    G = oracle.G_star.mat

    assert riccati_residual(oracle.P, system, noise) <= 1e-8
    closed = optimal_gain_closed_form(oracle.P, system, noise)
    assert np.abs(closed.K - gamma_map(G, system.n).K).max() <= 1e-8

    # y_operator is quadratic in w: its average over mu -/+ sd is exact.
    sd = np.sqrt(noise.sigma2)
    plants = realize(system, np.array([noise.mu - sd, noise.mu + sd]))
    two_point = y_operator(G, plants, system.Q, system.R).mean(axis=0)
    exact = expectation_map(G, system, noise) - G
    assert np.abs(two_point - exact).max() <= 1e-12 * max(1.0, np.abs(G).max())

    # Independent references: the expectations expanded through the first two
    # noise moments, term by term, rather than averaged over the two nodes.
    # Each entry of either side is a short sum of products, so the two agree
    # to a few dozen roundings of the same sum taken over absolute values.
    mu, m2 = noise.mu, noise.mu * noise.mu + noise.sigma2
    w_max = abs(noise.mu) + np.sqrt(noise.sigma2)

    U, V = system.stacked()
    P = pi_map(G, system.n)
    upv = U.T @ P @ V
    H_ref = system.cost_block() + U.T @ P @ U + mu * (upv + upv.T) + m2 * V.T @ P @ V
    W = np.abs(U) + w_max * np.abs(V)
    H_mag = np.abs(system.cost_block()) + W.T @ np.abs(P) @ W
    assert np.all(np.abs(expectation_map(G, system, noise) - symmetrize(H_ref))
                  <= 64 * EPS * H_mag)

    K = oracle.K_star.K
    Acl, Abcl = system.A + system.B @ K, system.A_bar + system.B_bar @ K
    T_ref = (np.kron(Acl, Acl) + mu * (np.kron(Acl, Abcl) + np.kron(Abcl, Acl))
             + m2 * np.kron(Abcl, Abcl))
    M_mag = np.abs(Acl) + w_max * np.abs(Abcl)
    # First-order (Bauer-Fike) bound on the radius: the operators differ by
    # a few dozen roundings of M_mag (x) M_mag, whose norm is at most its
    # entry sum M_mag.sum()^2 (a sum of squares could underflow), and the
    # dominant eigenvalue moves by at most its condition number times that.
    vals, left, right = scipy.linalg.eig(T_ref, left=True, right=True)
    i = np.abs(vals).argmax()
    x, y = right[:, i], left[:, i]
    with np.errstate(divide="ignore"):
        kappa = np.linalg.norm(x) * np.linalg.norm(y) / abs(np.vdot(y, x))
    delta = 64 * EPS * M_mag.sum() ** 2
    # A defective dominant eigenvalue (y'x = 0, as for a nilpotent closed
    # loop) has no first-order bound. Elsner's theorem bounds it instead:
    # (||T|| + ||T_ref||)^(1 - 1/N) delta^(1/N) for N x N operators.
    N = len(vals)
    if np.isfinite(kappa):
        bound = kappa * delta
    else:
        bound = (2 * M_mag.sum() ** 2) ** (1 - 1 / N) * delta ** (1 / N)
    radius = ms_stability_check(oracle.K_star, system, noise).spectral_radius
    assert abs(radius - np.abs(np.linalg.eigvals(T_ref)).max()) <= bound
