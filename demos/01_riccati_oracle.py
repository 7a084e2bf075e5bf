"""Ground-truth pipeline: solve the generalized Riccati equation.

The plant x(k+1) = (A + Abar*w)x + (B + Bbar*w)u has a scalar Gaussian
multiplicative noise w ~ N(mu, sigma2). With the statistics known, the
optimal Q-factor G* is the fixed point of a deterministic expectation map;
its Schur complement is the Riccati solution P and its blocks give the
optimal feedback gain K*.
"""

import numpy as np

from lqlearn import (
    NoiseModel,
    SystemModel,
    gamma_map,
    ms_stability_check,
    optimal_gain_closed_form,
    riccati_residual,
    solve_oracle,
)

system = SystemModel(
    A=[[0.2, 0.0], [0.0, 0.6]],
    A_bar=[[0.7, 0.0], [0.0, 0.8]],
    B=[[0.7], [0.3]],
    B_bar=[[0.1], [0.7]],
    Q=[[0.4, 0.0], [0.0, 0.7]],
    R=[[1.0]],
)
noise = NoiseModel(mu=1.0, sigma2=0.1)

oracle = solve_oracle(system, noise, oracle_tol=1e-12)
np.set_printoptions(precision=6, suppress=True)

print("Picard iterations:", oracle.iterations)
print("fixed-point residual:", f"{oracle.residual:.3e}")
print("\nQ-factor G* =\n", oracle.G_star.mat)
print("\nRiccati solution P = Pi(G*) =\n", oracle.P)
print("Riccati residual:", f"{riccati_residual(oracle.P, system, noise):.3e}")

# the gain from the Q-factor blocks agrees with the fully expanded formula
K_blocks = gamma_map(oracle.G_star.mat, system.n)
K_closed = optimal_gain_closed_form(oracle.P, system, noise)
print("\nK* from blocks      :", K_blocks.K)
print("K* from closed form :", K_closed.K)

report = ms_stability_check(oracle.K_star, system, noise)
print("\nmean-square stable:", report.stable,
      f"(second-moment spectral radius {report.spectral_radius:.4f})")
