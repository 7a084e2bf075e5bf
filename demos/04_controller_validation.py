"""From learned Q-factor to a certified controller.

After a distributed run, the averaged final estimate yields a feedback gain
through the block map. The demo checks it three ways: distance to the oracle
gain K*, the mean-square stability certificate, and a seeded Monte Carlo
estimate of the closed-loop cost against the value function x0' P x0.
"""

import numpy as np

from lqlearn import (
    NoiseModel,
    RngStream,
    Schedule,
    SystemModel,
    allocate_gains,
    build_graph,
    gamma_map,
    monte_carlo_cost,
    ms_stability_check,
    run_distributed,
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
oracle = solve_oracle(system, noise)

graph = build_graph("ring:4")
alloc = allocate_gains(graph, (2, 1), "uniform")
trace = run_distributed(system, noise, graph, alloc, Schedule(), 5000,
                        RngStream(0), oracle=oracle)

K_learned = gamma_map(trace.final_mean(), system.n)
print("learned gain :", K_learned.K)
print("oracle gain  :", oracle.K_star.K)
print("gain gap     :", f"{np.linalg.norm(K_learned.K - oracle.K_star.K):.4f}")

report = ms_stability_check(K_learned, system, noise)
print("mean-square stable:", report.stable,
      f"(spectral radius {report.spectral_radius:.4f})")

x0 = np.array([1.0, 1.0])
value = float(x0 @ oracle.P @ x0)
est = monte_carlo_cost(system, noise, K_learned, x0, horizon=400,
                       n_runs=2000, rng=RngStream(0, 1))
print(f"\nMonte Carlo cost under the learned gain: "
      f"{est.mean:.4f} +/- {est.std_err:.4f}")
print(f"optimal value x0' P x0               : {value:.4f}")
print(f"gap in standard errors               : "
      f"{abs(est.mean - value) / est.std_err:.2f}")
