"""Distributed Q-learning over a 4-sensor ring.

Each sensor keeps its own estimate and per round applies a consensus step
toward its neighbors plus a gained innovation step on the sampled residual:

    G_i <- G_i + w * sum_{j in N_i} (G_j - G_i) + alpha(k) * L_i Y(G_i)

The demo starts the sensors apart (spread initialization), tracks the
consensus diameter, and measures how the averaged iterate tracks the
centralized run driven by the same noise sequence.
"""

from lqlearn import (
    NoiseModel,
    RngStream,
    Schedule,
    SystemModel,
    allocate_gains,
    build_graph,
    compare_centralized,
    consensus_operator,
    run_centralized,
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
schedule = Schedule(exponent=0.6, offset=2)

graph = build_graph("ring:4")
cons = consensus_operator(graph)
print(f"ring(4): consensus weight w = {cons.w:.4f}, "
      f"disagreement contraction rho = {cons.rho:.4f}")

oracle = solve_oracle(system, noise)
alloc = allocate_gains(graph, (system.n, system.m), "uniform")
rounds = 200

trace = run_distributed(system, noise, graph, alloc, schedule, rounds,
                        RngStream(0), oracle=oracle, init="spread")

print(f"\nround | diameter  max_i ||G_i - G*||")
for k in (1, 10, 50, 100, 200):
    print(f" {k:4d} | {trace.diameters[k-1]:.2e}   {max(trace.fro_err[k-1]):.4f}")

# same seed, same noise sequence: how far is the averaged iterate from the
# centralized learner it should shadow?
central = run_centralized(system, noise, schedule, rounds, RngStream(0),
                          oracle=oracle)
gaps = compare_centralized(trace, central)
print(f"\ngap to centralized: Delta(10) = {gaps[9]:.4f}, "
      f"Delta(200) = {gaps[199]:.4f}")

# a single sensor with L_1 = I is exactly the centralized iteration
single = build_graph("single")
t_single = run_distributed(system, noise, single,
                           allocate_gains(single, (2, 1), "uniform"),
                           schedule, rounds, RngStream(0), oracle=oracle)
identical = list(t_single.csv_rows()) == list(central.csv_rows())
print("single-sensor run identical to centralized:", identical)
