"""Centralized stochastic approximation: the N = 1 front end of distributed.

The learner never sees the noise statistics. It observes sampled plant
matrices (A(k), B(k)) and iterates

    G(k+1) = G(k) + alpha(k) * Y(G(k)),

where Y rebuilds the sampled Bellman residual from the current Q-factor and
alpha(k) follows a Robbins-Monro power-law schedule. Under well-posedness the
iterates converge almost surely to the fixed point G* of the expectation map.

This is the 1-sensor case of the distributed learner (no neighbors, L_1 = I):
both entry points here run lqlearn.distributed on the single-sensor network,
so the state of one step is a (1, d, d) array. The Schedule and the
divergence guard belong to that round, and Y (y_operator) to lqcore.
"""

from __future__ import annotations

import numpy as np

from .distributed import Schedule, distributed_round, run_distributed
from .lqcore import NoiseModel, SystemModel
from .lqcore import y_operator  # noqa: F401  (re-exported: the learner's residual)
from .network import allocate_gains, build_graph, consensus_operator
from .sampling import RngStream
from .trace import RunTrace


# The centralized learner's network, built once: one sensor, no edges.
_SINGLE = consensus_operator(build_graph("single"))


def single_sensor(sys: SystemModel):
    """(graph, gains) of the centralized learner: one sensor, no edges, L_1 = I."""
    return _SINGLE.graph, allocate_gains(_SINGLE.graph, (sys.n, sys.m), "uniform")


def centralized_step(
    G: np.ndarray,
    k: int,
    sys: SystemModel,
    Uk: np.ndarray,
    sched: Schedule,
) -> np.ndarray:
    """One update G <- G + alpha(k) Y(G) of the (1, d, d) estimate after
    step k, returned as a new array: a distributed round on the
    single-sensor network."""
    _, gains = single_sensor(sys)
    return distributed_round(G, k, sys, _SINGLE, gains, Uk, sched)


def run_centralized(
    sys: SystemModel,
    noise: NoiseModel,
    sched: Schedule,
    iters: int,
    rng: RngStream,
    oracle=None,
) -> RunTrace:
    """Run the stochastic approximation for a fixed iteration budget.

    Draws exactly one omega per iteration (A(k) and B(k) share it). When an
    oracle solution is supplied the trace records the Frobenius error to G*
    per step.
    """
    graph, gains = single_sensor(sys)
    return run_distributed(sys, noise, graph, gains, sched, iters, rng, oracle=oracle)
