"""Centralized stochastic-approximation learner.

The learner never sees the noise statistics. It observes sampled plant
matrices (A(k), B(k)) and iterates

    G(k+1) = G(k) + alpha(k) * Y(G(k)),

where Y rebuilds the sampled Bellman residual from the current Q-factor and
alpha(k) follows a Robbins-Monro power-law schedule. Under well-posedness the
iterates converge almost surely to the fixed point G* of the expectation map.

This is the 1-sensor case of the distributed learner (no neighbors, L_1 = I):
both entry points here run lqlearn.distributed on a 1-sensor SensorBank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .lqcore import NoiseModel, SystemModel, pi_map, symmetrize
from .network import allocate_gains, build_graph, consensus_operator
from .sampling import RngStream
from .trace import RunTrace

if TYPE_CHECKING:
    from .distributed import SensorBank

# Abort threshold on ||G||_F; a capped abort with diagnostics beats silent NaN
# when an adversarial seed blows up the heavy-tailed early steps. A NaN norm
# trips it too.
DIVERGENCE_CAP = 1e9
# A Python float, so comparing an int with it is exact and cannot overflow.
_FLOAT_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class Schedule:
    """Power-law learning rates alpha(k) = scale * (1 / (k + offset))^exponent.

    The exponent range (0.5, 1] guarantees sum(alpha) = inf and
    sum(alpha^2) < inf. scale = 0 is allowed as a degenerate diagnostic mode
    (consensus-only rounds); any positive scale must keep alpha(0) < 1.
    """

    exponent: float = 0.6
    offset: int = 2
    scale: float = 1.0

    def __post_init__(self):
        if not 0.5 < self.exponent <= 1.0:
            raise ValueError(f"exponent must be in (0.5, 1], got {self.exponent}")
        # "not 1 <= offset <= max" is true for NaN and infinities as well, and
        # for an integer too large to convert to a float (alpha divides by it).
        if not 1 <= self.offset <= _FLOAT_MAX or int(self.offset) != self.offset:
            # Such an integer is named by its size: str() of one longer than
            # 4300 digits raises.
            got = (f"an integer of {self.offset.bit_length()} bits"
                   if isinstance(self.offset, int) and self.offset > _FLOAT_MAX
                   else self.offset)
            raise ValueError(
                f"offset must be an integer >= 1 that converts to a finite "
                f"float, got {got}"
            )
        if not self.scale >= 0.0:  # NaN fails too
            raise ValueError(f"scale must be >= 0, got {self.scale}")
        if self.scale > 0.0 and self.alpha(0) >= 1.0:
            raise ValueError(
                "alpha(0) must be < 1; increase offset or lower scale"
            )

    def alpha(self, k: int) -> float:
        return self.scale * (1.0 / (k + self.offset)) ** self.exponent


def y_operator(
    G: np.ndarray,
    Uk: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
) -> np.ndarray:
    """Sampled Bellman residual at the raw (n+m)x(n+m) estimate G for one
    sampled plant Uk = [A_k B_k] (see sampling.realize). G may be a stack of
    estimates, S + (n+m, n+m), and Uk a stack of plants, S + (n, n+m); either
    broadcasts against the other, and the result is the stack of residuals,
    S + (n+m, n+m). Each entry has the bits of a call on its own G and Uk.

    [[Q + A_k' P A_k, A_k' P B_k], [B_k' P A_k, B_k' P B_k + R]] - G
    with P = pi_map(G); symmetrized. Its expectation under the true noise law
    vanishes exactly at G*.
    """
    n = Q.shape[0]
    P = pi_map(G, n)
    M = Uk.swapaxes(-1, -2) @ P @ Uk
    M[..., :n, :n] += Q
    M[..., n:, n:] += R
    M -= G
    return symmetrize(M)


def single_sensor(sys: SystemModel):
    """(graph, gains) of the centralized learner: one sensor, no edges, L_1 = I."""
    graph = build_graph("single")
    return graph, allocate_gains(graph, (sys.n, sys.m), "uniform")


def centralized_step(
    bank: SensorBank,
    sys: SystemModel,
    Uk: np.ndarray,
    sched: Schedule,
) -> SensorBank:
    """One update G <- G + alpha(k) Y(G) of a 1-sensor bank: a distributed
    round on the single-sensor network."""
    from .distributed import distributed_round

    graph, gains = single_sensor(sys)
    return distributed_round(bank, sys, consensus_operator(graph), gains, Uk, sched)


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
    from .distributed import run_distributed

    graph, gains = single_sensor(sys)
    return run_distributed(sys, noise, graph, gains, sched, iters, rng, oracle=oracle)
