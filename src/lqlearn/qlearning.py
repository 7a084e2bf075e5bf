"""Centralized stochastic-approximation learner.

The learner never sees the noise statistics. It observes sampled plant
matrices (A(k), B(k)) and iterates

    G(k+1) = G(k) + alpha(k) * Y(G(k)),

where Y rebuilds the sampled Bellman residual from the current Q-factor and
alpha(k) follows a Robbins-Monro power-law schedule. Under well-posedness the
iterates converge almost surely to the fixed point G* of the expectation map.

This is the 1-sensor case of the distributed round (no neighbors, L_1 = I),
so both entry points here run lqlearn.distributed.distributed_round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lqcore import PINV_TOL, QFactor, SystemModel, NoiseModel, _schur, symmetrize
from .network import allocate_gains, build_graph, consensus_operator
from .sampling import RngStream
from .trace import RunTrace

# Abort threshold on ||G||_F; a capped abort with diagnostics beats silent NaN
# when an adversarial seed blows up the heavy-tailed early steps. A NaN norm
# trips it too.
DIVERGENCE_CAP = 1e9


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
        if self.offset < 1 or int(self.offset) != self.offset:
            raise ValueError(f"offset must be an integer >= 1, got {self.offset}")
        if self.scale < 0.0:
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
    pinv_tol: float = PINV_TOL,
) -> np.ndarray:
    """Sampled Bellman residual at the raw (n+m)x(n+m) estimate G for one
    sampled plant Uk = [A_k B_k] (see sampling.realize), or for each plant of
    a stack Uk of shape S + (n, n+m), giving S + (n+m, n+m).

    [[Q + A_k' P A_k, A_k' P B_k], [B_k' P A_k, B_k' P B_k + R]] - G
    with P = pi_map(G); symmetrized. Its expectation under the true noise law
    vanishes exactly at G*.
    """
    n = Q.shape[0]
    P = _schur(G, n, pinv_tol)
    M = Uk.swapaxes(-1, -2) @ P @ Uk
    M[..., :n, :n] += Q
    M[..., n:, n:] += R
    return symmetrize(M - G)


@dataclass(frozen=True)
class LearnerState:
    """Current iterate of the centralized learner."""

    G: QFactor
    k: int


def _single_sensor(sys: SystemModel):
    graph = build_graph("single")
    return graph, allocate_gains(graph, (sys.n, sys.m), "uniform")


def centralized_step(
    state: LearnerState,
    sys: SystemModel,
    Uk: np.ndarray,
    sched: Schedule,
) -> LearnerState:
    """One update G <- G + alpha(k) Y(G): a distributed round on one sensor."""
    from .distributed import SensorBank, distributed_round

    graph, gains = _single_sensor(sys)
    bank = SensorBank(G=state.G.mat[None], k=state.k)
    bank = distributed_round(
        bank, sys, consensus_operator(graph), gains, Uk, sched
    )
    return LearnerState(G=QFactor(bank.G[0], sys.n, sys.m), k=bank.k)


def run_centralized(
    sys: SystemModel,
    noise: NoiseModel,
    sched: Schedule,
    iters: int,
    rng: RngStream,
    oracle=None,
    G0: QFactor | None = None,
) -> RunTrace:
    """Run the stochastic approximation for a fixed iteration budget.

    Draws exactly one omega per iteration (A(k) and B(k) share it). When an
    oracle solution is supplied the trace records the Frobenius error to G*
    per step.
    """
    from .distributed import run_distributed

    graph, gains = _single_sensor(sys)
    trace = run_distributed(
        sys, noise, graph, gains, sched, iters, rng, oracle=oracle, G0=G0
    )
    trace.kind = "centralized"
    return trace
