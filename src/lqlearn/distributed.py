"""Distributed learner: consensus-plus-innovation rounds over a sensor graph.

Each of the N sensors keeps its own Q-factor estimate and, once per
synchronous round, computes from the pre-round estimates (Jacobi-style)

    G_i <- G_i + w * sum_{j in N_i} (G_j - G_i) + alpha(k) * L_i Y(G_i),

where w is the consensus weight, L_i the sensor's innovation gain
(sum_i L_i = N*I) and Y the sampled Bellman residual. The N estimates are
held as one (N, d, d) array, and each step of a round runs once on the whole
stack. With a single sensor and L_1 = I the round is exactly the centralized
iteration, which is how lqlearn.qlearning runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergedError, SeedMismatchError
from .lqcore import NoiseModel, SystemModel, symmetrize
from .network import ConsensusOperator, Graph, consensus_operator
from .qlearning import DIVERGENCE_CAP, Schedule, y_operator
from .sampling import RngStream, draw_noise, realize
from .trace import RunTrace, block_rounds

# Substream namespaces under the experiment stream: spread-init jitter and
# per-sensor noise for the independent-noise mode.
_NS_JITTER = 1
_NS_SENSOR_NOISE = 2


@dataclass(frozen=True)
class SensorBank:
    """Per-sensor estimates after round k, stacked as one (N, d, d) array."""

    G: np.ndarray
    k: int

    @property
    def n_sensors(self) -> int:
        return self.G.shape[0]


def distributed_round(
    bank: SensorBank,
    sys: SystemModel,
    cons: ConsensusOperator,
    gains: np.ndarray,
    Uk: np.ndarray,
    sched: Schedule,
) -> SensorBank:
    """One synchronous round from the pre-round estimates.

    Uk is one sampled plant [A_k B_k] (n x (n+m)) shared by every sensor, or
    an (N, n, n+m) stack with one plant per sensor (see sampling.realize).
    All sensors read the same pre-round neighbor values; updates commit
    together (simultaneous Jacobi sweep). Mixing, innovation (L_i Y_i as the
    row scaling by gains[i], the diagonal of L_i; see
    network.allocate_gains), symmetrization and the divergence guard each
    run once on the whole stack.
    """
    N = bank.n_sensors
    Uk = np.broadcast_to(Uk, (N, sys.n, sys.n + sys.m))
    if gains.shape[0] != N or cons.graph.n_sensors != N:
        raise ValueError("bank, consensus operator and gains must agree on "
                         "the sensor count")

    alpha = sched.alpha(bank.k)
    G = bank.G
    Y = np.empty_like(G)
    for i in range(N):
        Y[i] = y_operator(G[i], Uk[i], sys.Q, sys.R)
    # alpha * (gains * Y), scaled in place in that order.
    Y *= gains[:, :, None]
    Y *= alpha
    if cons.graph.edges:
        # L.G taken over the pairwise differences G_j - G_i (rows of L sum
        # to zero), so estimates that agree stay bit-exact on any graph.
        G = G - cons.w * np.einsum("ij,ijab->iab", cons.L, G[None] - G[:, None])
    # Without edges L = 0 and the mixing term is exact zeros: G stays G.
    Y += G
    G = symmetrize(Y)

    # max() propagates NaN, and "not <=" is true for NaN as well as overflow.
    norms = np.linalg.norm(G, axis=(1, 2))
    if not norms.max() <= DIVERGENCE_CAP:
        i = int(np.argmin(norms <= DIVERGENCE_CAP))
        raise DivergedError(
            f"sensor {i} left ||G||_F <= {DIVERGENCE_CAP:g} (norm {norms[i]:g}) "
            f"at round {bank.k + 1}",
            step=bank.k + 1,
            sensor=i,
            norm=float(norms[i]),
        )
    return SensorBank(G=G, k=bank.k + 1)


def _psd_jitter(rng: RngStream, d: int, scale: float) -> np.ndarray:
    """Seeded symmetric PSD perturbation with Frobenius norm = scale."""
    M = draw_noise(rng, NoiseModel(0.0, 1.0), d * d).reshape(d, d)
    E = symmetrize(M.T @ M)
    return scale * E / np.linalg.norm(E)


def initial_bank(
    sys: SystemModel,
    n_sensors: int,
    rng: RngStream,
    init: str = "identity",
    spread_scale: float = 0.1,
) -> SensorBank:
    """All sensors at diag(Q, R); "spread" adds per-sensor PSD jitter so the
    consensus dynamics are visible from round one."""
    if not spread_scale >= 0.0:  # NaN fails too
        raise ValueError(f"spread_scale must be >= 0, got {spread_scale}")
    base = sys.cost_block()
    d = sys.n + sys.m
    if init == "identity":
        G = np.repeat(base[None], n_sensors, axis=0)
    elif init == "spread":
        jitters = (
            _psd_jitter(rng.substream(_NS_JITTER, i), d, spread_scale)
            for i in range(n_sensors)
        )
        G = np.stack([symmetrize(base + e) for e in jitters])
    else:
        raise ValueError(f"unknown initialization mode {init!r}")
    return SensorBank(G=G, k=0)


def run_distributed(
    sys: SystemModel,
    noise: NoiseModel,
    graph: Graph,
    gains: np.ndarray,
    sched: Schedule,
    rounds: int,
    rng: RngStream,
    oracle=None,
    w: float | None = None,
    shared_noise: bool = True,
    init: str = "identity",
    spread_scale: float = 0.1,
) -> RunTrace:
    """Execute synchronous rounds and record the full trace.

    gains is the (N, d) array of innovation-gain diagonals that
    network.allocate_gains builds. The whole (rounds, N) noise tape is drawn
    before the first round. The rounds are stepped in blocks of
    trace.block_rounds: a block's sampled plants are built at its start,
    its post-update estimates fill one (B, N, d, d) array, and the trace
    measures that block when it is done, so the metrics' memory is bounded
    by the block. shared_noise=True evaluates every sensor's residual on the
    same sampled plant (one draw per round from rng); otherwise each sensor
    owns a private noise substream. When an oracle is supplied the trace
    also records the error of the averaged iterate to G*.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    cons = consensus_operator(graph, w)
    N = graph.n_sensors

    bank = initial_bank(sys, N, rng, init=init, spread_scale=spread_scale)
    streams = [rng] if shared_noise else [
        rng.substream(_NS_SENSOR_NOISE, i) for i in range(N)
    ]
    # (rounds, 1) with shared noise, else (rounds, N).
    tape = np.stack([draw_noise(r, noise, rounds) for r in streams], axis=1)

    trace = RunTrace(N, G_star=None if oracle is None else oracle.G_star.mat)
    B = block_rounds(N, sys.n + sys.m)
    G = np.empty((min(B, rounds), *bank.G.shape))
    alphas = np.empty(len(G))
    for start in range(0, rounds, B):
        block = tape[start:start + B]
        b = len(block)
        for j, Uk in enumerate(realize(sys, block)):
            alphas[j] = sched.alpha(bank.k)
            bank = distributed_round(bank, sys, cons, gains, Uk, sched)
            G[j] = bank.G
        trace.record_round(alphas[:b], np.broadcast_to(block, (b, N)), G[:b])
    return trace


@dataclass(frozen=True)
class ComparisonReport:
    """Gap Delta(k) = ||Gbar(k) - G(k)||_F between the averaged distributed
    iterate and the centralized iterate driven by the same noise."""

    gaps: np.ndarray
    final_gap: float
    max_gap: float

    @property
    def n_rounds(self) -> int:
        return len(self.gaps)


def compare_centralized(trace_d: RunTrace, trace_c: RunTrace) -> ComparisonReport:
    """Measure the distributed-to-centralized gap round by round.

    trace_c must be a 1-sensor trace. Both traces must come from the same
    seed with shared noise; any omega discrepancy raises SeedMismatchError
    naming the first round where it occurs.
    """
    if trace_c.n_sensors != 1:
        raise ValueError(f"centralized trace needs 1 sensor, got {trace_c.n_sensors}")
    if trace_d.n_rounds != trace_c.n_rounds:
        raise ValueError(
            f"round counts differ: {trace_d.n_rounds} vs {trace_c.n_rounds}"
        )
    differ = (np.asarray(trace_d.omegas) != np.asarray(trace_c.omegas)).any(axis=1)
    if differ.any():
        raise SeedMismatchError(
            f"noise sequences differ at round {differ.argmax() + 1}; traces must "
            "share a seed and use shared noise"
        )
    diff = np.asarray(trace_d.mean_history) - np.asarray(trace_c.mean_history)
    gaps = np.linalg.norm(diff, axis=(1, 2))
    return ComparisonReport(
        gaps=gaps, final_gap=float(gaps[-1]), max_gap=float(gaps.max())
    )
