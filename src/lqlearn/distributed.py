"""Distributed learner: consensus-plus-innovation rounds over a sensor graph.

Each of the N sensors keeps its own Q-factor estimate and, once per
synchronous round, computes from the pre-round estimates (Jacobi-style)

    G_i <- G_i + w * sum_{j in N_i} (G_j - G_i) + alpha(k) * L_i Y(G_i),

where w is the consensus weight, L_i the sensor's innovation gain
(sum_i L_i = N*I), alpha(k) the step of a power-law Schedule and Y the
sampled Bellman residual (lqcore.y_operator). The round owns its Schedule
and its divergence guard, DIVERGENCE_CAP on ||G_i||_F. The learner's whole
state is the N estimates, held as one plain (N, d, d) array: initial_bank
returns it, and distributed_round takes it with the index k of the round
just done and returns a new array. Each step of a round runs once on the
whole stack, the residuals included: one y_operator call per round. run_seeds
learns S seeds (independent noise streams) at once on one (S, N, d, d)
stack, so a round is still one y_operator call, one mixing step, one
symmetrize and one guard; a seed that trips the guard leaves the stack and
the others go on. Mixing takes one pass per neighbour column, so a round's
memory is linear in the sensors. Each seed's trace and error equal those of
its run alone, bit for bit, and run_distributed is the one-seed case. Only
the two SVDs of each G_uu block still run block by block, inside
lqcore._pinv_uu. With a single sensor and L_1 = I the round is exactly the
centralized iteration, which is how lqlearn.qlearning runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergedError, SeedMismatchError
from .lqcore import NoiseModel, SystemModel, realize, symmetrize, y_operator
from .network import ConsensusOperator, Graph, consensus_operator
from .sampling import RngStream, draw_noise_rows
from .trace import RunTrace, block_rounds

# Substream namespaces under the experiment stream: spread-init jitter and
# per-sensor noise for the independent-noise mode.
_NS_JITTER = 1
_NS_SENSOR_NOISE = 2

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


def _mix(G: np.ndarray, cons: ConsensusOperator) -> np.ndarray:
    """G - w L.G on a stack of banks G, shape S + (N, d, d), with L.G each
    sensor's sum from +0 of G_i - G_j over its neighbours j in ascending j:
    a padded column adds an exact +0, so these are the bits of the dense sum
    over all pairs weighted by L, and estimates that agree stay bit-exact."""
    acc = np.zeros_like(G)
    for col in cons.graph.neighbor_columns:
        acc += G - G.take(col, axis=-3)
    return G - cons.w * acc


def _round(
    G: np.ndarray,
    Uk: np.ndarray,
    sys: SystemModel,
    cons: ConsensusOperator,
    gains: np.ndarray,
    alpha: float,
    k: int,
) -> tuple[np.ndarray, dict]:
    """Round k + 1 on a stack of banks G, shape S + (N, d, d), at step size
    alpha; Uk broadcasts to S + (N, n, n+m).

    Returns the post-round stack and, for each index in S whose bank left the
    guard, the DivergedError its bank alone raises. Every bank of the stack
    gets the bits of a round on its own, and every temporary is a stack of
    S + (N, ...) blocks: none is N x N.
    """
    Y = y_operator(G, Uk, sys.Q, sys.R)
    # alpha * (gains * Y), scaled in place in that order.
    Y *= gains[:, :, None]
    Y *= alpha
    Y += _mix(G, cons)
    G = symmetrize(Y)

    # The norms as np.linalg.norm(G, axis=(-2, -1)) takes them, minus its
    # dispatch.
    norms = np.sqrt(np.add.reduce(G * G, axis=(-2, -1)))
    diverged = {}
    # max() propagates NaN, and "not <=" is true for NaN as well as overflow.
    if not norms.max() <= DIVERGENCE_CAP:
        for s in np.ndindex(norms.shape[:-1]):
            out = ~(norms[s] <= DIVERGENCE_CAP)
            if out.any():
                i = int(out.argmax())
                diverged[s] = DivergedError(
                    f"sensor {i} left ||G||_F <= {DIVERGENCE_CAP:g} "
                    f"(norm {norms[s][i]:g}) at round {k + 1}",
                    step=k + 1,
                    sensor=i,
                    norm=float(norms[s][i]),
                )
    return G, diverged


def _check_gains(gains: np.ndarray, N: int, sys: SystemModel) -> None:
    shape = (N, sys.n + sys.m)
    if np.shape(gains) != shape:
        raise ValueError(f"gains must have shape {shape}, got {np.shape(gains)}")


def distributed_round(
    G: np.ndarray,
    k: int,
    sys: SystemModel,
    cons: ConsensusOperator,
    gains: np.ndarray,
    Uk: np.ndarray,
    sched: Schedule,
) -> np.ndarray:
    """Round k + 1 from the (N, d, d) estimates G after round k; returns the
    estimates after it as a new array, leaving G as it was.

    Uk is one sampled plant [A_k B_k] (n x (n+m)) shared by every sensor, or
    an (N, n, n+m) stack with one plant per sensor (see lqcore.realize).
    All sensors read the same pre-round neighbor values; updates commit
    together (simultaneous Jacobi sweep). The innovation L_i Y_i is the row
    scaling by gains[i], the diagonal of L_i (see network.allocate_gains).
    A rank-deficient G_uu warns once per round, naming the first such
    sensor's index.
    """
    if cons.graph.n_sensors != G.shape[0]:
        raise ValueError("bank and consensus operator must agree on the sensor count")
    d = sys.n + sys.m
    if G.shape[1:] != (d, d):
        raise ValueError(f"bank must have shape {(G.shape[0], d, d)}, got {G.shape}")
    _check_gains(gains, G.shape[0], sys)
    G, diverged = _round(G, np.asarray(Uk, dtype=float), sys, cons, gains,
                         sched.alpha(k), k)
    if diverged:
        raise diverged[()]
    return G


def _psd_jitter(M: np.ndarray, scale: float) -> np.ndarray:
    """Symmetric PSD perturbations M'M of a stack of square M, each scaled
    to Frobenius norm = scale. A vector @ vector matmul is a dot product, as
    np.linalg.norm of one matrix takes it, so each norm keeps those bits."""
    E = symmetrize(M.swapaxes(-1, -2) @ M)
    e = E.reshape(len(E), -1)
    return scale * E / np.sqrt(e[:, None] @ e[:, :, None])


def initial_bank(
    sys: SystemModel,
    n_sensors: int,
    rng: RngStream,
    init: str = "identity",
    spread_scale: float = 0.1,
) -> np.ndarray:
    """The (N, d, d) estimates before round one: all sensors at diag(Q, R);
    "spread" adds per-sensor PSD jitter so the consensus dynamics are
    visible from round one. Sensor i's jitter comes from d x d standard
    normals of its own substream of rng; the N draws are one
    draw_noise_rows call."""
    if not spread_scale >= 0.0:  # NaN fails too
        raise ValueError(f"spread_scale must be >= 0, got {spread_scale}")
    base = sys.cost_block()
    d = sys.n + sys.m
    if init == "identity":
        G = np.repeat(base[None], n_sensors, axis=0)
    elif init == "spread":
        streams = [rng.substream(_NS_JITTER, i) for i in range(n_sensors)]
        Ms = draw_noise_rows(streams, NoiseModel(0.0, 1.0), d * d).reshape(-1, d, d)
        G = symmetrize(base + _psd_jitter(Ms, spread_scale))
    else:
        raise ValueError(f"unknown initialization mode {init!r}")
    return G


def run_seeds(
    sys: SystemModel,
    noise: NoiseModel,
    graph: Graph,
    gains: np.ndarray,
    sched: Schedule,
    rounds: int,
    rngs: list[RngStream],
    *,
    oracle=None,
    w: float | None = None,
    shared_noise: bool = True,
    init: str = "identity",
    spread_scale: float = 0.1,
) -> list[RunTrace | DivergedError]:
    """Learn one seed per stream in rngs at once; see run_distributed for
    the arguments.

    Returns, per stream and in order, the trace of its run or the
    DivergedError that stopped it, each equal bit for bit to what
    run_distributed on that stream alone returns or raises. The S seeds are
    stepped as one (S, N, d, d) stack. Each draws its own (rounds, 1 or N)
    noise tape from its own stream, so the tape is (rounds, S, 1 or N), all
    of it drawn by one draw_noise_rows call. A seed that trips the guard
    leaves the stack at that round; the rest go on. Blocks of rounds are
    sized so that the (S, B, N, d, d) estimates keep to trace.block_rounds's
    budget; each trace's metric pass is linear in the sensors and holds no
    temporary larger than its seed's (B, N, d, d) block.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    N = graph.n_sensors
    _check_gains(gains, N, sys)
    cons = consensus_operator(graph, w)
    if not rngs:
        return []
    G = np.stack([
        initial_bank(sys, N, rng, init=init, spread_scale=spread_scale)
        for rng in rngs
    ])

    # Each seed's own stream with shared noise, else one substream per
    # sensor: the tape is (rounds, S, 1) or (rounds, S, N), drawn in one call.
    streams = rngs if shared_noise else [
        rng.substream(_NS_SENSOR_NOISE, i) for rng in rngs for i in range(N)]
    tape = draw_noise_rows(streams, noise, rounds).reshape(
        len(rngs), -1, rounds).transpose(2, 0, 1)

    G_star = None if oracle is None else oracle.G_star.mat
    results: list = [RunTrace(N, G_star=G_star) for _ in rngs]
    live = np.arange(len(rngs))  # results index of each seed on the stack
    B = block_rounds(N, sys.n + sys.m, len(rngs))
    Gs = np.empty((len(rngs), min(B, rounds), *G.shape[1:]))
    alphas = np.empty(Gs.shape[1])
    for start in range(0, rounds, B):
        block = tape[start:start + B]
        b = len(block)
        plants = realize(sys, block[:, live])
        for j in range(b):
            k = start + j
            alphas[j] = alpha = sched.alpha(k)
            G, diverged = _round(G, plants[j], sys, cons, gains, alpha, k)
            if diverged:
                for (s,), exc in diverged.items():
                    results[live[s]] = exc
                keep = [s for s in range(len(live)) if (s,) not in diverged]
                if not keep:
                    return results
                live, G, Gs, plants = live[keep], G[keep], Gs[keep], plants[:, keep]
            Gs[:, j] = G
        for i, G_seed in zip(live, Gs):
            results[i].record_round(alphas[:b], np.broadcast_to(block[:, i], (b, N)),
                                    G_seed[:b])
    return results


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
    before the first round; the trace measures the rounds a block of
    trace.block_rounds at a time. shared_noise=True evaluates every sensor's
    residual on the same sampled plant (one draw per round from rng);
    otherwise each sensor owns a private noise substream. When an oracle is
    supplied the trace also records the error of the averaged iterate to G*.
    This is run_seeds on the one stream rng; a run that trips the guard
    raises its DivergedError.
    """
    (result,) = run_seeds(
        sys, noise, graph, gains, sched, rounds, [rng], oracle=oracle, w=w,
        shared_noise=shared_noise, init=init, spread_scale=spread_scale,
    )
    if isinstance(result, DivergedError):
        raise result
    return result


def compare_centralized(trace_d: RunTrace, trace_c: RunTrace) -> np.ndarray:
    """The (rounds,) gaps Delta(k) = ||Gbar(k) - G(k)||_F between the
    averaged distributed iterate and the centralized iterate driven by the
    same noise, round by round.

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
    return np.linalg.norm(diff, axis=(1, 2))
