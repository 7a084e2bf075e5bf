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
just done and returns a new array.

run_learners steps several learners ("kinds", each a graph, its gains and
its options) for S seeds (independent noise streams) on one flat
(M, d, d) sensor axis. A bank is one kind's sensors for one seed, and bank
b = s*K + c, kind c of seed s, holds a contiguous run of the axis. Each
sensor carries its own gains and consensus weight, and one neighbour table
holds every bank's neighbor_columns, offset by the bank's first sensor and
padded with the sensor itself. So a round is one y_operator call, one gain
scaling, one mixing step, one symmetrize and one guard for all kinds and
seeds. Mixing takes one pass per column of that table, so a round's memory
is linear in the sensors. Banks share no sensor and no neighbour, so a
bank that trips the guard simply leaves the axis, while every other bank
learns on. Each seed's traces and errors equal those of each kind's run
alone, bit for bit. run_distributed is its one-kind, one-seed case and
distributed_round one round of one bank. Only the two SVDs of each G_uu
block still run block by block, inside lqcore._pinv_uu, whose loop holds
those two calls and nothing else. With a single sensor and L_1 = I the
round is exactly the centralized iteration, which is how lqlearn.qlearning
runs it.
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


def _mixing(conss) -> tuple[np.ndarray, np.ndarray]:
    """The (D, M) neighbour table and (M, 1, 1) weights of the banks whose
    consensus operators are conss, laid on one sensor axis of M sensors in
    order. A bank's columns are its graph's neighbor_columns offset by its
    first sensor; every column is padded with the sensor itself up to D,
    the largest degree of any bank, and each sensor has its bank's w. A
    sensor's neighbours all lie in its own bank."""
    sizes = [cons.graph.n_sensors for cons in conss]
    table = np.tile(np.arange(sum(sizes)),
                    (max(len(cons.graph.neighbor_columns) for cons in conss), 1))
    w = np.empty((sum(sizes), 1, 1))
    first = 0
    for cons, size in zip(conss, sizes):
        cols = cons.graph.neighbor_columns
        table[:len(cols), first:first + size] = cols + first
        w[first:first + size] = cons.w
        first += size
    return table, w


def _mix(G: np.ndarray, table: np.ndarray, w: np.ndarray) -> np.ndarray:
    """G - w L.G on the (M, d, d) estimates G of a sensor axis, with L.G
    each sensor's sum from +0 of G_i - G_j over the j of its column of table.
    A padded entry j = i adds G_i - G_i, an exact +0 on the finite estimates
    the guard lets through, so these are the bits of the dense sum over all
    pairs weighted by L, and estimates that agree stay bit-exact. A sensor
    with no neighbours mixes to G_i - w (+0), which is G_i."""
    acc = np.zeros_like(G)
    for col in table:
        acc += G - G.take(col, axis=-3)
    return G - w * acc


def _round(
    G: np.ndarray,
    Uk: np.ndarray,
    sys: SystemModel,
    table: np.ndarray,
    w: np.ndarray,
    gains: np.ndarray,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One round on the (M, d, d) estimates G of a sensor axis at step size
    alpha, with the neighbour table and weights of _mixing (or one graph's
    neighbor_columns and its scalar w) and the (M, d, 1) gain diagonals;
    Uk broadcasts to (M, n, n+m).

    Returns the post-round estimates and their (M,) Frobenius norms, which
    the callers hold to the guard. Every bank of the axis gets the bits of
    a round on its own, and every temporary is a stack of M blocks: none
    is M x M.
    """
    Y = y_operator(G, Uk, sys.Q, sys.R)
    # alpha * (gains * Y), scaled in place in that order.
    Y *= gains
    Y *= alpha
    Y += _mix(G, table, w)
    G = symmetrize(Y)

    # The norms as np.linalg.norm(G, axis=(-2, -1)) takes them, minus its
    # dispatch.
    return G, np.sqrt(np.add.reduce(G * G, axis=(-2, -1)))


def _diverged(norms: np.ndarray, k: int) -> DivergedError:
    """The error of a bank whose sensors' norms after round k + 1 are norms,
    naming the first sensor outside the guard."""
    sensor = int((~(norms <= DIVERGENCE_CAP)).argmax())
    norm = float(norms[sensor])
    return DivergedError(
        f"sensor {sensor} left ||G||_F <= {DIVERGENCE_CAP:g} "
        f"(norm {norm:g}) at round {k + 1}",
        step=k + 1,
        sensor=sensor,
        norm=norm,
    )


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
    G, norms = _round(G, np.asarray(Uk, dtype=float), sys,
                      cons.graph.neighbor_columns, cons.w,
                      np.asarray(gains, dtype=float)[:, :, None], sched.alpha(k))
    # max() propagates NaN, and "not <=" is true for NaN as well as overflow.
    if not norms.max() <= DIVERGENCE_CAP:
        raise _diverged(norms, k)
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
    if not 0.0 <= spread_scale <= _FLOAT_MAX:  # NaN and infinities fail too
        raise ValueError(
            f"spread_scale must be >= 0 and finite, got {spread_scale}")
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


@dataclass(frozen=True)
class _Kind:
    """One learner of a run_learners stack, its inputs checked."""

    cons: ConsensusOperator
    gains: np.ndarray
    shared_noise: bool
    init: str
    spread_scale: float


def _kind(sys: SystemModel, graph: Graph, gains: np.ndarray, *,
          w: float | None = None, shared_noise: bool = True,
          init: str = "identity", spread_scale: float = 0.1) -> _Kind:
    _check_gains(gains, graph.n_sensors, sys)
    return _Kind(consensus_operator(graph, w), np.asarray(gains, dtype=float),
                 shared_noise, init, spread_scale)


def _noise_tape(kinds: list[_Kind], noise: NoiseModel, rounds: int,
                rngs: list[RngStream]) -> np.ndarray:
    """The (rounds, S, N) noise tape of S seeds, one column per sensor of
    the stack, all drawn by one draw_noise_rows call.

    A shared-noise kind's sensors read their seed's own stream from where
    it stands, so every shared-noise sensor of a seed repeats that one
    stream's column; a private-noise kind's sensor i reads the seed's
    substream (_NS_SENSOR_NOISE, i).
    """
    shared = int(any(kind.shared_noise for kind in kinds))  # 1 or 0 streams
    # Column of each sensor among its seed's streams: 0 for a shared sensor.
    columns, streams = [], []
    for kind in kinds:
        size = kind.cons.graph.n_sensors
        if kind.shared_noise:
            columns += [0] * size
        else:
            columns += range(shared + len(streams), shared + len(streams) + size)
            streams += range(size)
    rows = [stream for rng in rngs for stream in (
        [rng] * shared + [rng.substream(_NS_SENSOR_NOISE, i) for i in streams])]
    tape = draw_noise_rows(rows, noise, rounds).reshape(
        len(rngs), -1, rounds).transpose(2, 0, 1)
    return tape[:, :, columns]


def _learn(sys: SystemModel, kinds: list[_Kind], sched: Schedule,
           G: np.ndarray, tape: np.ndarray, G_star) -> list[list]:
    """Step the kinds from the (S*N, d, d) estimates G over the
    (rounds, S, N) noise tape (see _noise_tape); returns run_learners's
    outcomes.

    G holds the S seeds in order, each seed's kinds in order, so bank
    b = s*K + c, kind c of seed s, is a contiguous run of the axis. A bank
    that trips the guard gets its error as its outcome and leaves the
    axis: its sensors are dropped from every per-sensor array, and the
    neighbour table is renumbered, which holds because a sensor's
    neighbours all lie in its own bank. The other banks learn on with the
    bits of their runs alone; the run ends once no bank is left.
    """
    rounds, S, N = tape.shape
    tape = tape.reshape(rounds, S * N)
    K = len(kinds)
    banks = [kind for _ in range(S) for kind in kinds]
    table, w = _mixing([kind.cons for kind in banks])
    gains = np.concatenate([kind.gains for kind in banks])[:, :, None]
    bank = np.repeat(np.arange(len(banks)),
                     [kind.cons.graph.n_sensors for kind in banks])
    cols = np.arange(S * N)  # tape column of each sensor on the axis

    results: list = [[RunTrace(kind.cons.graph.n_sensors, G_star=G_star)
                      for kind in kinds] for _ in range(S)]
    B = block_rounds(S * N, sys.n + sys.m)
    Gs = np.empty((min(B, rounds), *G.shape))
    alphas = np.empty(len(Gs))
    for start in range(0, rounds, B):
        block = tape[start:start + B]
        plants = realize(sys, block[:, cols])
        for j in range(len(block)):
            k = start + j
            alphas[j] = alpha = sched.alpha(k)
            G, norms = _round(G, plants[j], sys, table, w, gains, alpha)
            # max() propagates NaN; "not <=" is true for NaN and overflow.
            if not norms.max() <= DIVERGENCE_CAP:
                tripped = np.unique(bank[~(norms <= DIVERGENCE_CAP)])
                for b in tripped.tolist():
                    results[b // K][b % K] = _diverged(norms[bank == b], k)
                keep = ~np.isin(bank, tripped)
                if not keep.any():
                    return results
                table = (np.cumsum(keep) - 1)[table[:, keep]]
                G, w, gains, plants, Gs, bank, cols = (
                    G[keep], w[keep], gains[keep], plants[:, keep], Gs[:, keep],
                    bank[keep], cols[keep])
            Gs[j] = G
        for b, first, size in zip(*np.unique(bank, return_index=True,
                                             return_counts=True)):
            run = slice(first, first + size)
            results[b // K][b % K].record_round(
                alphas[:len(block)], block[:, cols[run]], Gs[:len(block), run])
    return results


def run_learners(
    sys: SystemModel,
    noise: NoiseModel,
    learners,
    sched: Schedule,
    rounds: int,
    rngs: list[RngStream],
    *,
    oracle=None,
) -> list[list[RunTrace | DivergedError]]:
    """Learn several learners ("kinds") for one seed per stream in rngs, all
    on one flat (S*(N_1 + ... + N_K), d, d) sensor axis.

    learners is a sequence of (graph, gains, options) triples, options a
    dict of run_distributed's keyword arguments w, shared_noise, init and
    spread_scale. Returns, per stream, one outcome per kind in order: its
    trace or its DivergedError (sensor counted within the kind), each equal
    bit for bit to what run_distributed of that kind alone on the stream
    returns or raises. The S seeds draw their tapes in one draw_noise_rows
    call (see _noise_tape), so two shared-noise kinds of a seed learn on
    the same noise. Each round makes one y_operator call for all seeds and
    kinds. A kind that trips for a seed leaves the axis, and the others
    learn on (see _learn). Blocks of rounds are sized so that the axis's
    (B, S*N, d, d) estimates keep to trace.block_rounds's budget.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    kinds = [_kind(sys, graph, gains, **options) for graph, gains, options in learners]
    if not kinds:
        raise ValueError("run_learners needs at least one learner")
    if not rngs:
        return []
    G = np.concatenate([
        initial_bank(sys, kind.cons.graph.n_sensors, rng, init=kind.init,
                     spread_scale=kind.spread_scale)
        for rng in rngs for kind in kinds])
    tape = _noise_tape(kinds, noise, rounds, rngs)
    G_star = None if oracle is None else oracle.G_star.mat
    return _learn(sys, kinds, sched, G, tape, G_star)


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
    This is run_learners of the one kind (graph, gains) on the one stream
    rng; a run that trips the guard raises its DivergedError.
    """
    options = {"w": w, "shared_noise": shared_noise, "init": init,
               "spread_scale": spread_scale}
    ((result,),) = run_learners(sys, noise, [(graph, gains, options)], sched,
                                rounds, [rng], oracle=oracle)
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
