"""Seeded randomness and closed-loop simulation.

All randomness flows through RngStream, a counter-based Philox stream keyed
by (seed, stream_id). Gaussian draws use inverse-CDF over 53-bit uniforms, so
a (seed, stream_id) pair yields bit-identical sequences across runs and
platforms. Substreams (Monte Carlo runs, per-sensor noise) are derived
through SeedSequence spawn keys and can never collide with each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import DivergedError, NotStabilizingError
from .lqcore import Gain, NoiseModel, SystemModel, _closed_loop, ms_stability_check

# Trajectories whose state norm exceeds this are flagged as diverging and
# truncated; far below float overflow, far above anything a stable loop does.
OVERFLOW_LIMIT = 1e12

_U53 = float(2**53)


class RngStream:
    """One logical random stream per experiment component.

    Identical (seed, stream_id) always reproduce the same draws.
    """

    def __init__(self, seed: int, stream_id: int = 0, _spawn: tuple[int, ...] = ()):
        if not 0 <= seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not 0 <= stream_id < 2**64:
            raise ValueError("stream_id must be a 64-bit unsigned integer")
        self.seed = seed
        self.stream_id = stream_id
        self._spawn = _spawn
        self._gen: np.random.Generator | None = None

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            seq = np.random.SeedSequence(
                self.seed, spawn_key=(self.stream_id, *self._spawn)
            )
            self._gen = np.random.Generator(np.random.Philox(seq))
        return self._gen

    def substream(self, *indices: int) -> "RngStream":
        """Fresh derived stream; disjoint from this one and all siblings."""
        return RngStream(self.seed, self.stream_id, (*self._spawn, *indices))

    def uniform_open(self, size: int | None = None):
        """Uniforms strictly inside (0, 1): (k + 0.5) / 2^53."""
        raw = self.generator.integers(0, 2**53, size=size)
        return (raw + 0.5) / _U53

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def draw_noise(rng: RngStream, noise: NoiseModel, size: int | None = None):
    """Gaussian draw(s) w ~ N(mu, sigma2) via inverse CDF; advances the stream.

    A batch of size draws equals size successive scalar draws, bit for bit.
    """
    z = ndtri(rng.uniform_open(size))
    w = noise.mu + np.sqrt(noise.sigma2) * z
    return float(w) if size is None else w


def realize(sys: SystemModel, omega) -> np.ndarray:
    """Sampled plant [A_k B_k] = [A B] + w*[Abar Bbar]; consumes no randomness.

    A scalar omega gives one n x (n+m) array, an array of shape S gives
    S + (n, n+m).
    """
    U, V = sys.stacked()
    return U + np.asarray(omega)[..., None, None] * V


@dataclass(frozen=True)
class Trajectory:
    """Closed-loop rollout: states x(0..T) and stage costs.

    overflow=True means ||x|| left OVERFLOW_LIMIT (or became NaN) and the
    rollout was truncated at overflow_step.
    """

    xs: np.ndarray
    costs: np.ndarray
    overflow: bool
    overflow_step: int | None = None

    def total_cost(self) -> float:
        return float(self.costs.sum())


def _prefix_products(M: np.ndarray) -> np.ndarray:
    """Overwrite a stack of step matrices with its prefix products
    M[k] ... M[0], in ceil(log2(len(M))) batched matmuls (a doubling scan)."""
    s = 1
    while s < len(M):
        M[s:] = M[s:] @ M[:-s]
        s *= 2
    return M


def simulate_trajectory(
    sys: SystemModel,
    noise: NoiseModel,
    K: Gain,
    x0: np.ndarray,
    horizon: int,
    rng: RngStream,
) -> Trajectory:
    """Roll out x(k+1) = (Acl + w(k) Abcl) x(k), the plant under u(k) = K x(k).

    Acl = A + BK and Abcl = Abar + Bbar K, so one fresh noise draw per step
    feeds both A(k) and B(k). Stage cost is x'(Q + K'RK)x = x'Qx + u'Ru.

    The states are x(k) = M(k-1) ... M(0) x(0) with M(k) = Acl + w(k) Abcl,
    all computed at once from a prefix-product scan over time. The scan holds
    horizon x n x n floats (12.8 KB at n = 2 and 400 steps) where a step-by-
    step rollout holds horizon x n.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    x = np.asarray(x0, dtype=float).reshape(sys.n)
    Acl, Abcl = _closed_loop(K, sys)
    C = sys.Q + K.K.T @ sys.R @ K.K
    w = draw_noise(rng, noise, horizon)

    chunks = [x[None]]
    k = 0  # steps taken
    overflow_step = None
    # Products past an overflow may reach inf or NaN; they are discarded.
    with np.errstate(over="ignore", invalid="ignore"):
        while k < horizon:
            seg = _prefix_products(Acl + w[k:, None, None] * Abcl) @ x
            # "not <=" is true for NaN as well as overflow.
            bad = np.flatnonzero(~(np.linalg.norm(seg, axis=1) <= OVERFLOW_LIMIT))
            if not bad.size:
                chunks.append(seg)
                break
            j = int(bad[0])
            chunks.append(seg[:j])
            # Retake the flagged step from the last kept state: a state is
            # also flagged when a product overflowed but the state did not
            # (x(0) orthogonal to a growing mode), and the scan resumes there.
            last = seg[j - 1] if j else x
            x = Acl @ last + w[k + j] * (Abcl @ last)
            if not np.linalg.norm(x) <= OVERFLOW_LIMIT:
                overflow_step = k + j + 1
                break
            chunks.append(x[None])
            k += j + 1
    xs = np.concatenate(chunks)
    kept = xs[:horizon]
    return Trajectory(
        xs=xs,
        costs=((kept @ C) * kept).sum(axis=1),
        overflow=overflow_step is not None,
        overflow_step=overflow_step,
    )


@dataclass(frozen=True)
class CostEstimate:
    mean: float
    std_err: float
    n_runs: int
    horizon: int


def monte_carlo_cost(
    sys: SystemModel,
    noise: NoiseModel,
    K: Gain,
    x0: np.ndarray,
    horizon: int,
    n_runs: int,
    rng: RngStream,
) -> CostEstimate:
    """Empirical mean and standard error of the truncated cumulative cost.

    Each run owns the private substream rng.substream(run_index), so results
    do not depend on execution order; the reduction is by run index.
    Requires a mean-square stabilizing K (the infinite-horizon cost diverges
    otherwise) and raises DivergedError if any rollout overflows anyway.
    """
    if n_runs < 2:
        raise ValueError("n_runs must be >= 2")
    report = ms_stability_check(K, sys, noise)
    if not report.stable:
        raise NotStabilizingError(report.spectral_radius)

    totals = np.empty(n_runs)
    for run in range(n_runs):
        traj = simulate_trajectory(sys, noise, K, x0, horizon, rng.substream(run))
        if traj.overflow:
            raise DivergedError(
                f"Monte Carlo run {run} overflowed at step {traj.overflow_step}",
                step=traj.overflow_step,
            )
        totals[run] = traj.total_cost()
    mean = float(totals.mean())
    if np.ptp(totals) == 0.0:
        # Identical runs (deterministic plant): avoid the O(eps) artifact the
        # mean subtraction would otherwise leave behind.
        std_err = 0.0
    else:
        std_err = float(totals.std(ddof=1) / np.sqrt(n_runs))
    return CostEstimate(mean=mean, std_err=std_err, n_runs=n_runs, horizon=horizon)
