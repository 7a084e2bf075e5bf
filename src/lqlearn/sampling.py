"""Seeded randomness and closed-loop simulation.

All randomness flows through RngStream, a counter-based Philox stream keyed
by (seed, stream_id). Gaussian draws use inverse-CDF over 53-bit uniforms, so
a (seed, stream_id) pair yields bit-identical sequences across runs and
platforms. Substreams (Monte Carlo runs, per-sensor noise) are addressed by
their spawn path and can never collide with each other.

Philox is counter-based (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC'11): word i of a stream depends only on its key and the
counter of its 4-word block, so streams need no hash. A stream's key is
[seed, stream_id]; its counter is (block, depth, i1, i2), its spawn path of
at most two indices in the upper words (unused ones 0). Distinct paths never
share a counter, so streams of fewer than 2**66 words are disjoint. A draw
call sets one Philox generator to each stream's key and counter in turn.

The inverse normal CDF is a numpy port of Moshier's Cephes ndtri (Methods
and Programs for Mathematical Functions, 1989): a rational approximation in
y - 1/2 on the centre, e^-2 < y < 1 - e^-2, and two in 1/sqrt(-2 log y) on
the tails. The centre uses only + - * /, evaluated in the order C evaluates
them, so numpy rounds it as C does. The tails need log, which numpy's SIMD
log does not round as libm does, so they call math.log (libm) element by
element; about 27% of draws fall there, and that is most of the port's
cost. Its bits equal scipy.special.ndtri's wherever math.log is the libm
log that scipy links, which tests/test_sampling.py checks. Because of that
per-element cost, it runs once per batch: _noise_paths, through which
draw_noise_rows and monte_carlo_cost draw, transforms many streams at once.

Monte Carlo rolls each run out in its own simulate_trajectory call, as the
benchmark pins (ROADMAP item 1a). The runs share one build of the closed
loop through the gain, which keeps it (lqcore._gain_loop); item 2's batched
rollout builds it once per batch and replaces that.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DivergedError, NotStabilizingError
from .lqcore import (
    Gain,
    NoiseModel,
    SystemModel,
    _gain_loop,
    _sum_of_products,
    ms_stability_check,
)
from .lqcore import realize  # noqa: F401  (re-exported; it draws nothing)

# Trajectories whose state norm exceeds this are flagged as diverging and
# truncated; far below float overflow, far above anything a stable loop does.
OVERFLOW_LIMIT = 1e12

_U53 = float(2**53)
_BELOW_ONE = np.nextafter(1.0, 0.0)

# _noise_paths transforms at most about this many draws per call, so a
# chunk's memory stays bounded: a chunk of 20 rows of 400 draws peaks at
# 0.45 MB under tracemalloc (numpy 2.4), of which 64 KB is the buffer and the
# rest the transform's temporaries, each an array of 64 KB or less. The
# chunking never changes a draw: each row has draw_noise's bits.
_CHUNK_DRAWS = 2**13

# Spawn indices a stream's counter has room for beside its depth: Philox's
# counter has four words, and the lowest counts blocks.
_MAX_DEPTH = 2

# Cephes ndtri: sqrt(2 pi), e^-2, and the coefficients, highest degree
# first. The Q polynomials are monic; their leading 1 is left out.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
# Centre, e^-2 < y < 1 - e^-2: sqrt(2 pi) (t + t t^2 P0(t^2) / Q0(t^2)) with
# t = y - 1/2.
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# Tails with 2 <= x = sqrt(-2 log y) < 8, i.e. e^-32 < y <= e^-2.
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# Far tails, x >= 8, i.e. y <= e^-32 (about 1.27e-14).
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)

_libm_log = np.frompyfunc(math.log, 1, 1)


def _polevl(x: np.ndarray, coef: tuple, monic: bool = False) -> np.ndarray:
    """Horner's rule as Cephes polevl (p1evl if monic): one rounded multiply
    and one rounded add per coefficient, in that order."""
    if monic:
        ans, rest = x + coef[0], coef[1:]
    else:
        ans, rest = x * coef[0] + coef[1], coef[2:]
    for c in rest:
        ans *= x
        ans += c
    return ans


def _ndtri(u) -> np.ndarray:
    """Inverse standard normal CDF of u, elementwise, for u strictly inside
    (0, 1); an array of u's shape. The Cephes routine, bit for bit.

    The centre formula runs on the whole array and the tail entries are then
    overwritten, which is cheaper than gathering the centre. Each quotient is
    (t * P) / Q, left to right as in C: t * (P / Q) rounds differently.
    """
    y = np.asarray(u, dtype=float).reshape(-1)
    t = y - 0.5
    t2 = t * t
    x = t2 * _polevl(t2, _P0)
    x /= _polevl(t2, _Q0, monic=True)
    x *= t
    x += t
    x *= _S2PI
    upper = y > 1.0 - _EXP_M2  # 1 - that bound is exactly _EXP_M2
    tail = np.flatnonzero(upper | (y <= _EXP_M2))
    if tail.size:
        up = upper[tail]
        yt = y[tail]
        yt[up] = 1.0 - yt[up]
        r = np.sqrt(-2.0 * _libm_log(yt).astype(float))
        xt = r - _libm_log(r).astype(float) / r
        z = 1.0 / r
        corr = z * _polevl(z, _P1)
        corr /= _polevl(z, _Q1, monic=True)
        far = r >= 8.0
        if far.any():
            zf = z[far]
            corr[far] = zf * _polevl(zf, _P2) / _polevl(zf, _Q2, monic=True)
        xt -= corr
        np.negative(xt, out=xt, where=~up)
        x[tail] = xt
    return x.reshape(np.shape(u))


class RngStream:
    """One logical random stream per experiment component.

    Identical (seed, stream_id) always reproduce the same draws. A stream is
    its Philox key [seed, stream_id], its spawn path of at most _MAX_DEPTH = 2
    indices as upper counter words (depth, i1, i2), and the count of raw
    words it has drawn; it holds no generator.
    """

    def __init__(self, seed: int, stream_id: int = 0, _spawn: tuple[int, ...] = ()):
        _check_word(seed, "seed")
        _check_word(stream_id, "stream_id")
        if len(_spawn) > _MAX_DEPTH:
            raise ValueError(f"a substream path has at most {_MAX_DEPTH} indices, "
                             f"got {len(_spawn)}")
        self.seed = seed
        self.stream_id = stream_id
        self._spawn = _spawn
        self._key = (int(seed), int(stream_id))
        self._path = (len(_spawn), *map(int, _spawn), 0, 0)[:_MAX_DEPTH + 1]
        self._pos = 0  # raw words drawn

    def substream(self, *indices: int) -> "RngStream":
        """Fresh derived stream; disjoint from this one and all siblings. It
        needs an index: with none, it would draw this stream's own tape.
        substream(a, b) is substream(a).substream(b)."""
        if not indices:
            raise ValueError("substream needs at least one index")
        for index in indices:
            _check_word(index, "substream index")
        return RngStream(self.seed, self.stream_id, (*self._spawn, *indices))

    def uniform_open(self, size: int | None = None):
        """Uniforms strictly inside (0, 1): (k + 0.5) / 2^53 for a raw 53-bit
        integer k, as rounded in float64.

        k is the top 53 bits of one raw 64-bit Philox word, the integer that
        Generator.integers(0, 2**53) returns for it (Lemire's method with a
        range of 2^53 keeps the top bits and never rejects). So the tape
        depends only on the bit generator's raw stream, which NEP 19 keeps
        stable, and not on Generator.

        For k >= 2^52 the + 0.5 rounds to even, so those values are not
        exactly (k + 0.5) / 2^53, and k = 2^53 - 1 would round to 1.0. That
        one value is clamped to the largest float below 1; no other k
        reaches it, so every other draw keeps its bits.
        """
        out = np.empty(1 if size is None else size)
        _uniform_rows(out.reshape(1, -1), [self], np.random.Philox(0))
        return out[0] if size is None else out

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def _check_word(value, name: str) -> None:
    """value must be an integer (not a bool) in [0, 2**64), one 64-bit word
    of a Philox key or counter; else ValueError naming it."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not 0 <= value < 2**64):
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")


def _raw_words(bits: np.random.Philox, rng: RngStream, size: int) -> np.ndarray:
    """The next size raw 64-bit words of the stream rng, drawn by the Philox
    generator bits set to rng's key and counter; advances rng. Each draw call
    makes its own bits, so streams drawn on different threads share none.

    Philox makes block b, words 4b .. 4b + 3, after advancing its lowest
    counter word to b + 1. So the state (key, counter (pos // 4, depth, i1,
    i2), buffer spent) and pos % 4 discarded words resume at word pos.
    """
    pos = rng._pos
    bits.state = {
        "bit_generator": "Philox",
        "state": {"counter": (pos >> 2, *rng._path), "key": rng._key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    if pos & 3:
        bits.random_raw(pos & 3)
    rng._pos = pos + size
    return bits.random_raw(size)


def _uniform_rows(out: np.ndarray, rngs: Sequence[RngStream],
                  bits: np.random.Philox) -> None:
    """Fill row i of the float array out with uniform_open draws of the
    stream rngs[i]: each row's raw words go into out's memory, then all rows
    become uniforms in one in-place step."""
    raw = out.view(np.uint64)
    for row, rng in zip(raw, rngs):
        row[:] = _raw_words(bits, rng, out.shape[1])
    raw >>= np.uint64(11)
    np.add(raw, 0.5, out=out)
    out /= _U53
    np.minimum(out, _BELOW_ONE, out=out)


def _gaussian(u, noise: NoiseModel) -> np.ndarray:
    """N(mu, sigma2) draws from uniforms u in (0, 1), by the inverse CDF."""
    return noise.mu + np.sqrt(noise.sigma2) * _ndtri(u)


def draw_noise(rng: RngStream, noise: NoiseModel, size: int | None = None):
    """Gaussian draw(s) w ~ N(mu, sigma2) via inverse CDF; advances the stream.

    A batch of size draws equals size successive scalar draws, bit for bit.
    """
    w = _gaussian(rng.uniform_open(size), noise)
    return float(w) if size is None else w


def _noise_paths(rngs: Iterable[RngStream], noise: NoiseModel,
                 size: int) -> Iterator[np.ndarray]:
    """Yield the draw_noise(rng, noise, size) paths of the streams of rngs,
    in order and bit for bit, a chunk at a time: each chunk is a (rows, size)
    view of one buffer that the next chunk overwrites.

    A chunk holds at most about _CHUNK_DRAWS draws (one row if a row is
    longer) and takes its streams from rngs as it is drawn: one Philox, set
    to each row's stream in turn, and one inverse-CDF call.
    """
    streams = iter(rngs)
    rows = max(1, _CHUNK_DRAWS // max(size, 1))
    bits = np.random.Philox(0)
    buf = None
    while chunk := list(itertools.islice(streams, rows)):
        if buf is None:
            buf = np.empty((len(chunk), size))
        paths = buf[:len(chunk)]
        _uniform_rows(paths, chunk, bits)
        paths[:] = _gaussian(paths, noise)
        yield paths


def draw_noise_rows(
    rngs: Sequence[RngStream], noise: NoiseModel, size: int
) -> np.ndarray:
    """The (len(rngs), size) array whose row i is draw_noise(rngs[i], noise,
    size), bit for bit; advances each stream by size draws.

    The rows come from _noise_paths, as monte_carlo_cost's paths do, so a
    draw over many streams makes few inverse-CDF calls and stays small; each
    chunk is copied into the output once.
    """
    out = np.empty((len(rngs), size))
    start = 0
    for paths in _noise_paths(rngs, noise, size):
        out[start:start + len(paths)] = paths
        start += len(paths)
    return out


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


def _scan_states(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """States M(k) ... M(0) x for k = 0 .. T-1, as a (T, n) array.

    M is the time-major (n, n, T) stack of step matrices; it is overwritten
    with its prefix products by a doubling scan (Blelloch 1990). Each of the
    ceil(log2(T)) passes forms out[i, l, k] = sum_j a[i, j, k] b[j, l, k]
    as n broadcast multiply-adds over the whole horizon, so a pass is a few
    long elementwise loops rather than one small matmul per step.
    """
    T = M.shape[2]
    s = 1
    while s < T:
        a, b = M[:, :, s:], M[:, :, :-s]
        M[:, :, s:] = _sum_of_products(a.swapaxes(0, 1)[:, :, None], b)
        s *= 2
    return _sum_of_products(M.swapaxes(0, 1), x).T


def _start_state(x0, sys: SystemModel) -> np.ndarray:
    """x0 as a float (n,) state; ValueError unless it has n entries."""
    x = np.asarray(x0, dtype=float)
    if x.size != sys.n:
        raise ValueError(f"x0 must have {sys.n} entries, got {x.size}")
    return x.reshape(sys.n)


def simulate_trajectory(
    sys: SystemModel, K: Gain, x0: np.ndarray, w: np.ndarray
) -> Trajectory:
    """Roll out x(k+1) = (Acl + w(k) Abcl) x(k), the plant under u(k) = K x(k),
    along the noise path w(0 .. horizon-1), a 1-d array (see draw_noise).

    Acl = A + BK and Abcl = Abar + Bbar K, so one noise value per step feeds
    both A(k) and B(k). Stage cost is x'(Q + K'RK)x = x'Qx + u'Ru.

    The states are x(k) = M(k-1) ... M(0) x(0) with M(k) = Acl + w(k) Abcl,
    all computed at once from a prefix-product scan over time. The scan keeps
    the step matrices time-major, as one (n, n, horizon) array: horizon x
    n x n floats (12.8 KB at n = 2 and 400 steps), plus at most two
    temporaries of that size during a pass, where a step-by-step rollout
    holds horizon x n. A flagged state restarts the scan from the last kept
    state, and a flagged first state of a scan is the overflow. Acl, Abcl
    and C, the scan and the stage costs are elementwise (_sum_of_products),
    so their bits do not depend on the BLAS build.

    Acl, Abcl and C come from lqcore._gain_loop, built once per (gain,
    system) pair. Raises ValueError unless K is m x n and x0 has n entries.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or not w.size:
        raise ValueError(f"w must be a nonempty 1-d noise path, got shape {w.shape}")
    horizon = w.size
    Acl, Abcl, C = _gain_loop(K, sys)
    x = _start_state(x0, sys)

    chunks = [x[None]]
    k = 0  # steps taken
    overflow_step = None
    # Products past an overflow may reach inf or NaN; they are discarded.
    with np.errstate(over="ignore", invalid="ignore"):
        while k < horizon:
            # Abcl w + Acl, formed in place: the bits of Acl + Abcl w.
            M = Abcl[:, :, None] * w[k:]
            M += Acl[:, :, None]
            seg = _scan_states(M, x)
            # The row norms as np.linalg.norm(seg, axis=1) takes them, minus
            # its dispatch. "not <=" is true for NaN as well as overflow.
            norms = np.sqrt(np.add.reduce(seg * seg, axis=1))
            bad = np.flatnonzero(~(norms <= OVERFLOW_LIMIT))
            if not bad.size:
                chunks.append(seg)
                break
            j = int(bad[0])
            if not j:  # one step from a kept state: the state overflowed
                overflow_step = k + 1
                break
            # A state is also flagged when a product overflowed but the state
            # did not (x(0) orthogonal to a growing mode): restart the scan
            # from the last kept state.
            chunks.append(seg[:j])
            x, k = seg[j - 1], k + j
    xs = np.concatenate(chunks)
    kept = xs[:horizon].T
    return Trajectory(
        xs=xs,
        costs=_sum_of_products(_sum_of_products(C[:, :, None], kept[:, None]), kept),
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
    do not depend on execution order; the reduction is by run index. The
    runs' paths come from _noise_paths, as draw_noise_rows's rows do, so one
    chunk of streams and their paths is held at a time. The
    stability check builds K's closed loop on sys, and every run's rollout
    reuses it. Requires a mean-square stabilizing K (the infinite-horizon
    cost diverges otherwise) and raises DivergedError if any rollout
    overflows anyway.
    """
    if n_runs < 2:
        raise ValueError("n_runs must be >= 2")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    x0 = _start_state(x0, sys)
    report = ms_stability_check(K, sys, noise)
    if not report.stable:
        raise NotStabilizingError(report.spectral_radius)

    totals = np.empty(n_runs)
    streams = (rng.substream(run) for run in range(n_runs))
    paths = itertools.chain.from_iterable(_noise_paths(streams, noise, horizon))
    for run, w in enumerate(paths):
        traj = simulate_trajectory(sys, K, x0, w)
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
