"""Deterministic LQ mathematics for the multiplicative-noise problem.

The plant is x(k+1) = A(k)x(k) + B(k)u(k) with A(k) = A + Abar*w(k),
B(k) = B + Bbar*w(k) and scalar Gaussian w(k) ~ N(mu, sigma2). The cost is
sum_k x'Qx + u'Ru with Q > 0, R > 0.

Everything here is expressed through the (n+m)x(n+m) Q-factor G. Its Schur
complement recovers the Riccati solution (pi_map) and its blocks recover the
optimal feedback gain (gamma_map). The expectation operator closes the loop:
G* is the unique fixed point G = H(Pi(G)) of the second-moment operator
H(P) = diag(Q,R) + E[ Ups(k)' P Ups(k) ], Ups(k) = [A(k) B(k)], found by
Picard iteration. H, like the lifted operator of ms_stability_check, is an
exact mean over the two noise nodes, the one place the moments enter. The
learners' residual y_operator is the same Bellman map on one sampled plant,
minus G, so H(Pi(G)) - G is its exact mean over the nodes.

All operations are pure functions; safe to call concurrently. The one
state kept is a Gain's cached closed loop (_gain_loop), set by a single
attribute assignment, so concurrent calls at worst build it twice.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NoConvergenceError,
    NotStabilizingError,
    RankDeficientWarning,
    SingularInnerMatrixError,
)

# Singular values of G_uu below PINV_TOL * sigma_max are dropped by the
# pseudo-inverse.
PINV_TOL = 1e-12
# Maps symmetrize their output; this is the tolerance for *asserting* symmetry
# of inputs, where floating-point asymmetry would otherwise accumulate.
SYM_TOL = 1e-9

DEFAULT_ORACLE_TOL = 1e-12
DEFAULT_ORACLE_MAX_ITER = 100_000


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """(M + M') / 2, over the last two axes of a stack of matrices."""
    out = mat + mat.swapaxes(-1, -2)
    # Halving is exact, so * 0.5 gives the bits of / 2.0.
    out *= 0.5
    return out


def _as_matrix(value, name: str) -> np.ndarray:
    """A read-only float64 copy of the 2-D matrix value; never an alias of
    the caller's array, so a model built from it cannot change later."""
    mat = np.array(value, dtype=float)
    if mat.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {mat.shape}")
    mat.flags.writeable = False
    return mat


def _check_spd(mat: np.ndarray, name: str) -> None:
    if not np.allclose(mat, mat.T, atol=SYM_TOL, rtol=0.0):
        raise ValueError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(mat).min() <= 0.0:
        raise ValueError(f"{name} must be positive definite")


@dataclass(frozen=True)
class SystemModel:
    """Constant plant matrices (A, Abar, B, Bbar) and cost weights (Q, R),
    held as read-only float64 copies."""

    A: np.ndarray
    A_bar: np.ndarray
    B: np.ndarray
    B_bar: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        for name in ("A", "A_bar", "B", "B_bar", "Q", "R"):
            object.__setattr__(self, name, _as_matrix(getattr(self, name), name))
        n, m = self.A.shape[0], self.B.shape[1]
        expected = {
            "A": (n, n),
            "A_bar": (n, n),
            "B": (n, m),
            "B_bar": (n, m),
            "Q": (n, n),
            "R": (m, m),
        }
        for name, shape in expected.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} has shape {got}, expected {shape}")
        if not n or not m:
            raise ValueError(f"the system needs n >= 1 states and m >= 1 "
                             f"inputs, got n = {n} and m = {m}")
        _check_spd(self.Q, "Q")
        _check_spd(self.R, "R")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    def cost_block(self) -> np.ndarray:
        """diag(Q, R), the (n+m)x(n+m) stage-cost weight."""
        return np.block([[self.Q, np.zeros((self.n, self.m))],
                         [np.zeros((self.m, self.n)), self.R]])

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """([A B], [Abar Bbar]) as n x (n+m) arrays."""
        return np.hstack([self.A, self.B]), np.hstack([self.A_bar, self.B_bar])


@dataclass(frozen=True)
class NoiseModel:
    """First two moments of the scalar multiplicative noise w(k).

    The oracle sees the noise only through its two nodes, so any noise law
    with matching first two moments reproduces identical oracles. The
    simulator draws Gaussian N(mu, sigma2) samples.
    """

    mu: float
    sigma2: float

    def __post_init__(self):
        if not np.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not 0.0 <= self.sigma2 < np.inf:
            raise ValueError(f"sigma2 must be finite and >= 0, got {self.sigma2}")

    @property
    def nodes(self) -> np.ndarray:
        """The (2,) array mu -/+ sqrt(sigma2). Its mean is mu and its mean
        square mu^2 + sigma2, so the mean of a + b*w + c*w^2 over the nodes
        is its exact expectation under any law with these moments. H(P) and
        ms_stability_check's operator are quadratic in w, so the oracle
        takes both as means over the nodes: no moment is ever formed."""
        sd = math.sqrt(self.sigma2)
        return np.array([self.mu - sd, self.mu + sd])


@dataclass(frozen=True)
class QFactor:
    """Symmetric (n+m)x(n+m) matrix G with the state/input block partition.

    The maps below take the raw array; this wrapper checks shape and symmetry
    where a Q-factor crosses a boundary (the oracle's G*, a file read back).
    mat is a read-only float64 copy.
    """

    mat: np.ndarray
    n: int
    m: int

    def __post_init__(self):
        mat = _as_matrix(self.mat, "G")
        d = self.n + self.m
        if mat.shape != (d, d):
            raise ValueError(f"G has shape {mat.shape}, expected ({d}, {d})")
        if not np.isfinite(mat).all():
            raise ValueError("G must be finite")
        if not np.allclose(mat, mat.T, atol=SYM_TOL, rtol=0.0):
            raise ValueError("G must be symmetric within 1e-9")
        object.__setattr__(self, "mat", mat)

    @classmethod
    def symmetrized(cls, mat: np.ndarray, n: int, m: int) -> "QFactor":
        return cls(symmetrize(np.asarray(mat, dtype=float)), n, m)


@dataclass(frozen=True)
class Gain:
    """State-feedback gain, u = K x; K is a read-only float64 copy. The gain
    keeps the closed loop of the last system it met (see _gain_loop)."""

    K: np.ndarray
    _loop: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "K", _as_matrix(self.K, "K"))


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    spectral_radius: float


@dataclass(frozen=True)
class OracleSolution:
    """Ground truth: fixed point G*, Riccati solution P = Pi(G*), gain K*."""

    G_star: QFactor
    P: np.ndarray
    K_star: Gain
    iterations: int
    residual: float


def _pinv_uu(uu: np.ndarray) -> np.ndarray:
    """Pseudo-inverses of a stack of G_uu blocks, shape S + (m, m); a single
    (m, m) block is a stack of one. Warns once per call when any block is
    rank-deficient at the cutoff, naming how many and the first one's index.

    Each pseudo-inverse is np.linalg.pinv(block, rcond=PINV_TOL) written
    out: the same SVD, cutoff and product, so the same bits, without pinv's
    wrapper overhead. The cutoff, the reciprocals and the product run once
    on the whole stack. The SVDs alone run block by block, two per block
    (the rank check's and the full one), because the benchmark pins two
    SVD calls per sensor update. One stacked call of each would be much
    faster: for 32 1x1 blocks on one core of a 2-vCPU Xeon, about 125 us
    for the two stacked calls against 845 us for 64 single ones. That, and
    taking the pseudo-inverse from the rank check's SVD, wait until the pin
    is re-stated (ROADMAP item 1).
    """
    stack, m = uu.shape[:-2], uu.shape[-1]
    blocks = uu.reshape(math.prod(stack), m, m)
    svals, s = np.empty((2, *blocks.shape[:2]))
    u, vt = np.empty((2, *blocks.shape))
    for j, block in enumerate(blocks):
        svals[j] = np.linalg.svd(block, compute_uv=False)
        u[j], s[j], vt[j] = np.linalg.svd(block, full_matrices=False)
    # Column slices, not s[:, 0]: an empty (m = 0) block stays empty.
    deficient = np.flatnonzero(svals[:, -1:] <= PINV_TOL * svals[:, :1])
    if deficient.size:
        first = tuple(int(i) for i in np.unravel_index(deficient[0], stack))
        warnings.warn(
            f"G_uu rank-deficient at cutoff {PINV_TOL:g} in {deficient.size} "
            f"of {len(blocks)} blocks (first at index {first}); "
            "pseudo-inverse drops the null directions",
            RankDeficientWarning,
            stacklevel=3,
        )
    large = s > PINV_TOL * s[:, :1]
    s_inv = np.divide(1.0, s, out=np.zeros(s.shape), where=large)
    pinv = vt.swapaxes(-1, -2) @ (s_inv[:, :, None] * u.swapaxes(-1, -2))
    return pinv.reshape(uu.shape)


def pi_map(G: np.ndarray, n: int) -> np.ndarray:
    """Schur complement G_xx - G_xu G_uu^+ G_ux of the raw (n+m)x(n+m)
    Q-factor G with n states, recovering P from G; symmetrized. A stack G of
    shape S + (n+m, n+m) gives the stack of complements, S + (n, n)."""
    P = G[..., :n, n:] @ _pinv_uu(G[..., n:, n:]) @ G[..., n:, :n]
    np.subtract(G[..., :n, :n], P, out=P)
    return symmetrize(P)


def gamma_map(G: np.ndarray, n: int) -> Gain:
    """Feedback gain -G_uu^+ G_ux recovered from the blocks of the raw G."""
    return Gain(-_pinv_uu(G[n:, n:]) @ G[n:, :n])


def realize(sys: SystemModel, omega) -> np.ndarray:
    """Sampled plant [A_k B_k] = [A B] + w*[Abar Bbar], n x (n+m) for a
    scalar omega and S + (n, n+m) for an array of shape S; draws nothing."""
    U, V = sys.stacked()
    return U + np.asarray(omega)[..., None, None] * V


def _bellman(P: np.ndarray, plants: np.ndarray, Q: np.ndarray,
             R: np.ndarray) -> np.ndarray:
    """plants' P plants with Q and R added on the diagonal blocks:
    [[Q + A'PA, A'PB], [B'PA, B'PB + R]] for each plant [A B] of the stack
    plants, S + (n, n+m), with P broadcasting against it. The learner's
    y_operator and the oracle's H both evaluate this one map."""
    n = Q.shape[0]
    M = plants.swapaxes(-1, -2) @ P @ plants
    M[..., :n, :n] += Q
    M[..., n:, n:] += R
    return M


def y_operator(G: np.ndarray, Uk: np.ndarray, Q: np.ndarray,
               R: np.ndarray) -> np.ndarray:
    """Sampled Bellman residual at the raw (n+m)x(n+m) estimate G for one
    sampled plant Uk = [A_k B_k] (see realize). G may be a stack of
    estimates, S + (n+m, n+m), and Uk a stack of plants, S + (n, n+m); either
    broadcasts against the other, and the result is the stack of residuals,
    S + (n+m, n+m). Each entry has the bits of a call on its own G and Uk.

    [[Q + A_k' P A_k, A_k' P B_k], [B_k' P A_k, B_k' P B_k + R]] - G
    with P = pi_map(G); symmetrized. Its expectation under the true noise law
    vanishes exactly at G*.
    """
    M = _bellman(pi_map(G, Q.shape[0]), Uk, Q, R)
    M -= G
    return symmetrize(M)


def _h_map(P: np.ndarray, sys: SystemModel, noise: NoiseModel) -> np.ndarray:
    """H(P) = diag(Q,R) + E[Ups(k)' P Ups(k)]: the learner's Bellman map, averaged
    over the plants at the noise nodes (which the learners never see)."""
    return _bellman(P, realize(sys, noise.nodes), sys.Q, sys.R).mean(axis=0)


def expectation_map(G: np.ndarray, sys: SystemModel, noise: NoiseModel) -> np.ndarray:
    """H(Pi(G)) = E[ diag(Q,R) + Ups(k)' Pi(G) Ups(k) ], symmetrized."""
    return symmetrize(_h_map(pi_map(G, sys.n), sys, noise))


def solve_oracle(
    sys: SystemModel,
    noise: NoiseModel,
    oracle_tol: float = DEFAULT_ORACLE_TOL,
    max_iter: int = DEFAULT_ORACLE_MAX_ITER,
    *,
    start=None,
) -> OracleSolution:
    """Picard iteration G <- expectation_map(G) from start, diag(Q, R) by
    default.

    Returns G* with ||G* - expectation_map(G*)||_F <= oracle_tol, together
    with P = pi_map(G*) and K* = gamma_map(G*). The iterates are plain
    arrays; G* is checked once, as a QFactor.

    start, when given, is checked as a QFactor (ValueError unless it is a
    finite (n+m)x(n+m) matrix, symmetric within SYM_TOL) and copied. From a
    G* this function returned, one step passes the test: with max_iter=1
    the call certifies a stored G* and returns it, with the P, K* and
    residual of the solve that found it, bit for bit.

    Raises NoConvergenceError when the residual stays above oracle_tol or
    overflows (the LQ problem is then likely ill-posed) and
    NotStabilizingError when the resulting K* fails the mean-square
    stability check.
    """
    if oracle_tol <= 0.0:
        raise ValueError("oracle_tol must be > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    if start is None:
        G = sys.cost_block()
    else:
        G = QFactor(start, sys.n, sys.m).mat
    residual = np.inf
    for iteration in range(1, max_iter + 1):
        # A diverging iteration overflows; the residual reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            G_next = expectation_map(G, sys, noise)
            residual = float(np.linalg.norm(G_next - G))
        if residual <= oracle_tol:
            break
        if not np.isfinite(residual):
            raise NoConvergenceError(residual, iteration)
        G = G_next
    else:
        raise NoConvergenceError(residual, max_iter)

    P = pi_map(G, sys.n)
    K = gamma_map(G, sys.n)
    report = ms_stability_check(K, sys, noise)
    if not report.stable:
        raise NotStabilizingError(report.spectral_radius)
    return OracleSolution(
        G_star=QFactor(G, sys.n, sys.m), P=P, K_star=K, iterations=iteration,
        residual=residual,
    )


def optimal_gain_closed_form(
    P: np.ndarray, sys: SystemModel, noise: NoiseModel
) -> Gain:
    """Optimal gain K = -H_uu^-1 H_ux read from the blocks of H(P).

    H_uu = R + E[B(k)'PB(k)] and H_ux = E[B(k)'PA(k)].
    """
    H = _h_map(symmetrize(_as_matrix(P, "P")), sys, noise)
    n = sys.n
    try:
        K = -np.linalg.solve(H[n:, n:], H[n:, :n])
    except np.linalg.LinAlgError as exc:
        raise SingularInnerMatrixError(
            "inner matrix R + E[B(k)'PB(k)] is singular; "
            "cannot happen for R > 0 and P >= 0"
        ) from exc
    return Gain(K)


def _sum_of_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j a[j] * b[j] over the leading axis, added in ascending j from the
    j = 0 term; elementwise, so its bits do not depend on the BLAS build."""
    out = a[0] * b[0]
    for j in range(1, len(a)):
        out += a[j] * b[j]
    return out


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-D a and b, each entry summed by _sum_of_products."""
    return _sum_of_products(a.T[:, :, None], b[:, None, :])


def _closed_loop(K: Gain, sys: SystemModel) -> tuple[np.ndarray, np.ndarray]:
    """(Acl, Abcl) = (A + BK, Abar + Bbar K): under u = Kx the sampled plant
    steps x(k+1) = (Acl + w(k) Abcl) x(k). BK and Bbar K are summed by
    _matmul, so the bits do not depend on the BLAS build; with m = 1 each
    entry is one product, as a matmul gives it. Raises ValueError unless K
    is m x n."""
    if K.K.shape != (sys.m, sys.n):
        raise ValueError(f"K has shape {K.K.shape}, expected {(sys.m, sys.n)}")
    return sys.A + _matmul(sys.B, K.K), sys.A_bar + _matmul(sys.B_bar, K.K)


def _stage_weight(K: Gain, sys: SystemModel) -> np.ndarray:
    """C = Q + (K'R)K, so that x'Cx = x'Qx + u'Ru under u = Kx; summed by
    _matmul, in the order K.T @ R @ K takes it."""
    return sys.Q + _matmul(_matmul(K.K.T, sys.R), K.K)


def _gain_loop(K: Gain, sys: SystemModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Acl, Abcl, C) of the gain K on sys, from _closed_loop and
    _stage_weight, built once per (gain, system) pair: K keeps the last
    system it met with the three read-only arrays, and returns them while
    sys is that same object. Model arrays are read-only copies, so the same
    object always holds the same values. Raises ValueError unless K is m x n.
    A gain large enough to overflow C or the loop gets inf entries without
    a warning, as ms_stability_check's operator does; the check then reports
    the loop unstable, or a rollout's costs are not finite.

    The reuse sits on the gain because the benchmark pins one
    simulate_trajectory call per Monte Carlo run (ROADMAP item 1a), so a
    rollout cannot take the loop from its caller; item 2's batched rollout
    builds it once per batch and replaces this.
    """
    cached = K._loop
    if cached is not None and cached[0] is sys:
        return cached[1]
    with np.errstate(over="ignore", invalid="ignore"):
        loop = (*_closed_loop(K, sys), _stage_weight(K, sys))
    for mat in loop:
        mat.flags.writeable = False
    object.__setattr__(K, "_loop", (sys, loop))
    return loop


def ms_stability_check(
    K: Gain, sys: SystemModel, noise: NoiseModel
) -> StabilityReport:
    """Mean-square stability of the closed loop under u = Kx.

    The second moment of the state obeys vec(X(k+1)) = T vec(X(k)) with
    T = E[M(w) (x) M(w)], M(w) = Acl + w Abcl, Acl = A + BK and
    Abcl = Abar + Bbar K: the mean of the Kronecker square over the noise
    nodes. Stable iff the spectral radius of the n^2 x n^2 operator T is < 1.
    A T that overflows (or holds NaN) is reported as unstable, with spectral
    radius inf.
    """
    Acl, Abcl, _ = _gain_loop(K, sys)
    with np.errstate(over="ignore", invalid="ignore"):
        T = np.mean(
            [np.kron(M, M) for M in Acl + noise.nodes[:, None, None] * Abcl], axis=0
        )
    if not np.isfinite(T).all():
        return StabilityReport(stable=False, spectral_radius=math.inf)
    rho = float(np.abs(np.linalg.eigvals(T)).max())
    return StabilityReport(stable=rho < 1.0, spectral_radius=rho)


def riccati_residual(P: np.ndarray, sys: SystemModel, noise: NoiseModel) -> float:
    """||P - Pi(H(P))||_F, zero iff P solves the generalized Riccati equation

    P = E[Q + A(k)'PA(k)] - E[A(k)'PB(k)] E[B(k)'PB(k) + R]^+ E[B(k)'PA(k)].
    """
    P = symmetrize(_as_matrix(P, "P"))
    return float(np.linalg.norm(P - pi_map(_h_map(P, sys, noise), sys.n)))
