"""Exception types shared across the package."""


class LqLearnError(Exception):
    """Base class for all lqlearn errors."""


class NoConvergenceError(LqLearnError):
    """Fixed-point iteration did not reach the requested residual.

    Usually means the LQ problem is not mean-square stabilizable (ill-posed),
    so no positive-definite Riccati solution exists.
    """

    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(residual {residual:.3e})"
        )


class NotStabilizingError(LqLearnError):
    """A gain failed the mean-square stability check."""

    def __init__(self, spectral_radius: float):
        self.spectral_radius = spectral_radius
        super().__init__(
            f"closed loop is not mean-square stable "
            f"(second-moment spectral radius {spectral_radius:.6f} >= 1)"
        )


class SingularInnerMatrixError(LqLearnError):
    """The m-by-m inner matrix of the closed-form gain is singular.

    Cannot occur for R > 0 and P >= 0; treated as an assertion failure.
    """


class DivergedError(LqLearnError):
    """An iterate or simulation exceeded the divergence guard.

    step is the round or step that tripped it; a learner also names the
    first offending sensor and that sensor's ||G||_F (None when unknown).
    """

    def __init__(
        self,
        message: str,
        step: int | None = None,
        sensor: int | None = None,
        norm: float | None = None,
    ):
        self.step = step
        self.sensor = sensor
        self.norm = norm
        super().__init__(message)


class SeedMismatchError(LqLearnError):
    """Two traces being compared were not driven by the same noise sequence."""


class BadSpecError(LqLearnError):
    """Malformed topology descriptor."""


class DisconnectedError(LqLearnError):
    """Edge set does not connect all vertices."""


class NotContractiveError(LqLearnError):
    """Consensus weight too large for the graph Laplacian spectrum."""

    def __init__(self, w: float, lambda_max: float):
        self.w = w
        self.lambda_max = lambda_max
        super().__init__(
            f"consensus operator not contractive: "
            f"w*lambda_max = {w * lambda_max:.6f} >= 2 "
            f"(w={w}, lambda_max={lambda_max:.6f})"
        )


class ConfigParseError(LqLearnError):
    """Config file failed to parse; message carries line/field context."""


class ConfigValidationError(LqLearnError):
    """Config parsed but violated invariants; aggregates all violations."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__(
            "invalid config:\n" + "\n".join(f"  - {v}" for v in self.violations)
        )


class RankDeficientWarning(RuntimeWarning):
    """The input block of a Q-factor was rank-deficient at the pinv cutoff."""
