"""Exception types shared across the package.

The split matters for the CLI: configuration problems exit with code 2,
numerical failures (rank stalls, non-PSD matrices, degenerate kernels) with
code 3.
"""


class ConfigError(ValueError):
    """Bad experiment configuration (unknown keys, missing values, bad types)."""


class NumericalError(RuntimeError):
    """Base class for numerical failures that abort a run."""


class KernelDomainError(NumericalError):
    """Inner products outside the kernel domain |λ₃| ≤ 2√(λ₁λ₂)."""


class DegenerateKernelError(NumericalError):
    """Residual gradient variance is not positive where the recursion needs it."""


class NotPsdError(NumericalError):
    """Cholesky failed even at the maximum allowed jitter."""


class RankStallError(NumericalError):
    """Residual variance σ²_w fell to zero: the span stopped growing."""


class CoincidentPointsError(NumericalError):
    """Two limiting evaluation points collided (ρ ≤ tolerance)."""


class DegenerateProjectionError(NumericalError):
    """Sphere projection hit an (asymptotically impossible) zero-norm iterate."""
