"""Error types shared by the estimator modules."""

from __future__ import annotations


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed its configured evaluation cap."""

    def __init__(self, message: str, *, requested: int, cap: int) -> None:
        super().__init__(message)
        self.requested = requested
        self.cap = cap


class IllConditionedGramError(RuntimeError):
    """The measured Gram matrix is too close to singular to invert honestly."""

    def __init__(self, message: str, *, min_eigenvalue: float) -> None:
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class DegenerateAugmentationError(RuntimeError):
    """No state orthogonal to the circuit states exists (subspace spans
    the full Hilbert space), so the augmented-trace step cannot run."""


class IdentityViolationError(ArithmeticError):
    """An exact-mode statistic breaks an identity that exact arithmetic
    guarantees (a probability outside [0, 1], |Tr w|^2 < 0, Re[Tr w] > d),
    so the result would be wrong rather than noisy."""

    def __init__(self, message: str, *, statistic: float) -> None:
        super().__init__(message)
        self.statistic = statistic
