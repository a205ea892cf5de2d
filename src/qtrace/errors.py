"""Error types shared by the estimator modules."""

from __future__ import annotations


class ResourceLimitError(RuntimeError):
    """A GST enumeration would walk or hold more than its fixed caps allow."""

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
    guarantees (an HT outcome probability outside [0, 1], a GST exact Gram
    that is not symmetric or has an entry above 1, an exact p entry above
    1), so the result would be wrong rather than noisy."""

    def __init__(self, message: str, *, statistic: float) -> None:
        super().__init__(message)
        self.statistic = statistic
