"""Measurement noise models, Gaussian noise injection and error-bound
calculators.

``MeasureMode`` is the one description of measurement noise that HT and GST
both take: exact values, binomial shot noise, or additive Gaussian noise.

The bound functions implement the asymptotic forms with constant factor 1 and
are labeled estimates in all outputs: they size experiments and annotate
reports, they never gate a computation automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MeasureMode:
    """How a measured quantity is read out: its exact value, binomial shot
    noise with N shots, or additive Gaussian noise of std sigma."""

    kind: str = "exact"
    shots: int | None = None
    sigma: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "shots", "gaussian"):
            raise ValueError(f"unknown measure mode {self.kind!r}")
        if self.kind == "shots" and (self.shots is None or self.shots < 1):
            raise ValueError(f"shots mode needs shots >= 1, got {self.shots!r}")
        if self.kind == "gaussian" and (self.sigma is None or self.sigma < 0):
            raise ValueError(f"gaussian mode needs sigma >= 0, got {self.sigma!r}")

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"


EXACT = MeasureMode()


class DivergentBoundError(ValueError):
    """A perturbation-series bound whose denominator is not positive."""


def perturb_probabilities(
    p: np.ndarray, sigma: float, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """p + N(0, sigma^2) per entry, clamped back into [0, 1].

    Returns the clamped array and the number of entries that were clamped,
    so callers can report how often the noise model saturated.
    """
    if sigma == 0.0:
        return p, 0
    noisy = p + sigma * rng.standard_normal(p.shape)
    clamps = int(np.count_nonzero((noisy < 0.0) | (noisy > 1.0)))
    return np.clip(noisy, 0.0, 1.0), clamps


def shots_for_accuracy(d: int, eps_tilde: float, delta_tilde: float) -> int:
    """Per-entry shot count so every one of the d^2 Gram entries is within
    eps_tilde with probability >= 1 - delta_tilde (Hoeffding inversion).

    Returns ceil(ln(2 d^2 / delta_tilde) / (2 eps_tilde^2)).
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not 0 < eps_tilde < 1:
        raise ValueError(f"eps_tilde must be in (0, 1), got {eps_tilde!r}")
    if not 0 < delta_tilde < 1:
        raise ValueError(f"delta_tilde must be in (0, 1), got {delta_tilde!r}")
    return math.ceil(math.log(2.0 * d * d / delta_tilde) / (2.0 * eps_tilde**2))


def gram_inverse_error_bound(d: int, eps1: float, epsilon: float) -> float:
    """Per-entry bound d^2*eps1 / (1 - d^2*eps1*epsilon) on the inverse-Gram
    perturbation, valid while the geometric series converges."""
    denom = 1.0 - d * d * eps1 * epsilon
    if denom <= 0.0:
        raise DivergentBoundError(
            f"bound diverges: d^2*eps1*epsilon = {d * d * eps1 * epsilon!r} >= 1"
        )
    return d * d * eps1 / denom


def sampling_error_bound(d: int, eps1: float, eps2: float, epsilon: float) -> float:
    """Three-term statistical error bound on Tr{g^-1 R_w}:

        d^4 eps1/(1 - d^2 eps1 eps) + d^2 eps2/eps + d^4 eps1 eps2/(1 - d^2 eps1 eps)
    """
    denom = 1.0 - d * d * eps1 * epsilon
    if denom <= 0.0:
        raise DivergentBoundError(
            f"bound diverges: d^2*eps1*epsilon = {d * d * eps1 * epsilon!r} >= 1"
        )
    d2, d4 = float(d * d), float(d**4)
    return d4 * eps1 / denom + d2 * eps2 / epsilon + d4 * eps1 * eps2 / denom


def truncation_error_estimate(
    n_layers: int, d: int, epsilon: float, shots: float
) -> float:
    """Order-of-magnitude estimate d * n_layers * (epsilon + d^2/sqrt(shots))^{1/4}
    of the trace bias from discarding subspace states.

    Constant factor 1; an estimate, not a certified bound.
    """
    if n_layers < 0 or d < 1:
        raise ValueError(f"need n_layers >= 0 and d >= 1, got {n_layers}, {d}")
    if epsilon < 0 or shots <= 0:
        raise ValueError(f"need epsilon >= 0 and shots > 0, got {epsilon!r}, {shots!r}")
    return d * n_layers * (epsilon + d * d / math.sqrt(shots)) ** 0.25
