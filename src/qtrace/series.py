"""Series combinations of Tr{G^k} estimates into nonlinear functionals.

Two built-in coefficient families over the channel G = I - 2*rho:

* power:  Tr{rho^m} = sum_k (-1)^k C(m,k)/2^m * Tr{G^k},  k = 0..m
  (binomial expansion of rho = (I - G)/2).

* entropy: the truncated expansion of rho ln rho in powers of G, at trace
  level (natural log throughout):

      c_0 = -ln(2)/2            on Tr{I} = 2^n
      c_1 = ln(2)/2 - 1/2       on Tr{G}
      c_j = (1/(j-1) - 1/j)/2   on Tr{G^j},  2 <= j <= n_t
      c_{n_t+1} = 1/(2 n_t)     on Tr{G^{n_t+1}}

``evaluate_series`` accepts arbitrary weights, so other functionals (e.g.
exponential traces) need no bespoke code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .ht import TraceEstimate, combined_mode


@dataclass(frozen=True)
class SeriesWeights:
    """Coefficients c_0..c_K attached to Tr{G^0}..Tr{G^K}: any finite,
    non-empty tuple."""

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("coefficients must be non-empty")
        if not all(math.isfinite(c) for c in self.coefficients):
            raise ValueError("coefficients must be finite")

    @property
    def max_power(self) -> int:
        """Highest Tr{G^k} power the series consumes."""
        return len(self.coefficients) - 1


def binomial_weights(m: int) -> SeriesWeights:
    """Signed binomial weights c_k = (-1)^k C(m,k)/2^m for Tr{rho^m}."""
    if m < 0:
        raise ValueError(f"order must be >= 0, got {m}")
    coeffs = tuple((-1.0) ** k * math.comb(m, k) / 2.0**m for k in range(m + 1))
    return SeriesWeights(coeffs)


def entropy_weights(truncation_order: int) -> SeriesWeights:
    """Trace-level weights of the rho ln rho expansion truncated at the given
    order; consumes Tr{G^k} up to k = truncation_order + 1."""
    n_t = truncation_order
    if n_t < 1:
        raise ValueError(f"truncation order must be >= 1, got {n_t}")
    coeffs = [-0.5 * math.log(2.0), 0.5 * math.log(2.0) - 0.5]
    coeffs += [0.5 * (1.0 / (j - 1) - 1.0 / j) for j in range(2, n_t + 1)]
    coeffs.append(0.5 / n_t)
    return SeriesWeights(tuple(coeffs))


def evaluate_series(
    w: SeriesWeights, gk: Sequence[TraceEstimate]
) -> TraceEstimate:
    """sum_k c_k * gk[k].value, with standard errors combined in quadrature.

    ``gk[k]`` must be the estimate of Tr{G^k}; quadrature combination assumes
    the per-k estimates are independent (use fresh sample streams per k).
    """
    if len(gk) <= w.max_power:
        raise ValueError(
            f"series needs Tr{{G^k}} up to k={w.max_power}, "
            f"got estimates only up to k={len(gk) - 1}"
        )
    value = sum(c * gk[k].value for k, c in enumerate(w.coefficients))
    variance = sum(
        (c * gk[k].std_error) ** 2 for k, c in enumerate(w.coefficients)
    )
    used = gk[: w.max_power + 1]
    return TraceEstimate(
        value,
        math.sqrt(variance),
        sum(est.samples for est in used),
        combined_mode([est.mode for est in used]),
    )
