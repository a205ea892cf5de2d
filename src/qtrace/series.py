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
exponential traces) need no bespoke code.  ``evaluate_telescoped`` evaluates
the same series from estimates of a_j = Tr{rho G^j} instead of Tr{G^k}.

This module is also the estimate layer that the oracle, HT and GST share:
the ``TraceEstimate`` record and its modes, ``combined_mode``, the Monte
Carlo reduction ``mc_estimate``, and ``DEFAULT_ENUMERATION_CAP`` with
``check_enumeration_cap``, the one cap rule and record that HT, GST and the
CLI's pre-check apply.  It imports no estimator module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .errors import ResourceLimitError

MODE_EXACT_ENUMERATION = "exact-enumeration"
MODE_MC_EXACT_PROB = "mc-exact-prob"
MODE_MC_SHOTS = "mc-shots"
#: Oracle values wrapped as estimates (CLI tables, series inputs).
MODE_ORACLE = "oracle"

_KNOWN_MODES = (MODE_EXACT_ENUMERATION, MODE_MC_EXACT_PROB, MODE_MC_SHOTS, MODE_ORACLE)
_EXACT_MODES = (MODE_EXACT_ENUMERATION, MODE_ORACLE)

#: Default cap on evaluated words in enumeration mode.
DEFAULT_ENUMERATION_CAP = 10**7


def check_enumeration_cap(words: int, cap: int, what: str) -> None:
    """Raise ResourceLimitError if ``what`` needs more than ``cap`` words."""
    if words > cap:
        raise ResourceLimitError(f"{what} needs {words} words, over the cap of {cap}",
                                 requested=words, cap=cap)


@dataclass(frozen=True)
class TraceEstimate:
    """A Tr{...} estimate: value, standard error, sample count, and the
    sampling mode that produced it."""

    value: float
    std_error: float
    samples: int
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in _KNOWN_MODES:
            raise ValueError(f"unknown estimate mode {self.mode!r}")
        if not self.std_error >= 0.0:
            raise ValueError(f"std_error must be >= 0, got {self.std_error!r}")
        if self.mode in _EXACT_MODES and self.std_error != 0.0:
            raise ValueError(f"{self.mode} estimates must carry std_error 0")
        if self.samples < 0:
            raise ValueError(f"samples must be >= 0, got {self.samples}")


def combined_mode(modes: Sequence[str]) -> str:
    """Mode of a quantity combined from several estimates: the least exact
    contributor wins."""
    for mode in (MODE_MC_SHOTS, MODE_MC_EXACT_PROB, MODE_EXACT_ENUMERATION):
        if mode in modes:
            return mode
    return MODE_ORACLE


def mc_estimate(parts: Sequence[tuple[int, float, float]], mode: str) -> TraceEstimate:
    """Mean and std_error sqrt(M2 / (n - 1) / n) from per-chunk (count, sum,
    M2), M2 the squared deviations about the chunk mean, merged in chunk order
    (Chan, Golub & LeVeque, Am. Stat. 37, 242, 1983): sums add, and M2 gains
    delta^2 n_a n_b / (n_a + n_b), delta the difference of the two means."""
    count, total, m2 = 0, 0.0, 0.0
    for n, s, chunk_m2 in parts:
        delta = s / n - total / count if count else 0.0
        m2 += chunk_m2 + delta * delta * count * n / (count + n)
        count, total = count + n, total + s
    stderr = math.sqrt(m2 / (count - 1) / count) if count > 1 else 0.0
    return TraceEstimate(total / count, stderr, count, mode)


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
    Per-k values built from shared, noisy terms are correlated and must not
    be combined here: their quadrature error would be wrong.  Tr{G^k}
    telescoped from common Tr{rho G^j} estimates goes through
    ``evaluate_telescoped``.
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


def evaluate_telescoped(
    w: SeriesWeights, dim: int, rho_g: Sequence[TraceEstimate]
) -> TraceEstimate:
    """sum_k c_k Tr{G^k} from independent estimates ``rho_g[j]`` of
    a_j = Tr{rho G^j}, for a Hilbert space of dimension ``dim``.

    G^{k+1} = G^k - 2 rho G^k telescopes to Tr{G^k} = dim - 2 sum_{j<k} a_j,
    so the series is dim * sum_k c_k + sum_j b_j a_j with
    b_j = -2 sum_{k>j} c_k.  Each a_j enters once, so the standard error is
    sqrt(sum_j (b_j sigma_j)^2) over the independent a_j.
    """
    k_max = w.max_power
    if len(rho_g) < k_max:
        raise ValueError(
            f"series needs Tr{{rho G^j}} up to j={k_max - 1}, "
            f"got estimates only up to j={len(rho_g) - 1}"
        )
    c = w.coefficients
    if k_max == 0:
        return TraceEstimate(dim * math.fsum(c), 0.0, 0, combined_mode([]))
    b = [-2.0 * sum(c[j + 1:]) for j in range(k_max)]
    est = evaluate_series(SeriesWeights(tuple(b)), rho_g)
    return replace(est, value=dim * math.fsum(c) + est.value)
