"""Hadamard-test Monte Carlo estimator of Tr{rho^{m+1}}.

The one-ancilla interference circuit is never simulated directly: its outcome
distribution folds analytically into

    P(0) = (1 + Re <psi|W|psi>) / 2,        P(1) = 1 - P(0),

where |psi> is the sampled initial component state and W is the sampled word
of reflections.  A sampled circuit inserts each of m candidate layers with
probability 1/2 and draws every component index with its ensemble
probability; the signed outcome (-1)^k * (+1 | -1) is then an unbiased
estimator of Tr{rho^{m+1}} because the binomial layer-count weights match the
expansion of rho^m = ((I - G)/2)^m.

For a single sampled word the quantity <psi|W|psi> may be complex; the
physical measurement sees its real part, and the imaginary parts cancel in
expectation over words.

Words are applied in circuit order: the earliest sampled layer acts first on
the state.

Circuits are simulated in batches, in the span of the alpha component
states: a batch is drawn as an array of component indices (initial state and
one per candidate layer) and an array of layer flags, a state
sum_j c_j |psi_j> is held as its alpha coefficients c, the Gram
K = EnsembleSpec.gram supplies every overlap, and the reflection
G_a = I - 2|psi_a><psi_a| becomes c_a -= 2 (K c)_a.  A trial with k layers
costs O(k alpha), independent of n; no 2**n vector is formed.

Three modes:

* ``estimate_power_trace_enumerate`` — exact expectation over all words and
  layer patterns (no randomness, std_error 0).
* ``estimate_power_trace_mc`` with ``measure="exact-prob"`` — Monte Carlo
  over circuits, each contributing its exact signed probability.
* ``estimate_power_trace_mc`` with ``measure="shots"`` — full simulation
  with binomial measurement noise per circuit.

Monte Carlo trials are processed in fixed-size chunks with one RNG substream
per (master seed, chunk start); partial (sum, sum-of-squares, count) triples
merge in chunk order, so results are bit-identical for a fixed seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from . import noise_bounds
from ._parallel import merge_moment_sums, run_chunked
from .ensemble import EnsembleSpec
from .errors import IdentityViolationError, ResourceLimitError
# Unused here; the benchmark tracer patches ``ht.reflect_amplitudes``.
from .qcore import reflect_amplitudes  # noqa: F401
from .rng import as_master_seed, rng_stream

logger = logging.getLogger(__name__)

MODE_EXACT_ENUMERATION = "exact-enumeration"
MODE_MC_EXACT_PROB = "mc-exact-prob"
MODE_MC_SHOTS = "mc-shots"
#: Oracle values wrapped as estimates (CLI tables, series inputs).
MODE_ORACLE = "oracle"

_KNOWN_MODES = (
    MODE_EXACT_ENUMERATION,
    MODE_MC_EXACT_PROB,
    MODE_MC_SHOTS,
    MODE_ORACLE,
)
_EXACT_MODES = (MODE_EXACT_ENUMERATION, MODE_ORACLE)

#: Default cap on evaluated words in enumeration mode.
DEFAULT_ENUMERATION_CAP = 10**7

#: Complex coefficients held per enumeration block (16 bytes each, 256 KiB),
#: which bounds its memory at any enumeration cap.  Larger blocks raised peak
#: RSS and saved no time.
_ENUM_BLOCK_ENTRIES = 1 << 14

#: Trials per chunk.  Fixed: the chunk layout is the RNG stream layout, so
#: changing it changes every Monte Carlo result.
TRIAL_CHUNK = 8192

_P_TOL = 1e-9


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


def _check_probabilities(p: np.ndarray) -> None:
    bad = (p < -_P_TOL) | (p > 1.0 + _P_TOL)
    if np.any(bad):
        raise IdentityViolationError(
            f"outcome probability {p[bad][0]!r} outside [0, 1]", statistic=float(p[bad][0])
        )


def _finish_estimate(
    total: float, total_sq: float, count: int, mode: str
) -> TraceEstimate:
    mean = total / count
    if count > 1:
        var = max(total_sq - count * mean * mean, 0.0) / (count - 1)
        stderr = math.sqrt(var / count)
    else:
        stderr = 0.0
    return TraceEstimate(mean, stderr, count, mode)


def _outcome_probabilities(
    e: EnsembleSpec, comps: np.ndarray, flags: np.ndarray
) -> np.ndarray:
    """Exact P(0) of each sampled circuit, checked and clipped into [0, 1].

    Row r starts in psi_{comps[r, 0]} and passes the m candidate layers in
    circuit order; layer t reflects about psi_{comps[r, t + 1]} where
    flags[r, t] is set.  States are held as span coefficients.
    """
    gram = e.gram
    b, m = flags.shape
    c = np.zeros((b, e.alpha), dtype=np.complex128)
    c[np.arange(b), comps[:, 0]] = 1.0
    for t in range(m):
        on = np.flatnonzero(flags[:, t])
        axes = comps[on, t + 1]
        inner = np.einsum("ij,ij->i", gram[axes], c[on])
        c[on, axes] -= 2.0 * inner

    p0 = 0.5 * (1.0 + np.einsum("ij,ij->i", gram[comps[:, 0]], c).real)
    _check_probabilities(p0)
    return np.clip(p0, 0.0, 1.0)


def _mc_chunk(
    e: EnsembleSpec,
    m: int,
    shots_per_trial: int,
    measure: str,
    ht_sigma: float,
    master_seed: int,
    lo: int,
    hi: int,
) -> tuple[float, float, int, int]:
    """Partial (sum, sum_sq, count, clamp_events) over trials [lo, hi)."""
    rng = rng_stream(master_seed, lo)
    b = hi - lo
    comps = e.component_indices(rng.random((b, m + 1)))
    flags = rng.random((b, m)) < 0.5
    p0 = _outcome_probabilities(e, comps, flags)

    clamps = 0
    if ht_sigma > 0.0:
        p0, clamps = noise_bounds.perturb_probabilities(p0, ht_sigma, rng)

    sign = 1.0 - 2.0 * (flags.sum(axis=1) % 2)
    if measure == "exact-prob":
        x = sign * (2.0 * p0 - 1.0)
        return float(x.sum()), float(np.dot(x, x)), b, clamps
    # shots: each of the s outcomes is +-1, so the sum of squares is exact.
    n0 = rng.binomial(shots_per_trial, p0)
    shot_sum = sign * (2.0 * n0 - shots_per_trial)
    return float(shot_sum.sum()), float(b * shots_per_trial), b * shots_per_trial, clamps


def estimate_power_trace_mc(
    e: EnsembleSpec,
    m: int,
    trials: int,
    shots_per_trial: int = 1,
    rng: "int | np.random.Generator" = 0,
    measure: str = "shots",
    ht_sigma: float = 0.0,
) -> TraceEstimate:
    """Monte Carlo estimate of Tr{rho^{m+1}} from ``trials`` sampled circuits.

    ``measure="shots"`` draws ``shots_per_trial`` binomial measurements per
    circuit; ``measure="exact-prob"`` uses each circuit's exact signed
    probability (one sample per trial, no shot noise).  The standard error is
    the sample standard deviation over all outcomes divided by sqrt(count).

    Gaussian injection (``ht_sigma`` > 0) perturbs each circuit's outcome
    probability and pairs with the exact-prob measure only: binomial shot
    noise and Gaussian noise are distinct models, never combined in one run.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if shots_per_trial < 1:
        raise ValueError(f"shots_per_trial must be >= 1, got {shots_per_trial}")
    if measure not in ("shots", "exact-prob"):
        raise ValueError(f"measure must be 'shots' or 'exact-prob', got {measure!r}")
    if measure == "shots" and ht_sigma > 0.0:
        raise ValueError(
            "ht_sigma pairs with measure='exact-prob'; shot noise and "
            "Gaussian noise are never combined in one run"
        )

    master_seed = as_master_seed(rng)
    worker = partial(
        _mc_chunk, e, m, shots_per_trial, measure, ht_sigma, master_seed
    )
    parts = run_chunked(worker, trials, TRIAL_CHUNK)
    total, total_sq, count = merge_moment_sums([p[:3] for p in parts])
    clamps = sum(p[3] for p in parts)
    if clamps:
        logger.debug("ht noise clamped %d of %d probabilities", clamps, trials)
    mode = MODE_MC_SHOTS if measure == "shots" else MODE_MC_EXACT_PROB
    return _finish_estimate(total, total_sq, count, mode)


def enumeration_word_count(alpha: int, m: int) -> int:
    """Words evaluated by full enumeration: sum_k alpha^(k+1) for k = 0..m."""
    return sum(alpha ** (k + 1) for k in range(m + 1))


def _enumerate_block(e: EnsembleSpec, k: int, lo: int, hi: int) -> float:
    """sum over the length-k words of rank [lo, hi), in itertools.product
    order, of (prod p) sum_i p_i Re <psi_i|W|psi_i>.

    Each word carries an (alpha, alpha) coefficient array: row i holds the
    span coefficients of W|psi_i>, so one pass covers every initial component.
    """
    alpha, gram = e.alpha, e.gram
    ranks = np.arange(lo, hi)[:, None]
    words = (ranks // alpha ** np.arange(k - 1, -1, -1)) % alpha
    w = np.arange(hi - lo)
    c = np.broadcast_to(np.eye(alpha, dtype=np.complex128), (hi - lo, alpha, alpha)).copy()
    for t in range(k):
        axes = words[:, t]
        inner = np.einsum("wj,wij->wi", gram[axes], c)
        c[w, :, axes] -= 2.0 * inner
    re = np.einsum("ij,wij->wi", gram, c).real
    _check_probabilities(0.5 * (1.0 + re))
    weights = np.prod(e.probs[words], axis=1)
    return float(weights @ (re @ e.probs))


def estimate_power_trace_enumerate(
    e: EnsembleSpec, m: int, enumeration_cap: int = DEFAULT_ENUMERATION_CAP
) -> TraceEstimate:
    """Exact expectation of the Hadamard-test estimator for Tr{rho^{m+1}}:

        sum_k (C(m,k)/2^m) (-1)^k  sum_words (prod p) (2 P_word(0) - 1)

    over all alpha^(k+1) component words for each k.  Equals the oracle
    value; std_error is 0.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    planned = enumeration_word_count(e.alpha, m)
    if planned > enumeration_cap:
        raise ResourceLimitError(
            f"enumeration needs {planned} words, over the cap of {enumeration_cap}",
            requested=planned,
            cap=enumeration_cap,
        )

    block = max(1, _ENUM_BLOCK_ENTRIES // e.alpha**2)
    total = 0.0
    for k in range(m + 1):
        n_words = e.alpha**k
        layer_sum = sum(
            _enumerate_block(e, k, lo, min(lo + block, n_words))
            for lo in range(0, n_words, block)
        )
        total += math.comb(m, k) / 2.0**m * (-1.0) ** k * layer_sum
    return TraceEstimate(total, 0.0, planned, MODE_EXACT_ENUMERATION)
