"""Hadamard-test Monte Carlo estimator of Tr{rho^{m+1}}.

The one-ancilla interference circuit is never simulated directly: its outcome
distribution folds analytically into

    P(0) = (1 + Re <psi|W|psi>) / 2,        P(1) = 1 - P(0),

where |psi> is the sampled initial component state and W is the sampled word
of reflections.  A sampled circuit of j layers draws its initial component
and each layer's component with their ensemble probabilities, so
E[G_q] = G and 2 P(0) - 1 is an unbiased sample of a_j = Tr{rho G^j} in
[-1, 1].  Tr{rho^{m+1}} is the binomial series sum_j (C(m,j)/2^m) (-1)^j a_j
of rho^m = ((I - G)/2)^m, as in enumeration and in GST.

For a single sampled word the quantity <psi|W|psi> may be complex; the
physical measurement sees its real part, and the imaginary parts cancel in
expectation over words.

Words are applied in circuit order: the earliest sampled layer acts first on
the state.

Circuits are simulated in batches, in the span of the alpha component
states: a batch is drawn as an array of component indices (initial state and
one per layer), a state sum_j c_j |psi_j> is held as its alpha coefficients
c, the Gram K = EnsembleSpec.gram supplies every overlap, and the reflection
G_a = I - 2|psi_a><psi_a| becomes c_a -= 2 (K c)_a, O(alpha) and
independent of n; no 2**n vector is formed.  The trials of a chunk that
share a prefix (initial component and the letters of the layers so far)
share one coefficient row, reflected once per level.  Sharing stops at the
first level whose key table would exceed _KEY_TABLE_PER_ROW entries per
trial; from there each trial has its own row, a row block at a time.  On the
bundled alpha = 4 model the first five levels of a full chunk are shared; at
alpha = 400 none is.  P(0) is the same to the bit as with one row per trial
throughout.

Four estimators; the Monte Carlo ones take a ``noise_bounds.MeasureMode``,
the noise model GST also takes:

* ``estimate_rho_g_power_mc`` — a_j from sampled circuits of j layers, in
  any measure mode (by default one shot per circuit).  Since
  G^{k+1} = G^k - 2 rho G^k, Tr{G^k} = 2**n - 2 sum_{j<k} a_j, so one call
  per j serves every Tr{G^k}, with coefficients that stay bounded where the
  binomial expansion of G^k in powers of rho grows like 3^k.
* ``estimate_power_trace_mc`` — the binomial series of m + 1 such estimates,
  stratum j on its own stream and on a share of the trials in proportion
  to C(m,j)/2^m (proportional stratified sampling, Cochran, *Sampling
  Techniques*, 3rd ed., 1977, ch. 5), at least 2 each.
* ``estimate_rho_g_power_enumerate`` — exact a_j, the expectation of that
  circuit over all alpha^(j+1) component words (std_error 0).  No word is
  visited: the expectation is linear in each layer's reflection, so it is
  Re Tr(PK (I - 2 PK)^j) on span coefficients, j alpha x alpha products.
* ``estimate_power_trace_enumerate`` — the binomial series of the exact a_j
  of ``series.evaluate_series`` (no randomness, std_error 0).

Monte Carlo trials run in fixed-size chunks, one RNG substream per (master
seed, stream key, chunk start); ``mc_estimate`` merges each chunk's (count,
sum, M2) in chunk order, so results are bit-identical for a fixed seed.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import noise_bounds
from ._parallel import run_chunked
from .ensemble import EnsembleSpec
from .errors import IdentityViolationError
from .noise_bounds import MeasureMode
# Unused here; the benchmark tracer patches ``ht.reflect_amplitudes``.
from .qcore import reflect_amplitudes  # noqa: F401
from .rng import as_master_seed, rng_stream
from .series import (
    MODE_EXACT_ENUMERATION,
    TraceEstimate,
    binomial_weights,
    evaluate_series,
    mc_estimate,
    mc_mode,
)

#: Complex coefficients per row block of the Monte Carlo kernel (16 bytes
#: each, 512 KiB), which keeps a block's gathered operands in a 2 MiB L2.
#: Measured on 8,192-trial chunks at alpha = 16, 64 and 400 (n = 20, 2-vCPU
#: Xeon host): 2^14 and 2^15 ran fastest, 2^16 up to 1.7x slower, and
#: unblocked rows up to 1.8x slower.
_ROW_BLOCK_ENTRIES = 1 << 15

#: Prefix sharing in the Monte Carlo kernel: a level is shared only while its
#: key table, (distinct prefixes) x (letters), has at most this many entries
#: per trial.  With this bound an 8,192-trial chunk ran faster than one row
#: per trial on every cell of alpha in {4, 16, 64, 400}, m in {2, 12}; a
#: bound of 4 moved no cell beyond run-to-run spread.  At alpha 80 to 90,
#: where level 0 is shared though over half its prefixes are distinct, the
#: chunk ran 2-14% slower than unshared.
_KEY_TABLE_PER_ROW = 1

#: Trials per chunk.  Fixed: the chunk layout is the RNG stream layout, so
#: changing it changes every Monte Carlo result.
TRIAL_CHUNK = 8192

#: Default measurement: one binomial shot per sampled circuit.
_ONE_SHOT = MeasureMode("shots", shots=1)

_P_TOL = 1e-9


def _check_probabilities(p: np.ndarray) -> None:
    bad = (p < -_P_TOL) | (p > 1.0 + _P_TOL)
    if np.any(bad):
        raise IdentityViolationError(
            f"outcome probability {p[bad][0]!r} outside [0, 1]", statistic=float(p[bad][0])
        )


def _reflect(gram: np.ndarray, c: np.ndarray, axes: np.ndarray) -> None:
    """Reflect row i of c about psi_{axes[i]}, in place: c_a -= 2 (K c)_a
    with a = axes[i].

    Rows go in blocks of _ROW_BLOCK_ENTRIES coefficients, so the gathered
    operands stay in cache; each row's einsum and subtraction are those of
    one call over all rows, so no value depends on the blocking.
    """
    alpha, flat = c.shape[1], c.reshape(-1)
    step = max(1, _ROW_BLOCK_ENTRIES // alpha)
    for lo in range(0, len(axes), step):
        ax = axes[lo:lo + step]
        inner = np.einsum("ij,ij->i", np.take(gram, ax, axis=0), c[lo:lo + step])
        flat[np.arange(lo, lo + len(ax)) * alpha + ax] -= 2.0 * inner


def _overlaps(gram: np.ndarray, init: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Re <psi_{init[r]}|c_r> for each row r, in blocks as in ``_reflect``."""
    re = np.empty(len(c))
    step = max(1, _ROW_BLOCK_ENTRIES // c.shape[1])
    for lo in range(0, len(c), step):
        sl = slice(lo, lo + step)
        re[sl] = np.einsum("ij,ij->i", np.take(gram, init[sl], axis=0), c[sl]).real
    return re


def _outcome_probabilities(e: EnsembleSpec, comps: np.ndarray) -> np.ndarray:
    """Exact P(0) of each sampled circuit, checked and clipped into [0, 1].

    Row r starts in psi_{comps[r, 0]} and passes the layers in circuit
    order; layer t reflects about psi_{comps[r, t + 1]}.  States are held as
    span coefficients.

    Rows that agree on a prefix (the initial component and the letters of
    the layers so far) hold the same coefficients.  So the layers are walked
    level by level with one coefficient row per distinct prefix, each
    reflected once.  A level's prefix ids come from dense (parent id,
    letter) keys.  Sharing stops once the key table would exceed
    _KEY_TABLE_PER_ROW entries per trial; the rest runs one row per trial,
    in row blocks.  Every row meets the same einsum and subtraction on the
    same operands as one row per trial throughout would, so each P(0) is the
    same to the bit.
    """
    gram, alpha = e.gram, e.alpha
    b, layers = comps.shape[0], comps.shape[1] - 1
    # Level 0: prefix i is the initial component i, held as the unit row e_i.
    ids, init, c, t = comps[:, 0], np.arange(alpha), np.eye(alpha, dtype=np.complex128), 0
    while t < layers and len(init) * alpha <= _KEY_TABLE_PER_ROW * b:
        key = ids * alpha + comps[:, t + 1]
        seen = np.zeros(len(init) * alpha, dtype=bool)
        seen[key] = True
        keys = np.flatnonzero(seen)
        new_id = np.empty(len(seen), dtype=np.intp)
        new_id[keys] = np.arange(len(keys))
        ids = new_id[key]
        parent, axes = np.divmod(keys, alpha)
        c, init = np.take(c, parent, axis=0), init[parent]
        _reflect(gram, c, axes)
        t += 1

    if t == layers:
        re = _overlaps(gram, init, c)[ids]
    else:
        # One row per trial from level t on, a block of trials at a time.
        re = np.empty(b)
        step = max(1, _ROW_BLOCK_ENTRIES // alpha)
        for lo in range(0, b, step):
            sl = slice(lo, lo + step)
            block = np.take(c, ids[sl], axis=0)
            for s in range(t, layers):
                _reflect(gram, block, comps[sl, s + 1])
            re[sl] = _overlaps(gram, comps[sl, 0], block)

    p0 = 0.5 * (1.0 + re)
    _check_probabilities(p0)
    return np.clip(p0, 0.0, 1.0)


def _mc_chunk(e: EnsembleSpec, m: int, mode: MeasureMode, master_seed: int,
              stream_key: tuple[int, ...], lo: int, hi: int) -> tuple[int, float, float, int]:
    """(count, sum, M2, clamp_events) over trials [lo, hi) of m layers each,
    drawn from ``rng_stream(master_seed, *stream_key, lo)``."""
    rng = rng_stream(master_seed, *stream_key, lo)
    b = hi - lo
    p0 = _outcome_probabilities(e, e.component_indices(rng.random((b, m + 1))))

    clamps = 0
    if mode.kind == "gaussian":
        p0, clamps = noise_bounds.perturb_probabilities(p0, mode.sigma, rng)

    if mode.kind == "shots":
        x = (2.0 * rng.binomial(mode.shots, p0) - mode.shots) / mode.shots
    else:
        x = 2.0 * p0 - 1.0
    total = float(x.sum())
    return b, total, float(np.square(x - total / b).sum()), clamps


def _estimate_mc(e: EnsembleSpec, strata: list[tuple[int, int, tuple[int, ...]]],
                 mode: MeasureMode, rng: "int | np.random.Generator") -> list[TraceEstimate]:
    """One estimate per (layers, trials, stream key) stratum: ``_mc_chunk``
    over fixed TRIAL_CHUNK chunks, merged with ``mc_estimate``.  Each needs
    2 trials, so that its std_error is a measured one."""
    least = min(trials for _, trials, _ in strata)
    if least < 2:
        raise ValueError(f"trials must be >= 2, got {least}")
    master_seed = as_master_seed(rng)
    estimates, clamps = [], 0
    for layers, trials, key in strata:
        parts = run_chunked(partial(_mc_chunk, e, layers, mode, master_seed, key),
                            trials, TRIAL_CHUNK)
        clamps += sum(p[3] for p in parts)
        estimates.append(mc_estimate([p[:3] for p in parts], mc_mode(mode.kind)))
    if clamps:
        # Imported only where a clamp is logged: importing ``logging`` costs
        # every run start-up time and memory.
        import logging

        logging.getLogger(__name__).debug("ht noise clamped %d of %d probabilities", clamps,
                                          sum(trials for _, trials, _ in strata))
    return estimates


def stratum_trials(m: int, trials: int) -> list[int]:
    """Trials of each layer count j = 0..m: ``trials`` split in proportion
    to C(m, j) by largest remainders, ties to the smaller j, after the
    strata whose share is under 2, smallest first, are given 2 each."""
    if trials < 2 * (m + 1):
        raise ValueError(f"trials must be >= 2 (m + 1) = {2 * (m + 1)} at m = {m}, got {trials}")
    weights = [math.comb(m, j) for j in range(m + 1)]
    counts, total, left = [2] * (m + 1), sum(weights), trials
    free = sorted(range(m + 1), key=weights.__getitem__)
    while weights[free[0]] * left < 2 * total:
        total, left = total - weights[free[0]], left - 2
        free = free[1:]
    rests = {}
    for j in free:
        counts[j], rests[j] = divmod(weights[j] * left, total)
    for j in sorted(free, key=lambda j: (-rests[j], j))[:left - sum(counts[j] for j in free)]:
        counts[j] += 1
    return counts


def estimate_power_trace_mc(
    e: EnsembleSpec,
    m: int,
    trials: int,
    mode: MeasureMode = _ONE_SHOT,
    rng: "int | np.random.Generator" = 0,
) -> TraceEstimate:
    """Monte Carlo estimate of Tr{rho^{m+1}} from ``trials`` sampled circuits
    in all: the binomial series sum_j (C(m,j)/2^m) (-1)^j a_j of m + 1
    ``estimate_rho_g_power_mc`` strata, stratum j on the ``stratum_trials``
    share of the trials and on streams (master, j, chunk start).  At least
    2 (m + 1) trials; measure modes as in ``estimate_rho_g_power_mc``.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    strata = [(j, t, (j,)) for j, t in enumerate(stratum_trials(m, trials))]
    return evaluate_series(binomial_weights(m), _estimate_mc(e, strata, mode, rng))


def estimate_rho_g_power_mc(
    e: EnsembleSpec,
    j: int,
    trials: int,
    mode: MeasureMode = _ONE_SHOT,
    rng: "int | np.random.Generator" = 0,
) -> TraceEstimate:
    """Monte Carlo estimate of a_j = Tr{rho G^j} from ``trials`` circuits of
    j layers, at least 2, on streams (master, chunk start).

    Exact mode takes each circuit's exact 2 P(0) - 1, gaussian mode perturbs
    P(0) by N(0, sigma^2), clamped into [0, 1], and shots mode draws
    ``mode.shots`` binomial measurements per circuit.  Each trial is one
    sample, in shots mode the mean of its shots, which share the circuit's
    P(0); the standard error is the samples' standard deviation over
    sqrt(trials).  j = 0 gives Tr{rho} = 1.
    """
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    return _estimate_mc(e, [(j, trials, ())], mode, rng)[0]


def _rho_g_chain(e: EnsembleSpec, ks: range) -> list[TraceEstimate]:
    """Exact a_k = Re Tr(PK (I - 2 PK)^k) for k in ``ks``, one product
    apart, each mean outcome probability (1 + a_k)/2 checked."""
    pk = e.probs[:, None] * e.gram
    step = np.eye(e.alpha) - 2.0 * pk
    estimates = []
    for k in range(ks.stop):
        if k:
            pk = pk @ step
        if k in ks:
            value = float(np.trace(pk).real)
            _check_probabilities(np.array([0.5 * (1.0 + value)]))
            estimates.append(TraceEstimate(value, 0.0, MODE_EXACT_ENUMERATION))
    return estimates


def estimate_rho_g_power_enumerate(e: EnsembleSpec, j: int) -> TraceEstimate:
    """Exact a_j = Tr{rho G^j}, the expectation of the all-layers circuit of
    ``estimate_rho_g_power_mc`` over all alpha^(j+1) component words.  Each
    outcome is linear in every layer's reflection, whose average is I - 2 PK
    on span coefficients (P = diag(probs), K the Gram), so
    a_j = Re Tr(PK (I - 2 PK)^j).  The mean outcome probability (1 + a_j)/2
    is checked like a circuit's P(0).  std_error is 0."""
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    return _rho_g_chain(e, range(j, j + 1))[0]


def estimate_power_trace_enumerate(e: EnsembleSpec, m: int) -> TraceEstimate:
    """Exact expectation of the Hadamard-test estimator for Tr{rho^{m+1}}:

        sum_k (C(m,k)/2^m) (-1)^k a_k,    a_k = Tr{rho G^k},

    over all alpha^(k+1) component words for each k, the a_k taken along
    one chain of m products.  Equals the oracle value; std_error is 0.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return evaluate_series(binomial_weights(m), _rho_g_chain(e, range(m + 1)))
