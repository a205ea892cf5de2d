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
G_a = I - 2|psi_a><psi_a| becomes c_a -= 2 (K c)_a, O(alpha) and
independent of n; no 2**n vector is formed.  The trials of a chunk that
share a prefix (initial component and the letters of the layers so far,
"no layer" included) share one coefficient row, reflected once per level.
Sharing stops at the first level whose key table would exceed
_KEY_TABLE_PER_ROW entries per trial; from there each trial has its own
row, a row block at a time.  On the bundled alpha = 4 model the first five
levels of a full chunk are shared; at alpha = 400 none is.  P(0) is the same
to the bit as with one row per trial throughout.

Four estimators; the Monte Carlo ones take a ``noise_bounds.MeasureMode``,
the noise model GST also takes:

* ``estimate_power_trace_enumerate`` — exact expectation over all words and
  layer patterns: the binomial series sum_k (C(m,k)/2^m) (-1)^k a_k of
  ``series.evaluate_series`` over the exact a_k below (no randomness,
  std_error 0).
* ``estimate_power_trace_mc`` — Monte Carlo over circuits.  Exact mode takes
  each circuit's exact signed probability, gaussian mode perturbs that
  probability by N(0, sigma^2), and shots mode (the default, one shot)
  draws ``mode.shots`` binomial measurements per circuit, whose signed
  mean is the circuit's one sample.
* ``estimate_rho_g_power_mc`` — the same circuit with all j layers inserted
  and no coin flips or sign, in any measure mode.  Each layer reflects about a
  component drawn with its ensemble probability, so E[G_q] = G and each
  trial is an unbiased sample of a_j = Tr{rho G^j} in [-1, 1].  Since
  G^{k+1} = G^k - 2 rho G^k, Tr{G^k} = 2**n - 2 sum_{j<k} a_j, so one call
  per j serves every Tr{G^k}, with coefficients that stay bounded where the
  binomial expansion of G^k in powers of rho grows like 3^k.
* ``estimate_rho_g_power_enumerate`` — exact a_j, the expectation of that
  circuit over all alpha^(j+1) component words (std_error 0).  No word is
  visited: the expectation is linear in each layer's reflection, so it is
  Re Tr(PK (I - 2 PK)^j) on span coefficients, j alpha x alpha products.

Monte Carlo trials run in fixed-size chunks, one RNG substream per (master
seed, chunk start); ``mc_estimate`` merges each chunk's (count, sum, M2) in
chunk order, so results are bit-identical for a fixed seed.
"""

from __future__ import annotations

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
#: per trial on every cell of alpha in {4, 16, 64, 400}, m in {2, 12}, with
#: and without coin flips; a bound of 4 moved no cell beyond run-to-run spread.
#: Without coin flips at alpha 80 to 90, where level 0 is shared though over
#: half its prefixes are distinct, the chunk ran 2-14% slower than unshared.
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


def _reflect(gram: np.ndarray, c: np.ndarray, axes: np.ndarray,
             on: np.ndarray | None = None) -> None:
    """Reflect row on[i] of c (row i if ``on`` is None) about psi_{axes[i]},
    in place: c_a -= 2 (K c)_a with a = axes[i].

    Rows go in blocks of _ROW_BLOCK_ENTRIES coefficients, so the gathered
    operands stay in cache; each row's einsum and subtraction are those of
    one call over all rows, so no value depends on the blocking.
    """
    alpha, flat = c.shape[1], c.reshape(-1)
    step = max(1, _ROW_BLOCK_ENTRIES // alpha)
    for lo in range(0, len(axes), step):
        ax = axes[lo:lo + step]
        if on is None:
            rows, x = np.arange(lo, lo + len(ax)), c[lo:lo + step]
        else:
            rows = on[lo:lo + step]
            x = np.take(c, rows, axis=0)
        inner = np.einsum("ij,ij->i", np.take(gram, ax, axis=0), x)
        flat[rows * alpha + ax] -= 2.0 * inner


def _overlaps(gram: np.ndarray, init: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Re <psi_{init[r]}|c_r> for each row r, in blocks as in ``_reflect``."""
    re = np.empty(len(c))
    step = max(1, _ROW_BLOCK_ENTRIES // c.shape[1])
    for lo in range(0, len(c), step):
        sl = slice(lo, lo + step)
        re[sl] = np.einsum("ij,ij->i", np.take(gram, init[sl], axis=0), c[sl]).real
    return re


def _outcome_probabilities(
    e: EnsembleSpec, comps: np.ndarray, flags: np.ndarray | None = None
) -> np.ndarray:
    """Exact P(0) of each sampled circuit, checked and clipped into [0, 1].

    Row r starts in psi_{comps[r, 0]} and passes the candidate layers in
    circuit order; layer t reflects about psi_{comps[r, t + 1]} where
    flags[r, t] is set, or in every row when ``flags`` is None.  States are
    held as span coefficients.

    Rows that agree on a prefix (the initial component and the letters of
    the layers so far, "no layer" being a letter of its own) hold the same
    coefficients.  So the layers are walked level by level with one
    coefficient row per distinct prefix, each reflected once.  A level's
    prefix ids come from dense (parent id, letter) keys.  Sharing stops once
    the key table would exceed _KEY_TABLE_PER_ROW entries per trial; the
    rest runs one row per trial, in row blocks.  Every row meets the same
    einsum and subtraction on the same operands as one row per trial
    throughout would, so each P(0) is the same to the bit.
    """
    gram, alpha = e.gram, e.alpha
    b, layers = comps.shape[0], comps.shape[1] - 1
    letters = alpha if flags is None else alpha + 1
    # Level 0: prefix i is the initial component i, held as the unit row e_i.
    ids, init, c, t = comps[:, 0], np.arange(alpha), np.eye(alpha, dtype=np.complex128), 0
    while t < layers and len(init) * letters <= _KEY_TABLE_PER_ROW * b:
        letter = comps[:, t + 1] if flags is None else np.where(flags[:, t], comps[:, t + 1], alpha)
        key = ids * letters + letter
        seen = np.zeros(len(init) * letters, dtype=bool)
        seen[key] = True
        keys = np.flatnonzero(seen)
        new_id = np.empty(len(seen), dtype=np.intp)
        new_id[keys] = np.arange(len(keys))
        ids = new_id[key]
        parent, axes = np.divmod(keys, letters)
        c, init = np.take(c, parent, axis=0), init[parent]
        if flags is None:
            _reflect(gram, c, axes)
        else:
            on = np.flatnonzero(axes < alpha)
            _reflect(gram, c, axes[on], on)
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
                if flags is None:
                    _reflect(gram, block, comps[sl, s + 1])
                else:
                    on = np.flatnonzero(flags[sl, s])
                    _reflect(gram, block, comps[lo + on, s + 1], on)
            re[sl] = _overlaps(gram, comps[sl, 0], block)

    p0 = 0.5 * (1.0 + re)
    _check_probabilities(p0)
    return np.clip(p0, 0.0, 1.0)


def _mc_chunk(
    e: EnsembleSpec,
    m: int,
    mode: MeasureMode,
    master_seed: int,
    lo: int,
    hi: int,
    coin_flips: bool = True,
) -> tuple[int, float, float, int]:
    """(count, sum, M2, clamp_events) over trials [lo, hi).

    With ``coin_flips`` each of the m layers is inserted with probability
    1/2 and the outcome carries the sign (-1)^(inserted layers); without,
    every layer is inserted, no flag is drawn and no sign applies.
    """
    rng = rng_stream(master_seed, lo)
    b = hi - lo
    comps = e.component_indices(rng.random((b, m + 1)))
    flags, sign = None, 1.0
    if coin_flips:
        flags = rng.random((b, m)) < 0.5
        sign = 1.0 - 2.0 * (flags.sum(axis=1) % 2)
    p0 = _outcome_probabilities(e, comps, flags)

    clamps = 0
    if mode.kind == "gaussian":
        p0, clamps = noise_bounds.perturb_probabilities(p0, mode.sigma, rng)

    if mode.kind == "shots":
        x = sign * (2.0 * rng.binomial(mode.shots, p0) - mode.shots) / mode.shots
    else:
        x = sign * (2.0 * p0 - 1.0)
    total = float(x.sum())
    return b, total, float(np.square(x - total / b).sum()), clamps


def _estimate_mc(
    e: EnsembleSpec,
    layers: int,
    trials: int,
    mode: MeasureMode,
    rng: "int | np.random.Generator",
    coin_flips: bool,
) -> TraceEstimate:
    """Run ``_mc_chunk`` over fixed TRIAL_CHUNK chunks and merge them with
    ``mc_estimate``."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    worker = partial(_mc_chunk, e, layers, mode, as_master_seed(rng), coin_flips=coin_flips)
    parts = run_chunked(worker, trials, TRIAL_CHUNK)
    clamps = sum(p[3] for p in parts)
    if clamps:
        # Imported only where a clamp is logged: importing ``logging`` costs
        # every run start-up time and memory.
        import logging

        logging.getLogger(__name__).debug("ht noise clamped %d of %d probabilities", clamps, trials)
    return mc_estimate([p[:3] for p in parts], mc_mode(mode.kind))


def estimate_power_trace_mc(
    e: EnsembleSpec,
    m: int,
    trials: int,
    mode: MeasureMode = _ONE_SHOT,
    rng: "int | np.random.Generator" = 0,
) -> TraceEstimate:
    """Monte Carlo estimate of Tr{rho^{m+1}} from ``trials`` sampled circuits.

    Shots mode draws ``mode.shots`` binomial measurements per circuit; exact
    mode uses each circuit's exact signed probability (one sample per trial,
    no shot noise), and gaussian mode perturbs that probability by
    N(0, sigma^2), clamped into [0, 1].  Each trial is one sample, in shots
    mode the signed mean of its shots, which share the circuit's P(0); the
    standard error is the samples' standard deviation over sqrt(trials).
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return _estimate_mc(e, m, trials, mode, rng, coin_flips=True)


def estimate_rho_g_power_mc(
    e: EnsembleSpec,
    j: int,
    trials: int,
    mode: MeasureMode = _ONE_SHOT,
    rng: "int | np.random.Generator" = 0,
) -> TraceEstimate:
    """Monte Carlo estimate of a_j = Tr{rho G^j} from ``trials`` circuits
    with all j layers inserted.

    Each trial contributes 2 P(0) - 1 (or its shot-mode equivalent) with no
    sign; arguments, chunking, noise and standard error are those of
    ``estimate_power_trace_mc``.  j = 0 gives Tr{rho} = 1.
    """
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    return _estimate_mc(e, j, trials, mode, rng, coin_flips=False)


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
