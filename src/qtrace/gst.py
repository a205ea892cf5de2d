"""Subspace gate-set-tomography estimator of Tr{G^k} and Tr{rho^m}.

Tr{G^k} decomposes over ordered words q = (q_1..q_k) of reflections, sampled
with weight P_q = prod p_{q_t}.  A word's operator W = G_{q_1}...G_{q_k}
(rightmost factor acting first on kets) fixes everything orthogonal to the
span of its reflection axes, so

    Tr{W} = Tr{w} + 2^n - d

with w the restriction of W to the d-dimensional span.  Every entry the
stages below measure is an inner product among the word's states, the
states' reflections and one unit vector orthogonal to them, so each stage
runs on the rows of ``EnsembleSpec.span_states``: D <= alpha + 1
coordinates per state, the same inner products as the 2^n kets.  A word
costs O(k alpha^3 + alpha^6), reflections on (d+1)^2 D-vectors plus the
(d+1)^2-sized solve, whatever n is; its stages 1, 2 and 5 (the subspace,
the augmentation state and both operator bases with their prep kets, exact
Grams and Gram eigendecompositions) depend on the word only through its
distinct indices in first-occurrence order, its subspace key.  Tr{w} is
recovered without ever reconstructing w:

1. ``build_subspace``   — walk the distinct word states in first-occurrence
   order; a Gram-Schmidt admission statistic (|Delta|^2 / (1+|x|^2))^2 below
   the threshold epsilon drops near-dependent states (biasing the result but
   protecting the Gram conditioning).
2. ``operator_basis_for_states`` — d^2 pure prep states: the d retained states
   plus the dressed states G_{s'}(theta)|psi_s>, s != s', where G_{s'}(theta)
   = I - (1 - e^{i*theta})|psi_{s'}><psi_{s'}|.  Any theta not a multiple of
   pi makes the d^2 projectors linearly independent.
3. ``measure_matrices`` — p_rs = |<chi_r|W|chi_s>|^2 and
   g_rs = |<chi_r|chi_s>|^2, each a Hadamard-test-free circuit estimate,
   computed by reflecting the D-vector preps about the word's states.
4. ``ptm_trace``        — Tr{solve(g, p)}: the unknown prep/measure frames
   enter p and g as the same similarity and cancel, leaving the transfer-
   matrix trace Tr{R_w} = |Tr w|^2.
5. ``augmentation_state`` — repeat 2-4 with one extra state |phi> outside
   the span of the circuit states: the restriction to the augmented subspace
   is block triangular with a unit diagonal entry, so Tr{w'} = Tr{w} + 1 and
   Tr{R_w'} = |Tr w + 1|^2.  The out-of-span part of |phi> is a probe
   projected off the word's states in the D coordinates; with alpha < 2^n
   the zero column of ``span_states`` guarantees one exists.
6. ``combination_trace`` — Re[Tr w] = (Tr{R_w'} - Tr{R_w} - 1)/2; the
   imaginary parts cancel in the weighted sum over words, so the real part
   is all that is ever needed.

Exact-mode identities are checked where their values are made (the Gram
in ``operator_basis_for_states``, p in ``measure_matrices``, the traces in
``combination_trace``) and raise IdentityViolationError.

Words are plain sequences of component indices, processed in fixed chunks of
_WORD_CHUNK and merged in chunk order (Monte Carlo chunks as (count, sum,
M2) by ``series.mc_estimate``), so estimates are bit-identical for a fixed seed.
As in HT, each Monte Carlo chunk of draws lo..hi-1 has one substream,
``rng_stream(master, *stream_key, lo)``: it first draws the chunk's words as
one (hi - lo, k) array of uniforms, then, in the noisy modes, each word's
noise in draw order.  Enumeration runs in exact mode only and draws nothing.
A ``KeyStages`` builds one key's stages 1, 2 and 5 together when the key is
first met, the Gram eigendecompositions in every mode, and a ``StageCache``
keeps them per key (alpha!/(alpha-i)! keys of i distinct indices, 64 at
alpha = 4 for any k >= 4, against alpha^k words) up to KEY_CACHE_BYTES of
arrays; ``estimate_power_trace`` shares one cache across its powers k.  Per
word there remain the reflections, the p matrix, the noise draws (p, g, p',
g' in that order, so the stream does not depend on the cache), the solve and
the identity checks.  So a word's first error can come from building
``ob_aug`` (no augmentation state, or its Gram) before any of its own
measurements.

In exact mode a word is evaluated once per bracelet class: Tr{W} is
invariant under rotation of the word, Re Tr{W} under its reversal (every
reflection is Hermitian, so W^dagger is the reversed word) and P_q under
any permutation.  ``word_classes`` lists each class's least member, its
representative, with the class size; at alpha = 4 that is 55 classes for
256 words at k = 4 and 15,084 for 262,144 at k = 9.  Enumeration adds
multiplicity x P_q x value per class, and Monte Carlo keeps one memo per
estimate that maps drawn words and representatives to their class's value.
Under truncation a class's members can retain different states, since
stage 1 admits in first-occurrence order, which a rotation changes; the
representative's value then stands for the whole class, a slightly
different estimator from the word sum.  Shots and Gaussian modes evaluate
every drawn word with its own noise.  Caps and sample counts still count
words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Sequence

import numpy as np

from ._parallel import run_chunked
from .ensemble import EnsembleSpec
from .errors import (
    DegenerateAugmentationError,
    IdentityViolationError,
    IllConditionedGramError,
)
from .noise_bounds import EXACT, MeasureMode
from .qcore import reflect_amplitudes
from .rng import as_master_seed, rng_stream
from .series import (
    DEFAULT_ENUMERATION_CAP,
    MODE_EXACT_ENUMERATION,
    MODE_MC_EXACT_PROB,
    MODE_MC_SHOTS,
    TraceEstimate,
    binomial_weights,
    check_enumeration_cap,
    evaluate_series,
    mc_estimate,
)

#: Two states whose overlap modulus exceeds this are the same physical state
#: (global phase ignored) and get merged rather than truncated.
SAME_STATE_OVERLAP = 1.0 - 1e-12

#: Default basis-rotation angle: maximally far from the degenerate multiples
#: of pi.
DEFAULT_THETA = math.pi / 2

#: Default truncation threshold: effectively "no truncation" for generic
#: ensembles while still catching numerically dependent states.
DEFAULT_EPSILON = 1e-10

#: Gram matrices with a smaller minimum eigenvalue refuse to invert unless
#: the pseudo-inverse fallback is explicitly requested.
CONDITIONING_FLOOR = 1e-8

#: Residual norm below which an augmentation probe is considered dependent.
_PROBE_NORM_FLOOR = 1e-6

#: Weight of the retained-state overlap component in the augmentation state.
_AUGMENT_MIX = 0.5

#: Monte Carlo draws, or enumerated word classes, per chunk.  Fixed: the
#: Monte Carlo chunk layout is the RNG stream layout, so changing it changes
#: every GST Monte Carlo result.
_WORD_CHUNK = 32

#: Byte budget of one estimate's ``StageCache``.  A key with d = 7 holds
#: about 120 KB, so some 550 such keys fit; past the budget a key is built
#: per word.
KEY_CACHE_BYTES = 64 * 2**20


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Retained pure states spanning the word's nontrivial subspace, plus the
    states dropped by truncation with their admission statistics.  States are
    rows of ``EnsembleSpec.span_states``."""

    retained: tuple[np.ndarray, ...]
    discarded: tuple[tuple[np.ndarray, float], ...]

    @property
    def d(self) -> int:
        return len(self.retained)


def _admission_statistic(
    retained: list[np.ndarray], psi: np.ndarray
) -> float:
    """(|Delta|^2 / (1 + |x|^2))^2 for adding psi to the retained set.

    x solves the Gram system expressing the projection of psi onto the
    retained (non-orthogonal) states; |Delta|^2 is the squared residual norm.
    The statistic reproduces the smallest eigenvalue of the Hilbert-Schmidt
    Gram matrix of the candidate basis.
    """
    if not retained:
        return 1.0
    r = np.array(retained)
    c = r.conj() @ psi
    gram = r.conj() @ r.T
    x = np.linalg.solve(gram, c)
    proj_sq = min(max(float((c.conj() @ x).real), 0.0), 1.0)
    delta_sq = 1.0 - proj_sq
    x_sq = float(np.vdot(x, x).real)
    return (delta_sq / (1.0 + x_sq)) ** 2


def build_subspace(
    e: EnsembleSpec, indices: Sequence[int], epsilon: float
) -> SubspaceBasis:
    """Walk the distinct states of the word in first-occurrence order,
    retaining a state iff its admission statistic is >= epsilon.

    Repeated indices and physical duplicates of retained states are merged
    silently; only genuinely new-but-near-dependent states count as
    truncation events.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon!r}")
    retained: list[np.ndarray] = []
    discarded: list[tuple[np.ndarray, float]] = []
    seen: set[int] = set()
    for idx in indices:
        if idx in seen:
            continue
        seen.add(idx)
        psi = e.span_states[idx]
        if retained and float(np.max(np.abs(np.array(retained) @ psi.conj()))) > SAME_STATE_OVERLAP:
            continue
        stat = _admission_statistic(retained, psi)
        if stat >= epsilon:
            retained.append(psi)
        else:
            discarded.append((psi, stat))
    return SubspaceBasis(tuple(retained), tuple(discarded))


def check_theta(theta: float) -> None:
    j = round(theta / math.pi)
    if abs(theta - j * math.pi) < 1e-6:
        raise ValueError(
            f"basis rotation theta={theta!r} is within 1e-6 of {j}*pi, "
            "which makes the dressed preparations linearly dependent"
        )


def _check_unit_range(name: str, m: np.ndarray) -> None:
    """Exact |amplitude|^2 entries cannot be negative; none may exceed 1."""
    top = float(np.max(m, initial=0.0))
    if top > 1.0 + 1e-12:
        raise IdentityViolationError(f"exact-mode {name} entries leave [0, 1]", statistic=top)


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """Pure-state preparations spanning the operator space over the subspace.

    Each descriptor (s, s') is the ket G_{s'}(theta)|psi_s>; s' = None means
    the undressed |psi_s>.  With d basis states there are d diagonal preps
    and d^2 - d dressed ones.  ``prep_matrix`` holds their kets as rows,
    shape (len(preps), D); ``gram`` is the exact Gram g_rs = |<chi_r|chi_s>|^2,
    checked symmetric with entries in [0, 1]; ``gram_eigh`` is (w, v) of the
    symmetrised Gram, as ``ptm_trace`` takes them.  Every array is read-only.
    """

    preps: tuple[tuple[int, "int | None"], ...]
    prep_matrix: np.ndarray
    gram: np.ndarray
    gram_eigh: tuple[np.ndarray, np.ndarray]


def operator_basis_for_states(states: Sequence[np.ndarray], theta: float) -> OperatorBasis:
    """The d^2 preparations over an explicit state list, with their kets,
    exact Gram and Gram eigendecomposition."""
    check_theta(theta)
    d = len(states)
    preps = [(s, None) for s in range(d)]
    preps += [(s, sp) for s in range(d) for sp in range(d) if sp != s]
    rows = [states[s] if dress is None else reflect_amplitudes(states[dress], theta, states[s])
            for s, dress in preps]
    dim = states[0].size if d else 0
    m = np.array(rows).reshape(len(rows), dim)
    g = np.abs(m.conj() @ m.T) ** 2
    asymmetry = float(np.max(np.abs(g - g.T), initial=0.0))
    if asymmetry > 1e-10:
        raise IdentityViolationError("exact Gram matrix is not symmetric", statistic=asymmetry)
    _check_unit_range("g", g)
    w, v = np.linalg.eigh(0.5 * (g + g.T))
    for a in (m, g, w, v):
        a.setflags(write=False)
    return OperatorBasis(tuple(preps), m, g, (w, v))


def apply_word(e: EnsembleSpec, indices: Sequence[int], block: np.ndarray) -> np.ndarray:
    """Apply W = G_{q_1}...G_{q_k} to every state in ``block`` (rows), with
    the rightmost factor acting first."""
    for idx in reversed(indices):
        block = reflect_amplitudes(e.span_states[idx], math.pi, block)
    return block


def measure_matrices(
    e: EnsembleSpec,
    indices: Sequence[int],
    ob: OperatorBasis,
    mode: MeasureMode = EXACT,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(p, g): p_rs = |<chi_r|W|chi_s>|^2 and g_rs = |<chi_r|chi_s>|^2 over
    the prep kets, via rank-1 reflection application.

    Exact mode checks that p stays in [0, 1].  shots(N) mode replaces each
    entry with a Binomial(N, p)/N draw; gaussian mode adds N(0, sigma^2) per
    entry without clamping (p first, then g, in row-major order).
    """
    s = ob.prep_matrix
    p = np.abs(s.conj() @ apply_word(e, indices, s).T) ** 2
    g = ob.gram
    if mode.is_exact:
        _check_unit_range("p", p)
        return p, g
    if rng is None:
        raise ValueError(f"measure mode {mode.kind!r} requires an rng")
    if mode.kind == "shots":
        p = rng.binomial(mode.shots, np.clip(p, 0.0, 1.0)) / mode.shots
        g = rng.binomial(mode.shots, np.clip(g, 0.0, 1.0)) / mode.shots
    else:
        p = p + mode.sigma * rng.standard_normal(p.shape)
        g = g + mode.sigma * rng.standard_normal(g.shape)
    return p, g


def ptm_trace(
    p: np.ndarray,
    g: np.ndarray,
    allow_pseudoinverse: bool = False,
    gram_eigh: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Tr{solve(g, p)} via the eigendecomposition of the (symmetrized) Gram.

    Estimates |Tr w|^2.  If the Gram's minimum eigenvalue is below the
    conditioning floor this raises IllConditionedGramError rather than
    silently regularizing; pass ``allow_pseudoinverse=True`` to opt into a
    pseudo-inverse instead (which biases traces).  ``gram_eigh`` is that
    eigendecomposition when the caller already holds it (an exact Gram's
    ``OperatorBasis.gram_eigh``).
    """
    if len(p) == 0:
        return 0.0
    sym = 0.5 * (g + g.T)
    w, v = np.linalg.eigh(sym) if gram_eigh is None else gram_eigh
    min_eig = float(w[0])
    if min_eig < CONDITIONING_FLOOR:
        if not allow_pseudoinverse:
            raise IllConditionedGramError(
                f"Gram matrix min eigenvalue {min_eig:.3e} is below the "
                f"conditioning floor {CONDITIONING_FLOOR:.3e}",
                min_eigenvalue=min_eig,
            )
        return float(np.trace(np.linalg.pinv(sym, rcond=1e-12) @ p))
    return float(np.trace((v / w) @ (v.T @ p)))


def _probes(dim: int) -> Iterator[np.ndarray]:
    """The uniform-amplitude vector, then e_0, e_1, ..., made one at a time."""
    yield np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128)
    for i in range(dim):
        basis_state = np.zeros(dim, dtype=np.complex128)
        basis_state[i] = 1.0
        yield basis_state


def _out_of_span_residual(e: EnsembleSpec, indices: Sequence[int]) -> np.ndarray:
    """Normalized residual of a deterministic probe after projecting out every
    circuit state of the word (including truncated ones).

    Tries the uniform-amplitude probe first, then computational basis states
    in index order, with two Gram-Schmidt passes each.
    """
    dim = e.span_states.shape[1]
    axes = e.span_states[list(dict.fromkeys(indices))]
    basis = None
    if len(axes):
        # Orthonormal basis of the (non-orthogonal) circuit-state span.
        u, sv, _ = np.linalg.svd(axes.T, full_matrices=False)
        basis = u[:, sv > 1e-12 * sv[0]]
    for probe in _probes(dim):
        v = probe
        if basis is not None:
            for _ in range(2):
                v = v - basis @ (basis.conj().T @ v)
        nrm = float(np.linalg.norm(v))
        if nrm > _PROBE_NORM_FLOOR:
            return v / nrm
    raise DegenerateAugmentationError(
        f"the {len(axes)} circuit states span the whole {dim}-dimensional "
        "space; no independent augmentation state exists"
    )


def augmentation_state(
    e: EnsembleSpec, indices: Sequence[int], b: SubspaceBasis
) -> np.ndarray:
    """A deterministic |phi> outside the span of the word's circuit states
    but with equal nonzero overlap on every retained basis state.

    The out-of-span component makes the augmented restriction block
    triangular with a unit diagonal entry, so Tr{w'} = Tr{w} + 1 exactly in
    the untruncated case; the retained-state overlaps keep the dressed
    preparations G_{s'}(theta)|chi_s> linearly independent (a phi orthogonal
    to a basis state would make that state's dressings collapse onto the
    undressed preparations and the Gram exactly singular).
    """
    residual = _out_of_span_residual(e, indices)
    if b.d == 0:
        return residual
    r = np.array(b.retained)
    # Dual-frame sum: <psi_l | u> = 1 for every retained l.
    coeffs = np.linalg.solve(r.conj() @ r.T, np.ones(b.d, dtype=np.complex128))
    u = r.T @ coeffs
    v = residual + _AUGMENT_MIX * u / float(np.linalg.norm(u))
    return v / float(np.linalg.norm(v))


@dataclass(frozen=True)
class CombinationTrace:
    """Per-word result: the two transfer-matrix traces, the recovered real
    part, and the full-space trace value 2^n - d + Re[Tr w]."""

    d: int
    tr_rw: float
    re_tr_w: float
    value: float


class KeyStages:
    """The word-independent stages of one subspace key, built together: the
    subspace ``b``, the operator basis ``ob`` over its retained states, the
    augmentation state |phi> and the basis ``ob_aug`` over the retained
    states plus |phi>.  ``nbytes`` counts the two bases' arrays."""

    def __init__(self, e: EnsembleSpec, key: tuple[int, ...], epsilon: float, theta: float):
        self.b = build_subspace(e, key, epsilon)
        self.ob = operator_basis_for_states(self.b.retained, theta)
        phi = augmentation_state(e, key, self.b)
        self.ob_aug = operator_basis_for_states((*self.b.retained, phi), theta)
        self.nbytes = sum(a.nbytes for ob in (self.ob, self.ob_aug)
                          for a in (ob.prep_matrix, ob.gram, *ob.gram_eigh))


class StageCache:
    """Per-estimate store of ``KeyStages``, keyed by a word's distinct indices
    in first-occurrence order, through which alone every stage they hold
    depends on the word.  One cache serves one (ensemble, epsilon, theta).
    Keys are kept until their arrays fill KEY_CACHE_BYTES; later keys are
    built per word but not stored, which changes no value."""

    def __init__(self) -> None:
        self._entries: dict[tuple[int, ...], KeyStages] = {}
        self.nbytes = 0

    def stages(self, e: EnsembleSpec, key: tuple[int, ...], epsilon: float,
               theta: float) -> KeyStages:
        """The key's stored stages, or new ones, stored if they fit."""
        stages = self._entries.get(key)
        if stages is None:
            stages = KeyStages(e, key, epsilon, theta)
            if self.nbytes + stages.nbytes <= KEY_CACHE_BYTES:
                self._entries[key] = stages
                self.nbytes += stages.nbytes
        return stages


def _word_trace(
    e: EnsembleSpec,
    indices: Sequence[int],
    ob: OperatorBasis,
    mode: MeasureMode,
    rng: np.random.Generator | None,
    allow_pseudoinverse: bool,
) -> float:
    """Tr{R} of the word over ``ob``; an exact Gram's eigh comes from ``ob``."""
    p, g = measure_matrices(e, indices, ob, mode, rng)
    return ptm_trace(p, g, allow_pseudoinverse, ob.gram_eigh if mode.is_exact else None)


def combination_trace(
    e: EnsembleSpec,
    indices: Sequence[int],
    epsilon: float = DEFAULT_EPSILON,
    theta: float = DEFAULT_THETA,
    mode: MeasureMode = EXACT,
    rng: np.random.Generator | None = None,
    allow_pseudoinverse: bool = False,
    cache: StageCache | None = None,
) -> CombinationTrace:
    """Full per-word pipeline: Tr{W} estimated as 2^n - d + Re[Tr w] with
    Re[Tr w] = (Tr{R_w'} - Tr{R_w} - 1)/2.

    With a ``cache`` (for this ensemble, epsilon and theta), the word's
    subspace and bases come from its key's entry; the result is the same
    with or without it.
    """
    if any(i < 0 or i >= e.alpha for i in indices):
        raise ValueError(f"indices {tuple(indices)} out of range for alpha={e.alpha}")
    key = tuple(dict.fromkeys(indices))
    stages = (KeyStages(e, key, epsilon, theta) if cache is None
              else cache.stages(e, key, epsilon, theta))
    b = stages.b
    # Tr{R_w} over the d^2 preps, then Tr{R_w'} over the (d+1)^2 augmented
    # ones, where in exact mode Tr{R_w'} = |Tr w + 1|^2.
    tr_rw = _word_trace(e, indices, stages.ob, mode, rng, allow_pseudoinverse)
    tr_aug = _word_trace(e, indices, stages.ob_aug, mode, rng, allow_pseudoinverse)
    re_tr_w = 0.5 * (tr_aug - tr_rw - 1.0)
    value = float(2**e.n - b.d + re_tr_w)
    # The clean identities |Tr w|^2 >= 0 and Re[Tr w] <= d (so value <= Tr{I})
    # only bind when nothing was truncated and nothing was noisy.
    if mode.is_exact and not b.discarded:
        if tr_rw < -1e-8:
            raise IdentityViolationError(
                f"Tr{{R_w}} = {tr_rw!r} violates |Tr w|^2 >= 0", statistic=tr_rw
            )
        if re_tr_w > b.d + 1e-6:
            raise IdentityViolationError(
                f"Re[Tr w] = {re_tr_w!r} exceeds d = {b.d}, so the word trace "
                "exceeds Tr{I}",
                statistic=re_tr_w,
            )
    return CombinationTrace(b.d, tr_rw, re_tr_w, value)


def word_classes(alpha: int, k: int) -> list[tuple[tuple[int, ...], int]]:
    """(representative, multiplicity) of each bracelet class of the alpha^k
    words of length k, representatives in lexicographic order.

    A class holds a word's rotations and the rotations of its reversal;
    its representative is the least of them and its multiplicity the number
    of distinct words in it.  The Fredricksen-Kessler-Maiorana algorithm
    generates the necklaces (least rotations) with their periods p, and a
    necklace is kept iff it is at most its reversal's necklace: its class
    holds p words if the two are equal and 2p otherwise.
    """
    if k == 0:
        return [((), 1)]
    classes = []
    a, p = [0] * k, 1
    while True:
        if k % p == 0:
            w = tuple(a)
            mirrored = w[::-1] * 2
            least = min(mirrored[i:i + k] for i in range(k))
            if w <= least:
                classes.append((w, p if w == least else 2 * p))
        i = k - 1
        while i >= 0 and a[i] == alpha - 1:
            i -= 1
        if i < 0:
            return classes
        a[i] += 1
        for j in range(i + 1, k):
            a[j] = a[j - i - 1]
        p = i + 1


def class_representative(indices: tuple[int, ...]) -> tuple[int, ...]:
    """The least of the word's rotations and its reversal's rotations."""
    k = len(indices)
    return min((s[i:i + k] for s in (indices * 2, indices[::-1] * 2) for i in range(k)),
               default=indices)


def _enumerate_chunk(
    e: EnsembleSpec,
    classes: Sequence[tuple[tuple[int, ...], int]],
    epsilon: float,
    theta: float,
    allow_pseudoinverse: bool,
    cache: StageCache | None,
    lo: int,
    hi: int,
) -> float:
    """Exact-mode sum over the word classes of ranks lo..hi-1 of ``classes``:
    each adds multiplicity x P_q x value of its representative."""
    partial_sum = 0.0
    for indices, multiplicity in classes[lo:hi]:
        weight = float(np.prod([e.probs[i] for i in indices])) if indices else 1.0
        ct = combination_trace(e, indices, epsilon, theta,
                               allow_pseudoinverse=allow_pseudoinverse, cache=cache)
        partial_sum += multiplicity * weight * ct.value
    return partial_sum


def _mc_chunk(
    e: EnsembleSpec,
    k: int,
    epsilon: float,
    theta: float,
    mode: MeasureMode,
    master_seed: int,
    stream_key: tuple[int, ...],
    allow_pseudoinverse: bool,
    cache: StageCache | None,
    memo: dict[tuple[int, ...], float] | None,
    lo: int,
    hi: int,
) -> tuple[int, float, float]:
    """(count, sum, M2) over draws lo..hi-1, all on the chunk's one stream
    ``rng_stream(master_seed, *stream_key, lo)``: the words first, then
    each noisy word's entries in draw order.

    ``memo`` is the exact-mode store of values, keyed by drawn words and by
    class representatives: a word it misses takes its class's value, and a
    class it misses runs ``combination_trace`` on the representative.  In
    the noisy modes ``memo`` is None and every draw runs its own word with
    its own noise.  ``cache`` holds the word-independent stages of each
    subspace key in every mode."""
    rng = rng_stream(master_seed, *stream_key, lo)
    words = e.component_indices(rng.random((hi - lo, k))).tolist()
    total, values = 0.0, []
    for indices in map(tuple, words):
        if memo is None:
            value = combination_trace(
                e, indices, epsilon, theta, mode, rng, allow_pseudoinverse, cache
            ).value
        else:
            value = memo.get(indices)
            if value is None:
                rep = class_representative(indices)
                value = memo.get(rep)
                if value is None:
                    value = memo[rep] = combination_trace(
                        e, rep, epsilon, theta, mode, rng, allow_pseudoinverse, cache
                    ).value
                memo[indices] = value
        total += value
        values.append(value)
    mean = total / len(values)
    return len(values), total, math.fsum((v - mean) ** 2 for v in values)


def _check_enumerate_mode(mode: MeasureMode) -> None:
    """Enumeration weighs every word exactly; noisy entries would make its
    zero standard error a false claim."""
    if not mode.is_exact:
        raise ValueError(f"enumerate strategy requires exact mode, got {mode.kind!r}")


def check_enumeration_budget(alpha: int, k: int, budget: int) -> None:
    """Raise ResourceLimitError if enumerating Tr{G^k} needs more than
    ``budget`` words.  The cap counts all alpha^k words, not the classes
    that enumeration evaluates."""
    check_enumeration_cap(alpha**k, budget, f"enumerating Tr{{G^{k}}}")


def estimate_g_power_trace(
    e: EnsembleSpec,
    k: int,
    strategy: str = "enumerate",
    budget: int = DEFAULT_ENUMERATION_CAP,
    epsilon: float = DEFAULT_EPSILON,
    theta: float = DEFAULT_THETA,
    mode: MeasureMode = EXACT,
    rng: "int | np.random.Generator" = 0,
    allow_pseudoinverse: bool = False,
    stream_key: tuple[int, ...] = (),
    cache: StageCache | None = None,
) -> TraceEstimate:
    """Tr{G^k} = sum_q P_q Tr{W_q}, either over the bracelet classes of the
    alpha^k words with exact weights (``enumerate``, exact mode only) or over
    ``budget`` sampled words (``mc``), the chunk of draws lo..hi-1 on
    ``rng_stream(master, *stream_key, lo)``.  ``cache`` is a ``StageCache``
    for this (e, epsilon, theta) to share with other estimates; by default
    the estimate has its own."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if strategy not in ("enumerate", "mc"):
        raise ValueError(f"strategy must be 'enumerate' or 'mc', got {strategy!r}")
    master_seed = as_master_seed(rng)
    if cache is None:
        cache = StageCache()

    if strategy == "enumerate":
        _check_enumerate_mode(mode)
        check_enumeration_budget(e.alpha, k, budget)
        classes = word_classes(e.alpha, k)
        worker = partial(_enumerate_chunk, e, classes, epsilon, theta, allow_pseudoinverse, cache)
        parts = run_chunked(worker, len(classes), _WORD_CHUNK)
        return TraceEstimate(float(sum(parts)), 0.0, e.alpha**k, MODE_EXACT_ENUMERATION)

    if budget < 1:
        raise ValueError(f"mc strategy needs budget >= 1, got {budget}")
    # In exact mode one memo serves every chunk of this estimate.
    memo = {} if mode.is_exact else None
    worker = partial(_mc_chunk, e, k, epsilon, theta, mode, master_seed, stream_key,
                     allow_pseudoinverse, cache, memo)
    est_mode = MODE_MC_EXACT_PROB if mode.is_exact else MODE_MC_SHOTS
    return mc_estimate(run_chunked(worker, budget, _WORD_CHUNK), est_mode)


def estimate_power_trace(
    e: EnsembleSpec,
    m: int,
    strategy: str = "enumerate",
    budget: int = DEFAULT_ENUMERATION_CAP,
    epsilon: float = DEFAULT_EPSILON,
    theta: float = DEFAULT_THETA,
    mode: MeasureMode = EXACT,
    rng: "int | np.random.Generator" = 0,
    allow_pseudoinverse: bool = False,
    cache: StageCache | None = None,
) -> TraceEstimate:
    """Tr{rho^m} from the binomial combination of Tr{G^k}, k = 0..m.

    Each k runs on its own RNG substream, keeping the per-k estimates
    independent as the series error propagation assumes; one ``StageCache``
    serves every k, whose subspace keys are among those of k + 1.  As in
    ``estimate_g_power_trace``, ``cache`` may be shared with other estimates
    of this (e, epsilon, theta); by default the estimate has its own.
    Enumeration checks every k's word count before the first estimate.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if strategy == "enumerate":
        _check_enumerate_mode(mode)
        for k in range(m + 1):
            check_enumeration_budget(e.alpha, k, budget)
    master_seed = as_master_seed(rng)
    if cache is None:
        cache = StageCache()
    estimates = [
        estimate_g_power_trace(
            e, k, strategy, budget, epsilon, theta, mode, master_seed,
            allow_pseudoinverse, stream_key=(k,), cache=cache,
        )
        for k in range(m + 1)
    ]
    return evaluate_series(binomial_weights(m), estimates)
