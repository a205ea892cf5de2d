"""Subspace gate-set-tomography estimator of Tr{G^k} and Tr{rho^m}.

Tr{G^k} decomposes over ordered words q = (q_1..q_k) of reflections, sampled
with weight P_q = prod p_{q_t}.  A word's operator W = G_{q_1}...G_{q_k}
(rightmost factor acting first on kets) fixes everything orthogonal to the
span of its reflection axes, so

    Tr{W} - 2^n = Re Tr{w} - d

with w the restriction of W to the d-dimensional span (its imaginary part
cancels in the weighted sum over words).  Every GST value is this deficit,
O(k) whatever n is: the binomial and entropy weights sum to 0, so 2^n drops
out of their series, and only a shown Tr{G^k} adds it back.  Every stage
runs on the rows of ``EnsembleSpec.span_states``: D <= alpha + 1
coordinates per state, the same inner products as the 2^n kets.

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
5. ``augmentation_state`` — one extra state |phi> outside the span of the
   circuit states: the restriction to the augmented subspace is block
   triangular with a unit diagonal entry, so Tr{w'} = Tr{w} + 1 and
   Tr{R_w'} = |Tr w + 1|^2 over the (d+1)^2 preps of the retained states
   plus |phi>.  Their sub-block is the d^2 preps of stage 2, so stage 3
   runs once on all of them and stage 4 on the sub-block, then the whole.
   The out-of-span part of |phi> is a left singular vector past the word
   states' rank; with alpha < 2^n the zero column of ``span_states``
   guarantees one exists.
6. ``combination_trace`` — Re[Tr w] = (Tr{R_w'} - Tr{R_w} - 1)/2.

Stages 2 to 6 run in the noisy (shots and Gaussian) modes only, and so do
the conditioning floor and its pseudo-inverse opt-in.  In exact mode, where
the measurement is an identity, ``combination_trace`` reads
Tr w = Tr(K_V^-1 M), M_rs = <psi_r|W|psi_s> and K_V the retained states'
Gram, as sum_i <u_i|W|u_i> over an orthonormal frame u of their span; a
solve of K_V would err like 1e-16 / lambda_min(K_V), 1.5e-9 on two
near-twin states, and the frame trace stays near 1e-15 where the
operator-basis Gram falls below the floor.  Of the tomography, exact mode
keeps only the search for an out-of-span state, so a key whose circuit
states fill the space fails as its augmentation would.

Words are plain sequences of component indices, processed in fixed chunks of
_WORD_CHUNK and merged in chunk order (Monte Carlo chunks as (count, sum,
M2) by ``series.mc_estimate``), so estimates are bit-identical for a fixed seed.
As in HT, each Monte Carlo chunk of draws lo..hi-1 has one substream,
``rng_stream(master, *stream_key, lo)``: it first draws the chunk's words as
one (hi - lo, k) array of uniforms, then, in the noisy modes, each word's
noise in draw order.  Enumeration runs in exact mode only and draws nothing.
A ``KeyStages`` builds one key's word-independent stages together when the
key is first met: stage 1 and the frame in exact mode; stage 1, |phi> and
the augmented preps of stages 2 and 5 in the noisy modes.  A
``StageCache`` keeps them per key and kind of mode (alpha!/(alpha-i)! keys
of i distinct indices, 64 at alpha = 4 for any k >= 4, against alpha^k
words) up to KEY_CACHE_BYTES of arrays; a Monte Carlo
``estimate_power_trace`` shares one cache across its powers k.  A noisy
word's own work is one application of W to the augmented preps, the noise
of its two read-outs (p, g, p', g' in that order, so the stream does not
depend on the cache) and two solves.

Exact enumeration visits no word: a word's deficit is linear in W, and its
key (its distinct indices in first-occurrence order) fixes its frame and d,
so ``_enumerate_chunk`` sums over the words of each key in a depth-first walk
of the sum_i alpha!/(alpha-i)! keys of 1 <= i <= k letters, each word getting
its own key's value.  One walk to k sums the words of every length t <= k,
so a Tr{rho^m} takes all its powers from one walk to k = m.  Monte Carlo
gives a drawn word that value too: exact mode runs ``combination_trace``
once per distinct word of an estimate and memoizes the value by the word,
and the noisy modes run it per draw, with the draw's noise.  So under truncation enumeration and Monte Carlo estimate
the same sum.  The enumeration caps count key-steps and the coefficients
a walk holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ._parallel import run_chunked
from .ensemble import EnsembleSpec
from .errors import (
    DegenerateAugmentationError,
    IdentityViolationError,
    IllConditionedGramError,
    ResourceLimitError,
)
from .noise_bounds import EXACT, MeasureMode
from .qcore import reflect_amplitudes
from .rng import as_master_seed, rng_stream
from .series import (
    MODE_EXACT_ENUMERATION,
    TraceEstimate,
    binomial_weights,
    evaluate_series,
    mc_estimate,
    mc_mode,
)

#: Two states whose overlap modulus exceeds this are the same physical state
#: (global phase ignored) and get merged rather than truncated.
SAME_STATE_OVERLAP = 1.0 - 1e-12

#: Default basis-rotation angle: maximally far from the degenerate multiples
#: of pi.
DEFAULT_THETA = math.pi / 2

#: Key-steps of enumeration walks that one check admits: about a minute at
#: some 6 us a step for large k, nearer three where alpha >> k.
ENUMERATION_CAP = 10**7

#: Complex coefficients (64 MiB) that one enumeration walk may hold at once.
ENUMERATION_VALUES_CAP = 2**22

#: Default number of Monte Carlo draws.
DEFAULT_TRIALS = 20000

#: Default truncation threshold: effectively "no truncation" for generic
#: ensembles while still catching numerically dependent states.
DEFAULT_EPSILON = 1e-10

#: Gram matrices with a smaller minimum eigenvalue refuse to invert unless
#: the pseudo-inverse fallback is explicitly requested.
CONDITIONING_FLOOR = 1e-8

#: Weight of the retained-state overlap component in the augmentation state.
_AUGMENT_MIX = 0.5

#: Monte Carlo draws, or first letters of enumerated words, per chunk.
#: Fixed: the Monte Carlo chunk layout is the RNG stream layout, so changing
#: it changes every GST Monte Carlo result.
_WORD_CHUNK = 32

#: Byte budget of one estimate's ``StageCache``.  With d = 7 and D = 8, a
#: noisy-mode key holds 41,352 bytes, so some 1,600 such keys fit, and an
#: exact-mode key's frame 896 bytes; past the budget a key is built per word.
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


def _admission_statistic(retained: Sequence[np.ndarray], psi: np.ndarray) -> np.ndarray:
    """(|Delta|^2 / (1 + |x|^2))^2 for adding psi to the retained set, or for
    adding each row of a block psi on its own.

    x solves the Gram system expressing the projection of psi onto the
    retained (non-orthogonal) states; |Delta|^2 is the squared residual norm.
    The statistic reproduces the smallest eigenvalue of the Hilbert-Schmidt
    Gram matrix of the candidate basis.
    """
    if not retained:
        return np.ones(psi.shape[:-1])
    r = np.array(retained)
    c = r.conj() @ psi.T
    x = np.linalg.solve(r.conj() @ r.T, c)
    proj_sq = np.clip(np.sum(c.conj() * x, axis=0).real, 0.0, 1.0)
    return ((1.0 - proj_sq) / (1.0 + np.sum(np.abs(x) ** 2, axis=0))) ** 2


def _admit(e: EnsembleSpec, b: SubspaceBasis, indices: Sequence[int],
           epsilon: float) -> list[SubspaceBasis]:
    """``b`` after meeting each state of ``indices`` on its own: unchanged for
    a physical duplicate of a retained state, else with the state retained
    if its admission statistic is >= epsilon and discarded if not."""
    psi = e.span_states[list(indices)]
    same = np.zeros(len(psi), dtype=bool)
    if b.retained:
        same = np.max(np.abs(np.array(b.retained) @ psi.conj().T), axis=0) > SAME_STATE_OVERLAP
    return [b if dup else SubspaceBasis((*b.retained, v), b.discarded) if stat >= epsilon
            else SubspaceBasis(b.retained, (*b.discarded, (v, float(stat))))
            for v, dup, stat in zip(psi, same, _admission_statistic(b.retained, psi))]


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
    b = SubspaceBasis((), ())
    for idx in dict.fromkeys(indices):
        (b,) = _admit(e, b, [idx], epsilon)
    return b


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
    checked symmetric with entries in [0, 1].  Both arrays are read-only.
    """

    preps: tuple[tuple[int, "int | None"], ...]
    prep_matrix: np.ndarray
    gram: np.ndarray


def operator_basis_for_states(states: Sequence[np.ndarray], theta: float) -> OperatorBasis:
    """The d^2 preparations over an explicit state list, with their kets
    and exact Gram."""
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
    for a in (m, g):
        a.setflags(write=False)
    return OperatorBasis(tuple(preps), m, g)


def apply_word(e: EnsembleSpec, indices: Sequence[int], block: np.ndarray) -> np.ndarray:
    """Apply W = G_{q_1}...G_{q_k} to every state in ``block`` (rows), with
    the rightmost factor acting first."""
    for idx in reversed(indices):
        block = reflect_amplitudes(e.span_states[idx], math.pi, block)
    return block


def measure_matrices(
    e: EnsembleSpec, indices: Sequence[int], ob: OperatorBasis
) -> tuple[np.ndarray, np.ndarray]:
    """The exact (p, g): p_rs = |<chi_r|W|chi_s>|^2 and g_rs =
    |<chi_r|chi_s>|^2 over the prep kets, via rank-1 reflection application,
    with p checked to stay in [0, 1].  ``_read_out`` adds the noisy modes'
    noise."""
    s = ob.prep_matrix
    p = np.abs(s.conj() @ apply_word(e, indices, s).T) ** 2
    _check_unit_range("p", p)
    return p, ob.gram


def _read_out(
    p: np.ndarray, g: np.ndarray, mode: MeasureMode, rng: np.random.Generator | None
) -> tuple[np.ndarray, np.ndarray]:
    """Noisy estimates of the exact p and g: shots(N) mode replaces each
    entry with a Binomial(N, x)/N draw; gaussian mode adds N(0, sigma^2) per
    entry without clamping (p first, then g, in row-major order)."""
    if rng is None:
        raise ValueError(f"measure mode {mode.kind!r} requires an rng")
    if mode.kind == "shots":
        p = rng.binomial(mode.shots, np.clip(p, 0.0, 1.0)) / mode.shots
        g = rng.binomial(mode.shots, np.clip(g, 0.0, 1.0)) / mode.shots
    else:
        p = p + mode.sigma * rng.standard_normal(p.shape)
        g = g + mode.sigma * rng.standard_normal(g.shape)
    return p, g


def ptm_trace(p: np.ndarray, g: np.ndarray, allow_pseudoinverse: bool = False) -> float:
    """Tr{solve(g, p)} via the eigendecomposition of the (symmetrized) Gram.

    Estimates |Tr w|^2.  A Gram below the conditioning floor raises
    IllConditionedGramError rather than silently regularizing, or with
    ``allow_pseudoinverse=True`` takes a pseudo-inverse (which biases traces).
    """
    if len(p) == 0:
        return 0.0
    sym = 0.5 * (g + g.T)
    w, v = np.linalg.eigh(sym)
    if w[0] < CONDITIONING_FLOOR:
        if not allow_pseudoinverse:
            raise IllConditionedGramError(
                f"Gram matrix min eigenvalue {w[0]:.3e} is below the "
                f"conditioning floor {CONDITIONING_FLOOR:.3e}",
                min_eigenvalue=float(w[0]),
            )
        return float(np.trace(np.linalg.pinv(sym, rcond=1e-12) @ p))
    return float(np.trace((v / w) @ (v.T @ p)))


def _out_of_span_residual(e: EnsembleSpec, indices: Sequence[int]) -> np.ndarray:
    """A unit vector orthogonal to every circuit state of the word (including
    truncated ones): the first left singular vector of the states past their
    rank, in the D coordinates."""
    dim = e.span_states.shape[1]
    axes = e.span_states[list(dict.fromkeys(indices))]
    u, sv, _ = np.linalg.svd(axes.T)
    rank = int(np.count_nonzero(sv > 1e-12 * sv.max(initial=0.0)))
    if rank == dim:
        raise DegenerateAugmentationError(
            f"the {len(axes)} circuit states span the whole {dim}-dimensional "
            "space; no independent augmentation state exists"
        )
    return u[:, rank]


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
    """Per-word result: |Tr w|^2 (in the noisy modes the transfer-matrix
    trace Tr{R_w}), Re[Tr w], and the deficit Tr{W} - 2^n = Re[Tr w] - d."""

    d: int
    tr_rw: float
    re_tr_w: float
    value: float


def _exact_frame(e: EnsembleSpec, key: Sequence[int], states: Sequence[np.ndarray]) -> np.ndarray:
    """An orthonormal frame (rows) of the span of ``states``, once the states
    of ``key`` leave room outside their span (fewer than D always do)."""
    if len(key) >= e.span_states.shape[1]:
        _out_of_span_residual(e, key)
    m = np.array(states, dtype=np.complex128).reshape(len(states), e.span_states.shape[1])
    return np.linalg.qr(m.T)[0].T


class KeyStages:
    """The word-independent stages of one subspace key in one kind of mode,
    built together.  Both kinds hold the subspace ``b``.  An ``exact`` key
    adds an orthonormal ``frame`` (rows) of its retained states' span, once
    an out-of-span state is found to exist, as the tomography needs.  A
    noisy key adds the augmentation state |phi>, the operator basis
    ``ob_aug`` over the retained states plus |phi>, and ``sub``, the indices
    of its d^2 preps over the retained states alone.  ``nbytes`` counts the
    arrays held."""

    def __init__(self, e: EnsembleSpec, key: tuple[int, ...], epsilon: float, theta: float,
                 exact: bool):
        self.b = build_subspace(e, key, epsilon)
        d = self.b.d
        if exact:
            self.frame = _exact_frame(e, key, self.b.retained)
            self.nbytes = self.frame.nbytes
        else:
            phi = augmentation_state(e, key, self.b)
            self.ob_aug = operator_basis_for_states((*self.b.retained, phi), theta)
            self.sub = np.array([r for r, (s, dress) in enumerate(self.ob_aug.preps)
                                 if s < d and (dress is None or dress < d)], dtype=np.intp)
            self.nbytes = sum(a.nbytes for a in (self.ob_aug.prep_matrix, self.ob_aug.gram,
                                                 self.sub))


class StageCache:
    """Per-estimate store of ``KeyStages``, keyed by a word's distinct indices
    in first-occurrence order, through which alone every stage they hold
    depends on the word, and by whether the mode is exact, which decides the
    stages built; and of the enumeration walk's frames.  One cache serves one
    (ensemble, epsilon, theta), in every mode.  Entries are kept until their
    arrays fill KEY_CACHE_BYTES; later ones are built per use, not stored."""

    def __init__(self) -> None:
        self._entries: dict[tuple[tuple[int, ...], bool], KeyStages] = {}
        self._frames: dict[tuple[frozenset[int], frozenset[int]], np.ndarray] = {}
        self.nbytes = 0

    def stages(self, e: EnsembleSpec, key: tuple[int, ...], epsilon: float,
               theta: float, exact: bool) -> KeyStages:
        """The key's stored stages, or new ones, stored if they fit."""
        return self._stored(self._entries, (key, exact),
                            lambda: KeyStages(e, key, epsilon, theta, exact))

    def _frame(self, e: EnsembleSpec, key: tuple[int, ...], kept: tuple[int, ...]) -> np.ndarray:
        """The frame of the states ``kept`` of ``key``, built in index order:
        its projector depends on the set kept, its check on the key's set."""
        return self._stored(self._frames, (frozenset(key), frozenset(kept)),
                            lambda: _exact_frame(e, key, e.span_states[sorted(kept)]))

    def _stored(self, store: dict, key: object, build: Callable[[], Any]) -> Any:
        """``store[key]``, or ``build()``, stored if its ``nbytes`` fit."""
        value = store.get(key)
        if value is None:
            value = build()
            if self.nbytes + value.nbytes <= KEY_CACHE_BYTES:
                store[key] = value
                self.nbytes += value.nbytes
        return value


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
    """Full per-word pipeline: the deficit Tr{W} - 2^n = Re[Tr w] - d, with
    Tr w = sum_i <u_i|W|u_i> over the rows of ``KeyStages.frame`` in exact
    mode, and otherwise measured as Re[Tr w] = (Tr{R_w'} - Tr{R_w} - 1)/2.
    Only the noisy modes read ``theta`` and ``allow_pseudoinverse``, which
    lets their Gram solves pass the conditioning floor by pseudo-inverse.

    A noisy word applies W once, to ``ob_aug``'s preps; the exact (p, g)
    are read out with noise on their ``sub`` block, then whole.

    With a ``cache`` (for this ensemble, epsilon and theta), the word's
    subspace and frame or basis come from its key's entry; the result is
    the same with or without it.
    """
    if any(i < 0 or i >= e.alpha for i in indices):
        raise ValueError(f"indices {tuple(indices)} out of range for alpha={e.alpha}")
    key = tuple(dict.fromkeys(indices))
    stages = (KeyStages(e, key, epsilon, theta, mode.is_exact) if cache is None
              else cache.stages(e, key, epsilon, theta, mode.is_exact))
    b = stages.b
    if mode.is_exact:
        tr_w = complex(np.sum(stages.frame.conj() * apply_word(e, indices, stages.frame)))
        tr_rw, re_tr_w = abs(tr_w) ** 2, tr_w.real
    else:
        # Tr{R_w} over the d^2 preps, then Tr{R_w'} = |Tr w + 1|^2 over the
        # (d+1)^2 augmented ones.
        p, g = measure_matrices(e, indices, stages.ob_aug)
        block = np.ix_(stages.sub, stages.sub)
        tr_rw, tr_aug = (ptm_trace(*_read_out(pm, gm, mode, rng), allow_pseudoinverse)
                         for pm, gm in ((p[block], g[block]), (p, g)))
        re_tr_w = 0.5 * (tr_aug - tr_rw - 1.0)
    return CombinationTrace(b.d, tr_rw, re_tr_w, re_tr_w - b.d)


def _enumerate_chunk(
    e: EnsembleSpec, ts: range, epsilon: float, cache: StageCache, lo: int, hi: int
) -> list[float]:
    """Exact-mode sums of P_q (Tr{W_q} - 2^n) over the length-t words q whose
    first letter is lo..hi-1, one for each t of ``ts``, by one depth-first
    walk over their keys to k = max(ts).

    Each word of a key with states V (columns) is W = I + V C V^dagger; the
    key carries C(t) = sum P_q C_q and P(t) = sum P_q over its length-t
    words.  Appending x, its j-th letter, turns C into C - 2 (e_j + C K e_j)
    e_j^T, K = V^dagger V; a new x makes the child key + (x), whose C(t + 1)
    gains p_x C(t) bordered by the column -2 p_x (C(t) K_(key,x), P(t)).  A
    key of i letters adds Re Tr(C(t) V^dagger F F^dagger V), F its frame, to
    the sum of each t >= i, and its children's sums in walk order, so each
    sum adds as a walk to k = t alone would.  A child's subspace is its
    parent's after one ``_admit``.
    """
    gram, probs, states = e.gram, e.probs, e.span_states
    k, s = ts[-1], ts.start

    def walk(key, b, kept, c, p) -> list[float]:
        i, idx = len(key), list(key)
        if i < k:
            pk = probs[idx]
            sigma, diag = pk.sum(), np.diag(pk)
            step = sigma * np.eye(i) - 2.0 * gram[idx][:, idx] * pk
            for t in range(i, k):
                c[t + 1] += c[t] @ step - 2.0 * p[t] * diag
                p[t + 1] += sigma * p[t]
        overlaps = cache._frame(e, key, kept).conj() @ states[idx].T
        total = [0.0] * len(ts)
        for t in range(max(i, s), k + 1):
            total[t - s] = np.vdot(overlaps, overlaps @ c[t]).real
        if i == k:
            return total
        letters = [x for x in (range(e.alpha) if key else range(lo, hi)) if x not in key]
        px = probs[letters]
        cc = np.zeros((len(letters), k + 1, i + 1, i + 1), dtype=np.complex128)
        cc[:, i + 1:, :i, :i] = c[i:k]
        cc[:, i + 1:, :i, i] = -2.0 * (c[i:k] @ gram[idx][:, letters]).transpose(2, 0, 1)
        cc[:, i + 1:, i, i] = -2.0 * p[i:k]
        cc *= px[:, None, None, None]
        cp = np.outer(px, np.concatenate((np.zeros(i + 1), p[i:k])))
        reach = range(max(i + 1 - s, 0), len(ts))  # the sums that children add to
        for j, (x, child) in enumerate(zip(letters, _admit(e, b, letters, epsilon))):
            sums = walk((*key, x), child, (*kept, x) if child.d > b.d else kept, cc[j], cp[j])
            for r in reach:
                total[r] += sums[r]
        return total

    c, p = np.zeros((k + 1, 0, 0), dtype=np.complex128), np.concatenate(([1.0], np.zeros(k)))
    return walk((), build_subspace(e, (), epsilon), (), c, p)


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

    ``memo`` is the exact-mode store of values, keyed by drawn words: a word
    it misses runs ``combination_trace`` once.  In the noisy modes ``memo``
    is None and every draw runs its own word with its own noise.  ``cache``
    holds the word-independent stages of each subspace key in every mode."""
    rng = rng_stream(master_seed, *stream_key, lo)
    words = e.component_indices(rng.random((hi - lo, k))).tolist()
    total, values = 0.0, []
    for indices in map(tuple, words):
        value = None if memo is None else memo.get(indices)
        if value is None:
            value = combination_trace(
                e, indices, epsilon, theta, mode, rng, allow_pseudoinverse, cache
            ).value
            if memo is not None:
                memo[indices] = value
        total += value
        values.append(value)
    mean = total / len(values)
    return len(values), total, math.fsum((v - mean) ** 2 for v in values)


def check_enumeration_budget(alpha: int, powers: Iterable[range]) -> None:
    """Raise ResourceLimitError if the key walks of Tr{G^k}, k over the
    ranges ``powers``, take over ENUMERATION_CAP key-steps in all: k steps
    for each key, alpha!/(alpha-i)! keys of i = 1..min(k, alpha) letters.
    The keys of i letters cost a range's sum of k >= i, in closed form.  Or
    if the walk of the largest k holds over ENUMERATION_VALUES_CAP complex
    coefficients at once, ``_enumerate_chunk``'s (alpha - i)(k + 1)(i + 1)^2
    at each depth i < min(k, alpha) of its path.

    A Tr{rho^m} walks once, to k = m, but is charged as the walks of
    k = 0..m: that charge, about m^2 / 2 steps a key, also bounds the row's
    exact binomial weights, m + 1 quotients of integers of up to m bits."""
    steps, k = 0, 0
    for r in powers:
        k = max(k, r.stop - 1)
        for i in range(1, min(r.stop - 1, alpha) + 1):
            lo = max(r.start, i)
            steps += math.perm(alpha, i) * (lo + r.stop - 1) * (r.stop - lo) // 2
    values = (k + 1) * sum((alpha - i) * (i + 1) ** 2 for i in range(min(k, alpha)))
    for requested, cap, what in ((steps, ENUMERATION_CAP, "key-steps"),
                                 (values, ENUMERATION_VALUES_CAP, "coefficients at once")):
        if requested > cap:
            raise ResourceLimitError(
                f"GST enumeration needs {requested} {what}, over the cap of {cap}",
                requested=requested, cap=cap)


def _enumerate(e: EnsembleSpec, ts: range, epsilon: float, mode: MeasureMode,
               cache: StageCache) -> list[TraceEstimate]:
    """The deficits Tr{G^t} - 2^n, t in ``ts``, from one key walk per chunk
    of first letters; exact mode only, checked before the cap, since noisy
    entries would make enumeration's zero standard error a false claim."""
    if not mode.is_exact:
        raise ValueError(f"enumerate strategy requires exact mode, got {mode.kind!r}")
    check_enumeration_budget(e.alpha, [ts])
    parts = run_chunked(partial(_enumerate_chunk, e, ts, epsilon, cache), e.alpha, _WORD_CHUNK)
    return [TraceEstimate(float(sum(v)), 0.0, MODE_EXACT_ENUMERATION) for v in zip(*parts)]


def estimate_g_power_trace(
    e: EnsembleSpec,
    k: int,
    strategy: str = "enumerate",
    budget: int = DEFAULT_TRIALS,
    epsilon: float = DEFAULT_EPSILON,
    theta: float = DEFAULT_THETA,
    mode: MeasureMode = EXACT,
    rng: "int | np.random.Generator" = 0,
    allow_pseudoinverse: bool = False,
    stream_key: tuple[int, ...] = (),
    cache: StageCache | None = None,
) -> TraceEstimate:
    """The deficit Tr{G^k} - 2^n = sum_q P_q (Tr{W_q} - 2^n), either over
    all alpha^k words with exact weights by the key walk of
    ``_enumerate_chunk`` (``enumerate``, exact mode only), or over
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
        return _enumerate(e, range(k, k + 1), epsilon, mode, cache)[0]

    if budget < 2:
        raise ValueError(f"mc strategy needs budget >= 2, got {budget}")
    # In exact mode one memo serves every chunk of this estimate.
    memo = {} if mode.is_exact else None
    worker = partial(_mc_chunk, e, k, epsilon, theta, mode, master_seed, stream_key,
                     allow_pseudoinverse, cache, memo)
    return mc_estimate(run_chunked(worker, budget, _WORD_CHUNK), mc_mode(mode.kind))


def estimate_power_trace(
    e: EnsembleSpec,
    m: int,
    strategy: str = "enumerate",
    budget: int = DEFAULT_TRIALS,
    epsilon: float = DEFAULT_EPSILON,
    theta: float = DEFAULT_THETA,
    mode: MeasureMode = EXACT,
    rng: "int | np.random.Generator" = 0,
    allow_pseudoinverse: bool = False,
    cache: StageCache | None = None,
) -> TraceEstimate:
    """Tr{rho^m} from the binomial combination of the Tr{G^k} - 2^n
    deficits, k = 0..m, whose weights sum to 0 for m >= 1.

    Enumeration takes every k from one key walk to k = m.  Monte Carlo runs
    each k on its own RNG substream, keeping the per-k estimates independent
    as the series error propagation assumes.  One ``StageCache`` serves
    every k, whose subspace keys are among those of k + 1; as in
    ``estimate_g_power_trace``, it may be shared with other estimates of
    this (e, epsilon, theta).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    master_seed = as_master_seed(rng)
    if cache is None:
        cache = StageCache()
    if strategy == "enumerate":
        estimates = _enumerate(e, range(m + 1), epsilon, mode, cache)
    else:
        estimates = [estimate_g_power_trace(e, k, strategy, budget, epsilon, theta, mode,
                                            master_seed, allow_pseudoinverse, (k,), cache)
                     for k in range(m + 1)]
    return evaluate_series(binomial_weights(m), estimates)
