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
(d+1)^2-sized solve, whatever n is.  Tr{w} is recovered without ever
reconstructing w:

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
5. ``augment_and_trace`` — repeat with one extra state |phi> outside the
   span of the circuit states: the restriction to the augmented subspace is
   block triangular with a unit diagonal entry, so Tr{w'} = Tr{w} + 1 and
   Tr{R_w'} = |Tr w + 1|^2.  The out-of-span part of |phi> is a probe
   projected off the word's states in the D coordinates; with alpha < 2^n
   the zero column of ``span_states`` guarantees one exists.
6. ``combination_trace`` — Re[Tr w] = (Tr{R_w'} - Tr{R_w} - 1)/2; the
   imaginary parts cancel in the weighted sum over words, so the real part
   is all that is ever needed.

Words are plain sequences of component indices, processed independently
with one RNG substream per word index and merged in index order, so
estimates are bit-identical for a fixed seed.  In exact mode, Monte Carlo
evaluates each distinct word once per estimate and serves repeats from a
memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Iterator, Sequence

import numpy as np

from ._parallel import merge_moment_sums, run_chunked
from .ensemble import EnsembleSpec
from .errors import (
    DegenerateAugmentationError,
    IdentityViolationError,
    IllConditionedGramError,
    ResourceLimitError,
)
from .ht import (
    DEFAULT_ENUMERATION_CAP,
    MODE_EXACT_ENUMERATION,
    MODE_MC_EXACT_PROB,
    MODE_MC_SHOTS,
    TraceEstimate,
    _finish_estimate,
)
from .qcore import reflect_amplitudes
from .rng import as_master_seed, rng_stream
from .series import binomial_weights, evaluate_series

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

_WORD_CHUNK = 32


@dataclass(frozen=True)
class MeasureMode:
    """How matrix entries are measured: exact values, binomial shot noise
    with N shots per entry, or additive Gaussian noise of std sigma."""

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


def _check_theta(theta: float) -> None:
    j = round(theta / math.pi)
    if abs(theta - j * math.pi) < 1e-6:
        raise ValueError(
            f"basis rotation theta={theta!r} is within 1e-6 of {j}*pi, "
            "which makes the dressed preparations linearly dependent"
        )


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """Pure-state preparations spanning the operator space over the subspace.

    Each descriptor (s, s') is the ket G_{s'}(theta)|psi_s>; s' = None means
    the undressed |psi_s>.  With d basis states there are d diagonal preps
    and d^2 - d dressed ones.
    """

    states: tuple[np.ndarray, ...]
    preps: tuple[tuple[int, "int | None"], ...]
    theta: float

    @cached_property
    def prep_matrix(self) -> np.ndarray:
        """Prep kets stacked as rows, shape (len(preps), D); read-only."""
        rows = []
        for s, dress in self.preps:
            ket = self.states[s]
            if dress is not None:
                ket = reflect_amplitudes(self.states[dress], self.theta, ket)
            rows.append(ket)
        dim = self.states[0].size if self.states else 0
        m = np.array(rows).reshape(len(rows), dim)
        m.setflags(write=False)
        return m


def operator_basis_for_states(states: Sequence[np.ndarray], theta: float) -> OperatorBasis:
    """d^2 preparation descriptors over an explicit state list."""
    _check_theta(theta)
    d = len(states)
    preps = [(s, None) for s in range(d)]
    preps += [(s, sp) for s in range(d) for sp in range(d) if sp != s]
    return OperatorBasis(tuple(states), tuple(preps), theta)


@dataclass(frozen=True, eq=False)
class GstMatrices:
    """Measured p (gate) and g (Gram) matrices, with how they were measured."""

    p_mat: np.ndarray = field(repr=False)
    g_mat: np.ndarray = field(repr=False)
    mode: MeasureMode = EXACT

    def __post_init__(self) -> None:
        p, g = np.asarray(self.p_mat, float), np.asarray(self.g_mat, float)
        if p.shape != g.shape or p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError(f"p/g must be equal square matrices, got {p.shape} vs {g.shape}")
        if self.mode.is_exact and p.size:
            if np.max(np.abs(g - g.T)) > 1e-10:
                raise ValueError("exact-mode Gram matrix is not symmetric")
            for name, m in (("p", p), ("g", g)):
                if m.min() < -1e-12 or m.max() > 1.0 + 1e-12:
                    raise ValueError(f"exact-mode {name} entries leave [0, 1]")
        for m in (p, g):
            m.setflags(write=False)
        object.__setattr__(self, "p_mat", p)
        object.__setattr__(self, "g_mat", g)

    @property
    def size(self) -> int:
        return self.p_mat.shape[0]


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
) -> GstMatrices:
    """p_rs = |<chi_r|W|chi_s>|^2 and g_rs = |<chi_r|chi_s>|^2 over the prep
    kets, via rank-1 reflection application.

    shots(N) mode replaces each entry with a Binomial(N, p)/N draw; gaussian
    mode adds N(0, sigma^2) per entry without clamping (p first, then g, in
    row-major order).
    """
    s = ob.prep_matrix
    t = apply_word(e, indices, s)
    p = np.abs(s.conj() @ t.T) ** 2
    g = np.abs(s.conj() @ s.T) ** 2
    if not mode.is_exact:
        if rng is None:
            raise ValueError(f"measure mode {mode.kind!r} requires an rng")
        if mode.kind == "shots":
            p = rng.binomial(mode.shots, np.clip(p, 0.0, 1.0)) / mode.shots
            g = rng.binomial(mode.shots, np.clip(g, 0.0, 1.0)) / mode.shots
        else:
            p = p + mode.sigma * rng.standard_normal(p.shape)
            g = g + mode.sigma * rng.standard_normal(g.shape)
    return GstMatrices(p, g, mode)


def ptm_trace(mx: GstMatrices, allow_pseudoinverse: bool = False) -> float:
    """Tr{solve(g, p)} via the eigendecomposition of the (symmetrized) Gram.

    Estimates |Tr w|^2.  If the Gram's minimum eigenvalue is below the
    conditioning floor this raises IllConditionedGramError rather than
    silently regularizing; pass ``allow_pseudoinverse=True`` to opt into a
    pseudo-inverse instead (which biases traces).
    """
    if mx.size == 0:
        return 0.0
    sym = 0.5 * (mx.g_mat + mx.g_mat.T)
    w, v = np.linalg.eigh(sym)
    min_eig = float(w[0])
    if min_eig < CONDITIONING_FLOOR:
        if not allow_pseudoinverse:
            raise IllConditionedGramError(
                f"Gram matrix min eigenvalue {min_eig:.3e} is below the "
                f"conditioning floor {CONDITIONING_FLOOR:.3e}",
                min_eigenvalue=min_eig,
            )
        return float(np.trace(np.linalg.pinv(sym, rcond=1e-12) @ mx.p_mat))
    return float(np.trace((v / w) @ (v.T @ mx.p_mat)))


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


def augment_and_trace(
    e: EnsembleSpec,
    indices: Sequence[int],
    b: SubspaceBasis,
    theta: float = DEFAULT_THETA,
    mode: MeasureMode = EXACT,
    rng: np.random.Generator | None = None,
    allow_pseudoinverse: bool = False,
) -> tuple[float, float]:
    """(Tr{R_w}, Tr{R_w'}) for the subspace and its one-state augmentation.

    The augmented run uses (d+1)^2 preparations built over the retained
    states plus the augmentation state |phi>; in exact mode
    Tr{R_w'} = |Tr w + 1|^2.
    """
    ob = operator_basis_for_states(b.retained, theta)
    tr_rw = ptm_trace(measure_matrices(e, indices, ob, mode, rng), allow_pseudoinverse)
    phi = augmentation_state(e, indices, b)
    ob_aug = operator_basis_for_states((*b.retained, phi), theta)
    tr_aug = ptm_trace(measure_matrices(e, indices, ob_aug, mode, rng), allow_pseudoinverse)
    return tr_rw, tr_aug


def combination_trace(
    e: EnsembleSpec,
    indices: Sequence[int],
    epsilon: float = DEFAULT_EPSILON,
    theta: float = DEFAULT_THETA,
    mode: MeasureMode = EXACT,
    rng: np.random.Generator | None = None,
    allow_pseudoinverse: bool = False,
) -> CombinationTrace:
    """Full per-word pipeline: Tr{W} estimated as 2^n - d + Re[Tr w] with
    Re[Tr w] = (Tr{R_w'} - Tr{R_w} - 1)/2."""
    if any(i < 0 or i >= e.alpha for i in indices):
        raise ValueError(f"indices {tuple(indices)} out of range for alpha={e.alpha}")
    b = build_subspace(e, indices, epsilon)
    tr_rw, tr_aug = augment_and_trace(e, indices, b, theta, mode, rng, allow_pseudoinverse)
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


def _word_at(alpha: int, k: int, rank: int) -> tuple[int, ...]:
    """rank-th word of length k in lexicographic (itertools.product) order."""
    return tuple((rank // alpha ** (k - 1 - j)) % alpha for j in range(k))


def _enumerate_chunk(
    e: EnsembleSpec,
    k: int,
    epsilon: float,
    theta: float,
    mode: MeasureMode,
    master_seed: int,
    stream_key: tuple[int, ...],
    allow_pseudoinverse: bool,
    lo: int,
    hi: int,
) -> float:
    partial_sum = 0.0
    for rank in range(lo, hi):
        indices = _word_at(e.alpha, k, rank)
        weight = float(np.prod([e.probs[i] for i in indices])) if indices else 1.0
        rng = None if mode.is_exact else rng_stream(master_seed, *stream_key, rank)
        ct = combination_trace(e, indices, epsilon, theta, mode, rng, allow_pseudoinverse)
        partial_sum += weight * ct.value
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
    memo: dict[tuple[int, ...], float] | None,
    lo: int,
    hi: int,
) -> tuple[float, float, int]:
    """Moment sums over draws lo..hi-1; ``memo`` maps words to their values
    (exact mode only, where a value does not depend on the word's stream)."""
    total = total_sq = 0.0
    for t in range(lo, hi):
        rng = rng_stream(master_seed, *stream_key, t)
        indices = tuple(int(i) for i in e.component_indices(rng.random(k)))
        value = None if memo is None else memo.get(indices)
        if value is None:
            ct = combination_trace(e, indices, epsilon, theta, mode, rng, allow_pseudoinverse)
            value = ct.value
            if memo is not None:
                memo[indices] = value
        total += value
        total_sq += value * value
    return total, total_sq, hi - lo


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
) -> TraceEstimate:
    """Tr{G^k} = sum_q P_q Tr{W_q}, either over all alpha^k words with exact
    weights (``enumerate``) or over ``budget`` sampled words (``mc``)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if strategy not in ("enumerate", "mc"):
        raise ValueError(f"strategy must be 'enumerate' or 'mc', got {strategy!r}")
    master_seed = as_master_seed(rng)
    common = (e, k, epsilon, theta, mode, master_seed, stream_key, allow_pseudoinverse)

    if strategy == "enumerate":
        n_words = e.alpha**k
        if n_words > budget:
            raise ResourceLimitError(
                f"enumerating Tr{{G^{k}}} needs {n_words} words, "
                f"over the cap of {budget}",
                requested=n_words,
                cap=budget,
            )
        parts = run_chunked(partial(_enumerate_chunk, *common), n_words, _WORD_CHUNK)
        return TraceEstimate(float(sum(parts)), 0.0, n_words, MODE_EXACT_ENUMERATION)

    if budget < 1:
        raise ValueError(f"mc strategy needs budget >= 1, got {budget}")
    # One memo serves every chunk of this estimate.
    memo = {} if mode.is_exact else None
    parts = run_chunked(partial(_mc_chunk, *common, memo), budget, _WORD_CHUNK)
    est_mode = MODE_MC_EXACT_PROB if mode.is_exact else MODE_MC_SHOTS
    return _finish_estimate(*merge_moment_sums(parts), est_mode)


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
) -> TraceEstimate:
    """Tr{rho^m} from the binomial combination of Tr{G^k}, k = 0..m.

    Each k runs on its own RNG substream, keeping the per-k estimates
    independent as the series error propagation assumes.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    master_seed = as_master_seed(rng)
    estimates = [
        estimate_g_power_trace(
            e, k, strategy, budget, epsilon, theta, mode, master_seed,
            allow_pseudoinverse, stream_key=(k,),
        )
        for k in range(m + 1)
    ]
    return evaluate_series(binomial_weights(m), estimates)
