"""The random-state model {p_i, U_i} and its exact oracle.

An ensemble prepares the mixed state

    rho = sum_i p_i U_i |0><0|^n U_i^dagger = sum_i p_i |psi_i><psi_i|

from product preparations U_i = u_i1 (x) ... (x) u_in drawn with known
probabilities p_i, each entering only through its per-qubit kets u_iq|0>,
one (alpha, n, 2) array.  Everything in this module is ground truth for the
estimators: traces of powers of rho, traces of powers of the encoding channel
G = I - 2*rho and of rho G^j, traces of reflection words, and the
entropy-like quantity Tr{rho ln rho}.

Every psi_i lies in an alpha-dimensional span, so the oracle never needs a
2**n vector.  The alpha x alpha Gram K_ij = <psi_i|psi_j> is a product of
per-qubit overlaps, O(n alpha^2), and the nonzero spectrum of rho is the
spectrum of sqrt(P) K sqrt(P), O(alpha^3).  Tr{rho^m}, Tr{G^k} and
Tr{rho ln rho} follow from those alpha eigenvalues, at every n the schema
accepts.  ``span_states`` factors the Gram into alpha rows of D <= alpha + 1
coordinates (plus one zero coordinate outside the span) on which subspace
GST runs, again with no 2**n vector.

``state_matrix`` (with its rows, ``states``) and ``exact_combination_trace``
are the only 2**n constructions left: an independent dense cross-check that
tests compare the span-space paths against.  No estimator calls them, and
``exact_combination_trace`` refuses n above DENSE_MAX_QUBITS.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ResourceLimitError
from .qcore import MAX_COMPONENTS, MAX_QUBITS

#: Qubit cap of the dense cross-check ``exact_combination_trace``: one
#: 2**12 x 2**12 complex matrix is 256 MiB.
DENSE_MAX_QUBITS = 12

#: Gram eigenvalues below this times alpha * lambda_max are eigh rounding
#: noise (measured: at most 0.74 of alpha * eps * lambda_max for exactly
#: duplicated components) and embed as exact zeros in ``span_states``.
_NULL_EIGENVALUE_RTOL = 16 * np.finfo(np.float64).eps

#: Probability sums are validated against this before the single renormalization.
PROB_SUM_TOL = 1e-9

#: Each per-qubit ket must have |<k|k> - 1| at most this.  Rotation kets
#: meet it to a few ulp; a state off by n times this scales every Gram entry
#: and every trace by as much.
KET_NORM_TOL = 1e-12

#: Eigenvalues below this are treated as exact zeros in the entropy sum
#: (lambda * ln lambda -> 0), which handles rank-deficient rho.
ENTROPY_EIGENVALUE_CUTOFF = 1e-12

#: Largest alpha whose inverse-CDF draw counts boundaries (one uint8 pass per
#: component) instead of calling searchsorted.  Measured on an 8192 x 13
#: uniform draw, 2-vCPU Xeon host: counting 0.13 ms vs searchsorted 2.3-3.1 ms
#: at alpha = 4, 0.9 vs 5.5 ms at 32 and 3-4 vs 6.4-8.6 ms at 128; at
#: 192-256 either can win by up to 2x.  Must stay below 256, the uint8 range.
_COUNTED_DRAW_MAX_ALPHA = 128

#: Gram rows built per block: the (rows, alpha, n) complex einsum is the
#: largest temporary, 16 * 16 * alpha * n bytes per block (2 MiB at
#: alpha = 400, n = 20, against 49 MiB for all rows at once).
_GRAM_BLOCK_ROWS = 16


def check_component_count(alpha: int) -> None:
    """Raise ResourceLimitError above MAX_COMPONENTS components."""
    if alpha > MAX_COMPONENTS:
        raise ResourceLimitError(f"{alpha} components, over the cap of {MAX_COMPONENTS}",
                                 requested=alpha, cap=MAX_COMPONENTS)


def rotation_ket(theta: float, phi: float) -> tuple[complex, complex]:
    """u|0> = (cos(theta/2), e^{i*phi} sin(theta/2)), the first column of the
    rotation gate U(theta, phi, lam); lam phases only its second column, so it
    drops out of every state."""
    return math.cos(theta / 2.0), cmath.exp(1j * phi) * math.sin(theta / 2.0)


@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    """The random-state model: n qubits, component probabilities, and the
    per-qubit kets u_iq|0> of each component as an (alpha, n, 2) array.

    Probabilities are validated (sum within PROB_SUM_TOL of 1) and then
    renormalized exactly once here; downstream code assumes exact
    normalization.  The kets must be finite unit vectors (KET_NORM_TOL),
    with 1 <= n <= MAX_QUBITS; over MAX_COMPONENTS components raise
    ResourceLimitError.  Both arrays are stored as read-only copies.
    """

    n: int
    probs: np.ndarray = field(repr=False)
    kets: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size < 1:
            raise ValueError("probs must be a non-empty 1-D array")
        check_component_count(probs.size)
        # Written so that NaN fails too: every comparison with NaN is false.
        if not np.all((probs > 0.0) & (probs <= 1.0)):
            raise ValueError("component probabilities must lie in (0, 1]")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(
                f"component probabilities sum to {total!r}, "
                f"off by more than {PROB_SUM_TOL}"
            )
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}] (MAX_QUBITS), got {self.n}")
        kets = np.array(self.kets, dtype=np.complex128)
        if kets.shape != (probs.size, self.n, 2):
            raise ValueError(f"kets must have shape (alpha, n, 2) = "
                             f"{(probs.size, self.n, 2)}, got {kets.shape}")
        # Written so that a NaN or infinite entry fails too.  Squared parts,
        # not np.abs: its complex loop adds 0.1 MiB to a CLI run's peak RSS.
        if not np.all(np.abs((kets.real**2 + kets.imag**2).sum(axis=-1) - 1.0) <= KET_NORM_TOL):
            raise ValueError(f"kets must be finite unit vectors, norm within {KET_NORM_TOL} of 1")
        probs = probs / total
        for a in (probs, kets):
            a.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "kets", kets)

    @property
    def alpha(self) -> int:
        """Number of ensemble components."""
        return len(self.probs)

    @property
    def dim(self) -> int:
        return 1 << self.n

    @cached_property
    def state_matrix(self) -> np.ndarray:
        """The component states |psi_i> = U_i|0...0> stacked as rows, shape
        (alpha, 2**n); read-only.

        Row i is the kron of the per-qubit kets u_iq|0>, qubit 0 most
        significant.  A dense cross-check for tests; no estimator reads it.
        """
        m = np.ones((self.alpha, 1), dtype=np.complex128)
        for q in range(self.n):
            m = (m[:, :, None] * self.kets[:, q, None, :]).reshape(self.alpha, -1)
        m.setflags(write=False)
        return m

    @cached_property
    def states(self) -> tuple[np.ndarray, ...]:
        """The rows of ``state_matrix``, one read-only 2**n vector each."""
        return tuple(self.state_matrix)

    @cached_property
    def gram(self) -> np.ndarray:
        """The alpha x alpha Gram K_ij = <psi_i|psi_j>; read-only.

        Built from the per-qubit kets as K_ij = prod_q <0|u_iq^dagger u_jq|0>,
        O(n alpha^2), _GRAM_BLOCK_ROWS rows at a time; no 2**n vector is
        formed.
        """
        k = np.empty((self.alpha, self.alpha), dtype=np.complex128)
        for lo in range(0, self.alpha, _GRAM_BLOCK_ROWS):
            block = self.kets[lo:lo + _GRAM_BLOCK_ROWS]
            k[lo:lo + len(block)] = np.prod(
                np.einsum("iqa,jqa->ijq", block.conj(), self.kets), axis=-1
            )
        k.setflags(write=False)
        return k

    @cached_property
    def span_states(self) -> np.ndarray:
        """Component states embedded in D <= alpha + 1 dimensions, shape
        (alpha, D); read-only.

        Row v_i stands for psi_i: V.conj() @ V.T reproduces ``gram``, so
        every inner product among component states, and every reflection
        about them, is the same on the rows as on the 2**n kets.  The rows
        come from the top min(alpha, 2**n) eigenpairs (w, U) of the Gram as
        conj(U sqrt(w)).  Eigenvalues at rounding level are set to 0, so a
        duplicated component embeds as the same row and a null direction
        as an exactly zero column.  If alpha < 2**n one zero column is
        appended: an exact direction outside the span, orthogonal to every
        psi_i and fixed by every reflection about them.  With
        alpha >= 2**n, D = 2**n and the rows span the whole space.
        """
        r = min(self.alpha, self.dim)
        w, u = np.linalg.eigh(self.gram)
        w, u = w[-r:], u[:, -r:]
        w = np.where(w > _NULL_EIGENVALUE_RTOL * self.alpha * w[-1], w, 0.0)
        v = (u * np.sqrt(w)).conj()
        if self.alpha < self.dim:
            v = np.hstack([v, np.zeros((self.alpha, 1))])
        v.setflags(write=False)
        return v

    @cached_property
    def span_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of sqrt(P) K sqrt(P), ascending, tiny negatives clipped
        to 0; read-only.

        These are the nonzero eigenvalues of rho (plus alpha - rank zeros);
        the remaining 2**n - alpha eigenvalues of rho are exactly 0.
        """
        root = np.sqrt(self.probs)
        lam = np.linalg.eigvalsh(root[:, None] * self.gram * root[None, :])
        lam = np.clip(lam, 0.0, None)
        lam.setflags(write=False)
        return lam

    @cached_property
    def cumulative_probs(self) -> np.ndarray:
        """Cumulative probabilities for inverse-CDF component sampling."""
        c = np.cumsum(self.probs)
        c.setflags(write=False)
        return c

    def component_indices(self, uniforms: np.ndarray) -> np.ndarray:
        """Map uniform [0,1) draws to component indices by inverse CDF.

        The index is min(searchsorted(cumulative_probs, u, side="right"),
        alpha - 1).  Up to _COUNTED_DRAW_MAX_ALPHA components it is counted
        directly as the number of cumulative_probs[:-1] at or below u, which
        is the same integer because the cumulative sum is non-decreasing.
        """
        if self.alpha > _COUNTED_DRAW_MAX_ALPHA:
            idx = np.searchsorted(self.cumulative_probs, uniforms, side="right")
            return np.minimum(idx, self.alpha - 1)
        u = np.asarray(uniforms)
        count = np.zeros(u.shape, dtype=np.uint8)
        for c in self.cumulative_probs[:-1]:
            count += u >= c
        return count.astype(np.intp)


def exact_power_trace(e: EnsembleSpec, m: int) -> float:
    """Tr{rho^m} = sum_j lambda_j^m over the span eigenvalues; lies in (0, 1]."""
    if m < 1:
        raise ValueError(f"power must be >= 1, got {m} (m=0 is Tr I = 2**n)")
    return float(np.sum(e.span_eigenvalues**m))


def exact_g_power_trace(e: EnsembleSpec, k: int) -> float:
    """Tr{G^k} for G = I - 2*rho, via the span eigenvalues of rho.

    Equal to sum_j (1 - 2*lambda_j)^k + (2**n - alpha): each of the
    2**n - alpha directions outside the span contributes 1.  k = 0 gives
    Tr I = 2**n.
    """
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    return float(np.sum((1.0 - 2.0 * e.span_eigenvalues) ** k) + (e.dim - e.alpha))


def exact_rho_g_power_trace(e: EnsembleSpec, j: int) -> float:
    """Tr{rho G^j} = sum_i lambda_i (1 - 2*lambda_i)^j over the span
    eigenvalues; the directions outside the span carry no weight in rho.
    j = 0 gives Tr rho = 1.
    """
    if j < 0:
        raise ValueError(f"power must be >= 0, got {j}")
    lam = e.span_eigenvalues
    return float(np.sum(lam * (1.0 - 2.0 * lam) ** j))


def exact_combination_trace(e: EnsembleSpec, indices: Sequence[int]) -> complex:
    """Tr{G_{q_1} G_{q_2} ... G_{q_k}} by dense products, for the word of
    component indices q.

    The empty word returns Tr I = 2**n.  The matrix product is taken in word
    order (rightmost factor acts first on a ket), matching how the
    estimators apply the word to states.
    """
    if e.n > DENSE_MAX_QUBITS:
        raise ValueError(f"dense word traces are limited to n <= {DENSE_MAX_QUBITS}, got n={e.n}")
    dim = e.dim
    if any(i < 0 or i >= e.alpha for i in indices):
        raise ValueError(f"combination indices {tuple(indices)} out of range")
    if len(indices) == 0:
        return complex(dim)
    acc = np.eye(dim, dtype=np.complex128)
    for i in indices:
        psi = e.state_matrix[i]
        g_i = np.eye(dim, dtype=np.complex128) - 2.0 * np.outer(psi, psi.conj())
        acc = acc @ g_i
    return complex(np.trace(acc))


def exact_entropy_trace(e: EnsembleSpec) -> float:
    """Tr{rho ln rho} = sum_j lambda_j ln lambda_j (natural log), <= 0.

    Eigenvalues below ENTROPY_EIGENVALUE_CUTOFF contribute nothing.
    """
    lam = e.span_eigenvalues
    lam = lam[lam > ENTROPY_EIGENVALUE_CUTOFF]
    return float(np.sum(lam * np.log(lam)))

