"""The random-state model {p_i, U_i} and its exact oracle.

An ensemble prepares the mixed state

    rho = sum_i p_i U_i |0><0|^n U_i^dagger = sum_i p_i |psi_i><psi_i|

from known product gates U_i drawn with known probabilities p_i.  Everything
in this module is ground truth for the estimators: traces of powers of rho,
traces of powers of the encoding channel G = I - 2*rho, traces of reflection
words, and the entropy-like quantity Tr{rho ln rho}.

Every psi_i lies in an alpha-dimensional span, so the oracle never needs a
2**n vector.  The alpha x alpha Gram K_ij = <psi_i|psi_j> is a product of
per-qubit overlaps, O(n alpha^2), and the nonzero spectrum of rho is the
spectrum of sqrt(P) K sqrt(P), O(alpha^3).  Tr{rho^m}, Tr{G^k} and
Tr{rho ln rho} follow from those alpha eigenvalues.  The oracle stays capped
at ORACLE_MAX_QUBITS for now.  ``span_states`` factors the Gram into alpha
rows of D <= alpha + 1 coordinates (plus one zero coordinate outside the
span) on which subspace GST runs, again with no 2**n vector.

``build_density_matrix``, ``DensityMatrix`` and ``exact_combination_trace``
are dense 2**n x 2**n constructions, kept as an independent cross-check for
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .qcore import ProductGate, StateVector, make_single_qubit_gate, prepare_state

#: Oracle qubit cap.  The dense cross-check needs it (2**12 x 2**12 complex
#: is 256 MiB); the span-space oracle is held to it until the cap is lifted.
ORACLE_MAX_QUBITS = 12

#: Gram eigenvalues below this times alpha * lambda_max are eigh rounding
#: noise (measured: at most 0.74 of alpha * eps * lambda_max for exactly
#: duplicated components) and embed as exact zeros in ``span_states``.
_NULL_EIGENVALUE_RTOL = 16 * np.finfo(np.float64).eps

#: Probability sums are validated against this before the single renormalization.
PROB_SUM_TOL = 1e-9

#: Eigenvalues below this are treated as exact zeros in the entropy sum
#: (lambda * ln lambda -> 0), which handles rank-deficient rho.
ENTROPY_EIGENVALUE_CUTOFF = 1e-12


@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    """The random-state model: n qubits, component probabilities and gates.

    Probabilities are validated (sum within PROB_SUM_TOL of 1) and then
    renormalized exactly once here; downstream code assumes exact
    normalization.
    """

    n: int
    probs: np.ndarray = field(repr=False)
    gates: tuple[ProductGate, ...]

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size < 1:
            raise ValueError("probs must be a non-empty 1-D array")
        if len(self.gates) != probs.size:
            raise ValueError(
                f"{probs.size} probabilities but {len(self.gates)} gates"
            )
        if np.any(probs <= 0.0) or np.any(probs > 1.0):
            raise ValueError("component probabilities must lie in (0, 1]")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(
                f"component probabilities sum to {total!r}, "
                f"off by more than {PROB_SUM_TOL}"
            )
        for g in self.gates:
            if g.n != self.n:
                raise ValueError(
                    f"gate qubit count {g.n} does not match ensemble n={self.n}"
                )
        probs = probs / total
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def alpha(self) -> int:
        """Number of ensemble components."""
        return len(self.gates)

    @property
    def dim(self) -> int:
        return 1 << self.n

    @cached_property
    def states(self) -> tuple[StateVector, ...]:
        """The pure component states |psi_i> = U_i|0...0>."""
        return tuple(prepare_state(g) for g in self.gates)

    @cached_property
    def state_matrix(self) -> np.ndarray:
        """Component states stacked as rows, shape (alpha, 2**n); read-only."""
        m = np.array([s.amplitudes for s in self.states])
        m.setflags(write=False)
        return m

    @cached_property
    def gram(self) -> np.ndarray:
        """The alpha x alpha Gram K_ij = <psi_i|psi_j>; read-only.

        Built from each gate's per-qubit first columns u_iq|0> as
        K_ij = prod_q <0|u_iq^dagger u_jq|0>, O(n alpha^2); no 2**n vector
        is formed.
        """
        cols = np.array(
            [[make_single_qubit_gate(p)[:, 0] for p in g.factors] for g in self.gates]
        )
        k = np.prod(np.einsum("iqa,jqa->ijq", cols.conj(), cols), axis=-1)
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
        """Map uniform [0,1) draws to component indices by inverse CDF."""
        idx = np.searchsorted(self.cumulative_probs, uniforms, side="right")
        return np.minimum(idx, self.alpha - 1)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Dense rho with its defining invariants checked at construction."""

    n: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        m = np.ascontiguousarray(self.entries, dtype=np.complex128)
        dim = 1 << self.n
        if m.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} entries, got {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"density matrix trace {tr!r} is not 1 within 1e-9")
        if float(np.linalg.eigvalsh(m).min()) < -1e-9:
            raise ValueError("density matrix has an eigenvalue below -1e-9")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues, ascending; tiny negatives clipped to 0."""
        ev = np.clip(np.linalg.eigvalsh(self.entries), 0.0, None)
        ev.setflags(write=False)
        return ev


def _check_oracle_scale(e: EnsembleSpec) -> None:
    if e.n > ORACLE_MAX_QUBITS:
        raise ValueError(
            f"oracle is limited to n <= {ORACLE_MAX_QUBITS}, got n={e.n}"
        )


def build_density_matrix(e: EnsembleSpec) -> DensityMatrix:
    """rho = sum_i p_i |psi_i><psi_i| as a dense matrix."""
    _check_oracle_scale(e)
    rho = np.zeros((e.dim, e.dim), dtype=np.complex128)
    for p, s in zip(e.probs, e.states):
        rho += p * np.outer(s.amplitudes, s.amplitudes.conj())
    return DensityMatrix(e.n, rho)


def exact_power_trace(e: EnsembleSpec, m: int) -> float:
    """Tr{rho^m} = sum_j lambda_j^m over the span eigenvalues; lies in (0, 1]."""
    if m < 1:
        raise ValueError(f"power must be >= 1, got {m} (m=0 is Tr I = 2**n)")
    _check_oracle_scale(e)
    return float(np.sum(e.span_eigenvalues**m))


def exact_g_power_trace(e: EnsembleSpec, k: int) -> float:
    """Tr{G^k} for G = I - 2*rho, via the span eigenvalues of rho.

    Equal to sum_j (1 - 2*lambda_j)^k + (2**n - alpha): each of the
    2**n - alpha directions outside the span contributes 1.  k = 0 gives
    Tr I = 2**n.
    """
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    _check_oracle_scale(e)
    return float(np.sum((1.0 - 2.0 * e.span_eigenvalues) ** k) + (e.dim - e.alpha))


def exact_combination_trace(e: EnsembleSpec, q) -> complex:
    """Tr{G_{q_1} G_{q_2} ... G_{q_k}} by dense products.

    ``q`` is a gst.Combination or any sequence of component indices.  The
    empty word returns Tr I = 2**n.  The matrix product is taken in word
    order (rightmost factor acts first on a ket), matching how the
    estimators apply the word to states.
    """
    indices: Sequence[int] = getattr(q, "indices", q)
    _check_oracle_scale(e)
    dim = e.dim
    if any(i < 0 or i >= e.alpha for i in indices):
        raise ValueError(f"combination indices {tuple(indices)} out of range")
    if len(indices) == 0:
        return complex(dim)
    acc = np.eye(dim, dtype=np.complex128)
    for i in indices:
        psi = e.states[i].amplitudes
        g_i = np.eye(dim, dtype=np.complex128) - 2.0 * np.outer(psi, psi.conj())
        acc = acc @ g_i
    return complex(np.trace(acc))


def exact_entropy_trace(e: EnsembleSpec) -> float:
    """Tr{rho ln rho} = sum_j lambda_j ln lambda_j (natural log), <= 0.

    Eigenvalues below ENTROPY_EIGENVALUE_CUTOFF contribute nothing.
    """
    _check_oracle_scale(e)
    lam = e.span_eigenvalues
    lam = lam[lam > ENTROPY_EIGENVALUE_CUTOFF]
    return float(np.sum(lam * np.log(lam)))


def sample_component(e: EnsembleSpec, rng: np.random.Generator) -> int:
    """Draw a component index i with probability p_i."""
    return int(e.component_indices(rng.random()))


def binomial_power_identity_residual(e: EnsembleSpec, m: int) -> float:
    """|(1/2^m) sum_k C(m,k) (-1)^k Tr{G^k} - Tr{rho^m}|, a self-check.

    The binomial expansion of rho = (I - G)/2 makes this identically zero;
    the residual is exposed so tests can pin the numerical error.
    """
    total = sum(
        math.comb(m, k) * (-1.0) ** k * exact_g_power_trace(e, k) / 2.0**m
        for k in range(m + 1)
    )
    return abs(total - exact_power_trace(e, m))
