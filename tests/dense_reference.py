"""Dense 2**n x 2**n reference for the span-space oracle.

The package computes every trace from the alpha x alpha Gram of the
component states; these helpers build rho itself from
``EnsembleSpec.state_matrix`` so tests can compare the two independently.
``rotation_unitary`` is the full 2x2 gate of an angle triple, for dense
cross-checks of the per-qubit kets.
``per_word_enumerate_block`` keeps the per-word HT enumeration kernel that
the prefix-sharing one in ``ht`` must match bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from qtrace.ensemble import DENSE_MAX_QUBITS, EnsembleSpec, exact_g_power_trace, exact_power_trace


def rotation_unitary(theta: float, phi: float, lam: float) -> np.ndarray:
    """The 2x2 unitary of rotation angles (theta, phi, lam):

        [[ cos(t/2),            -e^{i*lam}  sin(t/2)        ],
         [ e^{i*phi} sin(t/2),   e^{i*(lam+phi)} cos(t/2)   ]]
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [[c, -cmath.exp(1j * lam) * s], [cmath.exp(1j * phi) * s, cmath.exp(1j * (lam + phi)) * c]],
        dtype=np.complex128,
    )


def gate_column(theta: float, phi: float, lam: float) -> np.ndarray:
    """u|0>, read off the full unitary: the route the ket array replaced."""
    return rotation_unitary(theta, phi, lam)[:, 0]


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


def build_density_matrix(e: EnsembleSpec) -> DensityMatrix:
    """rho = sum_i p_i |psi_i><psi_i| as a dense matrix."""
    if e.n > DENSE_MAX_QUBITS:
        raise ValueError(f"dense reference is limited to n <= {DENSE_MAX_QUBITS}, got n={e.n}")
    rho = np.zeros((e.dim, e.dim), dtype=np.complex128)
    for p, psi in zip(e.probs, e.state_matrix):
        rho += p * np.outer(psi, psi.conj())
    return DensityMatrix(e.n, rho)


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


def per_word_enumerate_block(e: EnsembleSpec, k: int, lo: int, hi: int) -> float:
    """``ht._enumerate_block`` with all k reflections applied to every word of
    rank [lo, hi) in itertools.product order, no prefix shared."""
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
    weights = np.prod(e.probs[words], axis=1)
    return float(weights @ (re @ e.probs))
