"""Single-qubit gates, tensor-product gates, and the rank-1 reflection kernel.

The only multi-qubit operation the estimators apply is a reflection about a
pure state,

    R = I - (1 - e^{i*theta}) |a><a|,

a rank-1 update costing O(dim) per state, so no dim x dim matrix is ever
materialized.  Qubit 0 is the most significant bit of an amplitude index
(first factor of the tensor product).

No estimator works on 2**n-amplitude vectors.  The oracle and the
Hadamard-test paths work on the alpha x alpha Gram of the component states
(``EnsembleSpec.gram``), and subspace gate-set tomography applies
``reflect_amplitudes`` to the D <= alpha + 1 coordinates of
``EnsembleSpec.span_states``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

#: The config schema's qubit cap.  No estimator cost depends on n; the cap
#: stays until a measured bound replaces it.  Module-level so a caller who
#: really wants more can raise it once.
MAX_QUBITS = 20


def _check_finite(label: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{label} must be finite, got {v!r}")


def _check_qubit_count(n: int) -> None:
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    if n > MAX_QUBITS:
        raise ValueError(
            f"qubit count {n} exceeds MAX_QUBITS={MAX_QUBITS}; "
            "raise qtrace.qcore.MAX_QUBITS explicitly if you mean it"
        )


@dataclass(frozen=True)
class RotationParams:
    """Angles (theta, phi, lam) of a general single-qubit rotation gate.

    Stored unreduced: no mod-2*pi normalization is applied, so the exact
    parameter values round-trip through configs.
    """

    theta: float
    phi: float
    lam: float

    def __post_init__(self) -> None:
        _check_finite("rotation angle", self.theta, self.phi, self.lam)


def make_single_qubit_gate(p: RotationParams) -> np.ndarray:
    """Return the 2x2 unitary for rotation parameters (theta, phi, lam).

        [[ cos(t/2),            -e^{i*lam}  sin(t/2)        ],
         [ e^{i*phi} sin(t/2),   e^{i*(lam+phi)} cos(t/2)   ]]
    """
    c = math.cos(p.theta / 2.0)
    s = math.sin(p.theta / 2.0)
    return np.array(
        [
            [c, -cmath.exp(1j * p.lam) * s],
            [cmath.exp(1j * p.phi) * s, cmath.exp(1j * (p.lam + p.phi)) * c],
        ],
        dtype=np.complex128,
    )


@dataclass(frozen=True)
class ProductGate:
    """An n-qubit tensor product u_1 (x) ... (x) u_n of single-qubit gates.

    Factors may differ per qubit; the identical-factor U^{(x)n} case is just
    the degenerate configuration where all entries are equal.
    """

    n: int
    factors: tuple[RotationParams, ...]

    def __post_init__(self) -> None:
        _check_qubit_count(self.n)
        if len(self.factors) != self.n:
            raise ValueError(
                f"need {self.n} per-qubit factors, got {len(self.factors)}"
            )

    @classmethod
    def uniform(cls, n: int, p: RotationParams) -> "ProductGate":
        """Same single-qubit gate on every qubit."""
        return cls(n, (p,) * n)


def reflect_amplitudes(
    axis: np.ndarray, phase: float, block: np.ndarray
) -> np.ndarray:
    """Apply R = I - (1 - e^{i*phase}) |axis><axis| to every state in ``block``.

    ``block`` has shape (..., dim) with states along the last axis; the same
    axis is applied to all of them.  R is unitary for every phase and an
    involution exactly when phase = pi.  Returns a new array.
    """
    coeff = 1.0 - cmath.exp(1j * phase)
    inner = block @ axis.conj()
    return block - coeff * inner[..., None] * axis
