"""Dense statevector kernels: parameterized single-qubit gates, tensor-product
gates, and rank-1 reflection operators.

States are dense vectors of 2**n complex amplitudes.  The only multi-qubit
operation ever applied is a reflection about a pure state,

    R = I - (1 - e^{i*theta}) |a><a|,

a rank-1 update costing O(2**n), so a k-layer circuit costs O(k * 2**n) and no
2**n x 2**n matrix is ever materialized.  Qubit 0 is the most significant bit
of the amplitude index (first factor of the tensor product).

No estimator path runs on 2**n-amplitude vectors any more; only the scalar
``ht.exact_p0`` still does.  The oracle and the Hadamard-test paths work on
the alpha x alpha Gram of the component states (``EnsembleSpec.gram``), and
subspace gate-set tomography applies ``reflect_amplitudes`` to the
D <= alpha + 1 coordinates of ``EnsembleSpec.span_states``.  The tests use
the dense kernels here as their cross-check.

All types here are immutable values: amplitude arrays are marked read-only at
construction, so instances can be shared freely across worker processes or
threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

#: Equality / norm-preservation tolerance for states and probabilities.
EQ_TOL = 1e-10
#: Tolerance for unitarity and dense-vs-rank-1 agreement checks.
UNITARY_TOL = 1e-12
#: Dense vectors of 2**n amplitudes get large quickly; refuse past this point.
#: Module-level so a caller who really wants more can raise it once.
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


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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


#: Identity rotation, handy for tests and defaults.
IDENTITY_PARAMS = RotationParams(0.0, 0.0, 0.0)


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


@dataclass(frozen=True, eq=False)
class StateVector:
    """A pure n-qubit state: 2**n complex amplitudes."""

    n: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        _check_qubit_count(self.n)
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise ValueError(
                f"expected {1 << self.n} amplitudes for n={self.n}, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @property
    def dim(self) -> int:
        return 1 << self.n

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


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


def prepare_state(g: ProductGate) -> StateVector:
    """Apply the product gate to |0...0> and return the resulting state.

    Only the first column of each factor matters, so this is a kron of n
    2-vectors rather than a 2**n x 2**n matrix application.
    """
    amps = np.ones(1, dtype=np.complex128)
    for p in g.factors:
        amps = np.kron(amps, make_single_qubit_gate(p)[:, 0])
    nrm = np.linalg.norm(amps)
    if abs(nrm - 1.0) > EQ_TOL:
        raise ArithmeticError(f"prepared state norm drifted to {nrm!r}")
    return StateVector(g.n, amps)


def product_gate_matrix(g: ProductGate) -> np.ndarray:
    """Dense 2**n x 2**n matrix of a product gate (oracle/test use only)."""
    m = np.ones((1, 1), dtype=np.complex128)
    for p in g.factors:
        m = np.kron(m, make_single_qubit_gate(p))
    return m


@dataclass(frozen=True, eq=False)
class Reflection:
    """Rank-1 phase reflection R = I - (1 - e^{i*phase}) |axis><axis|.

    Unitary for every phase; an involution (R @ R = I) exactly when
    phase = pi, where R = I - 2|axis><axis|.
    """

    axis: StateVector
    phase: float = math.pi

    def __post_init__(self) -> None:
        _check_finite("reflection phase", self.phase)

    @property
    def coefficient(self) -> complex:
        """The scalar (1 - e^{i*phase}) multiplying |axis><axis|."""
        return 1.0 - cmath.exp(1j * self.phase)


def reflect_amplitudes(
    axis: np.ndarray, phase: float, block: np.ndarray
) -> np.ndarray:
    """Apply a reflection about ``axis`` to every state in ``block``.

    ``block`` has shape (..., dim) with states along the last axis; the same
    axis is applied to all of them.  Returns a new array.
    """
    coeff = 1.0 - cmath.exp(1j * phase)
    inner = block @ axis.conj()
    return block - coeff * inner[..., None] * axis


def apply_reflection(r: Reflection, s: StateVector) -> StateVector:
    """Return R|s> = |s> - (1 - e^{i*phase}) <axis|s> |axis>."""
    if r.axis.n != s.n:
        raise ValueError(
            f"reflection axis has n={r.axis.n} but state has n={s.n}"
        )
    out = reflect_amplitudes(r.axis.amplitudes, r.phase, s.amplitudes)
    return StateVector(s.n, out)


def dense_reflection_matrix(r: Reflection) -> np.ndarray:
    """Dense matrix I - (1 - e^{i*phase}) |axis><axis| (oracle/test use)."""
    a = r.axis.amplitudes
    return np.eye(a.size, dtype=np.complex128) - r.coefficient * np.outer(
        a, a.conj()
    )


def overlap(a: StateVector, b: StateVector) -> complex:
    """Inner product <a|b>."""
    if a.n != b.n:
        raise ValueError(f"overlap of mismatched states: n={a.n} vs n={b.n}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))
