"""The rank-1 reflection kernel and the qubit cap.

The only multi-qubit operation the estimators apply is a reflection about a
pure state,

    R = I - (1 - e^{i*theta}) |a><a|,

a rank-1 update costing O(dim) per state, so no dim x dim matrix is ever
materialized.

No estimator works on 2**n-amplitude vectors.  The oracle and the
Hadamard-test paths work on the alpha x alpha Gram of the component states
(``EnsembleSpec.gram``), and subspace gate-set tomography applies
``reflect_amplitudes`` to the D <= alpha + 1 coordinates of
``EnsembleSpec.span_states``.

``MAX_QUBITS`` is a constant, not a setting: the config schema and
``EnsembleSpec`` check n against the same value.
"""

from __future__ import annotations

import cmath

import numpy as np

#: The qubit cap of the config schema and of ``EnsembleSpec``, a constant.
#: No estimator cost depends on n; the cap stays until a measured bound
#: replaces it.
MAX_QUBITS = 20


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
