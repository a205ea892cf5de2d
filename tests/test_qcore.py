import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtrace import EnsembleSpec, rotation_ket
from qtrace.qcore import reflect_amplitudes

from .conftest import angle_spec, random_ensemble
from .dense_reference import gate_column, rotation_unitary

#: Equality / norm-preservation tolerance for states.
EQ_TOL = 1e-10
#: Tolerance for unitarity and dense-vs-rank-1 agreement checks.
UNITARY_TOL = 1e-12

angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


def basis_state(n: int, index: int) -> np.ndarray:
    amps = np.zeros(1 << n, dtype=complex)
    amps[index] = 1.0
    return amps


def prepared(n: int, triple) -> np.ndarray:
    """u^{(x)n}|0...0> for the rotation angles ``triple``, as the ensemble's
    state_matrix row."""
    return angle_spec(n, [1.0], triple).state_matrix[0]


def dense_reflection_matrix(axis: np.ndarray, phase: float) -> np.ndarray:
    """I - (1 - e^{i*phase}) |axis><axis|."""
    return np.eye(axis.size, dtype=complex) - (1.0 - cmath.exp(1j * phase)) * np.outer(
        axis, axis.conj()
    )


class TestSingleQubitGate:
    """``rotation_ket``: the first column u|0> of the single-qubit rotation."""

    def test_identity_params(self):
        assert rotation_ket(0, 0) == (1, 0)

    def test_pauli_x_layout(self):
        assert np.allclose(rotation_ket(math.pi, 0.0), [0, 1], atol=1e-15)

    def test_reference_gate_magnitude(self):
        k = rotation_ket(0.29 * math.pi, 0.07 * math.pi)
        assert abs(k[0]) == pytest.approx(math.cos(0.145 * math.pi), abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            angle_spec(1, [1.0], (math.nan, 0.0, 0.0))

    @settings(max_examples=200, deadline=None)
    @given(angles, angles, angles)
    def test_unitarity(self, theta, phi, lam):
        # The ket is the unitary's first column to the byte.
        ket = np.array(rotation_ket(theta, phi), dtype=np.complex128)
        assert ket.tobytes() == gate_column(theta, phi, lam).tobytes()
        u = rotation_unitary(theta, phi, lam)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < UNITARY_TOL


class TestPrepareState:
    """``EnsembleSpec.state_matrix`` rows are the prepared states U_i|0...0>."""

    def test_identity_gate(self):
        assert np.allclose(prepared(2, (0, 0, 0)), [1, 0, 0, 0])

    def test_single_qubit_rotation(self):
        s = prepared(1, (math.pi / 2, 0, 0))
        assert np.allclose(s, [math.cos(math.pi / 4), math.sin(math.pi / 4)])

    def test_reference_row_on_three_qubits(self):
        s = prepared(3, (0.29 * math.pi, 0.07 * math.pi, 0.11 * math.pi))
        assert s[0] == pytest.approx(math.cos(0.145 * math.pi) ** 3, abs=1e-12)

    def test_matches_dense_gate_column(self):
        # The dense side is the kron of full 2x2 unitaries, not the ket array.
        rng = np.random.default_rng(11)
        components = rng.uniform(-2 * math.pi, 2 * math.pi, size=(5, 3, 3))
        e = angle_spec(3, np.full(5, 0.2), *components)
        for comp, row in zip(components, e.state_matrix):
            dense = np.ones((1, 1), dtype=complex)
            for triple in comp:
                dense = np.kron(dense, rotation_unitary(*triple))
            assert np.allclose(row, dense[:, 0], atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(angles, angles, angles)
    def test_norm_one(self, theta, phi, lam):
        s = prepared(3, (theta, phi, lam))
        assert abs(np.linalg.norm(s) - 1.0) < EQ_TOL


class TestReflection:
    """``reflect_amplitudes`` on plain amplitude arrays."""

    def test_orthogonal_state_unchanged(self):
        s = basis_state(2, 3)
        assert np.allclose(reflect_amplitudes(basis_state(2, 0), math.pi, s), s)

    def test_axis_negated(self):
        axis = prepared(2, (1.0, 0.4, 2.2))
        out = reflect_amplitudes(axis, math.pi, axis)
        assert np.allclose(out, -axis, atol=1e-12)

    def test_involution(self):
        axis, s = random_ensemble(np.random.default_rng(7), 3, 2).state_matrix
        twice = reflect_amplitudes(axis, math.pi, reflect_amplitudes(axis, math.pi, s))
        assert np.max(np.abs(twice - s)) < UNITARY_TOL

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_matches_dense_matrix(self, n):
        # The whole state block is reflected at once, as the GST stages do.
        rng = np.random.default_rng(n)
        for _ in range(4):
            axis = random_ensemble(rng, n, 1).state_matrix[0]
            block = random_ensemble(rng, n, 3).state_matrix
            phase = rng.uniform(0.1, 2 * math.pi)
            fast = reflect_amplitudes(axis, phase, block)
            dense = block @ dense_reflection_matrix(axis, phase).T
            assert np.max(np.abs(fast - dense)) < UNITARY_TOL

    def test_norm_preserved_any_phase(self):
        axis, s = random_ensemble(np.random.default_rng(3), 3, 2).state_matrix
        for phase in (0.3, math.pi, 4.0):
            out = reflect_amplitudes(axis, phase, s)
            assert abs(np.linalg.norm(out) - 1.0) < EQ_TOL

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            reflect_amplitudes(basis_state(2, 0), math.pi, basis_state(3, 0))


class TestOverlap:
    """Overlaps <psi_i|psi_j> live in ``EnsembleSpec.gram``."""

    def test_self_overlap(self):
        e = angle_spec(2, [1.0], (0.7, 1.1, 0.2))
        assert e.gram[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis_states(self):
        e = angle_spec(1, [0.5, 0.5], (0, 0, 0), (math.pi, 0, math.pi))
        assert e.gram[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_rotated_against_zero(self):
        e = angle_spec(1, [0.5, 0.5], (0, 0, 0), (math.pi / 2, 0, 0))
        assert e.gram[0, 1] == pytest.approx(math.cos(math.pi / 4), abs=1e-12)

    def test_conjugate_symmetry(self):
        k = random_ensemble(np.random.default_rng(5), 3, 4).gram
        assert np.max(np.abs(k - k.conj().T)) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            EnsembleSpec(1, np.array([0.5, 0.5]), [[[1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]])


class TestValueSemantics:
    def test_amplitudes_read_only(self):
        s = prepared(2, (0, 0, 0))
        with pytest.raises(ValueError):
            s[0] = 0.0
