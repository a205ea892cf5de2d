import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtrace import EnsembleSpec, qcore
from qtrace.qcore import ProductGate, RotationParams, make_single_qubit_gate, reflect_amplitudes

from .conftest import random_ensemble, random_product_gate

#: Equality / norm-preservation tolerance for states.
EQ_TOL = 1e-10
#: Tolerance for unitarity and dense-vs-rank-1 agreement checks.
UNITARY_TOL = 1e-12

angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


def basis_state(n: int, index: int) -> np.ndarray:
    amps = np.zeros(1 << n, dtype=complex)
    amps[index] = 1.0
    return amps


def spec_of(*gates: ProductGate) -> EnsembleSpec:
    """An equal-weight ensemble of the given gates."""
    return EnsembleSpec(gates[0].n, np.full(len(gates), 1.0 / len(gates)), gates)


def prepared(gate: ProductGate) -> np.ndarray:
    """gate|0...0>, as the ensemble's state_matrix row."""
    return spec_of(gate).state_matrix[0]


def dense_gate_matrix(g: ProductGate) -> np.ndarray:
    m = np.ones((1, 1), dtype=complex)
    for p in g.factors:
        m = np.kron(m, make_single_qubit_gate(p))
    return m


def dense_reflection_matrix(axis: np.ndarray, phase: float) -> np.ndarray:
    """I - (1 - e^{i*phase}) |axis><axis|."""
    return np.eye(axis.size, dtype=complex) - (1.0 - cmath.exp(1j * phase)) * np.outer(
        axis, axis.conj()
    )


class TestSingleQubitGate:
    def test_identity_params(self):
        assert np.allclose(make_single_qubit_gate(RotationParams(0, 0, 0)), np.eye(2))

    def test_pauli_x_layout(self):
        # (pi, 0, pi): off-diagonals (0, -e^{i*pi}) = (0, 1) and e^{i*0} = 1.
        u = make_single_qubit_gate(RotationParams(math.pi, 0.0, math.pi))
        assert np.allclose(u, np.array([[0, 1], [1, 0]]), atol=1e-15)

    def test_reference_gate_magnitude(self):
        u = make_single_qubit_gate(
            RotationParams(0.29 * math.pi, 0.07 * math.pi, 0.11 * math.pi)
        )
        assert abs(u[0, 0]) == pytest.approx(math.cos(0.145 * math.pi), abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            RotationParams(math.nan, 0.0, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(angles, angles, angles)
    def test_unitarity(self, theta, phi, lam):
        u = make_single_qubit_gate(RotationParams(theta, phi, lam))
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < UNITARY_TOL


class TestPrepareState:
    """``EnsembleSpec.state_matrix`` rows are the prepared states U_i|0...0>."""

    def test_identity_gate(self):
        s = prepared(ProductGate.uniform(2, RotationParams(0, 0, 0)))
        assert np.allclose(s, [1, 0, 0, 0])

    def test_single_qubit_rotation(self):
        s = prepared(ProductGate.uniform(1, RotationParams(math.pi / 2, 0, 0)))
        assert np.allclose(s, [math.cos(math.pi / 4), math.sin(math.pi / 4)])

    def test_reference_row_on_three_qubits(self):
        p = RotationParams(0.29 * math.pi, 0.07 * math.pi, 0.11 * math.pi)
        s = prepared(ProductGate.uniform(3, p))
        assert s[0] == pytest.approx(math.cos(0.145 * math.pi) ** 3, abs=1e-12)

    def test_matches_dense_gate_column(self):
        e = random_ensemble(np.random.default_rng(11), 3, 5)
        for g, row in zip(e.gates, e.state_matrix):
            assert np.allclose(row, dense_gate_matrix(g)[:, 0], atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(angles, angles, angles)
    def test_norm_one(self, theta, phi, lam):
        s = prepared(ProductGate.uniform(3, RotationParams(theta, phi, lam)))
        assert abs(np.linalg.norm(s) - 1.0) < EQ_TOL


class TestReflection:
    """``reflect_amplitudes`` on plain amplitude arrays."""

    def test_orthogonal_state_unchanged(self):
        s = basis_state(2, 3)
        assert np.allclose(reflect_amplitudes(basis_state(2, 0), math.pi, s), s)

    def test_axis_negated(self):
        axis = prepared(ProductGate.uniform(2, RotationParams(1.0, 0.4, 2.2)))
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
            axis = prepared(random_product_gate(rng, n))
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
        e = spec_of(ProductGate.uniform(2, RotationParams(0.7, 1.1, 0.2)))
        assert e.gram[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis_states(self):
        e = spec_of(
            ProductGate.uniform(1, RotationParams(0, 0, 0)),
            ProductGate.uniform(1, RotationParams(math.pi, 0, math.pi)),
        )
        assert e.gram[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_rotated_against_zero(self):
        e = spec_of(
            ProductGate.uniform(1, RotationParams(0, 0, 0)),
            ProductGate.uniform(1, RotationParams(math.pi / 2, 0, 0)),
        )
        assert e.gram[0, 1] == pytest.approx(math.cos(math.pi / 4), abs=1e-12)

    def test_conjugate_symmetry(self):
        k = random_ensemble(np.random.default_rng(5), 3, 4).gram
        assert np.max(np.abs(k - k.conj().T)) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            spec_of(
                ProductGate.uniform(1, RotationParams(0, 0, 0)),
                ProductGate.uniform(2, RotationParams(0, 0, 0)),
            )


class TestValueSemantics:
    def test_amplitudes_read_only(self):
        s = prepared(ProductGate.uniform(2, RotationParams(0, 0, 0)))
        with pytest.raises(ValueError):
            s[0] = 0.0

    def test_qubit_cap(self):
        with pytest.raises(ValueError, match="MAX_QUBITS"):
            ProductGate.uniform(qcore.MAX_QUBITS + 1, RotationParams(0, 0, 0))

    def test_factor_count_must_match(self):
        with pytest.raises(ValueError, match="factors"):
            ProductGate(2, (RotationParams(0, 0, 0),))
