import cmath
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings

from qtrace import (
    EnsembleSpec,
    ProductGate,
    RotationParams,
    exact_combination_trace,
    exact_entropy_trace,
    exact_g_power_trace,
    exact_power_trace,
    exact_rho_g_power_trace,
)
from qtrace.qcore import make_single_qubit_gate

from .conftest import random_ensemble, reference_spec, small_ensembles
from .dense_reference import DensityMatrix, binomial_power_identity_residual, build_density_matrix


def pure_spec(n=2, params=RotationParams(0.3, 0.1, 0.9)) -> EnsembleSpec:
    return EnsembleSpec(n, np.array([1.0]), (ProductGate.uniform(n, params),))


def two_state_mixture() -> EnsembleSpec:
    identity = ProductGate.uniform(1, RotationParams(0, 0, 0))
    x_like = ProductGate.uniform(1, RotationParams(math.pi, 0, math.pi))
    return EnsembleSpec(1, np.array([0.5, 0.5]), (identity, x_like))


class TestBuildDensityMatrix:
    def test_single_identity_component(self):
        rho = build_density_matrix(pure_spec(1, RotationParams(0, 0, 0)))
        assert np.allclose(rho.entries, np.diag([1.0, 0.0]))

    def test_even_mixture_is_maximally_mixed(self):
        rho = build_density_matrix(two_state_mixture())
        assert np.allclose(rho.entries, np.diag([0.5, 0.5]), atol=1e-12)

    def test_reference_purity(self, ref3):
        rho = build_density_matrix(ref3)
        purity = np.trace(rho.entries @ rho.entries).real
        assert round(purity, 3) == 0.650
        assert np.linalg.matrix_rank(rho.entries, tol=1e-10) <= 4

    def test_probability_sum_validation(self):
        gate = ProductGate.uniform(1, RotationParams(0, 0, 0))
        with pytest.raises(ValueError, match="sum"):
            EnsembleSpec(1, np.array([0.5, 0.4]), (gate, gate))

    def test_non_finite_probability_rejected(self):
        gate = ProductGate.uniform(1, RotationParams(0, 0, 0))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=r"\(0, 1\]"):
                EnsembleSpec(1, np.array([bad]), (gate,))
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            EnsembleSpec(1, np.array([0.5, np.nan]), (gate, gate))

    def test_probabilities_renormalized_once(self):
        gate = ProductGate.uniform(1, RotationParams(0, 0, 0))
        spec = EnsembleSpec(1, np.array([0.5, 0.5 + 5e-10]), (gate, gate))
        assert spec.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_density_matrix_invariants_enforced(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(1, np.array([[0.5, 1.0], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(1, np.diag([0.7, 0.7]))


class TestExactPowerTrace:
    def test_pure_state_all_powers(self):
        spec = pure_spec()
        for m in (1, 2, 5):
            assert exact_power_trace(spec, m) == pytest.approx(1.0, abs=1e-12)

    def test_reference_values(self, ref3):
        assert round(exact_power_trace(ref3, 2), 3) == 0.650
        assert round(exact_power_trace(ref3, 3), 3) == 0.486
        assert round(exact_power_trace(ref3, 4), 3) == 0.375

    def test_power_zero_rejected(self, ref3):
        with pytest.raises(ValueError, match=">= 1"):
            exact_power_trace(ref3, 0)


class TestExactGPowerTrace:
    def test_k0_is_dimension(self, ref3):
        assert exact_g_power_trace(ref3, 0) == 2**3

    def test_k1_is_dim_minus_two(self, ref3):
        assert exact_g_power_trace(ref3, 1) == pytest.approx(2**3 - 2, abs=1e-12)

    def test_reference_k2_via_purity_identity(self, ref3):
        # Tr{G^2} = 2^n - 4 + 4 Tr{rho^2}, binomial expansion of (I - 2 rho)^2.
        expected = 2**3 - 4 + 4 * exact_power_trace(ref3, 2)
        got = exact_g_power_trace(ref3, 2)
        assert got == pytest.approx(expected, abs=1e-9)
        assert round(got, 3) == 6.600

    def test_eigenvalue_route_matches_dense_product(self):
        rng = np.random.default_rng(21)
        spec = random_ensemble(rng, 3, 3)
        g = np.eye(8) - 2.0 * build_density_matrix(spec).entries
        for k in range(6):
            dense = np.trace(np.linalg.matrix_power(g, k)).real
            assert exact_g_power_trace(spec, k) == pytest.approx(dense, abs=1e-9)

    def test_binomial_identity(self):
        rng = np.random.default_rng(9)
        for n, alpha in ((2, 2), (3, 3), (4, 2)):
            spec = random_ensemble(rng, n, alpha)
            for m in range(1, 7):
                assert binomial_power_identity_residual(spec, m) < 1e-9


class TestExactRhoGPowerTrace:
    def test_j0_is_unit_trace(self, ref3):
        assert exact_rho_g_power_trace(ref3, 0) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_alternates(self):
        # rho = |psi><psi| is a -1 eigenvector of G.
        for j in range(6):
            assert exact_rho_g_power_trace(pure_spec(), j) == pytest.approx((-1.0) ** j, abs=1e-12)

    def test_negative_power_rejected(self, ref3):
        with pytest.raises(ValueError, match=">= 0"):
            exact_rho_g_power_trace(ref3, -1)

    @pytest.mark.parametrize("n, alpha, seed", [(3, 4, None), (2, 3, 1), (5, 2, 2), (6, 5, 3)])
    def test_telescopes_to_g_power_traces(self, n, alpha, seed):
        # G^{k+1} = G^k - 2 rho G^k, so Tr{G^k} = 2^n - 2 sum_{j<k} Tr{rho G^j}.
        spec = reference_spec(n) if seed is None else random_ensemble(
            np.random.default_rng(seed), n, alpha)
        for k in range(14):
            telescoped = spec.dim - 2.0 * sum(exact_rho_g_power_trace(spec, j) for j in range(k))
            assert telescoped == pytest.approx(exact_g_power_trace(spec, k), abs=1e-12)


class TestExactCombinationTrace:
    def test_empty_word(self, ref3):
        assert exact_combination_trace(ref3, ()) == 2**3

    def test_repeated_index_is_identity(self, ref3):
        for i in range(4):
            assert exact_combination_trace(ref3, (i, i)) == pytest.approx(8.0, abs=1e-9)

    def test_single_reflection_trace(self):
        spec = pure_spec(3)
        for k in (1, 3, 5):
            got = exact_combination_trace(spec, (0,) * k)
            assert got == pytest.approx(2**3 - 2, abs=1e-9)

    def test_word_sum_identity(self):
        # sum_q P_q Tr{W_q} over all alpha^k words reproduces Tr{G^k}, and the
        # imaginary parts cancel.
        rng = np.random.default_rng(33)
        for alpha in (2, 3):
            spec = random_ensemble(rng, 2, alpha)
            for k in range(4):
                total = 0.0 + 0.0j
                for word in product(range(alpha), repeat=k):
                    weight = float(np.prod([spec.probs[i] for i in word])) if word else 1.0
                    total += weight * exact_combination_trace(spec, word)
                assert abs(total.imag) < 1e-9
                assert total.real == pytest.approx(exact_g_power_trace(spec, k), abs=1e-9)

    def test_bad_index_rejected(self, ref3):
        with pytest.raises(ValueError, match="out of range"):
            exact_combination_trace(ref3, (9,))


class TestExactEntropyTrace:
    def test_pure_state(self):
        assert exact_entropy_trace(pure_spec()) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed_qubit(self):
        assert exact_entropy_trace(two_state_mixture()) == pytest.approx(
            math.log(0.5), abs=1e-10
        )

    def test_reference_value(self, ref3):
        assert round(exact_entropy_trace(ref3), 3) == -0.600

    def test_never_positive(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            assert exact_entropy_trace(random_ensemble(rng, 3, 3)) <= 1e-12


class TestSampleComponent:
    def test_single_component(self):
        rng = np.random.default_rng(0)
        assert np.all(pure_spec().component_indices(rng.random(20)) == 0)

    def test_empirical_frequencies(self, ref3):
        rng = np.random.default_rng(42)
        draws = ref3.component_indices(rng.random(1_000_000))
        counts = np.bincount(draws, minlength=4)
        for i, p in enumerate([0.1, 0.2, 0.3, 0.4]):
            sigma = math.sqrt(p * (1 - p) * 1_000_000)
            assert abs(counts[i] - p * 1_000_000) < 3 * sigma

    def test_deterministic_given_seed(self, ref3):
        s1 = ref3.component_indices(np.random.default_rng(5).random(50))
        s2 = ref3.component_indices(np.random.default_rng(5).random(50))
        assert np.array_equal(s1, s2)

    @pytest.mark.parametrize("alpha", [1, 2, 3, 5, 127, 128, 129, 130])
    def test_equals_clamped_searchsorted(self, alpha):
        # alpha = 128 is the last that counts boundaries; 129 and 130 call
        # searchsorted.  Uniforms sit on every boundary and one ulp either
        # side.  From alpha = 3, some of the seeds give a last cumulative
        # probability one or more ulps below 1, so [cumulative_probs[-1], 1)
        # must map to alpha - 1 too.
        below_one = 0
        for seed in range(24):
            e = random_ensemble(np.random.default_rng(seed), 1, alpha)
            cp = e.cumulative_probs
            below_one += cp[-1] < 1.0
            u = np.concatenate([cp, np.nextafter(cp, 0.0), np.nextafter(cp, 2.0),
                                [0.0, np.nextafter(1.0, 0.0)],
                                np.random.default_rng(seed).random(2000)])
            u = u[(u >= 0.0) & (u < 1.0)].reshape(-1, 1)
            want = np.minimum(np.searchsorted(cp, u, side="right"), alpha - 1)
            got = e.component_indices(u)
            assert got.dtype == want.dtype == np.intp
            assert got.shape == u.shape
            assert np.array_equal(got, want)
        assert alpha < 3 or below_one > 0

    def test_gram_built_in_row_blocks(self):
        # Row blocks hold the Gram build to about 2 * 16 * 16 * alpha * n
        # bytes of temporaries plus the alpha x alpha result, with the same
        # bytes as the one-shot (alpha, alpha, n) einsum (44 MiB here).
        spec = random_ensemble(np.random.default_rng(14), 20, 300)
        tracemalloc.start()
        try:
            gram = spec.gram
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        cols = np.array([[make_single_qubit_gate(p)[:, 0] for p in g.factors]
                         for g in spec.gates])
        one_shot = np.prod(np.einsum("iqa,jqa->ijq", cols.conj(), cols), axis=-1)
        assert gram.tobytes() == one_shot.tobytes()


class TestOracleScale:
    def test_oracle_at_n20_matches_closed_form(self):
        # Two product states (u_i|0>)^{(x)n}: their overlap is c**n with the
        # per-qubit c = <0|u_1^dagger u_2|0>, so rho has the two eigenvalues
        # (1 +- sqrt(1 - 4 p1 p2 (1 - |c|^(2n))))/2 and
        # Tr{rho^2} = p1^2 + p2^2 + 2 p1 p2 |c|^(2n).
        n, p1, p2 = 20, 0.3, 0.7
        a, b = RotationParams(0.4, 1.0, 0.2), RotationParams(0.6, 1.3, 2.1)
        spec = EnsembleSpec(n, np.array([p1, p2]),
                            (ProductGate.uniform(n, a), ProductGate.uniform(n, b)))
        c = (math.cos(a.theta / 2) * math.cos(b.theta / 2)
             + cmath.exp(1j * (b.phi - a.phi)) * math.sin(a.theta / 2) * math.sin(b.theta / 2))
        overlap_sq = abs(c) ** (2 * n)
        assert 0.01 < overlap_sq < 0.99
        purity = p1**2 + p2**2 + 2 * p1 * p2 * overlap_sq
        assert exact_power_trace(spec, 2) == pytest.approx(purity, abs=1e-14)
        assert exact_g_power_trace(spec, 2) == pytest.approx(2**n - 4 + 4 * purity, abs=1e-6)
        root = math.sqrt(1 - 4 * p1 * p2 * (1 - overlap_sq))
        lam = ((1 + root) / 2, (1 - root) / 2)
        assert exact_entropy_trace(spec) == pytest.approx(
            sum(x * math.log(x) for x in lam), abs=1e-12)
        assert "states" not in spec.__dict__ and "state_matrix" not in spec.__dict__

    def test_dense_word_trace_capped(self):
        spec = pure_spec(13, RotationParams(0.1, 0.2, 0.3))
        with pytest.raises(ValueError, match="n <= 12"):
            exact_combination_trace(spec, (0,))


class TestSpanOracleMatchesDense:
    """The span-space oracle against values built from the dense rho."""

    def test_duplicated_component_has_rank_deficient_gram(self):
        spec = random_ensemble(np.random.default_rng(3), 4, 3)
        dup = EnsembleSpec(4, spec.probs, spec.gates[:2] + spec.gates[:1])
        assert np.linalg.matrix_rank(dup.gram, tol=1e-10) == 2
        assert dup.span_eigenvalues[0] == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(small_ensembles())
    def test_gram_matches_state_matrix(self, spec):
        dense = spec.state_matrix.conj() @ spec.state_matrix.T
        assert np.max(np.abs(spec.gram - dense)) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(small_ensembles())
    def test_traces_match_dense_rho(self, spec):
        rho = build_density_matrix(spec)
        g = np.eye(spec.dim) - 2.0 * rho.entries
        for m in range(1, 6):
            dense = np.trace(np.linalg.matrix_power(rho.entries, m)).real
            assert exact_power_trace(spec, m) == pytest.approx(dense, abs=1e-10)
        for k in range(6):
            dense = np.trace(np.linalg.matrix_power(g, k)).real
            assert exact_g_power_trace(spec, k) == pytest.approx(dense, abs=1e-10)
        lam = rho.eigenvalues[rho.eigenvalues > 1e-12]
        assert exact_entropy_trace(spec) == pytest.approx(
            float(np.sum(lam * np.log(lam))), abs=1e-10
        )

    @settings(max_examples=60, deadline=None)
    @given(small_ensembles())
    def test_rho_g_power_traces_match_dense_rho(self, spec):
        rho = build_density_matrix(spec).entries
        g = np.eye(spec.dim) - 2.0 * rho
        for j in range(7):
            dense = np.trace(rho @ np.linalg.matrix_power(g, j)).real
            assert exact_rho_g_power_trace(spec, j) == pytest.approx(dense, abs=1e-10)

    def test_oracle_builds_no_statevector(self):
        spec = random_ensemble(np.random.default_rng(4), 12, 4)
        exact_power_trace(spec, 3)
        exact_g_power_trace(spec, 3)
        exact_entropy_trace(spec)
        exact_rho_g_power_trace(spec, 3)
        assert "states" not in spec.__dict__ and "state_matrix" not in spec.__dict__
