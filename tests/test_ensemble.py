import cmath
import json
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtrace import (
    EnsembleSpec,
    cli,
    exact_combination_trace,
    exact_entropy_trace,
    exact_g_power_trace,
    exact_power_trace,
    exact_rho_g_power_trace,
)
from qtrace.ensemble import KET_NORM_TOL
from qtrace.errors import ResourceLimitError
from qtrace.qcore import MAX_COMPONENTS, MAX_QUBITS

from .conftest import angle_spec, random_ensemble, reference_spec, small_ensembles
from .dense_reference import (
    DensityMatrix,
    binomial_power_identity_residual,
    build_density_matrix,
    gate_column,
)

#: |0>, as a (1, 2) per-qubit ket row.
ZERO_KET = np.array([[1.0, 0.0]])


def pure_spec(n=2, triple=(0.3, 0.1, 0.9)) -> EnsembleSpec:
    return angle_spec(n, [1.0], triple)


def two_state_mixture() -> EnsembleSpec:
    return angle_spec(1, [0.5, 0.5], (0, 0, 0), (math.pi, 0, math.pi))


class TestBuildDensityMatrix:
    def test_single_identity_component(self):
        rho = build_density_matrix(pure_spec(1, (0, 0, 0)))
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
        with pytest.raises(ValueError, match="sum"):
            EnsembleSpec(1, np.array([0.5, 0.4]), [ZERO_KET, ZERO_KET])

    def test_non_finite_probability_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=r"\(0, 1\]"):
                EnsembleSpec(1, np.array([bad]), [ZERO_KET])
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            EnsembleSpec(1, np.array([0.5, np.nan]), [ZERO_KET, ZERO_KET])

    def test_probabilities_renormalized_once(self):
        spec = EnsembleSpec(1, np.array([0.5, 0.5 + 5e-10]), [ZERO_KET, ZERO_KET])
        assert spec.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_density_matrix_invariants_enforced(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(1, np.array([[0.5, 1.0], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(1, np.diag([0.7, 0.7]))


class TestKetArray:
    """``EnsembleSpec`` takes each component's per-qubit kets as one
    (alpha, n, 2) array and checks it."""

    def test_qubit_cap(self):
        for n in (0, MAX_QUBITS + 1):
            with pytest.raises(ValueError, match="MAX_QUBITS"):
                EnsembleSpec(n, np.array([1.0]), np.tile([1.0, 0.0], (1, n, 1)))

    def test_component_cap(self):
        alpha = MAX_COMPONENTS + 1
        kets = np.tile([1.0, 0.0], (alpha, 1, 1))
        assert EnsembleSpec(1, np.full(alpha - 1, 1 / (alpha - 1)), kets[1:]).alpha == alpha - 1
        with pytest.raises(ResourceLimitError) as err:
            EnsembleSpec(1, np.full(alpha, 1 / alpha), kets)
        assert (err.value.requested, err.value.cap) == (alpha, MAX_COMPONENTS)

    def test_factor_count_must_match(self):
        # n = 2 with one or three per-qubit kets, kets of three amplitudes,
        # or two components for one probability.
        for kets in (np.tile([1.0, 0.0], (1, 1, 1)), np.tile([1.0, 0.0], (1, 3, 1)),
                     np.ones((1, 2, 3)) / math.sqrt(3), np.tile([1.0, 0.0], (2, 2, 1))):
            with pytest.raises(ValueError, match="shape"):
                EnsembleSpec(2, np.array([1.0]), kets)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_ket_rejected(self, bad):
        with pytest.raises(ValueError, match="finite unit"):
            EnsembleSpec(1, np.array([1.0]), [[[1.0, bad]]])

    def test_ket_norm_within_tolerance(self):
        EnsembleSpec(1, np.array([1.0]), [[[math.sqrt(1 + 0.4 * KET_NORM_TOL), 0.0]]])
        for norm_sq in (1 + 10 * KET_NORM_TOL, 0.5):
            with pytest.raises(ValueError, match="finite unit"):
                EnsembleSpec(1, np.array([1.0]), [[[math.sqrt(norm_sq), 0.0]]])

    def test_kets_stored_as_read_only_copy(self):
        kets = np.tile([1.0 + 0j, 0.0], (1, 2, 1))
        spec = EnsembleSpec(2, np.array([1.0]), kets)
        kets[0, 0] = [0.0, 1.0]
        assert spec.kets[0, 0, 0] == 1.0
        with pytest.raises(ValueError):
            spec.kets[0, 0, 0] = 0.0

    def test_table1_bytes_match_the_gate_route(self):
        # Kets read off the full 2x2 unitaries of the config's angles, as
        # the Gram and the dense states were built before the ket array.
        raw = json.loads(cli.bundled_config_text("table1"))
        spec = cli.load_config("table1").spec
        gates = angle_spec(raw["n_qubits"], [c["prob"] for c in raw["components"]],
                           *([v * math.pi for v in c["angles"][0]] for c in raw["components"]),
                           ket=gate_column)
        for name in ("probs", "kets", "gram", "state_matrix"):
            assert getattr(spec, name).tobytes() == getattr(gates, name).tobytes(), name

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_small_ensembles_bytes_match_the_gate_route(self, n, alpha, seed):
        # The draws and generator of ``small_ensembles``.
        spec = random_ensemble(np.random.default_rng(seed), n, alpha)
        gates = random_ensemble(np.random.default_rng(seed), n, alpha, ket=gate_column)
        for name in ("kets", "gram", "state_matrix"):
            assert getattr(spec, name).tobytes() == getattr(gates, name).tobytes(), name


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
        kets = spec.kets
        one_shot = np.prod(np.einsum("iqa,jqa->ijq", kets.conj(), kets), axis=-1)
        assert gram.tobytes() == one_shot.tobytes()


class TestOracleScale:
    def test_oracle_at_n20_matches_closed_form(self):
        # Two product states (u_i|0>)^{(x)n}: their overlap is c**n with the
        # per-qubit c = <0|u_1^dagger u_2|0>, so rho has the two eigenvalues
        # (1 +- sqrt(1 - 4 p1 p2 (1 - |c|^(2n))))/2 and
        # Tr{rho^2} = p1^2 + p2^2 + 2 p1 p2 |c|^(2n).
        n, p1, p2 = 20, 0.3, 0.7
        (ta, pa, _), (tb, pb, _) = a, b = (0.4, 1.0, 0.2), (0.6, 1.3, 2.1)
        spec = angle_spec(n, [p1, p2], a, b)
        c = (math.cos(ta / 2) * math.cos(tb / 2)
             + cmath.exp(1j * (pb - pa)) * math.sin(ta / 2) * math.sin(tb / 2))
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
        spec = pure_spec(13, (0.1, 0.2, 0.3))
        with pytest.raises(ValueError, match="n <= 12"):
            exact_combination_trace(spec, (0,))


class TestSpanOracleMatchesDense:
    """The span-space oracle against values built from the dense rho."""

    def test_duplicated_component_has_rank_deficient_gram(self):
        spec = random_ensemble(np.random.default_rng(3), 4, 3)
        dup = EnsembleSpec(4, spec.probs, np.concatenate([spec.kets[:2], spec.kets[:1]]))
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
