import math
import tracemalloc

import numpy as np
import pytest

from qtrace import (
    EnsembleSpec,
    ProductGate,
    RotationParams,
    exact_combination_trace,
    exact_g_power_trace,
    exact_power_trace,
)
from qtrace.errors import DegenerateAugmentationError, IllConditionedGramError, ResourceLimitError
from qtrace.gst import (
    Combination,
    GstMatrices,
    MeasureMode,
    augment_and_trace,
    augmentation_state,
    build_subspace,
    combination_trace,
    estimate_g_power_trace,
    estimate_power_trace,
    extend_operator_basis,
    measure_matrices,
    operator_basis_for_states,
    ptm_trace,
    sample_combination,
)

from .conftest import random_ensemble


def pure_spec(n=3) -> EnsembleSpec:
    return EnsembleSpec(n, np.array([1.0]), (ProductGate.uniform(n, RotationParams(0.3, 0.1, 0.9)),))


def word(e, *indices) -> Combination:
    return Combination.from_indices(e, indices)


def dense_word_operator(e: EnsembleSpec, indices) -> np.ndarray:
    dim = e.dim
    op = np.eye(dim, dtype=complex)
    for i in indices:
        psi = e.states[i].amplitudes
        op = op @ (np.eye(dim) - 2.0 * np.outer(psi, psi.conj()))
    return op


def restricted_trace(e: EnsembleSpec, q: Combination) -> complex:
    """Dense oracle for Tr{w}: full trace minus the trivial complement."""
    b = build_subspace(e, q, 1e-12)
    return exact_combination_trace(e, q) - (2**e.n - b.d)


class TestSampleCombination:
    def test_m_zero_empty(self, ref3):
        q = sample_combination(ref3, 0, np.random.default_rng(0))
        assert q.indices == () and q.weight == 1.0

    def test_single_component_all_zero(self):
        rng = np.random.default_rng(1)
        q = sample_combination(pure_spec(), 6, rng)
        assert all(i == 0 for i in q.indices)

    def test_length_distribution_binomial(self, ref3):
        rng = np.random.default_rng(2)
        n_draws, m = 100_000, 5
        counts = np.bincount(
            [sample_combination(ref3, m, rng).k for _ in range(n_draws)], minlength=m + 1
        )
        expected = np.array([math.comb(m, k) / 2**m for k in range(m + 1)]) * n_draws
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # chi-square with 5 dof; 1% critical value.
        assert chi2 < 15.09

    def test_weight_is_probability_product(self, ref3):
        q = word(ref3, 0, 3, 3)
        assert q.weight == pytest.approx(0.1 * 0.4 * 0.4, abs=1e-15)


class TestBuildSubspace:
    def test_orthogonal_states_both_retained(self):
        e = EnsembleSpec(
            1,
            np.array([0.5, 0.5]),
            (
                ProductGate.uniform(1, RotationParams(0, 0, 0)),
                ProductGate.uniform(1, RotationParams(math.pi, 0, math.pi)),
            ),
        )
        b = build_subspace(e, word(e, 0, 1), 0.9)
        assert b.d == 2 and not b.discarded

    def test_duplicate_index_skipped(self, ref3):
        b = build_subspace(ref3, word(ref3, 1, 1, 1), 1e-10)
        assert b.d == 1 and not b.discarded

    def test_physical_duplicate_merged_not_truncated(self):
        gate = ProductGate.uniform(2, RotationParams(0.4, 0.8, 1.0))
        e = EnsembleSpec(2, np.array([0.5, 0.5]), (gate, gate))
        b = build_subspace(e, word(e, 0, 1), 1e-10)
        assert b.d == 1 and not b.discarded

    def test_admission_statistic_at_known_overlap(self):
        # |<psi1|psi2>| = 0.6 gives |Delta|^2 = 0.64 and statistic
        # (0.64 / 1.36)^2; cross-checked against the 2-state Hilbert-Schmidt
        # Gram spectrum {1, a, a, a^2}.
        theta = 2 * math.acos(0.6)
        e = EnsembleSpec(
            1,
            np.array([0.5, 0.5]),
            (
                ProductGate.uniform(1, RotationParams(0, 0, 0)),
                ProductGate.uniform(1, RotationParams(theta, 0, 0)),
            ),
        )
        stat = (0.64 / 1.36) ** 2
        kept = build_subspace(e, word(e, 0, 1), stat * 0.999)
        dropped = build_subspace(e, word(e, 0, 1), stat * 1.001)
        assert kept.d == 2
        assert dropped.d == 1 and dropped.discarded[0][1] == pytest.approx(stat, abs=1e-12)
        # Independent recomputation from raw linear algebra.
        s1, s2 = e.states[0].amplitudes, e.states[1].amplitudes
        coeff = np.linalg.lstsq(s1[:, None], s2, rcond=None)[0]
        residual_sq = float(np.linalg.norm(s2 - s1 * coeff[0]) ** 2)
        recomputed = (residual_sq / (1.0 + abs(coeff[0]) ** 2)) ** 2
        assert recomputed == pytest.approx(stat, abs=1e-12)

    def test_truncation_monotone_in_epsilon(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            e = random_ensemble(rng, 3, 3)
            q = word(e, *rng.integers(0, 3, size=4))
            dims = [build_subspace(e, q, eps).d for eps in (1e-10, 1e-4, 1e-2, 0.2, 0.9)]
            assert dims == sorted(dims, reverse=True)

    def test_epsilon_range_enforced(self, ref3):
        with pytest.raises(ValueError, match="epsilon"):
            build_subspace(ref3, word(ref3, 0), 0.0)


class TestOperatorBasis:
    def test_d1_single_undressed_prep(self, ref3):
        b = build_subspace(ref3, word(ref3, 2), 1e-10)
        ob = extend_operator_basis(b, math.pi / 2)
        assert ob.preps == ((0, None),)

    def test_d2_prep_count_and_layout(self, ref3):
        b = build_subspace(ref3, word(ref3, 0, 1), 1e-10)
        ob = extend_operator_basis(b, math.pi / 2)
        assert len(ob.preps) == 4
        assert ob.preps[:2] == ((0, None), (1, None))

    def test_theta_multiple_of_pi_rejected(self, ref3):
        b = build_subspace(ref3, word(ref3, 0, 1), 1e-10)
        for theta in (0.0, math.pi, -math.pi, 2 * math.pi, math.pi + 5e-7):
            with pytest.raises(ValueError, match="pi"):
                extend_operator_basis(b, theta)

    def test_degenerate_theta_makes_gram_singular(self, ref3):
        q = word(ref3, 0, 1)
        b = build_subspace(ref3, q, 1e-10)
        ob_pi = operator_basis_for_states(b.retained, math.pi, validate_theta=False)
        g_pi = measure_matrices(ref3, q, ob_pi).g_mat
        assert np.linalg.eigvalsh(0.5 * (g_pi + g_pi.T)).min() < 1e-10

        ob_half = extend_operator_basis(b, math.pi / 2)
        g_half = measure_matrices(ref3, q, ob_half).g_mat
        assert np.linalg.eigvalsh(0.5 * (g_half + g_half.T)).min() > 0


class TestMeasureMatrices:
    def test_gram_diagonal_is_one(self, ref3):
        q = word(ref3, 0, 3)
        b = build_subspace(ref3, q, 1e-10)
        mx = measure_matrices(ref3, q, extend_operator_basis(b, math.pi / 2))
        assert np.allclose(np.diag(mx.g_mat), 1.0, atol=1e-12)

    def test_d1_eigenstate_word(self):
        e = pure_spec()
        q = word(e, 0, 0, 0)
        b = build_subspace(e, q, 1e-10)
        mx = measure_matrices(e, q, extend_operator_basis(b, math.pi / 2))
        assert mx.p_mat[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_exact_entries_match_dense_channel(self, ref3):
        q = word(ref3, 1, 3)
        b = build_subspace(ref3, q, 1e-10)
        ob = extend_operator_basis(b, math.pi / 2)
        mx = measure_matrices(ref3, q, ob)
        op = dense_word_operator(ref3, q.indices)
        s = ob.prep_matrix
        for r in range(len(s)):
            for c in range(len(s)):
                rho_r = np.outer(s[r], s[r].conj())
                rho_c = np.outer(s[c], s[c].conj())
                expected = np.trace(rho_r @ op @ rho_c @ op.conj().T).real
                assert mx.p_mat[r, c] == pytest.approx(expected, abs=1e-10)

    def test_shots_mode_needs_rng(self, ref3):
        q = word(ref3, 0)
        b = build_subspace(ref3, q, 1e-10)
        ob = extend_operator_basis(b, math.pi / 2)
        with pytest.raises(ValueError, match="rng"):
            measure_matrices(ref3, q, ob, MeasureMode.with_shots(100))

    def test_shots_mode_is_binomial_draw(self, ref3):
        q = word(ref3, 0, 1)
        b = build_subspace(ref3, q, 1e-10)
        ob = extend_operator_basis(b, math.pi / 2)
        exact = measure_matrices(ref3, q, ob)
        noisy = measure_matrices(ref3, q, ob, MeasureMode.with_shots(200),
                                 np.random.default_rng(3))
        assert np.all(noisy.p_mat * 200 == np.round(noisy.p_mat * 200))
        assert np.max(np.abs(noisy.p_mat - exact.p_mat)) < 0.2

    def test_gaussian_mode_perturbs_without_clamping(self, ref3):
        q = word(ref3, 0, 1)
        b = build_subspace(ref3, q, 1e-10)
        ob = extend_operator_basis(b, math.pi / 2)
        noisy = measure_matrices(ref3, q, ob, MeasureMode.with_gaussian(0.1),
                                 np.random.default_rng(4))
        exact = measure_matrices(ref3, q, ob)
        delta = noisy.g_mat - exact.g_mat
        assert np.max(np.abs(delta)) > 0
        # diagonal g entries (exactly 1) may exceed 1 after noise: no clamping
        assert noisy.g_mat.max() > 1.0


class TestPtmTrace:
    def test_trivial_one_by_one(self):
        mx = GstMatrices(np.array([[1.0]]), np.array([[1.0]]))
        assert ptm_trace(mx) == pytest.approx(1.0, abs=1e-12)

    def test_single_component_word_norm_one(self):
        e = pure_spec()
        for k in (1, 2, 3):
            q = word(e, *([0] * k))
            b = build_subspace(e, q, 1e-10)
            mx = measure_matrices(e, q, extend_operator_basis(b, math.pi / 2))
            assert ptm_trace(mx) == pytest.approx(1.0, abs=1e-10)

    def test_matches_dense_restriction(self, ref3):
        for indices in ((0, 1), (2, 3), (1, 2, 3)):
            q = word(ref3, *indices)
            b = build_subspace(ref3, q, 1e-10)
            mx = measure_matrices(ref3, q, extend_operator_basis(b, math.pi / 2))
            expected = abs(restricted_trace(ref3, q)) ** 2
            assert ptm_trace(mx) == pytest.approx(expected, abs=1e-8)

    def test_gauge_invariance_under_prep_permutation(self, ref3):
        q = word(ref3, 0, 1, 3)
        b = build_subspace(ref3, q, 1e-10)
        mx = measure_matrices(ref3, q, extend_operator_basis(b, math.pi / 2))
        base = ptm_trace(mx)
        rng = np.random.default_rng(5)
        for _ in range(5):
            perm = rng.permutation(mx.size)
            permuted = GstMatrices(mx.p_mat[np.ix_(perm, perm)], mx.g_mat[np.ix_(perm, perm)])
            assert ptm_trace(permuted) == pytest.approx(base, abs=1e-8)

    def test_ill_conditioned_gram_raises_with_eigenvalue(self):
        p = np.eye(2)
        g = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(IllConditionedGramError) as err:
            ptm_trace(GstMatrices(p, g))
        assert err.value.min_eigenvalue < 1e-10

    def test_pseudoinverse_opt_in(self):
        p = np.eye(2)
        g = np.array([[1.0, 1.0], [1.0, 1.0]])
        value = ptm_trace(GstMatrices(p, g), allow_pseudoinverse=True)
        assert math.isfinite(value)


class TestAugmentation:
    def test_augmentation_state_leaves_span(self, ref3):
        q = word(ref3, 0, 1, 2)
        b = build_subspace(ref3, q, 1e-10)
        phi = augmentation_state(ref3, q, b)
        span = np.array([s.amplitudes for s in b.retained])
        u, sv, _ = np.linalg.svd(span.T, full_matrices=False)
        residual = phi.amplitudes - u @ (u.conj().T @ phi.amplitudes)
        assert np.linalg.norm(residual) > 0.1
        for s in b.retained:
            assert abs(np.vdot(s.amplitudes, phi.amplitudes)) > 1e-3

    def test_augmented_trace_identity_exact_mode(self, ref3):
        rng = np.random.default_rng(6)
        for _ in range(10):
            e = random_ensemble(rng, 3, 3)
            q = word(e, *rng.integers(0, 3, size=int(rng.integers(1, 4))))
            b = build_subspace(e, q, 1e-10)
            tr_rw, tr_aug = augment_and_trace(e, q, b)
            w = restricted_trace(e, q)
            assert tr_rw == pytest.approx(abs(w) ** 2, abs=1e-8)
            assert tr_aug == pytest.approx(abs(w + 1.0) ** 2, abs=1e-8)

    def test_single_component_odd_word(self):
        # w = -1: Tr{R_w} = 1, Tr{R_w'} = |-1 + 1|^2 = 0.
        e = pure_spec()
        q = word(e, 0, 0, 0)
        b = build_subspace(e, q, 1e-10)
        tr_rw, tr_aug = augment_and_trace(e, q, b)
        assert tr_rw == pytest.approx(1.0, abs=1e-9)
        assert tr_aug == pytest.approx(0.0, abs=1e-9)

    def test_single_component_even_word(self):
        # w = +1: Tr{R_w'} = |1 + 1|^2 = 4.
        e = pure_spec()
        q = word(e, 0, 0)
        b = build_subspace(e, q, 1e-10)
        tr_rw, tr_aug = augment_and_trace(e, q, b)
        assert tr_rw == pytest.approx(1.0, abs=1e-9)
        assert tr_aug == pytest.approx(4.0, abs=1e-9)

    def test_augmentation_at_n16_probes_lazily(self):
        # Component 0 is |+>^n, the uniform-amplitude probe itself, so the
        # probe search must move on to e_0 without materializing the rest.
        n = 16
        e = EnsembleSpec(
            n,
            np.array([0.5, 0.5]),
            (
                ProductGate.uniform(n, RotationParams(math.pi / 2, 0, 0)),
                ProductGate.uniform(n, RotationParams(0.7, 0.4, 0.1)),
            ),
        )
        q = word(e, 0, 1)
        tracemalloc.start()
        try:
            b = build_subspace(e, q, 1e-10)
            phi = augmentation_state(e, q, b).amplitudes
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert np.linalg.norm(phi) == pytest.approx(1.0, abs=1e-12)
        # phi = (r + u/2) / |r + u/2| with r a unit vector orthogonal to the
        # word's states and u a unit vector inside their span.
        span, _ = np.linalg.qr(e.state_matrix.T)
        outside = phi - span @ (span.conj().T @ phi)
        assert np.linalg.norm(outside) == pytest.approx(1.0 / math.sqrt(1.25), abs=1e-9)
        assert np.max(np.abs(e.state_matrix.conj() @ outside)) < 1e-12
        overlaps = e.state_matrix.conj() @ phi
        assert overlaps[0] == pytest.approx(overlaps[1], abs=1e-12)

    def test_degenerate_augmentation_when_states_fill_space(self):
        e = EnsembleSpec(
            1,
            np.array([0.5, 0.5]),
            (
                ProductGate.uniform(1, RotationParams(0, 0, 0)),
                ProductGate.uniform(1, RotationParams(math.pi / 2, 0, 0)),
            ),
        )
        q = word(e, 0, 1)
        b = build_subspace(e, q, 1e-10)
        with pytest.raises(DegenerateAugmentationError, match="span"):
            augmentation_state(e, q, b)


class TestCombinationTrace:
    def test_empty_word_is_dimension(self, ref3):
        ct = combination_trace(ref3, word(ref3))
        assert ct.d == 0
        assert ct.value == pytest.approx(8.0, abs=1e-9)

    def test_single_component_k2(self):
        e = pure_spec()
        ct = combination_trace(e, word(e, 0, 0))
        assert (ct.d, round(ct.re_tr_w, 9)) == (1, 1.0)
        assert ct.value == pytest.approx(8.0, abs=1e-9)

    def test_single_component_k3(self):
        e = pure_spec()
        ct = combination_trace(e, word(e, 0, 0, 0))
        assert ct.re_tr_w == pytest.approx(-1.0, abs=1e-9)
        assert ct.value == pytest.approx(6.0, abs=1e-9)

    def test_real_and_squared_parts_consistent(self, ref3):
        # tr_rw = Re^2 + Im^2 where both parts come from the dense oracle.
        for indices in ((0, 1), (1, 2, 3), (0, 2, 3, 1)):
            q = word(ref3, *indices)
            ct = combination_trace(ref3, q)
            w = restricted_trace(ref3, q)
            assert ct.tr_rw == pytest.approx(w.real**2 + w.imag**2, abs=1e-8)
            assert ct.re_tr_w == pytest.approx(w.real, abs=1e-8)

    def test_matches_oracle_across_random_words(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            e = random_ensemble(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)))
            k = int(rng.integers(0, 5))
            q = word(e, *rng.integers(0, e.alpha, size=k))
            ct = combination_trace(e, q)
            assert ct.value == pytest.approx(
                exact_combination_trace(e, q).real, abs=1e-7
            )


class TestEstimateGPowerTrace:
    def test_k0(self, ref3):
        est = estimate_g_power_trace(ref3, 0)
        assert est.value == pytest.approx(8.0, abs=1e-9)
        assert est.mode == "exact-enumeration"

    def test_reference_k2(self, ref3):
        est = estimate_g_power_trace(ref3, 2)
        assert round(est.value, 3) == 6.600

    def test_reference_k3(self, ref3):
        est = estimate_g_power_trace(ref3, 3)
        assert abs(est.value - 5.912) <= 0.005
        assert est.value == pytest.approx(exact_g_power_trace(ref3, 3), abs=1e-8)

    def test_enumeration_budget(self, ref3):
        with pytest.raises(ResourceLimitError):
            estimate_g_power_trace(ref3, 4, budget=100)

    def test_mc_converges(self, ref3):
        est = estimate_g_power_trace(ref3, 2, strategy="mc", budget=600, rng=3)
        exact = exact_g_power_trace(ref3, 2)
        assert abs(est.value - exact) < 4 * est.std_error + 1e-6
        assert est.mode == "mc-exact-prob"

    def test_mc_worker_invariance(self, ref3):
        one = estimate_g_power_trace(ref3, 2, strategy="mc", budget=300, rng=9, workers=1)
        four = estimate_g_power_trace(ref3, 2, strategy="mc", budget=300, rng=9, workers=4)
        assert one == four

    def test_enumerate_worker_invariance(self, ref3):
        one = estimate_g_power_trace(ref3, 3, workers=1)
        four = estimate_g_power_trace(ref3, 3, workers=4)
        assert one == four

    def test_mc_shots_mode_label(self, ref3):
        est = estimate_g_power_trace(
            ref3, 1, strategy="mc", budget=50, rng=2, mode=MeasureMode.with_shots(2000)
        )
        assert est.mode == "mc-shots"

    def test_weighted_imaginary_parts_cancel(self):
        # The estimator only ever measures real parts; assert against the
        # oracle that the weighted imaginary parts it ignores sum to zero.
        rng = np.random.default_rng(31)
        from itertools import product as iproduct

        for alpha in (2, 3):
            e = random_ensemble(rng, 2, alpha)
            for k in (2, 3):
                total = sum(
                    Combination.from_indices(e, w).weight * exact_combination_trace(e, w).imag
                    for w in iproduct(range(alpha), repeat=k)
                )
                assert abs(total) < 1e-9


class TestEstimatePowerTrace:
    def test_pure_state(self):
        e = pure_spec()
        for m in (1, 2, 4):
            est = estimate_power_trace(e, m)
            assert est.value == pytest.approx(1.0, abs=1e-8)

    def test_reference_m2(self, ref3):
        assert round(estimate_power_trace(ref3, 2).value, 3) == 0.650

    def test_reference_m3(self, ref3):
        assert round(estimate_power_trace(ref3, 3).value, 3) == 0.486

    def test_matches_oracle_on_random_spec(self):
        rng = np.random.default_rng(77)
        e = random_ensemble(rng, 2, 3)
        est = estimate_power_trace(e, 3)
        assert est.value == pytest.approx(exact_power_trace(e, 3), abs=1e-7)

    def test_gaussian_noise_stays_near_truth(self, ref3):
        est = estimate_power_trace(
            ref3, 2, strategy="mc", budget=300, epsilon=1e-3,
            mode=MeasureMode.with_gaussian(1e-4), rng=8,
        )
        assert abs(est.value - 0.650) < 0.05
