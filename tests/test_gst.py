import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtrace import (
    EnsembleSpec,
    ProductGate,
    RotationParams,
    exact_combination_trace,
    exact_g_power_trace,
    exact_power_trace,
)
from qtrace import gst
from qtrace._parallel import chunk_ranges, merge_moment_sums
from qtrace.errors import (
    DegenerateAugmentationError,
    IdentityViolationError,
    IllConditionedGramError,
    ResourceLimitError,
)
from qtrace.gst import (
    EXACT,
    SAME_STATE_OVERLAP,
    GstMatrices,
    MeasureMode,
    augment_and_trace,
    augmentation_state,
    build_subspace,
    combination_trace,
    estimate_g_power_trace,
    estimate_power_trace,
    measure_matrices,
    operator_basis_for_states,
    ptm_trace,
)
from qtrace.qcore import reflect_amplitudes
from qtrace.rng import rng_stream

from .conftest import random_ensemble, reference_spec, small_ensembles


def pure_spec(n=3) -> EnsembleSpec:
    return EnsembleSpec(n, np.array([1.0]), (ProductGate.uniform(n, RotationParams(0.3, 0.1, 0.9)),))


def word(e, *indices) -> tuple[int, ...]:
    """The word of the given component indices, checked against ``e``."""
    assert all(0 <= i < e.alpha for i in indices)
    return tuple(int(i) for i in indices)


def dense_word_operator(e: EnsembleSpec, indices) -> np.ndarray:
    dim = e.dim
    op = np.eye(dim, dtype=complex)
    for i in indices:
        psi = e.state_matrix[i]
        op = op @ (np.eye(dim) - 2.0 * np.outer(psi, psi.conj()))
    return op


def restricted_trace(e: EnsembleSpec, q: tuple[int, ...]) -> complex:
    """Dense oracle for Tr{w}: full trace minus the trivial complement."""
    b = build_subspace(e, q, 1e-12)
    return exact_combination_trace(e, q) - (2**e.n - b.d)


# Dense reference: the GST word pipeline on 2**n-amplitude kets, as it ran
# before the stages moved to the rows of EnsembleSpec.span_states.


def dense_subspace(e, q, epsilon):
    """Retained 2**n kets and the admission statistics of discarded states."""
    kets, stats = [], []
    for idx in dict.fromkeys(q):
        psi = e.state_matrix[idx]
        if kets and float(np.max(np.abs(np.array(kets) @ psi.conj()))) > SAME_STATE_OVERLAP:
            continue
        stat = gst._admission_statistic(kets, psi)
        if stat >= epsilon:
            kets.append(psi)
        else:
            stats.append(stat)
    return kets, stats


def dense_prep_matrix(e, kets, theta):
    """The d^2 prep kets over ``kets``: undressed, then G_{s'}(theta)|psi_s>."""
    d = len(kets)
    preps = [(s, None) for s in range(d)]
    preps += [(s, sp) for s in range(d) for sp in range(d) if sp != s]
    rows = [kets[s] if sp is None else reflect_amplitudes(kets[sp], theta, kets[s])
            for s, sp in preps]
    return np.array(rows).reshape(len(rows), e.dim)


def dense_measure(e, q, preps, mode, rng):
    """p and g over the prep kets, with the noise of measure_matrices."""
    t = preps
    for idx in reversed(q):
        t = reflect_amplitudes(e.state_matrix[idx], math.pi, t)
    p = np.abs(preps.conj() @ t.T) ** 2
    g = np.abs(preps.conj() @ preps.T) ** 2
    if mode.kind == "shots":
        p = rng.binomial(mode.shots, np.clip(p, 0.0, 1.0)) / mode.shots
        g = rng.binomial(mode.shots, np.clip(g, 0.0, 1.0)) / mode.shots
    elif mode.kind == "gaussian":
        p = p + mode.sigma * rng.standard_normal(p.shape)
        g = g + mode.sigma * rng.standard_normal(g.shape)
    return p, g


def dense_probes(dim):
    """The uniform-amplitude ket, then e_0, e_1, ..., one at a time."""
    yield np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    for i in range(dim):
        basis_state = np.zeros(dim, dtype=complex)
        basis_state[i] = 1.0
        yield basis_state


def dense_augmentation_state(e, q, kets):
    """The uniform probe, else e_0, e_1, ..., projected off every circuit
    state of the word, plus half the normalized dual-frame sum of ``kets``."""
    axes = e.state_matrix[list(dict.fromkeys(q))]
    basis = None
    if len(axes):
        u, sv, _ = np.linalg.svd(axes.T, full_matrices=False)
        basis = u[:, sv > 1e-12 * sv[0]]
    for v in dense_probes(e.dim):
        if basis is not None:
            for _ in range(2):
                v = v - basis @ (basis.conj().T @ v)
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-6:
            residual = v / nrm
            break
    else:
        raise DegenerateAugmentationError("circuit states span the whole space")
    if not kets:
        return residual
    r = np.array(kets)
    coeffs = np.linalg.solve(r.conj() @ r.T, np.ones(len(kets), dtype=complex))
    u = r.T @ coeffs
    v = residual + 0.5 * u / float(np.linalg.norm(u))
    return v / float(np.linalg.norm(v))


def dense_word(out, e, q, epsilon, theta, mode, seed):
    """Fill ``out`` stage by stage, in combination_trace's order: d and the
    discarded statistics, p and g, Tr{R_w}, p' and g', then the value."""
    rng = np.random.default_rng(seed)
    kets, out["discarded"] = dense_subspace(e, q, epsilon)
    out["d"] = len(kets)
    out["p"], out["g"] = dense_measure(e, q, dense_prep_matrix(e, kets, theta), mode, rng)
    tr_rw = ptm_trace(GstMatrices(out["p"], out["g"], mode))
    phi = dense_augmentation_state(e, q, kets)
    aug = dense_prep_matrix(e, [*kets, phi], theta)
    out["p_aug"], out["g_aug"] = dense_measure(e, q, aug, mode, rng)
    tr_aug = ptm_trace(GstMatrices(out["p_aug"], out["g_aug"], mode))
    out["value"] = 2**e.n - len(kets) + 0.5 * (tr_aug - tr_rw - 1.0)


def span_word(out, e, q, epsilon, theta, mode, seed):
    """The same stages through the package, on span_states rows; the value
    comes from combination_trace on a generator with the same seed."""
    rng = np.random.default_rng(seed)
    b = build_subspace(e, q, epsilon)
    out["d"], out["discarded"] = b.d, [stat for _, stat in b.discarded]
    mx = measure_matrices(e, q, operator_basis_for_states(b.retained, theta), mode, rng)
    out["p"], out["g"] = mx.p_mat, mx.g_mat
    ptm_trace(mx)
    phi = augmentation_state(e, q, b)
    mx = measure_matrices(e, q, operator_basis_for_states((*b.retained, phi), theta), mode, rng)
    out["p_aug"], out["g_aug"] = mx.p_mat, mx.g_mat
    ptm_trace(mx)
    ct = combination_trace(e, q, epsilon, theta, mode, np.random.default_rng(seed))
    assert ct.d == b.d
    out["value"] = ct.value


def word_outcome(stages, *args):
    """What ``stages`` computed before it finished or raised, and the name of
    the GST error it raised, if any."""
    out = {}
    try:
        stages(out, *args)
    except (DegenerateAugmentationError, IllConditionedGramError) as err:
        out["error"] = type(err).__name__
    return out


def drawn_words(monkeypatch, e, k, budget, seed=0):
    """The words that an exact-mode GST Monte Carlo estimate evaluates, in
    draw order, and the estimate."""
    words = []
    inner = gst.combination_trace

    def spy(e, q, *args, **kwargs):
        words.append(q)
        return inner(e, q, *args, **kwargs)

    monkeypatch.setattr(gst, "combination_trace", spy)
    est = estimate_g_power_trace(e, k, strategy="mc", budget=budget, rng=seed)
    monkeypatch.undo()
    return words, est


class TestSampleCombination:
    def test_m_zero_empty(self, ref3, monkeypatch):
        assert drawn_words(monkeypatch, ref3, 0, 50)[0] == [()]

    def test_single_component_all_zero(self, monkeypatch):
        words, _ = drawn_words(monkeypatch, pure_spec(), 6, 50, seed=1)
        assert words == [(0,) * 6]

    def test_weight_is_probability_product(self, ref3):
        # Word (0, 3, 3) has rank 0*16 + 3*4 + 3 = 15 among the 4**3 words.
        assert gst._word_at(4, 3, 15) == (0, 3, 3)
        part = gst._enumerate_chunk(ref3, 3, gst.DEFAULT_EPSILON, gst.DEFAULT_THETA, EXACT,
                                    0, (), False, 15, 16)
        value = combination_trace(ref3, (0, 3, 3)).value
        assert part / value == pytest.approx(0.1 * 0.4 * 0.4, abs=1e-15)

    def test_underflowing_word_weight_contributes_nothing(self):
        # The weight of word (0,) * 11 underflows to 0.0: the word adds
        # nothing to the sum instead of stopping the estimate.
        gates = tuple(ProductGate.uniform(2, RotationParams(*(a * math.pi for a in angles)))
                      for angles in ((0.29, 0.07, 0.11), (0.46, 0.62, 0.82)))
        e = EnsembleSpec(2, np.array([1e-30, 1.0]), gates)
        assert 1e-30**11 == 0.0
        est = estimate_g_power_trace(e, 11)
        assert est.value == pytest.approx(exact_g_power_trace(e, 11), abs=1e-12)


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
        s1, s2 = e.state_matrix[0], e.state_matrix[1]
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
        ob = operator_basis_for_states(b.retained, math.pi / 2)
        assert ob.preps == ((0, None),)

    def test_d2_prep_count_and_layout(self, ref3):
        b = build_subspace(ref3, word(ref3, 0, 1), 1e-10)
        ob = operator_basis_for_states(b.retained, math.pi / 2)
        assert len(ob.preps) == 4
        assert ob.preps[:2] == ((0, None), (1, None))

    def test_theta_multiple_of_pi_rejected(self, ref3):
        b = build_subspace(ref3, word(ref3, 0, 1), 1e-10)
        for theta in (0.0, math.pi, -math.pi, 2 * math.pi, math.pi + 5e-7):
            with pytest.raises(ValueError, match="pi"):
                operator_basis_for_states(b.retained, theta)

    def test_degenerate_theta_makes_gram_singular(self, ref3, monkeypatch):
        q = word(ref3, 0, 1)
        b = build_subspace(ref3, q, 1e-10)
        with monkeypatch.context() as m:
            m.setattr(gst, "_check_theta", lambda theta: None)
            ob_pi = operator_basis_for_states(b.retained, math.pi)
        g_pi = measure_matrices(ref3, q, ob_pi).g_mat
        assert np.linalg.eigvalsh(0.5 * (g_pi + g_pi.T)).min() < 1e-10

        ob_half = operator_basis_for_states(b.retained, math.pi / 2)
        g_half = measure_matrices(ref3, q, ob_half).g_mat
        assert np.linalg.eigvalsh(0.5 * (g_half + g_half.T)).min() > 0


class TestMeasureMatrices:
    def test_gram_diagonal_is_one(self, ref3):
        q = word(ref3, 0, 3)
        b = build_subspace(ref3, q, 1e-10)
        mx = measure_matrices(ref3, q, operator_basis_for_states(b.retained, math.pi / 2))
        assert np.allclose(np.diag(mx.g_mat), 1.0, atol=1e-12)

    def test_d1_eigenstate_word(self):
        e = pure_spec()
        q = word(e, 0, 0, 0)
        b = build_subspace(e, q, 1e-10)
        mx = measure_matrices(e, q, operator_basis_for_states(b.retained, math.pi / 2))
        assert mx.p_mat[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_exact_entries_match_dense_channel(self, ref3):
        q = word(ref3, 1, 3)
        b = build_subspace(ref3, q, 1e-10)
        mx = measure_matrices(ref3, q, operator_basis_for_states(b.retained, math.pi / 2))
        op = dense_word_operator(ref3, q)
        kets, _ = dense_subspace(ref3, q, 1e-10)
        s = dense_prep_matrix(ref3, kets, math.pi / 2)
        assert len(s) == mx.size
        for r in range(len(s)):
            for c in range(len(s)):
                rho_r = np.outer(s[r], s[r].conj())
                rho_c = np.outer(s[c], s[c].conj())
                expected = np.trace(rho_r @ op @ rho_c @ op.conj().T).real
                assert mx.p_mat[r, c] == pytest.approx(expected, abs=1e-10)

    def test_shots_mode_needs_rng(self, ref3):
        q = word(ref3, 0)
        b = build_subspace(ref3, q, 1e-10)
        ob = operator_basis_for_states(b.retained, math.pi / 2)
        with pytest.raises(ValueError, match="rng"):
            measure_matrices(ref3, q, ob, MeasureMode("shots", shots=100))

    def test_shots_mode_is_binomial_draw(self, ref3):
        q = word(ref3, 0, 1)
        b = build_subspace(ref3, q, 1e-10)
        ob = operator_basis_for_states(b.retained, math.pi / 2)
        exact = measure_matrices(ref3, q, ob)
        noisy = measure_matrices(ref3, q, ob, MeasureMode("shots", shots=200),
                                 np.random.default_rng(3))
        assert np.all(noisy.p_mat * 200 == np.round(noisy.p_mat * 200))
        assert np.max(np.abs(noisy.p_mat - exact.p_mat)) < 0.2

    def test_gaussian_mode_perturbs_without_clamping(self, ref3):
        q = word(ref3, 0, 1)
        b = build_subspace(ref3, q, 1e-10)
        ob = operator_basis_for_states(b.retained, math.pi / 2)
        noisy = measure_matrices(ref3, q, ob, MeasureMode("gaussian", sigma=0.1),
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
            mx = measure_matrices(e, q, operator_basis_for_states(b.retained, math.pi / 2))
            assert ptm_trace(mx) == pytest.approx(1.0, abs=1e-10)

    def test_matches_dense_restriction(self, ref3):
        for indices in ((0, 1), (2, 3), (1, 2, 3)):
            q = word(ref3, *indices)
            b = build_subspace(ref3, q, 1e-10)
            mx = measure_matrices(ref3, q, operator_basis_for_states(b.retained, math.pi / 2))
            expected = abs(restricted_trace(ref3, q)) ** 2
            assert ptm_trace(mx) == pytest.approx(expected, abs=1e-8)

    def test_gauge_invariance_under_prep_permutation(self, ref3):
        q = word(ref3, 0, 1, 3)
        b = build_subspace(ref3, q, 1e-10)
        mx = measure_matrices(ref3, q, operator_basis_for_states(b.retained, math.pi / 2))
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
        kets, _ = dense_subspace(ref3, q, 1e-10)
        dense_phi = dense_augmentation_state(ref3, q, kets)
        for vectors, v in ((b.retained, phi), (kets, dense_phi)):
            span = np.array(vectors)
            u, sv, _ = np.linalg.svd(span.T, full_matrices=False)
            residual = v - u @ (u.conj().T @ v)
            assert np.linalg.norm(residual) > 0.1
            for s in vectors:
                assert abs(np.vdot(s, v)) > 1e-3
        # The overlaps with the word's states are the same on both paths.
        assert np.max(np.abs(np.array(b.retained).conj() @ phi
                             - np.array(kets).conj() @ dense_phi)) < 1e-12

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
        # dense probe search moves on to e_0.  The package's augmentation
        # state lives on span_states rows and forms no 2**n vector.
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
            phi = augmentation_state(e, q, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert "states" not in e.__dict__ and "state_matrix" not in e.__dict__
        kets, _ = dense_subspace(e, q, 1e-10)
        dense_phi = dense_augmentation_state(e, q, kets)
        # phi = (r + u/2) / |r + u/2| with r a unit vector orthogonal to the
        # word's states and u a unit vector inside their span.
        for states, v in ((e.span_states, phi), (e.state_matrix, dense_phi)):
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            span, _ = np.linalg.qr(states.T)
            outside = v - span @ (span.conj().T @ v)
            assert np.linalg.norm(outside) == pytest.approx(1.0 / math.sqrt(1.25), abs=1e-9)
            assert np.max(np.abs(states.conj() @ outside)) < 1e-12
            overlaps = states.conj() @ v
            assert overlaps[0] == pytest.approx(overlaps[1], abs=1e-12)
        assert np.max(np.abs(e.span_states.conj() @ phi
                             - e.state_matrix.conj() @ dense_phi)) < 1e-12

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

    def test_out_of_range_indices_rejected(self, ref3):
        for indices in ((0, 4), (-1,)):
            with pytest.raises(ValueError, match="out of range"):
                combination_trace(ref3, indices)

    def test_identity_violation_is_typed_and_carries_statistic(self, ref3, monkeypatch):
        # Exact mode, nothing truncated: Tr{R_w} = -1 breaks |Tr w|^2 >= 0,
        # and Tr{R_w'} = 11 with Tr{R_w} = 0 gives Re[Tr w] = 5 > d = 2.
        for traces, statistic in (((-1.0, 0.0), -1.0), ((0.0, 11.0), 5.0)):
            monkeypatch.setattr(gst, "augment_and_trace", lambda *args, t=traces: t)
            with pytest.raises(IdentityViolationError) as err:
                combination_trace(ref3, (0, 1))
            assert isinstance(err.value, ArithmeticError)
            assert err.value.statistic == statistic

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

    def test_mc_is_the_chunk_order_reduction(self, ref3):
        budget = 300  # nine full chunks and a partial tenth
        ranges = chunk_ranges(budget, gst._WORD_CHUNK)
        assert len(ranges) >= 3 and ranges[-1][1] - ranges[-1][0] < gst._WORD_CHUNK
        chunk_args = (ref3, 2, gst.DEFAULT_EPSILON, gst.DEFAULT_THETA, EXACT, 9, (), False, None)
        parts = [gst._mc_chunk(*chunk_args, lo, hi) for lo, hi in ranges]
        total, total_sq, count = merge_moment_sums(parts)
        mean = total / count
        stderr = math.sqrt(max(total_sq - count * mean * mean, 0.0) / (count - 1) / count)
        est = estimate_g_power_trace(ref3, 2, strategy="mc", budget=budget, rng=9)
        assert (est.value, est.std_error, est.samples) == (mean, stderr, budget)

    def test_enumerate_is_the_chunk_order_reduction(self):
        e = random_ensemble(np.random.default_rng(5), 2, 3)
        ranges = chunk_ranges(3**4, gst._WORD_CHUNK)  # 81 words: 32 + 32 + 17
        assert len(ranges) >= 3 and ranges[-1][1] - ranges[-1][0] < gst._WORD_CHUNK
        chunk_args = (e, 4, gst.DEFAULT_EPSILON, gst.DEFAULT_THETA, EXACT, 0, (), False)
        parts = [gst._enumerate_chunk(*chunk_args, lo, hi) for lo, hi in ranges]
        est = estimate_g_power_trace(e, 4)
        assert (est.value, est.std_error, est.samples) == (sum(parts), 0.0, 3**4)

    def test_mc_shots_mode_label(self, ref3):
        est = estimate_g_power_trace(
            ref3, 1, strategy="mc", budget=50, rng=2, mode=MeasureMode("shots", shots=2000)
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
                    float(np.prod([e.probs[i] for i in w])) * exact_combination_trace(e, w).imag
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
            mode=MeasureMode("gaussian", sigma=1e-4), rng=8,
        )
        assert abs(est.value - 0.650) < 0.05


@st.composite
def gst_words(draw):
    """A small ensemble, a word of length <= 4 over it, a truncation
    threshold, a measure mode and the seed of the word's generator."""
    e = draw(small_ensembles())
    indices = draw(st.lists(st.integers(0, e.alpha - 1), max_size=4))
    epsilon = draw(st.sampled_from([1e-10, 1e-3, 0.2]))
    mode = draw(st.sampled_from(
        [EXACT, MeasureMode("gaussian", sigma=1e-3), MeasureMode("shots", shots=1000)]
    ))
    return e, word(e, *indices), epsilon, mode, draw(st.integers(0, 2**32 - 1))


def _spec(n, *gates):
    return EnsembleSpec(n, np.full(len(gates), 1.0 / len(gates)), gates)


_G = [ProductGate.uniform(1, RotationParams(t, p, l))
      for t, p, l in ((0.3, 0.1, 0.9), (2.1, 0.4, 1.3), (1.2, 2.5, 0.2))]
#: One qubit: one state three times (rank 1 < 2**n <= alpha, so the null
#: eigenvalues of the Gram must embed as exact zeros), and three states that
#: fill the space.
_DUPLICATED = _spec(1, _G[0], _G[0], _G[0])
_FILLING = _spec(1, _G[0], _G[1], _G[2])


class TestSpanStatesMatchDensePath:
    """GST on span_states rows against the dense reference above."""

    @settings(max_examples=150, deadline=None)
    @given(gst_words())
    @example((_DUPLICATED, word(_DUPLICATED, 0, 1, 2), 1e-10, EXACT, 1))
    @example((_FILLING, word(_FILLING, 0, 1), 1e-10, EXACT, 2))
    @example((_FILLING, word(_FILLING, 2, 0, 1, 1), 1e-3, MeasureMode("shots", shots=1000), 3))
    def test_word_pipeline(self, case):
        e, q, epsilon, mode, seed = case
        v = e.span_states
        assert v.shape == (e.alpha, e.alpha + 1 if e.alpha < e.dim else e.dim)
        assert np.max(np.abs(v.conj() @ v.T - e.gram)) < 1e-12

        span = word_outcome(span_word, e, q, epsilon, math.pi / 2, mode, seed)
        dense = word_outcome(dense_word, e, q, epsilon, math.pi / 2, mode, seed)
        assert span.keys() == dense.keys()
        assert span.get("error") == dense.get("error")
        assert span["d"] == dense["d"]
        assert np.allclose(span["discarded"], dense["discarded"], rtol=0, atol=1e-10)
        for key in ("p", "g", "p_aug", "g_aug"):
            if key in span:
                assert np.max(np.abs(span[key] - dense[key]), initial=0.0) < 1e-10
        if "value" in span:
            # The solve amplifies entry rounding (~3e-14 here) by about
            # 1/lambda_min of the Grams, so the bound widens below 0.1.
            lam = min(float(np.linalg.eigvalsh(0.5 * (g + g.T))[0])
                      for g in (dense["g"], dense["g_aug"]) if g.size)
            tol = 1e-10 * max(1.0, 0.1 / lam)
            assert span["value"] == pytest.approx(dense["value"], rel=0, abs=tol)

    @pytest.mark.parametrize("e, indices, mode, error", [
        (_DUPLICATED, (0, 1, 2), EXACT, None),
        (_FILLING, (0, 1), EXACT, "DegenerateAugmentationError"),
        (reference_spec(3), (0, 1, 2), MeasureMode("gaussian", sigma=0.05),
         "IllConditionedGramError"),
    ])
    def test_outcomes(self, e, indices, mode, error):
        q = word(e, *indices)
        for stages in (span_word, dense_word):
            assert word_outcome(stages, e, q, 1e-10, math.pi / 2, mode, 0).get("error") == error


def per_chunk_memo_estimate(e, k, budget, seed):
    """GST Monte Carlo with a memo that lives inside each chunk, as the
    estimator ran before its memo was shared across chunks."""
    parts = []
    for lo, hi in chunk_ranges(budget, gst._WORD_CHUNK):
        memo, total, total_sq = {}, 0.0, 0.0
        for t in range(lo, hi):
            rng = rng_stream(seed, t)
            indices = tuple(int(i) for i in e.component_indices(rng.random(k)))
            if indices not in memo:
                memo[indices] = combination_trace(e, indices).value
            total += memo[indices]
            total_sq += memo[indices] ** 2
        parts.append((total, total_sq, hi - lo))
    total, total_sq, count = merge_moment_sums(parts)
    mean = total / count
    return mean, math.sqrt(max(total_sq - count * mean * mean, 0.0) / (count - 1) / count)


class TestSharedMemo:
    def test_each_distinct_word_is_evaluated_once(self, ref3, monkeypatch):
        k, budget, seed = 3, 400, 11
        drawn = {
            tuple(int(i) for i in ref3.component_indices(rng_stream(seed, t).random(k)))
            for t in range(budget)
        }
        words, est = drawn_words(monkeypatch, ref3, k, budget, seed)
        calls = Counter(words)
        assert set(calls) == drawn and set(calls.values()) == {1}
        assert budget // gst._WORD_CHUNK > 1 and len(drawn) < budget
        assert (est.value, est.std_error) == per_chunk_memo_estimate(ref3, k, budget, seed)


class TestScaleN20:
    def test_enumeration_at_n20_forms_no_statevector(self):
        e = reference_spec(20)
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            est = estimate_g_power_trace(e, 4)
            wall = time.perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        print(f"GST Tr G^4 enumeration at n=20: {wall:.3f} s under tracemalloc")
        assert "states" not in e.__dict__ and "state_matrix" not in e.__dict__
        assert peak < 64 * 2**20
        exact = float(np.sum((1.0 - 2.0 * e.span_eigenvalues) ** 4)) + 2**20 - e.alpha
        assert est.value == pytest.approx(exact, rel=1e-9)
