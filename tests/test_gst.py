import itertools
import json
import math
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from qtrace import (
    EnsembleSpec,
    exact_combination_trace,
    exact_g_power_trace,
    exact_power_trace,
)
from qtrace import cli, gst
from qtrace._parallel import chunk_ranges
from qtrace.errors import (
    DegenerateAugmentationError,
    IdentityViolationError,
    IllConditionedGramError,
    ResourceLimitError,
)
from qtrace.gst import (
    SAME_STATE_OVERLAP,
    augmentation_state,
    build_subspace,
    combination_trace,
    estimate_g_power_trace,
    estimate_power_trace,
    measure_matrices,
    operator_basis_for_states,
    ptm_trace,
)
from qtrace.noise_bounds import EXACT, MeasureMode
from qtrace.qcore import reflect_amplitudes
from qtrace.rng import rng_stream
from qtrace.series import binomial_weights, evaluate_series, mc_estimate

from .conftest import angle_spec, cli_env, random_ensemble, reference_spec, small_ensembles
from .dense_reference import gst_word_moments, per_word_g_power_deficit


def pure_spec(n=3) -> EnsembleSpec:
    return angle_spec(n, [1.0], (0.3, 0.1, 0.9))


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


def noisy_key_matrices(e, q, epsilon=gst.DEFAULT_EPSILON):
    """The noisy key's stages for word q and the exact (p, g) over its
    d^2 preps, the ``sub`` block, then over all (d+1)^2."""
    stages = gst.KeyStages(e, tuple(dict.fromkeys(q)), epsilon, gst.DEFAULT_THETA, exact=False)
    p, g = measure_matrices(e, q, stages.ob_aug)
    block = np.ix_(stages.sub, stages.sub)
    return stages, ((p[block], g[block]), (p, g))


def augmented_traces(e: EnsembleSpec, q: tuple[int, ...]) -> tuple[float, float]:
    """Exact (Tr{R_w}, Tr{R_w'}) over the ``sub`` block of the word's
    operator basis and over all of it."""
    return tuple(ptm_trace(p, g) for p, g in noisy_key_matrices(e, q)[1])


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


def dense_frame_trace(e, q, kets):
    """sum_i <u_i|W|u_i> over an orthonormal frame u of ``kets``' span."""
    frame = np.linalg.qr(np.array(kets).reshape(len(kets), e.dim).T)[0].T
    t = frame
    for idx in reversed(q):
        t = reflect_amplitudes(e.state_matrix[idx], math.pi, t)
    return complex(np.sum(frame.conj() * t))


def dense_word(out, e, q, epsilon, theta, mode, seed):
    """Fill ``out`` stage by stage, in combination_trace's order: d and the
    discarded statistics, p and g, Tr{R_w}, p' and g', then the deficit,
    from the frame of the retained kets in exact mode."""
    rng = np.random.default_rng(seed)
    kets, out["discarded"] = dense_subspace(e, q, epsilon)
    out["d"] = len(kets)
    out["p"], out["g"] = dense_measure(e, q, dense_prep_matrix(e, kets, theta), mode, rng)
    tr_rw = ptm_trace(out["p"], out["g"])
    phi = dense_augmentation_state(e, q, kets)
    aug = dense_prep_matrix(e, [*kets, phi], theta)
    out["p_aug"], out["g_aug"] = dense_measure(e, q, aug, mode, rng)
    tr_aug = ptm_trace(out["p_aug"], out["g_aug"])
    re_tr_w = (dense_frame_trace(e, q, kets).real if mode.is_exact
               else 0.5 * (tr_aug - tr_rw - 1.0))
    out["value"] = re_tr_w - len(kets)


def span_word(out, e, q, epsilon, theta, mode, seed):
    """The same stages through the package, on span_states rows; the value
    comes from combination_trace on a generator with the same seed."""
    rng = np.random.default_rng(seed)
    b = build_subspace(e, q, epsilon)
    out["d"], out["discarded"] = b.d, [stat for _, stat in b.discarded]
    ob = operator_basis_for_states(b.retained, theta)
    out["p"], out["g"] = measure_matrices(e, q, ob, mode, rng)
    ptm_trace(out["p"], out["g"])
    phi = augmentation_state(e, q, b)
    ob = operator_basis_for_states((*b.retained, phi), theta)
    out["p_aug"], out["g_aug"] = measure_matrices(e, q, ob, mode, rng)
    ptm_trace(out["p_aug"], out["g_aug"])
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


def spied_words(monkeypatch):
    """The words ``combination_trace`` evaluates from now on, in call order."""
    words = []
    inner = gst.combination_trace

    def spy(e, q, *args, **kwargs):
        words.append(q)
        return inner(e, q, *args, **kwargs)

    monkeypatch.setattr(gst, "combination_trace", spy)
    return words


def drawn_words(monkeypatch, e, k, budget, seed=0, **kwargs):
    """The words that a GST Monte Carlo estimate (exact mode unless
    ``kwargs`` say otherwise) evaluates, in draw order, and the estimate."""
    words = spied_words(monkeypatch)
    est = estimate_g_power_trace(e, k, strategy="mc", budget=budget, rng=seed, **kwargs)
    monkeypatch.undo()
    return words, est


class TestSampleCombination:
    def test_m_zero_empty(self, ref3, monkeypatch):
        assert drawn_words(monkeypatch, ref3, 0, 50)[0] == [()]

    def test_single_component_all_zero(self, monkeypatch):
        words, _ = drawn_words(monkeypatch, pure_spec(), 6, 50, seed=1)
        assert words == [(0,) * 6]

    def test_weight_is_probability_product(self, ref3):
        # The words of first letter 3 at k = 2 are (3, 0) .. (3, 3), of
        # weights 0.4 * 0.1 .. 0.4 * 0.4.
        part = gst._enumerate_chunk(ref3, 2, gst.DEFAULT_EPSILON, gst.StageCache(), 3, 4)
        want = sum(0.4 * p * combination_trace(ref3, (3, x)).value
                   for x, p in enumerate([0.1, 0.2, 0.3, 0.4]))
        assert part == pytest.approx(want, rel=0, abs=1e-15)

    def test_underflowing_word_weight_contributes_nothing(self):
        # The weight of word (0,) * 11 underflows to 0.0: the word adds
        # nothing to the sum instead of stopping the estimate.
        e = angle_spec(2, [1e-30, 1.0], *([a * math.pi for a in angles]
                                           for angles in ((0.29, 0.07, 0.11), (0.46, 0.62, 0.82))))
        assert 1e-30**11 == 0.0
        est = estimate_g_power_trace(e, 11)
        assert e.dim + est.value == pytest.approx(exact_g_power_trace(e, 11), abs=1e-12)


class TestBuildSubspace:
    def test_orthogonal_states_both_retained(self):
        e = angle_spec(1, [0.5, 0.5], (0, 0, 0), (math.pi, 0, math.pi))
        b = build_subspace(e, word(e, 0, 1), 0.9)
        assert b.d == 2 and not b.discarded

    def test_duplicate_index_skipped(self, ref3):
        b = build_subspace(ref3, word(ref3, 1, 1, 1), 1e-10)
        assert b.d == 1 and not b.discarded

    def test_physical_duplicate_merged_not_truncated(self):
        e = angle_spec(2, [0.5, 0.5], (0.4, 0.8, 1.0), (0.4, 0.8, 1.0))
        b = build_subspace(e, word(e, 0, 1), 1e-10)
        assert b.d == 1 and not b.discarded

    def test_admission_statistic_at_known_overlap(self):
        # |<psi1|psi2>| = 0.6 gives |Delta|^2 = 0.64 and statistic
        # (0.64 / 1.36)^2; cross-checked against the 2-state Hilbert-Schmidt
        # Gram spectrum {1, a, a, a^2}.
        theta = 2 * math.acos(0.6)
        e = angle_spec(1, [0.5, 0.5], (0, 0, 0), (theta, 0, 0))
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
            m.setattr(gst, "check_theta", lambda theta: None)
            ob_pi = operator_basis_for_states(b.retained, math.pi)
        _, g_pi = measure_matrices(ref3, q, ob_pi)
        assert np.linalg.eigvalsh(0.5 * (g_pi + g_pi.T)).min() < 1e-10

        ob_half = operator_basis_for_states(b.retained, math.pi / 2)
        _, g_half = measure_matrices(ref3, q, ob_half)
        assert np.linalg.eigvalsh(0.5 * (g_half + g_half.T)).min() > 0


class TestMeasureMatrices:
    def test_gram_diagonal_is_one(self, ref3):
        q = word(ref3, 0, 3)
        b = build_subspace(ref3, q, 1e-10)
        _, g = measure_matrices(ref3, q, operator_basis_for_states(b.retained, math.pi / 2))
        assert np.allclose(np.diag(g), 1.0, atol=1e-12)

    def test_d1_eigenstate_word(self):
        e = pure_spec()
        q = word(e, 0, 0, 0)
        b = build_subspace(e, q, 1e-10)
        p, _ = measure_matrices(e, q, operator_basis_for_states(b.retained, math.pi / 2))
        assert p[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_exact_entries_match_dense_channel(self, ref3):
        q = word(ref3, 1, 3)
        b = build_subspace(ref3, q, 1e-10)
        p, _ = measure_matrices(ref3, q, operator_basis_for_states(b.retained, math.pi / 2))
        op = dense_word_operator(ref3, q)
        kets, _ = dense_subspace(ref3, q, 1e-10)
        s = dense_prep_matrix(ref3, kets, math.pi / 2)
        assert len(s) == len(p)
        for r in range(len(s)):
            for c in range(len(s)):
                rho_r = np.outer(s[r], s[r].conj())
                rho_c = np.outer(s[c], s[c].conj())
                expected = np.trace(rho_r @ op @ rho_c @ op.conj().T).real
                assert p[r, c] == pytest.approx(expected, abs=1e-10)

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
        exact, _ = measure_matrices(ref3, q, ob)
        noisy, _ = measure_matrices(ref3, q, ob, MeasureMode("shots", shots=200),
                                    np.random.default_rng(3))
        assert np.all(noisy * 200 == np.round(noisy * 200))
        assert np.max(np.abs(noisy - exact)) < 0.2

    def test_gaussian_mode_perturbs_without_clamping(self, ref3):
        q = word(ref3, 0, 1)
        b = build_subspace(ref3, q, 1e-10)
        ob = operator_basis_for_states(b.retained, math.pi / 2)
        _, noisy = measure_matrices(ref3, q, ob, MeasureMode("gaussian", sigma=0.1),
                                    np.random.default_rng(4))
        _, exact = measure_matrices(ref3, q, ob)
        delta = noisy - exact
        assert np.max(np.abs(delta)) > 0
        # diagonal g entries (exactly 1) may exceed 1 after noise: no clamping
        assert noisy.max() > 1.0

    def test_non_unit_prep_state_breaks_the_gram_identity(self, ref3):
        # The diagonal |<chi|chi>|^2 = 1.1^4 leaves [0, 1] when the basis
        # builds its Gram.
        with pytest.raises(IdentityViolationError, match="exact-mode g") as err:
            operator_basis_for_states([1.1 * ref3.span_states[0]], math.pi / 2)
        assert isinstance(err.value, ArithmeticError)
        assert err.value.statistic == pytest.approx(1.1**4, rel=1e-12)

    def test_exact_p_above_one_breaks_the_identity(self, ref3, monkeypatch):
        q = word(ref3, 0, 1)
        ob = operator_basis_for_states(build_subspace(ref3, q, 1e-10).retained, math.pi / 2)
        monkeypatch.setattr(gst, "apply_word", lambda e, indices, block: 1.1 * block)
        with pytest.raises(IdentityViolationError, match="exact-mode p") as err:
            measure_matrices(ref3, q, ob)
        assert err.value.statistic > 1.0
        # Noisy p is a measurement, not an identity: it is not checked.
        measure_matrices(ref3, q, ob, MeasureMode("gaussian", sigma=0.0), np.random.default_rng(0))


class TestPtmTrace:
    def test_trivial_one_by_one(self):
        assert ptm_trace(np.array([[1.0]]), np.array([[1.0]])) == pytest.approx(1.0, abs=1e-12)

    def test_single_component_word_norm_one(self):
        e = pure_spec()
        for k in (1, 2, 3):
            q = word(e, *([0] * k))
            b = build_subspace(e, q, 1e-10)
            p, g = measure_matrices(e, q, operator_basis_for_states(b.retained, math.pi / 2))
            assert ptm_trace(p, g) == pytest.approx(1.0, abs=1e-10)

    def test_matches_dense_restriction(self, ref3):
        for indices in ((0, 1), (2, 3), (1, 2, 3)):
            q = word(ref3, *indices)
            b = build_subspace(ref3, q, 1e-10)
            p, g = measure_matrices(ref3, q, operator_basis_for_states(b.retained, math.pi / 2))
            expected = abs(restricted_trace(ref3, q)) ** 2
            assert ptm_trace(p, g) == pytest.approx(expected, abs=1e-8)

    def test_gauge_invariance_under_prep_permutation(self, ref3):
        q = word(ref3, 0, 1, 3)
        b = build_subspace(ref3, q, 1e-10)
        p, g = measure_matrices(ref3, q, operator_basis_for_states(b.retained, math.pi / 2))
        base = ptm_trace(p, g)
        rng = np.random.default_rng(5)
        for _ in range(5):
            perm = np.ix_(*[rng.permutation(len(p))] * 2)
            assert ptm_trace(p[perm], g[perm]) == pytest.approx(base, abs=1e-8)

    def test_ill_conditioned_gram_raises_with_eigenvalue(self):
        p = np.eye(2)
        g = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(IllConditionedGramError) as err:
            ptm_trace(p, g)
        assert err.value.min_eigenvalue < 1e-10

    def test_pseudoinverse_opt_in(self):
        p = np.eye(2)
        g = np.array([[1.0, 1.0], [1.0, 1.0]])
        value = ptm_trace(p, g, allow_pseudoinverse=True)
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
            tr_rw, tr_aug = augmented_traces(e, q)
            w = restricted_trace(e, q)
            assert tr_rw == pytest.approx(abs(w) ** 2, abs=1e-8)
            assert tr_aug == pytest.approx(abs(w + 1.0) ** 2, abs=1e-8)

    def test_single_component_odd_word(self):
        # w = -1: Tr{R_w} = 1, Tr{R_w'} = |-1 + 1|^2 = 0.
        e = pure_spec()
        q = word(e, 0, 0, 0)
        tr_rw, tr_aug = augmented_traces(e, q)
        assert tr_rw == pytest.approx(1.0, abs=1e-9)
        assert tr_aug == pytest.approx(0.0, abs=1e-9)

    def test_single_component_even_word(self):
        # w = +1: Tr{R_w'} = |1 + 1|^2 = 4.
        e = pure_spec()
        q = word(e, 0, 0)
        tr_rw, tr_aug = augmented_traces(e, q)
        assert tr_rw == pytest.approx(1.0, abs=1e-9)
        assert tr_aug == pytest.approx(4.0, abs=1e-9)

    def test_augmentation_at_n16_probes_lazily(self):
        # Component 0 is |+>^n, the uniform-amplitude probe itself, so the
        # dense reference's probe search moves on to e_0.  The package's
        # augmentation state, a singular vector on span_states rows, probes
        # nothing and forms no 2**n vector.
        n = 16
        e = angle_spec(n, [0.5, 0.5], (math.pi / 2, 0, 0), (0.7, 0.4, 0.1))
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
        e = angle_spec(1, [0.5, 0.5], (0, 0, 0), (math.pi / 2, 0, 0))
        q = word(e, 0, 1)
        b = build_subspace(e, q, 1e-10)
        with pytest.raises(DegenerateAugmentationError, match="span"):
            augmentation_state(e, q, b)


class TestCombinationTrace:
    def test_empty_word_is_dimension(self, ref3):
        # Tr{I} = 2^n: the deficit Tr{W} - 2^n is 0.
        ct = combination_trace(ref3, word(ref3))
        assert (ct.d, ct.tr_rw, ct.re_tr_w, ct.value) == (0, 0.0, 0.0, 0.0)

    def test_single_component_k2(self):
        # G_0^2 = I: Tr{W} = 2^n, deficit 0.
        e = pure_spec()
        ct = combination_trace(e, word(e, 0, 0))
        assert (ct.d, round(ct.re_tr_w, 14)) == (1, 1.0)
        assert ct.value == pytest.approx(0.0, abs=1e-14)

    def test_single_component_k3(self):
        # G_0^3 = G_0: Tr{W} = 2^n - 2.
        e = pure_spec()
        ct = combination_trace(e, word(e, 0, 0, 0))
        assert ct.re_tr_w == pytest.approx(-1.0, abs=1e-14)
        assert ct.value == pytest.approx(-2.0, abs=1e-14)

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

    def test_matches_oracle_across_random_words(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            e = random_ensemble(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)))
            k = int(rng.integers(0, 5))
            q = word(e, *rng.integers(0, e.alpha, size=k))
            ct = combination_trace(e, q)
            assert ct.value == pytest.approx(
                exact_combination_trace(e, q).real - e.dim, abs=1e-7
            )


@st.composite
def exact_words(draw):
    """A small ensemble, a word of length <= 4 over it and a truncation
    threshold."""
    e = draw(small_ensembles())
    indices = draw(st.lists(st.integers(0, e.alpha - 1), max_size=4))
    return e, word(e, *indices), draw(st.sampled_from([1e-10, 1e-3]))


def _refuse_tomography(*args, **kwargs):
    raise AssertionError("exact mode ran the simulated tomography")


class TestExactFrameTrace:
    @settings(max_examples=150, deadline=None)
    @given(exact_words())
    def test_equals_noiseless_tomography(self, case):
        # The tomography's rounding grows like 1e-16 / lambda^2, lambda the
        # least eigenvalue of the two Gram blocks: over 5,600 cases
        # of this grid its distance to the frame trace reached 2.4x that, and
        # 1.2e-8 absolute.  Re Tr w exceeded d by at most 1.1e-14.
        e, q, epsilon = case
        try:
            stages, blocks = noisy_key_matrices(e, q, epsilon)
            tr_rw, tr_aug = (ptm_trace(p, g) for p, g in blocks)
        except (DegenerateAugmentationError, IllConditionedGramError):
            reject()
        ct = combination_trace(e, q, epsilon)
        lam = min(float(np.linalg.eigvalsh(g)[0]) for _, g in blocks if g.size)
        tol = 1e-13 + 1e-15 / lam**2
        assert ct.tr_rw == pytest.approx(tr_rw, rel=0, abs=tol)
        assert ct.re_tr_w == pytest.approx(0.5 * (tr_aug - tr_rw - 1.0), rel=0, abs=tol)
        assert ct.value == ct.re_tr_w - ct.d
        if not stages.b.discarded:
            assert ct.re_tr_w <= ct.d + 1e-13

    def test_exact_estimates_run_no_tomography(self, ref3, monkeypatch):
        expected = [estimate_g_power_trace(ref3, 4),
                    estimate_g_power_trace(ref3, 4, strategy="mc", budget=300, rng=2)]
        for name in ("operator_basis_for_states", "measure_matrices", "ptm_trace"):
            monkeypatch.setattr(gst, name, _refuse_tomography)
        assert [estimate_g_power_trace(ref3, 4),
                estimate_g_power_trace(ref3, 4, strategy="mc", budget=300, rng=2)] == expected


class TestEstimateGPowerTrace:
    def test_k0(self, ref3):
        # Estimates are deficits Tr{G^k} - 2^n; Tr{G^0} = 2^n.
        est = estimate_g_power_trace(ref3, 0)
        assert (est.value, est.mode) == (0.0, "exact-enumeration")

    def test_reference_k2(self, ref3):
        est = estimate_g_power_trace(ref3, 2)
        assert round(8 + est.value, 3) == 6.600

    def test_reference_k3(self, ref3):
        est = estimate_g_power_trace(ref3, 3)
        assert abs(8 + est.value - 5.912) <= 0.005
        assert est.value == pytest.approx(exact_g_power_trace(ref3, 3) - 8, abs=1e-14)

    @pytest.mark.parametrize("n", [3, 10, 20])
    def test_table1_deficits_match_the_oracle(self, n):
        # Untruncated, Tr{G^k} - 2^n = sum_i (1 - 2 lambda_i)^k - alpha over
        # the span eigenvalues; the frame traces met it to 2.2e-15.
        e = reference_spec(n)
        for k in range(8):
            oracle = float(np.sum((1.0 - 2.0 * e.span_eigenvalues) ** k)) - e.alpha
            assert estimate_g_power_trace(e, k).value == pytest.approx(oracle, rel=0, abs=1e-13)

    @pytest.mark.parametrize("n", [12, 16, 20])
    def test_random_ensembles_below_the_operator_basis_floor(self, n):
        # Exact mode solves no operator-basis Gram, so it no longer stops at
        # the 1e-8 conditioning floor: with that exit, 2, 9 and 9 of these
        # ensembles (20 of the 30) raised IllConditionedGramError at n = 12,
        # 16 and 20.  The oracle is the span eigenvalue sum; subtracting 2^n
        # from exact_g_power_trace would alone cost about 1e-10 at n = 20.
        for seed in range(10):
            e = random_ensemble(np.random.default_rng(seed), n, 4)
            oracle = float(np.sum((1.0 - 2.0 * e.span_eigenvalues) ** 2)) - e.alpha
            assert estimate_g_power_trace(e, 2).value == pytest.approx(oracle, rel=0, abs=1e-13)

    def test_enumeration_budget(self, ref3, monkeypatch):
        # The 64 keys of k >= 4 take k key-steps each: k = 4 fills a cap of
        # 256 and k = 5 exceeds it.  The Monte Carlo budget plays no part.
        monkeypatch.setattr(gst, "ENUMERATION_CAP", 256)
        assert estimate_g_power_trace(ref3, 4, budget=1).samples == 4**4
        with pytest.raises(ResourceLimitError) as err:
            estimate_g_power_trace(ref3, 5, budget=10**9)
        assert (err.value.requested, err.value.cap) == (320, 256)

    def test_mc_converges(self, ref3):
        est = estimate_g_power_trace(ref3, 2, strategy="mc", budget=600, rng=3)
        exact = exact_g_power_trace(ref3, 2) - 8
        assert abs(est.value - exact) < 4 * est.std_error + 1e-6
        assert est.mode == "mc-exact-prob"

    @pytest.mark.parametrize("epsilon", [1e-3, 0.05])
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_truncated_mc_converges_to_enumeration(self, ref3, k, epsilon):
        # A draw takes its own word's value, which enumeration weighs too, so
        # under truncation both estimate one sum.  Given the value of its
        # bracelet class's least member instead, the k = 3 and k = 5 draws at
        # epsilon = 0.05 missed the enumerated value by 26 and 39 std_errors.
        want = estimate_g_power_trace(ref3, k, epsilon=epsilon).value
        est = estimate_g_power_trace(ref3, k, "mc", 20_000, epsilon=epsilon, rng=k)
        assert abs(est.value - want) <= 5 * est.std_error

    def test_mc_is_the_chunk_order_reduction(self, ref3):
        budget = 300  # nine full chunks and a partial tenth
        ranges = chunk_ranges(budget, gst._WORD_CHUNK)
        assert len(ranges) >= 3 and ranges[-1][1] - ranges[-1][0] < gst._WORD_CHUNK
        # Each chunk's stream draws its words, then each word's noise in draw
        # order; every draw takes its own word's value.
        for mode in (EXACT, MeasureMode("gaussian", sigma=1e-3)):
            est = estimate_g_power_trace(ref3, 2, strategy="mc", budget=budget, rng=9,
                                         mode=mode, allow_pseudoinverse=True)
            assert est.samples == budget
            assert_matches_reference(est, chunk_stream_estimate(ref3, 2, budget, 9, mode))

    def test_mc_at_word_widths_zero_and_one(self, ref3):
        # Every word of width 0 is the identity and every word of width 1 one
        # reflection, so each draw's deficit is Tr{I} - 2^n = 0 or
        # Tr{G_q} - 2^n = -2.  The width-1 draws scatter by an ulp about -2,
        # which the std_error shows.  At that scale the rounding of the chunk
        # means is the size of the spread itself, so the std_error is checked
        # against the same chunk-order merge of the reference's per-chunk
        # (count, sum, M2), and against the exact rational std_error to
        # ulp(2) / sqrt(70) (measured 4.1e-17 off at k = 1).
        for k, value in ((0, 0.0), (1, -2.0)):
            est = estimate_g_power_trace(ref3, k, strategy="mc", budget=70, rng=5)
            chunks = chunk_values(ref3, k, 70, 5)
            parts = [(len(c), sum(c), math.fsum((v - sum(c) / len(c)) ** 2 for v in c))
                     for c in chunks]
            merged = mc_estimate(parts, est.mode)
            assert (est.value, est.samples) == (merged.value, 70)
            assert est.value == pytest.approx(value, rel=0, abs=1e-15)
            assert est.std_error == pytest.approx(merged.std_error, rel=1e-12)
            x = [Fraction(v) for c in chunks for v in c]
            mean = sum(x) / len(x)
            exact = math.sqrt(sum((v - mean) ** 2 for v in x) / (len(x) - 1) / len(x))
            assert abs(est.std_error - exact) <= math.ulp(2.0) / math.sqrt(70)
        assert est.std_error > 0.0

    def test_mc_std_error_keeps_its_digits_near_2_to_the_n(self):
        # Tr{G^2} draws are deficits Tr{W} - 2^20, so 2^20 enters neither the
        # mean nor the variance.
        e = reference_spec(20)
        est = estimate_g_power_trace(e, 2, strategy="mc", budget=2000, rng=7)
        mean, stderr = chunk_stream_estimate(e, 2, 2000, 7)
        assert est.value == mean == -2.4654858000923308
        assert est.std_error == pytest.approx(stderr, rel=1e-12)

    def test_enumerate_is_the_chunk_order_reduction(self):
        # 40 first letters: chunks 0..31 and 32..39.
        e = random_ensemble(np.random.default_rng(5), 6, 40)
        ranges = chunk_ranges(e.alpha, gst._WORD_CHUNK)
        assert len(ranges) == 2 and ranges[-1][1] - ranges[-1][0] < gst._WORD_CHUNK
        cache = gst.StageCache()
        parts = [gst._enumerate_chunk(e, 2, gst.DEFAULT_EPSILON, cache, lo, hi)
                 for lo, hi in ranges]
        est = estimate_g_power_trace(e, 2)
        assert (est.value, est.std_error, est.samples) == (sum(parts), 0.0, 40**2)

    @pytest.mark.parametrize("estimate", [estimate_g_power_trace, estimate_power_trace])
    @pytest.mark.parametrize("mode", [MeasureMode("shots", shots=100),
                                      MeasureMode("gaussian", sigma=1e-3)])
    def test_enumeration_requires_exact_mode(self, ref3, estimate, mode):
        # Noisy entries under exact weights would report a zero std_error;
        # the mode check comes before the cap check.
        with pytest.raises(ValueError, match="enumerate strategy requires exact mode"):
            estimate(ref3, 3, budget=1, mode=mode, allow_pseudoinverse=True)

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


class TestWordSigma:
    """Exact GST Monte Carlo's per-draw spread against ``gst_word_moments``."""

    def test_table1_moments(self):
        e = cli.load_config("table1").spec
        mean, sigma, m4 = gst_word_moments(e, 4)
        assert mean == pytest.approx(exact_g_power_trace(e, 4), rel=1e-14)
        assert (sigma, m4 / sigma**4) == pytest.approx((1.264829, 2.074875), abs=1e-6)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_std_error_matches_sigma(self, capsys, seed):
        # The sample standard deviation s = std_error * sqrt(T) of T draws
        # has variance (mu_4 - sigma^4) / (4 sigma^2 T) to first order, 0.37%
        # of sigma at T = 20,000 with table1's kurtosis of 2.07.
        trials = 20_000
        _, sigma, m4 = gst_word_moments(cli.load_config("table1").spec, 4)
        sd = math.sqrt((m4 - sigma**4) / (4.0 * sigma**2 * trials))
        argv = ["gst", "--g-power", "4", "--strategy", "mc", "--trials", str(trials),
                "--seed", str(seed), "--format", "json"]
        assert cli.main(argv) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert abs(row["std_error"] * math.sqrt(trials) - sigma) < 5.0 * sd, row


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

    def test_enumeration_checks_every_k_before_the_first_estimate(self, ref3, monkeypatch):
        # No k of 0..6 takes over 6 * 64 = 384 key-steps, but together they
        # take 1*4 + 2*16 + 3*40 + (4 + 5 + 6)*64 = 1,116, over the cap.
        def spy(*args, **kwargs):
            raise AssertionError("Tr{G^k} was estimated before the cap check")

        monkeypatch.setattr(gst, "ENUMERATION_CAP", 1000)
        monkeypatch.setattr(gst, "estimate_g_power_trace", spy)
        with pytest.raises(ResourceLimitError) as err:
            estimate_power_trace(ref3, 6)
        assert (err.value.requested, err.value.cap) == (1116, 1000)

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


def _spec(n, *components):
    return angle_spec(n, np.full(len(components), 1.0 / len(components)), *components)


_G = [(0.3, 0.1, 0.9), (2.1, 0.4, 1.3), (1.2, 2.5, 0.2)]
#: One qubit: one state three times (rank 1 < 2**n <= alpha, so the null
#: eigenvalues of the Gram must embed as exact zeros), and three states that
#: fill the space.
_DUPLICATED = _spec(1, _G[0], _G[0], _G[0])
_FILLING = _spec(1, _G[0], _G[1], _G[2])


#: Exact mode: the span and dense frame traces agree to this, whatever the
#: Grams' conditioning.
EXACT_FRAME_TOL = 1e-12


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
            # The noisy modes' solve amplifies entry rounding (~3e-14 here) by
            # about 1/lambda_min of the Grams, so the bound widens below 0.1.
            lam = min(float(np.linalg.eigvalsh(0.5 * (g + g.T))[0])
                      for g in (dense["g"], dense["g_aug"]) if g.size)
            tol = EXACT_FRAME_TOL if mode.is_exact else 1e-10 * max(1.0, 0.1 / lam)
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


def orbit(q):
    """The words that rotations and reversal make of ``q``."""
    return frozenset(s[i:] + s[:i] for s in (q, q[::-1]) for i in range(max(len(q), 1)))


def word_sum(e, k, epsilon=gst.DEFAULT_EPSILON):
    """Tr{G^k} as the P_q-weighted sum of every one of the alpha**k words'
    own values, and those values."""
    values = {q: combination_trace(e, q, epsilon).value
              for q in itertools.product(range(e.alpha), repeat=k)}
    total = math.fsum(float(np.prod([e.probs[i] for i in q])) * v for q, v in values.items())
    return total, values


def chunk_words(e, k, budget, seed):
    """(stream, words) of each GST Monte Carlo chunk in chunk order: the
    chunk's one stream after it has drawn the chunk's words."""
    for lo, hi in chunk_ranges(budget, gst._WORD_CHUNK):
        rng = rng_stream(seed, lo)
        words = e.component_indices(rng.random((hi - lo, k)))
        yield rng, [tuple(int(i) for i in w) for w in words]


def chunk_values(e, k, budget, seed, mode=EXACT):
    """Each GST Monte Carlo chunk's draw values, rebuilt from its stream with
    a pseudo-inverse solve: each draw's own word, evaluated on the chunk's
    stream in draw order."""
    return [[combination_trace(e, q, mode=mode, rng=rng, allow_pseudoinverse=True).value
             for q in words]
            for rng, words in chunk_words(e, k, budget, seed)]


def chunk_stream_estimate(e, k, budget, seed, mode=EXACT):
    """(mean, std_error) of GST Monte Carlo rebuilt by ``chunk_values``.  The
    mean adds each chunk's left-to-right sum in chunk order; the std_error is
    numpy's two-pass variance over all draws."""
    chunks = chunk_values(e, k, budget, seed, mode)
    x = np.concatenate(chunks)
    return sum(sum(c) for c in chunks) / x.size, math.sqrt(np.var(x, ddof=1) / x.size)


def assert_matches_reference(est, reference):
    """The mean exactly, the std_error to 1e-12 relative."""
    mean, stderr = reference
    assert est.value == mean
    assert est.std_error == pytest.approx(stderr, rel=1e-12)


class TestSharedMemo:
    def test_each_distinct_word_is_evaluated_once(self, ref3, monkeypatch):
        # One memo serves every chunk: a word is evaluated at its first draw.
        k, budget, seed = 3, 400, 11
        drawn = [q for _, words in chunk_words(ref3, k, budget, seed) for q in words]
        words, est = drawn_words(monkeypatch, ref3, k, budget, seed)
        assert words == list(dict.fromkeys(drawn))
        assert budget // gst._WORD_CHUNK > 1 and len(words) < budget
        assert_matches_reference(est, chunk_stream_estimate(ref3, k, budget, seed))

    def test_noisy_draws_evaluate_their_own_words(self, ref3, monkeypatch):
        # Shots mode draws noise per word, so no draw reuses a value.
        budget, seed = 100, 4
        words, _ = drawn_words(monkeypatch, ref3, 3, budget, seed, epsilon=1e-3,
                               mode=MeasureMode("shots", shots=10**6), allow_pseudoinverse=True)
        assert words == [q for _, chunk in chunk_words(ref3, 3, budget, seed) for q in chunk]


@st.composite
def class_cases(draw):
    """A random ensemble with alpha <= 4 components on n <= 3 qubits, alpha
    below 2^n so an augmentation state exists, and a power k <= 5."""
    n = draw(st.integers(1, 3))
    alpha = draw(st.integers(1, min(4, 2**n - 1)))
    e = random_ensemble(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, alpha)
    return e, draw(st.integers(0, 5))


class TestWordClasses:
    """Bracelet classes: a word's rotations and the rotations of its reversal
    share Re Tr{W} and P_q.  The test-local ``orbit`` forms a class, and the
    invariance check below groups words by it."""

    @pytest.mark.parametrize("k, count", [(4, 55), (5, 136), (6, 430), (7, 1300),
                                          (8, 4435), (9, 15084)])
    def test_burnside_counts(self, k, count):
        # The classes of the 4^k words, counted by Burnside's lemma.
        assert len({orbit(q) for q in itertools.product(range(4), repeat=k)}) == count

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("k", range(7))
    def test_partition_of_every_word(self, alpha, k):
        words = list(itertools.product(range(alpha), repeat=k))
        orbits = {orbit(q) for q in words}
        assert all(q in orbit(q) and all(orbit(p) == orbit(q) for p in orbit(q)) for q in words)
        assert sum(len(o) for o in orbits) == len(words)

    def test_edge_cases(self):
        assert orbit(()) == {()}
        assert orbit((2,)) == {(2,)}
        assert min(orbit((2, 0, 1))) == min(orbit((1, 0, 2))) == (0, 1, 2)

    def test_g_power_6_evaluates_no_word(self, monkeypatch, capsys):
        words = spied_words(monkeypatch)
        assert cli.main(["gst", "--g-power", "6"]) == 0
        capsys.readouterr()
        assert words == []

    @settings(max_examples=60, deadline=None)
    @given(class_cases())
    def test_class_sum_equals_word_sum(self, case):
        e, k = case
        total, values = word_sum(e, k)
        # Values are deficits Tr{W} - 2^n from each word's exact frame trace,
        # whose rounding does not grow as the Grams near singularity.  Over
        # 5,500 cases of this grid the three differences below reached
        # 3.6e-15, 1.3e-15 and 5.8e-15.
        tol = 5e-14
        for q, value in values.items():
            assert value == pytest.approx(values[min(orbit(q))], rel=0, abs=tol)
        est = estimate_g_power_trace(e, k)
        assert est.value == pytest.approx(total, rel=0, abs=tol)
        assert est.value == pytest.approx(exact_g_power_trace(e, k) - e.dim, rel=0, abs=tol)

    @pytest.mark.parametrize("k", [4, 5])
    def test_truncated_bias(self, ref3, k):
        # Under truncation a class member and its representative may retain
        # different states (admission follows first occurrence); enumeration
        # gives every word its own value, so its bias is the word sum's:
        # 6.79e-3 at k = 4 and 6.68e-3 at k = 5, where 110 of 256 and 570 of
        # 1,024 words truncate.
        oracle = exact_g_power_trace(ref3, k)
        word_bias = abs(word_sum(ref3, k, epsilon=1e-3)[0] - oracle)
        enumerated_bias = abs(estimate_g_power_trace(ref3, k, epsilon=1e-3).value - oracle)
        assert word_bias > 1e-3
        assert enumerated_bias == pytest.approx(word_bias, rel=0, abs=1e-13)


@st.composite
def walk_cases(draw):
    """A small ensemble and a power k with at most 1,024 words."""
    e = draw(small_ensembles())
    max_k = 12 if e.alpha == 1 else int(math.log(1024, e.alpha) + 1e-9)
    return e, draw(st.integers(0, min(max_k, 6)))


class TestKeyWalk:
    """Exact enumeration walks keys; it must equal the sum of every word's
    own value, with and without truncation."""

    @settings(max_examples=100, deadline=None)
    @given(walk_cases(), st.sampled_from([gst.DEFAULT_EPSILON, 1e-3, 0.05]))
    @example((_FILLING, 3), gst.DEFAULT_EPSILON)
    @example((_DUPLICATED, 4), 0.05)
    def test_walk_equals_the_per_word_sum(self, case, epsilon):
        e, k = case
        try:
            want = per_word_g_power_deficit(e, k, epsilon)
        except DegenerateAugmentationError:
            with pytest.raises(DegenerateAugmentationError):
                estimate_g_power_trace(e, k, epsilon=epsilon)
            return
        est = estimate_g_power_trace(e, k, epsilon=epsilon)
        assert est.value == pytest.approx(want, rel=0, abs=1e-12)
        assert (est.std_error, est.samples) == (0.0, e.alpha**k)

    @settings(max_examples=50, deadline=None)
    @given(walk_cases())
    def test_cap_charges_the_walks_key_steps(self, case):
        # The walk admits each key of 1..k letters once, as a child of its
        # prefix key; the cap charges k key-steps for each.
        e, k = case
        keys = []
        admit = gst._admit

        def spy(spec, b, indices, epsilon):
            keys.extend(indices)
            return admit(spec, b, indices, epsilon)

        with mock.patch.object(gst, "_admit", spy):
            try:
                estimate_g_power_trace(e, k)
            except DegenerateAugmentationError:
                reject()
        assert len(keys) == sum(math.perm(e.alpha, i) for i in range(1, min(k, e.alpha) + 1))
        with mock.patch.object(gst, "ENUMERATION_CAP", k * len(keys)):
            gst.check_enumeration_budget(e.alpha, [range(k, k + 1)])
        if keys:
            with mock.patch.object(gst, "ENUMERATION_CAP", k * len(keys) - 1), \
                    pytest.raises(ResourceLimitError) as err:
                gst.check_enumeration_budget(e.alpha, [range(k, k + 1)])
            assert err.value.requested == k * len(keys)

    @settings(max_examples=50, deadline=None)
    @given(walk_cases())
    def test_cap_charges_the_walks_coefficients(self, case):
        # A key of i < k letters holds its children's (k + 1) (i + 1)^2
        # coefficients while they are walked, so a path holds one block per
        # depth; the cap charges the largest block of each depth.
        e, k = case
        blocks = {}
        zeros = np.zeros

        def spy(shape, *args, **kwargs):
            if isinstance(shape, tuple) and len(shape) == 4:
                blocks[shape[2]] = max(blocks.get(shape[2], 0), math.prod(shape))
            return zeros(shape, *args, **kwargs)

        with mock.patch.object(gst.np, "zeros", spy):
            try:
                estimate_g_power_trace(e, k)
            except DegenerateAugmentationError:
                reject()
        held = sum(blocks.values())
        with mock.patch.object(gst, "ENUMERATION_VALUES_CAP", held):
            gst.check_enumeration_budget(e.alpha, [range(k, k + 1)])
        if held:
            with mock.patch.object(gst, "ENUMERATION_VALUES_CAP", held - 1), \
                    pytest.raises(ResourceLimitError) as err:
                gst.check_enumeration_budget(e.alpha, [range(k, k + 1)])
            assert err.value.requested == held

    @pytest.mark.parametrize("alpha, k", [(1, 10_000), (4, 500)])
    def test_walk_memory_follows_its_coefficients(self, ref3, alpha, k):
        # The charged coefficients, 16 bytes each, bound the walk's peak
        # allocations to within a factor of 3: one component adds three
        # float arrays of k + 1 entries to its one complex block.
        e = ref3 if alpha == 4 else pure_spec()
        held = (k + 1) * sum((e.alpha - i) * (i + 1) ** 2 for i in range(min(k, e.alpha)))
        tracemalloc.start()
        try:
            estimate_g_power_trace(e, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 16 * held < peak < 3 * 16 * held

    def test_walk_builds_each_frame_once(self, ref3, monkeypatch):
        # One frame per pair of letter set and retained set: at epsilon =
        # 1e-3 the 65 keys of k = 4 have 16 letter sets and need 20 frames,
        # and a second estimate on the same cache builds none.
        calls = stage_calls(monkeypatch)
        cache = gst.StageCache()
        estimate_g_power_trace(ref3, 4, epsilon=1e-3, cache=cache)
        assert calls["_exact_frame"] == len(cache._frames) == 20
        estimate_g_power_trace(ref3, 4, epsilon=1e-3, cache=cache)
        assert calls["_exact_frame"] == 20


@st.composite
def gst_word_lists(draw):
    """A small ensemble, up to six words of length <= 4 over it, and per word
    a measure mode, the pseudo-inverse flag and the seed of its generator."""
    e = draw(small_ensembles())
    calls = draw(st.lists(st.tuples(
        st.lists(st.integers(0, e.alpha - 1), max_size=4).map(lambda q: word(e, *q)),
        st.sampled_from([EXACT, MeasureMode("gaussian", sigma=1e-3),
                         MeasureMode("shots", shots=1000)]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    ), min_size=1, max_size=6))
    return e, draw(st.sampled_from([1e-10, 1e-3, 0.2])), calls


def word_result(e, q, epsilon, mode, pinv, seed, cache=None):
    """combination_trace's result, or the type and message of its GST error."""
    try:
        return combination_trace(e, q, epsilon, gst.DEFAULT_THETA, mode,
                                 np.random.default_rng(seed), pinv, cache)
    except (DegenerateAugmentationError, IllConditionedGramError, IdentityViolationError) as err:
        return type(err), str(err)


def stage_calls(monkeypatch):
    """Counts of build_subspace, operator_basis_for_states,
    augmentation_state and _exact_frame calls from now on."""
    calls = Counter()
    for name in ("build_subspace", "operator_basis_for_states", "augmentation_state",
                 "_exact_frame"):
        def spy(*args, _inner=getattr(gst, name), _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(gst, name, spy)
    return calls


#: Two components 2.8e-4 apart at n = 2: below epsilon = 1e-30 nothing is
#: truncated, and the exact d = 2 Gram of word (0, 1) is numerically singular.
_NEAR_TWINS = angle_spec(2, [0.5, 0.5], *(
    (t * math.pi, 0.0, 0.0) for t in (0.30, 0.30 + 2.0 * math.sqrt(2.0) * 1e-4 / math.pi)
))


class TestStageCache:
    @settings(max_examples=150, deadline=None)
    @given(gst_word_lists())
    @example((_FILLING, 1e-10, [(word(_FILLING, 0, 1), EXACT, False, 0),
                                (word(_FILLING, 1, 0, 0), EXACT, True, 1)]))
    @example((_NEAR_TWINS, 1e-30, [(word(_NEAR_TWINS, 0, 1), EXACT, True, 0),
                                   (word(_NEAR_TWINS, 1, 0), EXACT, False, 1),
                                   (word(_NEAR_TWINS, 0, 1, 1), EXACT, True, 2)]))
    def test_cached_words_equal_uncached(self, case):
        # One cache across every word, mode and pinv flag of the example; the
        # second pass in reverse order serves each stored key from the cache.
        e, epsilon, calls = case
        cache = gst.StageCache()
        for q, mode, pinv, seed in calls + calls[::-1]:
            assert (word_result(e, q, epsilon, mode, pinv, seed, cache)
                    == word_result(e, q, epsilon, mode, pinv, seed))

    def test_raising_key_is_not_stored(self):
        cache = gst.StageCache()
        for _ in range(2):
            with pytest.raises(DegenerateAugmentationError):
                combination_trace(_FILLING, (0, 1), cache=cache)
        assert cache.nbytes == 0

    def test_ill_conditioned_cached_gram(self):
        # Noise of 1e-12 leaves the near twins' measured Gram as singular as
        # the exact one.  A --pinv word stores the key; without --pinv its
        # cached bases raise per word with the uncached error, and --pinv
        # keeps its value.
        q = word(_NEAR_TWINS, 0, 1)
        mode = MeasureMode("gaussian", sigma=1e-12)

        def run(pinv, cache=None):
            return combination_trace(_NEAR_TWINS, q, 1e-30, gst.DEFAULT_THETA, mode,
                                     np.random.default_rng(3), pinv, cache)

        cache = gst.StageCache()
        pinv = run(True, cache)
        assert cache.nbytes > 0
        with pytest.raises(IllConditionedGramError) as uncached:
            run(False)
        for _ in range(2):
            with pytest.raises(IllConditionedGramError) as cached:
                run(False, cache)
            assert str(cached.value) == str(uncached.value)
            assert cached.value.min_eigenvalue == uncached.value.min_eigenvalue
        assert run(True, cache) == pinv

    # Every draw evaluates its own word, so exact draws meet the words' own
    # keys: 40 at k = 3 and 64 at k = 4, all of which these budgets draw.
    # The class representatives they replaced had only 14 and 21 keys.  The
    # 300 noisy draws of k = 3 meet 37 of its 40 keys.
    @pytest.mark.parametrize("k, keys, options", [
        (3, 40, {"strategy": "mc", "budget": 20000, "rng": 5}),
        (4, 64, {"strategy": "mc", "budget": 100000, "rng": 5}),
        (3, 37, {"strategy": "mc", "budget": 300, "mode": MeasureMode("shots", shots=1000),
                 "rng": 5, "allow_pseudoinverse": True}),
    ], ids=["3-40", "4-64", "3-37-shots"])
    def test_stages_run_once_per_key(self, ref3, monkeypatch, k, keys, options):
        # An exact key builds its frame and no operator basis; a noisy key
        # builds its one operator basis.
        calls = stage_calls(monkeypatch)
        estimate_g_power_trace(ref3, k, **options)
        noisy = "mode" in options
        assert calls == Counter(build_subspace=keys, operator_basis_for_states=keys * noisy,
                                augmentation_state=keys * noisy, _exact_frame=keys * (not noisy))

    @pytest.mark.parametrize("strategy, budget", [("enumerate", 10**6), ("mc", 300)])
    def test_power_trace_builds_each_key_once_across_k(self, ref3, monkeypatch,
                                                        strategy, budget):
        # The keys of Tr{G^k} are among those of Tr{G^(k+1)}: one cache for
        # every k builds each key once and changes no value.
        m, seed, epsilon = 4, 21, 1e-3
        per_k = evaluate_series(binomial_weights(m), [
            estimate_g_power_trace(ref3, k, strategy, budget, epsilon, rng=seed, stream_key=(k,))
            for k in range(m + 1)
        ])
        # An exact Monte Carlo key builds its frame once; the key walk builds
        # one per pair of letter set and retained set, for the first key of
        # the pair that it meets.
        built = Counter()
        inner = gst._exact_frame

        def spy(e, key, states):
            built[tuple(key)] += 1
            return inner(e, key, states)

        monkeypatch.setattr(gst, "_exact_frame", spy)
        shared = estimate_power_trace(ref3, m, strategy, budget, epsilon, rng=seed)
        assert shared == per_k
        assert set(built.values()) == {1}
        if strategy == "enumerate":
            assert len(built) == 20

    def test_zero_byte_budget_stores_nothing(self, ref3, monkeypatch):
        noisy = {"strategy": "mc", "budget": 50, "mode": MeasureMode("shots", shots=1000),
                 "rng": 5, "allow_pseudoinverse": True}
        cached = [estimate_g_power_trace(ref3, 3, epsilon=1e-3),
                  estimate_g_power_trace(ref3, 3, **noisy)]
        monkeypatch.setattr(gst, "KEY_CACHE_BYTES", 0)
        calls = stage_calls(monkeypatch)
        assert estimate_g_power_trace(ref3, 3, epsilon=1e-3) == cached[0]
        # The walk's root subspace, then a frame for each of the 1 + 4 + 12
        # + 24 keys of at most 3 letters, with no operator basis.
        assert calls == {"build_subspace": 1, "_exact_frame": 41}
        calls.clear()
        assert estimate_g_power_trace(ref3, 3, **noisy) == cached[1]
        # One build per noisy draw, with its one operator basis.
        assert calls == {"build_subspace": 50, "operator_basis_for_states": 50,
                         "augmentation_state": 50}


class TestOneBasisPerNoisyKey:
    @settings(max_examples=150, deadline=None)
    @given(exact_words())
    @example((_FILLING, word(_FILLING, 0, 1), 1e-10))
    @example((_FILLING, word(_FILLING, 2, 2), 1e-10))
    @example((_DUPLICATED, word(_DUPLICATED, 0, 1, 2), 1e-10))
    @example((random_ensemble(np.random.default_rng(3), 2, 5), (4, 0, 2, 0), 1e-3))
    def test_sub_block_is_the_unaugmented_basis(self, case):
        # alpha >= 2**n (the examples) and alpha < 2**n (most draws).
        e, q, epsilon = case
        key = tuple(dict.fromkeys(q))
        states = e.span_states[list(key)]
        dim = e.span_states.shape[1]
        sv = np.linalg.svd(states, compute_uv=False)
        rank = int(np.count_nonzero(sv > 1e-12 * sv.max(initial=0.0)))
        if rank == dim:
            with pytest.raises(DegenerateAugmentationError):
                gst._out_of_span_residual(e, q)
            with pytest.raises(DegenerateAugmentationError):
                gst.KeyStages(e, key, epsilon, gst.DEFAULT_THETA, exact=False)
            return
        residual = gst._out_of_span_residual(e, q)
        assert abs(np.linalg.norm(residual) - 1.0) < 1e-12
        assert np.max(np.abs(states.conj() @ residual), initial=0.0) < 1e-12

        stages = gst.KeyStages(e, key, epsilon, gst.DEFAULT_THETA, exact=False)
        ob = operator_basis_for_states(stages.b.retained, gst.DEFAULT_THETA)
        aug = stages.ob_aug
        assert ob.preps == tuple(aug.preps[r] for r in stages.sub)
        assert ob.prep_matrix.tobytes() == aug.prep_matrix[stages.sub].tobytes()

        with mock.patch.object(gst, "apply_word", wraps=gst.apply_word) as spy:
            combination_trace(e, q, epsilon, gst.DEFAULT_THETA, MeasureMode("shots", shots=1000),
                              np.random.default_rng(0), allow_pseudoinverse=True)
        assert spy.call_count == 1

    def test_traced_noisy_run_times_every_tomography_stage(self, tmp_path):
        # Exact mode builds no operator basis, so only a noisy run reaches
        # these layers of the benchmark tracer.
        tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        argv = [sys.executable, str(tracer), "--workers", "1", "--", "gst", "--g-power", "3",
                "--strategy", "mc", "--mode", "shots", "--trials", "300", "--seed", "5", "--pinv"]
        out = subprocess.run(argv, capture_output=True, text=True, env=cli_env(), cwd=tmp_path,
                             timeout=120)
        assert out.returncode == 0, out.stderr
        record = json.loads(out.stdout.strip().splitlines()[-1])
        assert record["exit_code"] == 0
        for layer in ("gst.basis_s", "gst.measure_s", "gst.solve_s", "gst.augment_s"):
            assert record["metrics"][layer] > 0, layer


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
        exact = float(np.sum((1.0 - 2.0 * e.span_eigenvalues) ** 4)) - e.alpha
        assert est.value == pytest.approx(exact, rel=0, abs=1e-13)
