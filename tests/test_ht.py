import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from qtrace import EnsembleSpec, ProductGate, RotationParams, exact_power_trace, ht, noise_bounds
from qtrace._parallel import chunk_ranges, merge_moment_sums
from qtrace.errors import ResourceLimitError
from qtrace.ht import TraceEstimate, estimate_power_trace_enumerate, estimate_power_trace_mc
from qtrace.qcore import reflect_amplitudes
from qtrace.rng import rng_stream

from .conftest import random_ensemble, reference_spec


def pure_spec(n=2) -> EnsembleSpec:
    return EnsembleSpec(n, np.array([1.0]), (ProductGate.uniform(n, RotationParams(0.3, 0.1, 0.9)),))


def two_component_spec() -> EnsembleSpec:
    g1 = ProductGate.uniform(2, RotationParams(0.4, 1.2, 0.3))
    g2 = ProductGate.uniform(2, RotationParams(1.1, 0.2, 2.0))
    return EnsembleSpec(2, np.array([0.35, 0.65]), (g1, g2))


def exact_p0(e, initial, word):
    """P(0) of one circuit from psi_initial with every layer of ``word``
    inserted, earliest first."""
    comps = np.array([[initial, *word]])
    flags = np.ones((1, len(word)), dtype=bool)
    return float(ht._outcome_probabilities(e, comps, flags)[0])


def drawn_circuits(monkeypatch, e, m, trials, seed=0):
    """The component and flag arrays that estimate_power_trace_mc draws."""
    seen = []
    outcome_probabilities = ht._outcome_probabilities

    def spy(e, comps, flags):
        seen.append((comps, flags))
        return outcome_probabilities(e, comps, flags)

    monkeypatch.setattr(ht, "_outcome_probabilities", spy)
    estimate_power_trace_mc(e, m, trials=trials, rng=seed, measure="exact-prob")
    return np.concatenate([c for c, _ in seen]), np.concatenate([f for _, f in seen])


class TestSampleCircuit:
    def test_m_zero_has_no_layers(self, ref3, monkeypatch):
        comps, flags = drawn_circuits(monkeypatch, ref3, 0, 100)
        assert comps.shape == (100, 1) and flags.shape == (100, 0)

    def test_single_component_always_index_zero(self, monkeypatch):
        comps, _ = drawn_circuits(monkeypatch, pure_spec(), 3, 20, seed=2)
        assert comps.shape == (20, 4) and np.all(comps == 0)

    def test_mean_layer_count_binomial(self, ref3, monkeypatch):
        n_samples = 100_000
        _, flags = drawn_circuits(monkeypatch, ref3, 4, n_samples, seed=3)
        mean = flags.sum(axis=1).mean()
        sigma = math.sqrt(4 * 0.25 / n_samples)
        assert abs(mean - 2.0) < 3 * sigma


class TestExactP0:
    def test_no_layers_certain_zero(self, ref3):
        assert exact_p0(ref3, 2, ()) == pytest.approx(1.0, abs=1e-12)

    def test_single_component_single_layer(self):
        # The circuit state is a reflection eigenstate: <psi|G|psi> = -1.
        assert exact_p0(pure_spec(), 0, (0,)) == pytest.approx(0.0, abs=1e-12)

    def test_against_dense_reflection_identity(self):
        # One inserted layer G_2 on initial state 1:
        # p0 = (1 + <psi_1|G_2|psi_1>)/2 = 1 - |<psi_2|psi_1>|^2.
        spec = two_component_spec()
        ovl = np.vdot(spec.state_matrix[1], spec.state_matrix[0])
        assert exact_p0(spec, 0, (1,)) == pytest.approx(1.0 - abs(ovl) ** 2, abs=1e-12)

    def test_multi_layer_against_dense_oracle(self):
        rng = np.random.default_rng(8)
        spec = random_ensemble(rng, 3, 3)
        word = (1, 0, 2, 1)
        g = [np.eye(8) - 2 * np.outer(psi, psi.conj()) for psi in spec.state_matrix]
        op = np.eye(8)
        for c in word:  # earliest layer acts first
            op = g[c] @ op
        psi = spec.state_matrix[2]
        expected = 0.5 * (1 + (psi.conj() @ op @ psi).real)
        assert exact_p0(spec, 2, word) == pytest.approx(expected, abs=1e-12)

    def test_probability_in_unit_interval(self):
        rng = np.random.default_rng(12)
        spec = random_ensemble(rng, 2, 4)
        comps = spec.component_indices(rng.random((200, 6)))
        flags = rng.random((200, 5)) < 0.5
        p0 = ht._outcome_probabilities(spec, comps, flags)
        assert np.all((0.0 <= p0) & (p0 <= 1.0))


class TestSingleShot:
    """Shots of _mc_chunk: each is the signed unit (-1)^k * (+1 | -1)."""

    def test_no_layers_always_plus_one(self, ref3):
        total, _, count, _ = ht._mc_chunk(ref3, 0, 20, "shots", 0.0, 0, 0, 10)
        assert total == count == 200

    def test_eigenstate_layer_always_plus_one(self):
        # With one layer, P(1) = 1 and the (-1)^k sign flips the -1 outcome
        # back to +1; without it, P(0) = 1.
        total, _, count, _ = ht._mc_chunk(pure_spec(), 1, 20, "shots", 0.0, 1, 0, 10)
        assert total == count == 200

    def test_bernoulli_mean(self, ref3):
        # The one circuit drawn at seed 0 has k = 1 layer, at seed 5 k = 2.
        for seed in (0, 5):
            expected = ht._mc_chunk(ref3, 2, 1, "exact-prob", 0.0, seed, 0, 1)[0]
            total, _, n, _ = ht._mc_chunk(ref3, 2, 100_000, "shots", 0.0, seed, 0, 1)
            sigma = math.sqrt((1 - expected**2) / n)
            assert abs(total / n - expected) < 3 * sigma


class TestEstimateEnumerate:
    def test_m_zero_trace_rho(self, ref3):
        est = estimate_power_trace_enumerate(ref3, 0)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.std_error == 0.0
        assert est.mode == "exact-enumeration"

    def test_reference_purity(self, ref3):
        est = estimate_power_trace_enumerate(ref3, 1)
        assert round(est.value, 3) == 0.650

    def test_matches_oracle_on_random_spec(self):
        rng = np.random.default_rng(5)
        spec = random_ensemble(rng, 2, 2)
        est = estimate_power_trace_enumerate(spec, 3)
        assert est.value == pytest.approx(exact_power_trace(spec, 4), abs=1e-9)

    def test_unbiasedness_sweep(self):
        rng = np.random.default_rng(6)
        for n, alpha, m in ((2, 2, 5), (3, 3, 3), (4, 4, 2), (2, 4, 4)):
            spec = random_ensemble(rng, n, alpha)
            est = estimate_power_trace_enumerate(spec, m)
            assert est.value == pytest.approx(exact_power_trace(spec, m + 1), abs=1e-9)

    def test_budget_cap(self, ref3):
        with pytest.raises(ResourceLimitError, match="cap of 100"):
            estimate_power_trace_enumerate(ref3, 4, enumeration_cap=100)


class TestEstimateMc:
    def test_pure_state_exact_prob_is_one(self):
        spec = pure_spec()
        for m in (0, 1, 3, 6):
            est = estimate_power_trace_mc(spec, m, trials=200, rng=4, measure="exact-prob")
            assert est.value == pytest.approx(1.0, abs=1e-12)
            assert est.std_error < 1e-9

    def test_reference_purity_shots(self, ref3):
        est = estimate_power_trace_mc(ref3, 1, trials=1_000_000, rng=101, measure="shots")
        assert abs(est.value - 0.650) < 3 * est.std_error + 5e-4

    def test_reference_fourth_power_shots(self, ref3):
        est = estimate_power_trace_mc(ref3, 3, trials=1_000_000, rng=102, measure="shots")
        assert abs(est.value - 0.375) < 3 * est.std_error + 5e-4

    def test_exact_prob_converges_to_oracle(self):
        rng = np.random.default_rng(44)
        spec = random_ensemble(rng, 2, 3)
        est = estimate_power_trace_mc(spec, 2, trials=200_000, rng=7, measure="exact-prob")
        assert abs(est.value - exact_power_trace(spec, 3)) < 4 * est.std_error + 1e-6

    def test_stderr_scales_inverse_sqrt(self, ref3):
        # Four-fold shots should halve the standard error within 20%.
        ratios = []
        for seed in range(3):
            small = estimate_power_trace_mc(ref3, 1, trials=50_000, rng=seed, measure="shots")
            big = estimate_power_trace_mc(ref3, 1, trials=200_000, rng=100 + seed, measure="shots")
            ratios.append(big.std_error / small.std_error)
        assert 0.4 < sum(ratios) / len(ratios) < 0.6

    def test_shots_per_trial_counts_all_outcomes(self, ref3):
        est = estimate_power_trace_mc(ref3, 1, trials=1000, shots_per_trial=7, rng=3)
        assert est.samples == 7000

    def test_estimate_is_the_chunk_order_reduction(self, ref3):
        trials = 40_000  # four full chunks and a partial fifth
        ranges = chunk_ranges(trials, ht.TRIAL_CHUNK)
        assert len(ranges) >= 3 and ranges[-1][1] - ranges[-1][0] < ht.TRIAL_CHUNK
        parts = [ht._mc_chunk(ref3, 2, 1, "shots", 0.0, 11, lo, hi) for lo, hi in ranges]
        total, total_sq, count = merge_moment_sums([p[:3] for p in parts])
        mean = total / count
        stderr = math.sqrt(max(total_sq - count * mean * mean, 0.0) / (count - 1) / count)
        est = estimate_power_trace_mc(ref3, 2, trials=trials, rng=11)
        assert est == TraceEstimate(mean, stderr, trials, ht.MODE_MC_SHOTS)

    def test_generator_and_seed_both_accepted(self, ref3):
        est = estimate_power_trace_mc(ref3, 1, trials=100, rng=np.random.default_rng(0))
        assert isinstance(est, TraceEstimate)

    def test_gaussian_noise_keeps_estimate_sane(self, ref3):
        est = estimate_power_trace_mc(
            ref3, 1, trials=100_000, rng=13, measure="exact-prob", ht_sigma=0.01
        )
        assert abs(est.value - 0.650) < 6 * est.std_error + 0.01

    def test_gaussian_noise_refuses_shots_measure(self, ref3):
        with pytest.raises(ValueError, match="never combined"):
            estimate_power_trace_mc(ref3, 1, trials=100, rng=0, measure="shots", ht_sigma=0.01)


class TestTraceEstimateInvariants:
    def test_exact_modes_require_zero_stderr(self):
        with pytest.raises(ValueError, match="std_error 0"):
            TraceEstimate(1.0, 0.1, 10, "exact-enumeration")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown estimate mode"):
            TraceEstimate(1.0, 0.0, 1, "psychic")

    def test_negative_stderr_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            TraceEstimate(1.0, -0.1, 1, "mc-shots")


def dense_probabilities(e, comps, flags):
    """Statevector reference for ht._outcome_probabilities: the same circuits
    applied to 2**n-amplitude vectors."""
    psi = e.state_matrix
    v = psi[comps[:, 0]].copy()
    for t in range(flags.shape[1]):
        on = flags[:, t]
        if not np.any(on):
            continue
        axes = psi[comps[on, t + 1]]
        inner = np.einsum("ij,ij->i", axes.conj(), v[on])
        v[on] -= 2.0 * inner[:, None] * axes

    re = np.einsum("ij,ij->i", psi[comps[:, 0]].conj(), v).real
    p0 = 0.5 * (1.0 + re)
    bad = (p0 < -1e-9) | (p0 > 1.0 + 1e-9)
    if np.any(bad):
        raise ArithmeticError(f"outcome probability {p0[bad][0]!r} outside [0, 1]")
    return np.clip(p0, 0.0, 1.0)


def dense_mc_chunk(e, m, shots_per_trial, measure, ht_sigma, master_seed, lo, hi,
                   probabilities=dense_probabilities):
    """Statevector reference for ht._mc_chunk, drawing in the same order:
    components, flags, noise, binomial."""
    rng = rng_stream(master_seed, lo)
    b = hi - lo
    comps = e.component_indices(rng.random((b, m + 1)))
    flags = rng.random((b, m)) < 0.5
    p0 = probabilities(e, comps, flags)

    clamps = 0
    if ht_sigma > 0.0:
        p0, clamps = noise_bounds.perturb_probabilities(p0, ht_sigma, rng)

    sign = 1.0 - 2.0 * (flags.sum(axis=1) % 2)
    if measure == "exact-prob":
        x = sign * (2.0 * p0 - 1.0)
        return float(x.sum()), float(np.dot(x, x)), b, clamps
    n0 = rng.binomial(shots_per_trial, p0)
    shot_sum = sign * (2.0 * n0 - shots_per_trial)
    return float(shot_sum.sum()), float(b * shots_per_trial), b * shots_per_trial, clamps


def dense_enumerate(e, m):
    """Statevector reference for estimate_power_trace_enumerate: one word at
    a time, in itertools.product order."""
    psi = e.state_matrix
    total = 0.0
    for k in range(m + 1):
        layer_sum = 0.0
        for word in product(range(e.alpha), repeat=k):
            v = psi
            weight = 1.0
            for c in word:
                v = reflect_amplitudes(psi[c], math.pi, v)
                weight *= e.probs[c]
            re = np.einsum("ij,ij->i", psi.conj(), v).real
            layer_sum += weight * float(np.dot(e.probs, re))
        total += math.comb(m, k) / 2.0**m * (-1.0) ** k * layer_sum
    return total


SPAN_SPECS = {
    "reference": reference_spec(3),
    "random-n4-a3": random_ensemble(np.random.default_rng(71), 4, 3),
    "random-n2-a5": random_ensemble(np.random.default_rng(72), 2, 5),
}


CHUNKS = [(0, 0, 8192), (5, 8192, 12000), (17, 40, 41)]


def assert_same_sums(got, want):
    total, total_sq, count, clamps = got
    w_total, w_total_sq, w_count, w_clamps = want
    assert (count, clamps) == (w_count, w_clamps)
    assert total == pytest.approx(w_total, rel=1e-10, abs=1e-10)
    assert total_sq == pytest.approx(w_total_sq, rel=1e-10, abs=1e-10)


class TestSpanKernelMatchesStatevectors:
    @pytest.mark.parametrize("name", sorted(SPAN_SPECS))
    @pytest.mark.parametrize("seed, lo, hi", CHUNKS)
    def test_outcome_probabilities(self, name, seed, lo, hi):
        e = SPAN_SPECS[name]
        rng = rng_stream(seed, lo)
        for m in (0, 1, 4, 7):
            comps = e.component_indices(rng.random((hi - lo, m + 1)))
            flags = rng.random((hi - lo, m)) < 0.5
            got = ht._outcome_probabilities(e, comps, flags)
            assert np.max(np.abs(got - dense_probabilities(e, comps, flags))) < 1e-12

    @pytest.mark.parametrize("name", sorted(SPAN_SPECS))
    @pytest.mark.parametrize("ht_sigma", [0.0, 0.01])
    @pytest.mark.parametrize("seed, lo, hi", CHUNKS)
    def test_mc_chunk_exact_prob(self, name, ht_sigma, seed, lo, hi):
        e = SPAN_SPECS[name]
        for m in (0, 1, 4):
            args = (e, m, 1, "exact-prob", ht_sigma, seed, lo, hi)
            assert_same_sums(ht._mc_chunk(*args), dense_mc_chunk(*args))

    @pytest.mark.parametrize("name", sorted(SPAN_SPECS))
    @pytest.mark.parametrize("seed, lo, hi", CHUNKS)
    def test_mc_chunk_shots(self, name, seed, lo, hi):
        # numpy's binomial draws nothing when p is exactly 0 or 1, and the
        # two kernels round P(0) at those ends differently (by ~1e-16), so a
        # fully dense chunk can shift the shot stream.  The P(0) stage is
        # compared above; here the dense chunk takes the span P(0) and must
        # reproduce the draws and sums exactly.
        e = SPAN_SPECS[name]
        for m in (0, 1, 4):
            args = (e, m, 3, "shots", 0.0, seed, lo, hi)
            assert_same_sums(
                ht._mc_chunk(*args),
                dense_mc_chunk(*args, probabilities=ht._outcome_probabilities),
            )

    @pytest.mark.parametrize("name", sorted(SPAN_SPECS))
    def test_enumeration(self, name):
        e = SPAN_SPECS[name]
        for m in range(6):
            got = estimate_power_trace_enumerate(e, m).value
            assert got == pytest.approx(dense_enumerate(e, m), abs=1e-10)

    def test_enumeration_blocks_stitch(self, ref3, monkeypatch):
        # 16 coefficients per block is one 4x4 word per block.
        whole = estimate_power_trace_enumerate(ref3, 4).value
        monkeypatch.setattr(ht, "_ENUM_BLOCK_ENTRIES", 16)
        assert estimate_power_trace_enumerate(ref3, 4).value == pytest.approx(whole, abs=1e-14)

    def test_enumeration_samples_count_words(self, ref3):
        est = estimate_power_trace_enumerate(ref3, 3)
        assert est.samples == ht.enumeration_word_count(4, 3) == 4 + 16 + 64 + 256

    def test_out_of_range_probability_raises(self):
        # A Gram with K_11 = 3 gives P(0) = (1 + 3)/2 = 2 on the empty word
        # from initial component 1.
        e = random_ensemble(np.random.default_rng(3), 2, 2)
        e.__dict__["gram"] = np.diag([1.0, 3.0]).astype(complex)
        with pytest.raises(ArithmeticError, match=r"probability .*2\.0.* outside"):
            estimate_power_trace_enumerate(e, 2)
        with pytest.raises(ArithmeticError, match=r"probability .*2\.0.* outside"):
            estimate_power_trace_mc(e, 2, trials=100, rng=0, measure="exact-prob")


class TestScale:
    def test_mc_at_n20_builds_no_statevector(self):
        e = reference_spec(20)
        tracemalloc.start()
        try:
            est = estimate_power_trace_mc(
                e, 3, trials=100_000, rng=5, measure="exact-prob", ht_sigma=0.01
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "state_matrix" not in e.__dict__ and "states" not in e.__dict__
        assert peak < 64 * 2**20
        assert est.samples == 100_000
        lam = e.span_eigenvalues
        assert abs(est.value - float(np.sum(lam**4))) < 5 * est.std_error + 0.01
