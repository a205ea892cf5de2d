import json
import logging
import math
import re
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtrace import (
    EnsembleSpec,
    cli,
    exact_power_trace,
    exact_rho_g_power_trace,
    ht,
    noise_bounds,
)
from qtrace._parallel import chunk_ranges
from qtrace.errors import IdentityViolationError
from qtrace.ht import (
    estimate_power_trace_enumerate,
    estimate_power_trace_mc,
    estimate_rho_g_power_enumerate,
    estimate_rho_g_power_mc,
)
from qtrace.noise_bounds import EXACT, MeasureMode
from qtrace.qcore import reflect_amplitudes
from qtrace.rng import rng_stream
from qtrace.series import (
    MODE_MC_EXACT_PROB,
    MODE_MC_SHOTS,
    TraceEstimate,
    binomial_weights,
    evaluate_series,
)

from .conftest import angle_spec, random_ensemble, reference_spec, small_ensembles
from .dense_reference import ht_trial_sigma, per_word_enumerate_block

ONE_SHOT = MeasureMode("shots", shots=1)
GAUSSIAN = MeasureMode("gaussian", sigma=0.01)


def pure_spec(n=2) -> EnsembleSpec:
    return angle_spec(n, [1.0], (0.3, 0.1, 0.9))


def two_component_spec() -> EnsembleSpec:
    return angle_spec(2, [0.35, 0.65], (0.4, 1.2, 0.3), (1.1, 0.2, 2.0))


def exact_p0(e, initial, word):
    """P(0) of one circuit from psi_initial with the layers of ``word``,
    earliest first."""
    return float(ht._outcome_probabilities(e, np.array([[initial, *word]]))[0])


def drawn_circuits(monkeypatch, estimate, e, m, trials, seed=0):
    """The component arrays that ``estimate`` draws, one per chunk."""
    seen = []
    outcome_probabilities = ht._outcome_probabilities

    def spy(e, comps):
        seen.append(comps)
        return outcome_probabilities(e, comps)

    monkeypatch.setattr(ht, "_outcome_probabilities", spy)
    estimate(e, m, trials, EXACT, seed)
    return seen


def chunk_samples(e, m, mode, master_seed, stream_key, lo, hi,
                  probabilities=ht._outcome_probabilities):
    """Every outcome of the HT Monte Carlo trials [lo, hi) of m layers,
    redrawn from the chunk's stream in the kernel's order (components, noise,
    binomial), and the clamp count.  A shots-mode trial with n0 zeros out of
    s is one sample, the mean of its shots, (2 n0 - s) / s."""
    rng = rng_stream(master_seed, *stream_key, lo)
    p0 = probabilities(e, e.component_indices(rng.random((hi - lo, m + 1))))

    clamps = 0
    if mode.kind == "gaussian":
        p0, clamps = noise_bounds.perturb_probabilities(p0, mode.sigma, rng)
    if mode.kind != "shots":
        return 2.0 * p0 - 1.0, clamps
    n0 = rng.binomial(mode.shots, p0)
    return (2.0 * n0 - mode.shots) / mode.shots, clamps


def two_pass_estimate(chunks):
    """(mean, std_error) of outcome arrays drawn chunk by chunk: the mean
    from the chunk sums added in chunk order, the std_error from numpy's
    two-pass variance over all outcomes at once."""
    total = 0.0
    for x in chunks:
        total += float(x.sum())
    x = np.concatenate(chunks)
    return total / x.size, math.sqrt(np.var(x, ddof=1) / x.size)


class TestSampleCircuit:
    def test_m_zero_has_no_layers(self, ref3, monkeypatch):
        [comps] = drawn_circuits(monkeypatch, estimate_power_trace_mc, ref3, 0, 100)
        assert comps.shape == (100, 1)

    def test_single_component_always_index_zero(self, monkeypatch):
        drawn = drawn_circuits(monkeypatch, estimate_power_trace_mc, pure_spec(), 3, 20, seed=2)
        assert [c.shape[1] for c in drawn] == [1, 2, 3, 4]
        assert sum(len(c) for c in drawn) == 20 and all(np.all(c == 0) for c in drawn)

    def test_stratum_j_draws_its_trials_with_j_layers(self, ref3, monkeypatch):
        # Stratum 2 takes 20,000 trials: two full chunks and a partial third.
        drawn = drawn_circuits(monkeypatch, estimate_power_trace_mc, ref3, 4, 54_000, seed=3)
        counts = ht.stratum_trials(4, 54_000)
        assert counts == [3375, 13500, 20250, 13500, 3375]
        want = [(len(rows), j + 1) for j, t in enumerate(counts) for rows in
                np.array_split(np.empty(t), range(ht.TRIAL_CHUNK, t, ht.TRIAL_CHUNK))]
        assert [c.shape for c in drawn] == want


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
        p0 = ht._outcome_probabilities(spec, comps)
        assert np.all((0.0 <= p0) & (p0 <= 1.0))


class TestSingleShot:
    """Shots of _mc_chunk: each is +1 or -1, and a circuit's sample is the
    mean of its shots."""

    def test_no_layers_always_plus_one(self, ref3):
        count, total, _, _ = ht._mc_chunk(ref3, 0, MeasureMode("shots", shots=20), 0, (), 0, 10)
        assert total == count == 10

    def test_eigenstate_layer_always_plus_one(self):
        # With one layer, P(1) = 1, so a_1 = -1 and Tr{rho^2} = (a_0 - a_1)/2
        # is +1 on every shot.
        shots = MeasureMode("shots", shots=20)
        count, total, _, _ = ht._mc_chunk(pure_spec(), 1, shots, 1, (1,), 0, 10)
        assert total == -count == -10
        est = estimate_power_trace_mc(pure_spec(), 1, 20, shots, rng=1)
        assert (est.value, est.std_error) == (1.0, 0.0)

    def test_bernoulli_mean(self, ref3):
        # One circuit of two layers per seed.
        shots = 100_000
        for seed in (0, 5):
            expected = ht._mc_chunk(ref3, 2, EXACT, seed, (), 0, 1)[1]
            n, total, _, _ = ht._mc_chunk(ref3, 2, MeasureMode("shots", shots=shots), seed, (),
                                          0, 1)
            sigma = math.sqrt((1 - expected**2) / shots)
            assert n == 1 and abs(total - expected) < 3 * sigma


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


class TestEstimateMc:
    def test_pure_state_exact_prob_is_one(self):
        spec = pure_spec()
        for m in (0, 1, 3, 6):
            est = estimate_power_trace_mc(spec, m, trials=200, rng=4, mode=EXACT)
            assert est.value == pytest.approx(1.0, abs=1e-12)
            assert est.std_error < 1e-9

    def test_reference_purity_shots(self, ref3):
        est = estimate_power_trace_mc(ref3, 1, trials=1_000_000, rng=101, mode=ONE_SHOT)
        assert abs(est.value - 0.650) < 3 * est.std_error + 5e-4

    def test_reference_fourth_power_shots(self, ref3):
        est = estimate_power_trace_mc(ref3, 3, trials=1_000_000, rng=102, mode=ONE_SHOT)
        assert abs(est.value - 0.375) < 3 * est.std_error + 5e-4

    def test_exact_prob_converges_to_oracle(self):
        rng = np.random.default_rng(44)
        spec = random_ensemble(rng, 2, 3)
        est = estimate_power_trace_mc(spec, 2, trials=200_000, rng=7, mode=EXACT)
        assert abs(est.value - exact_power_trace(spec, 3)) < 4 * est.std_error + 1e-6

    def test_stderr_scales_inverse_sqrt(self, ref3):
        # Four-fold shots should halve the standard error within 20%.
        ratios = []
        for seed in range(3):
            small = estimate_power_trace_mc(ref3, 1, trials=50_000, rng=seed, mode=ONE_SHOT)
            big = estimate_power_trace_mc(ref3, 1, trials=200_000, rng=100 + seed, mode=ONE_SHOT)
            ratios.append(big.std_error / small.std_error)
        assert 0.4 < sum(ratios) / len(ratios) < 0.6

    @pytest.mark.parametrize("shots", [10, 100])
    def test_shot_std_error_is_the_spread_over_seeds(self, ref3, shots):
        # The shots of one circuit share its P(0), so the circuit, not the
        # shot, is the independent sample.  Over 200 seeds the mean reported
        # std_error is 0.970 and 0.962 of the estimates' spread at 10 and
        # 100 shots; counting every shot as a sample gave 0.40 and 0.13.
        # The spread itself is known to about 5% from 200 estimates.
        ests = [estimate_power_trace_mc(ref3, 1, 2000, MeasureMode("shots", shots=shots), rng=s)
                for s in range(200)]
        spread = float(np.std([est.value for est in ests], ddof=1))
        reported = float(np.mean([est.std_error for est in ests]))
        assert 0.8 < reported / spread < 1.25

    def test_estimate_is_the_chunk_order_reduction(self, ref3):
        # Stratum 1 takes 35,000 trials: four full chunks and a partial fifth.
        counts = ht.stratum_trials(2, 70_000)
        assert counts == [17_500, 35_000, 17_500]
        strata = []
        for j, trials in enumerate(counts):
            mean, stderr = two_pass_estimate(
                [chunk_samples(ref3, j, ONE_SHOT, 11, (j,), lo, hi)[0]
                 for lo, hi in chunk_ranges(trials, ht.TRIAL_CHUNK)])
            strata.append(TraceEstimate(mean, stderr, MODE_MC_SHOTS))
        want = evaluate_series(binomial_weights(2), strata)
        est = estimate_power_trace_mc(ref3, 2, trials=70_000, rng=11)
        assert (est.value, est.mode) == (want.value, MODE_MC_SHOTS)
        assert est.std_error == pytest.approx(want.std_error, rel=1e-12)

    def test_generator_and_seed_both_accepted(self, ref3):
        est = estimate_power_trace_mc(ref3, 1, trials=100, rng=np.random.default_rng(0))
        assert isinstance(est, TraceEstimate)

    def test_clamp_count_is_logged(self, ref3, caplog):
        # ``logging`` is imported only on this path, so it needs its own test.
        with caplog.at_level(logging.DEBUG, logger="qtrace.ht"):
            estimate_power_trace_mc(ref3, 1, 2000, MeasureMode("gaussian", sigma=0.5), rng=3)
        [message] = [r.getMessage() for r in caplog.records if r.name == "qtrace.ht"]
        assert re.fullmatch(r"ht noise clamped [1-9]\d* of 2000 probabilities", message)

    def test_gaussian_noise_keeps_estimate_sane(self, ref3):
        est = estimate_power_trace_mc(
            ref3, 1, trials=100_000, rng=13, mode=GAUSSIAN
        )
        assert abs(est.value - 0.650) < 6 * est.std_error + 0.01


class TestRhoGPowerMc:
    """The direct circuit: j layers, one stratum, on streams (master, lo)."""

    def test_draws_no_flags_and_inserts_every_layer(self, ref3, monkeypatch):
        [comps] = drawn_circuits(monkeypatch, estimate_rho_g_power_mc, ref3, 3, 100)
        assert comps.shape == (100, 4)
        # Only components are drawn, from the chunk's stream (seed 0, lo 0).
        want = ref3.component_indices(rng_stream(0, 0).random((100, 4)))
        assert np.array_equal(comps, want)

    def test_no_flags_means_every_layer(self, ref3):
        comps = np.random.default_rng(2).integers(0, ref3.alpha, (500, 6))
        every = dense_probabilities(ref3, comps)
        assert np.max(np.abs(ht._outcome_probabilities(ref3, comps) - every)) < 1e-12

    def test_circuit_enumeration_equals_oracle(self):
        # sum over initial component and every word of (prod p)(2 P(0) - 1).
        rng = np.random.default_rng(12)
        for n, alpha in ((2, 2), (3, 3), (4, 2)):
            spec = random_ensemble(rng, n, alpha)
            for j in range(4):
                total = 0.0
                for word in product(range(alpha), repeat=j + 1):
                    weight = np.prod(spec.probs[list(word)])
                    total += weight * (2.0 * exact_p0(spec, word[0], word[1:]) - 1.0)
                assert total == pytest.approx(exact_rho_g_power_trace(spec, j), abs=1e-12)
                got = estimate_rho_g_power_enumerate(spec, j).value
                assert got == pytest.approx(exact_rho_g_power_trace(spec, j), abs=1e-12)

    @pytest.mark.parametrize("mode", [pytest.param(EXACT, id="exact-prob"),
                                      pytest.param(ONE_SHOT, id="shots")])
    def test_pure_state_is_exact(self, mode):
        # Every shot agrees exactly; exact-prob outcomes scatter by rounding.
        for j in range(5):
            est = estimate_rho_g_power_mc(pure_spec(), j, trials=300, rng=j, mode=mode)
            assert est.value == pytest.approx((-1.0) ** j, abs=1e-12)
            assert est.std_error <= (0.0 if mode.kind == "shots" else 1e-15)

    def test_j0_is_unit_trace(self, ref3):
        est = estimate_rho_g_power_mc(ref3, 0, trials=5000, mode=MeasureMode("shots", shots=3), rng=1)
        assert (est.value, est.std_error) == (1.0, 0.0)
        assert est.mode == MODE_MC_SHOTS

    @pytest.mark.parametrize("mode", [
        pytest.param(EXACT, id="exact-prob-0.0"), pytest.param(ONE_SHOT, id="shots-0.0"),
        pytest.param(GAUSSIAN, id="exact-prob-0.01")])
    def test_converges_to_oracle(self, mode):
        spec = random_ensemble(np.random.default_rng(45), 3, 3)
        for j in (1, 2, 5):
            est = estimate_rho_g_power_mc(spec, j, trials=60_000, rng=j, mode=mode)
            bias = (mode.sigma or 0.0) * math.sqrt(2.0 / math.pi)
            assert abs(est.value - exact_rho_g_power_trace(spec, j)) < 4 * est.std_error + bias

    def test_estimate_is_the_chunk_order_reduction(self, ref3):
        ranges = chunk_ranges(20_000, ht.TRIAL_CHUNK)
        mean, stderr = two_pass_estimate(
            [chunk_samples(ref3, 2, EXACT, 5, (), lo, hi)[0] for lo, hi in ranges])
        est = estimate_rho_g_power_mc(ref3, 2, trials=20_000, rng=5, mode=EXACT)
        assert (est.value, est.mode) == (mean, MODE_MC_EXACT_PROB)
        assert est.std_error == pytest.approx(stderr, rel=1e-12)

    @pytest.mark.parametrize("kwargs, match", [
        ({"j": -1}, "j must be >= 0"),
        ({"trials": 1}, "trials must be >= 2"),
    ])
    def test_arguments_checked(self, ref3, kwargs, match):
        with pytest.raises(ValueError, match=match):
            estimate_rho_g_power_mc(**{"e": ref3, "j": 2, "trials": 100, **kwargs})


class TestTraceEstimateInvariants:
    def test_exact_modes_require_zero_stderr(self):
        with pytest.raises(ValueError, match="std_error 0"):
            TraceEstimate(1.0, 0.1, "exact-enumeration")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown estimate mode"):
            TraceEstimate(1.0, 0.0, "psychic")

    def test_negative_stderr_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            TraceEstimate(1.0, -0.1, "mc-shots")


def dense_probabilities(e, comps):
    """Statevector reference for ht._outcome_probabilities: the same circuits
    applied to 2**n-amplitude vectors."""
    psi = e.state_matrix
    v = psi[comps[:, 0]].copy()
    for t in range(comps.shape[1] - 1):
        axes = psi[comps[:, t + 1]]
        inner = np.einsum("ij,ij->i", axes.conj(), v)
        v -= 2.0 * inner[:, None] * axes

    re = np.einsum("ij,ij->i", psi[comps[:, 0]].conj(), v).real
    p0 = 0.5 * (1.0 + re)
    bad = (p0 < -1e-9) | (p0 > 1.0 + 1e-9)
    if np.any(bad):
        raise ArithmeticError(f"outcome probability {p0[bad][0]!r} outside [0, 1]")
    return np.clip(p0, 0.0, 1.0)


def dense_mc_chunk(*args, probabilities=dense_probabilities):
    """Statevector reference for ht._mc_chunk: (count, sum, M2, clamps) of the
    chunk's redrawn outcomes, M2 from numpy's two-pass variance."""
    x, clamps = chunk_samples(*args, probabilities=probabilities)
    return x.size, float(x.sum()), float(np.var(x) * x.size), clamps


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
    count, total, m2, clamps = got
    w_count, w_total, w_m2, w_clamps = want
    assert (count, clamps) == (w_count, w_clamps)
    assert total == pytest.approx(w_total, rel=1e-10, abs=1e-10)
    assert m2 == pytest.approx(w_m2, rel=1e-10, abs=1e-10)


class TestSpanKernelMatchesStatevectors:
    @pytest.mark.parametrize("name", sorted(SPAN_SPECS))
    @pytest.mark.parametrize("seed, lo, hi", CHUNKS)
    def test_outcome_probabilities(self, name, seed, lo, hi):
        e = SPAN_SPECS[name]
        rng = rng_stream(seed, lo)
        for m in (0, 1, 4, 7):
            comps = e.component_indices(rng.random((hi - lo, m + 1)))
            got = ht._outcome_probabilities(e, comps)
            assert np.max(np.abs(got - dense_probabilities(e, comps))) < 1e-12

    @pytest.mark.parametrize("name", sorted(SPAN_SPECS))
    @pytest.mark.parametrize("mode", [pytest.param(EXACT, id="0.0"),
                                      pytest.param(GAUSSIAN, id="0.01")])
    @pytest.mark.parametrize("seed, lo, hi", CHUNKS)
    def test_mc_chunk_exact_prob(self, name, mode, seed, lo, hi):
        e = SPAN_SPECS[name]
        for m in (0, 1, 4):
            args = (e, m, mode, seed, (m,), lo, hi)
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
            args = (e, m, MeasureMode("shots", shots=3), seed, (m,), lo, hi)
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

    def test_out_of_range_probability_raises(self):
        # A Gram with K_11 = 3 gives P(0) = (1 + 3)/2 = 2 on the empty word
        # from initial component 1, and enumeration's mean probability
        # (1 + a_0)/2 = (1 + p_0 + 3 p_1)/2 = 1 + p_1 = 1.5919.
        e = random_ensemble(np.random.default_rng(3), 2, 2)
        e.__dict__["gram"] = np.diag([1.0, 3.0]).astype(complex)
        with pytest.raises(ArithmeticError, match=r"probability .*1\.5918958973180684.* outside"):
            estimate_power_trace_enumerate(e, 2)
        with pytest.raises(ArithmeticError, match=r"probability .*2\.0.* outside"):
            estimate_power_trace_mc(e, 2, trials=100, rng=0, mode=EXACT)


class TestClosedFormEnumeration:
    """a_j = Re Tr(PK (I - 2 PK)^j) against the eigenvalue oracle and the
    per-word sum over all alpha^(j+1) words."""

    @settings(max_examples=200, deadline=None)
    @given(small_ensembles(), st.integers(0, 12))
    def test_matches_the_oracle(self, e, j):
        est = estimate_rho_g_power_enumerate(e, j)
        assert est.value == pytest.approx(exact_rho_g_power_trace(e, j), rel=0, abs=1e-13)
        assert est.std_error == 0.0

    @settings(max_examples=100, deadline=None)
    @given(small_ensembles(), st.integers(0, 12))
    def test_power_trace_is_the_series_of_the_a_j(self, e, m):
        # One chain of m products gives every a_k, k <= m, with the bits of
        # a product chain of its own per k.
        a = [estimate_rho_g_power_enumerate(e, k) for k in range(m + 1)]
        assert estimate_power_trace_enumerate(e, m) == evaluate_series(binomial_weights(m), a)

    @settings(max_examples=100, deadline=None)
    @given(small_ensembles(), st.integers(0, 4))
    def test_matches_the_per_word_sum(self, e, j):
        want = per_word_enumerate_block(e, j, 0, e.alpha**j)
        assert estimate_rho_g_power_enumerate(e, j).value == pytest.approx(want, rel=0, abs=1e-13)


class TestTrialSigma:
    """Exact-prob HT Monte Carlo's per-trial spread against ``ht_trial_sigma``."""

    def test_table1_values(self, ref3):
        # Measured from 200,000 trials at seed 3: 0.61210, 0.57876, 0.59954
        # and 0.54192.
        sigma = [ht_trial_sigma(ref3, j) for j in (1, 2, 4, 8)]
        assert sigma == pytest.approx([0.61126, 0.57762, 0.60008, 0.54143], abs=5e-6)

    def test_hand_values(self):
        # One component: every trial is <psi|G^j|psi> = (-1)^j.  Two
        # orthogonal ones at p = 1/2: G_x fixes the state it does not
        # reflect, so y = (-1)^B, B ~ Binomial(j, 1/2) the letters equal to
        # the initial one: y = +-1 with probability 1/2 each for j >= 1.
        assert ht_trial_sigma(pure_spec(), 3) == 0.0
        e = angle_spec(1, [0.5, 0.5], (0, 0, 0), (math.pi, 0, math.pi))
        assert ht_trial_sigma(e, 0) == 0.0
        for j in (1, 2):
            assert ht_trial_sigma(e, j) == pytest.approx(1.0, abs=1e-15)

    @staticmethod
    def assert_in_chi2_band(e, j, trials=20000, seed=3):
        # T s^2 / sigma^2 ~ chi^2_(T-1) for normal trials (Wilson-Hilferty
        # quantiles at 5 sd); bounded trials of spread near 0.6 have lighter
        # tails than normal ones.
        est = estimate_rho_g_power_mc(e, j, trials, mode=EXACT, rng=seed)
        sigma = ht_trial_sigma(e, j)
        dof = trials - 1
        band = [(1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3 for z in (-5.0, 5.0)]
        ratio = trials * est.std_error**2 / sigma**2
        assert band[0] < ratio < band[1], (j, ratio, band)

    @pytest.mark.parametrize("j", [1, 2, 4, 8])
    def test_table1_std_error_in_chi2_band(self, ref3, j):
        self.assert_in_chi2_band(ref3, j)

    @pytest.mark.parametrize("seed, n, alpha", [(1, 2, 2), (2, 3, 3), (3, 4, 5), (4, 6, 6)])
    def test_random_std_error_in_chi2_band(self, seed, n, alpha):
        e = random_ensemble(np.random.default_rng(seed), n, alpha)
        for j in (1, 3, 6):
            self.assert_in_chi2_band(e, j)


def strata_variance(e, m, trials):
    """The exact exact-prob variance of ``estimate_power_trace_mc``, sum_j
    c_j^2 sigma_j^2 / T_j, and its Satterthwaite degrees of freedom."""
    counts = ht.stratum_trials(m, trials)
    parts = [(c * ht_trial_sigma(e, j)) ** 2 / t
             for j, (c, t) in enumerate(zip(binomial_weights(m).coefficients, counts))]
    variance = sum(parts)
    return variance, variance**2 / sum(v * v / (t - 1) for v, t in zip(parts, counts))


#: Two ensembles built as ``small_ensembles`` builds them: one plain, and
#: one whose last component repeats the first (a rank-deficient Gram).
SMALL_PLAIN = random_ensemble(np.random.default_rng(22), 2, 3)
SMALL_CASES = {
    "n3-a4": random_ensemble(np.random.default_rng(21), 3, 4),
    "n2-a3-repeated": EnsembleSpec(2, SMALL_PLAIN.probs,
                                   np.concatenate([SMALL_PLAIN.kets[:-1], SMALL_PLAIN.kets[:1]])),
}


class TestStrata:
    """``estimate_power_trace_mc`` as m + 1 strata of fixed layer counts."""

    @pytest.mark.parametrize("m, trials", [(0, 2), (0, 5), (1, 30_001), (3, 30_000), (4, 10),
                                           (4, 11), (13, 20_000), (40, 1000), (209, 420),
                                           (1000, 2002)])
    def test_allocation(self, m, trials):
        counts = ht.stratum_trials(m, trials)
        assert len(counts) == m + 1 and sum(counts) == trials and min(counts) >= 2
        # The fewest strata, smallest C(m, j) first, hold 2 each such that
        # every other share of what is left is at least 2; each other
        # stratum lies within 1 of its share.
        weights = [math.comb(m, j) for j in range(m + 1)]
        order = sorted(range(m + 1), key=weights.__getitem__)
        for held in range(m + 1):
            left, total = trials - 2 * held, sum(weights[j] for j in order[held:])
            if all(weights[j] * left >= 2 * total for j in order[held:]):
                break
        assert all(counts[j] == 2 for j in order[:held])
        for j in order[held:]:
            assert abs(counts[j] - weights[j] * left / total) < 1

    def test_ties_go_to_the_smaller_layer_count(self):
        assert ht.stratum_trials(1, 30_001) == [15_001, 15_000]
        assert ht.stratum_trials(3, 30_000) == [3750, 11_250, 11_250, 3750]

    @pytest.mark.parametrize("m", [0, 1, 4])
    def test_fewer_than_two_trials_a_stratum_raise(self, ref3, m):
        with pytest.raises(ValueError, match=rf"trials must be >= 2 \(m \+ 1\) = {2 * m + 2} "):
            estimate_power_trace_mc(ref3, m, 2 * m + 1, EXACT, 0)
        estimate_power_trace_mc(ref3, m, 2 * m + 2, EXACT, 0)

    @staticmethod
    def assert_in_chi2_band(e, m, trials=20_000, seed=3):
        # As ``TestTrialSigma``: std_error^2 / variance ~ chi^2_nu / nu, nu
        # the Satterthwaite degrees of freedom of the m + 1 strata.
        est = estimate_power_trace_mc(e, m, trials, EXACT, seed)
        variance, dof = strata_variance(e, m, trials)
        band = [(1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3 for z in (-5.0, 5.0)]
        ratio = est.std_error**2 / variance
        assert band[0] < ratio < band[1], (m, ratio, band)

    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_table1_std_error_in_chi2_band(self, ref3, m):
        self.assert_in_chi2_band(ref3, m)

    @pytest.mark.parametrize("name", sorted(SMALL_CASES))
    def test_small_ensemble_std_error_in_chi2_band(self, name):
        for m in (1, 3, 6):
            self.assert_in_chi2_band(SMALL_CASES[name], m)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_within_5_sigma_of_the_oracle(self, ref3, seed):
        for m in (1, 3):
            est = estimate_power_trace_mc(ref3, m, 20_000, EXACT, seed)
            sigma = math.sqrt(strata_variance(ref3, m, 20_000)[0])
            assert abs(est.value - exact_power_trace(ref3, m + 1)) < 5 * sigma

    def test_table1_variance_below_the_coin_flip_circuit(self, ref3):
        # The coin-flip circuit's per-trial variance is sum_j w_j (sigma_j^2
        # + a_j^2) - Tr{rho^{m+1}}^2, w_j = C(m, j)/2^m; proportional strata
        # leave sum_j w_j sigma_j^2.  Ratios 0.60, 0.75, 0.83 and 0.95 at
        # Tr{rho^2}, Tr{rho^3}, Tr{rho^4} and Tr{rho^8}.
        ratios = []
        for m in (1, 2, 3, 7):
            w = [math.comb(m, j) / 2**m for j in range(m + 1)]
            sigma2 = [ht_trial_sigma(ref3, j) ** 2 for j in range(m + 1)]
            a = [exact_rho_g_power_trace(ref3, j) for j in range(m + 1)]
            coin = sum(wj * (s + aj * aj) for wj, s, aj in zip(w, sigma2, a))
            coin -= exact_power_trace(ref3, m + 1) ** 2
            ratios.append(sum(wj * s for wj, s in zip(w, sigma2)) / coin)
        assert ratios == pytest.approx([0.60, 0.75, 0.83, 0.95], abs=0.005)


def per_row_outcome_probabilities(e, comps):
    """``ht._outcome_probabilities`` with one coefficient row per trial and no
    prefix shared: every layer reflects every row, all rows at once.  The
    prefix-sharing kernel must match it bit for bit."""
    gram = e.gram
    b = comps.shape[0]
    rows = np.arange(b)
    c = np.zeros((b, e.alpha), dtype=np.complex128)
    c[rows, comps[:, 0]] = 1.0
    for t in range(comps.shape[1] - 1):
        axes = comps[:, t + 1]
        c[rows, axes] -= 2.0 * np.einsum("ij,ij->i", gram[axes], c)

    p0 = 0.5 * (1.0 + np.einsum("ij,ij->i", gram[comps[:, 0]], c).real)
    ht._check_probabilities(p0)
    return np.clip(p0, 0.0, 1.0)


#: Kernel settings that move where prefix sharing stops and how rows are
#: blocked: the defaults, never sharing, sharing every level, and 16-entry
#: row blocks.
KERNEL_SETTINGS = [
    {},
    {"_KEY_TABLE_PER_ROW": 0},
    {"_KEY_TABLE_PER_ROW": 10**6},
    {"_ROW_BLOCK_ENTRIES": 16},
]


@st.composite
def mc_kernel_cases(draw):
    """(spec, comps, settings): a drawn chunk of b trials with m layers."""
    e = draw(small_ensembles())
    b = draw(st.sampled_from([1, 2, 3616, 8192]))
    m = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    comps = e.component_indices(rng.random((b, m + 1)))
    return e, comps, draw(st.sampled_from(KERNEL_SETTINGS))


class TestPrefixSharingMonteCarlo:
    """The prefix-sharing Monte Carlo kernel must match the per-row one bit
    for bit, wherever sharing stops."""

    @settings(max_examples=200, deadline=None)
    @given(mc_kernel_cases())
    def test_kernel_matches_per_row_kernel(self, case):
        e, comps, kernel_settings = case
        want = per_row_outcome_probabilities(e, comps)
        with pytest.MonkeyPatch.context() as mp:
            for name, value in kernel_settings.items():
                mp.setattr(ht, name, value)
            got = ht._outcome_probabilities(e, comps)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("alpha", [16, 64])
    @pytest.mark.parametrize("layers", ["all"])
    def test_wide_ensembles(self, alpha, layers):
        # Few shared levels, then row blocks of 2048 and 512 trials.
        e = random_ensemble(np.random.default_rng(alpha), 20, alpha)
        for m in (2, 12):
            rng = np.random.default_rng(m)
            comps = e.component_indices(rng.random((8192, m + 1)))
            got = ht._outcome_probabilities(e, comps)
            assert got.tobytes() == per_row_outcome_probabilities(e, comps).tobytes()

    @pytest.mark.parametrize("m", [0, 3])
    @pytest.mark.parametrize("layers", ["all"])
    def test_first_bad_probability_in_row_order(self, m, layers):
        # A diagonal Gram with K_ii > 1 puts P(0) outside [0, 1] on every
        # row that starts in such a component; the shared rows are held in
        # prefix order, yet the record names the first bad row's value.
        e = random_ensemble(np.random.default_rng(3), 2, 4)
        e.__dict__["gram"] = np.diag([1.0, 3.0, 1.0, 5.0]).astype(complex)
        rng = np.random.default_rng(m)
        comps = e.component_indices(rng.random((8192, m + 1)))
        with pytest.raises(IdentityViolationError) as want:
            per_row_outcome_probabilities(e, comps)
        with pytest.raises(IdentityViolationError) as got:
            ht._outcome_probabilities(e, comps)
        assert str(got.value) == str(want.value)
        assert got.value.statistic == want.value.statistic

    def test_cli_exit_4_record_names_the_first_bad_row(self, monkeypatch, capsys):
        bad_gram = np.diag([1.0, 3.0, 1.0, 5.0]).astype(complex)
        monkeypatch.setattr(EnsembleSpec, "gram", property(lambda self: bad_gram))
        seen = []
        kernel = ht._outcome_probabilities

        def spy(e, comps):
            with pytest.raises(IdentityViolationError) as want:
                per_row_outcome_probabilities(e, comps)
            seen.append(want.value)
            return kernel(e, comps)

        monkeypatch.setattr(ht, "_outcome_probabilities", spy)
        argv = ["ht", "--power", "4", "--strategy", "mc", "--mode", "exact", "--trials", "5000"]
        assert cli.main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and len(seen) == 1
        assert json.loads(captured.err) == {
            "error": "identity-violation", "message": str(seen[0]),
            "statistic": seen[0].statistic,
        }


class TestScale:
    def test_mc_at_n20_builds_no_statevector(self):
        e = reference_spec(20)
        tracemalloc.start()
        try:
            est = estimate_power_trace_mc(
                e, 3, trials=100_000, rng=5, mode=GAUSSIAN
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "state_matrix" not in e.__dict__ and "states" not in e.__dict__
        assert peak < 64 * 2**20
        lam = e.span_eigenvalues
        assert abs(est.value - float(np.sum(lam**4))) < 5 * est.std_error + 0.01

    def test_mc_chunk_memory_is_bounded_in_alpha(self):
        # A coefficient row and a gathered Gram row per trial, for the whole
        # chunk at once, peak at about 101 MiB here.  Past the shared
        # prefixes the kernel holds one row block at a time.
        e = random_ensemble(np.random.default_rng(0), 20, 400)
        e.gram
        for estimate in (estimate_power_trace_mc, estimate_rho_g_power_mc):
            tracemalloc.start()
            try:
                estimate(e, 2, 10_000, EXACT, 5)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20
