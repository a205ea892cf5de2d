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
    estimate_power_trace_mc(e, m, trials=trials, rng=seed, mode=EXACT)
    return np.concatenate([c for c, _ in seen]), np.concatenate([f for _, f in seen])


def chunk_samples(e, m, mode, master_seed, lo, hi,
                  coin_flips=True, probabilities=ht._outcome_probabilities):
    """Every outcome of the HT Monte Carlo trials [lo, hi), redrawn from the
    chunk's stream in the kernel's order (components, flags, noise,
    binomial), and the clamp count.  A shots-mode trial with n0 zeros out of
    s is one sample, the signed mean of its shots, sign * (2 n0 - s) / s."""
    rng = rng_stream(master_seed, lo)
    b = hi - lo
    comps = e.component_indices(rng.random((b, m + 1)))
    if coin_flips:
        flags = rng.random((b, m)) < 0.5
        sign = 1.0 - 2.0 * (flags.sum(axis=1) % 2)
    else:
        flags, sign = np.ones((b, m), dtype=bool), np.ones(b)
    p0 = probabilities(e, comps, flags)

    clamps = 0
    if mode.kind == "gaussian":
        p0, clamps = noise_bounds.perturb_probabilities(p0, mode.sigma, rng)
    if mode.kind != "shots":
        return sign * (2.0 * p0 - 1.0), clamps
    n0 = rng.binomial(mode.shots, p0)
    return sign * (2.0 * n0 - mode.shots) / mode.shots, clamps


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
    """Shots of _mc_chunk: each is the signed unit (-1)^k * (+1 | -1), and a
    circuit's sample is the mean of its shots."""

    def test_no_layers_always_plus_one(self, ref3):
        count, total, _, _ = ht._mc_chunk(ref3, 0, MeasureMode("shots", shots=20), 0, 0, 10)
        assert total == count == 10

    def test_eigenstate_layer_always_plus_one(self):
        # With one layer, P(1) = 1 and the (-1)^k sign flips the -1 outcome
        # back to +1; without it, P(0) = 1.
        count, total, _, _ = ht._mc_chunk(pure_spec(), 1, MeasureMode("shots", shots=20), 1, 0, 10)
        assert total == count == 10

    def test_bernoulli_mean(self, ref3):
        # The one circuit drawn at seed 0 has k = 1 layer, at seed 5 k = 2.
        shots = 100_000
        for seed in (0, 5):
            expected = ht._mc_chunk(ref3, 2, EXACT, seed, 0, 1)[1]
            n, total, _, _ = ht._mc_chunk(ref3, 2, MeasureMode("shots", shots=shots), seed, 0, 1)
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
        trials = 40_000  # four full chunks and a partial fifth
        ranges = chunk_ranges(trials, ht.TRIAL_CHUNK)
        assert len(ranges) >= 3 and ranges[-1][1] - ranges[-1][0] < ht.TRIAL_CHUNK
        mean, stderr = two_pass_estimate(
            [chunk_samples(ref3, 2, ONE_SHOT, 11, lo, hi)[0] for lo, hi in ranges])
        est = estimate_power_trace_mc(ref3, 2, trials=trials, rng=11)
        assert (est.value, est.mode) == (mean, MODE_MC_SHOTS)
        assert est.std_error == pytest.approx(stderr, rel=1e-12)

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
    """The direct circuit: every layer inserted, no coin flips, no sign."""

    def test_draws_no_flags_and_inserts_every_layer(self, ref3, monkeypatch):
        seen = []
        outcome_probabilities = ht._outcome_probabilities

        def spy(e, comps, flags):
            seen.append((comps, flags))
            return outcome_probabilities(e, comps, flags)

        monkeypatch.setattr(ht, "_outcome_probabilities", spy)
        estimate_rho_g_power_mc(ref3, 3, trials=100, rng=0, mode=EXACT)
        ((comps, flags),) = seen
        assert comps.shape == (100, 4) and flags is None
        # The components come from the same uniforms as the coin-flip circuit's.
        comps_mc, _ = drawn_circuits(monkeypatch, ref3, 3, 100)
        assert np.array_equal(comps, comps_mc)

    def test_no_flags_means_every_layer(self, ref3):
        comps = np.random.default_rng(2).integers(0, ref3.alpha, (500, 6))
        every = ht._outcome_probabilities(ref3, comps, np.ones((500, 5), dtype=bool))
        assert np.array_equal(ht._outcome_probabilities(ref3, comps), every)

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
            [chunk_samples(ref3, 2, EXACT, 5, lo, hi, coin_flips=False)[0]
             for lo, hi in ranges])
        est = estimate_rho_g_power_mc(ref3, 2, trials=20_000, rng=5, mode=EXACT)
        assert (est.value, est.mode) == (mean, MODE_MC_EXACT_PROB)
        assert est.std_error == pytest.approx(stderr, rel=1e-12)

    @pytest.mark.parametrize("kwargs, match", [
        ({"j": -1}, "j must be >= 0"),
        ({"trials": 0}, "trials must be >= 1"),
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
            flags = rng.random((hi - lo, m)) < 0.5
            got = ht._outcome_probabilities(e, comps, flags)
            assert np.max(np.abs(got - dense_probabilities(e, comps, flags))) < 1e-12

    @pytest.mark.parametrize("name", sorted(SPAN_SPECS))
    @pytest.mark.parametrize("mode", [pytest.param(EXACT, id="0.0"),
                                      pytest.param(GAUSSIAN, id="0.01")])
    @pytest.mark.parametrize("seed, lo, hi", CHUNKS)
    def test_mc_chunk_exact_prob(self, name, mode, seed, lo, hi):
        e = SPAN_SPECS[name]
        for m in (0, 1, 4):
            args = (e, m, mode, seed, lo, hi)
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
            args = (e, m, MeasureMode("shots", shots=3), seed, lo, hi)
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


def per_row_outcome_probabilities(e, comps, flags=None):
    """``ht._outcome_probabilities`` with one coefficient row per trial and no
    prefix shared: every layer reflects every row it reaches, all rows at
    once.  The prefix-sharing kernel must match it bit for bit."""
    gram = e.gram
    b = comps.shape[0]
    rows = np.arange(b)
    c = np.zeros((b, e.alpha), dtype=np.complex128)
    c[rows, comps[:, 0]] = 1.0
    for t in range(comps.shape[1] - 1):
        on = rows if flags is None else np.flatnonzero(flags[:, t])
        axes = comps[on, t + 1]
        inner = np.einsum("ij,ij->i", gram[axes], c if flags is None else c[on])
        c[on, axes] -= 2.0 * inner

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
    """(spec, comps, flags, settings): a drawn chunk of b trials with m
    candidate layers, flags None in all-layers mode."""
    e = draw(small_ensembles())
    b = draw(st.sampled_from([1, 2, 3616, 8192]))
    m = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    comps = e.component_indices(rng.random((b, m + 1)))
    flags = rng.random((b, m)) < 0.5 if draw(st.booleans()) else None
    return e, comps, flags, draw(st.sampled_from(KERNEL_SETTINGS))


class TestPrefixSharingMonteCarlo:
    """The prefix-sharing Monte Carlo kernel must match the per-row one bit
    for bit, wherever sharing stops."""

    @settings(max_examples=200, deadline=None)
    @given(mc_kernel_cases())
    def test_kernel_matches_per_row_kernel(self, case):
        e, comps, flags, kernel_settings = case
        want = per_row_outcome_probabilities(e, comps, flags)
        with pytest.MonkeyPatch.context() as mp:
            for name, value in kernel_settings.items():
                mp.setattr(ht, name, value)
            got = ht._outcome_probabilities(e, comps, flags)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("alpha", [16, 64])
    @pytest.mark.parametrize("coin_flips", [True, False], ids=["coin", "all"])
    def test_wide_ensembles(self, alpha, coin_flips):
        # Few shared levels, then row blocks of 2048 and 512 trials.
        e = random_ensemble(np.random.default_rng(alpha), 20, alpha)
        for m in (2, 12):
            rng = np.random.default_rng(m)
            comps = e.component_indices(rng.random((8192, m + 1)))
            flags = rng.random((8192, m)) < 0.5 if coin_flips else None
            got = ht._outcome_probabilities(e, comps, flags)
            assert got.tobytes() == per_row_outcome_probabilities(e, comps, flags).tobytes()

    @pytest.mark.parametrize("m", [0, 3])
    @pytest.mark.parametrize("coin_flips", [True, False], ids=["coin", "all"])
    def test_first_bad_probability_in_row_order(self, m, coin_flips):
        # A diagonal Gram with K_ii > 1 puts P(0) outside [0, 1] on every
        # row that starts in such a component; the shared rows are held in
        # prefix order, yet the record names the first bad row's value.
        e = random_ensemble(np.random.default_rng(3), 2, 4)
        e.__dict__["gram"] = np.diag([1.0, 3.0, 1.0, 5.0]).astype(complex)
        rng = np.random.default_rng(m)
        comps = e.component_indices(rng.random((8192, m + 1)))
        flags = rng.random((8192, m)) < 0.5 if coin_flips else None
        with pytest.raises(IdentityViolationError) as want:
            per_row_outcome_probabilities(e, comps, flags)
        with pytest.raises(IdentityViolationError) as got:
            ht._outcome_probabilities(e, comps, flags)
        assert str(got.value) == str(want.value)
        assert got.value.statistic == want.value.statistic

    def test_cli_exit_4_record_names_the_first_bad_row(self, monkeypatch, capsys):
        bad_gram = np.diag([1.0, 3.0, 1.0, 5.0]).astype(complex)
        monkeypatch.setattr(EnsembleSpec, "gram", property(lambda self: bad_gram))
        seen = []
        kernel = ht._outcome_probabilities

        def spy(e, comps, flags=None):
            with pytest.raises(IdentityViolationError) as want:
                per_row_outcome_probabilities(e, comps, flags)
            seen.append(want.value)
            return kernel(e, comps, flags)

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
