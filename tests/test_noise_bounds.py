import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtrace.noise_bounds import (
    DivergentBoundError,
    ErrorBudget,
    gram_inverse_error_bound,
    perturb_probabilities,
    sampling_error_bound,
    shots_for_accuracy,
    truncation_error_estimate,
)


class TestPerturbProbability:
    def test_zero_sigma_identity(self):
        p = np.array([0.37, 0.0, 1.0])
        out, clamps = perturb_probabilities(p, 0.0, np.random.default_rng(0))
        assert np.array_equal(out, p) and clamps == 0

    def test_sample_std_matches_sigma(self):
        draws, _ = perturb_probabilities(np.full(100_000, 0.5), 0.01, np.random.default_rng(1))
        assert abs(draws.std() - 0.01) / 0.01 < 0.05

    def test_clamped_to_unit_interval(self):
        # Half the draws around p = 1 overshoot; each one is clamped and counted.
        out, clamps = perturb_probabilities(np.full(500, 1.0), 0.01, np.random.default_rng(2))
        assert out.max() <= 1.0
        assert clamps == np.count_nonzero(out == 1.0)
        assert 200 < clamps < 300

    def test_vectorized_matches_contract(self):
        rng = np.random.default_rng(3)
        out, clamps = perturb_probabilities(np.full(1000, 0.999), 0.01, rng)
        assert out.max() <= 1.0 and out.min() >= 0.0
        assert clamps > 0

    def test_deterministic_stream(self):
        p = np.linspace(0.0, 1.0, 11)
        a, na = perturb_probabilities(p, 0.01, np.random.default_rng(7))
        b, nb = perturb_probabilities(p, 0.01, np.random.default_rng(7))
        assert np.array_equal(a, b) and na == nb


class TestShotsForAccuracy:
    def test_known_values(self):
        assert shots_for_accuracy(1, 0.1, 0.05) == 185
        # ceil(ln(160)/0.0002): ln(160) = 5.0751738..., so 25375.87 -> 25376.
        assert shots_for_accuracy(2, 0.01, 0.05) == 25376

    def test_quadratic_scaling(self):
        n1 = shots_for_accuracy(3, 0.02, 0.1)
        n2 = shots_for_accuracy(3, 0.01, 0.1)
        assert n1 * 4 - 4 <= n2 <= n1 * 4 + 4

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            shots_for_accuracy(0, 0.1, 0.1)
        with pytest.raises(ValueError):
            shots_for_accuracy(1, 1.5, 0.1)


class TestGramInverseErrorBound:
    def test_zero_error_is_zero(self):
        assert gram_inverse_error_bound(3, 0.0, 0.1) == pytest.approx(0.0)

    def test_formula_value(self):
        expected = 4e-4 / (1 - 4e-5)
        assert gram_inverse_error_bound(2, 1e-4, 0.1) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_dimension(self):
        values = [gram_inverse_error_bound(d, 1e-4, 0.1) for d in (1, 2, 3, 4)]
        assert values == sorted(values)

    def test_divergent_denominator(self):
        with pytest.raises(DivergentBoundError, match="diverges"):
            gram_inverse_error_bound(10, 0.5, 0.5)


class TestSamplingErrorBound:
    def test_zero_errors(self):
        assert sampling_error_bound(2, 0.0, 0.0, 0.1) == 0.0

    def test_formula_value(self):
        got = sampling_error_bound(1, 1e-4, 1e-4, 0.1)
        denom = 1 - 1e-5
        expected = 1e-4 / denom + 1e-3 + 1e-8 / denom
        assert got == pytest.approx(expected, rel=1e-12)

    def test_second_term_dominates_small_epsilon(self):
        a = sampling_error_bound(2, 1e-6, 1e-4, 1e-3)
        b = sampling_error_bound(2, 1e-6, 1e-4, 1e-6)
        assert b > a
        assert b == pytest.approx(4 * 1e-4 / 1e-6, rel=1e-2)


class TestTruncationErrorEstimate:
    def test_vanishes_in_clean_limit(self):
        # At epsilon = 0 the estimate is d*n*(d^2/sqrt(shots))^{1/4}, which
        # decays by 10^{-1/2} per 10^4 more shots and tends to 0.
        v6 = truncation_error_estimate(4, 2, 0.0, 1e6)
        v10 = truncation_error_estimate(4, 2, 0.0, 1e10)
        assert v6 == pytest.approx(8 * (4 / 1e3) ** 0.25, rel=1e-12)
        assert v10 == pytest.approx(v6 / math.sqrt(10), rel=1e-12)
        assert truncation_error_estimate(4, 2, 0.0, 1e30) < 0.01

    def test_reference_point(self):
        got = truncation_error_estimate(4, 2, 1e-4, 1e6)
        assert got == pytest.approx(8 * (1e-4 + 4e-3) ** 0.25, rel=1e-12)
        assert got == pytest.approx(2.03, abs=0.01)

    def test_quartic_root_flattening(self):
        base = truncation_error_estimate(3, 2, 1e-4, 1e12)
        bumped = truncation_error_estimate(3, 2, 16e-4, 1e12)
        assert bumped <= 2 * base + 1e-12


bounded = st.floats(1e-8, 1e-2)


class TestMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), bounded, bounded, st.floats(1e-4, 0.5))
    def test_bounds_monotone_in_error_levels(self, d, eps1, eps2, epsilon):
        if d * d * eps1 * epsilon >= 0.5:
            return
        for scale in (2.0, 5.0):
            if d * d * eps1 * scale * epsilon >= 1.0:
                continue
            assert gram_inverse_error_bound(d, eps1 * scale, epsilon) >= gram_inverse_error_bound(
                d, eps1, epsilon
            )
            assert sampling_error_bound(d, eps1 * scale, eps2, epsilon) >= sampling_error_bound(
                d, eps1, eps2, epsilon
            )
            assert sampling_error_bound(d, eps1, eps2 * scale, epsilon) >= sampling_error_bound(
                d, eps1, eps2, epsilon
            )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 8), bounded, st.floats(100, 1e8))
    def test_truncation_estimate_monotone(self, d, layers, epsilon, shots):
        assert truncation_error_estimate(layers, d, epsilon * 2, shots) >= (
            truncation_error_estimate(layers, d, epsilon, shots)
        )
        assert truncation_error_estimate(layers, d, epsilon, shots * 4) <= (
            truncation_error_estimate(layers, d, epsilon, shots)
        )


class TestConfigTypes:
    def test_error_budget_validation(self):
        with pytest.raises(ValueError, match="delta"):
            ErrorBudget(d=2, epsilon=0.1, eps1=1e-4, eps2=1e-4, delta=1.5, n_layers=3)

    def test_hoeffding_coverage_small(self):
        # Mini version of the empirical coverage property: with the returned
        # shot count, |p_hat - p| rarely exceeds d^2 * eps_tilde.
        d, eps, delta = 2, 0.05, 0.1
        shots = shots_for_accuracy(d, eps, delta)
        rng = np.random.default_rng(11)
        p = 0.43
        trials = 300
        violations = np.sum(
            np.abs(rng.binomial(shots, p, size=trials) / shots - p) > d * d * eps
        )
        assert violations / trials < delta + 3 * math.sqrt(delta * (1 - delta) / trials)
