import math
from fractions import Fraction

import numpy as np
import pytest

from qtrace import (
    exact_entropy_trace,
    exact_g_power_trace,
    exact_power_trace,
    exact_rho_g_power_trace,
)
from qtrace.series import (
    MODE_ORACLE,
    TraceEstimate,
    binomial_weights,
    entropy_weights,
    evaluate_series,
    evaluate_telescoped,
)

from .conftest import random_ensemble


def oracle_g_estimates(spec, k_max):
    return [
        TraceEstimate(exact_g_power_trace(spec, k), 0.0, MODE_ORACLE)
        for k in range(k_max + 1)
    ]


def oracle_rho_g_estimates(spec, j_max):
    return [
        TraceEstimate(exact_rho_g_power_trace(spec, j), 0.0, MODE_ORACLE)
        for j in range(j_max + 1)
    ]


class TestBinomialWeights:
    def test_m1(self):
        assert binomial_weights(1).coefficients == (0.5, -0.5)

    def test_m2(self):
        assert binomial_weights(2).coefficients == (0.25, -0.5, 0.25)

    def test_unsigned_sum_is_one(self):
        for m in range(8):
            assert sum(abs(c) for c in binomial_weights(m).coefficients) == pytest.approx(1.0)

    @pytest.mark.parametrize("m", [1023, 1024, 1030, 4470])
    def test_orders_past_a_float_power_of_two(self, m):
        # 2.0**m overflows from m = 1024; each weight is C(m, k) / 2**m
        # rounded once, as it was below.
        coeffs = binomial_weights(m).coefficients
        assert coeffs[m // 2] == (-1) ** (m // 2) * float(Fraction(math.comb(m, m // 2), 2**m))
        assert math.fsum(abs(c) for c in coeffs) == pytest.approx(1.0, rel=1e-14)

    def test_reference_m4(self, ref3):
        est = evaluate_series(binomial_weights(4), oracle_g_estimates(ref3, 4))
        assert round(est.value, 3) == 0.375

    def test_power_series_exactness_random_specs(self):
        rng = np.random.default_rng(3)
        for n, alpha in ((2, 2), (3, 3), (4, 3), (2, 3)):
            spec = random_ensemble(rng, n, alpha)
            gk = oracle_g_estimates(spec, 6)
            for m in range(1, 7):
                est = evaluate_series(binomial_weights(m), gk)
                assert est.value == pytest.approx(exact_power_trace(spec, m), abs=1e-9)


class TestEntropyWeights:
    def test_order_one(self):
        w = entropy_weights(1)
        assert w.coefficients == pytest.approx(
            (-0.5 * math.log(2), 0.5 * math.log(2) - 0.5, 0.5)
        )

    def test_order_two(self):
        c = entropy_weights(2).coefficients
        assert c[2] == pytest.approx(0.25)
        assert c[3] == pytest.approx(0.25)

    def test_order_three(self):
        c = entropy_weights(3).coefficients
        assert c[2] == pytest.approx(1 / 4)
        assert c[3] == pytest.approx(1 / 12)
        assert c[4] == pytest.approx(1 / 6)

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            entropy_weights(0)

    def test_matches_plain_log_series(self, ref3):
        # The closing corrective term makes the product expansion telescope
        # into the truncated log series -ln2 - sum_j (1/j) Tr{G^j rho}.
        gk = oracle_g_estimates(ref3, 9)
        for n_t in (1, 2, 5, 8):
            product_form = evaluate_series(entropy_weights(n_t), gk).value
            log_form = -math.log(2) - sum(
                (1.0 / j) * 0.5 * (gk[j].value - gk[j + 1].value)
                for j in range(1, n_t + 1)
            )
            assert product_form == pytest.approx(log_form, abs=1e-12)


class TestEvaluateSeries:
    def test_reference_entropy_order_two(self, ref3):
        est = evaluate_series(entropy_weights(2), oracle_g_estimates(ref3, 3))
        assert est.value == pytest.approx(-0.565, abs=0.01)

    def test_reference_entropy_order_eight_frozen_value(self, ref3):
        # Frozen from the oracle series; corresponds to 2.870% relative error
        # against the exact -0.599864 (first below 2.5% only at order 10).
        est = evaluate_series(entropy_weights(8), oracle_g_estimates(ref3, 9))
        assert est.value == pytest.approx(-0.5826468415353767, abs=1e-12)

    def test_entropy_error_shrinks_with_order(self, ref3):
        exact = exact_entropy_trace(ref3)
        gk = oracle_g_estimates(ref3, 9)
        err2 = abs(evaluate_series(entropy_weights(2), gk).value - exact)
        err8 = abs(evaluate_series(entropy_weights(8), gk).value - exact)
        assert err2 / abs(exact) < 0.06
        assert err8 < err2

    def test_missing_orders_rejected(self, ref3):
        with pytest.raises(ValueError, match="up to k=3"):
            evaluate_series(entropy_weights(2), oracle_g_estimates(ref3, 2))

    def test_stderr_combines_in_quadrature(self):
        gk = [
            TraceEstimate(8.0, 0.0, "exact-enumeration"),
            TraceEstimate(6.0, 0.1, "mc-shots"),
            TraceEstimate(6.6, 0.2, "mc-shots"),
        ]
        est = evaluate_series(binomial_weights(2), gk)
        expected = math.sqrt((0.5 * 0.1) ** 2 + (0.25 * 0.2) ** 2)
        assert est.std_error == pytest.approx(expected, abs=1e-15)
        assert est.mode == "mc-shots"

    def test_extra_orders_ignored(self, ref3):
        gk = oracle_g_estimates(ref3, 8)
        a = evaluate_series(binomial_weights(2), gk[:3])
        b = evaluate_series(binomial_weights(2), gk)
        assert a.value == b.value


class TestWeightSums:
    """Sum c_k = 0 makes the 2^n term of every Tr{G^k} cancel."""

    @pytest.mark.parametrize("order", range(1, 16))
    def test_entropy_weights_sum_to_zero(self, order):
        assert math.fsum(entropy_weights(order).coefficients) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("m", range(1, 16))
    def test_binomial_weights_sum_to_zero(self, m):
        assert math.fsum(binomial_weights(m).coefficients) == pytest.approx(0.0, abs=1e-15)


class TestEvaluateTelescoped:
    @pytest.mark.parametrize("weights", [entropy_weights(2), entropy_weights(8),
                                         entropy_weights(12), binomial_weights(5)])
    def test_matches_evaluate_series_on_oracle_values(self, ref3, weights):
        k_max = weights.max_power
        direct = evaluate_telescoped(weights, ref3.dim, oracle_rho_g_estimates(ref3, k_max - 1))
        via_gk = evaluate_series(weights, oracle_g_estimates(ref3, k_max))
        assert direct.value == pytest.approx(via_gk.value, abs=1e-12)
        assert (direct.std_error, direct.mode) == (0.0, MODE_ORACLE)

    def test_random_ensembles_match_power_traces(self):
        rng = np.random.default_rng(8)
        for n, alpha in ((2, 2), (4, 3), (6, 5)):
            spec = random_ensemble(rng, n, alpha)
            for m in range(1, 7):
                est = evaluate_telescoped(binomial_weights(m), spec.dim,
                                          oracle_rho_g_estimates(spec, m))
                assert est.value == pytest.approx(exact_power_trace(spec, m), abs=1e-12)

    def test_stderr_combines_each_term_once(self):
        # Tr{rho^2} = 1/4 (Tr I - 2 Tr G + Tr G^2), so b_0 = -2 (c_1 + c_2) = 1/2
        # and b_1 = -2 c_2 = -1/2.
        rho_g = [
            TraceEstimate(1.0, 0.1, "mc-shots"),
            TraceEstimate(0.3, 0.2, "mc-exact-prob"),
            TraceEstimate(5.0, 9.0, "mc-shots"),  # unused: j < max power only
        ]
        est = evaluate_telescoped(binomial_weights(2), 8, rho_g)
        assert est.value == pytest.approx(0.5 * 1.0 - 0.5 * 0.3, abs=1e-15)
        assert est.std_error == pytest.approx(math.hypot(0.5 * 0.1, 0.5 * 0.2), abs=1e-15)
        assert est.mode == "mc-shots"

    def test_one_coefficient_series_is_the_dimension(self):
        # Tr{rho^0} = Tr{I} needs no a_j: the value is dim, from no estimate.
        est = evaluate_telescoped(binomial_weights(0), 8, [])
        assert est == TraceEstimate(8.0, 0.0, MODE_ORACLE)

    def test_missing_powers_rejected(self, ref3):
        with pytest.raises(ValueError, match="up to j=2"):
            evaluate_telescoped(entropy_weights(2), ref3.dim, oracle_rho_g_estimates(ref3, 1))
