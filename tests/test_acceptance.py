"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qtrace import (
    exact_combination_trace,
    exact_entropy_trace,
    exact_g_power_trace,
    exact_power_trace,
)
from qtrace import gst
from qtrace.gst import (
    build_subspace,
    combination_trace,
    estimate_g_power_trace,
    estimate_power_trace,
    measure_matrices,
    operator_basis_for_states,
)
from qtrace.ht import estimate_power_trace_enumerate, estimate_power_trace_mc
from qtrace.noise_bounds import EXACT, MeasureMode, shots_for_accuracy, truncation_error_estimate
from qtrace.series import MODE_ORACLE, TraceEstimate, entropy_weights, evaluate_series

from .conftest import angle_spec, cli_env, random_ensemble, reference_spec
from .test_cli import BYTE_PINS


def report(number: int, name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def spec3():
    return reference_spec(3)


def test_criterion_01_table_reproduction(spec3):
    """Oracle, HT-enumerate, and GST-enumerate all reproduce the reference
    power traces to 3 decimal places."""
    want = {2: 0.650, 3: 0.486, 4: 0.375}
    got = {}
    ok = True
    for m, target in want.items():
        oracle = exact_power_trace(spec3, m)
        ht_val = estimate_power_trace_enumerate(spec3, m - 1).value
        gst_val = estimate_power_trace(spec3, m).value
        got[m] = (oracle, ht_val, gst_val)
        ok &= all(round(v, 3) == target for v in got[m])
    detail = "; ".join(
        f"m={m}: oracle={o:.4f} ht={h:.4f} gst={g:.4f}" for m, (o, h, g) in got.items()
    )
    assert report(1, "Table II reproduction", ok, detail)


def test_criterion_02_cross_method_identity(spec3):
    """GST Tr{G^2} equals 2^n - 4 + 4 Tr{rho^2} = 6.600 within 1e-3.  GST
    estimates the deficit Tr{G^2} - 2^n."""
    gst_val = 2**3 + estimate_g_power_trace(spec3, 2).value
    identity = 2**3 - 4 + 4 * exact_power_trace(spec3, 2)
    ok = abs(gst_val - 6.600) <= 1e-3 and abs(gst_val - identity) <= 1e-3
    assert report(2, "Tr{G^2} consistency", ok,
                  f"gst={gst_val:.6f}, identity={identity:.6f}, target 6.600")


def test_criterion_03_entropy_series(spec3):
    """Entropy expansion over oracle Tr{G^k}: order 8 within 2.5% relative
    error of -0.600, and strictly better than order 2.

    The 2.5% clause is kept as stated even though the exact series error at
    order 8 is 2.870% (the reference figure of 2.33% reflects shot noise in
    the source measurements; the exact error first drops below 2.5% at
    order 10 — see README). This test documents the gap rather than hide it.
    """
    exact = exact_entropy_trace(spec3)
    gk = [
        TraceEstimate(exact_g_power_trace(spec3, k), 0.0, MODE_ORACLE)
        for k in range(10)
    ]
    rel = {
        n_t: abs(evaluate_series(entropy_weights(n_t), gk).value - exact) / abs(exact)
        for n_t in (2, 8)
    }
    trend_ok = rel[8] < rel[2]
    band_ok = rel[8] <= 0.025
    report(3, "entropy series", band_ok and trend_ok,
           f"exact={exact:.4f}, rel_err(2)={rel[2]:.2%}, rel_err(8)={rel[8]:.2%}, "
           f"trend {'ok' if trend_ok else 'violated'}, 2.5% band "
           f"{'met' if band_ok else 'missed'}")
    assert trend_ok
    assert band_ok, (
        f"order-8 relative error {rel[8]:.3%} exceeds the 2.5% target, which "
        "exact arithmetic cannot meet before order 10 (known gap, see README)"
    )


def test_criterion_04_ht_statistical_soundness(spec3):
    """50 seeded HT runs at 1e5 shots: >= 46 cover the truth at 3 stderr,
    and quadrupling shots halves the stderr within 20%."""
    truth = exact_power_trace(spec3, 2)
    one_shot = MeasureMode("shots", shots=1)
    covered = 0
    stderrs = []
    for rep in range(50):
        est = estimate_power_trace_mc(spec3, 1, trials=100_000, mode=one_shot, rng=rep)
        stderrs.append(est.std_error)
        if abs(est.value - truth) <= 3 * est.std_error:
            covered += 1
    big_stderrs = [
        estimate_power_trace_mc(spec3, 1, trials=400_000, mode=one_shot, rng=1000 + rep).std_error
        for rep in range(5)
    ]
    ratio = float(np.mean(big_stderrs)) / float(np.mean(stderrs))
    coverage_ok = covered >= 46
    scaling_ok = 0.4 <= ratio <= 0.6
    assert report(4, "HT statistical soundness", coverage_ok and scaling_ok,
                  f"coverage {covered}/50, stderr ratio {ratio:.3f} (target 0.5 +- 20%)")


def test_criterion_05_gst_restriction_oracle():
    """200 randomized exact-mode words: |combination value - (Re oracle - 2^n)|
    <= 1e-6 whenever nothing was truncated (GST values are deficits)."""
    rng = np.random.default_rng(20240817)
    worst, checked = 0.0, 0
    while checked < 200:
        n = int(rng.integers(2, 7))
        alpha = int(rng.integers(1, 4))
        e = random_ensemble(rng, n, alpha)
        k = int(rng.integers(0, 5))
        q = tuple(int(i) for i in rng.integers(0, alpha, size=k))
        ct = combination_trace(e, q, epsilon=1e-10)
        if build_subspace(e, q, 1e-10).discarded:
            continue
        worst = max(worst, abs(ct.value - (exact_combination_trace(e, q).real - e.dim)))
        checked += 1
    ok = worst <= 1e-6
    assert report(5, "GST restriction oracle", ok,
                  f"200 cases, worst deviation {worst:.3e} (cap 1e-6)")


def test_criterion_06_operator_basis_degeneracy(monkeypatch):
    """50 random d=2 subspaces: Gram singular at theta=pi, nonsingular at
    theta=pi/2."""
    # Admit theta = pi, which operator_basis_for_states rejects for this reason.
    monkeypatch.setattr(gst, "check_theta", lambda theta: None)
    rng = np.random.default_rng(606)
    singular_ok = nonsingular_ok = 0
    for _ in range(50):
        e = random_ensemble(rng, 3, 2)
        q = (0, 1)
        b = build_subspace(e, q, 1e-10)
        if b.d != 2:
            e = random_ensemble(rng, 3, 2)
            continue
        _, g_pi = measure_matrices(e, q, operator_basis_for_states(b.retained, math.pi))
        ev_pi = np.linalg.eigvalsh(0.5 * (g_pi + g_pi.T))
        singular_ok += ev_pi.min() < 1e-10

        _, g_half = measure_matrices(e, q, operator_basis_for_states(b.retained, math.pi / 2))
        ev_half = np.linalg.eigvalsh(0.5 * (g_half + g_half.T))
        nonsingular_ok += ev_half.min() > 1e-6 * float(np.median(ev_half))
    ok = singular_ok == 50 and nonsingular_ok == 50
    assert report(6, "operator-basis degeneracy", ok,
                  f"singular at pi: {singular_ok}/50, conditioned at pi/2: {nonsingular_ok}/50")


def test_criterion_07_truncation_behavior():
    """A two-state ensemble with overlap 1 - 1e-8 truncates at eps = 1e-4
    (d drops by one) and the Tr{G^2} bias stays below the estimate."""
    overlap = 1.0 - 1e-8
    delta = 2.0 * math.acos(math.sqrt(overlap))  # per-qubit angle on 2 qubits
    e = angle_spec(2, [0.5, 0.5], (0.3, 0.0, 0.0), (0.3 + delta, 0.0, 0.0))
    got_overlap = abs(np.vdot(e.state_matrix[0], e.state_matrix[1]))
    assert got_overlap == pytest.approx(overlap, abs=1e-12)

    b_loose = build_subspace(e, (0, 1), 1e-4)
    dropped = b_loose.d == 1 and len(b_loose.discarded) == 1

    est = estimate_g_power_trace(e, 2, epsilon=1e-4).value
    bias = abs(e.dim + est - exact_g_power_trace(e, 2))
    # Exact measurement: the shot term only needs to be negligible next to eps.
    budget = truncation_error_estimate(n_layers=2, d=1, epsilon=1e-4, shots=1e12)
    ok = dropped and bias < budget
    assert report(7, "truncation behavior", ok,
                  f"d dropped to {b_loose.d}, bias {bias:.3e} < estimate {budget:.3e}")


def test_criterion_08_hoeffding_sizing(spec3):
    """At the Hoeffding-sized shot count, a fixed Gram entry violates the
    d^2*eps bound in fewer than delta + 3 sigma of 1000 trials."""
    d, eps, delta = 2, 0.02, 0.05
    shots = shots_for_accuracy(d, eps, delta)
    q = (0, 1)
    b = build_subspace(spec3, q, 1e-10)
    _, g = measure_matrices(spec3, q, operator_basis_for_states(b.retained, math.pi / 2))
    p_true = float(g[0, 1])
    rng = np.random.default_rng(808)
    estimates = rng.binomial(shots, p_true, size=1000) / shots
    violations = int(np.sum(np.abs(estimates - p_true) > d * d * eps))
    limit = delta + 3 * math.sqrt(delta * (1 - delta) / 1000)
    ok = violations / 1000 < limit
    assert report(8, "Hoeffding sizing", ok,
                  f"N={shots}, entry p={p_true:.4f}, violations {violations}/1000, "
                  f"limit {limit:.3f}")


def test_criterion_09_noise_band_regression(spec3):
    """Gaussian noise at the reference levels keeps both estimators inside
    5x the clean-mode stderr band around 0.650 across 20 seeds."""
    ht_clean = estimate_power_trace_mc(spec3, 1, trials=10_000, rng=31337, mode=EXACT)
    ht_band = 5 * ht_clean.std_error
    ht_worst = max(
        abs(
            estimate_power_trace_mc(
                spec3, 1, trials=10_000, rng=seed, mode=MeasureMode("gaussian", sigma=0.01)
            ).value
            - 0.650
        )
        for seed in range(20)
    )

    gst_clean = estimate_power_trace(
        spec3, 2, strategy="mc", budget=300, epsilon=1e-3, rng=31337
    )
    gst_band = 5 * gst_clean.std_error
    gst_worst = max(
        abs(
            estimate_power_trace(
                spec3, 2, strategy="mc", budget=300, epsilon=1e-3,
                mode=MeasureMode("gaussian", sigma=1e-4), rng=seed,
            ).value
            - 0.650
        )
        for seed in range(20)
    )
    ok = ht_worst <= ht_band and gst_worst <= gst_band
    assert report(9, "noise band regression", ok,
                  f"HT worst {ht_worst:.4f} <= {ht_band:.4f}; "
                  f"GST worst {gst_worst:.4f} <= {gst_band:.4f}")


def test_criterion_10_cli_determinism():
    """Two fresh CLI processes print the pinned bytes of a seeded HT and a
    seeded GST Monte Carlo command."""
    commands = {
        "ht": "ht --power 2 --strategy mc --mode shots --trials 30000 --seed 7 --format json",
        "gst": "gst --power 2 --strategy mc --trials 120 --epsilon 1e-3 --seed 7 --format json",
    }
    ok = {}
    for name, command in commands.items():
        outputs = []
        for _ in range(2):
            r = subprocess.run([sys.executable, "-m", "qtrace", *command.split()],
                               capture_output=True, text=True, env=cli_env())
            assert r.returncode == 0, r.stderr
            outputs.append(hashlib.sha256(r.stdout.encode()).hexdigest())
        ok[name] = outputs == [BYTE_PINS[command]] * 2
    # sanity: the output is a real result table
    assert json.loads(r.stdout)["rows"][0]["quantity"] == "tr_rho_power"
    assert report(10, "CLI determinism", all(ok.values()),
                  f"ht matches pin: {ok['ht']}, gst matches pin: {ok['gst']}")
