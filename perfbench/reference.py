"""Span-space reference values and the per-run correctness gate.

The reference never builds a 2^n vector.  All states live in the span of the
alpha component states psi_i = U_i|0...0>, so with the alpha x alpha Gram

    K_ij = <psi_i|psi_j> = prod_q <0|u_iq^dagger u_jq|0>

the nonzero spectrum of rho = sum_i p_i |psi_i><psi_i| is the spectrum of
sqrt(P) K sqrt(P).  Every quantity the benchmark checks follows from those
alpha eigenvalues, at a cost of O(n alpha^2).  This module reads the config
JSON itself and shares no code with the package under test.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

#: Eigenvalues below this contribute nothing to Tr{rho ln rho} (0 ln 0 = 0).
ENTROPY_CUTOFF = 1e-12

#: Relative tolerance for values that are exact up to rounding.
EXACT_RTOL = 1e-9

#: Monte Carlo estimates must lie within this many standard errors.
MC_SIGMAS = 5.0

#: Estimate modes that carry no sampling error.
EXACT_MODES = ("exact-enumeration", "oracle")

REQUIRED_COLUMNS = ("quantity", "order", "estimate", "std_error", "exact_value", "mode", "seed")


@dataclass(frozen=True)
class SpanModel:
    """The ensemble reduced to its alpha eigenvalues and Hilbert dimension."""

    n: int
    alpha: int
    eigenvalues: np.ndarray

    def power_trace(self, m: int) -> float:
        """Tr{rho^m}."""
        return float(np.sum(self.eigenvalues**m))

    def g_power_trace(self, k: int) -> float:
        """Tr{G^k}, G = I - 2 rho; the 2^n - alpha null directions give 1 each."""
        return float(np.sum((1.0 - 2.0 * self.eigenvalues) ** k) + (2**self.n - self.alpha))

    def entropy_trace(self) -> float:
        """Tr{rho ln rho}."""
        lam = self.eigenvalues[self.eigenvalues > ENTROPY_CUTOFF]
        return float(np.sum(lam * np.log(lam)))

    def entropy_series(self, order: int) -> float:
        """The order-n_t truncated expansion of Tr{rho ln rho} in Tr{G^k}:
        c_0 = -ln2/2, c_1 = (ln2 - 1)/2, c_j = (1/(j-1) - 1/j)/2 for
        2 <= j <= n_t, c_{n_t+1} = 1/(2 n_t)."""
        coeffs = [-0.5 * math.log(2.0), 0.5 * math.log(2.0) - 0.5]
        coeffs += [0.5 * (1.0 / (j - 1) - 1.0 / j) for j in range(2, order + 1)]
        coeffs.append(0.5 / order)
        return sum(c * self.g_power_trace(k) for k, c in enumerate(coeffs))


def first_columns(angles: np.ndarray) -> np.ndarray:
    """u(theta, phi, lam)|0> = (cos(theta/2), e^{i phi} sin(theta/2)) per
    (component, qubit); angles in radians, shape (alpha, n, 3)."""
    theta, phi = angles[..., 0], angles[..., 1]
    return np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=-1)


def span_model(probs: np.ndarray, angles: np.ndarray) -> SpanModel:
    """Eigenvalues of sqrt(P) K sqrt(P) for angles of shape (alpha, n, 3)."""
    p = np.asarray(probs, dtype=float)
    p = p / p.sum()
    cols = first_columns(np.asarray(angles, dtype=float))
    # <0|u_iq^dagger u_jq|0> for every qubit, multiplied over qubits.
    per_qubit = np.einsum("iqa,jqa->ijq", cols.conj(), cols)
    gram = np.prod(per_qubit, axis=-1)
    root = np.sqrt(p)
    lam = np.linalg.eigvalsh(root[:, None] * gram * root[None, :])
    return SpanModel(angles.shape[1], len(p), np.clip(lam, 0.0, None))


def model_from_config(raw: dict) -> SpanModel:
    """SpanModel of a qtrace JSON config (angles in units of pi, one triple
    broadcast to every qubit or one triple per qubit)."""
    n = int(raw["n_qubits"])
    probs, angles = [], []
    for comp in raw["components"]:
        triples = np.asarray(comp["angles"], dtype=float) * math.pi
        angles.append(np.broadcast_to(triples, (n, 3)) if len(triples) == 1 else triples)
        probs.append(float(comp["prob"]))
    return span_model(np.array(probs), np.array(angles))


def model_from_file(path: str) -> SpanModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_config(json.load(fh))


@dataclass(frozen=True)
class Expectation:
    """What a workload's result table must contain.

    ``rows`` lists (quantity, order, exact reference, estimate reference) in
    output order; ``mode`` is the estimate mode every row must carry;
    ``bias`` widens the Monte Carlo band by a known systematic bound.
    """

    rows: tuple[tuple[str, int, float, float], ...]
    mode: str
    seed: int
    bias: float = 0.0


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= EXACT_RTOL * max(abs(want), 1e-300)


def check_table(text: str, exp: Expectation) -> list[str]:
    """Problems found in a CSV result table; an empty list means it passed."""
    try:
        rows = list(csv.DictReader(io.StringIO(text)))
    except csv.Error as exc:
        return [f"unparseable table: {exc}"]
    if not rows:
        return ["empty table"]
    missing = [c for c in REQUIRED_COLUMNS if c not in rows[0]]
    if missing:
        return [f"missing columns {missing}"]
    got_keys = [(r["quantity"], r["order"]) for r in rows]
    want_keys = [(q, str(o)) for q, o, _, _ in exp.rows]
    if got_keys != want_keys:
        return [f"row set {got_keys} != expected {want_keys}"]
    problems = []
    for row, (quantity, order, exact_ref, estimate_ref) in zip(rows, exp.rows):
        label = f"{quantity}[{order}]"
        try:
            exact = float(row["exact_value"])
            estimate = float(row["estimate"])
            std_error = float(row["std_error"])
            seed = int(row["seed"])
        except ValueError as exc:
            problems.append(f"{label}: non-numeric cell ({exc})")
            continue
        if seed != exp.seed:
            problems.append(f"{label}: seed {seed} != {exp.seed}")
        if row["mode"] != exp.mode:
            problems.append(f"{label}: mode {row['mode']!r} != {exp.mode!r}")
        if not _close(exact, exact_ref):
            problems.append(f"{label}: exact_value {exact!r} != reference {exact_ref!r}")
        if exp.mode in EXACT_MODES:
            if std_error != 0.0 or not _close(estimate, estimate_ref):
                problems.append(f"{label}: exact estimate {estimate!r} != reference {estimate_ref!r}")
        else:
            band = MC_SIGMAS * std_error + exp.bias
            if not (std_error > 0.0 and abs(estimate - estimate_ref) <= band):
                problems.append(
                    f"{label}: estimate {estimate!r} is {abs(estimate - estimate_ref):.3g} from "
                    f"{estimate_ref!r}, outside {MC_SIGMAS:g} x {std_error:.3g} + {exp.bias:.3g}"
                )
    return problems
