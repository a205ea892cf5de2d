"""Configuration-driven command line front end.

All scientific parameters live in a JSON config (angles in units of pi, as
in the bundled ``table1`` example); subcommand flags select what to compute
and may override config defaults.  Results are emitted as CSV or JSON tables
with a fixed column set, floats serialized to 17 significant digits, and
byte-identical output for a fixed (config, seed).

Exit codes: 0 success, 2 config/schema violation, 3 resource limit,
4 numerical failure (ill-conditioned Gram, degenerate augmentation, broken
exact-mode identity), 5 unwritable output.  Failures print a one-line JSON
error record to stderr.

Because wall-clock timing is inherently irreproducible, the wall_ms column
is empty unless --timing is passed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from importlib import resources
from typing import Any, Callable, Sequence

import numpy as np

from . import ensemble, ht, noise_bounds, series
from . import gst as gst_mod
from .errors import (
    DegenerateAugmentationError,
    IdentityViolationError,
    IllConditionedGramError,
    ResourceLimitError,
)
from .qcore import MAX_QUBITS, ProductGate, RotationParams
from .rng import rng_stream

COLUMNS = (
    "quantity",
    "order",
    "estimate",
    "std_error",
    "exact_value",
    "rel_error",
    "mode",
    "shots",
    "trials",
    "seed",
    "wall_ms",
)

_PARAM_DEFAULTS: dict[str, Any] = {
    "seed": 0,
    "trials": 20000,
    "shots": 1,
    "gst_shots": 10000,
    "epsilon_trunc": 1e-10,
    "theta_basis": 0.5,
    "enumeration_cap": ht.DEFAULT_ENUMERATION_CAP,
    "mode": "exact",
    "strategy": "enumerate",
    "ht_sigma": 0.0,
    "gst_sigma": 0.0001,
    "allow_pseudoinverse": False,
}

_BUNDLED = {"table1": "table1.json"}

#: Reference Tr{G^m} measurements for the bundled model; shot-noisy at the
#: source, so the oracle reproduces them only to a few parts in 1e3.
_GOLDEN_G_POWERS = {2: 6.600, 3: 5.914, 4: 6.066, 5: 5.814, 6: 5.830, 7: 5.726, 8: 5.710}
_GOLDEN_POWERS = {2: 0.650, 3: 0.486, 4: 0.375}
_GOLDEN_ENTROPY = -0.600


class ConfigError(ValueError):
    """A config/schema violation, carrying the offending field path."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field


@dataclass(frozen=True)
class ResultRow:
    quantity: str
    order: int | None
    estimate: float
    std_error: float
    exact_value: float | None
    rel_error: float | None
    mode: str
    shots: int | None
    trials: int | None
    seed: int
    wall_ms: int | None


@dataclass(frozen=True)
class RunConfig:
    spec: ensemble.EnsembleSpec
    params: dict[str, Any]
    output_format: str
    output_path: str | None
    sweep: dict[str, Any] | None
    error_budget: dict[str, Any] | None


# --- config loading -------------------------------------------------------


def _expect(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise ConfigError(field, message)


def _expect_number(value: Any, field: str, *, integer: bool = False) -> float:
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    _expect(ok, field, f"expected a number, got {value!r}")
    if integer:
        _expect(float(value).is_integer(), field, f"expected an integer, got {value!r}")
    _expect(math.isfinite(float(value)), field, f"must be finite, got {value!r}")
    return float(value)


def _check_params(params: dict[str, Any], field: Callable[[str], str]) -> None:
    """Every float parameter finite, and seed and noise levels non-negative;
    ``field(key)`` names where the value came from."""
    for key, value in params.items():
        if isinstance(value, float):
            _expect(math.isfinite(value), field(key), f"must be finite, got {value!r}")
    for key in ("seed", "ht_sigma", "gst_sigma"):
        _expect(params[key] >= 0, field(key), "must be non-negative")


def bundled_config_text(name: str) -> str:
    return (resources.files("qtrace") / "data" / _BUNDLED[name]).read_text()


def load_config(path: str) -> RunConfig:
    """Load and validate a config file; bare names like ``table1`` (or
    ``table1.config``) resolve to bundled configs."""
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    else:
        stem = os.path.basename(path)
        for suffix in (".config", ".json"):
            stem = stem.removesuffix(suffix)
        if stem in _BUNDLED:
            text = bundled_config_text(stem)
        else:
            raise ConfigError("config", f"no such config file: {path}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from exc
    return parse_config(raw)


def parse_config(raw: Any) -> RunConfig:
    _expect(isinstance(raw, dict), "config", "top level must be an object")
    known = {"schema", "n_qubits", "components", "params", "output", "sweep", "error_budget"}
    for key in raw:
        _expect(key in known, key, "unknown config field")
    _expect(raw.get("schema") == 1, "schema", f"expected 1, got {raw.get('schema')!r}")

    n = int(_expect_number(raw.get("n_qubits"), "n_qubits", integer=True))
    _expect(1 <= n <= MAX_QUBITS, "n_qubits", f"must be in [1, {MAX_QUBITS}], got {n}")

    comps = raw.get("components")
    _expect(isinstance(comps, list) and comps, "components", "must be a non-empty list")
    probs, gates = [], []
    for i, comp in enumerate(comps):
        field = f"components[{i}]"
        _expect(isinstance(comp, dict), field, "must be an object")
        _expect(set(comp) == {"prob", "angles"}, field, "must have exactly prob and angles")
        p = _expect_number(comp["prob"], f"{field}.prob")
        _expect(0.0 < p <= 1.0, f"{field}.prob", f"must be in (0, 1], got {p}")
        angles = comp["angles"]
        _expect(
            isinstance(angles, list) and len(angles) in (1, n),
            f"{field}.angles",
            f"must list 1 or {n} angle triples",
        )
        factors = []
        for j, triple in enumerate(angles):
            afield = f"{field}.angles[{j}]"
            _expect(isinstance(triple, list) and len(triple) == 3, afield, "must be [theta, phi, lambda]")
            vals = [_expect_number(v, f"{afield}[{axis}]") for axis, v in enumerate(triple)]
            factors.append(RotationParams(*(v * math.pi for v in vals)))
        if len(factors) == 1:
            factors = factors * n
        probs.append(p)
        gates.append(ProductGate(n, tuple(factors)))
    total = sum(probs)
    _expect(
        abs(total - 1.0) <= ensemble.PROB_SUM_TOL,
        "components",
        f"probabilities sum to {total!r}, not 1",
    )
    spec = ensemble.EnsembleSpec(n, np.array(probs), tuple(gates))

    params = dict(_PARAM_DEFAULTS)
    raw_params = raw.get("params", {})
    _expect(isinstance(raw_params, dict), "params", "must be an object")
    for key, value in raw_params.items():
        _expect(key in _PARAM_DEFAULTS, f"params.{key}", "unknown parameter")
        default = _PARAM_DEFAULTS[key]
        if isinstance(default, bool):
            _expect(isinstance(value, bool), f"params.{key}", f"expected a bool, got {value!r}")
            params[key] = value
        elif isinstance(default, int):
            params[key] = int(_expect_number(value, f"params.{key}", integer=True))
        elif isinstance(default, float):
            params[key] = _expect_number(value, f"params.{key}")
        else:
            _expect(isinstance(value, str), f"params.{key}", f"expected a string, got {value!r}")
            params[key] = value
    _check_params(params, lambda key: f"params.{key}")
    _expect(params["mode"] in ("exact", "shots", "gaussian"), "params.mode", f"got {params['mode']!r}")
    _expect(params["strategy"] in ("enumerate", "mc"), "params.strategy", f"got {params['strategy']!r}")

    out_format, out_path = "csv", None
    output = raw.get("output")
    if output is not None:
        _expect(isinstance(output, dict), "output", "must be an object")
        for key in output:
            _expect(key in {"format", "path"}, f"output.{key}", "unknown output field")
        out_format = output.get("format", "csv")
        _expect(out_format in ("csv", "json"), "output.format", f"got {out_format!r}")
        out_path = output.get("path")
        if out_path is not None:
            _expect(isinstance(out_path, str), "output.path", "must be a string")

    sweep = raw.get("sweep")
    if sweep is not None:
        _expect(isinstance(sweep, dict), "sweep", "must be an object")
        for key in sweep:
            _expect(key in {"command", "power", "parameter", "values"}, f"sweep.{key}", "unknown sweep field")
        _expect(sweep.get("command") in ("ht", "gst"), "sweep.command", "must be 'ht' or 'gst'")
        _expect_number(sweep.get("power"), "sweep.power", integer=True)
        _expect(
            sweep.get("parameter") in ("shots", "epsilon_trunc", "ht_sigma", "gst_sigma"),
            "sweep.parameter",
            f"got {sweep.get('parameter')!r}",
        )
        values = sweep.get("values")
        _expect(isinstance(values, list) and values, "sweep.values", "must be a non-empty list")
        minimum = {"shots": 1, "ht_sigma": 0, "gst_sigma": 0}.get(sweep["parameter"])
        for i, v in enumerate(values):
            v = _expect_number(v, f"sweep.values[{i}]", integer=sweep["parameter"] == "shots")
            _expect(minimum is None or v >= minimum, f"sweep.values[{i}]", f"must be >= {minimum}")

    budget = raw.get("error_budget")
    if budget is not None:
        _expect(isinstance(budget, dict), "error_budget", "must be an object")
        allowed = {"d", "epsilon", "eps1", "eps2", "delta", "n_layers", "shots"}
        for key, value in budget.items():
            _expect(key in allowed, f"error_budget.{key}", "unknown field")
            _expect_number(value, f"error_budget.{key}")

    return RunConfig(spec, params, out_format, out_path, sweep, budget)


# --- output rendering -----------------------------------------------------


def _fmt_float(x: float) -> str:
    """17 significant digits: enough to round-trip any double exactly."""
    return format(float(x), ".17g")


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return _fmt_float(value)
    return str(value)


def render_csv(rows: Sequence[ResultRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in rows:
        writer.writerow([_cell(getattr(row, col)) for col in COLUMNS])
    return buf.getvalue()


def _json_scalar(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return json.dumps(value)


def render_json(rows: Sequence[ResultRow]) -> str:
    """Deterministic JSON with fixed key order and 17-digit floats."""
    lines = ['{\n  "schema": 1,\n  "rows": [']
    body = []
    for row in rows:
        fields = ", ".join(
            f'"{col}": {_json_scalar(getattr(row, col))}' for col in COLUMNS
        )
        body.append("    {" + fields + "}")
    lines.append(",\n".join(body))
    lines.append("  ]\n}\n")
    return "\n".join(lines)


def emit_table(rows: Sequence[ResultRow], fmt: str, path: str | None) -> None:
    """Write the result table to ``path`` (or stdout when None)."""
    text = render_csv(rows) if fmt == "csv" else render_json(rows)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# --- shared run machinery ---------------------------------------------------


def _child_seed(master: int, index: int) -> int:
    """Independent per-row master seed."""
    return int(rng_stream(master, 0x7A11, index).integers(1 << 63))


def _rel_error(estimate: float, exact: float) -> float | None:
    if exact == 0.0:
        return None
    return abs(estimate - exact) / abs(exact)


def _timed(enabled: bool, fn: Callable[..., Any], *args: Any) -> tuple[Any, int | None]:
    """fn(*args) and its wall time in ms.  The time is reported only when
    requested, since timing output breaks byte-level determinism."""
    t0 = time.perf_counter()
    result = fn(*args)
    return result, int(round(1000.0 * (time.perf_counter() - t0))) if enabled else None


def _parse_orders(text: str, flag: str) -> list[int]:
    """'2', '2,4', and '2-4' (inclusive) forms."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        try:
            if "-" in part.lstrip("-")[1:] or (part.count("-") == 1 and not part.startswith("-")):
                lo_s, hi_s = part.split("-")
                lo, hi = int(lo_s), int(hi_s)
                if hi < lo:
                    raise ValueError
                out.extend(range(lo, hi + 1))
            else:
                out.append(int(part))
        except ValueError:
            raise ConfigError(flag, f"cannot parse order spec {text!r}") from None
    return out


def _exact(spec: ensemble.EnsembleSpec, quantity: str, order: int | None) -> float:
    """The oracle's value."""
    if quantity == "tr_rho_power":
        return ensemble.exact_power_trace(spec, order)
    if quantity == "tr_g_power":
        return ensemble.exact_g_power_trace(spec, order)
    return ensemble.exact_entropy_trace(spec)


def _ht_estimate(
    spec: ensemble.EnsembleSpec, power: int, params: dict[str, Any], seed: int
) -> ht.TraceEstimate:
    if power < 1:
        raise ConfigError("--power", f"power must be >= 1, got {power}")
    if params["strategy"] == "enumerate":
        if params["mode"] != "exact":
            raise ConfigError("params.mode", "ht enumerate strategy requires exact mode")
        return ht.estimate_power_trace_enumerate(spec, power - 1, params["enumeration_cap"])
    if params["mode"] == "gaussian":
        raise ConfigError("params.mode", "ht supports exact or shots mode (ht_sigma rides on exact)")
    measure = "exact-prob" if params["mode"] == "exact" else "shots"
    if measure == "shots" and params["ht_sigma"] > 0.0:
        raise ConfigError(
            "params.ht_sigma", "pairs with exact mode only; shot and Gaussian noise never combine"
        )
    return ht.estimate_power_trace_mc(
        spec,
        power - 1,
        trials=params["trials"],
        shots_per_trial=params["shots"],
        rng=seed,
        measure=measure,
        ht_sigma=params["ht_sigma"],
    )


def _gst_estimate(
    spec: ensemble.EnsembleSpec, quantity: str, order: int, params: dict[str, Any], seed: int
) -> ht.TraceEstimate:
    estimate = (gst_mod.estimate_power_trace if quantity == "tr_rho_power"
                else gst_mod.estimate_g_power_trace)
    if params["mode"] == "shots":
        mode = gst_mod.MeasureMode("shots", shots=params["gst_shots"])
    elif params["mode"] == "gaussian":
        mode = gst_mod.MeasureMode("gaussian", sigma=params["gst_sigma"])
    else:
        mode = gst_mod.EXACT
    return estimate(
        spec,
        order,
        strategy=params["strategy"],
        budget=params["enumeration_cap"] if params["strategy"] == "enumerate" else params["trials"],
        epsilon=params["epsilon_trunc"],
        theta=params["theta_basis"] * math.pi,
        mode=mode,
        rng=seed,
        allow_pseudoinverse=params["allow_pseudoinverse"],
    )


def _estimate_row(
    spec: ensemble.EnsembleSpec, estimator: str, quantity: str, order: int | None,
    params: dict[str, Any], seed: int, timing: bool, label: str = "",
) -> ResultRow:
    """One oracle, ``ht`` or ``gst`` row.  ``seed`` drives the estimator, the
    seed column reports the master seed, and ``label`` suffixes the mode."""
    if estimator == "oracle":
        value, wall_ms = _timed(timing, _exact, spec, quantity, order)
        return ResultRow(quantity, order, value, 0.0, value, 0.0, ht.MODE_ORACLE + label,
                         None, None, params["seed"], wall_ms)
    if estimator == "ht":
        est, wall_ms = _timed(timing, _ht_estimate, spec, order, params, seed)
        shots = est.samples if est.mode == ht.MODE_MC_SHOTS else None
        trials = params["trials"] if est.mode != ht.MODE_EXACT_ENUMERATION else None
    else:
        est, wall_ms = _timed(timing, _gst_estimate, spec, quantity, order, params, seed)
        shots = params["gst_shots"] if params["mode"] == "shots" else None
        trials = params["trials"] if params["strategy"] == "mc" else None
    exact = _exact(spec, quantity, order)
    return ResultRow(quantity, order, est.value, est.std_error, exact,
                     _rel_error(est.value, exact), est.mode + label, shots, trials,
                     params["seed"], wall_ms)


# --- subcommand runners -----------------------------------------------------


def run_oracle(cfg: RunConfig, args: argparse.Namespace) -> list[ResultRow]:
    powers = _parse_orders(args.power, "--power") if args.power else []
    g_powers = _parse_orders(args.g_power, "--g-power") if args.g_power else []
    jobs = [("tr_rho_power", m) for m in powers] + [("tr_g_power", k) for k in g_powers]
    if args.entropy:
        jobs.append(("tr_rho_ln_rho", None))
    if not jobs:
        raise ConfigError("oracle", "nothing to compute: pass --power, --g-power, or --entropy")
    return [_estimate_row(cfg.spec, "oracle", quantity, order, cfg.params, 0, args.timing)
            for quantity, order in jobs]


def run_estimator(cfg: RunConfig, args: argparse.Namespace) -> list[ResultRow]:
    """``ht`` and ``gst``: row i of the rho powers runs on _child_seed(master,
    i), row j of the G powers on _child_seed(master, 10_000 + j)."""
    master, g_power = cfg.params["seed"], getattr(args, "g_power", None)
    powers = _parse_orders(args.power, "--power") if args.power else []
    g_powers = _parse_orders(g_power, "--g-power") if g_power else []
    if not powers and not g_powers:
        raise ConfigError(args.command, "nothing to compute: pass --power or --g-power")
    jobs = [("tr_rho_power", m, _child_seed(master, i)) for i, m in enumerate(powers)]
    jobs += [("tr_g_power", k, _child_seed(master, 10_000 + j)) for j, k in enumerate(g_powers)]
    return [_estimate_row(cfg.spec, args.command, quantity, order, cfg.params, seed, args.timing)
            for quantity, order, seed in jobs]


def _g_power_terms(
    spec: ensemble.EnsembleSpec, estimator: str, k_max: int, params: dict[str, Any]
) -> list[ht.TraceEstimate]:
    """Tr{G^k} for k = 0..k_max from one estimator.

    GST estimates each Tr{G^k} on _child_seed(master, k).  HT composes it
    from power estimates via the binomial identity
    Tr{G^k} = sum_j C(k,j) (-2)^j Tr{rho^j}, with fresh streams per (k, j);
    enumeration ignores the seed, so under that strategy each Tr{rho^j} is
    computed once and reused for every k.
    """
    master = params["seed"]
    if estimator == "oracle":
        return [ht.TraceEstimate(ensemble.exact_g_power_trace(spec, k), 0.0, 1, ht.MODE_ORACLE)
                for k in range(k_max + 1)]
    if estimator == "gst":
        return [_gst_estimate(spec, "tr_g_power", k, params, _child_seed(master, k))
                for k in range(k_max + 1)]
    if params["strategy"] == "enumerate":
        rho = [_ht_estimate(spec, j, params, master) for j in range(1, k_max + 1)]
        terms = [rho[:k] for k in range(k_max + 1)]
    else:
        terms = [[_ht_estimate(spec, j, params, _child_seed(master, 1000 * k + j))
                  for j in range(1, k + 1)] for k in range(k_max + 1)]
    estimates = []
    for k, ests in enumerate(terms):
        value, variance = float(spec.dim), 0.0
        for j, est in enumerate(ests, start=1):
            coeff = math.comb(k, j) * (-2.0) ** j
            value += coeff * est.value
            variance += (coeff * est.std_error) ** 2
        estimates.append(ht.TraceEstimate(
            value, math.sqrt(variance), sum(est.samples for est in ests),
            ht.combined_mode([est.mode for est in ests]) if ests else ht.MODE_EXACT_ENUMERATION,
        ))
    return estimates


def run_entropy(cfg: RunConfig, args: argparse.Namespace) -> list[ResultRow]:
    orders = _parse_orders(args.order, "--order")
    if min(orders) < 1:
        raise ConfigError("--order", "truncation orders must be >= 1")
    gk = _g_power_terms(cfg.spec, args.estimator, max(orders) + 1, cfg.params)
    exact = _exact(cfg.spec, "tr_rho_ln_rho", None)
    rows = []
    for n_t in orders:
        est, wall_ms = _timed(args.timing, series.evaluate_series, series.entropy_weights(n_t), gk)
        rows.append(ResultRow("tr_rho_ln_rho", n_t, est.value, est.std_error, exact,
                              _rel_error(est.value, exact), est.mode, None, None,
                              cfg.params["seed"], wall_ms))
    return rows


#: (command, swept parameter) -> (params key each value sets, params every row fixes).
_SWEEPS: dict[tuple[str, str], tuple[str, dict[str, Any]]] = {
    ("ht", "shots"): ("trials", {"strategy": "mc", "mode": "shots", "ht_sigma": 0.0}),
    ("ht", "ht_sigma"): ("ht_sigma", {"strategy": "mc", "mode": "exact"}),
    ("gst", "shots"): ("gst_shots", {"mode": "shots"}),
    ("gst", "gst_sigma"): ("gst_sigma", {"mode": "gaussian"}),
    ("gst", "epsilon_trunc"): ("epsilon_trunc", {}),
}


def run_sweep(cfg: RunConfig, args: argparse.Namespace) -> list[ResultRow]:
    """One ``ht``/``gst`` row per swept value; row i runs on
    _child_seed(master, i), as row i of the direct command does."""
    if cfg.sweep is None:
        raise ConfigError("sweep", "config has no sweep section")
    command, parameter = cfg.sweep["command"], cfg.sweep["parameter"]
    if (command, parameter) not in _SWEEPS:
        raise ConfigError("sweep.parameter", f"{parameter!r} does not apply to {command!r}")
    key, fixed = _SWEEPS[command, parameter]
    power, master = int(cfg.sweep["power"]), cfg.params["seed"]
    rows = []
    for i, value in enumerate(cfg.sweep["values"]):
        params = {**cfg.params, **fixed, key: int(value) if parameter == "shots" else float(value)}
        rows.append(_estimate_row(cfg.spec, command, "tr_rho_power", power, params,
                                  _child_seed(master, i), args.timing, f"@{parameter}={value}"))
    return rows


def run_bounds(cfg: RunConfig, args: argparse.Namespace) -> list[ResultRow]:
    budget = dict(cfg.error_budget or {})
    for flag in ("d", "epsilon", "eps1", "eps2", "delta", "n_layers", "shots"):
        value = getattr(args, f"b_{flag}", None)
        if value is not None:
            budget[flag] = value
    defaults = {"d": 2, "epsilon": 1e-4, "eps1": 1e-4, "eps2": 1e-4,
                "delta": 0.05, "n_layers": 4, "shots": 1e6}
    merged = {**defaults, **budget}
    eb = noise_bounds.ErrorBudget(
        d=int(merged["d"]), epsilon=float(merged["epsilon"]), eps1=float(merged["eps1"]),
        eps2=float(merged["eps2"]), delta=float(merged["delta"]), n_layers=int(merged["n_layers"]),
    )
    shots = float(merged["shots"])
    seed = cfg.params["seed"]
    entries: list[tuple[str, float]] = [
        ("hoeffding_shots", float(noise_bounds.shots_for_accuracy(eb.d, eb.eps1, eb.delta))),
        ("gram_inverse_error_estimate",
         noise_bounds.gram_inverse_error_bound(eb.d, eb.eps1, eb.epsilon)),
        ("sampling_error_estimate",
         noise_bounds.sampling_error_bound(eb.d, eb.eps1, eb.eps2, eb.epsilon)),
        ("truncation_error_estimate",
         noise_bounds.truncation_error_estimate(eb.n_layers, eb.d, eb.epsilon, shots)),
    ]
    return [
        ResultRow(name, None, value, 0.0, None, None, "estimate",
                  int(shots) if name == "truncation_error_estimate" else None,
                  None, seed, None)
        for name, value in entries
    ]


# --- golden regression suite ------------------------------------------------


def run_golden(cfg: RunConfig, out) -> int:
    """Reference-model regression rows; prints one PASS/FAIL line each.

    Exact pipelines are held to 3 decimal places; the reference Tr{G^m}
    values are themselves shot-noisy measurements and are checked at 5e-3.
    """
    spec = cfg.spec
    failures = 0

    def check(label: str, ok: bool, detail: str) -> None:
        nonlocal failures
        failures += 0 if ok else 1
        out.write(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}\n")

    for m, want in sorted(_GOLDEN_POWERS.items()):
        oracle = ensemble.exact_power_trace(spec, m)
        htv = ht.estimate_power_trace_enumerate(spec, m - 1).value
        gstv = gst_mod.estimate_power_trace(spec, m).value
        for label, got in (("oracle", oracle), ("ht", htv), ("gst", gstv)):
            check(f"tr_rho_power[{m}] {label}", round(got, 3) == want,
                  f"got {got:.6f}, want {want:.3f}")

    g2 = gst_mod.estimate_g_power_trace(spec, 2).value
    check("tr_g_power[2] gst", abs(g2 - 6.600) <= 1e-3, f"got {g2:.6f}, want 6.600 +- 1e-3")

    for m, want in sorted(_GOLDEN_G_POWERS.items()):
        got = ensemble.exact_g_power_trace(spec, m)
        check(f"tr_g_power[{m}] oracle vs published", abs(got - want) <= 5e-3,
              f"got {got:.6f}, published {want:.3f} (shot-noisy)")

    entropy_exact = ensemble.exact_entropy_trace(spec)
    check("tr_rho_ln_rho exact", round(entropy_exact, 3) == _GOLDEN_ENTROPY,
          f"got {entropy_exact:.6f}, want {_GOLDEN_ENTROPY:.3f}")

    gk = _g_power_terms(spec, "oracle", 9, cfg.params)
    err = {
        n_t: abs(series.evaluate_series(series.entropy_weights(n_t), gk).value - entropy_exact)
        for n_t in (2, 8)
    }
    check("entropy series error trend", err[8] < err[2],
          f"order-8 err {err[8]:.4f} < order-2 err {err[2]:.4f}")

    out.write(f"{'ALL PASS' if failures == 0 else f'{failures} FAILURES'}\n")
    return 0 if failures == 0 else 1


# --- argument parsing and entry point ----------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtrace",
        description="Trace powers and entropy of ensemble-prepared random states.",
    )
    parser.add_argument("--golden", action="store_true",
                        help="run the bundled regression suite and report per-row pass/fail")
    parser.add_argument("--config", default="table1",
                        help="config file path or bundled name (default: table1)")
    sub = parser.add_subparsers(dest="command")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="config file path or bundled name")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--timing", action="store_true",
                       help="fill wall_ms (breaks byte-level determinism)")

    p_oracle = sub.add_parser("oracle", help="exact values from the span-space oracle")
    p_oracle.add_argument("--power", default=None, help="rho powers, e.g. 2 or 2-4")
    p_oracle.add_argument("--g-power", default=None, help="G powers, e.g. 0-3")
    p_oracle.add_argument("--entropy", action="store_true", help="Tr{rho ln rho}")
    common(p_oracle)

    p_ht = sub.add_parser("ht", help="Hadamard-test estimator")
    p_ht.add_argument("--power", required=True, help="rho powers, e.g. 2 or 2-4")
    p_ht.add_argument("--strategy", choices=("enumerate", "mc"), default=None)
    p_ht.add_argument("--mode", choices=("exact", "shots"), default=None)
    p_ht.add_argument("--trials", type=int, default=None)
    p_ht.add_argument("--shots", type=int, default=None, help="shots per sampled circuit")
    p_ht.add_argument("--ht-sigma", type=float, default=None)
    p_ht.add_argument("--cap", type=int, default=None, help="enumeration cap")
    common(p_ht)

    p_gst = sub.add_parser("gst", help="subspace gate-set-tomography estimator")
    p_gst.add_argument("--power", default=None, help="rho powers, e.g. 2 or 2-4")
    p_gst.add_argument("--g-power", default=None, help="G powers, e.g. 0-3")
    p_gst.add_argument("--strategy", choices=("enumerate", "mc"), default=None)
    p_gst.add_argument("--mode", choices=("exact", "shots", "gaussian"), default=None)
    p_gst.add_argument("--shots", type=int, default=None, help="shots per matrix entry")
    p_gst.add_argument("--trials", type=int, default=None, help="sampled words in mc strategy")
    p_gst.add_argument("--gst-sigma", type=float, default=None)
    p_gst.add_argument("--epsilon", type=float, default=None, help="truncation threshold")
    p_gst.add_argument("--theta", type=float, default=None, help="basis angle, units of pi")
    p_gst.add_argument("--cap", type=int, default=None, help="enumeration cap")
    p_gst.add_argument("--pinv", action="store_true",
                       help="pseudo-inverse fallback for ill-conditioned Grams (biases traces)")
    common(p_gst)

    p_ent = sub.add_parser("entropy", help="truncated Tr{rho ln rho} series")
    p_ent.add_argument("--order", required=True, help="truncation orders, e.g. 2 or 2-8")
    p_ent.add_argument("--estimator", choices=("oracle", "gst", "ht"), default="oracle")
    p_ent.add_argument("--strategy", choices=("enumerate", "mc"), default=None)
    p_ent.add_argument("--mode", choices=("exact", "shots", "gaussian"), default=None)
    p_ent.add_argument("--trials", type=int, default=None)
    p_ent.add_argument("--shots", type=int, default=None)
    p_ent.add_argument("--epsilon", type=float, default=None)
    p_ent.add_argument("--theta", type=float, default=None)
    common(p_ent)

    p_sweep = sub.add_parser("sweep", help="iterate one parameter from the config sweep section")
    common(p_sweep)

    p_bounds = sub.add_parser("bounds", help="error-bound estimates from the error budget")
    for flag, typ in (("d", int), ("epsilon", float), ("eps1", float), ("eps2", float),
                      ("delta", float), ("n-layers", int), ("shots", float)):
        p_bounds.add_argument(f"--{flag}", dest=f"b_{flag.replace('-', '_')}",
                              type=typ, default=None)
    common(p_bounds)

    return parser


_OVERRIDES: dict[str, str] = {
    "seed": "seed",
    "trials": "trials",
    "shots": "shots",
    "ht_sigma": "ht_sigma",
    "gst_sigma": "gst_sigma",
    "epsilon": "epsilon_trunc",
    "theta": "theta_basis",
    "cap": "enumeration_cap",
    "mode": "mode",
    "strategy": "strategy",
    "pinv": "allow_pseudoinverse",
}

_RUNNERS: dict[str, Callable[[RunConfig, argparse.Namespace], list[ResultRow]]] = {
    "oracle": run_oracle,
    "ht": run_estimator,
    "gst": run_estimator,
    "entropy": run_entropy,
    "sweep": run_sweep,
    "bounds": run_bounds,
}


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    params, flags = dict(cfg.params), {}
    for flag, key in _OVERRIDES.items():
        value = getattr(args, flag, None)
        if value is not None and value is not False:
            params[key] = value
            flags[key] = "--" + flag.replace("_", "-")
    # --shots counts shots per matrix entry wherever the GST estimator runs.
    runs_gst = getattr(args, "command", None) == "gst" or getattr(args, "estimator", None) == "gst"
    if runs_gst and getattr(args, "shots", None) is not None:
        params["gst_shots"] = args.shots
        params["shots"] = _PARAM_DEFAULTS["shots"]
    _check_params(params, lambda key: flags.get(key, f"params.{key}"))
    return replace(cfg, params=params)


def _error_record(kind: str, exc: Exception, **extra: Any) -> str:
    record = {"error": kind, "message": str(exc), **extra}
    return json.dumps(record, sort_keys=True)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        if args.golden:
            cfg = load_config(args.config)
            return run_golden(cfg, sys.stdout)
        if args.command is None:
            parser.print_help()
            return 2
        cfg = load_config(args.config if args.config else "table1")
        cfg = _apply_overrides(cfg, args)
        rows = _RUNNERS[args.command](cfg, args)
        fmt = args.format or cfg.output_format
        path = args.out or cfg.output_path
    except ConfigError as exc:
        sys.stderr.write(_error_record("schema-violation", exc, field=exc.field) + "\n")
        return 2
    except ResourceLimitError as exc:
        sys.stderr.write(
            _error_record("resource-limit", exc, requested=exc.requested, cap=exc.cap) + "\n"
        )
        return 3
    except IllConditionedGramError as exc:
        sys.stderr.write(
            _error_record("ill-conditioned-gram", exc, min_eigenvalue=exc.min_eigenvalue) + "\n"
        )
        return 4
    except DegenerateAugmentationError as exc:
        sys.stderr.write(_error_record("degenerate-augmentation", exc) + "\n")
        return 4
    except IdentityViolationError as exc:
        # JSON has no token for nan or inf, so those travel as strings.
        stat = exc.statistic if math.isfinite(exc.statistic) else str(exc.statistic)
        sys.stderr.write(_error_record("identity-violation", exc, statistic=stat) + "\n")
        return 4
    except ValueError as exc:
        sys.stderr.write(_error_record("invalid-argument", exc) + "\n")
        return 2

    try:
        emit_table(rows, fmt, path)
    except OSError as exc:
        sys.stderr.write(_error_record("unwritable-output", exc, path=path) + "\n")
        return 5
    return 0
