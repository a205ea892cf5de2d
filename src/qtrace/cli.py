"""Configuration-driven command line front end.

All scientific parameters live in a JSON config (angles in units of pi, as
in the bundled ``table1`` example); subcommand flags select what to compute
and may override config defaults.  Results are emitted as CSV or JSON tables
with a fixed column set, floats serialized to 17 significant digits, and
byte-identical output for a fixed (config, seed).

Each oracle value and estimator call, for a row or an entropy series term, is
a (quantity, order, stream) job run by ``_estimate``, after a pre-check of every
enumeration cap its run's jobs meet: an over-cap run fails before any estimate.

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
from functools import partial
from importlib import resources
from typing import Any, Callable, Sequence

import numpy as np

from . import ensemble, gst, ht, noise_bounds, series
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


@dataclass(frozen=True)
class _Param:
    """One ``params`` or ``error_budget`` key: its default, which fixes its
    type, the flag that sets it on the ``commands`` that read it, and its
    least value, open interval ``within`` or choices."""

    default: Any
    flag: str | None
    commands: tuple[str, ...]
    least: int | None = None
    within: tuple[float, float] | None = None
    choices: tuple[str, ...] | None = None
    help: str | None = None


_ESTIMATORS = ("ht", "gst", "entropy")

#: The ``params`` keys.  ``sweep`` takes every key but the seed from its
#: config, and ``gst_shots`` has no flag of its own: ``--shots`` sets it
#: wherever the GST estimator runs.
_PARAMS: dict[str, _Param] = {
    "seed": _Param(0, "--seed", ("oracle", *_ESTIMATORS, "sweep", "bounds"), least=0,
                   help="master seed"),
    "trials": _Param(20000, "--trials", _ESTIMATORS, least=1,
                     help="sampled circuits (ht) or words (gst) in mc strategy"),
    "shots": _Param(1, "--shots", _ESTIMATORS, least=1,
                    help="shots per sampled circuit; per matrix entry where gst runs"),
    "gst_shots": _Param(10000, None, (), least=1),
    "epsilon_trunc": _Param(1e-10, "--epsilon", ("gst", "entropy"), within=(0, 1),
                            help="truncation threshold"),
    "theta_basis": _Param(0.5, "--theta", ("gst", "entropy"), help="basis angle, units of pi"),
    "enumeration_cap": _Param(series.DEFAULT_ENUMERATION_CAP, "--cap", _ESTIMATORS, least=1,
                              help="enumeration cap"),
    "mode": _Param("exact", "--mode", _ESTIMATORS, choices=("exact", "shots", "gaussian")),
    "strategy": _Param("enumerate", "--strategy", _ESTIMATORS, choices=("enumerate", "mc")),
    "ht_sigma": _Param(0.0, "--ht-sigma", ("ht", "entropy"), least=0,
                       help="Gaussian noise on each HT outcome probability (exact mode)"),
    "gst_sigma": _Param(0.0001, "--gst-sigma", ("gst", "entropy"), least=0,
                        help="Gaussian noise on each GST matrix entry (gaussian mode)"),
    "allow_pseudoinverse": _Param(False, "--pinv", ("gst", "entropy"),
                                  help="pseudo-inverse fallback for ill-conditioned Grams "
                                       "(biases traces)"),
}

#: The ``error_budget`` keys, each also a ``bounds`` flag.
_BUDGET: dict[str, _Param] = {
    "d": _Param(2, "--d", ("bounds",), least=1),
    "epsilon": _Param(1e-4, "--epsilon", ("bounds",), within=(0, math.inf)),
    "eps1": _Param(1e-4, "--eps1", ("bounds",), within=(0, 1)),
    "eps2": _Param(1e-4, "--eps2", ("bounds",), within=(0, math.inf)),
    "delta": _Param(0.05, "--delta", ("bounds",), within=(0, 1)),
    "n_layers": _Param(4, "--n-layers", ("bounds",), least=0),
    "shots": _Param(1e6, "--shots", ("bounds",), within=(0, math.inf)),
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


def _expect_number(value: Any, field: str, *, integer: bool = False) -> int | float:
    """A finite float, or with ``integer`` an exact int (7.0 reads as 7)."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    _expect(ok, field, f"expected a number, got {value!r}")
    if integer:
        _expect(isinstance(value, int) or value.is_integer(), field,
                f"expected an integer, got {value!r}")
        return int(value)
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError(field, "must be finite, got an integer beyond the float range") from None
    _expect(math.isfinite(value), field, f"must be finite, got {value!r}")
    return value


def _param_value(table: dict[str, _Param], key: str, value: Any, field: str) -> Any:
    """``value`` checked as ``table[key]`` takes it, from a config or a flag
    named by ``field``: of its default's type, finite, in its range or one of
    its choices, and for ``theta_basis`` clear of multiples of pi."""
    row = table[key]
    if isinstance(row.default, bool):
        _expect(isinstance(value, bool), field, f"expected a bool, got {value!r}")
        return value
    if isinstance(row.default, str):
        _expect(isinstance(value, str), field, f"expected a string, got {value!r}")
        _expect(value in row.choices, field, f"got {value!r}")
        return value
    value = _expect_number(value, field, integer=isinstance(row.default, int))
    if row.least == 0:
        _expect(value >= 0, field, "must be non-negative")
    elif row.least is not None:
        _expect(value >= row.least, field, f"must be >= {row.least}, got {value!r}")
    if row.within is not None:
        lo, hi = row.within
        _expect(lo < value < hi, field, f"must be in ({lo}, {hi}), got {value!r}")
    if key == "theta_basis":
        try:
            gst.check_theta(value * math.pi)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(field, str(exc)) from None
    return value


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

    n = _expect_number(raw.get("n_qubits"), "n_qubits", integer=True)
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

    params = {key: row.default for key, row in _PARAMS.items()}
    raw_params = raw.get("params", {})
    _expect(isinstance(raw_params, dict), "params", "must be an object")
    for key, value in raw_params.items():
        _expect(key in _PARAMS, f"params.{key}", "unknown parameter")
        params[key] = _param_value(_PARAMS, key, value, f"params.{key}")

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
        power = _expect_number(sweep.get("power"), "sweep.power", integer=True)
        _expect(power >= 1, "sweep.power", f"must be >= 1, got {power}")
        _expect(
            sweep.get("parameter") in {parameter for _, parameter in _SWEEPS},
            "sweep.parameter",
            f"got {sweep.get('parameter')!r}",
        )
        values = sweep.get("values")
        _expect(isinstance(values, list) and values, "sweep.values", "must be a non-empty list")
        for i, v in enumerate(values):
            _param_value(_PARAMS, sweep["parameter"], v, f"sweep.values[{i}]")

    budget = raw.get("error_budget")
    if budget is not None:
        _expect(isinstance(budget, dict), "error_budget", "must be an object")
        for key in budget:
            _expect(key in _BUDGET, f"error_budget.{key}", "unknown field")
        budget = {key: _param_value(_BUDGET, key, value, f"error_budget.{key}")
                  for key, value in budget.items()}

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


# --- the job path -----------------------------------------------------------


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


def _parse_orders(text: str, flag: str, minimum: int) -> list[int]:
    """'2', '2,4', and '2-4' (inclusive) forms, each order >= ``minimum``."""
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
    for order in out:
        if order < minimum:
            raise ConfigError(flag, f"{flag[2:]} must be >= {minimum}, got {order}")
    return out


def _exact(spec: ensemble.EnsembleSpec, quantity: str, order: int | None) -> float:
    """The oracle's value."""
    if quantity == "tr_rho_power":
        return ensemble.exact_power_trace(spec, order)
    if quantity == "tr_g_power":
        return ensemble.exact_g_power_trace(spec, order)
    if quantity == "tr_rho_g_power":
        return ensemble.exact_rho_g_power_trace(spec, order)
    return ensemble.exact_entropy_trace(spec)


def _measure_mode(estimator: str, params: dict[str, Any]) -> noise_bounds.MeasureMode:
    """The measurement model of an ``ht`` or ``gst`` run, after its
    config-level rejections: enumeration takes exact mode only, and HT's
    Gaussian noise rides on exact mode at ``ht_sigma``."""
    kind = params["mode"]
    if params["strategy"] == "enumerate" and kind != "exact":
        raise ConfigError("params.mode", f"{estimator} enumerate strategy requires exact mode")
    if estimator == "ht":
        if kind == "gaussian":
            raise ConfigError("params.mode",
                              "ht supports exact or shots mode (ht_sigma rides on exact)")
        if kind == "shots" and params["ht_sigma"] > 0.0:
            raise ConfigError(
                "params.ht_sigma", "pairs with exact mode only; shot and Gaussian noise never combine"
            )
        kind = "gaussian" if params["ht_sigma"] > 0.0 else kind
    if kind == "shots":
        shots = params["shots" if estimator == "ht" else "gst_shots"]
        return noise_bounds.MeasureMode("shots", shots=shots)
    if kind == "gaussian":
        return noise_bounds.MeasureMode("gaussian", sigma=params[f"{estimator}_sigma"])
    return noise_bounds.EXACT


def _check_enumeration_caps(
    spec: ensemble.EnsembleSpec, estimator: str, jobs: Sequence[tuple], params: dict[str, Any]
) -> None:
    """Every enumeration cap check that the jobs' estimator calls make, in
    their order, before the first call: a run over the cap fails in set-up
    time with the first over-cap call's record.  The config-level rejections
    of ``_measure_mode`` come first, as in each call."""
    if estimator == "oracle" or params["strategy"] != "enumerate":
        return
    _measure_mode(estimator, params)
    alpha, cap = spec.alpha, params["enumeration_cap"]
    for quantity, order, _ in jobs:
        if estimator == "gst":
            for k in range(order + 1) if quantity == "tr_rho_power" else (order,):
                gst.check_enumeration_budget(alpha, k, cap)
        else:
            words = (ht.enumeration_word_count(alpha, order - 1) if quantity == "tr_rho_power"
                     else alpha ** (order + 1))
            series.check_enumeration_cap(words, cap, "enumeration")


def _estimate(
    spec: ensemble.EnsembleSpec, estimator: str, quantity: str, order: int | None,
    params: dict[str, Any], seed: int, cache: gst.StageCache,
) -> series.TraceEstimate:
    """One job: the oracle's value, or one call, on ``seed``, of the HT or
    GST estimator of ``quantity`` and the configured strategy.  ``cache`` is
    the ``StageCache`` that all the run's GST calls share.  Estimators
    are looked up on their modules at each call."""
    if estimator == "oracle":
        return series.TraceEstimate(_exact(spec, quantity, order), 0.0, 1, series.MODE_ORACLE)
    mode, enumerate_ = _measure_mode(estimator, params), params["strategy"] == "enumerate"
    cap, trials = params["enumeration_cap"], params["trials"]
    if estimator == "gst":
        settings = (params["strategy"], cap if enumerate_ else trials, params["epsilon_trunc"],
                    params["theta_basis"] * math.pi, mode, seed, params["allow_pseudoinverse"])
        if quantity == "tr_rho_power":
            return gst.estimate_power_trace(spec, order, *settings, cache=cache)
        return gst.estimate_g_power_trace(spec, order, *settings, cache=cache)
    if quantity == "tr_rho_power":
        if enumerate_:
            return ht.estimate_power_trace_enumerate(spec, order - 1, cap)
        return ht.estimate_power_trace_mc(spec, order - 1, trials, mode, seed)
    if enumerate_:
        return ht.estimate_rho_g_power_enumerate(spec, order, cap)
    return ht.estimate_rho_g_power_mc(spec, order, trials, mode, seed)


def _estimates(
    spec: ensemble.EnsembleSpec, estimator: str, jobs: Sequence[tuple], params: dict[str, Any],
    timing: bool = False,
) -> list[tuple[series.TraceEstimate, int | None]]:
    """Each ``(quantity, order, stream)`` job's estimate and wall time, after
    the run's cap pre-check.  A Monte Carlo job runs on _child_seed(master,
    stream); the oracle and enumeration draw nothing and derive no seed, which
    would load numpy's random module.  All the run's GST calls share one
    ``StageCache``, valid because the run's params fix epsilon and theta."""
    _check_enumeration_caps(spec, estimator, jobs, params)
    master, cache = params["seed"], gst.StageCache()
    draws = estimator != "oracle" and params["strategy"] == "mc"
    return [_timed(timing, _estimate, spec, estimator, quantity, order, params,
                   _child_seed(master, stream) if draws else master, cache)
            for quantity, order, stream in jobs]


def _rows(
    spec: ensemble.EnsembleSpec, estimator: str, jobs: Sequence[tuple], params: dict[str, Any],
    timing: bool, label: str = "",
) -> list[ResultRow]:
    """One oracle, ``ht`` or ``gst`` row per job.  The seed column reports
    the master seed, and ``label`` suffixes the mode."""
    rows = []
    estimates = _estimates(spec, estimator, jobs, params, timing)
    for (quantity, order, _), (est, wall_ms) in zip(jobs, estimates):
        shots = trials = None
        if estimator == "oracle":
            exact, rel_error = est.value, 0.0
        else:
            exact = _exact(spec, quantity, order)
            rel_error = _rel_error(est.value, exact)
            if params["mode"] == "shots":
                shots = est.samples if estimator == "ht" else params["gst_shots"]
            if params["strategy"] == "mc":
                trials = params["trials"]
        rows.append(ResultRow(quantity, order, est.value, est.std_error, exact, rel_error,
                              est.mode + label, shots, trials, params["seed"], wall_ms))
    return rows


# --- subcommand runners -----------------------------------------------------


def run_jobs(cfg: RunConfig, args: argparse.Namespace) -> list[ResultRow]:
    """``oracle``, ``ht`` and ``gst``: row i of the rho powers runs on
    stream i, row j of the G powers on stream 10_000 + j."""
    g_power = getattr(args, "g_power", None)
    powers = _parse_orders(args.power, "--power", 1) if args.power is not None else []
    g_powers = _parse_orders(g_power, "--g-power", 0) if g_power is not None else []
    jobs = [("tr_rho_power", m, i) for i, m in enumerate(powers)]
    jobs += [("tr_g_power", k, 10_000 + j) for j, k in enumerate(g_powers)]
    if getattr(args, "entropy", False):
        jobs.append(("tr_rho_ln_rho", None, 0))
    if not jobs:
        flags = ("--power, --g-power, or --entropy" if args.command == "oracle"
                 else "--power or --g-power")
        raise ConfigError(args.command, f"nothing to compute: pass {flags}")
    return _rows(cfg.spec, args.command, jobs, cfg.params, args.timing)


def _entropy_series(
    spec: ensemble.EnsembleSpec, estimator: str, k_max: int, params: dict[str, Any]
) -> Callable[[series.SeriesWeights], series.TraceEstimate]:
    """The evaluation of series weights up to Tr{G^k_max} over independent
    terms, term i on stream i: the oracle's or HT's Tr{rho G^i}, i < k_max,
    telescoped, where no 2^n term cancels, or GST's Tr{G^i}, i <= k_max, fed
    to ``series.evaluate_series``."""
    quantity, count = ("tr_g_power", k_max + 1) if estimator == "gst" else ("tr_rho_g_power", k_max)
    jobs = [(quantity, i, i) for i in range(count)]
    terms = [est for est, _ in _estimates(spec, estimator, jobs, params)]
    if estimator == "gst":
        return partial(series.evaluate_series, gk=terms)
    return partial(series.evaluate_telescoped, dim=spec.dim, rho_g=terms)


def run_entropy(cfg: RunConfig, args: argparse.Namespace) -> list[ResultRow]:
    """Truncated Tr{rho ln rho} series rows."""
    orders = _parse_orders(args.order, "--order", 1)
    evaluate = _entropy_series(cfg.spec, args.estimator, max(orders) + 1, cfg.params)
    exact = _exact(cfg.spec, "tr_rho_ln_rho", None)
    rows = []
    for n_t in orders:
        est, wall_ms = _timed(args.timing, evaluate, series.entropy_weights(n_t))
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
    """One ``ht``/``gst`` row per swept value; row i runs on stream i, as
    row i of the direct command does."""
    if cfg.sweep is None:
        raise ConfigError("sweep", "config has no sweep section")
    command, parameter = cfg.sweep["command"], cfg.sweep["parameter"]
    if (command, parameter) not in _SWEEPS:
        raise ConfigError("sweep.parameter", f"{parameter!r} does not apply to {command!r}")
    key, fixed = _SWEEPS[command, parameter]
    power = int(cfg.sweep["power"])
    rows = []
    for i, value in enumerate(cfg.sweep["values"]):
        params = {**cfg.params, **fixed, key: int(value) if parameter == "shots" else float(value)}
        rows += _rows(cfg.spec, command, [("tr_rho_power", power, i)], params, args.timing,
                      f"@{parameter}={value}")
    return rows


def run_bounds(cfg: RunConfig, args: argparse.Namespace) -> list[ResultRow]:
    budget = {key: row.default for key, row in _BUDGET.items()} | (cfg.error_budget or {})
    for key, row in _BUDGET.items():
        if getattr(args, key) is not None:
            budget[key] = _param_value(_BUDGET, key, getattr(args, key), row.flag)
    d, epsilon, eps1, shots = budget["d"], budget["epsilon"], budget["eps1"], budget["shots"]
    seed = cfg.params["seed"]
    entries: list[tuple[str, float]] = [
        ("hoeffding_shots", float(noise_bounds.shots_for_accuracy(d, eps1, budget["delta"]))),
        ("gram_inverse_error_estimate", noise_bounds.gram_inverse_error_bound(d, eps1, epsilon)),
        ("sampling_error_estimate",
         noise_bounds.sampling_error_bound(d, eps1, budget["eps2"], epsilon)),
        ("truncation_error_estimate",
         noise_bounds.truncation_error_estimate(budget["n_layers"], d, epsilon, shots)),
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
        gstv = gst.estimate_power_trace(spec, m).value
        for label, got in (("oracle", oracle), ("ht", htv), ("gst", gstv)):
            check(f"tr_rho_power[{m}] {label}", round(got, 3) == want,
                  f"got {got:.6f}, want {want:.3f}")

    g2 = gst.estimate_g_power_trace(spec, 2).value
    check("tr_g_power[2] gst", abs(g2 - 6.600) <= 1e-3, f"got {g2:.6f}, want 6.600 +- 1e-3")

    for m, want in sorted(_GOLDEN_G_POWERS.items()):
        got = ensemble.exact_g_power_trace(spec, m)
        check(f"tr_g_power[{m}] oracle vs published", abs(got - want) <= 5e-3,
              f"got {got:.6f}, published {want:.3f} (shot-noisy)")

    entropy_exact = ensemble.exact_entropy_trace(spec)
    check("tr_rho_ln_rho exact", round(entropy_exact, 3) == _GOLDEN_ENTROPY,
          f"got {entropy_exact:.6f}, want {_GOLDEN_ENTROPY:.3f}")

    evaluate = _entropy_series(spec, "oracle", 9, cfg.params)
    err = {n_t: abs(evaluate(series.entropy_weights(n_t)).value - entropy_exact) for n_t in (2, 8)}
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

    p_oracle = sub.add_parser("oracle", help="exact values from the span-space oracle")
    p_oracle.add_argument("--power", default=None, help="rho powers, e.g. 2 or 2-4")
    p_oracle.add_argument("--g-power", default=None, help="G powers, e.g. 0-3")
    p_oracle.add_argument("--entropy", action="store_true", help="Tr{rho ln rho}")

    p_ht = sub.add_parser("ht", help="Hadamard-test estimator")
    p_ht.add_argument("--power", required=True, help="rho powers, e.g. 2 or 2-4")

    p_gst = sub.add_parser("gst", help="subspace gate-set-tomography estimator")
    p_gst.add_argument("--power", default=None, help="rho powers, e.g. 2 or 2-4")
    p_gst.add_argument("--g-power", default=None, help="G powers, e.g. 0-3")

    p_ent = sub.add_parser("entropy", help="truncated Tr{rho ln rho} series")
    p_ent.add_argument("--order", required=True, help="truncation orders, e.g. 2 or 2-8")
    p_ent.add_argument("--estimator", choices=("oracle", "gst", "ht"), default="oracle")

    sub.add_parser("sweep", help="iterate one parameter from the config sweep section")

    sub.add_parser("bounds", help="error-bound estimates from the error budget")

    for command, p in sub.choices.items():
        for key, row in (*_PARAMS.items(), *_BUDGET.items()):
            if command not in row.commands:
                continue
            if isinstance(row.default, bool):
                kind = {"action": "store_true", "default": None}
            elif row.choices:
                kind = {"choices": row.choices}
            else:
                kind = {"type": type(row.default)}
            p.add_argument(row.flag, dest=key, help=row.help, **kind)
        p.add_argument("--config", default=None, help="config file path or bundled name")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--timing", action="store_true",
                       help="fill wall_ms (breaks byte-level determinism)")

    return parser

_RUNNERS: dict[str, Callable[[RunConfig, argparse.Namespace], list[ResultRow]]] = {
    "oracle": run_jobs,
    "ht": run_jobs,
    "gst": run_jobs,
    "entropy": run_entropy,
    "sweep": run_sweep,
    "bounds": run_bounds,
}


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """The config's params with each parameter flag given, checked as its
    config key is; ``--shots`` sets ``gst_shots`` wherever GST runs."""
    params = dict(cfg.params)
    runs_gst = "gst" in (args.command, getattr(args, "estimator", None))
    for key, row in _PARAMS.items():
        if args.command in row.commands and getattr(args, key) is not None:
            target = "gst_shots" if key == "shots" and runs_gst else key
            params[target] = _param_value(_PARAMS, target, getattr(args, key), row.flag)
    return replace(cfg, params=params)


#: The failures a run reports, first match first: the exception type, its
#: record kind, the exception attributes the record carries, and the exit code.
_FAILURES: tuple[tuple[type[Exception], str, tuple[str, ...], int], ...] = (
    (ConfigError, "schema-violation", ("field",), 2),
    (ResourceLimitError, "resource-limit", ("requested", "cap"), 3),
    (IllConditionedGramError, "ill-conditioned-gram", ("min_eigenvalue",), 4),
    (DegenerateAugmentationError, "degenerate-augmentation", (), 4),
    (IdentityViolationError, "identity-violation", ("statistic",), 4),
    (ValueError, "invalid-argument", (), 2),
)


def _error_record(kind: str, exc: Exception, **extra: Any) -> str:
    """One-line JSON error record.  JSON has no token for nan or inf, so
    non-finite float fields travel as strings."""
    for key, value in extra.items():
        if isinstance(value, float) and not math.isfinite(value):
            extra[key] = str(value)
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
    except tuple(failure for failure, *_ in _FAILURES) as exc:
        _, kind, fields, code = next(row for row in _FAILURES if isinstance(exc, row[0]))
        sys.stderr.write(_error_record(kind, exc, **{f: getattr(exc, f) for f in fields}) + "\n")
        return code

    try:
        emit_table(rows, fmt, path)
    except OSError as exc:
        sys.stderr.write(_error_record("unwritable-output", exc, path=path) + "\n")
        return 5
    return 0
