"""Traced in-process run of the qtrace CLI, one layer per package module.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python perfbench/tracer.py --workers W -- <qtrace CLI arguments>

It times ``import qtrace.cli``, measures worker-pool start-up, wraps the
public functions of each module in the namespace that calls them, runs
``qtrace.cli.main(argv)`` with stdout captured, and prints one JSON object:
the exit code, the captured result table, and the per-layer metrics.

A span's self time is its duration minus the time of wrapped calls nested
inside it.  ``cli.main`` is the root span, so the self times of all layers
sum to ``trace.wall_s``.  Nothing in the package is modified on disk; the
wrappers are removed again before the process exits.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import io
import json
import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

#: Per-layer metrics in output order, with units.  BENCHMARK.json lists the
#: same names.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("cli.import_s", "s"),
    ("cli.load_config_s", "s"),
    ("cli.emit_table_s", "s"),
    ("cli.main_self_s", "s"),
    ("ensemble.states_s", "s"),
    ("ensemble.oracle_calls", "count"),
    ("ensemble.oracle_s", "s"),
    ("qcore.reflect_calls", "count"),
    ("qcore.reflect_s", "s"),
    ("ht.mc_calls", "count"),
    ("ht.mc_trials", "count"),
    ("ht.mc_s", "s"),
    ("ht.mc_chunk_s", "s"),
    ("ht.mc_bytes_computed", "B"),
    ("ht.enum_calls", "count"),
    ("ht.enum_distinct_calls", "count"),
    ("ht.enum_words", "count"),
    ("ht.enum_s", "s"),
    ("gst.draws", "count"),
    ("gst.words_evaluated", "count"),
    ("gst.memo_hit_ratio", "ratio"),
    ("gst.estimate_s", "s"),
    ("gst.word_s", "s"),
    ("gst.subspace_s", "s"),
    ("gst.basis_s", "s"),
    ("gst.measure_s", "s"),
    ("gst.solve_s", "s"),
    ("gst.augment_s", "s"),
    ("gst.truncations", "count"),
    ("gst.mean_d", "count"),
    ("gst.gram_failures", "count"),
    ("series.calls", "count"),
    ("series.s", "s"),
    ("noise_bounds.calls", "count"),
    ("noise_bounds.s", "s"),
    ("noise_bounds.clamps", "count"),
    ("parallel.run_chunked_calls", "count"),
    ("parallel.chunks", "count"),
    ("parallel.pool_starts", "count"),
    ("parallel.run_chunked_s", "s"),
    ("parallel.pool_start_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)

#: Spans whose self time is reported, keyed by span name.
SELF_TIME_METRICS = {
    "cli.main": "cli.main_self_s",
    "cli.load_config": "cli.load_config_s",
    "cli.emit_table": "cli.emit_table_s",
    "ensemble.states": "ensemble.states_s",
    "ensemble.oracle": "ensemble.oracle_s",
    "qcore.reflect": "qcore.reflect_s",
    "ht.mc": "ht.mc_s",
    "ht.mc_chunk": "ht.mc_chunk_s",
    "ht.enum": "ht.enum_s",
    "gst.estimate": "gst.estimate_s",
    "gst.word": "gst.word_s",
    "gst.subspace": "gst.subspace_s",
    "gst.basis": "gst.basis_s",
    "gst.measure": "gst.measure_s",
    "gst.solve": "gst.solve_s",
    "gst.augment": "gst.augment_s",
    "series": "series.s",
    "noise_bounds": "noise_bounds.s",
    "parallel.run_chunked": "parallel.run_chunked_s",
}

#: Pool start-up is measured this many times; the median is reported.
POOL_PROBES = 3


def pool_probe_worker(lo: int, hi: int) -> int:
    """Trivial chunk worker; top level so pool workers can unpickle it."""
    return hi - lo


class Tracer:
    """Span recorder that wraps functions and restores them afterwards."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list[float]] = []
        self._undo: list[Callable[[], None]] = []

    def timed(
        self,
        span: str,
        fn: Callable[..., Any],
        before: Callable[..., None] | None = None,
        after: Callable[[Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a span; ``before`` sees the arguments and
        ``after`` the result, both outside the timed interval."""
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(*args, **kwargs)
            nested = [0.0]
            stack.append(nested)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[span] += dt - nested[0]
                calls[span] += 1
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(result)
            return result

        return wrapper

    def replace(self, owner: Any, name: str, value: Any) -> None:
        """Set ``owner.name`` to ``value`` until ``restore``."""
        original = getattr(owner, name)
        setattr(owner, name, value)
        self._undo.append(lambda: setattr(owner, name, original))

    def patch(self, owner: Any, name: str, span: str, **hooks: Any) -> None:
        """Replace ``owner.name`` with a timed wrapper until ``restore``."""
        self.replace(owner, name, self.timed(span, getattr(owner, name), **hooks))

    def patch_cached_property(self, cls: type, name: str, span: str) -> None:
        replacement = functools.cached_property(self.timed(span, cls.__dict__[name].func))
        replacement.__set_name__(cls, name)
        self.replace(cls, name, replacement)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _arguments(fn: Callable[..., Any]) -> Callable[..., dict[str, Any]]:
    sig = inspect.signature(fn)

    def bind(*args: Any, **kwargs: Any) -> dict[str, Any]:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def install(tr: Tracer, workers: int) -> None:
    """Wrap every layer's public functions where their callers look them up.

    Modules that import a function by name (``from .qcore import
    reflect_amplitudes``) hold their own reference, so each such namespace is
    patched.  Chunk workers are wrapped only at one worker: a pool pickles
    them by name and its processes would record spans nobody reads.
    """
    from qtrace import _parallel, cli, ensemble, errors, gst, ht, noise_bounds, qcore, series

    tr.patch(cli, "load_config", "cli.load_config")
    tr.patch(cli, "emit_table", "cli.emit_table")

    for name in ("states", "state_matrix"):
        tr.patch_cached_property(ensemble.EnsembleSpec, name, "ensemble.states")
    for name in ("exact_power_trace", "exact_g_power_trace", "exact_entropy_trace",
                 "exact_combination_trace"):
        tr.patch(ensemble, name, "ensemble.oracle")

    for module in (qcore, ht, gst):
        tr.patch(module, "reflect_amplitudes", "qcore.reflect")

    mc_args = _arguments(ht.estimate_power_trace_mc)

    def count_mc(*args: Any, **kwargs: Any) -> None:
        a = mc_args(*args, **kwargs)
        tr.counts["ht.mc_trials"] += a["trials"]
        # One 2^n complex vector per trial, touched at the initial gather,
        # once per candidate layer and at the final overlap.
        tr.counts["ht.mc_bytes_computed"] += 16 * a["e"].dim * a["trials"] * (a["m"] + 2)

    tr.patch(ht, "estimate_power_trace_mc", "ht.mc", before=count_mc)

    enum_args = _arguments(ht.estimate_power_trace_enumerate)
    distinct: set[tuple[int, int]] = set()

    def count_enum(*args: Any, **kwargs: Any) -> None:
        a = enum_args(*args, **kwargs)
        distinct.add((id(a["e"]), a["m"]))
        tr.counts["ht.enum_distinct_calls"] = len(distinct)
        tr.counts["ht.enum_words"] += sum(a["e"].alpha ** (k + 1) for k in range(a["m"] + 1))

    tr.patch(ht, "estimate_power_trace_enumerate", "ht.enum", before=count_enum)

    g_args = _arguments(gst.estimate_g_power_trace)

    def count_draws(*args: Any, **kwargs: Any) -> None:
        a = g_args(*args, **kwargs)
        if a["strategy"] == "mc":
            tr.counts["gst.draws"] += a["budget"]

    tr.patch(gst, "estimate_g_power_trace", "gst.estimate", before=count_draws)
    tr.patch(gst, "estimate_power_trace", "gst.estimate")
    tr.patch(gst, "combination_trace", "gst.word")

    def count_subspace(basis: Any) -> None:
        tr.counts["gst.d_sum"] += basis.d
        tr.counts["gst.truncations"] += len(basis.discarded)

    tr.patch(gst, "build_subspace", "gst.subspace", after=count_subspace)

    operator_basis = gst.operator_basis_for_states

    @functools.wraps(operator_basis)
    def basis_with_preps(*args: Any, **kwargs: Any) -> Any:
        ob = operator_basis(*args, **kwargs)
        ob.prep_matrix  # build the prep kets here, not inside measure_matrices
        return ob

    tr.replace(gst, "operator_basis_for_states", basis_with_preps)
    tr.patch(gst, "operator_basis_for_states", "gst.basis")
    tr.patch(gst, "measure_matrices", "gst.measure")

    ptm_trace = gst.ptm_trace

    @functools.wraps(ptm_trace)
    def counted_ptm_trace(*args: Any, **kwargs: Any) -> float:
        try:
            return ptm_trace(*args, **kwargs)
        except errors.IllConditionedGramError:
            tr.counts["gst.gram_failures"] += 1
            raise

    tr.replace(gst, "ptm_trace", counted_ptm_trace)
    tr.patch(gst, "ptm_trace", "gst.solve")
    tr.patch(gst, "augmentation_state", "gst.augment")

    for module, name in ((series, "evaluate_series"), (series, "entropy_weights"),
                         (series, "binomial_weights"), (gst, "evaluate_series"),
                         (gst, "binomial_weights")):
        tr.patch(module, name, "series")

    def count_clamps(result: tuple[Any, int]) -> None:
        tr.counts["noise_bounds.clamps"] += result[1]

    tr.patch(noise_bounds, "perturb_probabilities", "noise_bounds", after=count_clamps)

    chunk_args = _arguments(_parallel.run_chunked)

    def count_chunks(*args: Any, **kwargs: Any) -> None:
        a = chunk_args(*args, **kwargs)
        chunks = math.ceil(a["n_items"] / a["chunk_size"])
        tr.counts["parallel.chunks"] += chunks
        tr.counts["parallel.pool_starts"] += int(a["workers"] > 1 and chunks > 1)

    for module in (_parallel, ht, gst):
        tr.patch(module, "run_chunked", "parallel.run_chunked", before=count_chunks)

    if workers <= 1:
        tr.patch(ht, "_mc_chunk", "ht.mc_chunk")
        tr.patch(gst, "_mc_chunk", "gst.estimate")
        tr.patch(gst, "_enumerate_chunk", "gst.estimate")


def metrics(tr: Tracer, import_s: float, pool_start_s: float, wall_s: float) -> dict[str, float]:
    """Per-layer metrics (trace.overhead_s is filled in by the caller, which
    also knows the untraced wall time)."""
    out: dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for span, key in SELF_TIME_METRICS.items():
        out[key] = tr.self_s.get(span, 0.0)
    for key in ("ht.mc_trials", "ht.mc_bytes_computed", "ht.enum_distinct_calls",
                "ht.enum_words", "gst.draws", "gst.truncations", "gst.gram_failures",
                "noise_bounds.clamps", "parallel.chunks", "parallel.pool_starts"):
        out[key] = tr.counts[key]
    for key, span in (("ensemble.oracle_calls", "ensemble.oracle"),
                      ("qcore.reflect_calls", "qcore.reflect"), ("ht.mc_calls", "ht.mc"),
                      ("ht.enum_calls", "ht.enum"), ("gst.words_evaluated", "gst.word"),
                      ("series.calls", "series"), ("noise_bounds.calls", "noise_bounds"),
                      ("parallel.run_chunked_calls", "parallel.run_chunked")):
        out[key] = tr.calls[span]
    subspaces = tr.calls["gst.subspace"]
    out["gst.mean_d"] = tr.counts["gst.d_sum"] / subspaces if subspaces else 0.0
    draws = tr.counts["gst.draws"]
    out["gst.memo_hit_ratio"] = 1.0 - tr.calls["gst.word"] / draws if draws else 0.0
    out["cli.import_s"] = import_s
    out["parallel.pool_start_s"] = pool_start_s
    out["trace.wall_s"] = wall_s
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    t0 = time.perf_counter()
    import qtrace.cli
    import_s = time.perf_counter() - t0

    from qtrace import _parallel

    probes = []
    for _ in range(POOL_PROBES):
        t0 = time.perf_counter()
        _parallel.run_chunked(pool_probe_worker, 2, 1, workers=2)
        probes.append(time.perf_counter() - t0)

    tr = Tracer()
    install(tr, args.workers)
    table = io.StringIO()
    root = tr.timed("cli.main", qtrace.cli.main)
    try:
        with contextlib.redirect_stdout(table):
            t0 = time.perf_counter()
            code = root(cli_args)
            wall_s = time.perf_counter() - t0
    finally:
        tr.restore()
    record = {
        "exit_code": code,
        "table": table.getvalue(),
        "metrics": metrics(tr, import_s, statistics.median(probes), wall_s),
    }
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
