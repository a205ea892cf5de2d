"""Outside-in benchmark of the qtrace command line.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measured run is one child process, ``python -m qtrace ...``, with an
explicit environment, a timeout and an address-space cap.  Every result
table passes the correctness gate in ``reference.py``.  With ``--trace 0``
the last line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of ``tracer.py``.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference
import tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, "work")

#: End-to-end metrics with their units, in output order.
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
    ("throughput", "1/s"),
)

#: Fresh-interpreter set-up probes per run; the first warms the file cache
#: and bytecode and is not counted.
SETUP_PROBES = 8

#: Each child may use this much address space; a breach is a failed run.
ADDRESS_SPACE_CAP = 3 << 30

#: Hard limits that keep a whole benchmark run inside its time budget.
CHILD_TIMEOUT_S = 90.0
RUN_BUDGET_S = 170.0

#: Written by the setup probe child: seconds to import the CLI, load the
#: workload config and build the component states.
_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import qtrace.cli
cfg = qtrace.cli.load_config(sys.argv[1])
cfg.spec.state_matrix
print(time.perf_counter() - t0)
"""


@dataclass(frozen=True)
class Workload:
    """One fixed qtrace command on the reference model.

    ``args`` follow the subcommand; ``--config`` is placed right after the
    subcommand because a ``--config`` before it is silently replaced by the
    bundled default.  ``work`` counts the workload's unit of work for a
    model with ``alpha`` components; ``expect`` builds the result table the
    gate accepts.
    """

    command: str
    args: tuple[str, ...]
    n_qubits: int
    workers: int
    work_unit: str
    work: Callable[[int], int]
    expect: Callable[[reference.SpanModel, int], reference.Expectation]


def _entropy_rows(model: reference.SpanModel, orders: range) -> tuple:
    exact = model.entropy_trace()
    return tuple(("tr_rho_ln_rho", o, exact, model.entropy_series(o)) for o in orders)


def _ht_entropy_calls(k_max: int) -> int:
    """HT estimator calls of ``entropy --estimator ht``: one per Tr{rho^j},
    1 <= j <= k, for every k <= k_max."""
    return sum(range(k_max + 1))


def _ht_entropy_words(alpha: int, k_max: int) -> int:
    """Words (initial component included) that HT enumeration evaluates for
    every Tr{rho^j}, 1 <= j <= k <= k_max: alpha^1 + ... + alpha^j each."""
    return sum(alpha ** (i + 1) for k in range(k_max + 1) for j in range(1, k + 1) for i in range(j))


HT_SIGMA = 0.01

WORKLOADS: dict[str, Workload] = {
    "ht-mc": Workload(
        "ht",
        ("--power", "4", "--strategy", "mc", "--mode", "exact",
         "--ht-sigma", str(HT_SIGMA), "--trials", "100000"),
        n_qubits=10,
        workers=1,
        work_unit="trials",
        work=lambda alpha: 100_000,
        # Clamping p0 + N(0, sigma^2) into [0, 1] biases each signed
        # outcome 2 p0 - 1 by at most sigma * sqrt(2/pi).
        expect=lambda m, seed: reference.Expectation(
            (("tr_rho_power", 4, m.power_trace(4), m.power_trace(4)),),
            "mc-exact-prob", seed, bias=HT_SIGMA * math.sqrt(2.0 / math.pi)),
    ),
    "gst-mc": Workload(
        "gst",
        ("--g-power", "4", "--strategy", "mc", "--trials", "2000"),
        n_qubits=10,
        workers=1,
        work_unit="draws",
        work=lambda alpha: 2000,
        expect=lambda m, seed: reference.Expectation(
            (("tr_g_power", 4, m.g_power_trace(4), m.g_power_trace(4)),),
            "mc-exact-prob", seed),
    ),
    "entropy-enum": Workload(
        "entropy",
        ("--estimator", "ht", "--order", "2-8"),
        n_qubits=3,
        workers=1,
        work_unit="enumeration words",
        work=lambda alpha: _ht_entropy_words(alpha, 9),
        expect=lambda m, seed: reference.Expectation(
            _entropy_rows(m, range(2, 9)), "exact-enumeration", seed),
    ),
    "entropy-pool": Workload(
        "entropy",
        ("--estimator", "ht", "--strategy", "mc", "--mode", "exact", "--order", "2-12"),
        n_qubits=3,
        workers=2,
        work_unit="estimator calls",
        work=lambda alpha: _ht_entropy_calls(13),
        expect=lambda m, seed: reference.Expectation(
            _entropy_rows(m, range(2, 13)), "mc-exact-prob", seed),
    ),
}


@dataclass
class ChildResult:
    """Outcome of one child process."""

    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    stdout: str
    stderr: str
    timed_out: bool = False

    @property
    def status(self) -> str:
        if self.timed_out:
            return "timeout"
        if "MemoryError" in self.stderr:
            return "oom"
        return "ok" if self.exit_code == 0 else f"exit {self.exit_code}"


def _become_subreaper() -> None:
    """Adopt orphaned grandchildren (pool workers of a killed child), so
    ``reap_orphans`` can wait for them instead of leaving zombies."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def reap_orphans() -> None:
    """Wait for every remaining child; only adopted orphans are left when
    this runs."""
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def child_env(workers: int) -> dict[str, str]:
    """A fixed environment: single-threaded BLAS, explicit worker count."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": SRC,
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "QTRACE_THREADS": str(workers),
    }


def run_child(argv: list[str], env: dict[str, str], timeout_s: float) -> ChildResult:
    """Run ``argv`` in its own session under an address-space cap; wall time
    runs from spawn to exit, CPU time and peak RSS come from wait4, which
    includes the pool workers the child waited for."""

    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))

    with tempfile.TemporaryFile(dir=WORK_DIR) as out, tempfile.TemporaryFile(dir=WORK_DIR) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT,
                                preexec_fn=limit, start_new_session=True)
        fired = threading.Event()

        def kill() -> None:
            fired.set()
            _kill_group(proc.pid)

        timer = threading.Timer(max(timeout_s, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)
        reap_orphans()
        out.seek(0)
        err.seek(0)
        return ChildResult(
            exit_code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mib=usage.ru_maxrss / 1024.0,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
            timed_out=fired.is_set(),
        )


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


@dataclass
class Session:
    """State of one benchmark run: the workload, its gate, and every child."""

    workload: Workload
    seed: int
    deadline: float
    config: str
    expectation: reference.Expectation
    work: int
    attempted: int = 0
    failed: int = 0
    table_sha: str | None = None

    def cli_args(self) -> list[str]:
        """The qtrace command line, without the interpreter."""
        w = self.workload
        return [w.command, "--config", self.config, *w.args, "--seed", str(self.seed)]

    def timeout(self) -> float:
        return min(CHILD_TIMEOUT_S, self.deadline - time.perf_counter())

    def record(self, label: str, ok_exit: bool, table: str, problems: list[str]) -> None:
        """Count one operation; gate its table and its SHA-256 against the
        first table of the session."""
        self.attempted += 1
        if ok_exit:
            problems = problems + reference.check_table(table, self.expectation)
            sha = hashlib.sha256(table.encode()).hexdigest()
            if self.table_sha is None:
                self.table_sha = sha
            elif sha != self.table_sha:
                problems.append(f"table sha256 {sha[:12]} differs from {self.table_sha[:12]}")
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAIL {label}: {p}")

    def run_cli(self, label: str, workers: int | None = None) -> ChildResult:
        r = run_child([sys.executable, "-m", "qtrace", *self.cli_args()],
                      child_env(self.workload.workers if workers is None else workers),
                      self.timeout())
        problems = [] if r.status == "ok" else [f"{r.status}: {r.stderr.strip()[-300:]}"]
        self.record(label, r.status == "ok", r.stdout, problems)
        return r

    def setup_probe(self) -> float | None:
        r = run_child([sys.executable, "-c", _SETUP_CODE, self.config],
                      child_env(self.workload.workers), self.timeout())
        self.attempted += 1
        if r.status == "ok":
            try:
                return float(r.stdout.strip())
            except ValueError:
                pass
        self.failed += 1
        print(f"FAIL setup probe: {r.status}: {r.stderr.strip()[-300:]}")
        return None

    def check_worker_invariance(self) -> None:
        """A run at one worker must print the same bytes as the workload's
        own worker count."""
        if self.workload.workers > 1:
            self.run_cli("workers=1 reference", workers=1)


def write_n_qubit_config(n: int) -> str:
    """The bundled table1 model re-targeted to n qubits (each component's
    single angle triple broadcasts to every qubit)."""
    with open(os.path.join(SRC, "qtrace", "data", "table1.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    if n == raw["n_qubits"]:
        return "table1"
    raw["n_qubits"] = n
    path = os.path.join(WORK_DIR, f"table1_n{n}.json")
    text = json.dumps(raw, indent=1, sort_keys=True) + "\n"
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)
    return path


def config_file(config: str) -> str:
    return os.path.join(SRC, "qtrace", "data", "table1.json") if config == "table1" else config


def environment_line() -> str:
    caches = []
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(i for i in os.listdir(cache_dir) if i.startswith("index")):
            def read(field: str) -> str:
                with open(os.path.join(cache_dir, index, field), encoding="ascii") as fh:
                    return fh.read().strip()
            caches.append(f"L{read('level')}{read('type')[0].lower()}={read('size')}")
    except OSError:
        caches.append("unknown")
    import scipy

    src_lines = 0
    pkg = os.path.join(SRC, "qtrace")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    return (f"env python={platform.python_version()} numpy={np.__version__} "
            f"scipy={scipy.__version__} nproc={os.cpu_count()} caches={','.join(caches)} "
            f"src_qtrace_lines={src_lines}")


def window_done(session: Session, t0: float, seconds: float, walls: list[float]) -> bool:
    """True once less than half a median-length run is left of ``seconds``
    (so a run measures for about ``seconds`` on average), or once the run's
    time budget is spent."""
    typical = statistics.median(walls)
    return time.perf_counter() - t0 + typical / 2 >= seconds or session.timeout() <= 0


def measure(session: Session, seconds: float) -> dict[str, float]:
    """End-to-end metrics: medians over set-up probes and over CLI runs
    repeated for about ``seconds``."""
    setups = [session.setup_probe() for _ in range(SETUP_PROBES)][1:]
    runs: list[ChildResult] = []
    t0 = time.perf_counter()
    while not runs or not window_done(session, t0, seconds, [r.wall_s for r in runs]):
        runs.append(session.run_cli(f"run {len(runs)}"))
    session.check_worker_invariance()

    ok = [r for r in runs if r.status == "ok"] or runs
    setups = [s for s in setups if s is not None] or [float("nan")]
    wall = statistics.median(r.wall_s for r in ok)
    work = session.work
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(r.cpu_s for r in ok),
        "peak_rss_mib": statistics.median(r.peak_rss_mib for r in ok),
        "setup_s": statistics.median(setups),
        "throughput": work / wall,
    }
    print(f"samples wall/cpu/rss={len(ok)} setup={len(setups)} "
          f"throughput_unit={session.workload.work_unit}/s work={work}")
    return metrics


def measure_traced(session: Session, seconds: float) -> dict[str, float]:
    """Per-layer metrics: one untraced CLI run, then traced runs repeated
    for about ``seconds``; times are medians, counts must repeat."""
    t0 = time.perf_counter()
    untraced = session.run_cli("untraced")
    argv = [sys.executable, os.path.join(BENCH_DIR, "tracer.py"),
            "--workers", str(session.workload.workers), "--", *session.cli_args()]
    walls: list[float] = []
    layers: list[dict[str, float]] = []
    while not walls or not window_done(session, t0, seconds, [untraced.wall_s, *walls]):
        r = run_child(argv, child_env(session.workload.workers), session.timeout())
        problems = [] if r.status == "ok" else [f"{r.status}: {r.stderr.strip()[-300:]}"]
        table = ""
        if not problems:
            try:
                record = json.loads(r.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                record = {"exit_code": "without a record", "table": ""}
            table = record["table"]
            if record["exit_code"] != 0:
                problems.append(f"traced CLI exit {record['exit_code']}")
            else:
                layers.append(record["metrics"])
                walls.append(r.wall_s)
        session.record(f"traced {len(walls)}", not problems, table, problems)
        if problems:
            break
    session.check_worker_invariance()
    if not layers:
        return {name: float("nan") for name, _ in tracer.PER_LAYER}

    out = {}
    for name, unit in tracer.PER_LAYER:
        values = [m[name] for m in layers]
        if unit == "s":
            out[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                session.failed += 1
                print(f"FAIL counts: {name} differs across traced runs: {values}")
            out[name] = values[0]
    out["trace.overhead_s"] = statistics.median(walls) - untraced.wall_s
    print(f"samples traced={len(layers)}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not os.path.isfile(os.path.join(SRC, "qtrace", "cli.py")):
        sys.stderr.write(f"perfbench: no qtrace sources under {SRC}; run from a full checkout\n")
        return 2

    started = time.perf_counter()
    os.makedirs(WORK_DIR, exist_ok=True)
    _become_subreaper()
    workload = WORKLOADS[args.workload]
    config = write_n_qubit_config(workload.n_qubits)
    model = reference.model_from_file(config_file(config))
    session = Session(workload, args.seed, started + RUN_BUDGET_S, config,
                      workload.expect(model, args.seed), workload.work(model.alpha))
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} workers={workload.workers}")
    print(environment_line())

    if args.trace:
        values, units = measure_traced(session, args.seconds), dict(tracer.PER_LAYER)
    else:
        values, units = measure(session, args.seconds), dict(END_TO_END)
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"error_rate = {session.failed}/{session.attempted} = "
          f"{session.failed / max(session.attempted, 1):.6g}")

    finite = all(math.isfinite(v) for v in values.values())
    result = {
        "correct": session.failed == 0 and session.attempted > 0 and finite,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
