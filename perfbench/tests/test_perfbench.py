"""Tests of the benchmark itself: its reference, its gate and its tracer.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

from qtrace import EnsembleSpec, ProductGate, RotationParams, ensemble  # noqa: E402


def _random_case(rng: np.random.Generator, n: int, alpha: int):
    angles = rng.uniform(-2 * math.pi, 2 * math.pi, size=(alpha, n, 3))
    probs = rng.uniform(0.05, 1.0, size=alpha)
    probs /= probs.sum()
    gates = tuple(ProductGate(n, tuple(RotationParams(*q) for q in comp)) for comp in angles)
    return reference.span_model(probs, angles), EnsembleSpec(n, probs, gates)


@pytest.mark.parametrize("n", range(1, 7))
def test_span_reference_matches_dense_oracle(n):
    rng = np.random.default_rng(100 + n)
    for alpha in (1, 2, 3, 5):
        model, spec = _random_case(rng, n, alpha)
        for m in range(1, 5):
            assert model.power_trace(m) == pytest.approx(ensemble.exact_power_trace(spec, m),
                                                         rel=1e-11, abs=1e-13)
        for k in range(6):
            assert model.g_power_trace(k) == pytest.approx(ensemble.exact_g_power_trace(spec, k),
                                                           rel=1e-11, abs=1e-11)
        assert model.entropy_trace() == pytest.approx(ensemble.exact_entropy_trace(spec),
                                                      rel=1e-10, abs=1e-12)


def _table(rows, mode="mc-exact-prob", seed=7, std_error=0.01):
    lines = ["quantity,order,estimate,std_error,exact_value,rel_error,mode,shots,trials,seed,wall_ms"]
    for quantity, order, exact, estimate in rows:
        lines.append(f"{quantity},{order},{estimate!r},{std_error!r},{exact!r},,{mode},,,{seed},")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def table1_model():
    return reference.model_from_file(os.path.join(run.SRC, "qtrace", "data", "table1.json"))


def test_gate_accepts_reference_table_and_flags_corruption(table1_model):
    exp = run.WORKLOADS["entropy-pool"].expect(table1_model, 7)
    good = _table(exp.rows)
    assert reference.check_table(good, exp) == []

    corrupted = good.replace(f"{exp.rows[0][3]!r}", f"{exp.rows[0][3] + 1.0!r}", 1)
    assert any("estimate" in p for p in reference.check_table(corrupted, exp))
    assert reference.check_table(good.splitlines()[0] + "\n", exp)
    dropped = "\n".join(good.splitlines()[:-1]) + "\n"
    assert any("row set" in p for p in reference.check_table(dropped, exp))
    assert any("seed" in p for p in reference.check_table(_table(exp.rows, seed=8), exp))

    exact = run.WORKLOADS["entropy-enum"].expect(table1_model, 7)
    nudged = [(q, o, x, e * (1 + 1e-7)) for q, o, x, e in exact.rows]
    assert reference.check_table(_table(exact.rows, mode="exact-enumeration", std_error=0.0), exact) == []
    assert reference.check_table(_table(nudged, mode="exact-enumeration", std_error=0.0), exact)


def _cli(args, cwd):
    env = run.child_env(1)
    return subprocess.run([sys.executable, "-m", "qtrace", *args], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=120)


def test_gate_flags_wrong_n_config(tmp_path):
    with open(os.path.join(run.SRC, "qtrace", "data", "table1.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["n_qubits"] = 5
    config = tmp_path / "n5.json"
    config.write_text(json.dumps(raw))
    model = reference.model_from_file(str(config))
    value = model.power_trace(2)
    exp = reference.Expectation((("tr_rho_power", 2, value, value),), "exact-enumeration", 3)

    right = _cli(["ht", "--config", str(config), "--power", "2", "--seed", "3"], tmp_path)
    assert right.returncode == 0
    assert reference.check_table(right.stdout, exp) == []

    # Before the subcommand, --config is silently replaced by table1 (n = 3).
    wrong = _cli(["--config", str(config), "ht", "--power", "2", "--seed", "3"], tmp_path)
    assert wrong.returncode == 0
    assert any("exact_value" in p for p in reference.check_table(wrong.stdout, exp))


def _session(tmp_path, monkeypatch, workload):
    monkeypatch.setattr(run, "WORK_DIR", str(tmp_path))
    model = reference.model_from_file(os.path.join(run.SRC, "qtrace", "data", "table1.json"))
    return run.Session(workload, 3, float("inf"), "table1",
                       workload.expect(model, 3), workload.work(model.alpha))


def test_nonzero_exit_is_a_failed_run(tmp_path, monkeypatch):
    base = run.WORKLOADS["entropy-enum"]
    broken = run.Workload(base.command, ("--estimator", "ht", "--order", "0"), 3, 1,
                          base.work_unit, base.work, base.expect)
    session = _session(tmp_path, monkeypatch, broken)
    result = session.run_cli("broken")
    assert result.exit_code == 2
    assert (session.attempted, session.failed) == (1, 1)


def test_child_limits_count_as_failures(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_DIR", str(tmp_path))
    env = run.child_env(1)
    slow = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"], env, 0.5)
    assert slow.status == "timeout" and slow.wall_s < 10
    monkeypatch.setattr(run, "ADDRESS_SPACE_CAP", 512 << 20)
    big = run.run_child([sys.executable, "-c", "b = bytearray(1 << 30)"], env, 30)
    assert big.status == "oom"


def test_traced_self_times_sum_to_traced_wall(tmp_path):
    argv = [sys.executable, os.path.join(BENCH_DIR, "tracer.py"), "--workers", "1", "--",
            "gst", "--config", "table1", "--g-power", "3", "--strategy", "mc",
            "--trials", "300", "--seed", "5"]
    records = []
    for _ in range(2):
        out = subprocess.run(argv, capture_output=True, text=True, env=run.child_env(1),
                             cwd=tmp_path, timeout=120)
        assert out.returncode == 0, out.stderr
        records.append(json.loads(out.stdout.strip().splitlines()[-1]))
    m = records[0]["metrics"]
    assert records[0]["exit_code"] == 0
    self_total = sum(m[key] for key in tracer.SELF_TIME_METRICS.values())
    # Stated tolerance: 1% of the traced wall time plus 5 ms.
    assert abs(self_total - m["trace.wall_s"]) <= 0.01 * m["trace.wall_s"] + 0.005
    assert m["gst.draws"] == 300
    assert 0 < m["gst.words_evaluated"] < 300  # the per-chunk memo serves the rest
    assert m["gst.memo_hit_ratio"] == pytest.approx(1 - m["gst.words_evaluated"] / 300)
    assert m["qcore.reflect_calls"] > 0 and m["gst.mean_d"] > 0
    counts = {name for name, unit in tracer.PER_LAYER if unit != "s"}
    assert {k: m[k] for k in counts} == {k: records[1]["metrics"][k] for k in counts}
    assert records[0]["table"] == records[1]["table"]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)


def test_refuses_to_run_without_sources(tmp_path):
    root = os.path.dirname(BENCH_DIR)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ht-mc", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
