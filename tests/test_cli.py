import json
import math
import subprocess
import sys

import pytest

from qtrace import cli, ensemble, gst, ht
from qtrace.cli import (
    COLUMNS,
    ConfigError,
    ResultRow,
    bundled_config_text,
    load_config,
    parse_config,
    render_csv,
    render_json,
)
from qtrace.errors import IdentityViolationError
from qtrace.series import entropy_weights, evaluate_series

from .conftest import cli_env


def run_cli(*args, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "qtrace", *args], capture_output=True, text=True,
        env=cli_env(**(env_extra or {})),
    )


def base_config(**overrides):
    cfg = json.loads(bundled_config_text("table1"))
    cfg.update(overrides)
    return cfg


def sweep(command, parameter, values):
    return {"command": command, "power": 2, "parameter": parameter, "values": values}


def table(text):
    """CSV result rows as dicts keyed by column."""
    return [dict(zip(COLUMNS, line.split(","), strict=True)) for line in text.splitlines()[1:]]


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigLoading:
    def test_bundled_table1(self):
        cfg = load_config("table1.config")
        assert cfg.spec.n == 3
        assert cfg.spec.alpha == 4
        assert list(cfg.spec.probs) == pytest.approx([0.1, 0.2, 0.3, 0.4])

    def test_angles_are_units_of_pi(self):
        cfg = load_config("table1")
        assert cfg.spec.gates[0].factors[0].theta == pytest.approx(0.29 * math.pi)

    def test_single_triple_broadcasts(self):
        cfg = parse_config(base_config())
        g = cfg.spec.gates[0]
        assert len(g.factors) == 3
        assert len(set(g.factors)) == 1

    def test_per_qubit_angles(self, tmp_path):
        raw = base_config()
        raw["components"] = [
            {"prob": 1.0, "angles": [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]]}
        ]
        cfg = parse_config(raw)
        assert len(set(cfg.spec.gates[0].factors)) == 3

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError, match="no such config"):
            load_config("/definitely/not/here.json")

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda c: c.update(schema=2), "schema"),
            (lambda c: c.update(n_qubits="three"), "n_qubits"),
            (lambda c: c["components"][0].update(prob=1.7), "components[0].prob"),
            (lambda c: c["components"][1]["angles"].append([1, 2, 3]), "components[1].angles"),
            (lambda c: c["params"].update(timeline=3), "params.timeline"),
            (lambda c: c["params"].update(mode="psychic"), "params.mode"),
            (lambda c: c.update(extra_field=1), "extra_field"),
            (lambda c: c["params"].update(ht_sigma=-0.5), "params.ht_sigma"),
            (lambda c: c["params"].update(gst_sigma=-1e-4), "params.gst_sigma"),
            (lambda c: c.update(sweep=sweep("ht", "shots", [5000, 1000.7])), "sweep.values[1]"),
            (lambda c: c.update(sweep=sweep("gst", "shots", [0])), "sweep.values[0]"),
            (lambda c: c.update(sweep=sweep("ht", "ht_sigma", [0.01, -0.5])), "sweep.values[1]"),
            (lambda c: c.update(sweep=sweep("gst", "gst_sigma", [-1e-4])), "sweep.values[0]"),
        ],
    )
    def test_schema_violations_carry_field_path(self, mutate, field):
        raw = base_config()
        mutate(raw)
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.field == field


class TestRendering:
    def row(self, **overrides):
        base = dict(
            quantity="tr_rho_power", order=2, estimate=0.65, std_error=0.0,
            exact_value=0.65, rel_error=0.0, mode="oracle", shots=None,
            trials=None, seed=7, wall_ms=None,
        )
        base.update(overrides)
        return ResultRow(**base)

    def test_empty_rows_header_only(self):
        assert render_csv([]) == ",".join(COLUMNS) + "\n"

    def test_float_precision_17_digits(self):
        text = render_csv([self.row(estimate=0.1 + 0.2)])
        assert "0.30000000000000004" in text

    def test_json_round_trip_is_exact(self):
        rows = [self.row(estimate=1 / 3, std_error=math.sqrt(2) * 1e-3, rel_error=None)]
        parsed = json.loads(render_json(rows))
        assert parsed["rows"][0]["estimate"] == rows[0].estimate
        assert parsed["rows"][0]["std_error"] == rows[0].std_error
        assert parsed["rows"][0]["rel_error"] is None

    def test_oracle_rows_zero_stderr(self):
        r = run_cli("oracle", "--power", "2", "--config", "table1")
        line = r.stdout.splitlines()[1].split(",")
        assert line[COLUMNS.index("std_error")] == "0"


class TestSubcommands:
    def test_oracle_reference_row(self):
        r = run_cli("oracle", "--power", "2", "--config", "table1.config")
        assert r.returncode == 0
        value = float(r.stdout.splitlines()[1].split(",")[2])
        assert round(value, 3) == 0.650

    def test_ht_enumerate_exact(self):
        r = run_cli("ht", "--power", "3", "--mode", "exact", "--strategy", "enumerate")
        assert r.returncode == 0
        value = float(r.stdout.splitlines()[1].split(",")[2])
        assert round(value, 3) == 0.486

    def test_gst_power_range(self):
        r = run_cli("gst", "--power", "2-4")
        assert r.returncode == 0
        values = [round(float(line.split(",")[2]), 3) for line in r.stdout.splitlines()[1:]]
        assert values == [0.650, 0.486, 0.375]

    def test_entropy_oracle_order8(self):
        r = run_cli("entropy", "--order", "8", "--estimator", "oracle")
        assert r.returncode == 0
        row = r.stdout.splitlines()[1].split(",")
        value = float(row[2])
        exact = float(row[4])
        assert round(exact, 3) == -0.600
        assert abs(value - exact) / abs(exact) < 0.03

    def test_entropy_ht_estimator_tracks_oracle(self):
        r = run_cli("entropy", "--order", "2", "--estimator", "ht",
                    "--mode", "exact", "--strategy", "mc", "--trials", "20000")
        assert r.returncode == 0
        value = float(r.stdout.splitlines()[1].split(",")[2])
        assert abs(value - (-0.5647)) < 0.05

    def test_entropy_gst_estimator_tracks_oracle(self):
        r = run_cli("entropy", "--order", "2", "--estimator", "gst",
                    "--strategy", "enumerate")
        assert r.returncode == 0
        value = float(r.stdout.splitlines()[1].split(",")[2])
        assert value == pytest.approx(-0.5647386733870296, abs=1e-6)

    def test_entropy_gst_shots_flag_sets_shots_per_entry(self, tmp_path, capsys):
        argv = ["entropy", "--order", "1", "--estimator", "gst", "--strategy", "mc",
                "--mode", "shots", "--trials", "20", "--seed", "3", "--epsilon", "0.2"]
        outs = {}
        for shots in ("200", "5000"):
            assert cli.main([*argv, "--shots", shots]) == 0
            outs[shots] = capsys.readouterr().out
        assert outs["200"] != outs["5000"]
        cfg = base_config()
        cfg["params"]["gst_shots"] = 200
        assert cli.main([*argv, "--config", write_config(tmp_path, cfg)]) == 0
        assert capsys.readouterr().out == outs["200"]

    def test_oracle_and_rows_above_12_qubits(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(n_qubits=20))
        spec = load_config(path).spec
        assert cli.main(["oracle", "--power", "2", "--entropy", "--config", path]) == 0
        rows = table(capsys.readouterr().out)
        assert float(rows[0]["exact_value"]) == ensemble.exact_power_trace(spec, 2)
        assert float(rows[1]["exact_value"]) == ensemble.exact_entropy_trace(spec)
        assert cli.main(["ht", "--power", "2", "--config", path]) == 0
        row = table(capsys.readouterr().out)[0]
        assert float(row["exact_value"]) == ensemble.exact_power_trace(spec, 2)
        assert float(row["rel_error"]) < 1e-12

    def test_entropy_ht_enumeration_runs_once_per_power(self, monkeypatch, capsys):
        enumerate_trace = ht.estimate_power_trace_enumerate
        calls = []

        def counted(spec, m, *args, **kwargs):
            calls.append(m)
            return enumerate_trace(spec, m, *args, **kwargs)

        monkeypatch.setattr(ht, "estimate_power_trace_enumerate", counted)
        assert cli.main(["entropy", "--estimator", "ht", "--order", "2-8"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert sorted(calls) == list(range(9))  # Tr{rho^j}, j = 1..9

        # The same table from one enumeration per (k, j) term.
        spec = load_config("table1").spec
        gk = []
        for k in range(10):
            value = float(spec.dim)
            for j in range(1, k + 1):
                value += math.comb(k, j) * (-2.0) ** j * enumerate_trace(spec, j - 1).value
            gk.append(ht.TraceEstimate(value, 0.0, 1, ht.MODE_EXACT_ENUMERATION))
        for row, order in zip(rows, range(2, 9), strict=True):
            want = evaluate_series(entropy_weights(order), gk).value
            assert row.split(",")[2] == format(want, ".17g")

    def test_bounds_rows(self):
        r = run_cli("bounds", "--d", "2", "--eps1", "0.0001", "--epsilon", "0.1")
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert len(lines) == 5
        quantities = [line.split(",")[0] for line in lines[1:]]
        assert quantities == [
            "hoeffding_shots",
            "gram_inverse_error_estimate",
            "sampling_error_estimate",
            "truncation_error_estimate",
        ]

    def test_sweep_rows(self, tmp_path):
        cfg = base_config(
            sweep={"command": "ht", "power": 2, "parameter": "shots", "values": [5000, 20000]}
        )
        path = write_config(tmp_path, cfg)
        r = run_cli("sweep", "--config", path)
        assert r.returncode == 0
        lines = r.stdout.splitlines()[1:]
        assert len(lines) == 2
        assert "mc-shots@shots=5000" in lines[0]
        assert "mc-shots@shots=20000" in lines[1]

    def test_sweep_gst_truncation(self, tmp_path):
        cfg = base_config(
            sweep={"command": "gst", "power": 2, "parameter": "epsilon_trunc",
                   "values": [1e-8, 2e-4]}
        )
        cfg["params"]["strategy"] = "enumerate"
        path = write_config(tmp_path, cfg)
        r = run_cli("sweep", "--config", path)
        assert r.returncode == 0
        lines = r.stdout.splitlines()[1:]
        tight, loose = (float(line.split(",")[2]) for line in lines)
        assert tight == pytest.approx(0.6498793582396445, abs=1e-9)
        assert abs(loose - tight) > 1e-5  # truncation bias visible

    @pytest.mark.parametrize("parameter, value, params, flags, shots_trials", [
        ("ht_sigma", 0.01, {"trials": 5000},
         ["ht", "--strategy", "mc", "--mode", "exact", "--ht-sigma", "0.01"], ("", "5000")),
        ("shots", 100000, {"strategy": "mc", "trials": 50, "epsilon_trunc": 1e-3},
         ["gst", "--mode", "shots", "--shots", "100000"], ("100000", "50")),
        ("gst_sigma", 1e-4, {"strategy": "mc", "trials": 100, "epsilon_trunc": 1e-3},
         ["gst", "--mode", "gaussian", "--gst-sigma", "0.0001"], ("", "100")),
    ])
    def test_sweep_row_matches_direct_command(self, tmp_path, capsys, parameter, value, params,
                                              flags, shots_trials):
        # Sweep row 0 and the direct command's first row share _child_seed(master, 0).
        cfg = base_config(sweep=sweep(flags[0], parameter, [value, 2 * value]))
        cfg["params"].update(params)
        path = write_config(tmp_path, cfg)
        assert cli.main(["sweep", "--config", path]) == 0
        swept = table(capsys.readouterr().out)
        assert cli.main([flags[0], "--power", "2", *flags[1:], "--config", path]) == 0
        (direct,) = table(capsys.readouterr().out)
        assert len(swept) == 2
        for col in ("estimate", "std_error", "shots", "trials"):
            assert swept[0][col] == direct[col], col
        assert swept[0]["mode"] == f"{direct['mode']}@{parameter}={value}"
        assert direct["mode"].startswith("mc-")
        assert (direct["shots"], direct["trials"]) == shots_trials

    def test_sweep_parameter_command_mismatch(self, tmp_path):
        cfg = base_config(
            sweep={"command": "ht", "power": 2, "parameter": "gst_sigma", "values": [0.1]}
        )
        path = write_config(tmp_path, cfg)
        r = run_cli("sweep", "--config", path)
        assert r.returncode == 2
        assert json.loads(r.stderr)["field"] == "sweep.parameter"

    def test_golden_flag(self):
        r = run_cli("--golden")
        assert r.returncode == 0
        assert "ALL PASS" in r.stdout
        assert all(line.startswith(("PASS", "ALL")) for line in r.stdout.splitlines())


class TestExitCodes:
    def test_schema_violation_exit_2(self, tmp_path):
        cfg = base_config()
        cfg["components"][0]["prob"] = -0.1
        path = write_config(tmp_path, cfg)
        r = run_cli("oracle", "--power", "2", "--config", path)
        assert r.returncode == 2
        record = json.loads(r.stderr)
        assert record["error"] == "schema-violation"
        assert record["field"] == "components[0].prob"

    def test_resource_limit_exit_3(self, tmp_path):
        cfg = base_config()
        cfg["params"]["enumeration_cap"] = 10
        path = write_config(tmp_path, cfg)
        r = run_cli("ht", "--power", "4", "--strategy", "enumerate", "--config", path)
        assert r.returncode == 3
        record = json.loads(r.stderr)
        assert record["error"] == "resource-limit"
        assert record["cap"] == 10

    def test_ill_conditioned_gram_exit_4(self, tmp_path):
        # Two nearly identical components and no truncation: the d=2 Gram is
        # numerically singular and the run must fail loudly.
        delta = 2.0 * math.sqrt(2.0) * 1e-4
        cfg = base_config()
        cfg["components"] = [
            {"prob": 0.5, "angles": [[0.30, 0.0, 0.0]]},
            {"prob": 0.5, "angles": [[0.30 + delta / math.pi, 0.0, 0.0]]},
        ]
        cfg["n_qubits"] = 2
        path = write_config(tmp_path, cfg)
        r = run_cli("gst", "--power", "2", "--epsilon", "1e-30", "--config", path)
        assert r.returncode == 4
        record = json.loads(r.stderr)
        assert record["error"] == "ill-conditioned-gram"
        assert record["min_eigenvalue"] < 1e-8

    @pytest.mark.parametrize("argv", [
        ["--power", "2", "--mode", "shots", "--trials", "500", "--seed", "7"],
        ["--g-power", "2", "--mode", "shots", "--trials", "200", "--shots", "1000"],
    ])
    def test_ill_conditioned_gram_in_mc_exit_4_at_any_thread_setting(self, argv):
        # These GST Monte Carlo runs draw a word whose shot-noisy Gram falls
        # below the conditioning floor; the typed error must reach the user
        # whatever QTRACE_THREADS says.
        for threads in ("1", "2"):
            r = run_cli("gst", "--strategy", "mc", *argv, env_extra={"QTRACE_THREADS": threads})
            assert r.returncode == 4, r.stderr
            assert json.loads(r.stderr)["error"] == "ill-conditioned-gram"

    @pytest.mark.parametrize("key, argv", [
        ("ht_sigma", ["ht", "--power", "2", "--strategy", "mc", "--mode", "exact"]),
        ("gst_sigma", ["gst", "--power", "2", "--strategy", "mc", "--mode", "gaussian"]),
    ])
    def test_negative_noise_level_exit_2(self, tmp_path, capsys, key, argv):
        cfg = base_config()
        cfg["params"][key] = -0.5
        assert cli.main([*argv, "--config", write_config(tmp_path, cfg)]) == 2
        assert json.loads(capsys.readouterr().err)["field"] == f"params.{key}"
        flag = "--" + key.replace("_", "-")
        assert cli.main([*argv, flag, "-0.5"]) == 2
        record = json.loads(capsys.readouterr().err)
        assert (record["error"], record["field"]) == ("schema-violation", flag)

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("flag, argv", [
        ("--ht-sigma", ["ht", "--power", "2", "--strategy", "mc", "--mode", "exact"]),
        ("--gst-sigma", ["gst", "--power", "2", "--strategy", "mc", "--mode", "gaussian"]),
        ("--epsilon", ["gst", "--power", "2"]),
        ("--theta", ["gst", "--power", "2"]),
    ])
    def test_non_finite_flag_exit_2(self, capsys, flag, argv, value):
        assert cli.main([*argv, "--trials", "10", flag, value]) == 2
        record = json.loads(capsys.readouterr().err)
        assert (record["error"], record["field"]) == ("schema-violation", flag)

    @pytest.mark.parametrize("n_qubits, components, argv", [
        # The --pinv solve of a numerically singular Gram biases Tr{R_w}.
        (2, [{"prob": 0.5, "angles": [[0.30, 0.0, 0.0]]},
             {"prob": 0.5, "angles": [[0.30 + 2.0 * math.sqrt(2.0) * 1e-4 / math.pi, 0.0, 0.0]]}],
         ["--power", "2-4", "--pinv", "--epsilon", "1e-30"]),
        # The bundled model at n = 20: a word's Tr{R_w} rounds below -1e-8.
        (20, None, ["--g-power", "6"]),
    ])
    def test_identity_violation_exit_4(self, tmp_path, capsys, n_qubits, components, argv):
        cfg = base_config(n_qubits=n_qubits)
        if components is not None:
            cfg["components"] = components
        assert cli.main(["gst", *argv, "--config", write_config(tmp_path, cfg)]) == 4
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "identity-violation"
        assert record["statistic"] < -1e-8

    def test_non_finite_identity_statistic_stays_valid_json(self, monkeypatch, capsys):
        def violate(*args, **kwargs):
            raise IdentityViolationError("Tr{R_w} = nan", statistic=math.nan)

        monkeypatch.setattr(gst, "combination_trace", violate)
        assert cli.main(["gst", "--power", "2"]) == 4
        record = json.loads(capsys.readouterr().err)
        assert (record["error"], record["statistic"]) == ("identity-violation", "nan")

    def test_unwritable_output_exit_5(self):
        r = run_cli("oracle", "--power", "2", "--out", "/no/such/dir/out.csv")
        assert r.returncode == 5
        assert json.loads(r.stderr)["error"] == "unwritable-output"

    def test_invalid_epsilon_from_flag_exit_2(self):
        r = run_cli("gst", "--power", "2", "--epsilon", "5.0")
        assert r.returncode == 2
        assert json.loads(r.stderr)["error"] == "invalid-argument"


def _refuse(*args, **kwargs):
    raise AssertionError("a CLI path formed a 2**n vector")


class TestSpanOnly:
    @pytest.mark.parametrize("argv", [
        ["oracle", "--power", "2-4", "--g-power", "0-3", "--entropy"],
        ["ht", "--power", "2-3"],
        ["ht", "--power", "2", "--strategy", "mc", "--mode", "shots", "--trials", "2000"],
        ["ht", "--power", "2", "--strategy", "mc", "--mode", "exact", "--ht-sigma", "0.01",
         "--trials", "2000"],
        ["gst", "--power", "2", "--g-power", "2"],
        ["gst", "--g-power", "2", "--strategy", "mc", "--trials", "50"],
        ["gst", "--g-power", "1", "--strategy", "mc", "--mode", "shots", "--trials", "50"],
        ["gst", "--g-power", "2", "--strategy", "mc", "--mode", "gaussian", "--trials", "50"],
        ["entropy", "--order", "2-3", "--estimator", "oracle"],
        ["entropy", "--order", "2", "--estimator", "ht"],
        ["entropy", "--order", "2", "--estimator", "gst"],
        ["sweep", "--config", "{sweep}"],
        ["bounds"],
        ["--golden"],
    ])
    def test_cli_forms_no_2n_vector(self, tmp_path, monkeypatch, capsys, argv):
        path = write_config(tmp_path, base_config(sweep=sweep("gst", "epsilon_trunc", [1e-10, 0.5])))
        for name in ("states", "state_matrix"):
            monkeypatch.setattr(ensemble.EnsembleSpec, name, property(_refuse))
        monkeypatch.setattr(ensemble, "exact_combination_trace", _refuse)
        assert cli.main([a.replace("{sweep}", path) for a in argv]) == 0, capsys.readouterr().err


class TestDeterminism:
    def test_seeded_run_is_byte_identical_across_workers(self, tmp_path):
        outs = {}
        for workers in ("1", "8"):
            path = tmp_path / f"w{workers}.json"
            r = run_cli(
                "ht", "--power", "2", "--strategy", "mc", "--mode", "shots",
                "--trials", "30000", "--format", "json", "--out", str(path),
                env_extra={"QTRACE_THREADS": workers},
            )
            assert r.returncode == 0, r.stderr
            outs[workers] = path.read_bytes()
        assert outs["1"] == outs["8"]

    def test_same_seed_same_bytes(self, tmp_path):
        paths = []
        for i in range(2):
            path = tmp_path / f"run{i}.csv"
            r = run_cli("gst", "--power", "2", "--strategy", "mc", "--trials", "150",
                        "--seed", "99", "--out", str(path))
            assert r.returncode == 0, r.stderr
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_different_seeds_differ(self, tmp_path):
        outs = []
        for seed in ("1", "2"):
            path = tmp_path / f"s{seed}.csv"
            r = run_cli("ht", "--power", "2", "--strategy", "mc", "--mode", "shots",
                        "--trials", "5000", "--seed", seed, "--out", str(path))
            assert r.returncode == 0
            outs.append(path.read_bytes())
        assert outs[0] != outs[1]
