import argparse
import cmath
import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction

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
from qtrace.errors import IdentityViolationError, IllConditionedGramError
from qtrace.series import (
    MODE_ORACLE,
    TraceEstimate,
    entropy_weights,
    evaluate_series,
    evaluate_telescoped,
)

from .conftest import cli_env


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qtrace", *args], capture_output=True, text=True, env=cli_env(),
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


def strict_json(text):
    """json.loads that refuses the non-JSON tokens NaN, Infinity and -Infinity."""
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def wide_config(alpha):
    """``alpha`` equally likely components on five qubits, at distinct angles."""
    return base_config(n_qubits=5, components=[
        {"prob": 1.0 / alpha, "angles": [[0.01 + 0.9 * i / alpha, 0.37 * i, 0.0]]}
        for i in range(alpha)])


class TestConfigLoading:
    def test_bundled_table1(self):
        cfg = load_config("table1.config")
        assert cfg.spec.n == 3
        assert cfg.spec.alpha == 4
        assert list(cfg.spec.probs) == pytest.approx([0.1, 0.2, 0.3, 0.4])

    def test_angles_are_units_of_pi(self):
        # Component 0 is (0.29, 0.07, 0.11): its ket (cos(theta/2), e^{i phi} sin(theta/2)).
        cfg = load_config("table1")
        assert cfg.spec.kets[0, 0] == pytest.approx(
            [math.cos(0.145 * math.pi), cmath.exp(0.07j * math.pi) * math.sin(0.145 * math.pi)])

    def test_single_triple_broadcasts(self):
        cfg = parse_config(base_config())
        assert cfg.spec.kets.shape == (4, 3, 2)
        assert len({row.tobytes() for row in cfg.spec.kets[0]}) == 1

    def test_per_qubit_angles(self, tmp_path):
        raw = base_config()
        raw["components"] = [
            {"prob": 1.0, "angles": [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]]}
        ]
        cfg = parse_config(raw)
        assert len({row.tobytes() for row in cfg.spec.kets[0]}) == 3

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError, match="no such config"):
            load_config("/definitely/not/here.json")

    @pytest.mark.parametrize("case", ["directory", "unreadable", "not-utf-8"])
    def test_unreadable_config_is_a_schema_violation(self, tmp_path, monkeypatch, capsys, case):
        path = tmp_path / "cfg.json"
        if case == "directory":
            path.mkdir()
        elif case == "unreadable":
            path.write_text(bundled_config_text("table1"))

            def refuse(*args, **kwargs):
                raise PermissionError(13, "Permission denied", str(path))

            monkeypatch.setattr(cli, "open", refuse, raising=False)
        else:
            path.write_bytes(b'{"schema": 1, "n_qubits": "\xff"}')
        for argv in (["oracle", "--power", "2", "--config", str(path)],
                     ["--golden", "--config", str(path)]):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            record = json.loads(captured.err)
            assert captured.out == ""
            assert (record["error"], record["field"]) == ("schema-violation", "config")
            assert record["message"].startswith("config: cannot read config file: ")

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
            pytest.param(lambda c: c["components"][0].update(angles=[[1e308, 0, 0.2]]),
                         "components[0].angles[0][0]", id="overflowing-theta"),
            pytest.param(lambda c: c["components"][3].update(angles=[[0.2, 0, 0.1]] * 2
                                                              + [[0.2, 0, -1e308]]),
                         "components[3].angles[2][2]", id="overflowing-lambda"),
            (lambda c: c["params"].update(ht_sigma=-0.5), "params.ht_sigma"),
            pytest.param(lambda c: c["params"].update(ht_sigma=10**400), "params.ht_sigma",
                         id="huge-int-params.ht_sigma"),
            (lambda c: c["params"].update(gst_sigma=-1e-4), "params.gst_sigma"),
            # The GST enumeration cap is a constant: a once-valid cap is unknown.
            (lambda c: c["params"].update(enumeration_cap=10**8), "params.enumeration_cap"),
            (lambda c: c["params"].update(trials=0), "params.trials"),
            (lambda c: c["params"].update(shots=0), "params.shots"),
            (lambda c: c["params"].update(gst_shots=0), "params.gst_shots"),
            (lambda c: c.update(sweep=sweep("ht", "shots", [5000, 1000.7])), "sweep.values[1]"),
            (lambda c: c.update(sweep=sweep("gst", "shots", [0])), "sweep.values[0]"),
            (lambda c: c.update(sweep=sweep("ht", "ht_sigma", [0.01, -0.5])), "sweep.values[1]"),
            pytest.param(lambda c: c.update(sweep=sweep("ht", "ht_sigma", [-(10**400)])),
                         "sweep.values[0]", id="huge-int-sweep.values[0]"),
            (lambda c: c.update(sweep=sweep("gst", "gst_sigma", [-1e-4])), "sweep.values[0]"),
            (lambda c: c["params"].update(epsilon_trunc=5.0), "params.epsilon_trunc"),
            (lambda c: c["params"].update(epsilon_trunc=0), "params.epsilon_trunc"),
            (lambda c: c["params"].update(theta_basis=1.0), "params.theta_basis"),
            (lambda c: c["params"].update(theta_basis=-2e-7), "params.theta_basis"),
            (lambda c: c.update(sweep=sweep("gst", "epsilon_trunc", [1e-3, 1.5])),
             "sweep.values[1]"),
            (lambda c: c.update(error_budget={"d": 0}), "error_budget.d"),
            (lambda c: c.update(error_budget={"delta": 2}), "error_budget.delta"),
            (lambda c: c.update(error_budget={"delta": 0.1, "eps2": 0}), "error_budget.eps2"),
            (lambda c: c.update(error_budget={"eps1": 1.0}), "error_budget.eps1"),
            (lambda c: c.update(error_budget={"n_layers": -1}), "error_budget.n_layers"),
            (lambda c: c.update(error_budget={"shots": 0}), "error_budget.shots"),
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

    def test_subnormal_exact_value_leaves_rel_error_empty(self):
        # Tr{rho^3000} of table1 is subnormal, so |estimate - exact| / exact
        # overflows to inf, which JSON cannot carry.
        args = ("ht", "--power", "3000", "--strategy", "mc", "--trials", "10", "--seed", "1")
        as_json, as_csv = run_cli(*args, "--format", "json"), run_cli(*args)
        assert (as_json.returncode, as_csv.returncode) == (0, 0)
        row = strict_json(as_json.stdout)["rows"][0]
        assert 0.0 < row["exact_value"] < sys.float_info.min
        assert row["rel_error"] is None
        assert table(as_csv.stdout)[0]["rel_error"] == ""

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

    def test_entropy_gst_enumeration_matches_oracle_series(self, tmp_path, capsys):
        # One word per class of each Tr{G^k}, k <= 7.  GST feeds the series
        # deficits Tr{G^k} - 2^n, so no 2^n cancels at n = 20.
        for n_qubits in (3, 20):
            path = write_config(tmp_path, base_config(n_qubits=n_qubits), f"n{n_qubits}.json")
            rows = {}
            for estimator in ("gst", "oracle"):
                argv = ["entropy", "--estimator", estimator, "--order", "2-6", "--config", path]
                assert cli.main(argv) == 0
                rows[estimator] = table(capsys.readouterr().out)
            assert [r["order"] for r in rows["gst"]] == [r["order"] for r in rows["oracle"]]
            for got, want in zip(rows["gst"], rows["oracle"], strict=True):
                assert float(got["estimate"]) == pytest.approx(float(want["estimate"]), abs=1e-14)

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

    def test_entropy_oracle_row_keeps_its_digits_at_20_qubits(self, tmp_path, capsys):
        # Against the series evaluated in rationals over the float eigenvalues.
        # The oracle feeds Tr{rho G^j}, which carry no 2^n; the sum over
        # Tr{G^k} = 2^n + ... cancelled 2^n in floats and was off by 3.9e-11.
        path = write_config(tmp_path, base_config(n_qubits=20))
        spec = load_config(path).spec
        assert cli.main(["entropy", "--estimator", "oracle", "--order", "8", "--config", path]) == 0
        (row,) = table(capsys.readouterr().out)
        lam = [Fraction(x) for x in spec.span_eigenvalues]
        tr_g = [sum((1 - 2 * x) ** k for x in lam) + spec.dim - spec.alpha for k in range(10)]
        want = sum(Fraction(c) * t for c, t in zip(entropy_weights(8).coefficients, tr_g,
                                                   strict=True))
        assert abs(Fraction(float(row["estimate"])) - want) < 1e-15

    def test_entropy_ht_enumeration_runs_once_per_power(self, monkeypatch, capsys):
        direct, calls = ht.estimate_rho_g_power_enumerate, []

        def counted(spec, j, *args, **kwargs):
            calls.append(j)
            return direct(spec, j, *args, **kwargs)

        monkeypatch.setattr(ht, "estimate_rho_g_power_enumerate", counted)
        monkeypatch.setattr(ht, "estimate_power_trace_enumerate", _refuse)
        assert cli.main(["entropy", "--estimator", "ht", "--order", "2-8"]) == 0
        rows = table(capsys.readouterr().out)
        assert calls == list(range(9))  # Tr{rho G^j}, j = 0..8

        spec = load_config("table1").spec
        rho_g = [direct(spec, j) for j in range(9)]
        gk = [TraceEstimate(ensemble.exact_g_power_trace(spec, k), 0.0, 1, MODE_ORACLE)
              for k in range(10)]
        for row, order in zip(rows, range(2, 9), strict=True):
            w = entropy_weights(order)
            assert row["estimate"] == format(evaluate_telescoped(w, spec.dim, rho_g).value, ".17g")
            assert float(row["estimate"]) == pytest.approx(evaluate_series(w, gk).value, abs=1e-15)

    def test_entropy_ht_mc_makes_one_call_per_rho_g_power(self, monkeypatch, capsys):
        direct, calls = ht.estimate_rho_g_power_mc, []

        def counted(spec, j, *args, **kwargs):
            calls.append(j)
            return direct(spec, j, *args, **kwargs)

        monkeypatch.setattr(ht, "estimate_rho_g_power_mc", counted)
        monkeypatch.setattr(ht, "estimate_power_trace_mc", _refuse)
        argv = ["entropy", "--estimator", "ht", "--strategy", "mc", "--order", "2-12",
                "--trials", "200"]
        assert cli.main(argv) == 0, capsys.readouterr().err
        assert calls == list(range(13))  # Tr{rho G^j}, j = 0..12

    def test_entropy_ht_mc_order_12_stderr(self, capsys):
        assert cli.main(["entropy", "--estimator", "ht", "--strategy", "mc",
                         "--order", "12", "--seed", "1"]) == 0
        (row,) = table(capsys.readouterr().out)
        assert float(row["std_error"]) <= 0.01
        assert (row["mode"], row["trials"]) == ("mc-exact-prob", "")

    def test_entropy_ht_mc_covers_series_value(self, capsys):
        # The Monte Carlo estimate targets the truncated series, not the
        # exact entropy; |z| <= 2 should hold for about 95% of seeds.
        spec = load_config("table1").spec
        gk = [TraceEstimate(ensemble.exact_g_power_trace(spec, k), 0.0, 1, MODE_ORACLE)
              for k in range(10)]
        target = evaluate_series(entropy_weights(8), gk).value
        z = []
        for seed in range(60):
            assert cli.main(["entropy", "--estimator", "ht", "--strategy", "mc", "--order", "8",
                             "--trials", "2000", "--seed", str(seed)]) == 0
            (row,) = table(capsys.readouterr().out)
            z.append((float(row["estimate"]) - target) / float(row["std_error"]))
        assert sum(abs(v) <= 2.0 for v in z) >= 0.9 * len(z), z

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

    def test_golden_flag(self, capsys):
        # The report's bytes pin each check's value to 6 places, the trend's to 4.
        assert cli.main(["--golden"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("ALL PASS\n")
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256, out

    def test_golden_takes_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["--golden", "oracle", "--power", "2"])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "qtrace: error: --golden runs on its own; it takes no subcommand")

    @pytest.mark.parametrize("argv", [
        ["oracle", "--power", "2-4", "--g-power", "0-3", "--entropy"],
        ["ht", "--power", "2-3"],
        ["gst", "--power", "2", "--g-power", "2"],
        ["entropy", "--order", "2-3", "--estimator", "oracle"],
        ["entropy", "--order", "2-3", "--estimator", "ht"],
        ["entropy", "--order", "2", "--estimator", "gst"],
    ])
    def test_runs_that_draw_nothing_derive_no_seed(self, monkeypatch, capsys, argv):
        # A child seed loads numpy's random module, about 5.5 MiB of peak
        # RSS, which the oracle and enumeration never need.
        def refuse(*args, **kwargs):
            raise AssertionError("a run that draws nothing derived a seed")

        monkeypatch.setattr(cli, "rng_stream", refuse)
        assert cli.main(argv) == 0, capsys.readouterr().err

    @pytest.mark.parametrize("argv, keys", [
        (["gst", "--power", "2-5", "--epsilon", "1e-3"], 20),
        (["gst", "--power", "2-4", "--g-power", "3", "--strategy", "mc", "--trials", "200",
          "--seed", "3"], 49),
    ], ids=["enumerate", "mc"])
    def test_gst_run_builds_each_key_once(self, monkeypatch, capsys, argv, keys):
        # Every Tr{rho^m} row and Tr{G^k} call of one run shares the run's
        # StageCache: a row per power once built each key once per row.
        # Monte Carlo builds a frame per key, the key walk one per pair of
        # letter set and retained set.  Monte Carlo meets the keys of the
        # drawn words themselves, 49 here; the 22 keys of their bracelet
        # classes' least members were all it met when those stood in.
        built = []
        inner = gst._exact_frame

        def spy(e, key, states):
            built.append(tuple(key))
            return inner(e, key, states)

        monkeypatch.setattr(gst, "_exact_frame", spy)
        assert cli.main(argv) == 0, capsys.readouterr().err
        assert len(built) == len(set(built)) == keys


#: Two components 2.8e-4 apart at n = 2, whose untruncated d = 2 operator
#: basis has a numerically singular Gram.
_NEAR_TWINS = [{"prob": 0.5, "angles": [[0.30, 0.0, 0.0]]},
               {"prob": 0.5, "angles": [[0.30 + 2.0 * math.sqrt(2.0) * 1e-4 / math.pi, 0.0, 0.0]]}]


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

    def test_resource_limit_exit_3(self):
        # 64 keys of 10^8 steps each; the word count 4^(10^8) has too many
        # digits to print, and once made this run exit 2.
        r = run_cli("gst", "--g-power", "100000000", "--strategy", "enumerate")
        assert r.returncode == 3
        record = json.loads(r.stderr)
        assert record["error"] == "resource-limit"
        assert (record["requested"], record["cap"]) == (64 * 10**8, gst.ENUMERATION_CAP)

    @pytest.mark.parametrize("argv, oracle_argv", [
        ("ht --power 12", "oracle --power 12"),
        ("ht --power 2-4 --config {wide}", "oracle --power 2-4 --config {wide}"),
        ("entropy --estimator ht --order 2-13", "entropy --estimator oracle --order 2-13"),
        ("entropy --estimator ht --order 2-4 --config {wide}",
         "entropy --estimator oracle --order 2-4 --config {wide}"),
    ])
    def test_ht_enumeration_has_no_cap(self, tmp_path, capsys, argv, oracle_argv):
        # HT enumeration is j alpha x alpha products at any power j, and no
        # count stops it: the first and third runs once exited 3, at
        # 22,369,620 words over the cap, and on the 30 components of {wide}
        # GST's cap refuses the key walks of the fourth run's orders.
        path = write_config(tmp_path, wide_config(30))
        rows = []
        for command in (argv, oracle_argv):
            assert cli.main(command.replace("{wide}", path).split()) == 0
            rows.append(table(capsys.readouterr().out))
        for row, want in zip(*rows, strict=True):
            assert row["mode"] == "exact-enumeration"
            assert float(row["estimate"]) == pytest.approx(float(want["estimate"]),
                                                           rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("argv, oracle_argv, rel, abs_", [
        ("gst --g-power 12", "oracle --g-power 12", 1e-14, 0.0),
        ("gst --power 12", "oracle --power 12", 1e-14, 0.0),
        ("entropy --estimator gst --order 2-12", "entropy --estimator oracle --order 2-12",
         1e-14, 0.0),
        # Tr{rho^1031} is 9.9e-111; the binomial series cancels to 1e-21.
        ("ht --power 1030", "oracle --power 1030", 0.0, 1e-12),
    ])
    def test_enumeration_past_the_old_word_caps(self, capsys, argv, oracle_argv, rel, abs_):
        # The GST runs walk at most 64 keys per power, though they once
        # exited 3 at 4^12 = 16,777,216 words over a cap of 10^7; binomial
        # weights past order 1024 once overflowed a float's 2.0**m.
        rows = []
        for command in (argv, oracle_argv):
            assert cli.main(command.split()) == 0
            rows.append(table(capsys.readouterr().out))
        for row, want in zip(*rows, strict=True):
            assert row["mode"] == "exact-enumeration"
            assert float(row["estimate"]) == pytest.approx(float(want["estimate"]),
                                                           rel=rel, abs=abs_)

    @pytest.mark.parametrize("estimator, module, name", [
        ("gst", gst, "estimate_g_power_trace"),
    ])
    def test_entropy_over_cap_exits_before_any_estimate(
        self, tmp_path, capsys, monkeypatch, estimator, module, name
    ):
        # --order 2-4 needs Tr{G^k} for k <= 5.  With alpha = 20 the walk of
        # k = 5 takes 5 * 1,984,000 key-steps, within the cap, but the run's
        # k = 0..5 take 10,436,620 together, and the cap bounds the run.
        assert gst.check_enumeration_budget(20, [range(5, 6)]) is None
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("an estimator ran before the cap check")

        monkeypatch.setattr(module, name, spy)
        argv = ["entropy", "--estimator", estimator, "--order", "2-4",
                "--config", write_config(tmp_path, wide_config(20))]
        assert cli.main(argv) == 3
        assert calls == []
        record = json.loads(capsys.readouterr().err)
        assert (record["error"], record["requested"], record["cap"]) == (
            "resource-limit", 10_436_620, gst.ENUMERATION_CAP)

    @pytest.mark.parametrize("command, requested", [
        # 64 keys of 10^8 key-steps; its 4^(10^8) words once made it exit 2.
        ("gst --g-power 100000000", 6_400_000_000),
        # Sum_k k * (64 keys at k >= 4): 4 + 2*16 + 3*40 + 64 * (4 + ... + 10^8).
        ("gst --power 100000000", 320_000_003_199_999_772),
        # No row takes over 64 * 560 = 35,840 key-steps; together they take
        # 156 + 64 * (4 + ... + 560).
        ("gst --g-power 1-560", 10_052_892),
        # 6 * (30 + 30*29 + ... + 30!/24!) key-steps.
        ("gst --g-power 6 --config {wide}", 2_671_810_200),
    ])
    def test_over_cap_row_exits_before_any_estimate(
        self, tmp_path, capsys, monkeypatch, command, requested
    ):
        # The key-steps of every row's walks are summed before the first
        # row's estimate, and the record carries their sum.
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("an estimator ran before the cap check")

        for name in ("estimate_power_trace", "estimate_g_power_trace"):
            monkeypatch.setattr(gst, name, spy)
        path = write_config(tmp_path, wide_config(30))
        assert cli.main(command.replace("{wide}", path).split()) == 3
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        cap = gst.ENUMERATION_CAP
        assert json.loads(captured.err) == {
            "error": "resource-limit", "requested": requested, "cap": cap,
            "message": f"GST enumeration needs {requested} key-steps, over the cap of {cap}"}

    def test_walk_over_the_coefficient_cap_exits_3(self, capsys, monkeypatch):
        # 6.4 * 10^6 key-steps, within the cap, but a path of the walk holds
        # 100,001 * (4 + 3 * 4 + 2 * 9 + 16) coefficients.
        def spy(*args, **kwargs):
            raise AssertionError("an estimator ran before the cap check")

        for name in ("estimate_power_trace", "estimate_g_power_trace"):
            monkeypatch.setattr(gst, name, spy)
        assert cli.main(["gst", "--g-power", "100000"]) == 3
        cap, requested = gst.ENUMERATION_VALUES_CAP, 5_000_050
        assert json.loads(capsys.readouterr().err) == {
            "error": "resource-limit", "requested": requested, "cap": cap,
            "message": f"GST enumeration needs {requested} coefficients at once, "
                       f"over the cap of {cap}"}

    def test_sweep_cap_bounds_all_its_rows(self, tmp_path, capsys, monkeypatch):
        # Each row's Tr{rho^400} walks 5,132,572 key-steps, within the cap;
        # the two rows together are over it, and neither runs.
        def spy(*args, **kwargs):
            raise AssertionError("a row ran before the cap check")

        monkeypatch.setattr(gst, "estimate_power_trace", spy)
        cfg = base_config(sweep={"command": "gst", "power": 400, "parameter": "epsilon_trunc",
                                 "values": [1e-8, 2e-4]})
        cfg["params"]["strategy"] = "enumerate"
        assert cli.main(["sweep", "--config", write_config(tmp_path, cfg)]) == 3
        record = json.loads(capsys.readouterr().err)
        assert (record["requested"], record["cap"]) == (2 * 5_132_572, gst.ENUMERATION_CAP)

    def test_config_error_precedes_the_cap_check(self, capsys):
        # The first row's estimator call would reject shots mode under
        # enumeration before counting key-steps, and so does the cap pre-check.
        assert cli.main(["gst", "--power", "100000000", "--strategy", "enumerate",
                         "--mode", "shots"]) == 2
        record = json.loads(capsys.readouterr().err)
        assert (record["error"], record["field"]) == ("schema-violation", "params.mode")

    @pytest.mark.parametrize("command", [
        "gst --g-power 2-3 --mode shots --pinv",
        "gst --g-power 2-3 --mode gaussian --pinv",
        "gst --power 2-13 --mode shots",
        "entropy --estimator gst --order 2 --mode shots",
        "entropy --estimator gst --order 2-12 --mode gaussian",
    ])
    def test_gst_enumeration_requires_exact_mode(self, capsys, monkeypatch, command):
        # Noisy entries under exact weights would print a zero std_error
        # labelled exact-enumeration.  Like HT, GST refuses before the cap
        # pre-check and before any estimate.
        def spy(*args, **kwargs):
            raise AssertionError("an estimator ran before the mode check")

        for name in ("estimate_power_trace", "estimate_g_power_trace"):
            monkeypatch.setattr(gst, name, spy)
        assert cli.main(command.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "schema-violation", "field": "params.mode",
            "message": "params.mode: gst enumerate strategy requires exact mode"}

    def test_gst_shots_sweep_on_enumerate_config_exits_2(self, tmp_path, capsys):
        cfg = base_config(sweep=sweep("gst", "shots", [1000, 2000]))
        assert cfg["params"].get("strategy", "enumerate") == "enumerate"
        assert cli.main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert (record["error"], record["field"]) == ("schema-violation", "params.mode")

    @pytest.mark.parametrize("command, field, message", [
        ("gst --power 0", "--power", "power must be >= 1, got 0"),
        ("oracle --power 0", "--power", "power must be >= 1, got 0"),
        ("ht --power 0", "--power", "power must be >= 1, got 0"),
        ("ht --power 2-4,0", "--power", "power must be >= 1, got 0"),
        ("gst --g-power -1", "--g-power", "g-power must be >= 0, got -1"),
        ("oracle --g-power -1", "--g-power", "g-power must be >= 0, got -1"),
        ("entropy --order 0", "--order", "order must be >= 1, got 0"),
        ("ht --power 2 --strategy mc --trials 0", "--trials", "must be >= 1, got 0"),
        ("ht --power 2 --strategy mc --mode shots --shots 0", "--shots", "must be >= 1, got 0"),
        ("gst --g-power 2 --trials 0", "--trials", "must be >= 1, got 0"),
        ("gst --g-power 2 --strategy mc --mode shots --shots 0", "--shots",
         "must be >= 1, got 0"),
        ("entropy --order 2 --estimator gst --strategy mc --mode shots --shots 0", "--shots",
         "must be >= 1, got 0"),
        ("bounds --shots nan", "--shots", "must be finite, got nan"),
        ("entropy --order 2 --estimator gst --epsilon 0", "--epsilon",
         "must be in (0, 1), got 0.0"),
        ("gst --power 2 --theta 0", "--theta", "basis rotation theta=0.0 is within 1e-6 of "
         "0*pi, which makes the dressed preparations linearly dependent"),
        ("gst --power 2 --theta 1e308", "--theta", "1e+308 * pi overflows the float range"),
        ("entropy --order 2 --estimator gst --theta -1", "--theta", "basis rotation "
         "theta=-3.141592653589793 is within 1e-6 of -1*pi, which makes the dressed "
         "preparations linearly dependent"),
        ("bounds --d 0", "--d", "must be >= 1, got 0"),
        ("bounds --delta 2", "--delta", "must be in (0, 1), got 2.0"),
        ("bounds --delta 0", "--delta", "must be in (0, 1), got 0.0"),
        ("bounds --epsilon 0", "--epsilon", "must be in (0, inf), got 0.0"),
        ("bounds --eps1 -0.001", "--eps1", "must be in (0, 1), got -0.001"),
        ("bounds --eps1 2", "--eps1", "must be in (0, 1), got 2.0"),
        ("bounds --eps2 0", "--eps2", "must be in (0, inf), got 0.0"),
        ("bounds --n-layers -1", "--n-layers", "must be non-negative"),
        ("bounds --shots 0", "--shots", "must be in (0, inf), got 0.0"),
        ("ht --power 2 --mode gaussian", "params.mode", "ht enumerate strategy requires exact mode"),
        ("ht --power 2 --strategy mc --mode gaussian", "params.mode",
         "ht supports exact or shots mode (ht_sigma rides on exact)"),
        ("ht --power 2 --strategy mc --mode shots --ht-sigma 0.01", "params.ht_sigma",
         "pairs with exact mode only; shot and Gaussian noise never combine"),
        # An empty order spec is a parse error of its flag, as a blank one is.
        *(pytest.param([command, flag, spec], flag, f"cannot parse order spec {spec!r}",
                       id=f"{command} {flag} {spec!r}")
          for command, flag, spec in (("ht", "--power", ""), ("gst", "--power", ""),
                                      ("gst", "--g-power", ""), ("oracle", "--power", ""),
                                      ("oracle", "--g-power", ""), ("oracle", "--power", " "))),
    ])
    def test_order_below_minimum_names_its_flag(self, capsys, command, field, message):
        assert cli.main(command.split() if isinstance(command, str) else command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "schema-violation", "field": field,
                                            "message": f"{field}: {message}"}

    @pytest.mark.parametrize("command", ["entropy --order 2 --cap 5", "gst --g-power 2 --cap 5"])
    def test_cap_is_no_flag(self, capsys, command):
        # The GST enumeration cap is a constant, so no flag sets it.
        with pytest.raises(SystemExit) as exit_:
            cli.main(command.split())
        assert exit_.value.code == 2
        assert "unrecognized arguments: --cap 5" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--power", "2", "--mode", "shots", "--trials", "500", "--seed", "7"],
        ["--g-power", "2", "--mode", "shots", "--trials", "200", "--shots", "1000"],
    ])
    def test_ill_conditioned_gram_in_mc_exit_4(self, argv):
        # These GST Monte Carlo runs draw a word whose shot-noisy Gram falls
        # below the conditioning floor; the typed error must reach the user.
        r = run_cli("gst", "--strategy", "mc", *argv)
        assert r.returncode == 4, r.stderr
        assert json.loads(r.stderr)["error"] == "ill-conditioned-gram"

    @pytest.mark.parametrize("section, field", [
        ({"error_budget": {"d": 2.7, "n_layers": 4}}, "error_budget.d"),
        ({"error_budget": {"d": 2, "n_layers": 3.9}}, "error_budget.n_layers"),
        ({"sweep": {**sweep("ht", "shots", [5000]), "power": 0}}, "sweep.power"),
        ({"sweep": {**sweep("gst", "epsilon_trunc", [1e-8]), "power": 0}}, "sweep.power"),
    ])
    def test_config_out_of_domain_exit_2(self, tmp_path, capsys, section, field):
        # The schema rejects these before any runner reads them.
        command = "bounds" if "error_budget" in section else "sweep"
        assert cli.main([command, "--config", write_config(tmp_path, base_config(**section))]) == 2
        record = json.loads(capsys.readouterr().err)
        assert (record["error"], record["field"]) == ("schema-violation", field)

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
        # Near twins, untruncated: the tomography's --pinv solve of their
        # numerically singular Gram makes Tr{R_w} = |Tr w|^2 negative.
        (2, _NEAR_TWINS, ["--power", "2-4", "--pinv", "--epsilon", "1e-30"]),
        # The bundled model at n = 20 with the basis angle 0.6 pi: the
        # tomography rounds a word's Tr{R_w} to -1.6e-8.
        (20, None, ["--g-power", "6", "--theta", "0.6"]),
        # The near twins without --pinv: their operator-basis Gram is below
        # the conditioning floor, which exact mode does not consult.
        (2, _NEAR_TWINS, ["--power", "2", "--epsilon", "1e-30"]),
    ])
    def test_tomography_rounding_cases_match_the_oracle(self, tmp_path, capsys, n_qubits,
                                                         components, argv):
        # Exact mode reads each word's frame trace: within 1e-9, a few ulp
        # of 2^20, of the oracle.
        cfg = base_config(n_qubits=n_qubits)
        if components is not None:
            cfg["components"] = components
        code = cli.main(["gst", *argv, "--config", write_config(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        for row in table(captured.out):
            assert float(row["estimate"]) == pytest.approx(float(row["exact_value"]),
                                                           rel=0, abs=1e-9)

    def test_non_finite_identity_statistic_stays_valid_json(self, monkeypatch, capsys):
        def violate(*args, **kwargs):
            raise IdentityViolationError("Tr{R_w} = nan", statistic=math.nan)

        monkeypatch.setattr(gst, "combination_trace", violate)
        assert cli.main(["gst", "--power", "2", "--strategy", "mc", "--trials", "10"]) == 4
        record = strict_json(capsys.readouterr().err)
        assert (record["error"], record["statistic"]) == ("identity-violation", "nan")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_min_eigenvalue_stays_valid_json(self, monkeypatch, capsys, value):
        def singular(*args, **kwargs):
            raise IllConditionedGramError("Gram is singular", min_eigenvalue=value)

        monkeypatch.setattr(gst, "combination_trace", singular)
        assert cli.main(["gst", "--power", "2", "--strategy", "mc", "--trials", "10"]) == 4
        record = strict_json(capsys.readouterr().err)
        assert (record["error"], record["min_eigenvalue"]) == ("ill-conditioned-gram", str(value))

    def test_unwritable_output_exit_5(self):
        r = run_cli("oracle", "--power", "2", "--out", "/no/such/dir/out.csv")
        assert r.returncode == 5
        assert json.loads(r.stderr)["error"] == "unwritable-output"

    def test_invalid_epsilon_from_flag_exit_2(self):
        r = run_cli("gst", "--power", "2", "--epsilon", "5.0")
        assert r.returncode == 2
        record = json.loads(r.stderr)
        assert (record["error"], record["field"]) == ("schema-violation", "--epsilon")


#: Per ``params`` key: a value for its flag, and the params under which that
#: value changes what the commands that read the key print.
FLAG_VALUES = {
    "seed": (5, {"strategy": "mc", "trials": 100}),
    "trials": (300, {"strategy": "mc", "trials": 100}),
    "shots": (300, {"strategy": "mc", "mode": "shots", "trials": 100, "epsilon_trunc": 0.2}),
    "epsilon_trunc": (0.01, {}),
    # The basis angle moves noisy values only: exact mode reads no tomography.
    "theta_basis": (0.45, {"strategy": "mc", "mode": "gaussian", "trials": 100,
                           "epsilon_trunc": 0.2}),
    "mode": ("shots", {"strategy": "mc", "trials": 100, "epsilon_trunc": 0.2}),
    "strategy": ("mc", {"trials": 100}),
    "ht_sigma": (0.01, {"strategy": "mc", "trials": 100}),
    "gst_sigma": (1e-3, {"strategy": "mc", "mode": "gaussian", "trials": 100,
                         "epsilon_trunc": 0.2}),
    # The shot-noisy Gram of a drawn word falls below the conditioning floor.
    "allow_pseudoinverse": (True, {"strategy": "mc", "mode": "shots", "trials": 200, "seed": 7}),
}

#: Per ``error_budget`` key: a value for its ``bounds`` flag that changes a row.
BUDGET_VALUES = {"d": 3, "epsilon": 0.1, "eps1": 1e-3, "eps2": 1e-3, "delta": 0.1,
                 "n_layers": 5, "shots": 1e4}

SUBCOMMAND_ARGV = {"oracle": ["oracle", "--power", "2"], "ht": ["ht", "--power", "2"],
                   "gst": ["gst", "--power", "2"], "sweep": ["sweep"], "bounds": ["bounds"]}


def flag_cases():
    """(key, argv) for every params row and every subcommand that carries its
    flag; entropy runs once per estimator that reads the key."""
    ht_only = {"ht_sigma"}
    gst_only = {"epsilon_trunc", "theta_basis", "gst_sigma", "allow_pseudoinverse"}
    for key, row in cli._PARAMS.items():
        for command in row.commands:
            if command != "entropy":
                yield pytest.param(key, SUBCOMMAND_ARGV[command], id=f"{command} {row.flag}")
                continue
            for estimator, skip in (("ht", gst_only), ("gst", ht_only)):
                if key not in skip:
                    yield pytest.param(key, ["entropy", "--order", "2", "--estimator", estimator],
                                       id=f"entropy-{estimator} {row.flag}")


class TestFlags:
    def run(self, argv, capsys):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("key, argv", flag_cases())
    def test_flag_sets_its_config_key(self, tmp_path, capsys, key, argv):
        value, params = FLAG_VALUES[key]
        cfg = base_config(sweep=sweep("ht", "shots", [200]))
        cfg["params"].update(params)
        base = write_config(tmp_path, cfg, "base.json")
        flag = [cli._PARAMS[key].flag] + ([] if value is True else [str(value)])
        by_flag = self.run([*argv, *flag, "--config", base], capsys)
        # --shots counts shots per matrix entry wherever GST runs.
        cfg["params"]["gst_shots" if key == "shots" and "gst" in argv else key] = value
        by_key = self.run([*argv, "--config", write_config(tmp_path, cfg)], capsys)
        assert by_flag == by_key
        assert by_flag != self.run([*argv, "--config", base], capsys)

    @pytest.mark.parametrize("key", list(cli._BUDGET))
    def test_bounds_flag_sets_its_budget_key(self, tmp_path, capsys, key):
        value = BUDGET_VALUES[key]
        by_flag = self.run(["bounds", "--" + key.replace("_", "-"), str(value)], capsys)
        path = write_config(tmp_path, base_config(error_budget={key: value}))
        assert by_flag == self.run(["bounds", "--config", path], capsys)
        assert by_flag != self.run(["bounds"], capsys)

    @pytest.mark.parametrize("command, own", [
        ("oracle", {"--power", "--g-power", "--entropy"}),
        ("ht", {"--power"}),
        ("gst", {"--power", "--g-power"}),
        ("entropy", {"--order", "--estimator"}),
        ("sweep", set()),
        ("bounds", {"--d", "--epsilon", "--eps1", "--eps2", "--delta", "--n-layers", "--shots"}),
    ])
    def test_parser_takes_exactly_its_rows_flags(self, command, own):
        (subparsers,) = [action for action in cli._build_parser()._actions
                         if isinstance(action, argparse._SubParsersAction)]
        flags = {flag for action in subparsers.choices[command]._actions
                 for flag in action.option_strings}
        rows = {row.flag for row in cli._PARAMS.values() if command in row.commands}
        common = {"-h", "--help", "--config", "--out", "--format", "--timing"}
        assert flags - common - own == rows


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
        ["entropy", "--order", "2", "--estimator", "ht", "--strategy", "mc", "--mode", "exact",
         "--trials", "2000"],
        ["entropy", "--order", "2", "--estimator", "ht", "--strategy", "mc", "--mode", "shots",
         "--trials", "2000"],
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


#: SHA-256 of the stdout of fixed commands, one test per command.  A change
#: that moves any RNG draw of the HT chunk layout, the shot path or the sigma
#: path, the float order of HT or GST enumeration (with and without
#: truncation, and at a non-default basis angle), the word whose value an
#: exact GST Monte Carlo draw takes (its own, once per distinct word), the
#: GST Monte Carlo chunk streams, or the float order of the per-chunk M2 and
#: its merge (``series.mc_estimate``) changes these bytes.  Each GST Monte
#: Carlo command draws several ``gst._WORD_CHUNK`` chunks per power, the
#: last one partial.  The ``entropy``, ``oracle``, ``sweep`` and ``bounds``
#: commands pin those runners and how their flags and config keys reach them,
#: with each ``entropy`` estimator and the ``gst`` command's ``shots`` column
#: and its two child-seed series (rho powers and G powers) in one run.  The last two
#: ``ht``/``entropy`` pins add HT entropy under sigma noise and multi-shot
#: binomials, where a one-ulp P(0) change at 0 or 1 shifts the rest of the
#: shot stream.  Acceptance criterion 10 reads the two ``--format json``
#: commands.
BYTE_PINS = {
    "ht --power 2-4 --strategy mc --mode shots --trials 30000 --seed 7":
        "a5dd1411aed4937e75ba729bc3482f7de030af648b5c255926bd84e873c9490e",
    "ht --power 2-4 --strategy mc --mode exact --ht-sigma 0.01 --trials 30000 --seed 7":
        "25a4677326ec78c61fcfafe0ede986dd48f4e52cb83763219fbe1c567a17ffdc",
    "ht --power 2-6":
        "401e90304e413569a461d2737c22f01fd46dd7d125323ce714ab59e16e0767d2",
    "ht --power 2 --strategy mc --mode shots --trials 30000 --seed 7 --format json":
        "3d15d7519882513c44e1fd2b5cdd5979c0c051147df7b7c7996bdf936862d9c2",
    "gst --power 2 --strategy mc --trials 120 --epsilon 1e-3 --seed 7 --format json":
        "cab59fe7183b86b741c25974f49dbe6dd1454856cf0824766b6162bc95ebe368",
    "gst --g-power 1-3 --strategy mc --mode shots --trials 200 --seed 7 --pinv":
        "607217f01102f01d2b8d52cdbcc35a9db55536e0d9f732f4c891e13bd4cf2493",
    "gst --g-power 1-3 --strategy mc --mode gaussian --trials 200 --seed 7 --pinv":
        "6ebbd196f6cd37b0d8e68f45416f2a4141be8a6f6e99aa1f5a4b3a4eba0b6b6c",
    "gst --power 2-4 --pinv":
        "08629ad9433011c77db5596244622e379947a2e130f30352356c9b36c0b716e2",
    "gst --g-power 6":
        "4e49965068766a1fa64e548a72bcc23f063cdd9a5988c8726e9fe2febe3bf92e",
    "gst --g-power 2-4 --epsilon 1e-3":
        "ae2ebd095cdbbd81aadabc2b7274da560ba0606e5b7d8d84fba8607285d7efde",
    "gst --g-power 2-3 --strategy mc --trials 1100 --seed 13":
        "e6257685b08c9fb0cb2882ace68af262fbd29adf51f950d6991f6bf5026fb85c",
    "gst --g-power 2-3 --strategy mc --mode shots --trials 600 --seed 13 --pinv":
        "999c1a77f66fb0ddd38cd3b4fa3cfaa85adce24a6fef87a05ce69c8e5b97e540",
    "gst --g-power 2-3 --strategy mc --mode gaussian --trials 600 --seed 13 --pinv":
        "31fa68a4c609e6c35735bbcde656497089507eb2f29cd7426033a193a3fa3712",
    "gst --g-power 2-4 --theta 0.3":
        "2bdf16cc5293d4e450368d1a890575efc41b81e812bb7af9f147f3495fb0e039",
    "gst --g-power 3 --strategy mc --trials 500 --epsilon 1e-2 --seed 4":
        "85919aa7196ce9588d753df6b2fe12b0390a33f3e1d797b7946a1b9a4bd352c0",
    "entropy --order 2-8 --estimator ht":
        "f8fa55b5e4b3e4898e0120943aa1439c4ed9cc533d56c17806c8292d89fb4bb9",
    "entropy --order 2-12 --estimator ht --strategy mc --seed 7":
        "ae81746df9ce4e218ee76815aadd795e46772619944fbe724bc0552792837661",
    "entropy --order 2-6 --estimator gst":
        "2f4d56b16ee280bca2f1e1b324d5f60c10588b83595c2dc42230b781a6834ed5",
    "entropy --order 2-4 --estimator gst --strategy mc --mode gaussian --trials 300 "
    "--epsilon 1e-3 --seed 5":
        "c748e12bfde210b5e91477cefac62f42856657a5b60771a8b3032f07fd12bc66",
    "entropy --order 2-4 --estimator ht --strategy mc --mode shots --trials 2000 --seed 3":
        "9b8bfff58a7597dd618d40bfba454e3b0c6c72f92d2b257c6bce609cd48d4f3a",
    "entropy --order 2-8 --estimator oracle":
        "0812052e29c6680115bcfc4d95dc291e30ddf9185b296f035d398a6aaa868877",
    "gst --power 2 --g-power 2-3 --strategy mc --trials 200 --seed 5":
        "a14325bdc73fae391c4f231732ac8140f2683037e05d05023eba493a909ce214",
    "gst --power 2 --strategy mc --mode shots --trials 100 --seed 3 --pinv":
        "824e7a5a5a794f6756eff4f33b08f902d2d237ac4ecc35b6eaa50e4be98f1f2b",
    "entropy --order 2-6 --estimator ht --strategy mc --mode exact --ht-sigma 0.02 "
    "--trials 20000 --seed 11":
        "34ff153e086fcfee7496946c9f64f5c691685d91aed93a69d28187ce5be940dc",
    "ht --power 2-5 --strategy mc --mode shots --shots 5 --trials 20000 --seed 11":
        "f0e3754d2ceda1faae2faf959277da858cbaf4fca15385204c5e95d0860896d0",
    "oracle --power 2-4 --g-power 0-3 --entropy":
        "6e9e69add728e8170d238aeb8016d2000bf6e6c8be46d613d790961d36776eae",
    "sweep --config {sweep}":
        "72a8ef16929db99395daea2994128980b9520bdf1868d731625eb55b68cdf68d",
    "bounds --d 3 --eps1 1e-3 --epsilon 0.1":
        "4e85115fbed27233730a5ce84f39ce897477995a350fdf5ee18adc603354ad64",
}

#: SHA-256 of the stdout of ``--golden``.
GOLDEN_SHA256 = "d3c1aad5383056e829c86725c99fda7d0350da2cbb7ceb9ff9dfa746d31c71b4"

#: The sweep section of the config that the ``sweep`` pin reads as ``{sweep}``.
PIN_SWEEP = sweep("ht", "shots", [5000, 20000])

#: Exit-4 commands and their stderr record: a noisy Gram below the
#: conditioning floor, with its min eigenvalue to the last digit, and a
#: subspace key whose augmentation state cannot be built, on the config
#: ``{one_qubit}``: ``table1`` on one qubit, where two distinct states span
#: the whole space.
ERROR_PINS = {
    "gst --g-power 1-3 --strategy mc --mode shots --trials 200 --seed 7":
        '{"error": "ill-conditioned-gram", "message": "Gram matrix min eigenvalue -1.285e-03 '
        'is below the conditioning floor 1.000e-08", "min_eigenvalue": -0.0012847012714546774}\n',
    "gst --g-power 1-3 --strategy mc --mode gaussian --trials 200 --seed 7":
        '{"error": "ill-conditioned-gram", "message": "Gram matrix min eigenvalue -1.693e-05 '
        'is below the conditioning floor 1.000e-08", "min_eigenvalue": -1.6929712532255244e-05}\n',
    "gst --g-power 1-3 --config {one_qubit}":
        '{"error": "degenerate-augmentation", "message": "the 2 circuit states span the whole '
        '2-dimensional space; no independent augmentation state exists"}\n',
    "gst --g-power 1-3 --strategy mc --mode shots --trials 200 --seed 7 --config {one_qubit}":
        '{"error": "degenerate-augmentation", "message": "the 2 circuit states span the whole '
        '2-dimensional space; no independent augmentation state exists"}\n',
}


class TestDeterminism:
    @pytest.mark.parametrize("command", BYTE_PINS)
    def test_commands_match_byte_pins(self, tmp_path, capsys, command):
        path = write_config(tmp_path, base_config(sweep=PIN_SWEEP))
        assert cli.main(command.replace("{sweep}", path).split()) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == BYTE_PINS[command], (command, out)

    @pytest.mark.parametrize("command", ERROR_PINS)
    def test_failing_commands_match_error_pins(self, tmp_path, capsys, command):
        path = write_config(tmp_path, base_config(n_qubits=1))
        assert cli.main(command.replace("{one_qubit}", path).split()) == 4
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", ERROR_PINS[command]), command

    def test_exact_mode_ignores_pinv(self, capsys):
        # --pinv acts on the noisy modes' Gram solves; exact mode solves none.
        assert cli.main(["gst", "--power", "2-4"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == BYTE_PINS["gst --power 2-4 --pinv"]

    def test_same_seed_same_bytes(self, tmp_path):
        paths = []
        for i in range(2):
            path = tmp_path / f"run{i}.csv"
            r = run_cli("gst", "--power", "2", "--strategy", "mc", "--trials", "150",
                        "--seed", "99", "--out", str(path))
            assert r.returncode == 0, r.stderr
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_seeds_above_2_53_stay_exact(self, capsys):
        # 2^53 + 1 has no float of its own; a seed sent through float would
        # run and print as 2^53.
        cells = []
        for seed in ("9007199254740993", "9007199254740992"):
            assert cli.main(["ht", "--power", "2", "--strategy", "mc", "--trials", "200",
                             "--seed", seed]) == 0
            cells.append(table(capsys.readouterr().out)[0]["seed"])
        assert cells == ["9007199254740993", "9007199254740992"]

    def test_integral_float_seed_in_config(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(params={"seed": 7.0}))
        assert cli.main(["oracle", "--power", "2", "--config", path]) == 0
        assert table(capsys.readouterr().out)[0]["seed"] == "7"

    def test_different_seeds_differ(self, tmp_path):
        outs = []
        for seed in ("1", "2"):
            path = tmp_path / f"s{seed}.csv"
            r = run_cli("ht", "--power", "2", "--strategy", "mc", "--mode", "shots",
                        "--trials", "5000", "--seed", seed, "--out", str(path))
            assert r.returncode == 0
            outs.append(path.read_bytes())
        assert outs[0] != outs[1]
