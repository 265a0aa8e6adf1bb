"""Scenario runner: schema, validation diagnostics, exit codes, reports.

Subprocess tests drive `python -m gerbetool.cli` end to end; report
determinism is checked byte for byte after masking the runtime_ms fields,
which are the only nondeterministic bytes by design.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gerbetool import cli
from gerbetool.cli import (
    COMMANDS,
    emit_schema,
    render_report,
    run_scenario,
    validate_scenario,
)
from gerbetool.errors import ConfigError, RangeError
from gerbetool.spectral import Spectrum

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "gerbetool.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def mask_runtimes(text):
    return re.sub(r'"runtime_ms": [0-9.]+', '"runtime_ms": 0', text)


class TestSchema:
    def test_every_command_is_described(self):
        schema = emit_schema()
        assert sorted(schema["commands"]) == sorted(COMMANDS)
        assert schema["scenario"]["command"] == list(COMMANDS)

    def test_schema_subcommand_prints_json(self):
        proc = run_cli("schema")
        assert proc.returncode == 0
        parsed = json.loads(proc.stdout)
        assert set(parsed) == {"commands", "scenario"}


class TestValidation:
    def test_shipped_configs_validate(self):
        configs = sorted(CONFIG_DIR.glob("*.json"))
        assert len(configs) == 8
        for path in configs:
            obj = json.loads(path.read_text())
            command, params, seed, _ = validate_scenario(obj)
            assert command == obj["command"]
            assert seed == obj.get("seed", 0)
            assert set(params) == set(obj.get("params", {})) | set(params)

    def test_unknown_scenario_key(self):
        with pytest.raises(ConfigError, match="unknown key 'mode' in scenario"):
            validate_scenario({"command": "spectrum", "mode": "fast"})

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="unknown command 'instanton'"):
            validate_scenario({"command": "instanton"})

    def test_unknown_param_key_names_the_command(self):
        with pytest.raises(
            ConfigError, match="unknown key 'n_min' in params for command 'spectrum'"
        ):
            validate_scenario({"command": "spectrum", "params": {"n_min": 2}})

    def test_type_mismatch_names_the_key(self):
        with pytest.raises(ConfigError, match="key 'n_max' .* must be an integer"):
            validate_scenario({"command": "spectrum", "params": {"n_max": "six"}})

    def test_boolean_is_not_an_integer(self):
        with pytest.raises(ConfigError, match="must be an integer"):
            validate_scenario({"command": "spectrum", "params": {"n_max": True}})

    def test_bad_rational_cut(self):
        with pytest.raises(ConfigError, match="not a rational"):
            validate_scenario({"command": "fock", "params": {"cut": "half"}})

    def test_bad_suite_value(self):
        with pytest.raises(ConfigError, match="'trivial' or 'standard'"):
            validate_scenario({"command": "cocycle", "params": {"suite": "exotic"}})

    def test_bad_preset_value(self):
        with pytest.raises(ConfigError, match="must be one of"):
            validate_scenario({"command": "caloron", "params": {"preset": "nahm"}})

    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, -math.inf, 10**400],
        ids=["nan", "inf", "-inf", "huge-int"],
    )
    def test_non_finite_number_rejected(self, value):
        with pytest.raises(ConfigError, match="'amplitude' .* must be a finite number"):
            validate_scenario({"command": "caloron", "params": {"amplitude": value}})

    def test_non_finite_list_entry_rejected(self):
        with pytest.raises(ConfigError, match="'phases' .* must be a finite number"):
            validate_scenario(
                {"command": "spectrum", "params": {"phases": [0.15, math.nan]}}
            )

    def test_bad_seed(self):
        with pytest.raises(ConfigError, match="'seed' must be an integer"):
            validate_scenario({"command": "spectrum", "seed": 1.5})

    def test_command_mismatch_with_subcommand(self):
        with pytest.raises(ConfigError, match="does not match subcommand"):
            validate_scenario({"command": "cover"}, cli_command="spectrum")

    @pytest.mark.parametrize(
        "params, match",
        [
            ({"n_colors": 1}, "key 'n_colors' .* must be >= 2"),
            ({"pair_cap": 0}, "key 'pair_cap' .* must be >= 1"),
            ({"mu": "15/2"}, "band .* exits the window"),
            ({"sweep": 0, "n_max": 1}, "too small for margin 1 "),
            ({"cut": "-11/2"}, "too small for margin 4 "),
        ],
        ids=["one-color", "pair-cap", "mu-band", "sweep-0", "low-cut"],
    )
    def test_fock_cross_field_rules(self, params, match):
        with pytest.raises(ConfigError, match=match):
            validate_scenario({"command": "fock", "params": params})

    def test_fock_cost_model_admits_three_colors(self):
        _, params, _, _ = validate_scenario(
            {"command": "fock", "params": {"n_colors": 3, "n_max": 8}}
        )
        assert params["n_colors"] == 3

    def test_benchmark_spectral_params_validate(self):
        # the cocycle-dense workload's sizes
        for command, params in (
            ("cocycle", {"suite": "standard", "n_max": 8}),
            ("moduli", {"flow_steps": 2000, "conjugations": 400, "n_max": 8}),
        ):
            assert validate_scenario({"command": command, "params": params})[1] == {
                **cli._PARAM_SCHEMAS[command],
                **params,
            }

    @pytest.mark.parametrize(
        "command, params",
        [
            ("spectrum", {"n_max": 1}),
            ("cover", {"n_max": 3, "denominator_cap": 2}),
            ("cocycle", {"n_max": 3}),
            ("moduli", {"flow_steps": 5, "conjugations": 1, "n_max": 1}),
        ],
        ids=["spectrum", "cover", "cocycle", "moduli"],
    )
    def test_smallest_spectral_configs_pass(self, command, params):
        _, params, seed, _ = validate_scenario({"command": command, "params": params})
        assert run_scenario(command, params, seed)["status"] == "pass"

    def test_defaults_fill_missing_params(self):
        _, params, seed, out = validate_scenario({"command": "spectrum"})
        assert params == {"n_max": 6, "phases": [0.15, 0.55]}
        assert seed == 0 and out is None


class TestReports:
    def test_spectrum_battery_passes(self):
        _, params, seed, _ = validate_scenario({"command": "spectrum"})
        report = run_scenario("spectrum", params, seed)
        assert report["status"] == "pass"
        assert report["checks"]
        assert all(r["status"] == "pass" for r in report["checks"])
        for rec in report["checks"]:
            assert set(rec) == {"name", "residual", "runtime_ms", "status", "tolerance"}

    def test_report_is_canonically_ordered_json(self):
        _, params, seed, _ = validate_scenario({"command": "cover"})
        report = run_scenario("cover", params, seed)
        text = render_report(report)
        parsed = json.loads(text)
        assert parsed == json.loads(json.dumps(report))
        assert list(parsed) == sorted(parsed)

    def test_config_hash_depends_on_params(self):
        _, params, seed, _ = validate_scenario({"command": "spectrum"})
        base = run_scenario("spectrum", params, seed)["config_sha256"]
        reseeded = run_scenario("spectrum", params, seed + 1)["config_sha256"]
        assert base != reseeded and len(base) == 64

    def test_nan_convergence_order_fails(self, monkeypatch):
        # max(0.0, 1.9 - nan) is 0.0, so a NaN order must not reach a max()
        monkeypatch.setattr(
            cli, "ms_identity_check", lambda conn, refine_factor: (0.0, math.nan)
        )
        _, params, seed, _ = validate_scenario(
            {"command": "caloron", "params": {"theta_points": 8, "base_points": 8}}
        )
        report = run_scenario("caloron", params, seed)
        (record,) = [r for r in report["checks"] if r["name"] == "ms-identity-order"]
        assert record["status"] == "fail"
        assert report["status"] == "fail"


    def test_any_raised_exception_is_a_named_fail(self, capsys):
        # refine_factor 1 divides by log(1) in the order estimate; the
        # schema forbids it, so the battery is run past validate_scenario
        _, params, seed, _ = validate_scenario(
            {"command": "caloron", "params": {"theta_points": 8, "base_points": 8}}
        )
        report = run_scenario("caloron", {**params, "refine_factor": 1}, seed)
        (record,) = [r for r in report["checks"] if r["name"] == "ms-identity-order"]
        assert record["status"] == "fail" and record["residual"] == 1e300
        assert report["status"] == "fail"
        err = capsys.readouterr().err
        assert "check 'ms-identity-order' raised ZeroDivisionError" in err

    def test_zero_winding_scales_by_absolute_error(self):
        # the model value -2 w1 w2 is 0, so a relative error divided by
        # roundoff (it read 4.2 on this grid)
        small = {"w1": 0, "base_points": 8, "ghost_margin": 2}
        _, params, seed, _ = validate_scenario({"command": "pairing", "params": small})
        report = run_scenario("pairing", params, seed)
        (record,) = [r for r in report["checks"] if r["name"] == "adjoint-scaling"]
        assert record["status"] == "pass" and record["residual"] <= 1e-12

    @pytest.mark.parametrize(
        "command, params, name, check",
        [
            ("fock", {"n_max": 4, "sweep": 1}, "commutator-sweep", "commutator_check"),
            ("fock", {"n_max": 4, "sweep": 1}, "projective-exponential",
             "projective_equality_check"),
            ("cocycle", {"suite": "trivial"}, "delta-triviality-u1-trivial",
             "delta_triviality"),
        ],
        ids=["commutator-sweep", "projective", "cocycle-worst"],
    )
    def test_nan_term_fails_its_accumulator(
        self, monkeypatch, command, params, name, check
    ):
        # one NaN among finite terms: max(acc, nan) would keep acc and pass
        real = getattr(cli, check)
        calls = []

        def first_nan(*args, **kwargs):
            value = real(*args, **kwargs)
            calls.append(value)
            if len(calls) != 1:
                return value
            return (math.nan, *value[1:]) if isinstance(value, tuple) else math.nan

        monkeypatch.setattr(cli, check, first_nan)
        _, params, seed, _ = validate_scenario({"command": command, "params": params})
        report = run_scenario(command, params, seed)
        (record,) = [r for r in report["checks"] if r["name"] == name]
        assert len(calls) > 1
        assert record["status"] == "fail"

    def test_only_a_cover_violation_counts_as_rejection(self, monkeypatch):
        # a RangeError (cut outside the window) is not the rejection tested
        def out_of_window(*args, **kwargs):
            raise RangeError("cut 2 outside the certified window (-2, 2)")

        monkeypatch.setattr(cli, "CechTriple", out_of_window)
        _, params, seed, _ = validate_scenario({"command": "cover"})
        report = run_scenario("cover", params, seed)
        (record,) = [r for r in report["checks"] if r["name"] == "triple-rejects-spectrum-cut"]
        assert record["status"] == "fail" and record["residual"] == 1e300

    @pytest.mark.parametrize("command", ["cover", "cocycle"])
    def test_cover_tests_build_no_eigenvalue_array(self, monkeypatch, command):
        # in_cover and band bisect the spectrum's cached eigenvalues; an
        # array rebuilt on every call was once the layer's largest cost
        def forbidden(self):
            raise AssertionError("Spectrum.eigenvalues() on the cover hot path")

        monkeypatch.setattr(Spectrum, "eigenvalues", forbidden)
        _, params, seed, _ = validate_scenario({"command": command})
        report = run_scenario(command, params, seed)
        assert [r["name"] for r in report["checks"] if r["status"] != "pass"] == []


class TestExitCodes:
    def test_passing_battery_exits_zero(self, tmp_path):
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({"command": "spectrum", "seed": 7}))
        proc = run_cli("spectrum", "--config", str(cfg))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["status"] == "pass"

    def test_missing_config_exits_two(self):
        proc = run_cli("spectrum", "--config", "/nonexistent/scenario.json")
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error:")
        assert proc.stdout == ""

    def test_nan_config_exits_two(self, tmp_path):
        # json.load accepts the NaN token, so the schema has to reject it
        cfg = tmp_path / "nan.json"
        cfg.write_text(
            '{"command": "caloron", "params": {"amplitude": NaN, "base_points": 8}}'
        )
        proc = run_cli("caloron", "--config", str(cfg))
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error:")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "params, match",
        [
            ({"n_max": -1}, "window size N must be >= 1"),
            ({"n_colors": 0}, "key 'n_colors' .* must be >= 2"),
            ({"cut": "1"}, "cut must be non-integer"),
            ({"n_max": 3}, "N=3 too small for margin 4 "),
            ({"n_max": 4}, "N=4 too small for margin 4 "),
            ({"mu": "1/4"}, "target cut 1/4 must exceed the window cut"),
            ({"sweep": -1}, "key 'sweep' .* must be >= 0"),
            ({"pair_cap": 9}, "exceeds the cap of 50000"),
        ],
        ids=["n_max", "n_colors", "cut", "n_max-3", "n_max-4", "mu", "sweep", "pair_cap"],
    )
    def test_meaningless_fock_config_exits_two(self, tmp_path, params, match):
        # each passes the types but left a check without a meaningful verdict
        cfg = tmp_path / "fock.json"
        cfg.write_text(json.dumps({"command": "fock", "params": params}))
        proc = run_cli("fock", "--config", str(cfg))
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error:")
        assert re.search(match, proc.stderr)
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "command, params, match",
        [
            ("caloron", {"theta_points": 4}, "need at least 8 circle points"),
            ("caloron", {"refine_factor": 1}, "key 'refine_factor' .* must be >= 2"),
            ("caloron", {"base_points": 2}, "at least 5 base points"),
            ("caloron", {"base_points": 400}, "over the cap of"),
            ("caloron", {"base_points": 24}, "5308416 complex entries .* over the cap"),
            ("pairing", {"ghost_margin": 0}, "below the stencil half-width 2"),
            ("pairing", {"theta_points": 4}, "need at least 8 circle points"),
            ("pairing", {"base_points": 4}, "at least 5 base points"),
        ],
        ids=[
            "caloron-theta",
            "refine-factor",
            "caloron-base",
            "caloron-cost",
            "fine-grid-cost",
            "ghost-margin",
            "pairing-theta",
            "pairing-base",
        ],
    )
    def test_meaningless_grid_config_exits_two(self, tmp_path, command, params, match):
        # each passed the types but left a traceback, a memory error or a
        # verdict without meaning (base_points 2 read an order of 53.9)
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"command": command, "params": params}))
        proc = run_cli(command, "--config", str(cfg))
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error:")
        assert re.search(match, proc.stderr)
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "command, params, match",
        [
            ("spectrum", {"n_max": 0}, "cut 1/2 outside the certified window"),
            ("cover", {"n_max": 1}, "key 'n_max' .* must be >= 3"),
            ("cover", {"denominator_cap": 1}, "key 'denominator_cap' .* must be >= 2"),
            ("cocycle", {"n_max": 2}, "key 'n_max' .* must be >= 3"),
            ("cocycle", {"tolerance": -1.0}, "key 'tolerance' .* must be >= 0"),
            ("moduli", {"conjugations": -1}, "key 'conjugations' .* must be >= 1"),
            ("moduli", {"n_max": 0}, "cut 1/2 outside the certified window"),
            ("moduli", {"flow_steps": 4}, "key 'flow_steps' .* must be >= 5"),
        ],
        ids=[
            "spectrum-n_max",
            "cover-n_max",
            "cover-denominator",
            "cocycle-n_max",
            "cocycle-tolerance",
            "moduli-conjugations",
            "moduli-n_max",
            "moduli-flow-steps",
        ],
    )
    def test_meaningless_spectral_config_exits_two(self, tmp_path, command, params, match):
        # each left a traceback, a raised fail or a vacuous pass (zero
        # triples, zero conjugations, no non-integer cut)
        cfg = tmp_path / "spectral.json"
        cfg.write_text(json.dumps({"command": command, "params": params}))
        proc = run_cli(command, "--config", str(cfg))
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error:")
        assert re.search(match, proc.stderr)
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    def test_malformed_json_exits_two(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        proc = run_cli("spectrum", "--config", str(cfg))
        assert proc.returncode == 2
        assert "not valid JSON" in proc.stderr

    def test_subcommand_mismatch_exits_two(self, tmp_path):
        cfg = tmp_path / "cover.json"
        cfg.write_text(json.dumps({"command": "cover"}))
        proc = run_cli("spectrum", "--config", str(cfg))
        assert proc.returncode == 2
        assert "does not match subcommand" in proc.stderr

    def test_raised_check_exits_one_with_sentinel(self, tmp_path, monkeypatch, capsys):
        # a 3-step flow path is too coarse to track and must raise inside
        # the battery, which reports the failure instead of crashing; the
        # schema refuses flow_steps < 5, so the coarse path is planted
        real = cli.holonomy_path
        monkeypatch.setattr(cli, "holonomy_path", lambda name, steps: real(name, 3))
        cfg = tmp_path / "m.json"
        cfg.write_text(
            json.dumps({"command": "moduli", "params": {"flow_steps": 5}, "seed": 7})
        )
        code = cli.main(["moduli", "--config", str(cfg)])
        proc = capsys.readouterr()
        assert code == 1
        assert "raised" in proc.err
        report = json.loads(proc.out)
        assert report["status"] == "fail"
        raised = [r for r in report["checks"] if r["residual"] == 1e300]
        assert raised and all(r["status"] == "fail" for r in raised)

    def test_seed_flag_overrides_scenario(self, tmp_path):
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({"command": "spectrum", "seed": 7}))
        with_flag = run_cli("spectrum", "--config", str(cfg), "--seed", "9")
        plain = run_cli("spectrum", "--config", str(cfg))
        assert with_flag.returncode == plain.returncode == 0
        assert json.loads(with_flag.stdout)["seed"] == 9
        assert json.loads(plain.stdout)["seed"] == 7


class TestDeterminism:
    def test_reports_are_byte_stable_modulo_runtimes(self, tmp_path):
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({"command": "spectrum", "seed": 7}))
        first = run_cli("spectrum", "--config", str(cfg))
        second = run_cli("spectrum", "--config", str(cfg))
        assert first.returncode == second.returncode == 0
        assert mask_runtimes(first.stdout) == mask_runtimes(second.stdout)

    def test_out_file_matches_stdout(self, tmp_path):
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({"command": "cover", "seed": 7}))
        out = tmp_path / "report.json"
        proc = run_cli("cover", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0
        assert out.read_text() == proc.stdout
