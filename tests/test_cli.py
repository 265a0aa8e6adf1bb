"""Scenario runner: schema, validation diagnostics, exit codes, reports.

Subprocess tests drive `python -m gerbetool.cli` end to end; report
determinism is checked byte for byte after masking the runtime_ms fields,
which are the only nondeterministic bytes by design.
"""

import collections
import json
import math
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gerbetool import caloron, cli, detline, fock, moduli
from gerbetool.cli import (
    COMMANDS,
    emit_schema,
    render_report,
    run_scenario,
    validate_scenario,
)
from gerbetool.errors import ConfigError, RangeError
from gerbetool.detline import DetLine
from gerbetool.presets import HOLONOMY_SUITES, diagonal_holonomy
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

    def test_param_keys_of_every_command(self):
        # adding or removing a knob must edit this table
        keys = {name: set(cmd["params"]) for name, cmd in emit_schema()["commands"].items()}
        assert keys == {
            "spectrum": {"n_max", "phases"},
            "cover": {"n_max", "denominator_cap"},
            "cocycle": {"n_max", "suite"},
            "fock": {"n_colors", "n_max", "cut", "mu", "sweep", "pair_cap"},
            "caloron": {"theta_points", "base_points", "refine_factor"},
            "moduli": {"conjugations", "flow_steps", "n_max"},
            "pairing": {"modulation", "theta_points", "base_points"},
            "all": set(),
        }

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

    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, -math.inf, 10**400],
        ids=["nan", "inf", "-inf", "huge-int"],
    )
    def test_non_finite_number_rejected(self, value):
        with pytest.raises(ConfigError, match="'modulation' .* must be a finite number"):
            validate_scenario({"command": "pairing", "params": {"modulation": value}})

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

    def test_fock_basis_cost_is_checked_before_the_band_is_listed(self, monkeypatch):
        # n_max 10**8 would list ten million band modes before the window's
        # 400 000 002 slots were refused
        monkeypatch.setattr(cli, "_transport_modes", lambda window, mu: pytest.fail("listed the band"))
        with pytest.raises(ConfigError, match="400000002 slots exceed"):
            validate_scenario({"command": "fock", "params": {"n_max": 10**8, "mu": "20000001/2"}})

    def test_fock_cost_model_admits_three_colors(self):
        _, params, _, _ = validate_scenario(
            {"command": "fock", "params": {"n_colors": 3, "n_max": 8}}
        )
        assert params["n_colors"] == 3

    def test_phase_count_is_refused_before_any_holonomy(self, monkeypatch):
        monkeypatch.setattr(
            cli, "diagonal_holonomy", lambda phases: pytest.fail("built a holonomy")
        )
        phases = [0.15] * (cli.MAX_PHASES + 1)
        with pytest.raises(ConfigError, match=f"{len(phases)} phases, over the cap"):
            validate_scenario({"command": "spectrum", "params": {"phases": phases}})

    def test_benchmark_spectral_params_validate(self):
        # the cocycle-dense workload's sizes
        for command, params in (
            ("cocycle", {"suite": "standard", "n_max": 8}),
            ("moduli", {"flow_steps": 2000, "conjugations": 400, "n_max": 8}),
        ):
            assert validate_scenario({"command": command, "params": params})[1] == {
                **cli.COMMANDS[command].defaults,
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

    @pytest.mark.parametrize(
        "command, params",
        [
            ("cocycle", {"n_max": 12}),
            ("pairing", {"modulation": 1e6}),
            ("pairing", {"modulation": -1e6}),
            ("caloron", {"theta_points": 8}),
        ],
        ids=["cocycle-cost", "modulation-top", "modulation-bottom", "theta-floor"],
    )
    def test_admitted_edges_validate(self, command, params):
        assert validate_scenario({"command": command, "params": params})[1] == {
            **cli.COMMANDS[command].defaults,
            **params,
        }

    def test_smallest_caloron_grid_passes(self):
        _, params, seed, _ = validate_scenario(
            {"command": "caloron", "params": {"theta_points": 8, "base_points": 8}}
        )
        report = run_scenario("caloron", params, seed)
        assert report["status"] == "pass"

    def test_validation_builds_nothing_a_check_builds(self, monkeypatch):
        # validation builds each battery and drops its rows, so no sample,
        # curvature pass, Fock basis or matrix, Cech table or holonomy path
        # may be built before a check asks for it
        called = []

        def spy(name):
            return lambda *args, **kwargs: called.append(name)

        for module in (caloron, cli, detline, fock, moduli):
            for name in (
                "sample_connection", "CurvaturePass", "pontryagin_densities",
                "graded_basis", "CechTable", "holonomy_path",
                "generic_genus2_su2", "random_special_unitary",
            ):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, spy(name))
        monkeypatch.setattr(fock.SparseOperator, "matrix", spy("SparseOperator.matrix"))
        scenarios = [{"command": command} for command in COMMANDS]
        scenarios += [json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))]
        for scenario in scenarios:
            validate_scenario(scenario)
        assert called == []

    def test_defaults_fill_missing_params(self):
        _, params, seed, out = validate_scenario({"command": "spectrum"})
        assert params == {"n_max": 6, "phases": [0.15, 0.55]}
        assert seed == 0 and out is None


def nan_in_first_batch(monkeypatch):
    """A NaN amplitude in the sum of commutator_check's first batch; returns the batches seen."""
    real = fock._batch_parts
    batches = []

    def poisoned(block, batch):
        parts = real(block, batch)
        batches.append(len(batch))
        if len(batches) == 1:
            masks, cols, _ = block
            parts = parts + [(masks[:1], cols[:1], np.array([math.nan]))]
        return parts

    monkeypatch.setattr(fock, "_batch_parts", poisoned)
    return batches


def nan_widest_phase(monkeypatch):
    """A NaN phase in the first CechTable the CLI builds; returns the tables built."""
    real = cli.CechTable
    tables = []

    def poisoned(*args, **kwargs):
        table = real(*args, **kwargs)
        tables.append(table)
        if len(tables) == 1:
            # the line over the outermost cuts is the ratio's divisor in the
            # triples (0, j, m - 1) only, none of them the first
            table.phases[0, -1] = math.nan
        return table

    monkeypatch.setattr(cli, "CechTable", poisoned)
    return tables


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

    def test_all_builds_each_battery_after_the_last_has_run(self, monkeypatch):
        # one battery's samples are held at a time: the all battery builds
        # the next command's battery only when every row before it has run
        events = []

        def logged(command, battery):
            def build(params, seed):
                events.append(("build", command))
                return [
                    (name, tolerance, lambda thunk=thunk: events.append(("run", command)) or thunk())
                    for name, tolerance, thunk in battery(params, seed)
                ]

            return build

        commands = [command for command in COMMANDS if command != "all"]
        for command in commands:
            decl = COMMANDS[command]
            monkeypatch.setitem(COMMANDS, command, decl._replace(battery=logged(command, decl.battery)))
        report = run_scenario("all", {}, 0)
        assert report["status"] == "pass"
        expected = []
        for command in commands:
            checks = [r for r in report["checks"] if r["name"].startswith(f"{command}:")]
            expected += [("build", command)] + [("run", command)] * len(checks)
        assert events == expected

    def test_config_hash_depends_on_params(self):
        _, params, seed, _ = validate_scenario({"command": "spectrum"})
        base = run_scenario("spectrum", params, seed)["config_sha256"]
        reseeded = run_scenario("spectrum", params, seed + 1)["config_sha256"]
        assert base != reseeded and len(base) == 64

    def test_nan_convergence_order_fails(self, monkeypatch):
        # max(0.0, 1.9 - nan) is 0.0, so a NaN order must not reach a max()
        monkeypatch.setattr(
            cli.CurvaturePass, "identity_check", lambda self, refine_factor: (0.0, math.nan)
        )
        _, params, seed, _ = validate_scenario(
            {"command": "caloron", "params": {"theta_points": 9, "base_points": 8}}
        )
        report = run_scenario("caloron", params, seed)
        (record,) = [r for r in report["checks"] if r["name"] == "ms-identity-order"]
        assert record["status"] == "fail"
        assert report["status"] == "fail"

    def test_negative_residual_fails(self):
        # a residual is a size, so a sign slip in a two-term residual such as
        # cut-shift's residual + |n_shift - expected| (turned to -) must fail
        # where it lands below zero; -0.0 is zero and passes
        records = cli._run_checks(
            [
                ("negative", 0.0, lambda: -1.0),
                ("negative-under-tolerance", 1e-10, lambda: -1e-12),
                ("nan", 0.0, lambda: math.nan),
                ("negative-zero", 0.0, lambda: -0.0),
                ("zero", 0.0, lambda: 0.0),
            ]
        )
        status = {r["name"]: r["status"] for r in records}
        assert status == {
            "negative": "fail",
            "negative-under-tolerance": "fail",
            "nan": "fail",
            "negative-zero": "pass",
            "zero": "pass",
        }
        assert [r["residual"] for r in records][:2] == [-1.0, -1e-12]


    def test_any_raised_exception_is_a_named_fail(self, capsys):
        # identity_check refuses refine_factor 1, which divided by log(1) in
        # the order estimate; the schema forbids it, so the battery is run
        # past validate_scenario
        _, params, seed, _ = validate_scenario(
            {"command": "caloron", "params": {"theta_points": 9, "base_points": 8}}
        )
        report = run_scenario("caloron", {**params, "refine_factor": 1}, seed)
        (record,) = [r for r in report["checks"] if r["name"] == "ms-identity-order"]
        assert record["status"] == "fail" and record["residual"] == 1e300
        assert report["status"] == "fail"
        err = capsys.readouterr().err
        assert "check 'ms-identity-order' raised ArgumentError: refine factor" in err

    @staticmethod
    def projective_on_the_battery_window(t):
        # the fock battery's projective check, at any time t
        d = COMMANDS["fock"].defaults
        window = fock.FockWindow(d["n_colors"], d["n_max"], d["cut"])
        return fock.projective_equality_check(
            cli._NUMBER_OPERATOR, t, window, d["mu"], pair_cap=d["pair_cap"] + 1
        )

    def test_projective_residual_is_relative_to_the_exponentials(self):
        # at t = -3 the exponentials reach 1.6e5 and the absolute residual
        # read 1.16e-10, over the tolerance 1e-10 by a few ulps
        assert self.projective_on_the_battery_window(-3.0) <= 1e-14

    @pytest.mark.parametrize("exp_time", [0.35, 15.0, 30.0, -30.0])
    def test_projective_shift_off_by_one_fails(self, monkeypatch, exp_time):
        # one mode too many in the band puts an extra e^-t on the trace
        # factor, so the two sides differ by 1 - e^-|t| of the larger one.
        # A scale taken before the factor was the lambda side's e^{3t}: the
        # residual read 9.4e-14 at t = 15 and 8.8e-27 at t = 30, a pass
        real = fock._transport_modes

        def one_more(window, mu):
            mu, modes = real(window, mu)
            return mu, modes + [modes[-1] + 1]

        monkeypatch.setattr(fock, "_transport_modes", one_more)
        residual = self.projective_on_the_battery_window(exp_time)
        assert residual == pytest.approx(1.0 - math.exp(-abs(exp_time)), rel=1e-9)

    @pytest.mark.parametrize(
        "command,params",
        [
            ("pairing", {"modulation": -1e6}),
            ("pairing", {"modulation": 1e6}),
        ],
    )
    def test_large_fields_get_a_verdict(self, command, params, capsys):
        # an absolute 1e-10 roundoff bound raised here: a seam jump varying
        # by 2.4e-10
        _, full, seed, _ = validate_scenario({"command": command, "params": params})
        report = run_scenario(command, full, seed)
        assert capsys.readouterr().err == ""
        assert all(math.isfinite(r["residual"]) for r in report["checks"])
        assert report["status"] == "pass"

    @pytest.mark.parametrize(
        "params",
        [
            {"modulation": -1e6},
            {"modulation": -1e6, "base_points": 5},
        ],
        ids=["modulation-bottom", "small-grid-bottom"],
    )
    def test_adjoint_scaling_is_relative_to_the_density_terms(self, params):
        # the gap over |4 v_fund| reads 9.2e-7 and 1.5e-6 here: both
        # pairings are roundoff of density terms of order modulation^2, and
        # the gap is 2e-2 and 4e-2 of eps times the terms' mean size
        _, full, seed, _ = validate_scenario({"command": "pairing", "params": params})
        report = run_scenario("pairing", full, seed)
        (record,) = [r for r in report["checks"] if r["name"] == "adjoint-scaling"]
        assert record["residual"] <= 1e-7
        assert report["status"] == "pass"

    @pytest.mark.parametrize(
        "params, error",
        [
            ({"modulation": 1e6}, "scale"),
            ({"modulation": -1e6}, "scale"),
            ({"modulation": 1e6}, "shift"),
        ],
        ids=["scaled-top", "scaled-bottom", "shifted-top"],
    )
    def test_large_fields_still_catch_a_wrong_adjoint(self, monkeypatch, params, error):
        # the terms' mean size is about 1.5e12 at |modulation| 1e6: a gap judged
        # against 1e-6 of that size would pass an adjoint pairing that is 3/4
        # of its value, or off by 0.01 (it reads 2.9e-5 against the 1e-6)
        real = cli.pontryagin_densities

        def wrong(conn, reps):
            forms = real(conn, reps)
            for rho, form in zip(reps, forms):
                if not rho.is_fundamental():
                    comp = form.comps[(0, 1, 2)]
                    comp[...] = 0.75 * comp if error == "scale" else comp + 0.01
            return forms

        monkeypatch.setattr(cli, "pontryagin_densities", wrong)
        _, full, seed, _ = validate_scenario({"command": "pairing", "params": params})
        status = {r["name"]: r["status"] for r in run_scenario("pairing", full, seed)["checks"]}
        assert status["adjoint-scaling"] == "fail"
        assert status["winding-model-value"] == "pass"

    def test_pairing_battery_samples_one_connection(self, monkeypatch):
        # both checks read the one winding sample
        real = moduli.sample_connection
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0].label)
            return real(*args, **kwargs)

        monkeypatch.setattr(moduli, "sample_connection", spy)
        _, params, seed, _ = validate_scenario({"command": "pairing"})
        report = run_scenario("pairing", params, seed)
        assert report["status"] == "pass"
        assert calls == ["moduli-winding"]

    @pytest.mark.parametrize("poisoned", ["fundamental", "adjoint"])
    def test_nan_density_fails_the_winding_checks(self, monkeypatch, poisoned):
        real = cli.pontryagin_densities

        def with_nan(conn, reps):
            forms = real(conn, reps)
            for rho, form in zip(reps, forms):
                if rho.is_fundamental() == (poisoned == "fundamental"):
                    g = conn.ghost_margin
                    form.comps[(0, 1, 2)][g, g, g] = math.nan
            return forms

        monkeypatch.setattr(cli, "pontryagin_densities", with_nan)
        _, params, seed, _ = validate_scenario({"command": "pairing"})
        status = {r["name"]: r["status"] for r in run_scenario("pairing", params, seed)["checks"]}
        assert status["adjoint-scaling"] == "fail"
        assert status["winding-model-value"] == ("fail" if poisoned == "fundamental" else "pass")

    @pytest.mark.parametrize("field", ["phi", "a"])
    @pytest.mark.parametrize("coefficient", [0, 1, 2])
    @pytest.mark.parametrize("command, check", [("caloron", "rho-scaling-adjoint"), ("pairing", "adjoint-scaling")])
    def test_nan_field_coefficient_fails_the_adjoint_check(self, monkeypatch, field, coefficient, command, check):
        # the push keeps every row of the coefficient map, so a NaN in any
        # su(2) coefficient reaches the coefficients the adjoint holds; the
        # pairing samples through moduli's binding of the sampler
        owner = cli if command == "caloron" else moduli
        real = owner.sample_connection

        def with_nan(*args, **kwargs):
            conn = real(*args, **kwargs)
            cell = (conn.ghost_margin + 2,) * 3
            samples = conn.phi[coefficient] if field == "phi" else conn.a[1, coefficient]
            samples[(0,) + cell] = math.nan
            return conn

        monkeypatch.setattr(owner, "sample_connection", with_nan)
        params = {"theta_points": 8, "base_points": 8} if command == "caloron" else {}
        _, full, seed, _ = validate_scenario({"command": command, "params": params})
        (record,) = [r for r in run_scenario(command, full, seed)["checks"] if r["name"] == check]
        assert record["status"] == "fail"

    @pytest.mark.parametrize("command, grids", [("caloron", [16, 32]), ("pairing", [16])])
    def test_one_curvature_pass_per_grid(self, monkeypatch, command, grids):
        # one circle derivative per base component on each grid: caloron's
        # coarse pass serves both checks and the fine pass is ms-identity-order's
        # (6 calls, 12 with a pass per form); pairing's one pass serves both
        # densities (3 calls, 6 with a pass per density), on its 12-point
        # base grid with a ghost margin of 2
        real = caloron.spectral_theta_derivative
        calls = []

        def counting(arr, axis=0):
            calls.append(arr.shape[2])
            return real(arr, axis=axis)

        monkeypatch.setattr(caloron, "spectral_theta_derivative", counting)
        _, params, seed, _ = validate_scenario({"command": command})
        assert run_scenario(command, params, seed)["status"] == "pass"
        assert sorted(calls) == sorted(grids * 3)

    @pytest.mark.parametrize("command", ["pairing", "caloron"])
    def test_a_raise_in_the_adjoint_push_fails_both_checks(self, monkeypatch, capsys, command):
        # one curvature pass serves both checks of each battery, so a
        # coefficient map that raises fails the fundamental check too
        def broken(rho):
            raise RuntimeError("no coefficient map")

        monkeypatch.setattr(cli.Representation, "coefficient_map", broken)
        _, params, seed, _ = validate_scenario({"command": command})
        report = run_scenario(command, params, seed)
        assert [r["status"] for r in report["checks"]] == ["fail", "fail"]
        assert {r["residual"] for r in report["checks"]} == {1e300}
        err = capsys.readouterr().err
        assert err.count("raised RuntimeError: no coefficient map") == 2

    @pytest.mark.parametrize(
        "command, params, name, plant",
        [
            ("fock", {"n_max": 4, "sweep": 1}, "commutator-sweep", nan_in_first_batch),
            pytest.param(
                "cocycle", {"suite": "trivial"}, "delta-triviality-u1-trivial", nan_widest_phase,
                # the planted NaN phase divides the cocycle ratio
                marks=pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning"),
            ),
        ],
        ids=["commutator-sweep", "cocycle-worst"],
    )
    def test_nan_term_fails_its_accumulator(self, monkeypatch, command, params, name, plant):
        # one NaN among finite terms: max(acc, nan) would keep acc and pass;
        # the first term the accumulator takes (a batch sum, a table) gets the NaN
        calls = plant(monkeypatch)
        _, params, seed, _ = validate_scenario({"command": command, "params": params})
        report = run_scenario(command, params, seed)
        (record,) = [r for r in report["checks"] if r["name"] == name]
        assert len(calls) > 1
        assert record["status"] == "fail"
        assert math.isnan(record["residual"])

    def test_only_a_cover_violation_counts_as_rejection(self, monkeypatch):
        # a RangeError (cut outside the window) is not the rejection tested
        def out_of_window(*args, **kwargs):
            raise RangeError("cut 2 outside the certified window (-2, 2)")

        monkeypatch.setattr(cli, "CechTable", out_of_window)
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

    def test_cocycle_builds_each_pair_line_once(self, monkeypatch):
        # the battery shares one line per cut pair among its triples and
        # quadruples; per-triple lines once made 24 846 det_line calls
        built = collections.Counter()
        spectra = []  # kept alive, so their ids stay distinct
        sorts = []
        real_line = detline.det_line

        def counted(spec, lo, hi):
            spectra.append(spec)
            built[id(spec), lo.value, hi.value] += 1
            return real_line(spec, lo, hi)

        def watched(name, real):
            def spy(*args, **kwargs):
                sorts.append(name)
                return real(*args, **kwargs)

            return spy

        for module in (cli, detline):
            monkeypatch.setattr(module, "det_line", counted)
        # every line and every composition is canonical, and adjacent bands
        # are already in canonical order: nothing in detline may sort
        monkeypatch.setattr(
            detline, "permutation_sign", watched("permutation_sign", detline.permutation_sign)
        )
        monkeypatch.setattr(detline, "sorted", watched("sorted", sorted), raising=False)
        _, params, seed, _ = validate_scenario({"command": "cocycle"})
        report = run_scenario("cocycle", params, seed)
        assert report["status"] == "pass"
        assert built and max(built.values()) == 1
        # n_max 4: six admissible cuts, fifteen pairs per spectrum; the
        # associativity spectrum is su3-generic-a's, whose table is reused
        assert len(built) == 15 * len(HOLONOMY_SUITES["standard"])
        assert sorts == []

    def test_a_bad_shared_line_fails_its_checks(self, monkeypatch):
        # one line of su3-generic-a, the associativity spectrum too, gets
        # phase -1; every triple and quadruple that shares it must see it
        target = diagonal_holonomy((0.2, 0.45, 0.8))
        real = cli.det_line

        def planted(spec, lo, hi):
            line = real(spec, lo, hi)
            if spec.holonomy == target and (lo.value, hi.value) == (Fraction(-1, 2), Fraction(1, 2)):
                return DetLine(spec, lo, hi, line.basis, -1.0)
            return line

        monkeypatch.setattr(cli, "det_line", planted)
        _, params, seed, _ = validate_scenario({"command": "cocycle"})
        report = run_scenario("cocycle", params, seed)
        failed = {r["name"]: r["residual"] for r in report["checks"] if r["status"] != "pass"}
        assert failed == {"delta-triviality-su3-generic-a": 2.0, "associativity": 2.0}
        assert len(report["checks"]) == len(HOLONOMY_SUITES["standard"]) + 1

    def test_a_sign_on_wide_bands_fails_through_the_residual(self, monkeypatch, capfd):
        # every line over more than one mode gets phase -1: each suite has a
        # triple whose ratio is -1, and no composition raises (no 1e300);
        # on su3-generic-a every band holds three modes or more, so both
        # bracketings and L_il are all -1 and associativity cannot see it
        real = cli.det_line

        def signed(spec, lo, hi):
            line = real(spec, lo, hi)
            return DetLine(spec, lo, hi, line.basis, -1.0) if len(line.basis) > 1 else line

        monkeypatch.setattr(cli, "det_line", signed)
        _, params, seed, _ = validate_scenario({"command": "cocycle"})
        report = run_scenario("cocycle", params, seed)
        residual = {r["name"]: (r["residual"], r["status"]) for r in report["checks"]}
        assert residual.pop("associativity") == (0.0, "pass")
        assert set(residual.values()) == {(2.0, "fail")}
        assert len(residual) == len(HOLONOMY_SUITES["standard"])
        assert capfd.readouterr().err == ""


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
        cfg.write_text('{"command": "pairing", "params": {"modulation": NaN}}')
        proc = run_cli("pairing", "--config", str(cfg))
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
            (
                {"mu": "99999999999999999999/2"},
                r"band \(1/2, 99999999999999999999/2\] exits the window: mode 49999999999999999999 > N = 6",
            ),
            ({"n_max": 10**8, "mu": "20000001/2"}, "400000002 slots exceed the 62-bit occupation mask"),
        ],
        ids=[
            "n_max", "n_colors", "cut", "n_max-3", "n_max-4", "mu", "sweep", "pair_cap",
            "huge-mu", "wide-window",
        ],
    )
    def test_meaningless_fock_config_exits_two(self, tmp_path, params, match):
        # each passes the types but left a check without a meaningful verdict;
        # a huge mu listed every band mode before the window was checked (an
        # OverflowError traceback), and a wide window's band must be refused
        # by the basis cost before its ten million modes are listed
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
            ("caloron", {"base_points": 24}, "5308416 matrix entries per field, 4 per cell, over the cap"),
            ("pairing", {"theta_points": 4}, "need at least 8 circle points"),
            ("pairing", {"base_points": 4}, "at least 5 base points"),
            ("caloron", {"theta_points": 7}, "need at least 8 circle points, got 7"),
            ("pairing", {"modulation": math.nextafter(1e6, math.inf)}, "must be <= 1000000.0"),
            ("pairing", {"modulation": -1e7}, "'modulation' .* must be >= -1000000.0"),
        ],
        ids=[
            "caloron-theta",
            "refine-factor",
            "caloron-base",
            "caloron-cost",
            "fine-grid-cost",
            "pairing-theta",
            "pairing-base",
            "caloron-theta-floor",
            "modulation-above",
            "modulation-below",
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
            ("cocycle", {"tolerance": 1e-12}, "unknown key 'tolerance' in params for command 'cocycle'"),
            ("moduli", {"conjugations": -1}, "key 'conjugations' .* must be >= 1"),
            ("moduli", {"n_max": 0}, "cut 1/2 outside the certified window"),
            ("moduli", {"flow_steps": 4}, "key 'flow_steps' .* must be >= 5"),
            ("cover", {"denominator_cap": 385}, "key 'denominator_cap' .* must be <= 384"),
            ("moduli", {"conjugations": 4097}, "key 'conjugations' .* must be <= 4096"),
            ("spectrum", {"phases": [0.5, 0.1]}, "phases put an eigenvalue on the cut -1/2"),
            ("spectrum", {"phases": [0.15, -0.5 - 1e-12]}, "on the cut -1/2"),
            # a huge phase made NaN entries and two numpy warnings first
            ("spectrum", {"phases": [1e308, 0.5]}, "phases put an eigenvalue on the cut -1/2"),
            ("cocycle", {"n_max": 13}, "n_max 13 needs 40480 Cech triples, over the cap of 32000"),
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
            "cover-denominator-cap",
            "moduli-conjugations-cap",
            "spectrum-phase-on-cut",
            "spectrum-phase-near-cut",
            "spectrum-huge-phase",
            "cocycle-cost",
        ],
    )
    def test_meaningless_spectral_config_exits_two(self, tmp_path, command, params, match):
        # each left a traceback, a raised fail or a vacuous pass (zero
        # triples, zero conjugations, no non-integer cut), a fail from a
        # phase on a battery cut, or a run past the cost model
        cfg = tmp_path / "spectral.json"
        cfg.write_text(json.dumps({"command": command, "params": params}))
        proc = run_cli(command, "--config", str(cfg))
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error:")
        assert re.search(match, proc.stderr)
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    @pytest.mark.parametrize("extra, codes", [(0, (0, 1)), (1, (2,))], ids=["cap", "cap+1"])
    def test_phase_count_cap_edges(self, tmp_path, extra, codes):
        # a dense holonomy per phase count: 1 000 phases took 0.8 s and 138 MB
        phases = [0.15, 0.55] * (cli.MAX_PHASES // 2) + [0.35] * extra
        cfg = tmp_path / "phases.json"
        cfg.write_text(json.dumps({"command": "spectrum", "params": {"phases": phases}}))
        proc = run_cli("spectrum", "--config", str(cfg))
        assert proc.returncode in codes
        if extra:
            assert proc.stderr.startswith("config error:")
            assert proc.stderr.count("\n") == 1 and proc.stdout == ""
        else:
            assert json.loads(proc.stdout)["params"]["phases"] == phases

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("caloron", "preset", "su2-family"),
            ("caloron", "amplitude", 0.7),
            ("pairing", "w1", 1),
            ("pairing", "w2", 1),
            ("fock", "exp_time", 0.35),
            ("pairing", "ghost_margin", 4),
        ],
        ids=["preset", "amplitude", "w1", "w2", "exp_time", "ghost_margin"],
    )
    def test_retired_key_exits_two(self, tmp_path, capsys, command, key, value):
        # each battery keeps the old default as a constant; other values left
        # a verdict that no fault could move (preset zero, amplitude 0, w1 0,
        # exp_time 0), or, past the stencil half-width 2, changed only the cost
        # (ghost_margin)
        cfg = tmp_path / "retired.json"
        cfg.write_text(json.dumps({"command": command, "params": {key: value}}))
        assert cli.main([command, "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err == f"config error: unknown key '{key}' in params for command '{command}'\n"

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_exits_two(self, tmp_path, capsys, where):
        # np.random.default_rng raises on it inside conjugation-invariance
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"command": "moduli", "seed": -1 if where == "config" else 7}))
        flag = ["--seed", "-1"] if where == "flag" else []
        assert cli.main(["moduli", "--config", str(cfg), *flag]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err == "config error: key 'seed' must be >= 0\n"

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_out_exits_two_after_the_report(self, tmp_path, capsys, target):
        out_path = tmp_path / "missing" / "r.json" if target == "missing-dir" else tmp_path
        assert cli.main(["spectrum", "--out", str(out_path)]) == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["status"] == "pass"
        assert err.startswith("config error: cannot write report: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, key, largest, params",
        [
            ("spectrum", "n_max", 32767, {"phases": [0.15]}),
            ("spectrum", "n_max", 127, {"phases": [0.15] * cli.MAX_PHASES}),
            ("cover", "n_max", 16383, {}),
            ("moduli", "n_max", 16383, {}),
            ("moduli", "flow_steps", cli.MAX_FLOW_STEPS, {}),
            ("cover", "denominator_cap", cli.MAX_DENOMINATOR_CAP, {}),
            ("moduli", "conjugations", cli.MAX_CONJUGATIONS, {}),
        ],
        ids=[
            "spectrum-modes", "spectrum-colors", "cover-modes", "moduli-modes",
            "moduli-flow-steps", "cover-denominator-cap", "moduli-conjugations",
        ],
    )
    def test_spectral_size_cap_edges(self, monkeypatch, command, key, largest, params):
        # (2 n_max + 1) modes per color and flow_steps holonomies per path,
        # each a Python object: spectrum at n_max 1e5 took 2 s and 100 MB.
        # About 4 denominator_cap^2 in_cover calls, and 0.4 ms a conjugation:
        # denominator_cap 512 took 3.9 s.
        # The largest admitted size validates and the next is refused; no
        # spectrum wider than n_max 1 is built to tell
        real = cli.dirac_spectrum

        def narrow(hol, n):
            assert n == 1, f"validation built a spectrum at n_max {n}"
            return real(hol, n)

        monkeypatch.setattr(cli, "dirac_spectrum", narrow)
        admitted = {**params, key: largest}
        assert validate_scenario({"command": command, "params": admitted})[1][key] == largest
        with pytest.raises(ConfigError, match="over the cap of|must be <="):
            validate_scenario({"command": command, "params": {**params, key: largest + 1}})

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


# One derandomized property over every command's small configs: each
# strategy draws the scenario's params (and, where the battery uses it, the
# seed) around the schema's edges, so rejected and accepted configs both
# come up.  An accepted config exits 0 or 1 with a parseable report, finite
# residuals and no raised check; a rejected one exits 2 with one line.
#
# fock: n_max <= 4 and at most two colors, with a bounded sweep.
# One branch draws every key around its valid range, so rejected configs
# come up; the other stays near the valid region, so most of its configs
# run the battery.
_CUTS = st.sampled_from(["1/2", "-1/2", "3/2", "5/2", "7/2", "1/4", "-3/4", "2/3", "1", "0"])
_FOCK_PARAMS = st.one_of(
    st.fixed_dictionaries(
        {"n_max": st.integers(-1, 4)},
        optional={
            "n_colors": st.integers(0, 2),
            "cut": _CUTS,
            "mu": _CUTS | st.just("99999999999999999999/2"),
            "sweep": st.integers(-1, 2),
            "pair_cap": st.integers(0, 3),
        },
    ),
    st.fixed_dictionaries(
        {
            "n_max": st.integers(2, 4),
            "cut": st.sampled_from(["1/2", "-1/2", "1/4", "-3/4"]),
            "mu": st.sampled_from(["3/2", "5/2", "3/4", "7/4", "99999999999999999999/2"]),
            "sweep": st.integers(0, 1),
            "pair_cap": st.integers(1, 2),
        }
    ),
)

# The other commands as fock: a wide branch around each key's valid range
# and a branch near the valid region.  spectrum draws phases on and near
# the battery's cuts +-1/2; caloron draws small grids.
def _wide_or_valid(wide, valid):
    return st.one_of(st.fixed_dictionaries(wide), st.fixed_dictionaries(valid))


_VALID_PHASES = st.lists(st.sampled_from([0.0, 0.15, 0.25, 0.55, 0.999]), min_size=1, max_size=3)
_SPECTRUM_PARAMS = _wide_or_valid(
    {
        "n_max": st.integers(-1, 3),
        "phases": st.lists(
            st.sampled_from([0.15, 0.5, -0.5, 0.55, 1.5, 0.5 + 1e-12, math.nan, 1e308, -1e308]),
            max_size=3,
        ),
    },
    {"n_max": st.integers(1, 3), "phases": _VALID_PHASES},
)
_CALORON_PARAMS = _wide_or_valid(
    {
        "theta_points": st.integers(6, 10),
        "base_points": st.integers(4, 8),
        "refine_factor": st.integers(1, 2),
    },
    {
        "theta_points": st.integers(8, 10),
        "base_points": st.integers(5, 8),
        "refine_factor": st.just(2),
    },
)
_COVER_PARAMS = _wide_or_valid(
    {"n_max": st.integers(0, 7), "denominator_cap": st.integers(0, 5)},
    {"n_max": st.integers(3, 7), "denominator_cap": st.integers(2, 5)},
)
_COCYCLE_PARAMS = _wide_or_valid(
    {
        "n_max": st.integers(1, 5),
        "suite": st.sampled_from(["trivial", "standard", "exotic"]),
    },
    {
        "n_max": st.integers(3, 5),
        "suite": st.sampled_from(["trivial", "standard"]),
    },
)
_MODULI_PARAMS = _wide_or_valid(
    {
        "conjugations": st.integers(-1, 3),
        "flow_steps": st.integers(3, 12),
        "n_max": st.integers(0, 3),
    },
    {
        "conjugations": st.integers(1, 3),
        "flow_steps": st.integers(5, 12),
        "n_max": st.integers(1, 3),
    },
)
_PAIRING_PARAMS = _wide_or_valid(
    {
        "modulation": st.sampled_from([0.0, 0.2, -3.0, 1e6, -1e6, 1e7, math.nan]),
        "theta_points": st.integers(7, 9),
        "base_points": st.integers(4, 6),
    },
    {
        "modulation": st.sampled_from([0.0, 0.2, -3.0, 1e6, -1e6]),
        "theta_points": st.integers(8, 9),
        "base_points": st.integers(5, 6),
    },
)
_SEED = st.integers(-1, 3)  # a negative seed is refused

# command: (scenario strategy without the command, examples, checks per report)
_PROPERTY = {
    "spectrum": (st.fixed_dictionaries({"params": _SPECTRUM_PARAMS}), 40, 3),
    "cover": (st.fixed_dictionaries({"params": _COVER_PARAMS}), 20, 4),
    "cocycle": (st.fixed_dictionaries({"params": _COCYCLE_PARAMS}), 20, None),
    "fock": (st.fixed_dictionaries({"params": _FOCK_PARAMS, "seed": _SEED}), 60, 6),
    "caloron": (st.fixed_dictionaries({"params": _CALORON_PARAMS}), 40, 2),
    "moduli": (st.fixed_dictionaries({"params": _MODULI_PARAMS, "seed": _SEED}), 20, 6),
    "pairing": (st.fixed_dictionaries({"params": _PAIRING_PARAMS}), 20, 2),
}


class TestConfigProperty:
    @pytest.mark.parametrize("command", list(_PROPERTY))
    def test_verdict_or_config_error(self, command, capsys):
        strategy, examples, n_checks = _PROPERTY[command]

        @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
        @given(drawn=strategy)
        def verdict_or_config_error(drawn):
            scenario = {"command": command, **drawn}
            with tempfile.TemporaryDirectory() as tmp:
                cfg = Path(tmp) / "scenario.json"
                cfg.write_text(json.dumps(scenario))
                code = cli.main([command, "--config", str(cfg)])
            out, err = capsys.readouterr()
            try:
                validate_scenario(scenario)
            except ConfigError:
                assert code == 2 and out == ""
                assert err.startswith("config error:") and err.count("\n") == 1
                return
            assert code in (0, 1) and "raised" not in err, err
            report = json.loads(out)
            if n_checks is None:  # cocycle: one check per suite holonomy, one more
                expected = len(HOLONOMY_SUITES[report["params"]["suite"]]) + 1
            else:
                expected = n_checks
            assert report["command"] == command and len(report["checks"]) == expected
            assert report["status"] == ("pass" if code == 0 else "fail")
            assert all(math.isfinite(r["residual"]) for r in report["checks"])

        verdict_or_config_error()
