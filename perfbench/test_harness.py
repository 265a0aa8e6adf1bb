"""Fast self-test of the benchmark harness on tiny scenarios.

    python3 -m pytest perfbench

Checks the output's shape and metric names against BENCHMARK.json, and that
the output gate trips on an injected failure.  Timing gates nothing here.
"""

import json
import math
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speedprobe  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "tiny-fock": (("fock", {"n_max": 3, "sweep": 1}),),
    "tiny-caloron": (("caloron", {"base_points": 8}),),
}


def _report(checks, command="fock"):
    return json.dumps({"command": command, "checks": checks, "seed": 1})


def _check(name, residual, tolerance, status="pass", runtime_ms=1.0):
    return {
        "name": name,
        "residual": residual,
        "tolerance": tolerance,
        "status": status,
        "runtime_ms": runtime_ms,
    }


@pytest.fixture
def tiny(monkeypatch):
    for name, jobs in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, jobs)


def _result(capsys, argv):
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_gate_passes_clean_reports_and_ignores_runtime():
    fast = [_report([_check("a", 0.0, 0.0, runtime_ms=1.0), _check("b", 1e-13, 1e-12)])]
    slow = [_report([_check("a", 0.0, 0.0, runtime_ms=9.0), _check("b", 1e-13, 1e-12)])]
    attempted, failed, problems, digest = run.gate(fast)
    assert (attempted, failed, problems) == (2, 0, [])
    assert run.gate(slow)[3] == digest


@pytest.mark.parametrize(
    "bad",
    [
        _check("failing", 2.0, 1.0, status="fail"),
        _check("exact-but-off", 1e-300, 0.0),
        _check("nan", math.nan, 1.0),
    ],
)
def test_gate_trips_on_injected_failure(bad):
    attempted, failed, problems, _ = run.gate([_report([_check("ok", 0.0, 0.0), bad])])
    assert (attempted, failed) == (2, 1)
    assert bad["name"] in problems[0]


def test_speed_probe_rescales_each_gap_by_its_end_probes():
    speed = speedprobe.SpeedProbe()
    ref = speedprobe.REF_S
    # A 1 s gap between probes at reference speed, then a 1 s gap ending on
    # a probe twice as slow: the second gap counts for (1 + 1/2) / 2 s.
    speed.samples = [(0.0, ref), (1.0 + ref, ref), (2.0 + 2 * ref, 2 * ref)]
    assert speed.wall_s() == pytest.approx(2.0)
    assert speed.ref_s() == pytest.approx(1.0 + 0.75)
    assert speed.probes() == 1


def test_speed_probe_samples_during_a_span():
    with speedprobe.SpeedProbe() as speed:
        end = time.perf_counter() + 3 * speedprobe.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert speed.probes() >= 2
    assert 0 < speed.wall_s() < 3 * speedprobe.PERIOD_S + 0.05
    assert speed.ref_s() > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_every_all_battery_is_in_one_workload():
    commands = [c for jobs in workloads.WORKLOADS.values() for c, _ in jobs]
    assert sorted(commands) == sorted(
        ["spectrum", "cover", "cocycle", "fock", "caloron", "moduli", "pairing"]
    )


def test_timed_run_on_tiny_scenarios(tiny, capsys):
    result = _result(capsys, ["--workload", "tiny-fock", "--seed", "3", "--seconds", "0"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END_UNITS[name]
        assert metric["value"] > 0


def test_traced_run_on_tiny_scenarios(tiny, capsys):
    result = _result(
        capsys,
        ["--workload", "tiny-caloron", "--seed", "3", "--seconds", "0", "--trace", "1"],
    )
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == set(run.per_layer_units())
    assert metrics["caloron.curvature.calls"]["value"] == 4
    assert metrics["caloron.curvature.distinct_inputs"]["value"] == 2
    assert metrics["fock.enumerate_states.calls"]["value"] == 0
    assert metrics["checks_failed_frac"]["value"] == 0.0


def _fail_check(check):
    check["status"] = "fail"


def _nudge_residual(check):
    check["residual"] = check["tolerance"] / 2


@pytest.mark.parametrize(
    "rep, tamper, expect",
    [(0, _fail_check, "status fail"), (1, _nudge_residual, "digest")],
)
def test_harness_flags_a_failing_repetition(tiny, capsys, monkeypatch, rep, tamper, expect):
    real = run.run_worker
    timed = []

    def inject(mode, workload, seed, deadline):
        result, error = real(mode, workload, seed, deadline)
        if mode == "timed":
            timed.append(result)
            if len(timed) == rep + 1:
                report = json.loads(result["reports"][0])
                tamper(next(c for c in report["checks"] if c["tolerance"] > 0))
                result["reports"][0] = json.dumps(report)
        return result, error

    monkeypatch.setattr(run, "run_worker", inject)
    assert run.main(["--workload", "tiny-fock", "--seed", "3", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["checks_passed_frac"]["value"] < 1.0
    assert any(line.startswith("GATE:") and expect in line for line in lines)


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "fock-window", "--seed", "1"]) != 0
    assert capsys.readouterr().out == ""
