"""Golden reports: every change to a report shows in the diff of tests/golden/.

Each file under tests/golden/ holds one `gerbetool` run: its argv, exit
code, stderr and report (its stdout), with every `runtime_ms` removed.  The
runs are `gerbetool all` at seeds 0, 7, 41 and 97, each shipped config,
`gerbetool schema`, and every scenario of perfbench/workloads.py at seeds 0
and 41.  The test reruns them all in one interpreter and compares.

A change that moves a residual, a tolerance, a name or a message rewrites
the files in the same diff, by running this file:

    PYTHONPATH=src python tests/test_golden.py

BUILD.json records the build that wrote the files: Python, numpy, numpy's
BLAS, the machine and the CPU features numpy dispatches to (its float
kernels differ between them).  On that build every field compares exactly.
On any other build only roundoff may move: a residual that reads exactly
0.0 in the file, and every residual of a check with tolerance 0, still
compare exactly, and so does every other field; the remaining residuals may
move by at most GAP_SHARE of their check's tolerance.
"""

import contextlib
import importlib.util
import io
import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np

from gerbetool import cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"
CONFIGS = ROOT / "configs"

ALL_SEEDS = (0, 7, 41, 97)
WORKLOAD_SEEDS = (0, 41)

# On another build, the share of a check's tolerance by which a nonzero residual may move
GAP_SHARE = 0.01


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def golden_runs():
    """(file stem, argv, scenario) of every golden run; a scenario is written to scenario.json."""
    runs = [(f"all-seed-{seed}", ["all", "--seed", str(seed)], None) for seed in ALL_SEEDS]
    for path in sorted(CONFIGS.glob("*.json")):
        command = json.loads(path.read_text(encoding="utf-8"))["command"]
        runs.append((f"config-{path.stem}", [command, "--config", f"configs/{path.name}"], None))
    runs.append(("schema", ["schema"], None))
    workloads = _workloads()
    for name in workloads.WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            for scenario in workloads.scenarios(name, seed):
                stem = f"workload-{name}-{scenario['command']}-seed-{seed}"
                runs.append((stem, [scenario["command"], "--config", "scenario.json"], scenario))
    return runs


def run(argv, scenario, workdir):
    """One run's golden record, the CLI called in this interpreter from workdir.

    A shipped config is read from the repository, and a report the config
    sends to an output_path is written in workdir.
    """
    if scenario is not None:
        (workdir / "scenario.json").write_text(json.dumps(scenario), encoding="utf-8")
    real = [str(ROOT / arg) if arg.startswith("configs/") else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(real)
    finally:
        os.chdir(cwd)
    report = json.loads(out.getvalue()) if out.getvalue() else None
    for check in (report or {}).get("checks", []):
        del check["runtime_ms"]
    record = {"argv": argv, "exit_code": code, "report": report, "stderr": err.getvalue()}
    if scenario is not None:
        record["scenario"] = scenario
    return record


def render(record):
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def build():
    """The build that numpy runs on, as recorded in BUILD.json."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_dispatch": sorted(f for f in __cpu_dispatch__ if __cpu_features__.get(f)),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def within_roundoff(want, got):
    """Whether got equals the golden record want up to another build's roundoff.

    Only a residual that is nonzero in want, of a check with a nonzero
    tolerance, may differ, by at most GAP_SHARE of that tolerance.
    """
    got = json.loads(json.dumps(got))  # a copy, whose residuals may be set to want's
    want_checks = (want["report"] or {}).get("checks", [])
    got_checks = (got["report"] or {}).get("checks", [])
    for w, g in zip(want_checks, got_checks):
        loose = w["residual"] != 0.0 and w["tolerance"] > 0.0
        if loose and abs(g["residual"] - w["residual"]) <= GAP_SHARE * w["tolerance"]:
            g["residual"] = w["residual"]
    return want == got


def test_reports_match_the_golden_files(tmp_path):
    recorded = json.loads((GOLDEN / "BUILD.json").read_text(encoding="utf-8"))
    same_build = recorded == build()
    runs = golden_runs()
    assert sorted(p.stem for p in GOLDEN.glob("*.json") if p.name != "BUILD.json") == sorted(
        stem for stem, _, _ in runs
    )
    differ = []
    for stem, argv, scenario in runs:
        workdir = tmp_path / stem
        workdir.mkdir()
        got = run(argv, scenario, workdir)
        text = (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
        if same_build:
            if render(got) != text:
                differ.append(stem)
        elif not within_roundoff(json.loads(text), got):
            differ.append(stem)
    assert differ == [], (
        f"reports differ from tests/golden/ (build {'as' if same_build else 'unlike'} BUILD.json); "
        "if the change is meant, rewrite them with `PYTHONPATH=src python tests/test_golden.py` "
        "and review the diff"
    )


def test_another_build_may_move_only_roundoff():
    want = json.loads((GOLDEN / "config-pairing.json").read_text(encoding="utf-8"))
    checks = want["report"]["checks"]
    assert [(c["residual"] != 0.0, c["tolerance"] > 0.0) for c in checks] == [(False, True), (True, True)]

    def moved(index, residual, record=want):
        got = json.loads(json.dumps(record))
        got["report"]["checks"][index]["residual"] = residual
        return got

    assert within_roundoff(want, moved(1, 4.4e-16))
    assert within_roundoff(want, moved(1, checks[1]["residual"] + GAP_SHARE * checks[1]["tolerance"]))
    assert not within_roundoff(want, moved(1, 2 * GAP_SHARE * checks[1]["tolerance"]))
    # an exact 0.0 compares exactly, whatever its tolerance
    assert not within_roundoff(want, moved(0, 4.4e-16))
    # so does every residual of a tolerance-0 check
    zero_tolerance = moved(1, checks[1]["residual"])
    zero_tolerance["report"]["checks"][1]["tolerance"] = 0.0
    assert not within_roundoff(zero_tolerance, moved(1, 4.4e-16, zero_tolerance))
    # every other field still compares exactly
    failed = moved(1, 4.4e-16)
    failed["report"]["checks"][1]["status"] = "fail"
    assert not within_roundoff(want, failed)


def main():
    """Rewrite every golden record and BUILD.json."""
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.json"):
        stale.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        for stem, argv, scenario in golden_runs():
            workdir = Path(tmp) / stem
            workdir.mkdir()
            (GOLDEN / f"{stem}.json").write_text(render(run(argv, scenario, workdir)), encoding="utf-8")
    (GOLDEN / "BUILD.json").write_text(render(build()), encoding="utf-8")


if __name__ == "__main__":
    main()
