"""gerbetool benchmark harness: one closed-loop client, one battery at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs in a fresh Python process (worker.py), so the import
and lazy set-up that every CLI user pays are paid again.  With --trace 0
the harness repeats the workload for S seconds and reports the end-to-end
metrics as medians; the wall time is rescaled to a reference core speed
(see speedprobe.py), because a shared host's cores change speed.  With --trace 1 it does the same untraced runs, then
two traced runs, and reports the per-layer metrics.  Every report passes
through the output gate (see `gate`); a repetition that fails it is
counted as failed and never timed as a success.  Informational blocks
(environment, problem sizes, baseline table) precede the result, which is
one JSON object on the last line of standard output.

`--workload all` runs the four workloads in turn (tracing off) and sums
their wall times, a stand-in for `gerbetool all`.
"""

import argparse
import collections
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, scenarios

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Wall-clock budget for one invocation, kept under three minutes.
BUDGET_S = 165.0
# A median of three survives one outlier; set-up is cheap, so take more.
MIN_REPS = 3
MIN_SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "checks_passed_frac": "frac",
}

TRACED_FUNCTIONS = (
    "fock.enumerate_states",
    "fock.safe_states",
    "fock.sigma",
    "fock.SparseOperator.matrix",
    "fock.mode_operator_matrix",
    "fock.commutator_check",
    "fock.cut_shift_check",
    "fock.bogoliubov_vacuum",
    "fock.projective_equality_check",
    "presets.connection_preset",
    "caloron.sample_connection",
    "caloron.curvature",
    "caloron.b_field",
    "caloron.pontryagin_density",
    "caloron.ms_identity_check",
    "caloron.rho_scaling_check",
    "caloron.higgs_gauge_law_check",
    "grids.central_diff4",
    "grids.spectral_theta_derivative",
    "grids.GridForm.exterior_derivative",
    "liealg.Representation.matrix_image",
    "liealg.dynkin_index",
    "moduli.pontryagin_pairing",
    "moduli.ModuliFamily.connection",
    "moduli.relation_check",
    "moduli.irreducibility_check",
    "moduli.holonomy_path",
    "spectral.dirac_spectrum",
    "spectral.in_cover",
    "spectral.band",
    "spectral.spectral_flow",
    "detline.det_line",
    "detline.compose",
    "detline.delta_triviality",
)

WORK_COUNTERS = (
    "fock.basis_dim.max",
    "fock.enumerate_states.distinct_inputs",
    "caloron.sample_connection.cells",
    "caloron.curvature.distinct_inputs",
)

# Per-check medians, with the ROADMAP baseline in seconds where it has one.
BASELINE_CHECKS = (
    ("caloron.ms-identity-order", 7.1),
    ("fock.commutator-sweep", 4.6),
    ("fock.projective-exponential", 5.7),
    ("pairing.adjoint-scaling", 1.8),
    ("fock.car-relations", 1.5),
    ("caloron.rho-scaling-adjoint", 1.1),
    ("caloron.index-vs-pontryagin", None),
    ("pairing.winding-model-value", None),
    ("cocycle.associativity", None),
    ("moduli.conjugation-invariance", None),
)


def per_layer_units():
    """Name and unit of every metric a traced run reports."""
    units = {}
    for name in TRACED_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({name: "count" for name in WORK_COUNTERS})
    units["cli.validate_scenario.self_s"] = "s"
    units["cli.render_report.self_s"] = "s"
    units["cli.trace_overhead_frac"] = "frac"
    units.update({f"cli.check.{name}.s": "s" for name, _ in BASELINE_CHECKS})
    units["checks_failed_frac"] = "frac"
    return units


# -- output gate ---------------------------------------------------------------


def gate(rendered_reports):
    """Check one repetition's reports.

    Every check must pass, and a check with tolerance 0.0 must have a
    residual of exactly 0.0.  Returns (attempted, failed, problems, digest),
    where digest hashes the reports with every runtime_ms removed.
    """
    attempted, failed, problems = 0, 0, []
    deterministic = []
    for text in rendered_reports:
        report = json.loads(text)
        for check in report["checks"]:
            attempted += 1
            name = f"{report['command']}:{check['name']}"
            residual = check["residual"]
            if check["status"] != "pass":
                problems.append(f"{name}: status {check['status']}, residual {residual}")
            elif not math.isfinite(residual):
                problems.append(f"{name}: non-finite residual {residual}")
            elif check["tolerance"] == 0.0 and residual != 0.0:
                problems.append(f"{name}: exact check has residual {residual}")
            else:
                continue
            failed += 1
        checks = [{k: v for k, v in c.items() if k != "runtime_ms"} for c in report["checks"]]
        deterministic.append({**report, "checks": checks})
    canonical = json.dumps(deterministic, sort_keys=True, separators=(",", ":"))
    return attempted, failed, problems, hashlib.sha256(canonical.encode()).hexdigest()


def check_times(rendered_reports):
    """Seconds per check, keyed `<battery>.<check>`."""
    out = {}
    for text in rendered_reports:
        report = json.loads(text)
        for check in report["checks"]:
            out[f"{report['command']}.{check['name']}"] = check["runtime_ms"] / 1000.0
    return out


# -- worker processes ----------------------------------------------------------


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        return self.end - time.monotonic()


def run_worker(mode, workload, seed, deadline):
    """Run worker.py in a fresh process; returns (result or None, error)."""
    timeout = deadline.left()
    if timeout <= 1.0:
        return None, "time budget exhausted"
    jobs = json.dumps(scenarios(workload, seed))
    cmd = [sys.executable, str(HERE / "worker.py"), mode, str(SRC), jobs]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, f"{mode} worker timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return None, f"{mode} worker exited {proc.returncode}: {tail[0]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


class Batch:
    """Gated repetitions of one workload, with the samples they gave."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.good = []
        self.bad = []
        self.setup = []
        self.digest = None

    def add(self, result, error):
        """Gate one repetition (None if it crashed); returns True if it passed."""
        if result is None:
            self.attempted += 1
            self.failed += 1
            self.problems.append(error)
            return False
        attempted, failed, problems, digest = gate(result["reports"])
        if not failed:
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append(f"report digest {digest[:12]} differs from {self.digest[:12]}")
                failed = attempted
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)
        return failed == 0

    def timed(self):
        """Repetitions whose timings count: the good ones, else all that ran."""
        return self.good or self.bad


def measure(workload, seed, seconds, deadline):
    """Untraced repetitions for `seconds` (at least MIN_REPS), then set-up-only runs."""
    batch = Batch()
    start = time.monotonic()
    reps = 0
    while reps < MIN_REPS or time.monotonic() - start < seconds:
        reps += 1
        result, error = run_worker("timed", workload, seed, deadline)
        passed = batch.add(result, error)
        if result is not None:
            (batch.good if passed else batch.bad).append(result)
            batch.setup.append(result["setup_s"])
        if deadline.left() <= 1.0:
            break
    while len(batch.setup) < MIN_SETUP_SAMPLES and deadline.left() > 10.0:
        result, error = run_worker("setup", workload, seed, deadline)
        if result is None:
            batch.add(result, error)
            break
        batch.setup.append(result["setup_s"])
    return batch


# -- statistics and reporting ----------------------------------------------------


def summary(values):
    """Median, sample count and the highest percentile with ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": statistics.median(values), "max": values[-1], "samples": values}
    if n >= 11:
        pct = math.floor(100 * (1 - 10 / n))
        out[f"p{pct}"] = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    else:
        out["percentile"] = "none: needs at least 11 samples for ten beyond it"
    return out


def check_medians(batch):
    per_check = collections.defaultdict(list)
    for result in batch.timed():
        for name, seconds in check_times(result["reports"]).items():
            per_check[name].append(seconds)
    return {name: statistics.median(v) for name, v in per_check.items()}


def baseline_table(medians, wall_s=None):
    lines = ["check                            median_s  roadmap_s"]
    for name, roadmap in BASELINE_CHECKS:
        if name not in medians:
            continue
        ref = f"{roadmap:9.1f}" if roadmap is not None else "        -"
        lines.append(f"{name:32s} {medians[name]:9.3f} {ref}")
    if wall_s is not None:
        lines.append(f"{'sum of workload wall_s (all)':32s} {wall_s:9.3f}     24.2*")
        lines.append(
            "* ROADMAP sums per-check runtime_ms of `gerbetool all` at defaults;"
            " cocycle-dense runs cocycle and moduli above their defaults"
        )
    return "\n".join(lines)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def end_to_end(batch):
    runs = batch.timed()
    return {
        "wall_ref_s": statistics.median(r["wall_ref_s"] for r in runs),
        "setup_s": statistics.median(batch.setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "checks_passed_frac": 1.0 - batch.failed / batch.attempted,
    }


def traced_metrics(workload, seed, batch, deadline):
    """Two traced runs; their counts must repeat exactly."""
    traces = []
    for _ in range(2):
        result, error = run_worker("traced", workload, seed, deadline)
        batch.add(result, error)
        if result is not None:
            traces.append(result)
    if len(traces) < 2:
        return None
    first, second = traces[0]["counts"], traces[1]["counts"]
    for name in sorted(set(first) | set(second)):
        if first.get(name) != second.get(name):
            batch.failed += 1
            batch.problems.append(
                f"count {name} did not repeat: {first.get(name)} vs {second.get(name)}"
            )
    metrics = {}
    for name, unit in per_layer_units().items():
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(t["self_times"].get(name, 0.0) for t in traces)
        elif unit == "count":
            metrics[name] = first.get(name, 0)
    untraced = statistics.median(r["wall_s"] for r in batch.timed())
    traced = statistics.median(t["wall_s"] for t in traces)
    metrics["cli.trace_overhead_frac"] = traced / untraced - 1.0
    medians = check_medians(batch)
    for name, _ in BASELINE_CHECKS:
        metrics[f"cli.check.{name}.s"] = medians.get(name, 0.0)
    return metrics


def run_workload(workload, seed, seconds, trace, deadline):
    """Measure one workload; returns (batch, metrics, info)."""
    batch = measure(workload, seed, seconds, deadline)
    if not batch.timed():
        return batch, None, {}
    info = {
        "workload": workload,
        "seed": seed,
        "scenarios": scenarios(workload, seed),
        "repetitions": {"gated_ok": len(batch.good), "failed": len(batch.bad)},
        "wall_s": summary([r["wall_s"] for r in batch.timed()]),
        "wall_ref_s": summary([r["wall_ref_s"] for r in batch.timed()]),
        "probes_per_repetition": statistics.median(r["probes"] for r in batch.timed()),
        "setup_s": summary(batch.setup),
        "check_medians_s": check_medians(batch),
    }
    if trace:
        metrics = traced_metrics(workload, seed, batch, deadline)
        if metrics is not None:
            metrics["checks_failed_frac"] = batch.failed / batch.attempted
    else:
        metrics = end_to_end(batch)
    sizes, error = run_worker("sizes", workload, seed, deadline)
    info.update(sizes or {"sizes_error": error})
    return batch, metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gerbetool" / "cli.py").is_file():
        print(f"no gerbetool sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.trace and len(names) > 1:
        print("--trace 1 takes a single workload", file=sys.stderr)
        return 2
    deadline = Deadline(BUDGET_S * len(names))

    batches, infos, results = [], [], []
    for name in names:
        batch, metrics, info = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        if metrics is None:
            print(f"{name}: measurement incomplete: {batch.problems[:3]}", file=sys.stderr)
            return 1
        batches.append(batch)
        infos.append(info)
        results.append(metrics)

    if len(names) > 1:
        metrics = {
            "wall_ref_s": sum(m["wall_ref_s"] for m in results),
            "setup_s": statistics.median(s for b in batches for s in b.setup),
            "peak_rss_mb": max(m["peak_rss_mb"] for m in results),
            "checks_passed_frac": 1.0
            - sum(b.failed for b in batches) / sum(b.attempted for b in batches),
        }
    else:
        metrics = results[0]
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    problems = [p for b in batches for p in b.problems]

    medians = {}
    for info in infos:
        medians.update(info["check_medians_s"])
    print(json.dumps({"git_commit": git_commit(), "workloads": infos}, indent=2))
    wall_sum = sum(info["wall_s"]["median"] for info in infos) if len(names) > 1 else None
    print(baseline_table(medians, wall_sum))
    for problem in problems:
        print(f"GATE: {problem}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
