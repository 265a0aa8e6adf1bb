"""One benchmark repetition in a fresh Python process.

    python3 worker.py MODE SRC SCENARIOS

MODE is one of
  setup   import gerbetool.cli and validate the workload's scenarios;
  timed   setup, then run and render every scenario, tracing off, with
          the core's speed probed during the run (speedprobe.py);
  traced  the same run without probes, every public gerbetool function wrapped;
  sizes   the environment and the workload's problem sizes.
SRC is the source directory the package is imported from; SCENARIOS is a
JSON list of scenario objects.  The result is one JSON object on the last
line of standard output.
"""

import json
import os
import platform
import resource
import sys
import time
from fractions import Fraction
from math import comb


def _import_cli(src):
    sys.path.insert(0, src)
    import gerbetool
    import gerbetool.cli as cli

    where = os.path.realpath(gerbetool.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"gerbetool imported from {where}, not from {src}")
    return cli


def _validate(cli, scenarios):
    return [cli.validate_scenario(s)[:3] for s in scenarios]


def _run(cli, jobs):
    """Run and render every scenario; the span the wall metrics measure."""
    return [cli.render_report(cli.run_scenario(*job)) for job in jobs]


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(src, scenarios, run=True):
    start = time.perf_counter()
    cli = _import_cli(src)
    jobs = _validate(cli, scenarios)
    out = {"setup_s": time.perf_counter() - start}
    if run:
        import speedprobe  # after the set-up span: it imports numpy

        with speedprobe.SpeedProbe() as speed:
            out["reports"] = _run(cli, jobs)
        out["wall_s"] = speed.wall_s()
        out["wall_ref_s"] = speed.ref_s()
        out["probes"] = speed.probes()
    out["peak_rss_mb"] = _peak_rss_mb()
    return out


def traced(src, scenarios):
    import tracer

    cli = _import_cli(src)
    trace = tracer.Tracer()
    trace.install(tracer.traced_modules())
    jobs = _validate(cli, scenarios)
    start = time.perf_counter()
    reports = _run(cli, jobs)
    wall_s = time.perf_counter() - start
    return {
        "wall_s": wall_s,
        "reports": reports,
        "counts": trace.counts(),
        "self_times": trace.self_times(),
    }


def _blas():
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return "unknown"
    blas = deps.get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def sizes(src, scenarios):
    cli = _import_cli(src)
    import numpy as np
    import scipy

    from gerbetool.fock import FockWindow, enumerate_states
    from gerbetool.spectral import SpectralCut, dirac_spectrum, in_cover

    problem = {}
    for command, params, _ in _validate(cli, scenarios):
        if command == "fock":
            window = FockWindow(params["n_colors"], params["n_max"], Fraction(params["cut"]))
            cap = params["pair_cap"]
            problem["fock_basis_dim"] = {
                f"pair_cap_{c}": len(enumerate_states(window, c)) for c in (cap, cap + 1)
            }
        elif command == "caloron":
            theta, base = params["theta_points"], params["base_points"]
            problem["caloron_cells"] = {
                "coarse": theta * base**3,
                "fine": theta * (params["refine_factor"] * base) ** 3,
            }
        elif command == "pairing":
            ext = params["base_points"] + 2 * params["ghost_margin"]
            problem["pairing_cells_per_connection"] = params["theta_points"] * ext**3
        elif command == "cocycle":
            n_max = params["n_max"]
            cuts = [SpectralCut(Fraction(2 * k + 1, 2)) for k in range(-n_max + 1, n_max - 1)]
            triples = {}
            for label, hol in cli.holonomy_suite(params["suite"]):
                spec = dirac_spectrum(hol, n_max)
                triples[label] = comb(sum(in_cover(spec, c) for c in cuts), 3)
            problem["cech_triples"] = triples
            problem["cech_triples_total"] = sum(triples.values())
            problem["cuts"] = len(cuts)
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {
            var: os.environ.get(var, "unset")
            for var in (
                "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS",
            )
        },
        "machine": platform.machine(),
    }
    return {"env": env, "problem": problem}


def main(argv):
    mode, src, scenarios = argv
    scenarios = json.loads(scenarios)
    if mode == "setup":
        out = timed(src, scenarios, run=False)
    elif mode == "timed":
        out = timed(src, scenarios)
    elif mode == "traced":
        out = traced(src, scenarios)
    elif mode == "sizes":
        out = sizes(src, scenarios)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write("\n" + json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
