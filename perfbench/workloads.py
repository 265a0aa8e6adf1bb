"""Benchmark workloads: named lists of gerbetool scenarios.

Every check of `gerbetool all` runs in exactly one workload, so the four
together cover the whole `all` command.  Sizes are the CLI defaults unless
a workload states otherwise; README.md in this directory says why each
workload exists and which layer it stresses.
"""

WORKLOADS = {
    # Fock layer only: basis enumeration, operator build, commutators, expm.
    "fock-window": (("fock", {}),),
    # One periodic connection through the full caloron chain, coarse and fine.
    "caloron-identity": (("caloron", {}),),
    # Five small ghost-margin connections, each used once, plus the adjoint route.
    "pairing-adjoint": (("pairing", {}),),
    # Many small spectral/detline calls and eigen-tracking; no fock or caloron.
    "cocycle-dense": (
        ("spectrum", {}),
        ("cover", {}),
        ("cocycle", {"suite": "standard", "n_max": 8}),
        ("moduli", {"flow_steps": 2000, "conjugations": 400, "n_max": 8}),
    ),
}


def scenarios(workload, seed):
    """The workload's scenario objects, each carrying the workload seed."""
    return [
        {"command": command, "params": dict(params), "seed": seed}
        for command, params in WORKLOADS[workload]
    ]
