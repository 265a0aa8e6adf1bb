"""Fault table: every check of `gerbetool all` fails under a planted library fault.

Each row names one check of criterion 9's list and one fault: a library
function replaced, wherever a gerbetool module bound it by name, by a
version with a single defect.  The check's battery runs under the fault and
the check must report `fail`.  Rows that share a fault and a battery share
one run.  The set of checks the rows name must equal criterion 9's list,
so a check added without a row fails this table; a check may have more
than one row.

A real run plants the fault before validation, and validation itself may
call a faulted function (the spectrum's `phases` are checked with
`in_cover`).  So every row also runs `gerbetool <command> --config
configs/<command>.json` with its fault planted first: the run must not
exit 0, and a run that stops in validation must say why in one
`config error:` line.

A faulted run could leave faulty values in a package cache (Fock bases,
currents and probe blocks, bracket terms, coefficient maps), and a value
cached before the fault could hide it, so every gerbetool cache is cleared
before and after every run; the table ends with the unfaulted `all`
battery passing in the same process.
"""

import dataclasses
import importlib
from pathlib import Path
import sys

import numpy as np
import pytest

from gerbetool import caloron, detline, fock, grids, liealg, moduli, spectral
from gerbetool import cli
from gerbetool.cli import _RAISED, run_scenario, validate_scenario
from gerbetool.moduli import LoopWord
from gerbetool.presets import HOLONOMY_SUITES
from gerbetool.spectral import SpectralCut

from test_acceptance import ALL_CHECK_NAMES
from test_detline import without_top_mode
from test_fock import flip_middle_hop
from test_imports import MODULES, clear_caches
from test_moduli import diagonal_generators

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def clear_package_caches():
    clear_caches([importlib.import_module(f"gerbetool.{path.stem}") for path in MODULES])


def plant(monkeypatch, owner, name, fault):
    """Replace owner.name, and every gerbetool module's binding of it, by one fault(real).

    Every binding gets the same object, so a second plant on the name finds
    them all and stacks its fault on the first.
    """
    real = getattr(owner, name)
    modules = [
        module
        for key, module in sys.modules.items()
        if key.split(".")[0] == "gerbetool" and getattr(module, name, None) is real
    ]
    planted = fault(real)
    for target in {owner, *modules}:
        monkeypatch.setattr(target, name, planted)


def one_more_band_mode(real):
    def fault(window, mu):
        mu, modes = real(window, mu)
        return mu, modes + [modes[-1] + 1]

    return fault


def twice_the_norm(real):
    def fault(window, mu):
        (masks, cols, amps), unannihilated = real(window, mu)
        return (masks, cols, 2.0 * amps), unannihilated

    return fault


def first_generator_only(real):
    def fault(rep, h):
        moved = real(rep, h).generators
        kept = np.broadcast_to(rep.generators[..., 1:, :, :], moved[..., 1:, :, :].shape)
        return dataclasses.replace(rep, generators=np.concatenate((moved[..., :1, :, :], kept), axis=-3))

    return fault


def repeated_first_generator(real):
    def fault():
        rep = real()
        gens = rep.generators
        return dataclasses.replace(rep, generators=np.concatenate((gens[:1], gens[:1], gens[2:])))

    return fault


def without_middle(real):
    def fault(m):
        support = real(m)
        return support[: len(support) // 2] + support[len(support) // 2 + 1 :]

    return fault


# (fault, (owner, name, fault of the real function), [(command, params, checks)])
FAULTS = [
    (
        "dirac_spectrum builds the window one mode short",
        (spectral, "dirac_spectrum", lambda real: lambda hol, n: real(hol, n - 1)),
        [("spectrum", {}, ["mode-count"])],
    ),
    (
        "in_cover takes a gap tolerance of 0.3 modes",
        (spectral, "in_cover", lambda real: lambda spec, cut: real(spec, SpectralCut(cut.value, 0.3))),
        [
            ("spectrum", {}, ["half-cut-covered"]),
            ("cover", {}, ["noninteger-cuts-covered"]),
        ],
    ),
    (
        "holonomy_phases turns every phase by 0.1 rad",
        (spectral, "holonomy_phases", lambda real: lambda u: real(u) + 0.1),
        [("cover", {}, ["integer-cuts-excluded", "triple-rejects-spectrum-cut"])],
    ),
    (
        "band drops each band's top mode",
        (spectral, "_band_extent", without_top_mode),
        [
            ("spectrum", {}, ["unit-band-per-color"]),
            ("cover", {}, ["triple-delta-trivial"]),
            (
                "cocycle",
                {},
                [f"delta-triviality-{label}" for label, _ in HOLONOMY_SUITES["standard"]]
                + ["associativity"],
            ),
        ],
    ),
    (
        "_parities reads every slot parity as even",
        (fock, "_parities", lambda real: lambda masks: masks & 0),
        [("fock", {}, ["car-relations"])],
    ),
    (
        "sigma flips the sign of its middle hop",
        (fock, "sigma", lambda real: lambda *a, **kw: flip_middle_hop(real(*a, **kw))),
        [("fock", {}, ["commutator-sweep"])],
    ),
    (
        "sigma moves modes up by n, not down",
        (fock, "sigma", lambda real: lambda i, j, n, window, cut=None: real(i, j, -n, window, cut)),
        [("fock", {}, ["central-term"])],
    ),
    (
        "_transport_modes counts one mode too many",
        (fock, "_transport_modes", one_more_band_mode),
        [("fock", {}, ["bogoliubov-vacuum", "cut-shift", "projective-exponential"])],
    ),
    # the two currents of the cut shift agree, so its count term is 0 and
    # only the residual term sees it
    (
        "sigma ignores the normal-ordering cut it is given",
        (fock, "sigma", lambda real: lambda i, j, n, window, cut=None: real(i, j, n, window)),
        [("fock", {}, ["cut-shift", "projective-exponential"])],
    ),
    # every operator still annihilates the state, so only the norm term sees it
    (
        "bogoliubov_vacuum returns the state at twice its norm",
        (fock, "bogoliubov_vacuum", twice_the_norm),
        [("fock", {}, ["bogoliubov-vacuum"])],
    ),
    (
        "central_diff4 weighs the point i + 1 by 7, not 8",
        (
            grids,
            "central_diff4",
            lambda real: lambda arr, axis, h: real(arr, axis, h) - np.roll(arr, -1, axis) / (12 * h),
        ),
        [
            ("caloron", {}, ["ms-identity-order"]),
            ("pairing", {}, ["winding-model-value"]),
        ],
    ),
    # covering-space samples are not periodic, so a stencil that leaves the
    # margin reads across the seam: the model value -2 comes out as -2.85 at
    # margin 1 (and 2.5e-17 at margin 0)
    (
        "the pairing samples with ghost margin 1",
        (moduli, "_GHOST_MARGIN", lambda real: 1),
        [("pairing", {}, ["winding-model-value"])],
    ),
    (
        "coefficient_map scales every non-fundamental image by 3/4",
        (
            liealg.Representation,
            "coefficient_map",
            lambda real: lambda rho: real(rho) if rho.is_fundamental() else 0.75 * real(rho),
        ),
        [
            ("caloron", {}, ["rho-scaling-adjoint"]),
            ("pairing", {}, ["adjoint-scaling"]),
        ],
    ),
    # The adjoint of su(2) reaches su(3) coefficients (0, 2, 4), the images
    # of T3, T1 and T2.  The pairing's winding family lies along T1, so it
    # reads coefficient 2 alone and only the middle row can fail its check.
    (
        "the support drops its last reached coefficient",
        (caloron, "_support", lambda real: lambda m: real(m)[:-1]),
        [("caloron", {}, ["rho-scaling-adjoint"])],
    ),
    (
        "the support drops its middle reached coefficient",
        (caloron, "_support", without_middle),
        [
            ("caloron", {}, ["rho-scaling-adjoint"]),
            ("pairing", {}, ["adjoint-scaling"]),
        ],
    ),
    # the adjoint map is read off the structure constants, whose scale the
    # closed-form index 2n then no longer matches
    (
        "su_structure_constants halved",
        (liealg, "su_structure_constants", lambda real: lambda n: real(n) / 2.0),
        [
            ("caloron", {}, ["rho-scaling-adjoint"]),
            ("pairing", {}, ["adjoint-scaling"]),
        ],
    ),
    (
        "the index reads 2n + 1",
        (liealg.Representation, "index", lambda real: property(lambda rho: 2 * rho.n + 1)),
        [
            ("caloron", {}, ["rho-scaling-adjoint"]),
            ("pairing", {}, ["adjoint-scaling"]),
        ],
    ),
    (
        "standard_genus2_su2 repeats A_1 as B_1",
        (moduli, "standard_genus2_su2", repeated_first_generator),
        [("moduli", {}, ["relation-residual", "irreducibility"])],
    ),
    (
        "conjugate moves the first generator only",
        (moduli, "conjugate", first_generator_only),
        [("moduli", {}, ["conjugation-invariance"])],
    ),
    (
        "generic_genus2_su2 returns a reducible point, every generator diagonal",
        (moduli, "generic_genus2_su2", diagonal_generators),
        [("moduli", {}, ["relation-residual", "irreducibility"])],
    ),
    # holonomy's letter map: the order of a word's letters, which generator a
    # letter reads, and which exponent inverts it.  Only letter-map sees
    # these.  A reversed word moves [a1, b1] at the generic point alone: at
    # the quaternion point both orders give -1.  The literal mutant
    # "generator index + 1" raises an IndexError on the last two letters;
    # the row wraps the last letter to the first, so the check fails by
    # what it measures.
    (
        "holonomy multiplies a word's letters in reverse",
        (moduli, "holonomy", lambda real: lambda rep, word: real(rep, LoopWord(word.letters[::-1]))),
        [("moduli", {}, ["letter-map"])],
    ),
    (
        "holonomy reads the next generator of each letter",
        (
            moduli,
            "holonomy",
            lambda real: lambda rep, word: real(
                rep, LoopWord(tuple((index % (2 * rep.genus) + 1, e) for index, e in word.letters))
            ),
        ),
        [("moduli", {}, ["letter-map"])],
    ),
    (
        "holonomy inverts the letters of exponent +1, not -1",
        (
            moduli,
            "holonomy",
            lambda real: lambda rep, word: real(rep, LoopWord(tuple((i, -e) for i, e in word.letters))),
        ),
        [("moduli", {}, ["letter-map"])],
    ),
    # the winding's sign: the phases' orientation reaches the flow, not the spectrum's rows
    (
        "holonomy_phases negates every phase mod 2 pi",
        (spectral, "holonomy_phases", lambda real: lambda u: np.sort(np.mod(-real(u), 2 * np.pi), axis=-1)),
        [("moduli", {}, ["flow-u1-winding"])],
    ),
    (
        "spectral_flow walks the path backwards",
        (spectral, "spectral_flow", lambda real: lambda path, cut, n: real(path[::-1], cut, n)),
        [("moduli", {}, ["flow-u1-winding"])],
    ),
    (
        "spectral_flow follows the first color only",
        (
            spectral,
            "spectral_flow",
            lambda real: lambda path, cut, n: real(path[:, :1, :1], cut, n),
        ),
        [("moduli", {}, ["flow-su2-balanced"])],
    ),
]

# The checks whose fault row fails them only through the raise sentinel:
# the band fault makes CompositionError escape, which stays open under
# ROADMAP item 1.
FAIL_BY_RAISE = {"cover:triple-delta-trivial"} | {
    f"cocycle:{check}"
    for check in [f"delta-triviality-{label}" for label, _ in HOLONOMY_SUITES["standard"]]
    + ["associativity"]
}

RUNS = [
    pytest.param(patch, command, params, checks, id=f"{command}: {fault}")
    for fault, patch, runs in FAULTS
    for command, params, checks in runs
]

# Admitted edges: each fault row of the command must still fail there by
# what it measures.  The pairing's are the largest modulation either way and
# the smallest grid; the largest grids under the cap (base 46 at theta 8,
# theta 1438 at base 5) fail too, but take about 10 s together.  The
# caloron's is its smallest grid.  The cocycle's are the smallest n_max and
# the largest that MAX_CECH_TRIPLES admits, and the cover's its smallest
# n_max and denominator cap; denominator_cap 384 takes about 2 s.  The
# fock's are the smallest sweep and pair cap, and the widest occupation
# mask, 62 slots at n_max 15, whose top slots make _sum_keys take the masks'
# dense ranks.  The moduli's are the fewest and most conjugations and the
# shortest and longest flow paths.
EDGES = {
    "pairing": {
        "modulation 1e6": {"modulation": 1e6},
        "modulation -1e6": {"modulation": -1e6},
        "theta 8 base 5": {"theta_points": 8, "base_points": 5},
    },
    "caloron": {"theta 8 base 5": {"theta_points": 8, "base_points": 5}},
    "cocycle": {"n_max 3": {"n_max": 3}, "n_max 12": {"n_max": 12}},
    "cover": {"n_max 3": {"n_max": 3}, "denominator_cap 4": {"denominator_cap": 4}},
    "fock": {
        "sweep 0": {"sweep": 0},
        "pair_cap 1": {"pair_cap": 1},
        "n_max 15 pair_cap 1": {"n_max": 15, "pair_cap": 1},
    },
    "moduli": {
        "conjugations 1": {"conjugations": 1},
        "conjugations 4096": {"conjugations": 4096},
        "flow_steps 5": {"flow_steps": 5},
        "flow_steps 32768": {"flow_steps": 32768},
    },
}

# Edge rows whose check cannot see the fault, as (command, edge, fault).
# Strict, so a check that comes to see the fault fails here until the row
# is dropped.
BLIND_EDGES = set()

EDGE_RUNS = [
    pytest.param(
        patch,
        command,
        edge,
        checks,
        id=f"{command} at {label}: {fault}",
        marks=[pytest.mark.xfail(raises=AssertionError, strict=True, reason="blind to this fault here")]
        if (command, label, fault) in BLIND_EDGES
        else [],
    )
    for fault, patch, runs in FAULTS
    for command, _, checks in runs
    for label, edge in EDGES.get(command, {}).items()
]


def negated_vacuum(real):
    def fault(window, mu):
        (masks, cols, amps), unannihilated = real(window, mu)
        return (masks, cols, -amps), unannihilated

    return fault


def deltas_times_the_outer_phase(real):
    def deltas(self):
        i, j, k = detline._index_tuples(len(self.cuts), 3)
        phases = self.phases
        return self._compose(i, j, k, phases[i, j], phases[j, k]) * phases[i, k]

    return deltas


def live_blind_to_nan(real):
    def fault(conn):
        fields = (conn.phi, *conn.a)
        return tuple(
            c for c in range(len(conn.phi)) if any(np.count_nonzero(np.nan_to_num(g[c], nan=0.0)) for g in fields)
        )

    return fault


# The blind-spot ledger: (fault, (owner, name, fault of the real function)).
# Each fault breaks a result that tier-1 checks against an oracle, yet
# `gerbetool all --seed 0` passes all of its checks under it.  The first
# seven stand for single-site mutants of the ROADMAP's Baseline (its
# structure-constants mutant is seen, a FAULTS row); the last two are
# closure faults the default connections cannot reach: su2_family is live
# in all three coefficients, and the winding family's {T1} is closed
# already.  Each row is a strict expected failure: once the
# battery sees a fault, its row passes, strict mode fails it, and the fault
# moves into FAULTS under the check that sees it.
BLIND_SPOTS = [
    ("caloron._bracket returns -[X, Y]", (caloron, "_bracket", lambda real: lambda *a: -real(*a))),
    (
        "spectral_theta_derivative doubled",
        (grids, "spectral_theta_derivative", lambda real: lambda arr, axis=0: 2.0 * real(arr, axis)),
    ),
    (
        "central_diff4 multiplied by 12 * spacing",
        (grids, "central_diff4", lambda real: lambda arr, axis, h: real(arr, axis, h) * (12.0 * h)),
    ),
    # eigenvalues m - phi_c / 2 pi: the phases negated mod 2 pi in the
    # spectrum alone, since spectral_flow's winding sees them negated
    # everywhere (a FAULTS row)
    (
        "dirac_spectrum twists by the conjugate holonomy",
        (spectral, "dirac_spectrum", lambda real: lambda hol, n: real(spectral.Holonomy(np.conj(hol.matrix)), n)),
    ),
    (
        "_composed conjugates the upper phase",
        (
            detline,
            "_composed",
            lambda real: lambda lower, upper, outer, name: real(lower, (np.conj(upper[0]), upper[1]), outer, name),
        ),
    ),
    ("CechTable.deltas multiplies by phases[i, k]", (detline.CechTable, "deltas", deltas_times_the_outer_phase)),
    ("bogoliubov_vacuum negates the transported vacuum", (fock, "bogoliubov_vacuum", negated_vacuum)),
    ("caloron._closure returns the live set unclosed", (caloron, "_closure", lambda real: lambda n, live: live)),
    ("caloron._live reads a NaN as zero", (caloron, "_live", live_blind_to_nan)),
]


def counting(fault, calls):
    """fault, with every call of the function it returns counted into calls."""

    def planted(real):
        faulty = fault(real)

        def counted(*args, **kwargs):
            calls.append(1)
            return faulty(*args, **kwargs)

        return counted

    return planted


@pytest.mark.xfail(raises=AssertionError, strict=True, reason="gerbetool all is blind to this fault")
@pytest.mark.parametrize("owner, name, fault", [pytest.param(*patch, id=label) for label, patch in BLIND_SPOTS])
def test_all_sees_the_blind_spot(monkeypatch, owner, name, fault):
    _, params, seed, _ = validate_scenario({"command": "all", "seed": 0})
    calls = []
    clear_package_caches()
    try:
        plant(monkeypatch, owner, name, counting(fault, calls))
        report = run_scenario("all", params, seed)
    finally:
        clear_package_caches()
    if not calls:  # not an AssertionError: a fault the battery never calls is no ledger row
        pytest.fail(f"gerbetool all never called the planted {name}")
    assert report["status"] == "fail"


def test_rows_are_the_checks_of_all():
    rows = [f"{command}:{check}" for _, _, runs in FAULTS for command, _, checks in runs for check in checks]
    assert sorted(set(rows)) == sorted(ALL_CHECK_NAMES)
    # no fault names one check twice
    for _, _, runs in FAULTS:
        named = [f"{command}:{check}" for command, _, checks in runs for check in checks]
        assert len(named) == len(set(named))


@pytest.mark.parametrize("patch, command, params, checks", RUNS + EDGE_RUNS)
def test_fault_fails_its_checks(monkeypatch, patch, command, params, checks):
    _, params, seed, _ = validate_scenario({"command": command, "params": params})
    clear_package_caches()
    try:
        plant(monkeypatch, *patch)
        report = run_scenario(command, params, seed)
    finally:
        clear_package_caches()
    status = {r["name"]: r["status"] for r in report["checks"]}
    assert {check: status[check] for check in checks} == dict.fromkeys(checks, "fail")
    # every other faulted check fails by what it measured, not by a raise
    residual = {r["name"]: r["residual"] for r in report["checks"]}
    measured = [check for check in checks if f"{command}:{check}" not in FAIL_BY_RAISE]
    assert {check: residual[check] < _RAISED for check in measured} == dict.fromkeys(measured, True)


@pytest.mark.parametrize("patch, command, params, checks", RUNS)
def test_fault_planted_before_validation_fails_the_run(
    monkeypatch, capsys, tmp_path, patch, command, params, checks
):
    config, out = CONFIGS / f"{command}.json", tmp_path / "report.json"
    argv = [command, "--config", str(config), "--out", str(out)]
    clear_package_caches()
    try:
        plant(monkeypatch, *patch)
        code = cli.main(argv)
    finally:
        clear_package_caches()
    assert code in (1, 2)
    if code == 2:
        assert [line[:13] for line in capsys.readouterr().err.splitlines()] == ["config error:"]


def test_plants_stack_in_every_binding(monkeypatch):
    # the negated vacuum alone is a ledger row the battery cannot see; the
    # norm fault planted over it must wrap the negation in cli's binding too
    _, params, seed, _ = validate_scenario({"command": "fock"})
    clear_package_caches()
    try:
        plant(monkeypatch, fock, "bogoliubov_vacuum", negated_vacuum)
        plant(monkeypatch, fock, "bogoliubov_vacuum", twice_the_norm)
        assert cli.bogoliubov_vacuum is fock.bogoliubov_vacuum
        report = run_scenario("fock", params, seed)
    finally:
        clear_package_caches()
    (row,) = [r for r in report["checks"] if r["name"] == "bogoliubov-vacuum"]
    assert row["status"] == "fail" and row["residual"] < _RAISED


def test_pairing_reads_no_representation_point(monkeypatch):
    # the winding family is fixed: with the point builders and the holonomy
    # raising, the pairing validates, runs and reads its unfaulted residuals
    def refuse(real):
        def fault(*args, **kwargs):
            raise AssertionError(f"the pairing called {real.__name__}")

        return fault

    for name in ("standard_genus2_su2", "generic_genus2_su2", "holonomy"):
        plant(monkeypatch, moduli, name, refuse)
    _, params, seed, _ = validate_scenario({"command": "pairing"})
    report = run_scenario("pairing", params, seed)
    residuals = {r["name"]: r["residual"] for r in report["checks"]}
    assert residuals == {"winding-model-value": 0.0, "adjoint-scaling": 0.0}
    assert report["status"] == "pass"


def test_nan_in_a_coefficient_the_family_leaves_zero_fails_the_pairing(monkeypatch):
    # the winding family lives along T1 alone, so the pass runs on that one
    # coefficient; a NaN in T2 (su_basis slot 0) makes T2 live, and the pass
    # must then read it rather than skip it and pass on the T1 part
    real = moduli.ModuliFamily.connection
    planted = []

    def with_nan(self, *sampling):
        conn = real(self, *sampling)
        conn.phi[0, 3, 7, 7, 7] = np.nan
        planted.append(caloron._live(conn))
        return conn

    monkeypatch.setattr(moduli.ModuliFamily, "connection", with_nan)
    _, params, seed, _ = validate_scenario({"command": "pairing"})
    report = run_scenario("pairing", params, seed)
    assert planted == [(0, 1)]
    assert {r["name"]: r["status"] for r in report["checks"]} == {
        "winding-model-value": "fail",
        "adjoint-scaling": "fail",
    }
    assert all(np.isnan(r["residual"]) for r in report["checks"])


def test_unfaulted_all_battery_passes():
    report = run_scenario("all", {}, 7)
    assert [r["name"] for r in report["checks"]] == ALL_CHECK_NAMES
    assert report["status"] == "pass"
