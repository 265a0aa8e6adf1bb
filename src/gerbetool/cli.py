"""Scenario runner: every check battery behind one subcommand.

Configuration is a JSON object with a strict schema (unknown keys are
rejected with a one-line diagnostic naming the key); reports are JSON with
canonically ordered keys, so a fixed (scenario, seed, version) reproduces
the same bytes apart from the measured runtime_ms fields.  Exit status is
0 when every check passes, 1 when any check fails or is indeterminate,
and 2 on configuration errors.

Each command is declared once in COMMANDS: its param defaults, bounds,
tests of single keys and battery.  A config is valid when its battery can
be built; validation builds it and drops its checks, a run builds it again
and runs them.
"""

import argparse
import functools
import hashlib
import itertools
import json
import math
import sys
import time
from dataclasses import replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .caloron import CurvaturePass, check_grid, pontryagin_densities, sample_connection
from .detline import CechTable, det_line
from .errors import ArgumentError, ConfigError, CoverViolationError, GerbeToolError, ResourceError
from .fock import (
    FockWindow,
    _require_interior,
    _transport_modes,
    bogoliubov_vacuum,
    car_residual,
    central_term_check,
    check_basis_cost,
    commutator_check,
    cut_shift_check,
    projective_equality_check,
)
from .liealg import Representation
from .moduli import (
    LoopWord,
    ModuliFamily,
    _GHOST_MARGIN,
    conjugate,
    generic_genus2_su2,
    holonomy,
    holonomy_path,
    irreducibility_check,
    random_special_unitary,
    relation_check,
    standard_genus2_su2,
)
from .presets import HOLONOMY_SUITES, diagonal_holonomy, holonomy_suite, su2_family
from .spectral import (
    Holonomy,
    SpectralCut,
    _require_window,
    band,
    dirac_spectrum,
    in_cover,
    rational,
    spectral_flow,
)
from .version import __version__

_RAISED = 1e300

# Cost model of the cocycle battery: the standard suite's Cech triples on
# the 2 n_max - 2 half-integer cuts, one CechTable per spectrum, whose index
# arrays hold C(2 n_max - 2, 3) triples.  The cap is the battery's only
# upper bound on n_max (its bounds are (3, None)) and first refuses n_max 13
# (40 480 triples).  n_max 12 (30 800 triples) takes about 0.04 s on a
# 2-core x86 machine with Python 3.11.7 and numpy 2.4.6 (median of five
# runs; 0.43 s with one compose per triple), and n_max 16 (81 200) 0.09 s.
MAX_CECH_TRIPLES = 32_000

# Cost model of the spectrum battery: the phases make a dense n x n
# holonomy, checked for unitarity by a matrix product; 256 phases take
# about 0.1 s and 86 MB at n_max 2, 1 000 take 0.8 s and 138 MB.
MAX_PHASES = 256

# Cost model of a Dirac spectrum, (2 n_max + 1) modes per color, each a
# Python object: at 65 536 modes the spectrum battery takes about 0.2 s and
# 16 MB, the cover and moduli batteries 0.5 s and 20 MB (2-core x86, Python
# 3.11); 200 002 modes took 2 s and 100 MB.
MAX_MODES = 65_536

# Cost model of the moduli flow checks: each path is one (flow_steps + 1,
# n, n) array, checked once and diagonalized in one call; both paths at
# 32 768 steps take about 0.1 s and 10 MB, at 200 000 about 0.6 s and 53 MB
# (2-core x86, Python 3.11).
MAX_FLOW_STEPS = 32_768

# Cost model of the cover battery's noninteger-cuts-covered: about
# 4 denominator_cap^2 cuts, each an in_cover call; cap 384 takes about 2 s,
# 512 took 3.9 s (2-core x86, Python 3.11), in a flat 36 MB.
MAX_DENOMINATOR_CAP = 384

# Cost model of conjugation-invariance: 2 ceil(conjugations / 2) conjugates, one stack
# checked in one batched pass; 4 096 take about 0.07 s and 51 MB peak (2-core x86, Python 3.11).
MAX_CONJUGATIONS = 4_096

# adjoint-scaling's tolerance on the gap relative to max(|iota v_fund|, 1), iota the adjoint's index
_ADJOINT_TOLERANCE = 1e-6

# the projective check's generator K = e^{11}_0, the color-1 number operator,
# exponentiated at the time 0.35
_NUMBER_OPERATOR = [(1.0, 1, 1, 0)]
_EXP_TIME = 0.35

# the cuts -1/2 and 1/2 of the spectrum, cover and moduli batteries
_HALVES = (SpectralCut(Fraction(-1, 2)), SpectralCut(Fraction(1, 2)))


class _Command(NamedTuple):
    """One command: its param defaults, its battery and the tests of single keys.

    battery(params, seed) raises a GerbeToolError for params it cannot run,
    or returns (name, tolerance, thunk) rows; a thunk returns a residual, or
    a (residual, status) pair for a verdict it sets itself.  Validation
    builds every battery, so a battery leaves each sample, pass, basis,
    table and path to its thunks.  bounds maps a key to (low, high), None
    for no limit; key_tests maps a key to a test of its value alone.
    """

    defaults: dict
    battery: object
    bounds: dict = {}
    key_tests: dict = {}


def _coerce(where, default, value):
    if isinstance(default, int):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{where} must be an integer")
        return value
    if isinstance(default, float):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{where} must be a number")
        try:
            value = float(value)
        except OverflowError:  # an int too large for a float
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{where} must be a finite number")
        return value
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string")
        return value
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a nonempty list of numbers")
    return [_coerce(where, 0.0, item) for item in value]


def _rational(where, value):
    try:
        rational(value)
    except ArgumentError:
        raise ConfigError(f"{where} is not a rational: {value!r}") from None


def _suite(where, value):
    if value not in HOLONOMY_SUITES:
        raise ConfigError(f"{where} must be 'trivial' or 'standard'")


def _phases(where, phases):
    """At most MAX_PHASES phases, none putting an eigenvalue on the spectrum battery's cuts +-1/2.

    The count is checked before the holonomy is built.  A phase on a cut
    leaves half-cut-covered failing and unit-band-per-color raising.  The
    eigenvalues nearest +-1/2 have modes -1 and 0, so the spectrum at
    n_max 1 answers for every n_max, and the battery asks in_cover only in
    its checks.
    """
    if len(phases) > MAX_PHASES:
        raise ResourceError(f"{len(phases)} phases, over the cap of {MAX_PHASES}")
    spec = dirac_spectrum(diagonal_holonomy(phases), 1)
    for cut in _HALVES:
        if not in_cover(spec, cut):
            raise CoverViolationError(f"phases put an eigenvalue on the cut {cut.value}")


def _require_modes(n_max, colors):
    """ResourceError when a spectrum of n_max and colors exceeds MAX_MODES."""
    modes = (2 * n_max + 1) * colors
    if modes > MAX_MODES:
        raise ResourceError(
            f"n_max {n_max} with {colors} colors makes {modes} modes, over the cap of {MAX_MODES}"
        )


def validate_scenario(obj, cli_command=None):
    """Strict-schema validation; returns (command, params, seed, output_path).

    The params are valid when their battery can be built; a GerbeToolError
    of a key test or the battery becomes a ConfigError naming the command.
    """
    if not isinstance(obj, dict):
        raise ConfigError("scenario must be a JSON object")
    for key in obj:
        if key not in ("command", "params", "seed", "output_path"):
            raise ConfigError(f"unknown key '{key}' in scenario")
    command = obj.get("command", cli_command)
    if command is None:
        raise ConfigError("missing key 'command'")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command '{command}'")
    if cli_command is not None and command != cli_command:
        raise ConfigError(
            f"key 'command' ('{command}') does not match subcommand '{cli_command}'"
        )
    raw = obj.get("params", {})
    if not isinstance(raw, dict):
        raise ConfigError("key 'params' must be an object")
    seed = obj.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("key 'seed' must be an integer")
    if seed < 0:  # np.random.default_rng refuses it
        raise ConfigError("key 'seed' must be >= 0")
    output_path = obj.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError("key 'output_path' must be a string")
    decl = COMMANDS[command]
    params = {k: (list(v) if isinstance(v, list) else v) for k, v in decl.defaults.items()}
    try:
        for key, value in raw.items():
            where = f"key '{key}' in params for command '{command}'"
            if key not in params:
                raise ConfigError(f"unknown {where}")
            params[key] = _coerce(where, decl.defaults[key], value)
            if key in decl.key_tests:
                decl.key_tests[key](where, params[key])
        for key, (low, high) in decl.bounds.items():
            where = f"key '{key}' in params for command '{command}'"
            if low is not None and params[key] < low:
                raise ConfigError(f"{where} must be >= {low}")
            if high is not None and params[key] > high:
                raise ConfigError(f"{where} must be <= {high}")
        decl.battery(params, seed)
    except ConfigError:
        raise
    except GerbeToolError as exc:
        raise ConfigError(f"params for command '{command}': {exc}") from None
    return command, params, seed, output_path


def emit_schema():
    return {
        "commands": {name: {"params": decl.defaults} for name, decl in COMMANDS.items()},
        "scenario": {
            "command": list(COMMANDS),
            "output_path": "string, optional; report is also printed to stdout",
            "params": "object; per-command keys with the defaults listed above",
            "seed": "integer, default 0",
        },
    }


def _run_checks(checks):
    """Time each (name, tolerance, thunk) triple and record its verdict.

    A thunk that raises is a fail with the residual _RAISED and one stderr
    line naming it, never a traceback.
    """
    records = []
    for name, tolerance, thunk in checks:
        start = time.perf_counter()
        try:
            value = thunk()
        except Exception as exc:  # any raised check is a fail, never a traceback
            print(f"check {name!r} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            value = (_RAISED, "fail")
        ms = (time.perf_counter() - start) * 1000.0
        if isinstance(value, tuple):
            residual, status = value
        else:
            residual = float(value)
            # a residual is a size: a negative one is a sign slip, and NaN fails both tests
            status = "pass" if 0.0 <= residual <= tolerance else "fail"
        records.append(
            {
                "name": name,
                "residual": float(residual),
                "runtime_ms": round(ms, 3),
                "status": status,
                "tolerance": float(tolerance),
            }
        )
    return records


def _battery_spectrum(params, seed):
    """MAX_MODES modes and the cut 1/2 in the window; the first check builds the spectrum."""
    n_max = params["n_max"]
    phases = params["phases"]
    _require_modes(n_max, len(phases))
    _require_window(_HALVES[1], n_max)
    spec = functools.cache(lambda: dirac_spectrum(diagonal_holonomy(phases), n_max))
    return [
        ("mode-count", 0.0, lambda: abs(len(spec().modes) - (2 * n_max + 1) * len(phases))),
        ("half-cut-covered", 0.0, lambda: 0.0 if in_cover(spec(), _HALVES[1]) else 1.0),
        ("unit-band-per-color", 0.0, lambda: abs(len(band(spec(), *_HALVES)) - len(phases))),
    ]


def _battery_cover(params, seed):
    """The 2 x 2 identity holonomy's spectrum within MAX_MODES; the first check builds it."""
    n_max = params["n_max"]
    cap = params["denominator_cap"]
    _require_modes(n_max, 2)
    spec = functools.cache(lambda: dirac_spectrum(Holonomy(np.eye(2, dtype=complex)), n_max))

    def noninteger_covered():
        bad = 0
        for q in range(2, cap + 1):
            for p in range(-2 * q + 1, 2 * q):
                cut = Fraction(p, q)
                if cut.denominator == 1:
                    continue
                if not in_cover(spec(), SpectralCut(cut)):
                    bad += 1
        return float(bad)

    def integers_excluded():
        integers = range(-(n_max - 1), n_max)
        return float(sum(in_cover(spec(), SpectralCut(Fraction(k))) for k in integers))

    def triple_valid():
        table = CechTable(spec(), (*_HALVES, SpectralCut(Fraction(3, 2))), det_line)
        return abs(table.deltas()[0] - 1.0)

    def triple_rejects_spectrum_cut():
        try:
            CechTable(spec(), (*_HALVES, SpectralCut(Fraction(2))), det_line)
        except CoverViolationError:
            return 0.0
        return 1.0

    return [
        ("noninteger-cuts-covered", 0.0, noninteger_covered),
        ("integer-cuts-excluded", 0.0, integers_excluded),
        ("triple-delta-trivial", 1e-12, triple_valid),
        ("triple-rejects-spectrum-cut", 0.0, triple_rejects_spectrum_cut),
    ]


def _battery_cocycle(params, seed):
    """The standard suite's Cech triples within MAX_CECH_TRIPLES; each table is built once."""
    n_max = params["n_max"]
    triples = len(HOLONOMY_SUITES["standard"]) * math.comb(2 * n_max - 2, 3)
    if triples > MAX_CECH_TRIPLES:
        raise ResourceError(
            f"n_max {n_max} needs {triples} Cech triples, over the cap of {MAX_CECH_TRIPLES}"
        )
    cuts = [SpectralCut(Fraction(2 * k + 1, 2)) for k in range(-n_max + 1, n_max - 1)]

    @functools.cache  # associativity reads su3-generic-a's table, which its delta row built
    def table(hol):
        """The line of every pair of the spectrum's admissible cuts, each built once."""
        spec = dirac_spectrum(hol, n_max)
        return CechTable(spec, [c for c in cuts if in_cover(spec, c)], det_line)

    def worst(hol):
        # np.max keeps a NaN ratio, where max() would drop it
        return lambda: np.max(np.abs(table(hol).deltas() - 1.0), initial=0.0)

    def associativity():
        # both bracketings of every quadruple, and the line over its outer cuts
        return np.max(table(diagonal_holonomy((0.2, 0.45, 0.8))).associativity(), initial=0.0)

    return [
        (f"delta-triviality-{label}", 1e-12, worst(hol))
        for label, hol in holonomy_suite(params["suite"])
    ] + [("associativity", 1e-12, associativity)]


def _battery_fock(params, seed):
    """Window, margin, cost and band rules, asked of the library; they build no matrix.

    The commutator sweep needs a window margin of 2 * sweep around the cut,
    the central term and the projective exponential a margin of 1, and the
    largest basis is built at pair_cap + 1.  The basis cost is checked
    before the band's modes are listed.  The sweep is one commutator_check
    call over every ordered tuple of the n_colors**2 * (2 * sweep + 1)
    currents, of which it evaluates each unordered pair once (210 of the
    400 at the defaults), in batches of at most MAX_BATCH_ENTRIES
    hop-kernel entries.  The exponential at _EXP_TIME stays inside
    check_expm_cost on every basis check_basis_cost admits, so only
    _expm_multiply asks it.
    """
    window = FockWindow(params["n_colors"], params["n_max"], params["cut"])
    sweep = params["sweep"]
    cap = params["pair_cap"]
    _require_interior(window, max(2 * sweep, 1))
    check_basis_cost(window.n_slots, cap + 1)
    mu, _ = _transport_modes(window, params["mu"])

    def commutator_sweep():
        colors = range(1, window.n_colors + 1)
        shifts = range(-sweep, sweep + 1)
        tuples = itertools.product(colors, colors, colors, colors, shifts, shifts)
        return commutator_check(window, tuples, cap)

    def bogoliubov():
        (_, _, amps), unannihilated = bogoliubov_vacuum(window, mu)
        # the larger of two sizes: no sign slip can cancel one defect against the
        # other, and np.maximum, unlike max(), keeps a NaN
        return np.maximum(len(unannihilated), abs(float(np.linalg.norm(amps)) - 1.0))

    def projective():
        return projective_equality_check(
            _NUMBER_OPERATOR, _EXP_TIME, window, mu, pair_cap=cap + 1
        )

    def cut_shift():
        residual, n_shift = cut_shift_check(1, 1, 0, window, mu, cap)
        expected = len(
            [k for k in range(-window.N, window.N + 1) if window.cut < k <= mu]
        )
        return np.maximum(residual, abs(n_shift - expected))

    return [
        ("car-relations", 0.0, lambda: car_residual(window, cap)),
        ("commutator-sweep", 0.0, commutator_sweep),
        ("central-term", 0.0, lambda: central_term_check(window)),
        ("bogoliubov-vacuum", 0.0, bogoliubov),
        ("cut-shift", 0.0, cut_shift),
        ("projective-exponential", 1e-10, projective),
    ]


def _battery_caloron(params, seed):
    """Grid rules of both grids, the fine one binding the cost cap; the first check samples."""
    family = su2_family()
    theta_points, base_points = params["theta_points"], params["base_points"]
    for points in (base_points, params["refine_factor"] * base_points):
        check_grid(theta_points, points, family.n)

    @functools.cache
    def coarse():
        # one coarse curvature pass serves both checks; the fine pass is ms-identity-order's own
        conn = sample_connection(family, theta_points, base_points)
        return CurvaturePass(conn, Representation.adjoint(conn.n))

    def ms_order():
        _, order = coarse().identity_check(params["refine_factor"])
        # no max() here: max(0.0, 1.9 - nan) is 0.0, and a NaN order must fail
        return 0.0 if order >= 1.9 else 1.9 - order

    def rho_scaling():
        worst, scale = coarse().scaling_check()
        return worst / scale if scale > 0 else worst

    return [
        ("ms-identity-order", 0.0, ms_order),
        ("rho-scaling-adjoint", 1e-8, rho_scaling),
    ]


def _battery_moduli(params, seed):
    """The cut 1/2 in the window and the su2-balanced path's spectra in MAX_MODES."""
    steps = params["flow_steps"]
    n_max = params["n_max"]
    _require_modes(n_max, 2)
    _require_window(_HALVES[1], n_max)

    @functools.cache
    def points():
        # the quaternion point and a generic one, one stack read by every point check
        rep = standard_genus2_su2()
        generic = generic_genus2_su2(np.random.default_rng(seed))
        return replace(rep, generators=np.stack((rep.generators, generic.generators)))

    # the points' residuals and verdicts, each shared by two checks
    relation = functools.cache(lambda: relation_check(points()))
    verdicts = functools.cache(lambda: irreducibility_check(points()))

    def irreducibility():
        verdict, dim = verdicts()
        # a point misses by its commutant's extra dimensions, and by 1 unless its verdict is True
        residual = np.max(np.abs(dim - 1) + ~verdict.astype(bool))
        return (float(residual), "indeterminate") if None in verdict.tolist() else residual

    def conjugation_invariance():
        # ceil(conjugations / 2) elements from a child stream: the seed's own
        # stream would repeat the generic point's A_1 and B_1
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        h = random_special_unitary(2, rng, -(-params["conjugations"] // 2))
        moved = conjugate(points(), h[:, None])  # np.max below keeps a NaN residual
        worst = np.max(np.abs(relation_check(moved) - relation()))
        verdict, dim = verdicts()
        moved_verdict, moved_dim = irreducibility_check(moved)
        if np.any((moved_verdict != verdict) | (moved_dim != dim)):  # an indeterminate point differs too
            worst = np.maximum(worst, 1.0)
        return worst

    def letter_map():
        # each letter, each inverse letter and [a1, b1] at both points, against the
        # products written out from the generators (an inverse is the conjugate transpose)
        gens = points().generators
        invs = gens.conj().swapaxes(-1, -2)
        words = [(((k + 1, 1),), gens[:, k]) for k in range(4)]
        words += [(((k + 1, -1),), invs[:, k]) for k in range(4)]
        words.append((((1, 1), (2, 1), (1, -1), (2, -1)), gens[:, 0] @ gens[:, 1] @ invs[:, 0] @ invs[:, 1]))
        # np.max, unlike max(), keeps a NaN gap
        gaps = [np.abs(holonomy(points(), LoopWord(letters)) - want).max() for letters, want in words]
        return np.max(gaps)

    def flow(name, expected):
        return lambda: abs(spectral_flow(holonomy_path(name, steps), _HALVES[1], n_max) - expected)

    return [
        ("relation-residual", 1e-12, lambda: np.max(relation())),
        ("irreducibility", 0.0, irreducibility),
        ("conjugation-invariance", 1e-12, conjugation_invariance),
        ("letter-map", 1e-12, letter_map),
        ("flow-u1-winding", 0.0, flow("u1-winding", 1)),
        ("flow-su2-balanced", 0.0, flow("su2-balanced", 0)),
    ]


def _battery_pairing(params, seed):
    """Grid rules of the winding family's su(2) sampling; the sample is built by the first check."""
    sampling = (params["theta_points"], params["base_points"])
    check_grid(*sampling, 2, _GHOST_MARGIN)
    reps = (Representation.fundamental(2), Representation.adjoint(2))
    winding = ModuliFamily(modulation=params["modulation"])

    @functools.cache
    def densities():
        # one sample and one curvature pass for both checks; a raise is not cached
        conn = winding.connection(*sampling)
        return pontryagin_densities(conn, reps)

    def adjoint_scaling():
        fund, adj_form = densities()
        v_fund, iota = fund.integrate(), float(reps[1].index)
        gap = abs(adj_form.integrate() - iota * v_fund)
        # the family lies along T1, which the adjoint map pushes by exactly
        # +-2, so the adjoint pairing is exactly 4 times the fundamental one
        # and the gap reads 0; the 1 keeps the scale where a faulted
        # fundamental pairing vanishes
        return gap / max(abs(iota * v_fund), 1.0)

    return [
        ("winding-model-value", 0.15, lambda: abs(densities()[0].integrate() + 2.0)),
        ("adjoint-scaling", _ADJOINT_TOLERANCE, adjoint_scaling),
    ]


def _battery_all(params, seed):
    """Every other command's rows at its defaults, named '<command>:<check>'.

    A generator: each battery is built once the one before has run, so one
    battery's samples are held at a time.
    """
    for command, decl in COMMANDS.items():
        if command == "all":
            continue
        for name, tolerance, thunk in decl.battery(dict(decl.defaults), seed):
            yield f"{command}:{name}", tolerance, thunk


COMMANDS = {
    "spectrum": _Command(
        {"n_max": 6, "phases": [0.15, 0.55]},
        _battery_spectrum,
        key_tests={"phases": _phases},
    ),
    "cover": _Command(
        {"n_max": 6, "denominator_cap": 4},
        _battery_cover,
        # the rejected triple puts a cut at 2, inside (-3, 3); at cap q the
        # non-integer cuts keep 1/q from the integer spectrum, so below 4
        # they cannot see a gap tolerance of 1/q or less
        bounds={"n_max": (3, None), "denominator_cap": (4, MAX_DENOMINATOR_CAP)},
    ),
    "cocycle": _Command(
        {"n_max": 4, "suite": "standard"},
        _battery_cocycle,
        # n_max 3 gives the half-integer cuts -3/2 .. 3/2: four triples and
        # one quadruple
        bounds={"n_max": (3, None)},
        key_tests={"suite": _suite},
    ),
    "fock": _Command(
        {"n_colors": 2, "n_max": 6, "cut": "1/2", "mu": "5/2", "sweep": 2, "pair_cap": 2},
        _battery_fock,
        # two colors, so the commutator sweep meets the brackets of e^{ij}
        # with i != j; the sweep and the pair cap are counts
        bounds={"n_colors": (2, None), "sweep": (0, None), "pair_cap": (1, None)},
        key_tests={"cut": _rational, "mu": _rational},
    ),
    "caloron": _Command(
        {"theta_points": 12, "base_points": 16, "refine_factor": 2},
        _battery_caloron,
        # ms-identity-order measures its order between two base grids
        bounds={"refine_factor": (2, None)},
    ),
    "moduli": _Command(
        {"conjugations": 10, "flow_steps": 48, "n_max": 4},
        _battery_moduli,
        # a path of flow_steps samples moves each phase 1/flow_steps modes
        # per step, and su2-balanced is first resolved at 5 steps
        bounds={"conjugations": (1, MAX_CONJUGATIONS), "flow_steps": (5, MAX_FLOW_STEPS)},
    ),
    "pairing": _Command(
        {"modulation": 0.2, "theta_points": 8, "base_points": 12},
        _battery_pairing,
        # the pairing is -2 out of density terms of order
        # modulation^2; past 1e6 roundoff cancels it
        bounds={"modulation": (-1e6, 1e6)},
    ),
    "all": _Command({}, _battery_all),
}


def run_scenario(command, params, seed):
    """Build one command's battery, run its rows and assemble the report structure."""
    records = _run_checks(COMMANDS[command].battery(params, seed))
    status = "pass" if all(r["status"] == "pass" for r in records) else "fail"
    canonical = json.dumps(
        {"command": command, "params": params, "seed": seed},
        sort_keys=True,
        separators=(",", ":"),
    )
    return {
        "checks": records,
        "command": command,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "params": params,
        "seed": seed,
        "status": status,
        "version": __version__,
    }


def render_report(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gerbetool",
        description="Run spectral, cocycle, Fock, caloron, and moduli check batteries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"run the '{name}' check battery")
        cmd.add_argument("--config", help="JSON scenario file")
        cmd.add_argument("--out", help="also write the report to this path")
        cmd.add_argument("--seed", type=int, help="override the scenario seed")
    sub.add_parser("schema", help="print the config schema with defaults")
    args = parser.parse_args(argv)

    if args.command == "schema":
        sys.stdout.write(json.dumps(emit_schema(), sort_keys=True, indent=2) + "\n")
        return 0

    try:
        scenario = {}
        if args.config:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    scenario = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from None
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if args.seed is not None and isinstance(scenario, dict):
            scenario["seed"] = args.seed  # checked as the config's seed is
        command, params, seed, output_path = validate_scenario(scenario, args.command)
        if args.out:
            output_path = args.out
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    report = run_scenario(command, params, seed)
    text = render_report(report)
    sys.stdout.write(text)
    if output_path:
        try:
            with open(output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"config error: cannot write report: {exc}", file=sys.stderr)
            return 2
    return 0 if report["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
