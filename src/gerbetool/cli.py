"""Scenario runner: every check battery behind one subcommand.

Configuration is a JSON object with a strict schema (unknown keys are
rejected with a one-line diagnostic naming the key); reports are JSON with
canonically ordered keys, so a fixed (scenario, seed, version) reproduces
the same bytes apart from the measured runtime_ms fields.  Exit status is
0 when every check passes, 1 when any check fails or is indeterminate,
and 2 on configuration errors.
"""

import argparse
import hashlib
import itertools
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from .caloron import (
    b_field,
    check_grid,
    index_curvature,
    ms_identity_check,
    pontryagin_density,
    higgs_gauge_law_check,
    rho_scaling_check,
)
from .detline import CechTriple, compose, delta_triviality, det_line
from .errors import ConfigError, CoverViolationError, GerbeToolError
from .fock import (
    FockWindow,
    _require_interior,
    _transport_modes,
    bogoliubov_vacuum,
    car_residual,
    check_basis_cost,
    commutator_check,
    cut_shift_check,
    projective_equality_check,
    sigma,
    vacuum,
)
from .liealg import Representation, dynkin_index
from .moduli import (
    LoopWord,
    ModuliFamily,
    check_sampling,
    conjugate,
    holonomy,
    holonomy_path,
    irreducibility_check,
    pontryagin_pairing,
    random_special_unitary,
    relation_check,
    standard_genus2_su2,
)
from .presets import (
    connection_preset,
    connection_preset_names,
    preset_family,
    winding_gauge,
)
from .spectral import (
    Holonomy,
    SpectralCut,
    _require_window,
    band,
    dirac_spectrum,
    in_cover,
    spectral_flow,
)
from .version import __version__

COMMANDS = (
    "spectrum",
    "cover",
    "cocycle",
    "fock",
    "caloron",
    "moduli",
    "pairing",
    "all",
)

_PARAM_SCHEMAS = {
    "spectrum": {"n_max": 6, "phases": [0.15, 0.55]},
    "cover": {"n_max": 6, "denominator_cap": 4},
    "cocycle": {"n_max": 4, "suite": "standard", "tolerance": 1e-12},
    "fock": {
        "n_colors": 2,
        "n_max": 6,
        "cut": "1/2",
        "mu": "5/2",
        "sweep": 2,
        "pair_cap": 2,
        "exp_time": 0.35,
    },
    "caloron": {
        "preset": "su2-family",
        "theta_points": 12,
        "base_points": 16,
        "refine_factor": 2,
        "amplitude": 0.7,
        "winding": 1,
    },
    "moduli": {"conjugations": 10, "flow_steps": 48, "n_max": 4},
    "pairing": {
        "w1": 1,
        "w2": 1,
        "modulation": 0.2,
        "theta_points": 8,
        "base_points": 12,
        "ghost_margin": 4,
    },
    "all": {},
}

_RAISED = 1e300


def _finite(where, value):
    """float(value), rejecting NaN, infinities and ints too large for a float."""
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{where} must be a finite number")
    return out


def _coerce(command, key, default, value):
    where = f"key '{key}' in params for command '{command}'"
    if isinstance(default, bool):
        raise ConfigError(f"{where} has no boolean schema")
    if isinstance(default, int):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{where} must be an integer")
        return value
    if isinstance(default, float):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{where} must be a number")
        return _finite(where, value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string")
        if key in ("cut", "mu"):
            try:
                Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise ConfigError(f"{where} is not a rational: {value!r}") from None
        if key == "suite" and value not in ("trivial", "standard"):
            raise ConfigError(f"{where} must be 'trivial' or 'standard'")
        if key == "preset" and value not in connection_preset_names():
            raise ConfigError(
                f"{where} must be one of {connection_preset_names()}"
            )
        return value
    if isinstance(default, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where} must be a nonempty list of numbers")
        out = []
        for item in value:
            if not isinstance(item, (int, float)) or isinstance(item, bool):
                raise ConfigError(f"{where} must contain only numbers")
            out.append(_finite(where, item))
        return out
    raise ConfigError(f"{where} has an unsupported schema type")


def validate_scenario(obj, cli_command=None):
    """Strict-schema validation; returns (command, params, seed, output_path)."""
    if not isinstance(obj, dict):
        raise ConfigError("scenario must be a JSON object")
    for key in obj:
        if key not in ("command", "params", "seed", "output_path"):
            raise ConfigError(f"unknown key '{key}' in scenario")
    command = obj.get("command", cli_command)
    if command is None:
        raise ConfigError("missing key 'command'")
    if command not in _PARAM_SCHEMAS:
        raise ConfigError(f"unknown command '{command}'")
    if cli_command is not None and command != cli_command:
        raise ConfigError(
            f"key 'command' ('{command}') does not match subcommand '{cli_command}'"
        )
    raw = obj.get("params", {})
    if not isinstance(raw, dict):
        raise ConfigError("key 'params' must be an object")
    schema = _PARAM_SCHEMAS[command]
    params = {k: (list(v) if isinstance(v, list) else v) for k, v in schema.items()}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown key '{key}' in params for command '{command}'")
        params[key] = _coerce(command, key, schema[key], value)
    if command in _RANGE_RULES:
        try:
            _RANGE_RULES[command](params)
        except ConfigError:
            raise
        except GerbeToolError as exc:
            raise ConfigError(f"params for command '{command}': {exc}") from None
    seed = obj.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("key 'seed' must be an integer")
    output_path = obj.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError("key 'output_path' must be a string")
    return command, params, seed, output_path


def _require_at_least(command, params, key, low):
    if params[key] < low:
        raise ConfigError(
            f"key '{key}' in params for command '{command}' must be >= {low}"
        )


def _check_fock(params):
    """Ranges and cross-field rules under which every fock check is meaningful.

    The library's own rules (window, margin, band and cost model) are asked
    of the library: the commutator sweep needs a window margin of 2 * sweep
    around the cut, the central term and the projective exponential a
    margin of 1, and the largest basis is built at pair_cap + 1.  Only the
    rules the library lacks are written here: the off-diagonal projective
    generator needs two colors, and the sweep and pair cap are counts.
    """
    for key, low in (("n_colors", 2), ("sweep", 0), ("pair_cap", 1)):
        _require_at_least("fock", params, key, low)
    window = FockWindow(params["n_colors"], params["n_max"], params["cut"])
    _require_interior(window, max(2 * params["sweep"], 1))
    _transport_modes(window, params["mu"])
    check_basis_cost(window.n_slots, params["pair_cap"] + 1)


def _check_caloron(params):
    """Grid rules of the caloron battery, asked of the library for both grids.

    ms-identity-order measures its order between base grids M and
    refine_factor * M, so it needs a refinement; the fine grid is the one
    the cost cap binds.
    """
    _require_at_least("caloron", params, "refine_factor", 2)
    n = preset_family(params["preset"], params["amplitude"]).n
    coarse = params["base_points"]
    for base_points in (coarse, params["refine_factor"] * coarse):
        check_grid(params["theta_points"], base_points, 3, n)


def _check_pairing(params):
    """Grid rules of the pairing battery's su(2) family samplings."""
    check_sampling(
        params["theta_points"],
        params["base_points"],
        params["ghost_margin"],
        standard_genus2_su2().n,
    )


def _check_spectrum(params):
    """The battery's cuts -1/2 and 1/2 must lie in the window, asked of the library."""
    _require_window(SpectralCut(Fraction(1, 2)), params["n_max"])


def _check_cover(params):
    """The cover battery's rejected triple puts a cut at 2, inside (-3, 3).

    Its non-integer cuts need a denominator 2 at least, or none are tested.
    """
    _require_at_least("cover", params, "n_max", 3)
    _require_at_least("cover", params, "denominator_cap", 2)


def _check_cocycle(params):
    """The half-integer cuts of the cocycle battery form a triple from n_max 3.

    n_max 3 gives the cuts -3/2 .. 3/2: four triples and one quadruple.
    """
    _require_at_least("cocycle", params, "n_max", 3)
    _require_at_least("cocycle", params, "tolerance", 0.0)


def _check_moduli(params):
    """The flow checks need the cut 1/2 in the window, asked of the library.

    A path of flow_steps samples moves each phase 1/flow_steps modes per
    step, and su2-balanced is first resolved at 5 steps.
    """
    _require_at_least("moduli", params, "conjugations", 1)
    _require_at_least("moduli", params, "flow_steps", 5)
    _require_window(SpectralCut(Fraction(1, 2)), params["n_max"])


# Each rule raises ConfigError, or a library GerbeToolError that
# validate_scenario turns into one.
_RANGE_RULES = {
    "spectrum": _check_spectrum,
    "cover": _check_cover,
    "cocycle": _check_cocycle,
    "moduli": _check_moduli,
    "fock": _check_fock,
    "caloron": _check_caloron,
    "pairing": _check_pairing,
}


def emit_schema():
    return {
        "commands": {name: {"params": _PARAM_SCHEMAS[name]} for name in COMMANDS},
        "scenario": {
            "command": list(COMMANDS),
            "output_path": "string, optional; report is also printed to stdout",
            "params": "object; per-command keys with the defaults listed above",
            "seed": "integer, default 0",
        },
    }


def _timed(records, name, tolerance, func):
    start = time.perf_counter()
    try:
        value = func()
    except Exception as exc:  # any raised check is a fail, never a traceback
        ms = (time.perf_counter() - start) * 1000.0
        print(f"check {name!r} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        records.append(
            {
                "name": name,
                "residual": _RAISED,
                "runtime_ms": round(ms, 3),
                "status": "fail",
                "tolerance": float(tolerance),
            }
        )
        return
    ms = (time.perf_counter() - start) * 1000.0
    if isinstance(value, tuple):
        residual, status = value
    else:
        residual = float(value)
        status = "pass" if residual <= tolerance else "fail"
    records.append(
        {
            "name": name,
            "residual": float(residual),
            "runtime_ms": round(ms, 3),
            "status": status,
            "tolerance": float(tolerance),
        }
    )


def _diag_holonomy(phases):
    return Holonomy(np.diag(np.exp(2j * np.pi * np.asarray(phases, dtype=float))))


def _battery_spectrum(params, seed):
    records = []
    n_max = params["n_max"]
    phases = params["phases"]
    hol = _diag_holonomy(phases)
    spec = dirac_spectrum(hol, n_max)
    half = SpectralCut(Fraction(1, 2))

    _timed(
        records,
        "mode-count",
        0.0,
        lambda: abs(len(spec.modes) - (2 * n_max + 1) * len(phases)),
    )
    _timed(records, "half-cut-covered", 0.0, lambda: 0.0 if in_cover(spec, half) else 1.0)
    _timed(
        records,
        "unit-band-per-color",
        0.0,
        lambda: abs(
            len(band(spec, SpectralCut(Fraction(-1, 2)), half)) - len(phases)
        ),
    )
    _timed(
        records,
        "constant-path-flow",
        0.0,
        lambda: abs(spectral_flow([hol, hol], half, n_max)),
    )
    return records


def _battery_cover(params, seed):
    records = []
    n_max = params["n_max"]
    cap = params["denominator_cap"]
    hol = Holonomy(np.eye(2, dtype=complex))
    spec = dirac_spectrum(hol, n_max)

    def noninteger_covered():
        bad = 0
        for q in range(2, cap + 1):
            for p in range(-2 * q + 1, 2 * q):
                cut = Fraction(p, q)
                if cut.denominator == 1:
                    continue
                if not in_cover(spec, SpectralCut(cut)):
                    bad += 1
        return float(bad)

    def integers_excluded():
        return float(
            sum(
                in_cover(spec, SpectralCut(Fraction(k)))
                for k in range(-(n_max - 1), n_max)
            )
        )

    def triple_valid():
        triple = CechTriple(
            spec,
            SpectralCut(Fraction(-1, 2)),
            SpectralCut(Fraction(1, 2)),
            SpectralCut(Fraction(3, 2)),
        )
        return abs(delta_triviality(triple) - 1.0)

    def triple_rejects_spectrum_cut():
        try:
            CechTriple(
                spec,
                SpectralCut(Fraction(-1, 2)),
                SpectralCut(Fraction(1, 2)),
                SpectralCut(Fraction(2)),
            )
        except CoverViolationError:
            return 0.0
        return 1.0

    _timed(records, "noninteger-cuts-covered", 0.0, noninteger_covered)
    _timed(records, "integer-cuts-excluded", 0.0, integers_excluded)
    _timed(records, "triple-delta-trivial", 1e-12, triple_valid)
    _timed(records, "triple-rejects-spectrum-cut", 0.0, triple_rejects_spectrum_cut)
    return records


_TRIVIAL_SUITE = (
    ("u1-trivial", (0.0,)),
    ("su2-trivial", (0.0, 0.0)),
    ("su3-trivial", (0.0, 0.0, 0.0)),
)

_STANDARD_SUITE = (
    ("u1-trivial", (0.0,)),
    ("u1-generic-a", (0.23,)),
    ("u1-generic-b", (0.77,)),
    ("u1-generic-c", (0.41,)),
    ("su2-trivial", (0.0, 0.0)),
    ("su2-split", (0.25, 0.75)),
    ("su2-degenerate", (0.3, 0.3)),
    ("su2-generic", (0.11, 0.87)),
    ("su2-degenerate-high", (0.6, 0.6)),
    ("su2-near-trivial", (0.02, 0.98)),
    ("su3-trivial", (0.0, 0.0, 0.0)),
    ("su3-central", (1 / 3, 1 / 3, 1 / 3)),
    ("su3-generic-a", (0.2, 0.45, 0.8)),
    ("su3-clustered", (0.4, 0.41, 0.42)),
    ("su3-rational", (1 / 7, 2 / 7, 4 / 7)),
    ("su3-generic-b", (0.05, 0.55, 0.95)),
    ("su3-generic-c", (0.15, 0.35, 0.85)),
    ("su3-generic-d", (0.9, 0.27, 0.63)),
    ("su3-generic-e", (0.33, 0.66, 0.99)),
    ("su3-repeated", (0.08, 0.08, 0.84)),
)


def holonomy_suite(name):
    """Named catalog of diagonal test holonomies: (label, Holonomy) pairs."""
    if name == "trivial":
        cases = _TRIVIAL_SUITE
    elif name == "standard":
        cases = _STANDARD_SUITE
    else:
        raise ConfigError(f"unknown suite '{name}'")
    return [(label, _diag_holonomy(ph)) for label, ph in cases]


def _battery_cocycle(params, seed):
    records = []
    n_max = params["n_max"]
    tol = params["tolerance"]
    cuts = [SpectralCut(Fraction(2 * k + 1, 2)) for k in range(-n_max + 1, n_max - 1)]

    for label, hol in holonomy_suite(params["suite"]):
        spec = dirac_spectrum(hol, n_max)
        admissible = [c for c in cuts if in_cover(spec, c)]

        def worst(spec=spec, admissible=admissible):
            out = 0.0
            for lam, mu, tau in itertools.combinations(admissible, 3):
                delta = delta_triviality(CechTriple(spec, lam, mu, tau))
                out = np.maximum(out, abs(delta - 1.0))
            return out

        _timed(records, f"delta-triviality-{label}", tol, worst)

    def associativity():
        hol = _diag_holonomy((0.2, 0.45, 0.8))
        spec = dirac_spectrum(hol, n_max)
        admissible = [c for c in cuts if in_cover(spec, c)]
        out = 0.0
        for quad in itertools.combinations(admissible, 4):
            lines = [
                det_line(spec, quad[k], quad[k + 1]) for k in range(3)
            ]
            left = compose(compose(lines[0], lines[1]), lines[2])
            right = compose(lines[0], compose(lines[1], lines[2]))
            out = np.maximum(
                out, abs(left.canonical_phase() - right.canonical_phase())
            )
        return out

    _timed(records, "associativity", 1e-12, associativity)
    return records


def _battery_fock(params, seed):
    records = []
    window = FockWindow(params["n_colors"], params["n_max"], Fraction(params["cut"]))
    mu = Fraction(params["mu"])
    sweep = params["sweep"]
    cap = params["pair_cap"]
    t = params["exp_time"]

    _timed(records, "car-relations", 0.0, lambda: car_residual(window, cap))

    def commutator_sweep():
        colors = range(1, window.n_colors + 1)
        worst = 0.0
        for i, j, k, l in itertools.product(colors, repeat=4):
            for m in range(-sweep, sweep + 1):
                for n in range(-sweep, sweep + 1):
                    worst = np.maximum(
                        worst, commutator_check(i, j, k, l, m, n, window, cap)
                    )
        return worst

    def central_term():
        vac_mask = vacuum(window).mask
        worst = 0.0
        for m in (1, 2):
            op_a = sigma(1, 1, m, window)
            op_b = sigma(1, 1, -m, window)
            probe = {vac_mask: 1.0 + 0j}
            lhs = op_a.apply_masks(op_b.apply_masks(probe))
            for mask, amp in op_b.apply_masks(op_a.apply_masks(probe)).items():
                lhs[mask] = lhs.get(mask, 0j) - amp
            worst = np.maximum(worst, abs(lhs.get(vac_mask, 0j) - m))
        return worst

    def bogoliubov():
        vec = bogoliubov_vacuum(window, mu)
        return abs(vec.norm2() - 1.0)

    def cut_shift():
        residual, n_shift = cut_shift_check(1, 1, 0, window, mu, cap)
        expected = len(
            [k for k in range(-window.N, window.N + 1) if window.cut < k <= mu]
        )
        return residual + abs(n_shift - expected)

    def projective():
        worst = 0.0
        for terms in (
            [(1.0, 1, 1, 1), (-1.0, 1, 1, -1)],
            [(0.5, 1, 2, 0), (0.5, 2, 1, 0)],
            [(1.0, 1, 1, 0)],
        ):
            worst = np.maximum(
                worst,
                projective_equality_check(terms, t, window, mu, pair_cap=cap + 1),
            )
        return worst

    _timed(records, "commutator-sweep", 0.0, commutator_sweep)
    _timed(records, "central-term", 0.0, central_term)
    _timed(records, "bogoliubov-vacuum", 1e-12, bogoliubov)
    _timed(records, "cut-shift", 0.0, cut_shift)
    _timed(records, "projective-exponential", 1e-10, projective)
    return records


def _battery_caloron(params, seed):
    records = []
    conn = connection_preset(
        params["preset"],
        theta_points=params["theta_points"],
        base_points=params["base_points"],
        amplitude=params["amplitude"],
    )

    def ms_order():
        _, order = ms_identity_check(conn, refine_factor=params["refine_factor"])
        # no max() here: max(0.0, 1.9 - nan) is 0.0, and a NaN order must fail
        return 0.0 if order >= 1.9 else 1.9 - order

    def gauge_law():
        gauge = winding_gauge(params["theta_points"], params["winding"], conn.n)
        return higgs_gauge_law_check(conn, gauge)

    def rho_scaling():
        rho = Representation.adjoint(conn.n)
        worst = rho_scaling_check(conn, rho)
        b_fund = b_field(conn)
        scale = float(rho.index) * np.maximum(
            b_fund.max_norm(), b_fund.exterior_derivative().max_norm()
        )
        return worst / scale if scale > 0 else worst

    def index_vs_pontryagin():
        lhs = index_curvature(conn, Representation.fundamental(conn.n))
        rhs = pontryagin_density(conn)
        return (lhs - rhs).max_norm()

    def dynkin_values():
        bad = 0
        for n in (2, 3, 4):
            bad += dynkin_index(n, (1,)) != 1
        bad += dynkin_index(2, (2,)) != 4
        bad += dynkin_index(3, ()) != 0
        return float(bad)

    _timed(records, "ms-identity-order", 0.0, ms_order)
    _timed(records, "higgs-gauge-law", 5e-2, gauge_law)
    _timed(records, "rho-scaling-adjoint", 1e-8, rho_scaling)
    _timed(records, "index-vs-pontryagin", 0.0, index_vs_pontryagin)
    _timed(records, "dynkin-values", 0.0, dynkin_values)
    return records


def _battery_moduli(params, seed):
    records = []
    rep = standard_genus2_su2()
    steps = params["flow_steps"]
    n_max = params["n_max"]
    half = SpectralCut(Fraction(1, 2))

    _timed(records, "relation-residual", 1e-12, lambda: relation_check(rep))

    def irreducibility():
        verdict, dim = irreducibility_check(rep)
        if verdict is None:
            return float(dim), "indeterminate"
        residual = float(abs(dim - 1) + (0 if verdict else 1))
        return residual, "pass" if residual == 0 else "fail"

    def conjugation_invariance():
        base = relation_check(rep)
        base_verdict = irreducibility_check(rep)
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(params["conjugations"]):
            h = random_special_unitary(rep.n, rng)
            moved = conjugate(rep, h)
            worst = np.maximum(worst, abs(relation_check(moved) - base))
            if irreducibility_check(moved) != base_verdict:
                worst = np.maximum(worst, 1.0)
        return worst

    def word_homomorphism():
        w1 = LoopWord(((1, 1), (2, 1)))
        w2 = LoopWord(((1, -1),))
        joined = LoopWord(w1.letters + w2.letters)
        gap = holonomy(rep, joined) - holonomy(rep, w1) @ holonomy(rep, w2)
        return float(np.abs(gap).max())

    _timed(records, "irreducibility", 0.0, irreducibility)
    _timed(records, "conjugation-invariance", 1e-12, conjugation_invariance)
    _timed(records, "word-homomorphism", 1e-14, word_homomorphism)
    _timed(
        records,
        "flow-u1-winding",
        0.0,
        lambda: abs(spectral_flow(holonomy_path("u1-winding", steps), half, n_max) - 1),
    )
    _timed(
        records,
        "flow-su2-balanced",
        0.0,
        lambda: abs(spectral_flow(holonomy_path("su2-balanced", steps), half, n_max)),
    )
    return records


def _battery_pairing(params, seed):
    records = []
    rep = standard_genus2_su2()
    gamma = LoopWord(((1, 1),))
    fund = Representation.fundamental(2)
    adjoint = Representation.adjoint(2)
    sizes = {
        "theta_points": params["theta_points"],
        "base_points": params["base_points"],
        "ghost_margin": params["ghost_margin"],
    }
    w1, w2 = params["w1"], params["w2"]
    winding = ModuliFamily(
        "winding", rep, w1=w1, w2=w2, modulation=params["modulation"]
    )

    _timed(
        records,
        "constant-family-zero",
        1e-12,
        lambda: abs(
            pontryagin_pairing(ModuliFamily("constant", rep), gamma, fund, **sizes)
        ),
    )
    _timed(
        records,
        "static-family-zero",
        1e-12,
        lambda: abs(
            pontryagin_pairing(ModuliFamily("static", rep), gamma, fund, **sizes)
        ),
    )

    def winding_value():
        value = pontryagin_pairing(winding, gamma, fund, **sizes)
        return abs(value - (-2.0 * w1 * w2))

    def adjoint_scaling():
        v_fund = pontryagin_pairing(winding, gamma, fund, **sizes)
        v_adj = pontryagin_pairing(winding, gamma, adjoint, **sizes)
        gap = abs(v_adj - 4.0 * v_fund)
        # with a zero model value -2 w1 w2 both pairings are roundoff
        return gap if w1 * w2 == 0 else gap / abs(4.0 * v_fund)

    _timed(records, "winding-model-value", 0.15, winding_value)
    _timed(records, "adjoint-scaling", 1e-6, adjoint_scaling)
    return records


def _battery_all(params, seed):
    records = []
    for command in COMMANDS[:-1]:
        sub = _BATTERIES[command](dict(_PARAM_SCHEMAS[command]), seed)
        for record in sub:
            records.append({**record, "name": f"{command}:{record['name']}"})
    return records


_BATTERIES = {
    "spectrum": _battery_spectrum,
    "cover": _battery_cover,
    "cocycle": _battery_cocycle,
    "fock": _battery_fock,
    "caloron": _battery_caloron,
    "moduli": _battery_moduli,
    "pairing": _battery_pairing,
    "all": _battery_all,
}


def run_scenario(command, params, seed):
    """Execute one command's battery and assemble the report structure."""
    records = _BATTERIES[command](params, seed)
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
        command, params, seed, output_path = validate_scenario(scenario, args.command)
        if args.seed is not None:
            seed = args.seed
        if args.out:
            output_path = args.out
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    report = run_scenario(command, params, seed)
    text = render_report(report)
    if output_path:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0 if report["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
