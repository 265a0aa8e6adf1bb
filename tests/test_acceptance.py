"""Acceptance gate: the nine headline checks at their contract tolerances.

Each test prints one `criterion N: PASS/FAIL` line (visible with -s, and
mirrored by the pytest -v row) and enforces the stated runtime budget.
"""

import itertools
import json
import math
import re
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from gerbetool.caloron import CurvaturePass, pontryagin_densities, sample_connection
from gerbetool.cli import holonomy_suite
from gerbetool.detline import CechTable, compose, det_line
from gerbetool.fock import (
    FockWindow,
    car_residual as _car_residual,
    bogoliubov_vacuum,
    commutator_check,
    cut_shift_check,
    projective_equality_check,
    sigma,
    vacuum,
)
from gerbetool.liealg import Representation
from gerbetool.moduli import (
    LoopWord,
    conjugate,
    holonomy_path,
    irreducibility_check,
    random_special_unitary,
    relation_check,
    standard_genus2_su2,
)
from gerbetool.presets import su2_family
from gerbetool.spectral import SpectralCut, dirac_spectrum, in_cover, spectral_flow
from test_fock import jw


@contextmanager
def gate(num, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL ({label})")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f} s > {budget_s} s"
    print(f"criterion {num}: PASS ({label}, {elapsed:.1f} s)")


def test_criterion_1_cocycle_triviality_and_associativity():
    with gate(1, "cocycle trivial on 20-case suite, associative", 10.0):
        n_max = 4
        suite = holonomy_suite("standard")
        assert len(suite) == 20
        cuts = [SpectralCut(Fraction(2 * k + 1, 2)) for k in range(-n_max + 1, n_max - 1)]
        worst_delta = 0.0
        worst_assoc = 0.0
        for _, hol in suite:
            spec = dirac_spectrum(hol, n_max)
            admissible = [c for c in cuts if in_cover(spec, c)]
            for delta in CechTable(spec, admissible).deltas():
                worst_delta = max(worst_delta, abs(delta - 1.0))
            for quad in itertools.combinations(admissible, 4):
                lines = [det_line(spec, quad[k], quad[k + 1]) for k in range(3)]
                left = compose(compose(lines[0], lines[1]), lines[2])
                right = compose(lines[0], compose(lines[1], lines[2]))
                worst_assoc = max(
                    worst_assoc, abs(left.canonical_phase() - right.canonical_phase())
                )
        assert worst_delta <= 1e-12, worst_delta
        assert worst_assoc <= 1e-12, worst_assoc


def test_criterion_2_anticommutators_exact():
    with gate(2, "four anticommutator identities exact at N=6", 30.0):
        assert _car_residual(FockWindow(1, 6, "1/2"), 2) == 0.0
        assert _car_residual(FockWindow(2, 6, "1/2"), 2) == 0.0


def test_criterion_3_central_extension_sweep():
    with gate(3, "commutator identity 0.0 over full sweep, central term = m", 60.0):
        window = FockWindow(2, 6, "1/2")
        worst = 0.0
        for i, j, k, l in itertools.product((1, 2), repeat=4):
            for m in range(-2, 3):
                for n in range(-2, 3):
                    worst = max(worst, commutator_check(i, j, k, l, m, n, window))
        assert worst == 0.0, worst
        w1 = FockWindow(1, 6, "1/2")
        for m in (1, 2):
            masks, _, amps = sigma(1, 1, m, w1).apply(sigma(1, 1, -m, w1).apply(vacuum(w1)))
            assert amps[masks == w1.sea_mask()].sum() == float(m)


def test_criterion_4_vacuum_transport_and_projective_factor():
    with gate(4, "transported vacuum, cut shift exact, projective <= 1e-10", 30.0):
        window = FockWindow(2, 4, "1/2")
        mu = Fraction(5, 2)
        masks, _, amps = bogoliubov_vacuum(window, mu)
        vec = np.zeros(2**window.n_slots, dtype=complex)
        vec[masks] = amps
        # psi^c_mode creates slot (c, mode), psibar^c_mode destroys (c, -mode)
        for c in (1, 2):
            for mode in range(-window.N, window.N + 1):
                if mode < mu:
                    assert np.abs(jw(window, window.slot(c, mode), True) @ vec).max() == 0.0
                if mode <= -mu:
                    assert np.abs(jw(window, window.slot(c, -mode), False) @ vec).max() == 0.0
        res, n_shift = cut_shift_check(1, 1, 0, window, mu)
        assert res == 0.0 and n_shift == 2
        res, n_shift = cut_shift_check(1, 2, 0, window, mu)
        assert res == 0.0 and n_shift == 2
        res, n_shift = cut_shift_check(1, 1, 1, window, mu)
        assert res == 0.0 and n_shift == 2
        term_sets = (
            [(1.0, 1, 1, 0)],
            [(1.0, 1, 1, 0), (-1.0, 2, 2, 0)],
            [(1.0, 1, 1, 0), (0.5, 1, 1, 1), (0.5, 1, 1, -1)],
        )
        for terms in term_sets:
            assert projective_equality_check(terms, 0.35, window, mu) <= 1e-10


def test_criterion_5_density_equals_curving_derivative():
    with gate(5, "3-form identity contracts with order >= 1.9 (16 -> 32)", 180.0):
        conn = sample_connection(su2_family(), 3, 12, 16)
        res, order = CurvaturePass(conn).identity_check(refine_factor=2)
        assert math.isfinite(res)
        assert order >= 1.9, order


def test_criterion_6_representation_scaling_and_indices():
    with gate(6, "adjoint forms scale by 4, indices {1,1,1,4,0}", 60.0):
        pair = sample_connection(su2_family(), 3, 12, 16)
        adjoint = Representation.adjoint(2)
        forms = CurvaturePass(pair, adjoint)
        worst, _ = forms.scaling_check()
        b = forms.curving
        scale = max(b.max_norm(), b.exterior_derivative().max_norm())
        assert worst / scale <= 1e-8, (worst, scale)

        def trace_ratio(rho, n):
            x = np.zeros((n, n), dtype=complex)
            x[0, 0], x[1, 1] = 1j, -1j
            img = rho.matrix_image(x)
            return np.trace(img @ img).real / np.trace(x @ x).real

        for n in (2, 3, 4):
            rho = Representation.fundamental(n)
            assert rho.index == 1 and abs(trace_ratio(rho, n) - 1.0) <= 1e-12
        assert adjoint.index == 4 and abs(trace_ratio(adjoint, 2) - 4.0) <= 1e-12
        triv = Representation(2, ())
        assert triv.index == 0 and abs(trace_ratio(triv, 2)) <= 1e-12


def test_criterion_7_index_route_matches_curvature_route():
    with gate(7, "index route = curvature route (x1 exact, x4 <= 1e-8)", 60.0):
        conn = sample_connection(su2_family(), 3, 12, 16)
        density = CurvaturePass(conn).density
        fund, adj = pontryagin_densities(
            conn, [Representation.fundamental(2), Representation.adjoint(2)]
        )
        diff_fund = (fund - density).max_norm()
        assert diff_fund <= 1e-12, diff_fund
        diff_adj = (adj - 4.0 * density).max_norm()
        assert diff_adj / density.max_norm() <= 1e-8, diff_adj


def test_criterion_8_moduli_point_and_flows():
    with gate(8, "genus-2 point: relation, irreducibility, flows +1/0", 30.0):
        rep = standard_genus2_su2()
        assert relation_check(rep) <= 1e-12
        verdict, dim = irreducibility_check(rep)
        assert verdict is True and dim == 1
        for seed in range(10):
            h = random_special_unitary(2, np.random.default_rng(seed))
            conj = conjugate(rep, h)
            assert relation_check(conj) <= 1e-12
            v, d = irreducibility_check(conj)
            assert v is True and d == 1

        def oracle_flow(paths, lam):
            return sum(
                math.floor(lam - a0) - math.floor(lam - a1) for a0, a1 in paths
            )

        cut = SpectralCut(Fraction(1, 2))
        got_u1 = spectral_flow(holonomy_path("u1-winding", 48), cut, 3)
        assert got_u1 == oracle_flow([(0.0, 1.0)], 0.5) == 1
        got_su2 = spectral_flow(holonomy_path("su2-balanced", 48), cut, 3)
        assert got_su2 == oracle_flow([(0.0, 1.0), (0.0, -1.0)], 0.5) == 0


# The 44 checks of `gerbetool all`, in report order.
ALL_CHECK_NAMES = [
    "spectrum:mode-count",
    "spectrum:half-cut-covered",
    "spectrum:unit-band-per-color",
    "cover:noninteger-cuts-covered",
    "cover:integer-cuts-excluded",
    "cover:triple-delta-trivial",
    "cover:triple-rejects-spectrum-cut",
    "cocycle:delta-triviality-u1-trivial",
    "cocycle:delta-triviality-u1-generic-a",
    "cocycle:delta-triviality-u1-generic-b",
    "cocycle:delta-triviality-u1-generic-c",
    "cocycle:delta-triviality-su2-trivial",
    "cocycle:delta-triviality-su2-split",
    "cocycle:delta-triviality-su2-degenerate",
    "cocycle:delta-triviality-su2-generic",
    "cocycle:delta-triviality-su2-degenerate-high",
    "cocycle:delta-triviality-su2-near-trivial",
    "cocycle:delta-triviality-su3-trivial",
    "cocycle:delta-triviality-su3-central",
    "cocycle:delta-triviality-su3-generic-a",
    "cocycle:delta-triviality-su3-clustered",
    "cocycle:delta-triviality-su3-rational",
    "cocycle:delta-triviality-su3-generic-b",
    "cocycle:delta-triviality-su3-generic-c",
    "cocycle:delta-triviality-su3-generic-d",
    "cocycle:delta-triviality-su3-generic-e",
    "cocycle:delta-triviality-su3-repeated",
    "cocycle:associativity",
    "fock:car-relations",
    "fock:commutator-sweep",
    "fock:central-term",
    "fock:bogoliubov-vacuum",
    "fock:cut-shift",
    "fock:projective-exponential",
    "caloron:ms-identity-order",
    "caloron:rho-scaling-adjoint",
    "moduli:relation-residual",
    "moduli:irreducibility",
    "moduli:conjugation-invariance",
    "moduli:word-homomorphism",
    "moduli:flow-u1-winding",
    "moduli:flow-su2-balanced",
    "pairing:winding-model-value",
    "pairing:adjoint-scaling",
]


def test_criterion_9_full_run_deterministic(tmp_path):
    with gate(9, "full battery exits 0, byte-stable modulo runtimes", 300.0):
        cfg = tmp_path / "all.json"
        cfg.write_text(json.dumps({"command": "all", "seed": 7}))
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "gerbetool.cli", "all", "--config", str(cfg)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        report = json.loads(outputs[0])
        assert [r["name"] for r in report["checks"]] == ALL_CHECK_NAMES
        assert report["status"] == "pass"
        assert all(r["status"] == "pass" for r in report["checks"])
        masked = [
            re.sub(r'"runtime_ms": [0-9.]+', '"runtime_ms": 0', text)
            for text in outputs
        ]
        assert masked[0] == masked[1]
