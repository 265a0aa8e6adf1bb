"""Circle Dirac spectra, spectral cuts, and spectral flow.

Oracle for the spectrum: assemble the dense Fourier-truncated twisted
derivative operator and diagonalize it.  Sections with boundary twist U are
written as V(theta) f(theta) with V = exp(theta log U) and f periodic, so
the operator on the plain Fourier basis of f is block diagonal,
m*I + (-i/(2 pi)) log U per mode.  The Schur-based matrix log keeps its
phases in (-pi, pi], a different branch from the implementation, so the
comparison is restricted to eigenvalues well inside the window where both
truncations are complete.

Oracle for spectral flow: closed-form per-color phase paths, flow =
sum_c floor(lam - a_c(0)) - floor(lam - a_c(1)) on the unwrapped phases.
On random paths the oracle is the per-color tracker that matched each step
by a linear-sum assignment and summed those floors; scipy.optimize is
imported here only.
"""

import itertools
import math
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import logm
from scipy.optimize import linear_sum_assignment

from gerbetool.errors import (
    ArgumentError,
    CoverViolationError,
    RangeError,
    ResolutionError,
    ValidationError,
)
from gerbetool.presets import diagonal_holonomy
from gerbetool.spectral import (
    _MAX_STEP,
    _unitary,
    Holonomy,
    SpectralCut,
    Spectrum,
    band,
    dirac_spectrum,
    holonomy_phases,
    in_cover,
    rational,
    spectral_flow,
)

TWO_PI = 2.0 * math.pi


def dense_twisted_eigenvalues(u, N):
    """Eigenvalues of the dense Fourier-truncated twisted operator."""
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    h = (-1j / TWO_PI) * logm(u)
    h = 0.5 * (h + h.conj().T)
    modes = np.arange(-N, N + 1)
    dense = np.kron(np.diag(modes.astype(float)), np.eye(n)) + np.kron(
        np.eye(2 * N + 1), h
    )
    return np.sort(np.linalg.eigvalsh(dense))


def interior(values, bound):
    values = np.sort(np.asarray(values, dtype=float))
    return values[np.abs(values) < bound]


def closed_form_flow(phase_paths, lam):
    """Below-cut count change from unwrapped per-color phase endpoints."""
    flow = 0
    for a0, a1 in phase_paths:
        flow += math.floor(lam - a0) - math.floor(lam - a1)
    return flow


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


SU2_03 = np.diag([np.exp(2j * np.pi * 0.3), np.exp(-2j * np.pi * 0.3)])


class TestDiracSpectrum:
    def test_trivial_u1_integer_lattice(self):
        spec = dirac_spectrum(Holonomy(np.eye(1)), N=2)
        assert np.array_equal(spec.eigenvalues(), [-2.0, -1.0, 0.0, 1.0, 2.0])

    def test_phase_pi_gives_half_integer_shift(self):
        spec = dirac_spectrum(Holonomy(np.array([[-1.0 + 0j]])), N=1)
        assert np.allclose(spec.eigenvalues(), [-0.5, 0.5, 1.5], atol=1e-14)

    def test_su2_phase_family_lattice(self):
        # phases 0.3 and 0.7 in units of 2 pi; the branch in [0, 2 pi)
        # windows the {n +/- 0.3} lattice as m + {0.3, 0.7}.
        spec = dirac_spectrum(Holonomy(SU2_03), N=1)
        want = sorted(m + f for m in (-1, 0, 1) for f in (0.3, 0.7))
        assert np.allclose(spec.eigenvalues(), want, atol=1e-12)

    def test_su2_phase_family_vs_dense_oracle(self):
        N = 4
        got = interior(dirac_spectrum(Holonomy(SU2_03), N).eigenvalues(), N - 1)
        ref = interior(dense_twisted_eigenvalues(SU2_03, N), N - 1)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-10

    @pytest.mark.parametrize("n,seed", [(1, 3), (2, 11), (3, 29), (3, 57)])
    def test_random_unitaries_vs_dense_oracle(self, n, seed):
        u = random_unitary(n, seed)
        for N in (4, 5):
            got = interior(dirac_spectrum(Holonomy(u), N).eigenvalues(), N - 1)
            ref = interior(dense_twisted_eigenvalues(u, N), N - 1)
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-10

    def test_canonical_order_breaks_ties_by_color(self):
        spec = dirac_spectrum(Holonomy(np.eye(2)), N=1)
        labels = [(em.eigenvalue, em.color, em.mode) for em in spec.modes]
        assert labels == sorted(labels)

    def test_nonunitary_matrix_rejected(self):
        with pytest.raises(ValidationError, match="unitary"):
            Holonomy(np.array([[2.0 + 0j]]))

    def test_window_size_validated(self):
        with pytest.raises(ValidationError):
            dirac_spectrum(Holonomy(np.eye(1)), N=0)


class TestInCover:
    def test_half_integer_cut_misses_integer_spectrum(self):
        spec = dirac_spectrum(Holonomy(np.eye(1)), N=2)
        assert in_cover(spec, SpectralCut(Fraction(1, 2)))

    def test_integer_cut_hits_integer_spectrum(self):
        spec = dirac_spectrum(Holonomy(np.eye(1)), N=2)
        assert not in_cover(spec, SpectralCut(Fraction(1)))

    def test_cut_colliding_with_phase(self):
        spec = dirac_spectrum(Holonomy(SU2_03), N=2)
        assert not in_cover(spec, SpectralCut(Fraction(3, 10)))
        # oracle confirmation: some dense eigenvalue sits on 0.3
        ref = dense_twisted_eigenvalues(SU2_03, 2)
        assert np.abs(ref - 0.3).min() <= 1e-9

    def test_monotone_in_gap_tolerance(self):
        spec = dirac_spectrum(Holonomy(SU2_03), N=2)
        cut = Fraction(2, 5)  # distance 0.1 from the nearest eigenvalue
        verdicts = [
            in_cover(spec, SpectralCut(cut, gap_tolerance=tol))
            for tol in (1e-12, 1e-9, 1e-3, 0.05)
        ]
        assert verdicts == [True, True, True, True]
        assert not in_cover(spec, SpectralCut(cut, gap_tolerance=0.2))

    def test_cut_outside_window_rejected(self):
        spec = dirac_spectrum(Holonomy(np.eye(1)), N=2)
        with pytest.raises(RangeError):
            in_cover(spec, SpectralCut(Fraction(5, 2)))

    def test_float_cut_rejected(self):
        with pytest.raises(ArgumentError):
            rational(0.3)


class TestBand:
    def test_single_mode_band(self):
        spec = dirac_spectrum(Holonomy(np.eye(1)), N=2)
        modes = band(spec, SpectralCut(Fraction(-1, 2)), SpectralCut(Fraction(1, 2)))
        assert [(em.color, em.mode) for em in modes] == [(1, 0)]

    def test_reversed_cuts_rejected(self):
        spec = dirac_spectrum(Holonomy(np.eye(1)), N=2)
        with pytest.raises(ArgumentError):
            band(spec, SpectralCut(Fraction(1, 2)), SpectralCut(Fraction(1, 2)))

    def test_cut_on_spectrum_rejected(self):
        spec = dirac_spectrum(Holonomy(np.eye(1)), N=2)
        with pytest.raises(CoverViolationError):
            band(spec, SpectralCut(Fraction(0)), SpectralCut(Fraction(1, 2)))

    def test_two_color_band_enumeration(self):
        # oracle: enumerate windowed eigenvalues by hand and filter
        spec = dirac_spectrum(Holonomy(np.eye(2)), N=2)
        lo, hi = SpectralCut(Fraction(-1, 2)), SpectralCut(Fraction(3, 2))
        want = [(1, 0), (2, 0), (1, 1), (2, 1)]
        got = [(em.color, em.mode) for em in band(spec, lo, hi)]
        assert got == want

    def test_empty_band(self):
        spec = dirac_spectrum(Holonomy(np.eye(1)), N=2)
        assert band(spec, SpectralCut(Fraction(1, 4)), SpectralCut(Fraction(3, 4))) == ()

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_band_additivity(self, seed):
        spec = dirac_spectrum(Holonomy(random_unitary(2, seed)), N=3)
        lam, mu, tau = (
            SpectralCut(Fraction(-3, 2)),
            SpectralCut(Fraction(1, 5)),
            SpectralCut(Fraction(5, 2)),
        )
        whole = band(spec, lam, tau)
        glued = band(spec, lam, mu) + band(spec, mu, tau)
        assert whole == tuple(
            sorted(glued, key=lambda em: (em.eigenvalue, em.color, em.mode))
        )


def u1_loop(steps, closed=True):
    ts = np.arange(steps) / steps
    mats = [np.array([[np.exp(2j * np.pi * t)]]) for t in ts]
    if closed:
        mats.append(mats[0].copy())
    return np.stack(mats)


def su2_balanced_loop(steps):
    ts = np.arange(steps) / steps
    mats = [np.diag([np.exp(2j * np.pi * t), np.exp(-2j * np.pi * t)]) for t in ts]
    mats.append(mats[0].copy())
    return np.stack(mats)


class TestSpectralFlow:
    def test_constant_path_no_flow(self):
        path = np.stack([SU2_03] * 4)
        assert spectral_flow(path, SpectralCut(Fraction(1, 2)), N=3) == 0

    def test_u1_winding_plus_one(self):
        # oracle: the single color's phase runs 0 -> 1 (unwrapped)
        want = closed_form_flow([(0.0, 1.0)], 0.5)
        assert want == 1
        got = spectral_flow(u1_loop(64), SpectralCut(Fraction(1, 2)), N=3)
        assert got == want

    def test_su2_balanced_cancels(self):
        want = closed_form_flow([(0.0, 1.0), (0.0, -1.0)], 0.5)
        assert want == 0
        got = spectral_flow(su2_balanced_loop(64), SpectralCut(Fraction(1, 2)), N=3)
        assert got == want

    def test_flow_additive_under_concatenation(self):
        loop = u1_loop(64)
        doubled = np.concatenate([loop, loop[1:]])
        cut = SpectralCut(Fraction(1, 2))
        assert spectral_flow(doubled, cut, N=3) == 2 * spectral_flow(loop, cut, N=3)

    def test_open_path_rejected(self):
        path = u1_loop(16, closed=False)
        with pytest.raises(ArgumentError, match="closed"):
            spectral_flow(path, SpectralCut(Fraction(1, 2)), N=3)

    def test_coarse_path_rejected(self):
        with pytest.raises(ResolutionError, match="refine"):
            spectral_flow(u1_loop(3), SpectralCut(Fraction(1, 2)), N=3)

    def test_cut_on_endpoint_spectrum_rejected(self):
        path = np.stack([np.eye(1)] * 4)
        with pytest.raises(CoverViolationError):
            spectral_flow(path, SpectralCut(Fraction(1)), N=3)

    def test_path_phases_come_from_one_stacked_solve(self, monkeypatch):
        # one eigvals call per path point once made 4 002 calls per moduli
        # battery; now each endpoint spectrum and the stacked path take one
        path = su2_balanced_loop(64)
        shapes = []
        real = np.linalg.eigvals

        def spy(a):
            shapes.append(np.shape(a))
            return real(a)

        monkeypatch.setattr(np.linalg, "eigvals", spy)
        assert spectral_flow(path, SpectralCut(Fraction(1, 2)), N=3) == 0
        assert sorted(shapes) == [(2, 2), (2, 2), (len(path), 2, 2)]

    @pytest.mark.parametrize("bad", [2.0, math.nan])
    def test_path_step_that_is_not_unitary_is_named(self, bad):
        path = u1_loop(16)
        path[5, 0, 0] *= bad
        with pytest.raises(ValidationError, match=r"path\[5\] is not unitary"):
            spectral_flow(path, SpectralCut(Fraction(1, 2)), N=3)

    @pytest.mark.parametrize(
        "path",
        [
            [np.eye(1), np.eye(2)],
            [[["a"]], [["b"]]],
            [Holonomy(np.eye(1))] * 4,
            np.zeros((4, 0, 0)),
            np.eye(2),
        ],
        ids=["ragged", "non-numeric", "holonomy-objects", "empty-matrices", "one-matrix"],
    )
    def test_malformed_path_rejected(self, path):
        with pytest.raises(ValidationError, match="path"):
            spectral_flow(path, SpectralCut(Fraction(1, 2)), N=3)

    def test_winding_negative_direction(self):
        loop = u1_loop(64)
        reverse = loop[::-1]
        assert spectral_flow(reverse, SpectralCut(Fraction(1, 2)), N=3) == -1


def assignment_flow(path, lam):
    """Oracle: per-color phases matched step by step by linear_sum_assignment."""
    start = unwrapped = holonomy_phases(path[0])
    for u in path[1:]:
        diff = holonomy_phases(u)[None, :] - np.mod(unwrapped[:, None], TWO_PI)
        delta = np.mod(diff + math.pi, TWO_PI) - math.pi
        rows, cols = linear_sum_assignment(np.abs(delta))
        step = delta[rows, cols]
        if np.abs(step).max() > _MAX_STEP * TWO_PI:
            raise ResolutionError("refine the sampling")
        unwrapped = unwrapped + step
    return closed_form_flow(zip(start / TWO_PI, unwrapped / TWO_PI), lam)


def diagonal_loop(turns):
    """Closed path of diagonal holonomies with the given phases in turns."""
    mats = [np.diag(np.exp(2j * np.pi * row)) for row in turns]
    mats.append(mats[0].copy())
    return np.stack(mats)


def random_closed_path(rng):
    """1-5 colors, often degenerate at the start, permuted and wound -2..2."""
    n = int(rng.integers(1, 6))
    if rng.random() < 0.5:
        start = rng.choice(rng.uniform(0, 1, size=3), size=n)
    else:
        start = rng.uniform(0, 1, size=n)
    ends = start[rng.permutation(n)] + rng.integers(-2, 3, size=n)
    steps = int(rng.integers(4, 40))
    ts = np.arange(steps)[:, None] / steps
    wobble = rng.uniform(-0.3, 0.3, size=n)
    return diagonal_loop(start + ts * (ends - start) + np.sin(np.pi * ts) * wobble)


def flow_or_none(flow, *args):
    try:
        return flow(*args)
    except ResolutionError:
        return None


class TestFlowAgainstAssignmentOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_same_flow_wherever_the_oracle_has_one(self, seed):
        rng = np.random.default_rng(seed)
        cut = SpectralCut(Fraction(1, 2))
        compared = 0
        for _ in range(150):
            path = random_closed_path(rng)
            want = flow_or_none(assignment_flow, path, 0.5)
            if want is None:
                continue
            assert flow_or_none(spectral_flow, path, cut, 3) == want
            compared += 1
        assert compared >= 100


def three_colors_turning(steps):
    """Colors at 0.05 + k/3 turns, each turning once over the loop."""
    ts = np.arange(steps)[:, None] / steps
    return diagonal_loop(0.05 + np.arange(3) / 3 + ts)


class TestFlowIsNetWinding:
    def test_tied_shifts_that_wind_differently_raise(self):
        # at 1/6 turn per step, moving every color forward or backward by
        # 1/6 turn is the same motion, so the step's winding is undetermined
        with pytest.raises(ResolutionError, match="wind differently"):
            spectral_flow(three_colors_turning(6), SpectralCut(Fraction(1, 2)), N=3)

    def test_equal_motion_goes_to_the_smaller_largest_step(self):
        # colors at 0.9 and 0 turns moving 0.2 turn per step: the shift that
        # moves them 0.1 and 0.3 turn costs the same motion but breaks the cap
        ts = np.arange(5)[:, None] / 5
        path = diagonal_loop(np.array([0.9, 0.0]) + ts)
        assert spectral_flow(path, SpectralCut(Fraction(1, 2)), N=3) == 2

    def test_finer_steps_read_every_color_winding(self):
        assert spectral_flow(three_colors_turning(12), SpectralCut(Fraction(1, 2)), N=3) == 3

    CUTS = [Fraction(k, 2) for k in range(-5, 6, 2)]

    @pytest.mark.parametrize("cut", CUTS, ids=str)
    def test_u1_winding_same_at_every_cut(self, cut):
        assert spectral_flow(u1_loop(64), SpectralCut(cut), N=3) == 1

    @pytest.mark.parametrize("cut", CUTS, ids=str)
    def test_crossing_colors_same_at_every_cut(self, cut):
        # windings (1, -2, 0) from 0.1, 0.4, 0.7 turns: the colors cross
        ts = np.arange(64)[:, None] / 64
        path = diagonal_loop(np.array([0.1, 0.4, 0.7]) + ts * np.array([1, -2, 0]))
        assert spectral_flow(path, SpectralCut(cut), N=3) == -1


def special_unitary(n, seed):
    u = random_unitary(n, seed)
    return u / np.linalg.det(u) ** (1.0 / n)


def diag_phases(*phases):
    return np.diag(np.exp(2j * np.pi * np.asarray(phases)))


# seeded SU(2) and SU(3) holonomies plus the degenerate cocycle-suite entries
ORACLE_HOLONOMIES = [
    *[(f"su{n}-seed{seed}", special_unitary(n, seed)) for n in (2, 3) for seed in (1, 4, 7)],
    ("su2-degenerate", diag_phases(0.3, 0.3)),
    ("su3-repeated", diag_phases(0.08, 0.08, 0.84)),
    ("su3-central", diag_phases(1 / 3, 1 / 3, 1 / 3)),
]


def scan_in_cover(spec, cut):
    """The full scan: float distance from the cut to every eigenvalue."""
    return np.abs(spec.eigenvalues() - float(cut.value)).min() > cut.gap_tolerance


def filter_band(spec, lo, hi):
    """The strict filter over every mode, in canonical order."""
    a, b = float(lo.value), float(hi.value)
    return tuple(em for em in spec.modes if a < em.eigenvalue < b)


def probe_cuts(spec, tol):
    """Integer and half-integer cuts, and cuts within 3/2 tol of each eigenvalue."""
    N = spec.N
    values = {Fraction(k, 2) for k in range(-2 * N + 1, 2 * N)}
    for e in spec.eigenvalues():
        for k in range(-3, 4):
            values.add(Fraction(float(e)) + Fraction(tol) * Fraction(k, 2))
    return [SpectralCut(v, gap_tolerance=tol) for v in sorted(values) if -N < v < N]


class TestSortedSpectrumOracles:
    @pytest.mark.parametrize("tol", [1e-9, 1e-3])
    @pytest.mark.parametrize("label,u", ORACLE_HOLONOMIES, ids=[h[0] for h in ORACLE_HOLONOMIES])
    def test_in_cover_matches_full_scan(self, label, u, tol):
        spec = dirac_spectrum(Holonomy(u), N=3)
        verdicts = []
        for cut in probe_cuts(spec, tol):
            verdicts.append(in_cover(spec, cut))
            assert verdicts[-1] == scan_in_cover(spec, cut), cut.value
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("tol", [1e-9, 1e-3])
    @pytest.mark.parametrize("label,u", ORACLE_HOLONOMIES, ids=[h[0] for h in ORACLE_HOLONOMIES])
    def test_band_matches_strict_filter(self, label, u, tol):
        spec = dirac_spectrum(Holonomy(u), N=3)
        covered = [c for c in probe_cuts(spec, tol) if scan_in_cover(spec, c)]
        for lo, hi in itertools.combinations(covered, 2):
            assert band(spec, lo, hi) == filter_band(spec, lo, hi), (lo.value, hi.value)

    def test_eigenvalues_is_a_fresh_ascending_array(self):
        spec = dirac_spectrum(Holonomy(special_unitary(3, 2)), N=2)
        first = spec.eigenvalues()
        first[:] = 0.0
        again = spec.eigenvalues()
        assert np.array_equal(again, [em.eigenvalue for em in spec.modes])
        assert np.all(np.diff(again) >= 0)

    def test_modes_are_not_an_argument(self):
        with pytest.raises(TypeError):
            Spectrum(Holonomy(np.eye(1)), 2, modes=())

    def test_cut_keeps_its_exact_value(self):
        cut = SpectralCut("1/3")
        assert cut.value == Fraction(1, 3) and cut.point == float(Fraction(1, 3))
        assert cut == SpectralCut(Fraction(1, 3)) and hash(cut) == hash(SpectralCut("1/3"))

    def test_window_is_tested_exactly(self):
        spec = dirac_spectrum(Holonomy(diag_phases(0.25)), N=2)
        below = Fraction(2) - Fraction(1, 10**30)  # rounds to 2.0 as a float
        assert in_cover(spec, SpectralCut(below)) == scan_in_cover(spec, SpectralCut(below))
        with pytest.raises(RangeError):
            in_cover(spec, SpectralCut(Fraction(2)))


def two_neighbour_in_cover(spec, cut):
    """The earlier in_cover: the least distance to the bisected neighbours."""
    eigs, lam = spec._eigenvalues, cut.point
    k = bisect_left(eigs, lam)
    return min(abs(e - lam) for e in eigs[max(k - 1, 0) : k + 1]) > cut.gap_tolerance


class TestExactShortcuts:
    SAME_FLOAT = (Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30))

    def test_same_float_cuts_are_ordered_exactly(self):
        lo, hi = (SpectralCut(v) for v in self.SAME_FLOAT)
        assert lo.point == hi.point and lo.value < hi.value
        spec = dirac_spectrum(Holonomy(np.eye(2)), N=2)
        assert band(spec, lo, hi) == ()
        with pytest.raises(ArgumentError, match="out of order"):
            band(spec, hi, lo)
        with pytest.raises(ArgumentError, match="out of order"):
            band(spec, lo, lo)

    @pytest.mark.parametrize("seed", range(6))
    def test_in_cover_matches_the_two_neighbour_minimum(self, seed):
        # random spectra and tolerances; cuts at random rationals, below
        # the lowest eigenvalue, on each eigenvalue and at the tolerance's
        # edges around it, each also one ulp either side
        rng = np.random.default_rng(seed)
        verdicts, lowest = set(), 0
        for _ in range(8):
            n, N = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            spec = dirac_spectrum(Holonomy(random_unitary(n, int(rng.integers(2**31)))), N)
            tol = float(10.0 ** rng.uniform(-15, -0.5))
            points = [float(x) for x in rng.uniform(-N, N, 16)]
            points.append(np.nextafter(float(-N), math.inf))
            for e in spec._eigenvalues:
                points += [e, e - tol, e + tol]
            values = {
                Fraction(float(q))
                for p in points
                for q in (np.nextafter(p, -math.inf), p, np.nextafter(p, math.inf))
            }
            for value in values:
                if not -N < value < N:
                    continue
                cut = SpectralCut(value, gap_tolerance=tol)
                got = in_cover(spec, cut)
                assert got == two_neighbour_in_cover(spec, cut), (seed, value, tol)
                verdicts.add(got)
                lowest += cut.point < spec._eigenvalues[0]
        assert verdicts == {True, False} and lowest


class TestHolonomyFiniteness:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("special", [False, True])
    def test_non_finite_entry_rejected(self, bad, special):
        # nan > tolerance is False, so a NaN defect once passed the check;
        # special takes the check that also bounds |det U - 1|, as the
        # moduli generators and conjugating elements do
        u = np.eye(2, dtype=complex)
        u[1, 1] = bad
        tol = Holonomy.tolerance
        with pytest.raises(ValidationError, match="not unitary"):
            _unitary(u, tol, "holonomy", tol) if special else Holonomy(u)

    @pytest.mark.parametrize(
        "build",
        [lambda: Holonomy(np.zeros((0, 0))), lambda: diagonal_holonomy([])],
        ids=["holonomy", "diagonal-holonomy"],
    )
    def test_empty_matrix_rejected(self, build):
        # a 0 x 0 matrix once reached numpy's max of a zero-size array
        with pytest.raises(ValidationError, match="square"):
            build()

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-10])
    def test_bad_tolerance_rejected(self, tol):
        # a NaN tolerance compared False with every defect and admitted all
        with pytest.raises(ValidationError, match="tolerance"):
            Holonomy(np.eye(2), tolerance=tol)
