"""Determinant lines over spectral bands and the volume-contraction map.

Oracle for permutation phases: count inversions of the sort keys directly.
Oracle for composition: the canonical phase of any composition chain equals
the product of the input phases times the inversion sign of the bases
concatenated in composition order.
Oracle for the volume-contraction map: an independent bitmask model of the
exterior algebra, with the same seeded frame, rebuilt from scratch.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gerbetool.detline import (
    CechTriple,
    DetLine,
    compose,
    delta_triviality,
    det_line,
    hodge_dual_iso,
    permutation_sign,
)
from gerbetool.errors import (
    ArgumentError,
    CompositionError,
    CoverViolationError,
    ResourceError,
    ValidationError,
)
from gerbetool.spectral import Holonomy, SpectralCut, band, dirac_spectrum, in_cover

SU2_03 = np.diag([np.exp(2j * np.pi * 0.3), np.exp(-2j * np.pi * 0.3)])


def inversion_sign(keys):
    """(-1)^inversions, the textbook parity of a sequence of distinct keys."""
    flips = sum(
        1
        for a, b in itertools.combinations(range(len(keys)), 2)
        if keys[a] > keys[b]
    )
    return -1.0 if flips % 2 else 1.0


def mode_keys(modes):
    return [(em.eigenvalue, em.color, em.mode) for em in modes]


def cut(q):
    return SpectralCut(Fraction(q))


class TestPermutationSign:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_inversion_count_oracle(self, seed):
        spec = dirac_spectrum(Holonomy(np.eye(2)), N=3)
        modes = list(band(spec, cut("-5/2"), cut("5/2")))
        rng = random.Random(seed)
        rng.shuffle(modes)
        assert permutation_sign(modes) == inversion_sign(mode_keys(modes))

    def test_adjacent_swap_is_odd(self):
        spec = dirac_spectrum(Holonomy(np.eye(1)), N=2)
        a, b = band(spec, cut("-1/2"), cut("3/2"))
        assert permutation_sign((a, b)) == 1.0
        assert permutation_sign((b, a)) == -1.0


class TestDetLine:
    def test_empty_band_has_unit_phase(self):
        spec = dirac_spectrum(Holonomy(np.eye(1)), N=2)
        line = det_line(spec, cut("1/4"), cut("3/4"))
        assert line.basis == ()
        assert line.canonical_phase() == 1.0

    def test_four_mode_band_is_canonical(self):
        spec = dirac_spectrum(Holonomy(np.eye(2)), N=2)
        line = det_line(spec, cut("-1/2"), cut("3/2"))
        assert len(line.basis) == 4
        assert line.canonical_phase() == 1.0

    def test_permuted_basis_carries_its_sign(self):
        spec = dirac_spectrum(Holonomy(np.eye(2)), N=2)
        modes = band(spec, cut("-1/2"), cut("3/2"))
        swapped = (modes[1], modes[0]) + modes[2:]
        line = DetLine(spec, cut("-1/2"), cut("3/2"), swapped, 1.0)
        assert line.canonical_phase() == inversion_sign(mode_keys(swapped)) == -1.0
        assert line.canonical().basis == modes

    def test_non_unit_phase_rejected(self):
        spec = dirac_spectrum(Holonomy(np.eye(1)), N=2)
        modes = band(spec, cut("-1/2"), cut("1/2"))
        with pytest.raises(ValidationError, match="unimodular"):
            DetLine(spec, cut("-1/2"), cut("1/2"), modes, 2.0)

    def test_wrong_mode_set_rejected(self):
        spec = dirac_spectrum(Holonomy(np.eye(1)), N=2)
        modes = band(spec, cut("-1/2"), cut("3/2"))
        with pytest.raises(ValidationError, match="permutation"):
            DetLine(spec, cut("-1/2"), cut("1/2"), modes, 1.0)


class TestCompose:
    def test_adjacent_bands_merge_canonically(self):
        spec = dirac_spectrum(Holonomy(np.eye(2)), N=3)
        a = det_line(spec, cut("-1/2"), cut("1/2"))
        b = det_line(spec, cut("1/2"), cut("3/2"))
        out = compose(a, b)
        assert out.lo.value == Fraction(-1, 2) and out.hi.value == Fraction(3, 2)
        assert out.basis == band(spec, cut("-1/2"), cut("3/2"))
        assert out.canonical_phase() == 1.0

    def test_empty_band_is_neutral(self):
        spec = dirac_spectrum(Holonomy(np.eye(1)), N=2)
        a = det_line(spec, cut("-1/2"), cut("1/4"))
        e = det_line(spec, cut("1/4"), cut("3/4"))
        out = compose(a, e)
        assert out.basis == a.basis
        assert out.canonical_phase() == a.canonical_phase()

    def test_nonadjacent_bands_rejected(self):
        spec = dirac_spectrum(Holonomy(np.eye(1)), N=3)
        a = det_line(spec, cut("-1/2"), cut("1/2"))
        b = det_line(spec, cut("3/2"), cut("5/2"))
        with pytest.raises(CompositionError, match="adjacent"):
            compose(a, b)

    def test_different_spectra_rejected(self):
        s1 = dirac_spectrum(Holonomy(np.eye(1)), N=2)
        s2 = dirac_spectrum(Holonomy(np.array([[-1.0 + 0j]])), N=2)
        a = det_line(s1, cut("-1/4"), cut("1/4"))
        b = det_line(s2, cut("1/4"), cut("3/4"))
        with pytest.raises(CompositionError):
            compose(a, b)

    @pytest.mark.parametrize("seed", range(6))
    def test_associativity_against_phase_oracle(self, seed):
        spec = dirac_spectrum(Holonomy(np.eye(2)), N=3)
        cuts = [cut("-1/2"), cut("1/2"), cut("3/2"), cut("5/2")]
        rng = random.Random(seed)
        lines = []
        for lo, hi in zip(cuts, cuts[1:]):
            modes = list(band(spec, lo, hi))
            rng.shuffle(modes)
            phase = np.exp(2j * np.pi * rng.random())
            lines.append(DetLine(spec, lo, hi, modes, phase))
        left = compose(compose(lines[0], lines[1]), lines[2])
        right = compose(lines[0], compose(lines[1], lines[2]))
        want = (
            lines[0].phase
            * lines[1].phase
            * lines[2].phase
            * inversion_sign(mode_keys(lines[0].basis + lines[1].basis + lines[2].basis))
        )
        assert abs(left.canonical_phase() - right.canonical_phase()) <= 1e-12
        assert abs(left.canonical_phase() - want) <= 1e-12


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestDeltaTriviality:
    def test_trivial_holonomy(self):
        spec = dirac_spectrum(Holonomy(np.eye(1)), N=3)
        triple = CechTriple(spec, cut("-1/2"), cut("1/2"), cut("3/2"))
        assert abs(delta_triviality(triple) - 1.0) <= 1e-12

    def test_su2_phase_family(self):
        spec = dirac_spectrum(Holonomy(SU2_03), N=3)
        triple = CechTriple(spec, cut("-1/2"), cut("2/5"), cut("3/2"))
        assert abs(delta_triviality(triple) - 1.0) <= 1e-12

    def test_tampered_line_detected(self):
        spec = dirac_spectrum(Holonomy(np.eye(2)), N=3)
        lam, mu, tau = cut("-1/2"), cut("1/2"), cut("3/2")
        modes = band(spec, lam, mu)
        swapped = (modes[1], modes[0])
        lines = (
            DetLine(spec, lam, mu, swapped, 1.0),
            det_line(spec, mu, tau),
            det_line(spec, lam, tau),
        )
        triple = CechTriple(spec, lam, mu, tau, lines)
        assert abs(delta_triviality(triple) + 1.0) <= 1e-12

    def test_sweep_over_spectra_and_cuts(self):
        spectra = [
            dirac_spectrum(Holonomy(np.eye(1)), N=3),
            dirac_spectrum(Holonomy(SU2_03), N=3),
            dirac_spectrum(Holonomy(random_unitary(3, 17)), N=3),
        ]
        halves = [Fraction(k, 2) for k in range(-5, 6, 2)]
        for spec in spectra:
            usable = [q for q in halves if in_cover(spec, SpectralCut(q))]
            for lam, mu, tau in itertools.combinations(usable, 3):
                triple = CechTriple(
                    spec, SpectralCut(lam), SpectralCut(mu), SpectralCut(tau)
                )
                assert abs(delta_triviality(triple) - 1.0) <= 1e-12, (lam, mu, tau)

    def test_unordered_cuts_rejected(self):
        spec = dirac_spectrum(Holonomy(np.eye(1)), N=3)
        with pytest.raises(ArgumentError, match="increasing"):
            CechTriple(spec, cut("1/2"), cut("-1/2"), cut("3/2"))

    def test_cut_on_spectrum_rejected(self):
        spec = dirac_spectrum(Holonomy(np.eye(1)), N=3)
        with pytest.raises(CoverViolationError):
            CechTriple(spec, cut("-1/2"), cut("1"), cut("3/2"))

    def test_line_over_wrong_pair_rejected(self):
        spec = dirac_spectrum(Holonomy(np.eye(1)), N=3)
        lam, mu, tau = cut("-1/2"), cut("1/2"), cut("3/2")
        bad = (
            det_line(spec, lam, tau),
            det_line(spec, mu, tau),
            det_line(spec, lam, tau),
        )
        with pytest.raises(ArgumentError, match="cut pair"):
            CechTriple(spec, lam, mu, tau, bad)


def seeded_frame(dim, seed):
    """Rebuild the orthonormal frame hodge_dual_iso derives from its seed."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def bitmask_hodge_deviation(frame):
    """Independent exterior-algebra model of the volume-contraction map.

    Wedge vectors are dicts mask -> coefficient over the standard frame.
    Annihilation by e_i kills bit i with sign (-1)^(set bits below i);
    contraction with a frame vector is the conjugate-weighted sum.
    """
    dim = frame.shape[0]

    def annihilate_std(vec, i):
        out = {}
        for mask, c in vec.items():
            if not (mask >> i) & 1:
                continue
            sign = -1.0 if bin(mask & ((1 << i) - 1)).count("1") % 2 else 1.0
            out[mask & ~(1 << i)] = out.get(mask & ~(1 << i), 0.0) + sign * c
        return out

    def contract_frame(vec, i):
        out = {}
        for row in range(dim):
            w = np.conj(frame[row, i])
            if w == 0:
                continue
            for mask, c in annihilate_std(vec, row).items():
                out[mask] = out.get(mask, 0.0) + w * c
        return out

    volume = {(1 << dim) - 1: np.linalg.det(frame)}
    worst = 0.0
    for k in range(dim + 1):
        rows = list(itertools.combinations(range(dim), dim - k))
        row_index = {s: p for p, s in enumerate(rows)}
        cols = []
        for s in itertools.combinations(range(dim), k):
            vec = volume
            for i in s:
                vec = contract_frame(vec, i)
            col = np.zeros(len(rows), dtype=complex)
            for mask, c in vec.items():
                bits = tuple(b for b in range(dim) if (mask >> b) & 1)
                col[row_index[bits]] = c
            cols.append(col)
        mat = np.column_stack(cols)
        worst = max(
            worst,
            float(np.abs(mat.conj().T @ mat - np.eye(mat.shape[1])).max()),
            float(np.abs(mat @ mat.conj().T - np.eye(mat.shape[0])).max()),
        )
    return worst


class TestHodgeDualIso:
    @pytest.mark.parametrize("dim,seed", [(1, 0), (2, 7), (3, 1), (4, 0)])
    def test_contraction_map_is_unitary(self, dim, seed):
        assert hodge_dual_iso(dim, seed=seed) <= 1e-10

    @pytest.mark.parametrize("dim,seed", [(2, 7), (3, 1), (3, 5)])
    def test_matches_bitmask_oracle(self, dim, seed):
        got = hodge_dual_iso(dim, seed=seed)
        want = bitmask_hodge_deviation(seeded_frame(dim, seed))
        assert abs(got - want) <= 1e-12

    def test_oversized_dimension_rejected(self):
        with pytest.raises(ResourceError, match="cap"):
            hodge_dual_iso(11)

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(ArgumentError):
            hodge_dual_iso(0)


def diag_phases(*phases):
    return np.diag(np.exp(2j * np.pi * np.asarray(phases)))


class TestBasisValidation:
    def test_reordered_basis_is_accepted(self):
        spec = dirac_spectrum(Holonomy(random_unitary(3, 5)), N=3)
        modes = band(spec, cut("-3/2"), cut("3/2"))
        line = DetLine(spec, cut("-3/2"), cut("3/2"), modes[::-1], 1.0)
        assert line.canonical().basis == modes

    def test_permuted_basis_with_a_repeated_mode_rejected(self):
        spec = dirac_spectrum(Holonomy(np.eye(2)), N=3)
        modes = list(band(spec, cut("-1/2"), cut("3/2")))
        modes[0] = modes[-1]
        with pytest.raises(ValidationError, match="permutation"):
            DetLine(spec, cut("-1/2"), cut("3/2"), modes[::-1], 1.0)

    def test_permuted_basis_of_another_band_rejected(self):
        spec = dirac_spectrum(Holonomy(np.eye(2)), N=3)
        modes = band(spec, cut("1/2"), cut("5/2"))
        with pytest.raises(ValidationError, match="permutation"):
            DetLine(spec, cut("-1/2"), cut("3/2"), modes[::-1], 1.0)

    def test_foreign_basis_of_the_same_size_rejected(self):
        spec = dirac_spectrum(Holonomy(diag_phases(0.3, 0.3)), N=3)
        other = dirac_spectrum(Holonomy(diag_phases(0.2, 0.4)), N=3)
        lo, hi = cut("-1/2"), cut("3/2")
        foreign = band(other, lo, hi)
        assert len(foreign) == len(band(spec, lo, hi))
        for basis in (foreign, foreign[::-1]):
            with pytest.raises(ValidationError, match="permutation"):
                DetLine(spec, lo, hi, basis, 1.0)

    def test_nan_phase_rejected(self):
        spec = dirac_spectrum(Holonomy(np.eye(1)), N=2)
        modes = band(spec, cut("-1/2"), cut("1/2"))
        with pytest.raises(ValidationError, match="unimodular"):
            DetLine(spec, cut("-1/2"), cut("1/2"), modes, complex(math.nan, 0.0))


class TestComposeSign:
    @pytest.mark.parametrize(
        "u",
        [random_unitary(3, 23), diag_phases(0.08, 0.08, 0.84), diag_phases(1 / 3, 1 / 3, 1 / 3)],
        ids=["su3-random", "su3-repeated", "su3-central"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_permuted_lines_carry_the_inversion_sign(self, u, seed):
        spec = dirac_spectrum(Holonomy(u), N=3)
        lo, mid, hi = cut("-5/2"), cut("1/2"), cut("5/2")
        rng = random.Random(seed)
        lines = []
        for a, b in ((lo, mid), (mid, hi)):
            modes = list(band(spec, a, b))
            rng.shuffle(modes)
            lines.append(DetLine(spec, a, b, modes, np.exp(2j * np.pi * rng.random())))
        out = compose(*lines)
        want = (
            lines[0].phase
            * lines[1].phase
            * inversion_sign(mode_keys(lines[0].basis + lines[1].basis))
        )
        assert out.basis == band(spec, lo, hi)
        assert abs(out.phase - want) <= 1e-15
        assert abs(out.canonical_phase() - want) <= 1e-15

    def test_equal_spectra_built_apart_compose(self):
        hol = Holonomy(diag_phases(0.2, 0.45, 0.8))
        s1, s2 = dirac_spectrum(hol, N=3), dirac_spectrum(hol, N=3)
        assert s1 is not s2 and s1 == s2
        modes = band(s1, cut("-1/2"), cut("1/2"))
        a = DetLine(s1, cut("-1/2"), cut("1/2"), modes[::-1], 1.0)
        b = det_line(s2, cut("1/2"), cut("3/2"))
        out = compose(a, b)
        assert out.basis == band(s1, cut("-1/2"), cut("3/2"))
        assert out.phase == inversion_sign(mode_keys(a.basis + b.basis))
