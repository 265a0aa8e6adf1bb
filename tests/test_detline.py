"""Determinant lines over spectral bands and their composition calculus.

Oracle for permutation phases: count inversions of the sort keys directly.
Oracle for composition: the canonical phase of any composition chain equals
the product of the input phases times the inversion sign of the bases
concatenated in composition order.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gerbetool import detline
from gerbetool.detline import (
    CechTable,
    DetLine,
    compose,
    det_line,
    permutation_sign,
)
from gerbetool.errors import (
    ArgumentError,
    CompositionError,
    CoverViolationError,
    ValidationError,
)
from gerbetool.presets import holonomy_suite
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


def without_top_mode(real):
    """The fault table's band fault: _band_extent stops one mode short of a nonempty band's top."""

    def fault(spectrum, lo, hi):
        start, stop = real(spectrum, lo, hi)
        return start, stop - (stop > start)

    return fault


def handed(*lines):
    """A CechTable line function handing out `lines`, one per cut pair in combinations order."""
    supply = iter(lines)
    return lambda spectrum, lo, hi: next(supply)


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


class TestExactCutOrder:
    def test_same_float_cuts_are_ordered_by_value(self):
        # distinct rationals with one float: the float "<" cannot settle
        # their order, the Fractions do
        a, b = Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30)
        assert float(a) == float(b)
        spec = dirac_spectrum(Holonomy(np.eye(2)), N=2)
        table = CechTable(spec, map(cut, (a, b, "1/2")))
        assert [line.basis for line in table.lines] == [(), (), ()]
        for cuts in ((b, a, "1/2"), ("-1/2", b, a), (a, a, "1/2")):
            with pytest.raises(ArgumentError, match="strictly increasing"):
                CechTable(spec, map(cut, cuts))


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
        (delta,) = CechTable(spec, map(cut, ("-1/2", "1/2", "3/2"))).deltas()
        assert abs(delta - 1.0) <= 1e-12

    def test_su2_phase_family(self):
        spec = dirac_spectrum(Holonomy(SU2_03), N=3)
        (delta,) = CechTable(spec, map(cut, ("-1/2", "2/5", "3/2"))).deltas()
        assert abs(delta - 1.0) <= 1e-12

    def test_tampered_line_detected(self):
        spec = dirac_spectrum(Holonomy(np.eye(2)), N=3)
        lam, mu, tau = cut("-1/2"), cut("1/2"), cut("3/2")
        modes = band(spec, lam, mu)
        swapped = (modes[1], modes[0])
        lines = handed(
            DetLine(spec, lam, mu, swapped, 1.0),
            det_line(spec, lam, tau),
            det_line(spec, mu, tau),
        )
        (delta,) = CechTable(spec, (lam, mu, tau), lines).deltas()
        assert abs(delta + 1.0) <= 1e-12

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
                (delta,) = CechTable(spec, map(SpectralCut, (lam, mu, tau))).deltas()
                assert abs(delta - 1.0) <= 1e-12, (lam, mu, tau)

    def test_unordered_cuts_rejected(self):
        spec = dirac_spectrum(Holonomy(np.eye(1)), N=3)
        with pytest.raises(ArgumentError, match="increasing"):
            CechTable(spec, map(cut, ("1/2", "-1/2", "3/2")))

    def test_cut_on_spectrum_rejected(self):
        spec = dirac_spectrum(Holonomy(np.eye(1)), N=3)
        with pytest.raises(CoverViolationError):
            CechTable(spec, map(cut, ("-1/2", "1", "3/2")))

    def test_line_over_wrong_pair_rejected(self):
        spec = dirac_spectrum(Holonomy(np.eye(1)), N=3)
        lam, mu, tau = cut("-1/2"), cut("1/2"), cut("3/2")
        bad = handed(
            det_line(spec, lam, tau),
            det_line(spec, lam, tau),
            det_line(spec, mu, tau),
        )
        with pytest.raises(ArgumentError, match="cut pair"):
            CechTable(spec, (lam, mu, tau), bad)

    def test_line_over_another_spectrum_rejected(self):
        # the cuts are admissible for both spectra, so only the spectrum
        # tells the lines apart; the table does not re-test its cuts
        spec = dirac_spectrum(Holonomy(np.eye(1)), N=3)
        other = dirac_spectrum(Holonomy(np.diag([np.exp(0.4j * np.pi)])), N=3)
        lam, mu, tau = cut("-1/2"), cut("1/2"), cut("3/2")
        assert all(in_cover(s, c) for s in (spec, other) for c in (lam, mu, tau))
        lines = handed(det_line(other, lam, mu), det_line(spec, lam, tau), det_line(spec, mu, tau))
        with pytest.raises(ArgumentError, match="another spectrum"):
            CechTable(spec, (lam, mu, tau), lines)
        # an equal spectrum built apart is the same spectrum
        twin = dirac_spectrum(Holonomy(np.eye(1)), N=3)
        lines = handed(det_line(twin, lam, mu), det_line(spec, lam, tau), det_line(spec, mu, tau))
        (delta,) = CechTable(spec, (lam, mu, tau), lines).deltas()
        assert abs(delta - 1.0) <= 1e-12

    def test_line_with_another_gap_tolerance_rejected(self):
        # mu = 1/2 with gap tolerance 0.6 touches the eigenvalues 0 and 1
        # that the lines' default tolerance passes
        spec = dirac_spectrum(Holonomy(np.eye(1)), N=3)
        lam, mu, tau = cut("-1/2"), cut("1/2"), cut("3/2")
        lines = handed(det_line(spec, lam, mu), det_line(spec, lam, tau), det_line(spec, mu, tau))
        wide = SpectralCut(Fraction(1, 2), gap_tolerance=0.6)
        assert not in_cover(spec, wide)
        with pytest.raises(ArgumentError, match="cut pair"):
            CechTable(spec, (lam, wide, tau), lines)


def half_cuts(n_max):
    """The cocycle battery's cuts: the half-integers inside (-n_max + 1, n_max - 1)."""
    return [SpectralCut(Fraction(2 * k + 1, 2)) for k in range(-n_max + 1, n_max - 1)]


def pair_lines(spec, cuts):
    """The canonical line of every cut pair, keyed (i, j) with i < j."""
    return {
        (i, j): det_line(spec, cuts[i], cuts[j])
        for i, j in itertools.combinations(range(len(cuts)), 2)
    }


def loop_residuals(lines, m):
    """The per-triple and per-quadruple compose loop over the same lines: the oracle.

    Triples give |compose(L_ij, L_jk) / L_ik - 1|, quadruples the larger of
    |left - right| and |left - L_il| for the two bracketings of L_ij L_jk L_kl.
    """
    deltas = [
        abs(compose(lines[i, j], lines[j, k]).canonical_phase() / lines[i, k].canonical_phase() - 1.0)
        for i, j, k in itertools.combinations(range(m), 3)
    ]
    brackets = []
    for i, j, k, l in itertools.combinations(range(m), 4):
        first, middle, last = lines[i, j], lines[j, k], lines[k, l]
        left = compose(compose(first, middle), last).canonical_phase()
        right = compose(first, compose(middle, last)).canonical_phase()
        brackets.append(max(abs(left - right), abs(left - lines[i, l].canonical_phase())))
    return np.array(deltas, dtype=float), np.array(brackets, dtype=float)


def table_residuals(spec, cuts, lines):
    """The same residuals from one CechTable handed the same lines."""
    table = CechTable(spec, cuts, lambda s, lo, hi: lines[cuts.index(lo), cuts.index(hi)])
    return np.abs(table.deltas() - 1.0), table.associativity()


def assert_same_bits(spec, cuts, lines):
    """Table and loop residuals agree bit for bit; returns the worst of each."""
    want = loop_residuals(lines, len(cuts))
    got = table_residuals(spec, cuts, lines)
    for w, g in zip(want, got):
        assert g.dtype == np.float64 and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    return tuple(float(np.max(w, initial=0.0)) for w in want)


class TestCechTable:
    @pytest.mark.parametrize("n_max", [4, 8])
    def test_standard_suite_matches_the_compose_loop(self, n_max):
        suite = holonomy_suite("standard")
        assert len(suite) == 20
        for label, hol in suite:
            spec = dirac_spectrum(hol, n_max)
            cuts = [c for c in half_cuts(n_max) if in_cover(spec, c)]
            assert len(cuts) >= 4, label
            assert assert_same_bits(spec, cuts, pair_lines(spec, cuts)) == (0.0, 0.0), label

    @pytest.mark.parametrize("label", ["u1-generic-a", "su2-degenerate", "su3-generic-a"])
    def test_one_negated_line_reads_two(self, label):
        # the line over the first two cuts is the lower factor of every
        # triple (0, 1, k) and quadruple (0, 1, k, l)
        spec = dirac_spectrum(dict(holonomy_suite("standard"))[label], 4)
        cuts = [c for c in half_cuts(4) if in_cover(spec, c)]
        lines = pair_lines(spec, cuts)
        good = lines[0, 1]
        lines[0, 1] = DetLine(spec, good.lo, good.hi, good.basis, -good.phase)
        assert assert_same_bits(spec, cuts, lines) == (2.0, 2.0)

    def test_generic_phases_match_the_loop_to_roundoff(self):
        # numpy's complex products and quotients may round differently from
        # Python's, so generic unit phases agree to a few ulp of the
        # residuals, which are at most 2
        spec = dirac_spectrum(Holonomy(diag_phases(0.2, 0.45, 0.8)), 4)
        cuts = half_cuts(4)
        rng = np.random.default_rng(5)
        lines = {
            key: DetLine(spec, line.lo, line.hi, line.basis, np.exp(2j * np.pi * rng.random()))
            for key, line in pair_lines(spec, cuts).items()
        }
        for want, got in zip(loop_residuals(lines, len(cuts)), table_residuals(spec, cuts, lines)):
            assert np.abs(got - want).max() <= 8 * np.finfo(float).eps
            assert want.max() > 1.0

    def test_permuted_basis_with_its_sign_reads_zero(self):
        # a reversed basis with its inversion sign as phase is the canonical
        # line again: the sign is folded once, when the line is built
        spec = dirac_spectrum(Holonomy(diag_phases(0.2, 0.45, 0.8)), 4)
        cuts = half_cuts(4)
        lines = pair_lines(spec, cuts)
        for key in ((0, 5), (1, 3)):
            modes = lines[key].basis[::-1]
            sign = inversion_sign(mode_keys(modes))
            lines[key] = DetLine(spec, lines[key].lo, lines[key].hi, modes, sign)
            assert sign == -1.0 and lines[key].canonical_phase() == 1.0
        assert assert_same_bits(spec, cuts, lines) == (0.0, 0.0)

    def test_empty_bands_are_neutral(self):
        # quarter cuts leave every other adjacent band of u1 empty
        spec = dirac_spectrum(Holonomy(np.eye(1)), 3)
        cuts = [cut(q) for q in ("-5/4", "-3/4", "-1/4", "1/4", "3/4", "5/4", "7/4")]
        lines = pair_lines(spec, cuts)
        assert lines[0, 1].basis != () and lines[1, 2].basis == ()
        assert assert_same_bits(spec, cuts, lines) == (0.0, 0.0)
        # an empty band's line still carries a phase
        lines[1, 2] = DetLine(spec, cuts[1], cuts[2], (), -1.0)
        assert assert_same_bits(spec, cuts, lines) == (2.0, 2.0)

    def test_band_without_its_top_mode_raises_as_the_loop_does(self, monkeypatch):
        # the fault table's band fault: on u1 each adjacent band loses its
        # one mode, so two adjacent bands no longer meet at their shared cut,
        # while the band over both keeps one mode
        monkeypatch.setattr(detline, "_band_extent", without_top_mode(detline._band_extent))
        spec = dirac_spectrum(Holonomy(np.eye(1)), 4)
        cuts = half_cuts(4)
        lines = pair_lines(spec, cuts)
        assert lines[0, 1].basis == () and len(lines[0, 2].basis) == 1
        with pytest.raises(CompositionError) as loop:
            loop_residuals(lines, len(cuts))
        table = CechTable(spec, cuts, lambda s, lo, hi: lines[cuts.index(lo), cuts.index(hi)])
        for residuals in (table.deltas, table.associativity):
            with pytest.raises(CompositionError) as got:
                residuals()
            assert str(got.value) == str(loop.value)
        assert str(loop.value) == (
            "lines over (-5/2, -3/2) and (-3/2, -1/2): the joined bands are not the outer band"
        )

    def test_compose_shares_the_join_rule(self, monkeypatch):
        monkeypatch.setattr(detline, "_band_extent", without_top_mode(detline._band_extent))
        spec = dirac_spectrum(Holonomy(np.eye(2)), 3)
        a = det_line(spec, cut("-1/2"), cut("1/2"))
        b = det_line(spec, cut("1/2"), cut("3/2"))
        with pytest.raises(CompositionError, match="joined bands"):
            compose(a, b)

    def test_index_order_and_sizes(self):
        spec = dirac_spectrum(Holonomy(np.eye(1)), 4)
        assert len(half_cuts(4)) == 6
        for m in range(7):
            table = CechTable(spec, half_cuts(4)[:m])
            assert table.phases.shape == (m, m) and table.extents.shape == (2, m, m)
            assert table.deltas().shape == (math.comb(m, 3),)
            assert table.associativity().shape == (math.comb(m, 4),)
            assert len(table.lines) == math.comb(m, 2)
        # the lines come in combinations order, and each band is its extent's run
        for (i, j), line in zip(itertools.combinations(range(6), 2), table.lines):
            assert (line.lo, line.hi) == (table.cuts[i], table.cuts[j])
            start, stop = table.extents[:, i, j]
            assert spec.modes[start:stop] == line.basis and table.phases[i, j] == 1.0

    def test_handed_lines_are_checked(self):
        spec = dirac_spectrum(Holonomy(np.eye(1)), 4)
        other = dirac_spectrum(Holonomy(diag_phases(0.2)), 4)
        cuts = half_cuts(4)[:3]
        with pytest.raises(ArgumentError, match="another spectrum"):
            CechTable(spec, cuts, lambda s, lo, hi: det_line(other, lo, hi))
        with pytest.raises(ArgumentError, match="cut pair"):
            CechTable(spec, cuts, lambda s, lo, hi: det_line(s, cuts[0], cuts[2]))
        with pytest.raises(ArgumentError, match="strictly increasing"):
            CechTable(spec, cuts[::-1])
        with pytest.raises(CoverViolationError):
            CechTable(spec, [cuts[0], cut("-2"), cuts[2]])


def diag_phases(*phases):
    return np.diag(np.exp(2j * np.pi * np.asarray(phases)))


class TestBasisValidation:
    def test_det_line_looks_its_band_up_once(self, monkeypatch):
        # the basis is the band itself, so it is not looked up again to be checked
        spec = dirac_spectrum(Holonomy(diag_phases(0.2, 0.45, 0.8)), N=4)
        calls = []
        real = detline._band_extent

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(detline, "_band_extent", counting)
        cuts = [cut(q) for q in ("-5/2", "-1/2", "3/2", "7/2")]
        lines = [det_line(spec, lo, hi) for lo, hi in itertools.combinations(cuts, 2)]
        assert len(calls) == len(lines) == 6
        for line in lines:
            assert line.basis == band(spec, line.lo, line.hi) and line.phase == 1.0
            start, stop = line._extent
            assert line.basis == spec.modes[start:stop] and line._sign == 1
        handed = DetLine(spec, cuts[0], cuts[3], lines[2].basis[::-1], 1.0)
        assert len(calls) == 7 and handed._sign == permutation_sign(lines[2].basis[::-1])
        assert handed.canonical() == DetLine(spec, cuts[0], cuts[3], None, handed._sign)
        # a table looks up the band of each cut pair once, through its line
        for m in range(len(cuts) + 1):
            calls.clear()
            CechTable(spec, cuts[:m])
            assert len(calls) == math.comb(m, 2)

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


class TestSignAtConstruction:
    @pytest.mark.parametrize(
        "u",
        [np.eye(2), random_unitary(3, 29), diag_phases(0.08, 0.08, 0.84)],
        ids=["u2-trivial", "su3-random", "su3-repeated"],
    )
    @pytest.mark.parametrize("seed", range(6))
    def test_shuffled_basis_sign_is_the_inversion_sign(self, u, seed):
        spec = dirac_spectrum(Holonomy(u), N=3)
        lo, hi = cut("-5/2"), cut("3/2")
        modes = band(spec, lo, hi)
        rng = random.Random(seed)
        shuffled = list(modes)
        rng.shuffle(shuffled)
        phase = np.exp(2j * np.pi * rng.random())
        line = DetLine(spec, lo, hi, shuffled, phase)
        want = line.phase * inversion_sign(mode_keys(shuffled))
        assert line.canonical_phase() == want
        canonical = line.canonical()
        assert canonical.basis == modes
        assert canonical.phase == want and canonical.canonical_phase() == want

    def test_band_basis_needs_no_sort(self, monkeypatch):
        # a basis equal to its band is in canonical order: sign +1, no sort
        spec = dirac_spectrum(Holonomy(diag_phases(0.2, 0.45, 0.8)), N=3)
        monkeypatch.setattr(
            detline, "permutation_sign", lambda *a, **k: pytest.fail("sorted a band")
        )
        monkeypatch.setattr(
            detline, "sorted", lambda *a, **k: pytest.fail("sorted a band"), raising=False
        )
        line = DetLine(spec, cut("-5/2"), cut("5/2"), band(spec, cut("-5/2"), cut("5/2")), -1j)
        assert line.canonical_phase() == -1j
        assert line.canonical() == line


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
