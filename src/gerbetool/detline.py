"""Determinant lines over spectral bands and their composition calculus.

A determinant line is a one-dimensional space spanned by the ordered wedge
of the eigenmodes in a band between two cuts.  Reordering the wedge costs
the sign of the permutation, so a line value is (ordered basis, phase) and
two values agree when their canonical representatives match.  A band is a
run of the spectrum's canonical modes, kept as its extent (start, stop).
Composition concatenates adjacent bands: the lower band's modes lie below
the shared cut, a cut in the cover, so two bands join into the band over
the outer cuts with no sort, and one rule (_composed) checks that they do
and multiplies the canonical phases.

A CechTable holds the line of every pair of sorted cuts over one spectrum,
built once, as arrays of canonical phases and band extents.  It evaluates
the cocycle ratio compose(L_ij, L_jk) / L_ik on every triple of cuts, and
both bracketings of L_ij L_jk L_kl against L_il on every quadruple, in a
few array operations; for lines produced by det_line the ratio is exactly
one, and an injected sign or phase defect shows in it.  The table is the
one cocycle entry point: compose, its scalar case, is the oracle the tests
check it against.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
import itertools

import numpy as np

from .errors import ArgumentError, CompositionError, ValidationError
from .spectral import Spectrum, SpectralCut, band

_PHASE_TOL = 1e-12


def _mode_key(mode):
    return (mode.eigenvalue, mode.color, mode.mode)


def permutation_sign(items, key=_mode_key):
    """Sign of the permutation sorting `items` by `key`; each key is computed once."""
    keys = [key(item) for item in items]
    order = sorted(range(len(items)), key=keys.__getitem__)
    seen = [False] * len(order)
    cycles = 0
    for start in range(len(order)):
        if not seen[start]:
            cycles += 1
            k = start
            while not seen[k]:
                seen[k] = True
                k = order[k]
    return -1 if (len(order) - cycles) % 2 else 1


def _extent(spectrum, modes):
    """(start, stop) with modes == spectrum.modes[start:stop]; (0, 0) for no modes.

    The first mode is looked up from its eigenvalue's bisected position, so
    only modes of equal eigenvalue are passed over; modes that are no run of
    the spectrum's canonical modes raise ValidationError.
    """
    modes = tuple(modes)
    if not modes:
        return 0, 0
    canonical = spectrum.modes
    try:
        start = canonical.index(modes[0], bisect_left(spectrum._eigenvalues, modes[0].eigenvalue))
    except ValueError:
        start = None
    if start is None or canonical[start : start + len(modes)] != modes:
        raise ValidationError("band is not a run of the spectrum's modes")
    return start, start + len(modes)


def _composed(lower, upper, outer, name):
    """Canonical phase of the line `lower` composed with the adjacent line `upper`.

    lower and upper are (canonical phase, (start, stop)) pairs and outer the
    extent of the band over their outer cuts, each of scalars or of arrays
    of one shape: compose and CechTable share this one rule.  The two bands
    must join into the outer band (an empty band is neutral, and two others
    join where the first stops at the second's start), or CompositionError
    names the first composition that fails, as name(index) of the raveled
    arrays; the phases then multiply, with no sort.
    """
    (lower_phase, (lower_start, lower_stop)), (upper_phase, (upper_start, upper_stop)) = lower, upper
    lower_empty, upper_empty = lower_start == lower_stop, upper_start == upper_stop
    fine = (
        (lower_empty | upper_empty | (lower_stop == upper_start))
        & (np.where(lower_empty, upper_start, lower_start) == outer[0])
        & (np.where(upper_empty, lower_stop, upper_stop) == outer[1])
    )
    if not np.all(fine):
        raise CompositionError(f"{name(np.argmin(fine))}: the joined bands are not the outer band")
    return lower_phase * upper_phase


@dataclass(frozen=True)
class DetLine:
    """A value in the determinant line of the band (lo, hi).

    basis is an ordered tuple of the band's eigenmodes (any order; the set
    must match the band exactly), or None for the band's own modes in
    canonical order, and phase a unit complex scalar.  The
    canonical representative sorts the basis ascending and folds the
    permutation sign into the phase; that sign is fixed once, when the
    basis is checked against the band, and the band's extent is kept for
    canonical() and composition.
    """

    spectrum: Spectrum
    lo: SpectralCut
    hi: SpectralCut
    basis: tuple
    phase: complex
    _sign: int = field(init=False, repr=False, compare=False)
    _extent: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "phase", complex(self.phase))
        if not abs(abs(self.phase) - 1.0) <= _PHASE_TOL:
            raise ValidationError(f"phase must be unimodular, |phase| = {abs(self.phase)}")
        expected = band(self.spectrum, self.lo, self.hi)
        basis = expected if self.basis is None else tuple(self.basis)
        object.__setattr__(self, "basis", basis)
        # tuple equality short-circuits on identical modes, so only a
        # reordered or foreign basis pays for the set comparison and a sort;
        # the band is in canonical order, so its own sign is +1
        sign = 1
        if self.basis != expected:
            if len(self.basis) != len(expected) or set(self.basis) != set(expected):
                raise ValidationError("basis is not a permutation of the band's modes")
            sign = permutation_sign(self.basis)
        object.__setattr__(self, "_sign", sign)
        object.__setattr__(self, "_extent", _extent(self.spectrum, expected))

    def canonical_phase(self):
        """Phase after re-sorting the basis into canonical band order."""
        return self.phase * self._sign

    def canonical(self):
        return DetLine(self.spectrum, self.lo, self.hi, None, self.canonical_phase())


def det_line(spectrum, lo, hi):
    """Canonical determinant-line value for the band between two cuts; one band lookup."""
    return DetLine(spectrum, lo, hi, None, 1.0 + 0j)


def compose(a, b):
    """Concatenate adjacent band lines: wedge of a then b, in canonical form.

    Requires a.hi == b.lo (same rational cut) and the same spectrum; the
    bands must join into the band over (a.lo, b.hi), checked by _composed,
    the rule CechTable applies to every triple.
    """
    if a.spectrum is not b.spectrum and a.spectrum != b.spectrum:
        raise CompositionError("lines live over different spectra")
    if not (a.hi is b.lo or a.hi.value == b.lo.value):
        raise CompositionError(
            f"bands are not adjacent: first ends at {a.hi.value}, second starts at {b.lo.value}"
        )
    whole = band(a.spectrum, a.lo, b.hi)
    phase = _composed(
        (a.canonical_phase(), a._extent),
        (b.canonical_phase(), b._extent),
        _extent(a.spectrum, whole),
        lambda _: f"lines over ({a.lo.value}, {a.hi.value}) and ({b.lo.value}, {b.hi.value})",
    )
    return DetLine(a.spectrum, a.lo, b.hi, whole, phase)


def _index_tuples(m, r):
    """The r-subsets i < j < ... of range(m) in combinations order, as r index arrays."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(m), r))
    return np.fromiter(flat, dtype=np.intp).reshape(-1, r).T


class CechTable:
    """The line of every pair of sorted cuts over one spectrum, as arrays.

    line(spectrum, lo, hi) gives the line over each pair of cuts i < j,
    once, in combinations order: det_line by default, or lines as handed,
    such as permuted bases (each line folded its sign in once, when it was
    built) or tampered phases.  Every line checked its band when it was
    built, so it must lie over this spectrum (is, then ==) and equal its
    cut pair as SpectralCut values (value and gap tolerance); the cuts are
    not tested again.  phases[i, j] is the canonical phase of the line over
    (cuts[i], cuts[j]) and extents[:, i, j] its band's (start, stop);
    entries off i < j are never read.
    """

    def __init__(self, spectrum, cuts, line=None):
        cuts = tuple(cuts)
        # a float "<" that holds is exact: float() of a Fraction is monotone
        if not all(a.point < b.point or a.value < b.value for a, b in zip(cuts, cuts[1:])):
            raise ArgumentError(
                "cuts must be strictly increasing, got " + ", ".join(str(c.value) for c in cuts)
            )
        line = det_line if line is None else line
        pairs = list(itertools.combinations(cuts, 2))
        # band raises CoverViolationError for a cut on the spectrum
        lines = tuple(line(spectrum, lo, hi) for lo, hi in pairs)
        for made, (lo, hi) in zip(lines, pairs):
            if made.spectrum is not spectrum and made.spectrum != spectrum:
                raise ArgumentError(
                    f"line over ({made.lo.value}, {made.hi.value}) lives over another spectrum"
                )
            if not ((made.lo is lo or made.lo == lo) and (made.hi is hi or made.hi == hi)):
                raise ArgumentError(
                    f"line over ({made.lo.value}, {made.hi.value}) does not "
                    f"match the cut pair ({lo.value}, {hi.value})"
                )
        upper = np.triu_indices(len(cuts), 1)
        self.spectrum, self.cuts, self.lines = spectrum, cuts, lines
        self.phases = np.ones((len(cuts),) * 2, dtype=complex)
        self.phases[upper] = [made.canonical_phase() for made in lines]
        self.extents = np.zeros((2,) + self.phases.shape, dtype=np.intp)
        self.extents[:, upper[0], upper[1]] = np.reshape([made._extent for made in lines], (-1, 2)).T

    def _compose(self, i, j, k, lower, upper):
        """Phases lower over (i, j) and upper over (j, k), composed by _composed."""
        extents, cuts = self.extents, self.cuts
        return _composed(
            (lower, extents[:, i, j]),
            (upper, extents[:, j, k]),
            extents[:, i, k],
            lambda at: (
                f"lines over ({cuts[i[at]].value}, {cuts[j[at]].value}) "
                f"and ({cuts[j[at]].value}, {cuts[k[at]].value})"
            ),
        )

    def deltas(self):
        """Cocycle ratio compose(L_ij, L_jk) / L_ik of every triple i < j < k, in combinations order."""
        i, j, k = _index_tuples(len(self.cuts), 3)
        phases = self.phases
        return self._compose(i, j, k, phases[i, j], phases[j, k]) / phases[i, k]

    def associativity(self):
        """max(|left - right|, |left - L_il|) of every quadruple i < j < k < l.

        left and right are the bracketings (L_ij L_jk) L_kl and L_ij (L_jk L_kl):
        composition is associative for any line values, so only the
        comparison with L_il sees a bad line in the table.
        """
        i, j, k, l = _index_tuples(len(self.cuts), 4)
        phases, join = self.phases, self._compose
        left = join(i, k, l, join(i, j, k, phases[i, j], phases[j, k]), phases[k, l])
        right = join(i, j, l, phases[i, j], join(j, k, l, phases[j, k], phases[k, l]))
        return np.maximum(np.abs(left - right), np.abs(left - phases[i, l]))

