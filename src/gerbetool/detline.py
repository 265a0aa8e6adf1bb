"""Determinant lines over spectral bands and their composition calculus.

A determinant line is a one-dimensional space spanned by the ordered wedge
of the eigenmodes in a band between two cuts.  Reordering the wedge costs
the sign of the permutation, so a line value is (ordered basis, phase) and
two values agree when their canonical representatives match.  Composition
concatenates the canonical bases of adjacent bands, already in canonical
order since the lower band's modes lie below the shared cut, a cut in the
cover; on triples of cuts the cocycle ratio must be exactly one.

The Hodge pairing sends the degree-k duals into the complementary wedge
power via contraction with a fixed volume form; hodge_dual_iso measures
how far those contraction matrices are from unitary for a seeded random
orthonormal frame.
"""

from dataclasses import dataclass, field
import itertools
import math

import numpy as np

from .errors import ArgumentError, CompositionError, ResourceError, ValidationError
from .spectral import Spectrum, SpectralCut, _unitarity_defect, band

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


@dataclass(frozen=True)
class DetLine:
    """A value in the determinant line of the band (lo, hi).

    basis is an ordered tuple of the band's eigenmodes (any order; the set
    must match the band exactly) and phase a unit complex scalar.  The
    canonical representative sorts the basis ascending and folds the
    permutation sign into the phase; that sign is fixed once, when the
    basis is checked against the band, and the band is kept for canonical().
    """

    spectrum: Spectrum
    lo: SpectralCut
    hi: SpectralCut
    basis: tuple
    phase: complex
    _sign: int = field(init=False, repr=False, compare=False)
    _band: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        object.__setattr__(self, "phase", complex(self.phase))
        if not abs(abs(self.phase) - 1.0) <= _PHASE_TOL:
            raise ValidationError(f"phase must be unimodular, |phase| = {abs(self.phase)}")
        expected = band(self.spectrum, self.lo, self.hi)
        # tuple equality short-circuits on identical modes, so only a
        # reordered or foreign basis pays for the set comparison and a sort;
        # the band is in canonical order, so its own sign is +1
        sign = 1
        if self.basis != expected:
            if len(self.basis) != len(expected) or set(self.basis) != set(expected):
                raise ValidationError("basis is not a permutation of the band's modes")
            sign = permutation_sign(self.basis)
        object.__setattr__(self, "_sign", sign)
        object.__setattr__(self, "_band", expected)

    def canonical_phase(self):
        """Phase after re-sorting the basis into canonical band order."""
        return self.phase * self._sign

    def canonical(self):
        return DetLine(self.spectrum, self.lo, self.hi, self._band, self.canonical_phase())


def det_line(spectrum, lo, hi):
    """Canonical determinant-line value for the band between two cuts."""
    return DetLine(spectrum, lo, hi, band(spectrum, lo, hi), 1.0 + 0j)


def compose(a, b):
    """Concatenate adjacent band lines: wedge of a then b, in canonical form.

    Requires a.hi == b.lo (same rational cut) and the same spectrum.  a's
    band lies below the shared cut, so the two canonical bases joined are in
    canonical order with no sort; building the result checks them against
    the joined band.
    """
    if a.spectrum is not b.spectrum and a.spectrum != b.spectrum:
        raise CompositionError("lines live over different spectra")
    if not (a.hi is b.lo or a.hi.value == b.lo.value):
        raise CompositionError(
            f"bands are not adjacent: first ends at {a.hi.value}, second starts at {b.lo.value}"
        )
    phase = a.canonical_phase() * b.canonical_phase()
    return DetLine(a.spectrum, a.lo, b.hi, a._band + b._band, phase)


@dataclass(frozen=True)
class CechTriple:
    """Three ordered cuts lam < mu < tau with their pairwise band lines.

    lines defaults to the three canonical det_line values; callers may
    substitute permuted-basis or phase-tampered lines over the same bands.
    Every line checked its own cuts against its spectrum when it was built,
    so a handed line must lie over this spectrum and these cuts (value and
    gap tolerance), and the cuts are not tested again.
    """

    spectrum: Spectrum
    lam: SpectralCut
    mu: SpectralCut
    tau: SpectralCut
    lines: tuple = None

    def __post_init__(self):
        lam, mu, tau = self.lam, self.mu, self.tau
        # a float "<" that holds is exact: float() of a Fraction is monotone
        if not (lam.point < mu.point or lam.value < mu.value) or not (
            mu.point < tau.point or mu.value < tau.value
        ):
            raise ArgumentError(
                f"cuts must be strictly increasing, got {lam.value}, {mu.value}, {tau.value}"
            )
        pairs = ((lam, mu), (mu, tau), (lam, tau))
        if self.lines is None:
            # band raises CoverViolationError for a cut on the spectrum
            lines = tuple(det_line(self.spectrum, lo, hi) for lo, hi in pairs)
            object.__setattr__(self, "lines", lines)
            return
        object.__setattr__(self, "lines", tuple(self.lines))
        for line, (lo, hi) in zip(self.lines, pairs, strict=True):
            if line.spectrum is not self.spectrum and line.spectrum != self.spectrum:
                raise ArgumentError(
                    f"line over ({line.lo.value}, {line.hi.value}) lives over another spectrum"
                )
            if not ((line.lo is lo or line.lo == lo) and (line.hi is hi or line.hi == hi)):
                raise ArgumentError(
                    f"line over ({line.lo.value}, {line.hi.value}) does not "
                    f"match the cut pair ({lo.value}, {hi.value})"
                )


def delta_triviality(triple):
    """Cocycle ratio compose(L_{lam,mu}, L_{mu,tau}) / L_{lam,tau}.

    Returns the complex ratio of canonical phases; exactly 1 for lines
    produced by det_line, and it detects any injected sign or phase defect.
    """
    lam_mu, mu_tau, lam_tau = triple.lines
    composed = compose(lam_mu, mu_tau)
    return composed.canonical_phase() / lam_tau.canonical_phase()


def _random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _annihilators(dim):
    """Per-degree matrices of a_i: wedge^k -> wedge^(k-1) in the standard frame."""
    subsets = [list(itertools.combinations(range(dim), k)) for k in range(dim + 1)]
    index = [{s: p for p, s in enumerate(level)} for level in subsets]
    ops = []
    for i in range(dim):
        levels = []
        for k in range(1, dim + 1):
            mat = np.zeros((len(subsets[k - 1]), len(subsets[k])))
            for col, s in enumerate(subsets[k]):
                if i not in s:
                    continue
                pos = s.index(i)
                rest = s[:pos] + s[pos + 1 :]
                mat[index[k - 1][rest], col] = (-1.0) ** pos
            levels.append(mat)
        ops.append(levels)
    return subsets, ops


def hodge_dual_iso(dim, seed=0):
    """Max deviation from unitarity of the volume-contraction maps.

    Draws a seeded random orthonormal frame f_1..f_dim, forms the volume
    vector f_1 ^ ... ^ f_dim, and for each degree k builds the matrix that
    sends the dual wedge basis element indexed by S (ascending) to the
    contraction a_{f_{s_k}} ... a_{f_{s_1}} (volume).  Returns the largest
    entrywise deviation of A A^dag and A^dag A from the identity over all
    degrees; dimensions above 10 raise ResourceError.
    """
    if dim < 1:
        raise ArgumentError("dimension must be positive")
    if dim > 10:
        raise ResourceError(f"dimension {dim} exceeds the supported cap of 10")
    frame = _random_unitary(dim, seed)
    subsets, ops = _annihilators(dim)
    # volume = wedge of the frame columns, expressed in the standard top form
    vol_coord = np.linalg.det(frame)
    # contraction with conj(f_i) in the standard frame
    def contract(vec, k, i):
        f = frame[:, i]
        out = np.zeros(len(subsets[k - 1]), dtype=complex)
        for row in range(dim):
            out += np.conj(f[row]) * (ops[row][k - 1] @ vec)
        return out

    worst = 0.0
    for k in range(dim + 1):
        cols = []
        for s in itertools.combinations(range(dim), k):
            vec = np.zeros(len(subsets[dim]), dtype=complex)
            vec[0] = vol_coord
            deg = dim
            for i in s:
                vec = contract(vec, deg, i)
                deg -= 1
            cols.append(vec)
        mat = np.column_stack(cols) if cols else np.zeros((len(subsets[dim - k]), 0))
        worst = np.max([worst, _unitarity_defect(mat), _unitarity_defect(mat.conj().T)])
    return float(worst)
