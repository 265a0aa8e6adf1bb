"""Determinant lines over spectral bands and their composition calculus.

A determinant line is a one-dimensional space spanned by the ordered wedge
of the eigenmodes in a band between two cuts.  Reordering the wedge costs
the sign of the permutation, so a line value is (ordered basis, phase) and
two values agree when their canonical representatives match.  Composition
concatenates adjacent bands and re-sorts into canonical order, picking up
that permutation sign; on triples of cuts the cocycle ratio must be exactly
one.

The Hodge pairing sends the degree-k duals into the complementary wedge
power via contraction with a fixed volume form; hodge_dual_iso measures
how far those contraction matrices are from unitary for a seeded random
orthonormal frame.
"""

from dataclasses import dataclass
import itertools
import math

import numpy as np

from .errors import (
    ArgumentError,
    CompositionError,
    CoverViolationError,
    ResourceError,
    ValidationError,
)
from .spectral import Spectrum, SpectralCut, band, in_cover

_PHASE_TOL = 1e-12


def _mode_key(mode):
    return (mode.eigenvalue, mode.color, mode.mode)


def _sort_with_sign(items, key=_mode_key):
    """(items sorted by key, sign of that permutation); each key is computed once."""
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
    return tuple(map(items.__getitem__, order)), -1 if (len(order) - cycles) % 2 else 1


def permutation_sign(items, key=_mode_key):
    """Sign of the permutation sorting `items` by `key` (cycle decomposition)."""
    return _sort_with_sign(items, key)[1]


@dataclass(frozen=True)
class DetLine:
    """A value in the determinant line of the band (lo, hi).

    basis is an ordered tuple of the band's eigenmodes (any order; the set
    must match the band exactly) and phase a unit complex scalar.  The
    canonical representative sorts the basis ascending and folds the
    permutation sign into the phase.
    """

    spectrum: Spectrum
    lo: SpectralCut
    hi: SpectralCut
    basis: tuple
    phase: complex

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        object.__setattr__(self, "phase", complex(self.phase))
        if not abs(abs(self.phase) - 1.0) <= _PHASE_TOL:
            raise ValidationError(f"phase must be unimodular, |phase| = {abs(self.phase)}")
        expected = band(self.spectrum, self.lo, self.hi)
        # tuple equality short-circuits on identical modes, so only a
        # reordered or foreign basis pays for the set comparison
        if self.basis != expected and (
            len(self.basis) != len(expected) or set(self.basis) != set(expected)
        ):
            raise ValidationError("basis is not a permutation of the band's modes")

    def canonical_phase(self):
        """Phase after re-sorting the basis into canonical band order."""
        return self.phase * permutation_sign(self.basis)

    def canonical(self):
        basis, sign = _sort_with_sign(self.basis)
        return DetLine(self.spectrum, self.lo, self.hi, basis, self.phase * sign)


def det_line(spectrum, lo, hi):
    """Canonical determinant-line value for the band between two cuts."""
    modes = band(spectrum, lo, hi)
    return DetLine(spectrum, lo, hi, modes, 1.0 + 0j)


def compose(a, b):
    """Concatenate adjacent band lines: wedge of a then b, re-sorted canonically.

    Requires a.hi == b.lo (same rational cut) and the same spectrum; the
    result's phase carries the sign of the permutation that interleaves the
    concatenated modes into ascending order.
    """
    if a.spectrum is not b.spectrum and a.spectrum != b.spectrum:
        raise CompositionError("lines live over different spectra")
    if a.hi.value != b.lo.value:
        raise CompositionError(
            f"bands are not adjacent: first ends at {a.hi.value}, second starts at {b.lo.value}"
        )
    canonical, sign = _sort_with_sign(a.basis + b.basis)
    return DetLine(a.spectrum, a.lo, b.hi, canonical, a.phase * b.phase * sign)


@dataclass(frozen=True)
class CechTriple:
    """Three ordered cuts lam < mu < tau with their pairwise band lines.

    lines defaults to the three canonical det_line values; callers may
    substitute permuted-basis or phase-tampered lines over the same bands.
    """

    spectrum: Spectrum
    lam: SpectralCut
    mu: SpectralCut
    tau: SpectralCut
    lines: tuple = None

    def __post_init__(self):
        if not (self.lam.value < self.mu.value < self.tau.value):
            raise ArgumentError(
                f"cuts must be strictly increasing, got "
                f"{self.lam.value}, {self.mu.value}, {self.tau.value}"
            )
        for cut in (self.lam, self.mu, self.tau):
            if not in_cover(self.spectrum, cut):
                raise CoverViolationError(f"cut {cut.value} hits the spectrum")
        if self.lines is None:
            object.__setattr__(
                self,
                "lines",
                (
                    det_line(self.spectrum, self.lam, self.mu),
                    det_line(self.spectrum, self.mu, self.tau),
                    det_line(self.spectrum, self.lam, self.tau),
                ),
            )
        else:
            object.__setattr__(self, "lines", tuple(self.lines))
            pairs = ((self.lam, self.mu), (self.mu, self.tau), (self.lam, self.tau))
            for line, (lo, hi) in zip(self.lines, pairs, strict=True):
                if line.lo.value != lo.value or line.hi.value != hi.value:
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
        gram = mat.conj().T @ mat
        cogram = mat @ mat.conj().T
        eye_g = np.eye(gram.shape[0])
        eye_c = np.eye(cogram.shape[0])
        worst = np.max(
            [worst, np.abs(gram - eye_g).max(), np.abs(cogram - eye_c).max()]
        )
    return float(worst)
