"""Spectrum of the twisted circle Dirac operator and spectral cuts.

A flat unitary holonomy U on the circle twists the operator -i d/dtheta.
Writing the eigenvalues of U as exp(i*phi_c) with phi_c in [0, 2*pi), the
operator's spectrum is {m + phi_c/(2*pi) : m integer, c = 1..n}.  A window
of Fourier modes |m| <= N truncates this to (2N+1)*n values.  Cuts between
eigenvalues are exact rationals; membership tests are strict with a
gap tolerance so float eigenvalues can never sit ambiguously on a cut.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import (
    ArgumentError,
    CoverViolationError,
    RangeError,
    ResolutionError,
    ValidationError,
)

TWO_PI = 2.0 * math.pi

# Eigenvalue motion per path step larger than this (in eigenvalue units,
# i.e. quarter of the mode spacing) makes phase tracking ambiguous.
_MAX_STEP = 0.25

_PHASE_SNAP = 1e-12


def rational(x):
    """Coerce x to an exact Fraction; floats are rejected, strings allowed."""
    if isinstance(x, (Fraction, int, str)):
        return Fraction(x)
    raise ArgumentError(
        f"cut positions must be exact rationals (Fraction, int or 'p/q' string), got {type(x).__name__}"
    )


@dataclass(frozen=True)
class Holonomy:
    """A unitary n x n holonomy matrix with a validation tolerance."""

    matrix: np.ndarray
    tolerance: float = 1e-10
    special: bool = False

    def __post_init__(self):
        if not 0 <= self.tolerance < math.inf:
            raise ValidationError(f"tolerance must be finite and >= 0, got {self.tolerance}")
        u = np.asarray(self.matrix, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValidationError(f"holonomy must be a square matrix, got shape {u.shape}")
        object.__setattr__(self, "matrix", u)
        # with a finite tolerance, "not <=" also rejects the NaN or inf
        # defect of a matrix with non-finite entries
        defect = np.abs(u.conj().T @ u - np.eye(len(u))).max()
        if not defect <= self.tolerance:
            raise ValidationError(
                f"holonomy is not unitary within tolerance: defect {defect:.3e} > {self.tolerance:.3e}"
            )
        if self.special:
            det_defect = abs(np.linalg.det(u) - 1.0)
            if not det_defect <= self.tolerance:
                raise ValidationError(
                    f"holonomy flagged special-unitary but |det(U)-1| = {det_defect:.3e}"
                )

    @property
    def n(self):
        return self.matrix.shape[0]

    def phases(self):
        """Eigenvalue phases in [0, 2*pi), ascending; color c uses phases()[c-1]."""
        return holonomy_phases(self.matrix)

    def __eq__(self, other):
        if not isinstance(other, Holonomy):
            return NotImplemented
        return self.matrix.shape == other.matrix.shape and np.array_equal(
            self.matrix, other.matrix
        )

    def __hash__(self):
        return hash((self.matrix.shape, self.matrix.tobytes()))


def holonomy_phases(u):
    """Sorted phases of the unitary u in [0, 2*pi).

    Phases within 1e-12 of 2*pi are snapped to 0 so that the branch choice
    is stable for holonomies with an eigenvalue at 1.
    """
    w = np.linalg.eigvals(np.asarray(u, dtype=complex))
    phases = np.mod(np.angle(w), TWO_PI)
    phases[phases > TWO_PI - _PHASE_SNAP] = 0.0
    phases.sort()
    return phases


@dataclass(frozen=True)
class EigenMode:
    """One eigenvalue of the truncated twisted operator."""

    color: int  # 1-based index into the sorted phases
    mode: int  # Fourier index m
    eigenvalue: float  # m + phase/(2*pi)


@dataclass(frozen=True)
class Spectrum:
    """All (2N+1)*n eigenmodes for a holonomy, in canonical order.

    Canonical order sorts by eigenvalue, breaking exact ties (degenerate
    phases) by (color, mode), so the eigenvalues in_cover and band bisect ascend.
    """

    holonomy: Holonomy
    N: int
    modes: tuple = field(init=False)
    _eigenvalues: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.N < 1:
            raise ValidationError(f"window size N must be >= 1, got {self.N}")
        phases = self.holonomy.phases().tolist()
        items = [
            EigenMode(c + 1, m, m + phases[c] / TWO_PI)
            for c in range(self.holonomy.n)
            for m in range(-self.N, self.N + 1)
        ]
        items.sort(key=lambda em: (em.eigenvalue, em.color, em.mode))
        object.__setattr__(self, "modes", tuple(items))
        object.__setattr__(self, "_eigenvalues", tuple(em.eigenvalue for em in items))

    @property
    def n(self):
        return self.holonomy.n

    def eigenvalues(self):
        return np.array(self._eigenvalues)

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self.N == other.N and self.holonomy == other.holonomy

    def __hash__(self):
        return hash((self.N, self.holonomy))


@dataclass(frozen=True)
class SpectralCut:
    """An exact rational cut position with a strict gap tolerance."""

    value: Fraction
    gap_tolerance: float = 1e-9
    point: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "value", rational(self.value))
        object.__setattr__(self, "point", float(self.value))
        if not self.gap_tolerance > 0:
            raise ValidationError("gap_tolerance must be positive")


def dirac_spectrum(holonomy, N):
    """Truncated spectrum of -i d/dtheta twisted by the given holonomy."""
    return Spectrum(holonomy, N)


def _require_window(cut, N):
    """RangeError unless -N < cut < N, tested exactly as -N*q < p < N*q."""
    p, q = cut.value.numerator, cut.value.denominator
    if not -N * q < p < N * q:
        raise RangeError(f"cut {cut.value} outside the certified window (-{N}, {N})")


def in_cover(spectrum, cut):
    """True iff every eigenvalue keeps a distance > gap_tolerance from the cut.

    The cut must lie strictly inside (-N, N); outside that range the
    truncation cannot certify membership and a RangeError is raised.  Only
    the two eigenvalues around the cut can be nearest (rounding is monotone).
    """
    _require_window(cut, spectrum.N)
    eigs, lam = spectrum._eigenvalues, cut.point
    k = bisect_left(eigs, lam)
    return min(abs(e - lam) for e in eigs[max(k - 1, 0) : k + 1]) > cut.gap_tolerance


def band(spectrum, lo, hi):
    """Eigenmodes strictly between two cuts, in the spectrum's canonical order."""
    if not lo.value < hi.value:
        raise ArgumentError(f"cuts out of order: {lo.value} >= {hi.value}")
    for cut in (lo, hi):
        if not in_cover(spectrum, cut):
            raise CoverViolationError(f"cut {cut.value} lies on the spectrum (within gap tolerance)")
    eigs = spectrum._eigenvalues
    return spectrum.modes[bisect_right(eigs, lo.point) : bisect_left(eigs, hi.point)]


def _track_phases(path):
    """Unwrapped per-color phase paths along a sequence of holonomies."""
    unwrapped = path[0].phases()
    for hol in path[1:]:
        incoming = hol.phases()
        diff = incoming[None, :] - np.mod(unwrapped[:, None], TWO_PI)
        delta = np.mod(diff + math.pi, TWO_PI) - math.pi
        cost = np.abs(delta)
        rows, cols = linear_sum_assignment(cost)
        step = delta[rows, cols]
        if np.abs(step).max() > _MAX_STEP * TWO_PI:
            raise ResolutionError(
                "holonomy path too coarse: eigenvalue moved "
                f"{np.abs(step).max() / TWO_PI:.3f} modes in one step (cap {_MAX_STEP}); "
                "refine the sampling"
            )
        unwrapped = unwrapped + step
    return path[0].phases(), unwrapped


def spectral_flow(path, cut, N):
    """Net signed eigenvalue flow through the cut along a closed holonomy path.

    Implemented as below-cut counting in telescoped form: each color's phase
    is tracked continuously (unwrapped), and the count of lattice points
    below the cut changes by floor(lambda - a) increments.  Robust near
    tangencies because nothing tries to detect individual crossings.
    """
    if len(path) < 2:
        raise ArgumentError("path needs at least two samples")
    u0, u1 = path[0].matrix, path[-1].matrix
    if u0.shape != u1.shape or np.abs(u0 - u1).max() > 1e-12:
        raise ArgumentError("path is not closed: first and last holonomy differ")
    for which, hol in (("start", path[0]), ("end", path[-1])):
        if not in_cover(dirac_spectrum(hol, N), cut):
            raise CoverViolationError(f"cut {cut.value} touches the spectrum at the path {which}point")
    start, end = _track_phases(path)
    flow = 0
    for a0, a1 in zip(start, end):
        flow += math.floor(cut.point - a0 / TWO_PI) - math.floor(cut.point - a1 / TWO_PI)
    return flow
