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


def _unitary(u, tolerance, what, det_tolerance=None, stack=False, n=None, name=None):
    """u as a complex array of unitaries: an (n, n) matrix, or a (k, n, n) stack.

    stack counts the leading axes: False for none, True for one, an int for
    more.  One batched U^dag U - I product checks a whole stack, and an
    error names the first index that fails, as what[i][j] or as name(index)
    if a name function is given.  det_tolerance, if given, bounds
    |det U - 1| too, and n, if given, fixes the matrix size.
    """
    if not 0 <= tolerance < math.inf:
        raise ValidationError(f"tolerance must be finite and >= 0, got {tolerance}")
    try:
        u = np.asarray(u, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} is not a numeric array: {exc}") from None
    size = u.shape[-1] if u.ndim == 2 + stack else 0
    if size < 1 or u.shape[-2] != size or n not in (None, size):
        kind = "a stack of square matrices" if stack else "a square matrix"
        want = f"{n} x {n}" if n else "n x n with n >= 1"
        raise ValidationError(f"{what} must be {kind}, {want}, got shape {u.shape}")

    def refuse_over(defect, bound, failure):
        fine = defect <= bound  # with a finite bound, False also for a NaN or inf defect
        if not fine.all():
            at = np.unravel_index(fine.argmin(), fine.shape)
            where = name(at) if name else what + "".join(f"[{i}]" for i in at)
            raise ValidationError(f"{where} {failure}: defect {defect[at]:.3e} > {bound:.3e}")

    refuse_over(_unitarity_defect(u), tolerance, "is not unitary within tolerance")
    if det_tolerance is not None:
        refuse_over(abs(np.linalg.det(u) - 1.0), det_tolerance, "does not have unit determinant")
    return u


def _unitarity_defect(u):
    """max |U^dag U - I| of each matrix of a (..., n, n) stack."""
    return np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])).max(axis=(-2, -1))


@dataclass(frozen=True)
class Holonomy:
    """A unitary n x n holonomy matrix with a validation tolerance."""

    matrix: np.ndarray
    tolerance: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "matrix", _unitary(self.matrix, self.tolerance, "holonomy"))

    @property
    def n(self):
        return self.matrix.shape[0]

    def __eq__(self, other):
        if not isinstance(other, Holonomy):
            return NotImplemented
        return self.matrix.shape == other.matrix.shape and np.array_equal(
            self.matrix, other.matrix
        )

    def __hash__(self):
        return hash((self.matrix.shape, self.matrix.tobytes()))


def holonomy_phases(u):
    """Sorted phases of the unitary u in [0, 2*pi), color c at [c-1]; a stack sorts each.

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
        phases = holonomy_phases(self.holonomy.matrix).tolist()
        items = [
            EigenMode(c + 1, m, m + phases[c] / TWO_PI)
            for c in range(self.holonomy.n)
            for m in range(-self.N, self.N + 1)
        ]
        items.sort(key=lambda em: (em.eigenvalue, em.color, em.mode))
        object.__setattr__(self, "modes", tuple(items))
        object.__setattr__(self, "_eigenvalues", tuple(em.eigenvalue for em in items))

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
    """RangeError unless -N < cut < N, tested exactly as -N*q < p < N*q.

    A float strictly inside settles it first: N is an exact float (no
    spectrum holds 2**53 modes) and float() of a Fraction is monotone.
    """
    if -N < cut.point < N:
        return
    p, q = cut.value.numerator, cut.value.denominator
    if not -N * q < p < N * q:
        raise RangeError(f"cut {cut.value} outside the certified window (-{N}, {N})")


def in_cover(spectrum, cut):
    """True iff every eigenvalue keeps a distance > gap_tolerance from the cut.

    The cut must lie strictly inside (-N, N); outside that range the
    truncation cannot certify membership and a RangeError is raised.  Only
    the two eigenvalues around the cut can be nearest (rounding is monotone),
    and one lies above it, as the largest eigenvalue is at least N.
    """
    _require_window(cut, spectrum.N)
    eigs, lam, tol = spectrum._eigenvalues, cut.point, cut.gap_tolerance
    k = bisect_left(eigs, lam)
    return (k == 0 or lam - eigs[k - 1] > tol) and eigs[k] - lam > tol


def band(spectrum, lo, hi):
    """Eigenmodes strictly between two cuts, in the spectrum's canonical order."""
    if not (lo.point < hi.point or lo.value < hi.value):  # a float "<" that holds is exact
        raise ArgumentError(f"cuts out of order: {lo.value} >= {hi.value}")
    for cut in (lo, hi):
        if not in_cover(spectrum, cut):
            raise CoverViolationError(f"cut {cut.value} lies on the spectrum (within gap tolerance)")
    eigs = spectrum._eigenvalues
    return spectrum.modes[bisect_right(eigs, lo.point) : bisect_left(eigs, hi.point)]


def _winding(path):
    """Summed step of the least-motion cyclic shifts of the sorted phases, in radians."""
    phases = holonomy_phases(path)
    n = phases.shape[1]
    shifts = (np.arange(n)[:, None] + np.arange(n)) % n
    steps = np.mod(phases[1:, shifts] - phases[:-1, None] + math.pi, TWO_PI) - math.pi
    size, sums = np.abs(steps), steps.sum(axis=2)
    motion, largest = size.sum(axis=2), size.max(axis=2)
    tied = motion <= motion.min(axis=1, keepdims=True) + 1e-9  # equal up to roundoff
    rows, best = np.arange(len(steps)), np.where(tied, largest, np.inf).argmin(axis=1)
    chosen, moved = sums[rows, best], largest[rows, best]
    over = np.flatnonzero(moved > _MAX_STEP * TWO_PI)
    if over.size:
        raise ResolutionError(
            f"holonomy path too coarse: eigenvalue moved {moved[over[0]] / TWO_PI:.3f} modes in "
            f"one step (cap {_MAX_STEP}); refine the sampling"
        )
    if (tied & (np.abs(sums - chosen[:, None]) > math.pi)).any():
        raise ResolutionError(
            "holonomy path too coarse: tied shifts wind differently; refine the sampling"
        )
    return chosen.sum()


def spectral_flow(path, cut, N):
    """Net signed eigenvalue flow through the cut along a closed holonomy path.

    The path is one (k, n, n) array of unitaries, k >= 2, checked once, whose
    last row repeats its first.  On a closed path the flow is the net
    eigenphase winding, at every cut that misses both endpoint spectra
    (Atiyah, Patodi & Singer 1976).  Each step takes the least-motion cyclic
    shift of the sorted phases (Rabin, Delon & Gousseau 2011), ties going to
    the smaller largest step; tied shifts that wind differently leave the
    step ambiguous and raise ResolutionError.
    """
    path = _unitary(path, Holonomy.tolerance, "path", stack=True)
    if len(path) < 2:
        raise ArgumentError("path needs at least two samples")
    if np.abs(path[0] - path[-1]).max() > 1e-12:
        raise ArgumentError("path is not closed: first and last holonomy differ")
    for which, u in (("start", path[0]), ("end", path[-1])):
        if not in_cover(dirac_spectrum(Holonomy(u), N), cut):
            raise CoverViolationError(f"cut {cut.value} touches the spectrum at the path {which}point")
    return round(_winding(path) / TWO_PI)
