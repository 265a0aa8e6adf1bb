"""Derivatives and differential forms on uniform periodic grids.

The circle direction uses the spectral derivative of real samples (exact
for band-limited samples); base-torus directions use 4th-order central
differences.  Forms store only ordered axis multi-indices, so antisymmetry
is exact by construction, and the discrete exterior derivative applies the
same stencils per axis (translation-invariant stencils commute, so d(d(w))
is roundoff-level zero).
"""

from dataclasses import dataclass
import itertools

import numpy as np

from .errors import ArgumentError, DimensionError, ValidationError


def spectral_theta_derivative(arr, axis=0):
    """rfft derivative of real samples along an axis of period 1; Nyquist mode dropped.

    Complex samples raise ArgumentError (differentiate their real and
    imaginary parts separately).
    """
    if np.iscomplexobj(arr):
        raise ArgumentError("spectral_theta_derivative takes real samples")
    arr = np.asarray(arr, dtype=float)
    p = arr.shape[axis]
    wavenumbers = np.arange(p // 2 + 1, dtype=float)
    if p % 2 == 0:
        wavenumbers[p // 2] = 0.0
    factor = 2j * np.pi * wavenumbers
    shape = [1] * arr.ndim
    shape[axis] = len(factor)
    spectrum = np.fft.rfft(arr, axis=axis)
    spectrum *= factor.reshape(shape)
    return np.fft.irfft(spectrum, n=p, axis=axis)


def central_diff4(arr, axis, spacing):
    """4th-order central difference with periodic wrap-around, from one padded copy."""
    p = np.shape(arr)[axis]
    a = np.moveaxis(np.take(arr, np.arange(-2, p + 2), axis=axis, mode="wrap"), axis, 0)
    out = 8.0 * a[3:-1]  # a[k : k + p] holds arr[i + k - 2]
    out -= a[4:]  # rounds as -a[4:] + 8 a[3:-1] would: IEEE addition commutes
    out -= 8.0 * a[1:-3]
    out += a[:-4]
    out /= 12.0 * spacing
    return np.moveaxis(out, 0, axis)


@dataclass
class GridForm:
    """Real differential form sampled on a periodic grid over the base torus T^3.

    comps maps ordered axis tuples (strictly increasing, length = degree)
    to real arrays of one 3-dimensional shape.  ghost_margin marks how many
    cells per edge are scratch (populated from a covering-space formula
    rather than by periodic wrap); integrals and norms skip them.
    """

    degree: int
    comps: dict
    ghost_margin: int = 0

    def __post_init__(self):
        if not 0 <= self.degree <= 3:
            raise ArgumentError(
                f"degree {self.degree} out of range for a form on T^3"
            )
        want = set(itertools.combinations(range(3), self.degree))
        got = set(self.comps)
        if got != want:
            raise ValidationError(f"component keys {sorted(got)} != {sorted(want)}")
        shapes = {np.shape(v) for v in self.comps.values()}
        if len(shapes) != 1 or len(next(iter(shapes))) != 3:
            raise ValidationError(
                f"components must share one 3-dimensional shape, got {sorted(shapes)}"
            )
        self.comps = {k: np.asarray(v, dtype=float) for k, v in self.comps.items()}

    @property
    def shape(self):
        return next(iter(self.comps.values())).shape

    def _core(self, arr):
        g = self.ghost_margin
        return arr[(slice(g, -g or None),) * 3]

    def spacing(self):
        return 1.0 / (self.shape[0] - 2 * self.ghost_margin)

    def exterior_derivative(self):
        h = self.spacing()
        out = {
            key: np.zeros(self.shape)
            for key in itertools.combinations(range(3), self.degree + 1)
        }
        for axes, comp in self.comps.items():
            for a in range(3):
                if a in axes:
                    continue
                target = tuple(sorted(axes + (a,)))
                sign = (-1.0) ** target.index(a)
                out[target] += sign * central_diff4(comp, a, h)
        return GridForm(self.degree + 1, out, self.ghost_margin)

    def max_norm(self):
        # np.max, unlike max(), keeps a NaN found in any component
        return float(np.max([np.abs(self._core(v)).max() for v in self.comps.values()]))

    def integrate(self):
        """Integral over the unit torus of a top-degree form (mean value)."""
        if self.degree != 3:
            raise DimensionError("only top-degree forms integrate to a number")
        (comp,) = self.comps.values()
        return float(np.mean(self._core(comp)))

    def _with(self, comps):
        return GridForm(self.degree, comps, self.ghost_margin)

    def __sub__(self, other):
        self._check_compatible(other)
        return self._with({k: v - other.comps[k] for k, v in self.comps.items()})

    def __abs__(self):
        return self._with({k: np.abs(v) for k, v in self.comps.items()})

    def __rmul__(self, scalar):
        return self._with({k: scalar * v for k, v in self.comps.items()})

    def _check_compatible(self, other):
        if (
            self.degree != other.degree
            or self.shape != other.shape
            or self.ghost_margin != other.ghost_margin
        ):
            raise ArgumentError("forms live on different grids or degrees")
