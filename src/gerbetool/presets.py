"""Named analytic connection families for the sampled-geometry pipelines.

Every preset is a closed-form periodic field on S1 x T^d, so connections
can be resampled at any resolution for convergence studies.  All su(2)
presets use the anti-Hermitian generators T_j = i * sigma_j, normalized to
<T_a, T_b> = 2 delta_ab, and return real coefficient fields (..., 3) in the
su_basis(2) frame, which lists T2 before T1: T1 -> (0, 1, 0),
T2 -> (1, 0, 0), T3 -> (0, 0, 1).

Preset catalog:
  zero        vanishing connection.
  abelian     single diagonal generator, curvature known in closed form.
  flat        pure-gauge g^-1 dg for a product of winding rotations; the
              analytic curvature vanishes identically.  Its transports
              u^-1 X u act on coefficients: Ad of exp(2 pi t T_j) turns
              them by 4 pi t about T_j.
  su2-axial   the two-generator axial family sin(2 pi theta) a(x) T1 dx1
              + b(x) T2 dtheta; its curving and 3-curvature vanish
              identically (the generators never meet in the pairing), so
              it serves as an exact-zero fixture.
  su2-family  a three-generator family with theta dependence in every
              slot; generic, used for convergence-order measurements.

HOLONOMY_SUITES names the diagonal test holonomies of the cocycle battery.
"""

import numpy as np

from .caloron import AnalyticConnection, sample_connection
from .errors import ArgumentError
from .spectral import TWO_PI, Holonomy

T1 = np.array([[0.0, 1j], [1j, 0.0]])
T2 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)

# Ad(exp(2 pi t T_j)) turns the plane of the cyclically next generators,
# from T_k toward T_l: their su_basis(2) slots, keyed by j
_PLANES = {1: (0, 2), 2: (2, 1), 3: (1, 0)}


def _su2(t1=0.0, t2=0.0, t3=0.0):
    """Coefficients of t1 T1 + t2 T2 + t3 T3, for broadcastable t1, t2, t3."""
    return np.stack(np.broadcast_arrays(t2, t1, t3), axis=-1)


def _conjugate(coeffs, t, j):
    """Coefficients of u^-1 X u, u = exp(2 pi t T_j), from those of X: a turn by 4 pi t."""
    k, l = _PLANES[j]
    c, s = np.cos(2.0 * TWO_PI * t), np.sin(2.0 * TWO_PI * t)
    out = list(np.moveaxis(coeffs, -1, 0))
    out[k], out[l] = c * out[k] - s * out[l], s * out[k] + c * out[l]
    return np.stack(np.broadcast_arrays(*out), axis=-1)


def _zero_family():
    def phi(th, xs):
        return _su2()

    def base(th, xs, axis):
        return _su2()

    return AnalyticConnection(2, phi, base, "zero")


def _abelian_family(amplitude):
    def phi(th, xs):
        return _su2()

    def base(th, xs, axis):
        if axis == 1:
            return _su2(t3=amplitude * np.sin(TWO_PI * xs[0]))
        return _su2()

    return AnalyticConnection(2, phi, base, "abelian")


def _flat_family():
    def phi(th, xs):
        # u = exp(2 pi x_0 T1) exp(2 pi x_1 T2) exp(2 pi x_2 T3)
        out = _su2(t3=TWO_PI)
        for j in (1, 2, 3):
            out = _conjugate(out, xs[j - 1], j)
        return out

    def base(th, xs, axis):
        # u = exp(2 pi x_(axis+1) T_(axis+2)) ... exp(2 pi x_2 T3)
        out = _su2(**{f"t{axis + 1}": TWO_PI})
        for j in range(axis + 2, 4):
            out = _conjugate(out, xs[j - 1], j)
        return out

    return AnalyticConnection(2, phi, base, "flat")


def _axial_family(amplitude):
    def phi(th, xs):
        return _su2(t2=amplitude * np.cos(TWO_PI * xs[2]))

    def base(th, xs, axis):
        if axis == 0:
            return _su2(t1=amplitude * np.sin(TWO_PI * th) * np.sin(TWO_PI * xs[1]))
        return _su2()

    return AnalyticConnection(2, phi, base, "su2-axial")


def _generic_family(amplitude):
    # Circle harmonics share generators across components on purpose: the
    # theta-averaged products <a_a, a_b'> and <F_ab, Phi> must survive, or
    # the curving degenerates to a constant and the density to zero.
    s, c = np.sin, np.cos

    def phi(th, xs):
        return amplitude * _su2(
            t1=c(TWO_PI * th) * s(TWO_PI * xs[1]),
            t2=s(TWO_PI * th) * c(TWO_PI * xs[2]),
            t3=s(TWO_PI * xs[0]),
        )

    def base(th, xs, axis):
        if axis == 0:
            return amplitude * _su2(
                t1=s(TWO_PI * th) * s(TWO_PI * xs[1]),
                t2=c(TWO_PI * th) * c(TWO_PI * xs[2]),
                t3=c(TWO_PI * xs[1]),
            )
        if axis == 1:
            return amplitude * _su2(
                t1=c(TWO_PI * th) * s(TWO_PI * xs[2]),
                t2=s(TWO_PI * xs[2]),
                t3=s(TWO_PI * th) * s(TWO_PI * xs[0]),
            )
        return amplitude * _su2(
            t1=s(TWO_PI * xs[0]),
            t2=s(TWO_PI * th) * c(TWO_PI * xs[0]),
            t3=c(TWO_PI * th) * c(TWO_PI * xs[1]),
        )

    return AnalyticConnection(2, phi, base, "su2-family")


_FAMILIES = {
    "zero": lambda amp: _zero_family(),
    "abelian": _abelian_family,
    "flat": lambda amp: _flat_family(),
    "su2-axial": _axial_family,
    "su2-family": _generic_family,
}


def preset_family(name, amplitude=0.7):
    """The named analytic family, unsampled."""
    try:
        factory = _FAMILIES[name]
    except KeyError:
        raise ArgumentError(
            f"unknown connection preset {name!r}; choose from {sorted(_FAMILIES)}"
        ) from None
    return factory(amplitude)


def connection_preset(name, theta_points=12, base_points=16, base_dim=3, amplitude=0.7):
    """Sample a named analytic family; the result carries it for resampling."""
    family = preset_family(name, amplitude)
    return sample_connection(family, base_dim, theta_points, base_points)


_STANDARD_SUITE = (
    ("u1-trivial", (0.0,)),
    ("u1-generic-a", (0.23,)),
    ("u1-generic-b", (0.77,)),
    ("u1-generic-c", (0.41,)),
    ("su2-trivial", (0.0, 0.0)),
    ("su2-split", (0.25, 0.75)),
    ("su2-degenerate", (0.3, 0.3)),
    ("su2-generic", (0.11, 0.87)),
    ("su2-degenerate-high", (0.6, 0.6)),
    ("su2-near-trivial", (0.02, 0.98)),
    ("su3-trivial", (0.0, 0.0, 0.0)),
    ("su3-central", (1 / 3, 1 / 3, 1 / 3)),
    ("su3-generic-a", (0.2, 0.45, 0.8)),
    ("su3-clustered", (0.4, 0.41, 0.42)),
    ("su3-rational", (1 / 7, 2 / 7, 4 / 7)),
    ("su3-generic-b", (0.05, 0.55, 0.95)),
    ("su3-generic-c", (0.15, 0.35, 0.85)),
    ("su3-generic-d", (0.9, 0.27, 0.63)),
    ("su3-generic-e", (0.33, 0.66, 0.99)),
    ("su3-repeated", (0.08, 0.08, 0.84)),
)

# (label, phases in turns); the trivial suite is the standard suite's
# three identity holonomies.
HOLONOMY_SUITES = {
    "trivial": tuple(case for case in _STANDARD_SUITE if not any(case[1])),
    "standard": _STANDARD_SUITE,
}


def diagonal_unitaries(phases):
    """diag(exp(2 pi i phase)) over the last axis of phases (in turns): (..., n) -> (..., n, n)."""
    entries = np.exp(2j * np.pi * np.asarray(phases, dtype=float))
    on_diagonal = np.eye(entries.shape[-1] if entries.ndim else 0, dtype=bool)
    return np.where(on_diagonal, entries[..., None], 0j)


def diagonal_holonomy(phases):
    """The holonomy diag(exp(2 pi i phase)), one phase (in turns) per color."""
    return Holonomy(diagonal_unitaries(phases))


def holonomy_suite(name):
    """The named suite of HOLONOMY_SUITES as (label, Holonomy) pairs."""
    return [(label, diagonal_holonomy(phases)) for label, phases in HOLONOMY_SUITES[name]]
