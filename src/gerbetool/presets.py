"""The caloron battery's analytic connection family and the test holonomies.

su2_family is a closed-form periodic field on S1 x T^3, so its connection
can be resampled at any resolution for convergence studies.  It uses the
anti-Hermitian generators T_j = i * sigma_j, normalized to
<T_a, T_b> = 2 delta_ab, and returns real coefficient fields (..., 3) in
the su_basis(2) frame, which lists T2 before T1: T1 -> (0, 1, 0),
T2 -> (1, 0, 0), T3 -> (0, 0, 1).  It has theta dependence in every slot,
so its curving and density are generic, as a convergence-order measurement
needs.

HOLONOMY_SUITES names the diagonal test holonomies of the cocycle battery.
"""

import numpy as np

from .caloron import AnalyticConnection
from .spectral import TWO_PI, Holonomy

T1 = np.array([[0.0, 1j], [1j, 0.0]])
T2 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def _su2(t1=0.0, t2=0.0, t3=0.0):
    """Coefficients of t1 T1 + t2 T2 + t3 T3, for broadcastable t1, t2, t3."""
    return np.stack(np.broadcast_arrays(t2, t1, t3), axis=-1)


def su2_family(amplitude=0.7):
    """The three-generator su(2) family "su2-family", unsampled."""
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
