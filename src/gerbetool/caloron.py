"""Sampled connections on S1 x T^3, read directly as caloron-side data.

A connection is stored as real su(n) coefficient arrays, coefficient axis
first (n^2 - 1 in the liealg.su_basis frame): phi, the dtheta component, is
the Higgs field of the caloron correspondence, and a holds the three base
components, which at fixed theta are the loop-algebra gauge field.  The
correspondence is this reading of the same arrays, so no second type is
needed.  Curvature splits into base-base components
F_ab = d_a A_b - d_b A_a + [A_a, A_b] and mixed components
G_a = dtheta A_a - d_a Phi + [Phi, A_a]; theta-derivatives are spectral,
base derivatives 4th-order central.

An analytic family returns each field coefficient-leading too, as a
sequence of n^2 - 1 real arrays broadcastable to the grid, and
sample_connection writes each coefficient with one broadcast assignment,
rejecting a field of another coefficient count or one that is complex or
non-finite, so no matrix sample is formed between a family and the forms.
The pipelines work on the coefficients: the bracket sums the nonzero a < b
terms of the structure constants, <X, Y> = -trace(XY) is 2 c(X).c(Y), and
the forms are real by construction.  A representation acts by one real
product with its coefficient_map restricted to the map's support (its
nonzero columns), whose result lies in su(dim) by construction, so no
matrix image is formed and no coefficient that is zero for every field is
computed.

The degree-2 curving integrates (1/4 pi^2) (<F, Phi> - 1/2 <A, dtheta A>)
over the circle and its discrete exterior derivative reproduces the
circle-integrated Pontryagin density -(1/8 pi^2) <F~ ^ F~> exactly in the
continuum; the pair of pipelines is the identity checked by
CurvaturePass.identity_check.

Every form comes from one curvature pass (_curvature_slices): dtheta A once
on the full grid, then F_ab and F_{theta a} on each run of circle points,
whose circle sums of all the forms a caller reads are added as they
arrive.  pontryagin_densities reads one density per representation from
one pass, and a CurvaturePass the curving, the density and the curving of
the pushed fields, which the identity and scaling checks compare.
"""

from dataclasses import dataclass
import functools
import itertools
import math
import numbers

import numpy as np

from .errors import (
    ArgumentError,
    ConsistencyError,
    ResolutionError,
    ResourceError,
    ValidationError,
)
from .grids import GridForm, central_diff4, spectral_theta_derivative
from .liealg import su_structure_constants

FOUR_PI_SQ = 4.0 * math.pi * math.pi

# Cap on theta_points * (base_points + 2 ghost_margin)^3 * n^2, one
# field's count of matrix entries, n^2 per cell (1.6M on the caloron
# battery's default fine grid).  A field is sampled as n^2 - 1 real
# coefficients per cell, so an su(2) field holds 3/4 as many floats; at its
# peak, in the fine grid's circle FFT of dtheta A, the caloron battery's
# traced memory (tracemalloc, at its defaults) is 8.7 such su(2) fields on
# its fine grid, 78 MiB (82 MB).  Sampling that grid peaks at its own 4
# fields, 37.8 MB, as each coefficient is written in place.
MAX_GRID_ENTRIES = 2**22

# CurvaturePass.identity_check reads a fine residual at or under
# _ROUNDOFF_FLOOR * eps * s^2 * max(s, 1), s the largest coefficient of phi
# and a, as the identity met at roundoff (order inf): discretization error
# scales as s^3, roundoff as s^2 for small fields.  Flat (s = 2 pi, floor
# 5.5e-11) reads 6.5e-13 coarse and 8.1e-13 fine; su2-family reads order 3.87
# at amplitude 1e-4 (fine 6.5e-16, floor 2.2e-21), and at 1e-12 its roundoff
# 6.4e-39 = 29 eps s^2 is under the floor 2.2e-37 (an s^3 floor read 0.87).
_ROUNDOFF_FLOOR = 1e3

# A curvature run spans this many base cells at least, or one circle point,
# so its fixed count of numpy calls acts on many cells on small base grids.
_RUN_CELLS = 4096


def check_grid(theta_points, base_points, n, ghost_margin=0):
    """Reject a sampling grid on S1 x T^3 without a meaningful derivative or past the cap.

    Runs before any sample is allocated: the circle needs 8 points, each
    base axis the 5 points of the 4th-order stencil, and the entry count
    may not exceed MAX_GRID_ENTRIES.
    """
    if theta_points < 8:
        raise ValidationError(f"need at least 8 circle points, got {theta_points}")
    if base_points < 5:
        raise ResolutionError(
            f"need at least 5 base points for the 5-point stencil, got {base_points}"
        )
    entries = theta_points * (base_points + 2 * ghost_margin) ** 3 * n * n
    if entries > MAX_GRID_ENTRIES:
        raise ResourceError(
            f"grid needs {entries} matrix entries per field, {n * n} per cell, "
            f"over the cap of {MAX_GRID_ENTRIES}"
        )


@dataclass(frozen=True)
class AnalyticConnection:
    """Closed-form sampler backing a LatticeConnection, used for resampling.

    phi(theta, xs) and base(theta, xs, axis) take broadcastable coordinate
    arrays and return a field coefficient-leading: a sequence of n^2 - 1 real
    arrays, one per su(n) coefficient in the liealg.su_basis frame, each
    broadcastable to the grid (an array with the coefficient axis first
    qualifies); n is the matrix size.
    """

    n: int
    phi: object
    base: object
    label: str = ""


@dataclass
class LatticeConnection:
    """Connection samples on a uniform grid over S1 x T^3, as su(n) coefficients.

    phi has shape (n^2 - 1, P, M', M', M') and a (3, n^2 - 1, P, M', M',
    M'), M' = base_points + 2*ghost_margin, so each phi[c] and a[x, c] is a
    contiguous grid array.  A nonzero ghost margin means the base arrays
    were sampled from a covering-space formula: edge cells are valid samples,
    not periodic wraps, and derived forms carry the margin so that norms and
    integrals skip stencil-polluted cells.
    """

    n: int
    theta_points: int
    base_points: int
    phi: np.ndarray
    a: np.ndarray
    family: AnalyticConnection = None
    ghost_margin: int = 0

    base_dim = 3  # the base torus's dimension: a class constant, not a field

    def __post_init__(self):
        check_grid(
            self.theta_points,
            self.base_points,
            self.n,
            self.ghost_margin,
        )
        ext = self.base_points + 2 * self.ghost_margin
        want_phi = (self.n * self.n - 1, self.theta_points) + (ext,) * 3
        self.phi = np.ascontiguousarray(self.phi, dtype=float)
        self.a = np.ascontiguousarray(self.a, dtype=float)
        if self.phi.shape != want_phi:
            raise ArgumentError(f"phi shape {self.phi.shape}, expected {want_phi}")
        if self.a.shape != (3,) + want_phi:
            raise ArgumentError(
                f"base components shape {self.a.shape}, expected {(3,) + want_phi}"
            )

    def spacing(self):
        return 1.0 / self.base_points


def _torus_coords(thetas, xs):
    """(theta, [x0, x1, x2]) from 1-D coordinates, shaped to broadcast over the grid."""
    return thetas.reshape(-1, 1, 1, 1), [
        xs.reshape(1, -1, 1, 1),
        xs.reshape(1, 1, -1, 1),
        xs.reshape(1, 1, 1, -1),
    ]


def sample_connection(family, theta_points, base_points, ghost_margin=0):
    """Evaluate an analytic family on the (theta, base) grid, one field at a time.

    Each coefficient of a field is written to the grid by one broadcast
    assignment; a field that is not n^2 - 1 finite real coefficients, or
    whose coefficient does not broadcast to the grid, raises
    ConsistencyError naming the family and the field.
    """
    check_grid(theta_points, base_points, family.n, ghost_margin)
    ext = base_points + 2 * ghost_margin
    th, xs = _torus_coords(
        np.arange(theta_points) / theta_points, (np.arange(ext) - ghost_margin) / base_points
    )
    m = family.n * family.n - 1
    fields = np.empty((4, m, theta_points) + (ext,) * 3)

    def fill(out, samples, what):
        try:
            coeffs = [np.asarray(c) for c in samples]
        except TypeError:  # a scalar or 0-d array is no coefficient sequence
            coeffs = [np.asarray(samples)]
        if len(coeffs) != m or any(np.iscomplexobj(c) or not np.isfinite(c).all() for c in coeffs):
            dtypes = ", ".join(sorted({str(c.dtype) for c in coeffs}))
            raise ConsistencyError(
                f"family {family.label!r}: {what} is not {m} finite real coefficient "
                f"fields, got {len(coeffs)} of {dtypes}"
            )
        for index, (dst, c) in enumerate(zip(out, coeffs)):
            try:
                dst[...] = c
            except ValueError:
                raise ConsistencyError(
                    f"family {family.label!r}: {what} coefficient {index} of shape "
                    f"{c.shape} does not broadcast to the grid {dst.shape}"
                ) from None

    fill(fields[0], family.phi(th, xs), "phi")
    for axis in range(3):
        fill(fields[1 + axis], family.base(th, xs, axis), f"base[{axis}]")
    return LatticeConnection(
        family.n,
        theta_points,
        base_points,
        fields[0],
        fields[1:],
        family=family,
        ghost_margin=ghost_margin,
    )


def _support(m):
    """The support of a coefficient map: its nonzero columns, the coefficients it reaches."""
    return tuple(np.flatnonzero((m != 0).any(axis=0)).tolist())


def _support_map(conn, rho):
    """(m, S): rho's coefficient map on its support S, and S; another su(n) raises ArgumentError.

    A pushed field is +-0 off S, so the pipelines hold only its S
    coefficients.  m keeps every row, so a NaN of any field still reaches S;
    a bracket term or output off S would only add or pair with a +-0.
    """
    if rho.n != conn.n:
        raise ArgumentError(f"a representation of su({rho.n}) on an su({conn.n}) connection")
    m = rho.coefficient_map()
    support = _support(m)
    return m[:, support], support


@functools.cache
def _bracket_terms(n, support=None):
    """The nonzero f_abc of su(n) with a < b, as (a, b, ((c, f_abc), ...)) per pair.

    Given a support (increasing coefficient indices), only the terms whose a,
    b and c all lie in it are kept, renumbered to their positions in it.
    """
    structure = su_structure_constants(n)
    position = {c: i for i, c in enumerate(range(len(structure)) if support is None else support)}
    terms = {}
    for a, b, c in zip(*np.nonzero(structure)):
        if a < b and {a, b, c} <= position.keys():
            terms.setdefault((position[a], position[b]), []).append((position[c], structure[a, b, c]))
    return tuple((a, b, tuple(cs)) for (a, b), cs in terms.items())


def _bracket(x, y, terms):
    """[X, Y] on coefficient-leading arrays: the sum over the terms of (x_a y_b - x_b y_a) f_abc."""
    out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
    for a, b, cs in terms:
        cross = x[a] * y[b]
        cross -= x[b] * y[a]
        for c, f in cs:
            out[c] += f * cross
    return out


def _push(x, m):
    """Coefficient-leading su(n) fields x pushed through the (support) coefficient map m, in one product."""
    return (m.T @ x.reshape(len(x), -1)).reshape(m.shape[1:] + x.shape[1:])


def _circle_pairing(x, y):
    """Circle sum of <X, Y> = 2 x.y, over the coefficient axis 0 and the circle axis 1."""
    return np.einsum("at...,at...->...", x, y) * 2.0


class _Run:
    """Fields, dtheta A and curvature of one run of circle points, on their coefficients.

    Arrays are (coefficients, run, M', ...), base axis x at array axis 2 + x:
    all n^2 - 1 of su(n), or a pushed run's support; terms is the bracket's
    term table on those coefficients.  base holds F_ab (a < b); mixed,
    F_{theta a}, is built when first read, so a pass that reads only the
    curving never builds it.
    """

    def __init__(self, phi, a, d_theta_a, terms, spacing):
        self.phi, self.a, self.d_theta_a = phi, a, d_theta_a
        self.terms, self.spacing = terms, spacing
        self.base = {}
        for x, y in itertools.combinations(range(len(a)), 2):
            f_xy = self.base[(x, y)] = central_diff4(a[y], 2 + x, spacing)
            f_xy -= central_diff4(a[x], 2 + y, spacing)
            f_xy += _bracket(a[x], a[y], terms)

    @functools.cached_property
    def mixed(self):
        comps = {x: d - central_diff4(self.phi, 2 + x, self.spacing) for x, d in enumerate(self.d_theta_a)}
        for x, c in comps.items():
            c += _bracket(self.phi, self.a[x], self.terms)
        return comps

    def pushed(self, m, terms):
        """The run of the fields pushed through the support map m, with its bracket terms; dtheta commutes with m."""
        a, d_theta_a = ([_push(x, m) for x in fields] for fields in (self.a, self.d_theta_a))
        return _Run(_push(self.phi, m), a, d_theta_a, terms, self.spacing)


def _curvature_slices(conn):
    """Yield the connection's curvature as _Runs of circle points, in circle order.

    This is the one curvature pass: only dtheta A, which couples the circle
    points, is taken on the full grid, one base component at a time; each
    run slices it and builds F_ab (and, when read, F_{theta a}) on the
    run's points alone.  A run's fields are views of the connection.
    """
    d_theta_a = [spectral_theta_derivative(a_x, axis=1) for a_x in conn.a]
    width = max(1, _RUN_CELLS // math.prod(conn.phi.shape[2:]))
    terms = _bracket_terms(conn.n)
    for t in range(0, conn.theta_points, width):
        s = slice(t, t + width)
        yield _Run(conn.phi[:, s], conn.a[:, :, s], [d[:, s] for d in d_theta_a], terms, conn.spacing())


def _circle_means(conn, forms):
    """Circle means of the circle-sum forms that forms(run) gives on each run of one pass."""
    per_run = map(forms, _curvature_slices(conn))  # no run outlives its forms
    sums = next(per_run)
    for run_forms in per_run:
        for total, form in zip(sums, run_forms):
            for key, comp in total.comps.items():
                comp += form.comps[key]
    return [(1.0 / conn.theta_points) * total for total in sums]


def _curving(run):
    """The circle sum of the curving B_ab's integrand on one run (see CurvaturePass)."""
    comps = {}
    for (x, y), f_xy in run.base.items():
        integrand = 0.5 * (
            _circle_pairing(run.a[x], run.d_theta_a[y])
            - _circle_pairing(run.a[y], run.d_theta_a[x])
        ) - _circle_pairing(f_xy, run.phi)
        comps[(x, y)] = -integrand / FOUR_PI_SQ
    return GridForm(2, comps, 0)


def _density(mixed, base, ghost_margin, m=None):
    """Circle sum of the density -(1/4 pi^2) <F ^ G> as a 3-form, F pushed by the support map m if given."""
    if m is not None:
        mixed, base = ({k: _push(v, m) for k, v in c.items()} for c in (mixed, base))
    total = (
        _circle_pairing(base[(0, 1)], mixed[2])
        - _circle_pairing(base[(0, 2)], mixed[1])
        + _circle_pairing(base[(1, 2)], mixed[0])
    )
    return GridForm(3, {(0, 1, 2): -total / FOUR_PI_SQ}, ghost_margin)


def pontryagin_densities(conn, reps):
    """The circle-integrated Pontryagin 3-form for each rho of reps, from one curvature pass.

    For the fundamental this is -(1/8 pi^2) Int <F~ ^ F~>; for another
    representation it is the same density of the pushed-forward curvature
    with the trace in the representation space, (1/8 pi^2) Int
    tr_rho(F^rho ^ F^rho).  Each representation, of the connection's su(n)
    or ArgumentError, pushes the same F_{theta a} and F_ab through its
    coefficient map, onto the coefficients the map reaches (the
    fundamental's map is the identity, so it skips the push), and one pass
    serves them all; a raise in any one push fails the whole pass.  A
    ghosted sampling keeps its margin on the forms.
    """
    maps = [_support_map(conn, rho)[0] for rho in reps]
    maps = [None if rho.is_fundamental() else m for rho, m in zip(reps, maps)]
    g = conn.ghost_margin
    return _circle_means(conn, lambda run: [_density(run.mixed, run.base, g, m) for m in maps])


class CurvaturePass:
    """The forms the caloron checks compare, from one curvature pass over a periodic connection.

    curving is the degree-2 curving on the base from the loop-space data,
    B_ab = -(1/4 pi^2) Int_0^1 [ 1/2 (<A_a, A_b'> - <A_b, A_a'>)
                                 - <F_ab, Phi> ] dtheta,
    with A' the circle derivative and the circle integral the grid mean
    (trapezoid rule on a periodic grid); density is pontryagin_densities'
    fundamental 3-form; given a representation rho, pushed is the curving
    built from the fields pushed through rho's coefficient_map onto its
    support, with su(rho.dim) brackets on the support (the coefficients
    off it are +-0).  All of them read one
    dtheta A and one set of F_ab per run of circle points.  A ghosted
    sampling raises ArgumentError: the curving cannot integrate it.
    """

    def __init__(self, conn, rho=None):
        if conn.ghost_margin:
            raise ArgumentError("a curvature pass needs a periodic (ghost-free) sampling")
        self.conn, self.rho = conn, rho
        self.pushed = None
        forms = {"curving": _curving, "density": lambda run: _density(run.mixed, run.base, 0)}
        if rho is not None:
            m, support = _support_map(conn, rho)
            terms = _bracket_terms(rho.dim, support)
            forms["pushed"] = lambda run: _curving(run.pushed(m, terms))
        means = _circle_means(conn, lambda run: [form(run) for form in forms.values()])
        for name, mean in zip(forms, means):
            setattr(self, name, mean)

    def identity_check(self, refine_factor):
        """Pointwise residual of [circle-integrated Pontryagin density] = d(curving).

        Returns (residual at the input resolution, measured convergence
        order between base grids M and refine_factor*M).  The identity is
        exact in the continuum, so the residual is pure discretization error
        and the order reflects the base stencils; a fine residual under the
        roundoff floor (_ROUNDOFF_FLOOR) reads order inf, and a residual or
        field that is not finite reads order NaN.  The refined grid is
        sampled again from the connection's analytic family, at the same
        circle points, and swept here, once per call; needs an integer
        refine_factor >= 2 and a connection that carries its family.
        """
        conn = self.conn
        if not isinstance(refine_factor, numbers.Integral) or refine_factor < 2:
            raise ArgumentError(f"refine factor must be an integer >= 2, got {refine_factor!r}")
        if conn.family is None:
            raise ArgumentError("connection has no analytic family to resample from")
        fine = CurvaturePass(
            sample_connection(conn.family, conn.theta_points, refine_factor * conn.base_points)
        )
        res_coarse, res_fine = (
            (p.density - p.curving.exterior_derivative()).max_norm() for p in (self, fine)
        )
        scale = np.maximum(np.abs(conn.phi).max(), np.abs(conn.a).max())  # max() drops a NaN
        if not np.isfinite([res_coarse, res_fine, scale]).all():
            return res_coarse, math.nan
        if res_fine <= _ROUNDOFF_FLOOR * np.finfo(float).eps * scale**2 * max(scale, 1.0):
            return res_coarse, math.inf
        return res_coarse, math.log(res_coarse / res_fine, refine_factor)

    def scaling_check(self):
        """Max residual of (curving, 3-curvature) scaling under the pass's representation.

        Compares the pushed curving B_rho and H_rho = d B_rho with
        rho.index, the Dynkin index, times the fundamental forms.  The
        identity holds pointwise in the samples, so the residual is
        roundoff-level.  Returns (worst, scale): the absolute
        residual and rho.index * max(|B|, |H|) of the fundamental forms, the
        scale a relative residual divides by.
        """
        if self.rho is None:
            raise ArgumentError("the scaling check needs a pass with a representation")
        iota = float(self.rho.index)
        b_fund, b_rho = self.curving, self.pushed
        h_fund = b_fund.exterior_derivative()
        h_rho = b_rho.exterior_derivative()
        worst = np.maximum((b_rho - iota * b_fund).max_norm(), (h_rho - iota * h_fund).max_norm())
        scale = np.maximum(b_fund.max_norm(), h_fund.max_norm())
        return float(worst), float(iota * scale)
