"""Sampled connections on S1 x T^d, read directly as caloron-side data.

A connection is stored as real su(n) coefficient arrays (trailing axis
n^2 - 1 in the liealg.su_basis frame): phi, the dtheta component, is
the Higgs field of the caloron correspondence, and a holds the d base
components, which at fixed theta are the loop-algebra gauge field.  The
correspondence is this reading of the same arrays, so no second type is
needed.  Curvature splits into base-base components
F_ab = d_a A_b - d_b A_a + [A_a, A_b] and mixed components
G_a = dtheta A_a - d_a Phi + [Phi, A_a]; theta-derivatives are spectral,
base derivatives 4th-order central.

An analytic family returns each field as real coefficients in the same
frame, and sample_connection broadcasts them to the grid, rejecting a
field that is complex, non-finite or of another trailing length, so no
matrix sample is formed between a family and the forms.  The pipelines
work on the coefficients: the bracket sums the nonzero a < b terms of the
structure constants, <X, Y> = -trace(XY) is 2 c(X).c(Y), and the forms are
real by construction.  A representation acts by one real product with its
coefficient_map, whose result lies in su(dim) by construction, so no
matrix image is formed.

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

import numpy as np

from .errors import (
    ArgumentError,
    ConsistencyError,
    DimensionError,
    ResolutionError,
    ResourceError,
    ValidationError,
)
from .grids import GridForm, central_diff4, spectral_theta_derivative
from .liealg import su_structure_constants

FOUR_PI_SQ = 4.0 * math.pi * math.pi

# Cap on theta_points * (base_points + 2 ghost_margin)^base_dim * n^2, one
# field's count of matrix entries, n^2 per cell (1.6M on the caloron
# battery's default fine grid).  A field is sampled as n^2 - 1 real
# coefficients per cell, so an su(2) field holds 3/4 as many floats; at its
# peak the caloron battery's traced memory (tracemalloc, at its defaults) is
# 8.7 such su(2) fields on its fine grid, 78 MiB.
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


def check_grid(theta_points, base_points, base_dim, n, ghost_margin=0):
    """Reject a sampling grid without a meaningful derivative, or past the cap.

    Runs before any sample is allocated: the circle needs 8 points, each
    base axis the 5 points of the 4th-order stencil, and the entry count
    may not exceed MAX_GRID_ENTRIES.
    """
    if theta_points < 8:
        raise ValidationError(f"need at least 8 circle points, got {theta_points}")
    if base_dim not in (2, 3):
        raise DimensionError(f"base dimension must be 2 or 3, got {base_dim}")
    if base_points < 5:
        raise ResolutionError(
            f"need at least 5 base points for the 5-point stencil, got {base_points}"
        )
    entries = theta_points * (base_points + 2 * ghost_margin) ** base_dim * n * n
    if entries > MAX_GRID_ENTRIES:
        raise ResourceError(
            f"grid needs {entries} matrix entries per field, {n * n} per cell, "
            f"over the cap of {MAX_GRID_ENTRIES}"
        )


@dataclass(frozen=True)
class AnalyticConnection:
    """Closed-form sampler backing a LatticeConnection, used for resampling.

    phi(theta, xs) and base(theta, xs, axis) take broadcastable coordinate
    arrays and return real su(n) coefficient arrays (..., n^2 - 1) in the
    liealg.su_basis frame, broadcastable to the grid; n is the matrix size.
    """

    n: int
    phi: object
    base: object
    label: str = ""


@dataclass
class LatticeConnection:
    """Connection samples on a uniform grid over S1 x T^d, as su(n) coefficients.

    phi has shape (P, M', ..., M', n^2 - 1) and a has shape (d, P, M', ...,
    M', n^2 - 1), where M' = base_points + 2*ghost_margin.  A nonzero ghost
    margin means the base arrays were sampled from a covering-space formula:
    edge cells are valid samples, not periodic wraps, and derived forms
    carry the margin so that norms and integrals skip stencil-polluted cells.
    """

    n: int
    base_dim: int
    theta_points: int
    base_points: int
    phi: np.ndarray
    a: np.ndarray
    family: AnalyticConnection = None
    ghost_margin: int = 0

    def __post_init__(self):
        check_grid(
            self.theta_points,
            self.base_points,
            self.base_dim,
            self.n,
            self.ghost_margin,
        )
        ext = self.base_points + 2 * self.ghost_margin
        want_phi = (self.theta_points,) + (ext,) * self.base_dim + (self.n * self.n - 1,)
        self.phi = np.asarray(self.phi, dtype=float)
        self.a = np.asarray(self.a, dtype=float)
        if self.phi.shape != want_phi:
            raise ArgumentError(f"phi shape {self.phi.shape}, expected {want_phi}")
        if self.a.shape != (self.base_dim,) + want_phi:
            raise ArgumentError(
                f"base components shape {self.a.shape}, expected {(self.base_dim,) + want_phi}"
            )

    def spacing(self):
        return 1.0 / self.base_points

    def resample(self, theta_points=None, base_points=None):
        if self.family is None:
            raise ArgumentError("connection has no analytic family to resample from")
        return sample_connection(
            self.family,
            self.base_dim,
            theta_points or self.theta_points,
            base_points or self.base_points,
            ghost_margin=self.ghost_margin,
        )


def _grid_coords(base_dim, theta_points, base_points, ghost_margin):
    thetas = np.arange(theta_points) / theta_points
    ext = base_points + 2 * ghost_margin
    xs = (np.arange(ext) - ghost_margin) / base_points
    axes = [thetas.reshape((-1,) + (1,) * base_dim)]
    for d in range(base_dim):
        shape = [1] * (base_dim + 1)
        shape[d + 1] = ext
        axes.append(xs.reshape(shape))
    return axes


def sample_connection(family, base_dim, theta_points, base_points, ghost_margin=0):
    """Evaluate an analytic family on the (theta, base) grid, one field at a time.

    Each field is broadcast to the grid as it is; a field that is complex,
    non-finite or not (..., n^2 - 1) raises ConsistencyError.
    """
    check_grid(theta_points, base_points, base_dim, family.n, ghost_margin)
    th, *xs = _grid_coords(base_dim, theta_points, base_points, ghost_margin)
    ext = base_points + 2 * ghost_margin
    m = family.n * family.n - 1
    fields = np.empty((1 + base_dim, theta_points) + (ext,) * base_dim + (m,))

    def fill(out, samples, what):
        samples = np.asarray(samples)
        if (
            np.iscomplexobj(samples)
            or samples.shape[-1:] != (m,)
            or not np.isfinite(samples).all()
        ):
            raise ConsistencyError(
                f"family {family.label!r}: {what} is not a finite real (..., {m}) "
                f"coefficient field, got {samples.dtype} {samples.shape}"
            )
        out[...] = samples

    fill(fields[0], family.phi(th, xs), "phi")
    for axis in range(base_dim):
        fill(fields[1 + axis], family.base(th, xs, axis), f"base[{axis}]")
    return LatticeConnection(
        family.n,
        base_dim,
        theta_points,
        base_points,
        fields[0],
        fields[1:],
        family=family,
        ghost_margin=ghost_margin,
    )


def _representation_map(conn, rho):
    """rho.coefficient_map(), for a representation of the connection's su(n)."""
    if rho.n != conn.n:
        raise ArgumentError(f"a representation of su({rho.n}) on an su({conn.n}) connection")
    return rho.coefficient_map()


@functools.cache
def _bracket_terms(n):
    """The nonzero f_abc of su(n) with a < b, as (a, b, ((c, f_abc), ...)) per pair."""
    structure = su_structure_constants(n)
    terms = {}
    for a, b, c in zip(*np.nonzero(structure)):
        if a < b:
            terms.setdefault((a, b), []).append((c, structure[a, b, c]))
    return tuple((a, b, tuple(cs)) for (a, b), cs in terms.items())


def _bracket(x, y, n):
    """[X, Y] on su(n) coefficient arrays: sum over a < b of (x_a y_b - x_b y_a) f_abc."""
    out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
    for a, b, cs in _bracket_terms(n):
        cross = x[..., a] * y[..., b]
        cross -= x[..., b] * y[..., a]
        for c, f in cs:
            out[..., c] += f * cross
    return out


def _circle_pairing(x, y):
    """Circle sum of <X, Y> = 2 x.y, over axis 0 and the coefficient axis."""
    return np.einsum("t...a,t...a->...", x, y) * 2.0


class _Run:
    """Fields, dtheta A and curvature of su(n) coefficients on one run of circle points.

    base holds F_ab (a < b); mixed, F_{theta a}, is built when first read,
    so a pass that reads only the curving never builds it.
    """

    def __init__(self, phi, a, d_theta_a, n, spacing):
        self.phi, self.a, self.d_theta_a = phi, a, d_theta_a
        self.n, self.spacing = n, spacing
        self.base = {}
        for x, y in itertools.combinations(range(len(a)), 2):
            f_xy = self.base[(x, y)] = central_diff4(a[y], 1 + x, spacing)
            f_xy -= central_diff4(a[x], 1 + y, spacing)
            f_xy += _bracket(a[x], a[y], n)

    @functools.cached_property
    def mixed(self):
        comps = {
            x: d - central_diff4(self.phi, 1 + x, self.spacing)
            for x, d in enumerate(self.d_theta_a)
        }
        for x, c in comps.items():
            c += _bracket(self.phi, self.a[x], self.n)
        return comps

    def pushed(self, m, dim):
        """The run of the fields pushed through the coefficient map m, in su(dim).

        dtheta (A m) = (dtheta A) m, so no derivative is taken again.
        """
        return _Run(self.phi @ m, self.a @ m, [d @ m for d in self.d_theta_a], dim, self.spacing)


def _curvature_slices(conn):
    """Yield the connection's curvature as _Runs of circle points, in circle order.

    This is the one curvature pass: only dtheta A, which couples the circle
    points, is taken on the full grid, one base component at a time; each
    run slices it and builds F_ab (and, when read, F_{theta a}) on the
    run's points alone.
    """
    d_theta_a = [spectral_theta_derivative(a_x, axis=0) for a_x in conn.a]
    width = max(1, _RUN_CELLS // math.prod(conn.phi.shape[1:-1]))
    for t in range(0, conn.theta_points, width):
        s = slice(t, t + width)
        yield _Run(conn.phi[s], conn.a[:, s], [d[s] for d in d_theta_a], conn.n, conn.spacing())


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
    return GridForm(2, len(run.a), comps, 0)


def _density(mixed, base, ghost_margin, m=None):
    """Circle sum of the density -(1/4 pi^2) <F ^ G> as a 3-form, F pushed by m if given."""
    if m is not None:
        mixed, base = ({k: v @ m for k, v in c.items()} for c in (mixed, base))
    total = (
        _circle_pairing(base[(0, 1)], mixed[2])
        - _circle_pairing(base[(0, 2)], mixed[1])
        + _circle_pairing(base[(1, 2)], mixed[0])
    )
    return GridForm(3, 3, {(0, 1, 2): -total / FOUR_PI_SQ}, ghost_margin)


def _require_base3(conn, what):
    if conn.base_dim != 3:
        raise DimensionError(f"{what}; need a 3-dimensional base")


def pontryagin_densities(conn, reps):
    """The circle-integrated Pontryagin 3-form for each rho of reps, from one curvature pass.

    For the fundamental this is -(1/8 pi^2) Int <F~ ^ F~>; for another
    representation it is the same density of the pushed-forward curvature
    with the trace in the representation space, (1/8 pi^2) Int
    tr_rho(F^rho ^ F^rho).  Each representation, of the connection's su(n)
    or ArgumentError, pushes the same F_{theta a} and F_ab through its
    coefficient map (the fundamental's is the identity, so it skips the
    push), and one pass serves them all; a raise in any one push fails the
    whole pass.  Needs a 3-dimensional base; a ghosted sampling keeps its
    margin on the forms.
    """
    _require_base3(conn, "the density is a 3-form")
    maps = [_representation_map(conn, rho) for rho in reps]
    maps = [None if rho.is_fundamental() else m for rho, m in zip(reps, maps)]
    g = conn.ghost_margin
    return _circle_means(conn, lambda run: [_density(run.mixed, run.base, g, m) for m in maps])


class CurvaturePass:
    """The forms the caloron checks compare, from one curvature pass over a periodic connection.

    curving is the degree-2 curving on the base from the loop-space data,
    B_ab = -(1/4 pi^2) Int_0^1 [ 1/2 (<A_a, A_b'> - <A_b, A_a'>)
                                 - <F_ab, Phi> ] dtheta,
    with A' the circle derivative and the circle integral the grid mean
    (trapezoid rule on a periodic grid); density (on a 3-dimensional base)
    is pontryagin_densities' fundamental 3-form; given a representation
    rho, pushed is the curving built from the fields pushed through rho's
    coefficient_map, with su(rho.dim) brackets.  All of them read one
    dtheta A and one set of F_ab per run of circle points.  A ghosted
    sampling raises ArgumentError: the curving cannot integrate it.
    """

    def __init__(self, conn, rho=None):
        if conn.ghost_margin:
            raise ArgumentError("a curvature pass needs a periodic (ghost-free) sampling")
        self.conn, self.rho = conn, rho
        self.density = self.pushed = None
        forms = {"curving": _curving}
        if conn.base_dim == 3:
            forms["density"] = lambda run: _density(run.mixed, run.base, 0)
        if rho is not None:
            m, dim = _representation_map(conn, rho), rho.dim
            forms["pushed"] = lambda run: _curving(run.pushed(m, dim))
        means = _circle_means(conn, lambda run: [form(run) for form in forms.values()])
        for name, mean in zip(forms, means):
            setattr(self, name, mean)

    def identity_check(self, refine_factor=2):
        """Pointwise residual of [circle-integrated Pontryagin density] = d(curving).

        Returns (residual at the input resolution, measured convergence
        order between base grids M and refine_factor*M).  The identity is
        exact in the continuum, so the residual is pure discretization error
        and the order reflects the base stencils; a fine residual under the
        roundoff floor (_ROUNDOFF_FLOOR) reads order inf.  The refined grid
        is resampled from the connection's analytic family and swept here,
        once per call; needs a 3-dimensional base.
        """
        conn = self.conn
        _require_base3(conn, "the identity compares 3-forms")
        fine = CurvaturePass(conn.resample(base_points=refine_factor * conn.base_points))
        res_coarse, res_fine = (
            (p.density - p.curving.exterior_derivative()).max_norm() for p in (self, fine)
        )
        scale = max(np.abs(conn.phi).max(), np.abs(conn.a).max())
        if res_fine <= _ROUNDOFF_FLOOR * np.finfo(float).eps * scale**2 * max(scale, 1.0):
            return res_coarse, math.inf
        return res_coarse, math.log(res_coarse / res_fine, refine_factor)

    def scaling_check(self):
        """Max residual of (curving, 3-curvature) scaling under the pass's representation.

        Compares the pushed curving B_rho and (on a 3-dimensional base)
        H_rho = d B_rho with dynkin_index(rho) times the fundamental forms.
        The identity holds pointwise in the samples, so the residual is
        roundoff-level.  Returns (worst, scale): the absolute residual and
        dynkin_index(rho) * max(|B|, |H|) of the fundamental forms, the
        scale a relative residual divides by.
        """
        if self.rho is None:
            raise ArgumentError("the scaling check needs a pass with a representation")
        iota = float(self.rho.index)
        b_fund, b_rho = self.curving, self.pushed
        worst = (b_rho - iota * b_fund).max_norm()
        scale = b_fund.max_norm()
        if self.conn.base_dim == 3:
            h_fund = b_fund.exterior_derivative()
            h_rho = b_rho.exterior_derivative()
            worst = float(np.maximum(worst, (h_rho - iota * h_fund).max_norm()))
            scale = np.maximum(scale, h_fund.max_norm())
        return worst, float(iota * scale)
