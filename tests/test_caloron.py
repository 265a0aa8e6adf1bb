"""Sampled connections, curvature, curving, and representation scaling.

Oracles, each independent of the code under test:
  * the abelian preset's curvature in closed form,
    F_01 = amp * 2 pi * cos(2 pi x0) T3, evaluated on the grid directly;
  * su(2) ladder weights and su(3) root values for Dynkin indices, as
    Cartan-eigenvalue square sums normalized by the defining module;
  * trace ratios tr_rho(X^2)/tr(X^2) of the images a coefficient map gives;
  * the plain matrix formulas the coefficient kernels replace: x @ y - y @ x
    for the bracket, -trace(XY) for the pairing, sum_a c_a T_a for the
    matrices and -trace(T_k X) / 2 for the coefficients, and
    ad(X)_ab = <e_a, [X, e_b]> by explicit commutators in the orthonormal
    frame e = T / sqrt 2 for the adjoint image;
  * the matrix route a coefficient map replaces: curvature matrices through
    those adjoint images and back to coefficients;
  * the families' closed-form matrix fields, built here from i sigma_j (for
    flat, the transports u^-1 X u of matrix rotations), read back as
    coefficients;
  * for the pushes onto a coefficient map's support and the pass on the
    closure of the live coefficients, the full route (full_pass): all n^2 - 1
    coefficients of the connection, and every su(dim) coefficient pushed and
    bracketed with su(dim)'s whole term table.
The library has one family, su2_family; the four others the tests sample
(zero, abelian, flat, su2-axial) are written here, coefficient-leading as a
family returns them: one real array per su(2) coefficient, laid out by _su2.
Convergence tolerances are frozen from two-grid measurements quoted in the
assertions.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from gerbetool import caloron
from gerbetool.caloron import (
    MAX_GRID_ENTRIES,
    AnalyticConnection,
    CurvaturePass,
    LatticeConnection,
    _bracket,
    _bracket_terms,
    _curvature_slices,
    _curving,
    _density,
    _support,
    _support_map,
    pontryagin_densities,
    sample_connection,
)
from gerbetool.errors import (
    ArgumentError,
    CapabilityError,
    ConsistencyError,
    DimensionError,
    ResolutionError,
    ResourceError,
    ValidationError,
)
from gerbetool.grids import GridForm, central_diff4, spectral_theta_derivative
from gerbetool.liealg import Representation, su_basis, su_structure_constants
from gerbetool.moduli import ModuliFamily
from gerbetool.presets import su2_family

TWO_PI = 2.0 * math.pi
T1 = 1j * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
T2 = 1j * np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
T3 = 1j * np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
FUND = Representation.fundamental(2)


def su2_ladder_index(dim):
    """Dynkin index of the spin-(dim-1)/2 module from its Cartan weights."""
    k = dim - 1
    weight_sq = sum((k - 2 * j) ** 2 for j in range(dim))
    fund_sq = 2  # weights +1, -1 of the defining module
    return weight_sq / fund_sq


def su3_adjoint_index():
    """Adjoint index of su(3) from root values on h = diag(1, -1, 0)."""
    roots = [2, 1, -1, -2, -1, 1]  # (e_i - e_j)(h) over i != j
    fund = [1, -1, 0]
    return sum(r * r for r in roots) / sum(w * w for w in fund)


def random_su(rng, shape, n):
    """Random anti-Hermitian traceless (..., n, n) samples."""
    z = rng.standard_normal(shape + (n, n)) + 1j * rng.standard_normal(shape + (n, n))
    x = z - np.swapaxes(z.conj(), -1, -2)
    trace = np.trace(x, axis1=-2, axis2=-1)[..., None, None]
    return x - trace / n * np.eye(n)


def _su2(t1=0.0, t2=0.0, t3=0.0):
    """Coefficients of t1 T1 + t2 T2 + t3 T3 in su_basis(2) order, unstacked: (t2, t1, t3)."""
    return t2, t1, t3


# Ad(exp(2 pi t T_j)) turns the plane of the cyclically next generators,
# from T_k toward T_l: their su_basis(2) slots, keyed by j
_PLANES = {1: (0, 2), 2: (2, 1), 3: (1, 0)}


def _conjugate(coeffs, t, j):
    """Coefficients of u^-1 X u, u = exp(2 pi t T_j), from those of X: a turn by 4 pi t."""
    k, l = _PLANES[j]
    c, s = np.cos(2.0 * TWO_PI * t), np.sin(2.0 * TWO_PI * t)
    out = list(coeffs)
    out[k], out[l] = c * out[k] - s * out[l], s * out[k] + c * out[l]
    return out


def zero_family():
    """The vanishing connection."""

    def phi(th, xs):
        return _su2()

    def base(th, xs, axis):
        return _su2()

    return AnalyticConnection(2, phi, base, "zero")


def abelian_family(amplitude):
    """One diagonal generator, amplitude sin(2 pi x0) T3 dx1: curvature in closed form."""

    def phi(th, xs):
        return _su2()

    def base(th, xs, axis):
        if axis == 1:
            return _su2(t3=amplitude * np.sin(TWO_PI * xs[0]))
        return _su2()

    return AnalyticConnection(2, phi, base, "abelian")


def flat_family():
    """Pure gauge g^-1 dg of a product of winding rotations: its curvature vanishes.

    Its transports u^-1 X u act on coefficients: Ad of exp(2 pi t T_j)
    turns them by 4 pi t about T_j (_conjugate).
    """

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


def axial_family(amplitude):
    """sin(2 pi theta) a(x) T1 dx1 + b(x) T2 dtheta: curving and 3-curvature vanish.

    The two generators never meet in the pairing, so it is an exact-zero fixture.
    """

    def phi(th, xs):
        return _su2(t2=amplitude * np.cos(TWO_PI * xs[2]))

    def base(th, xs, axis):
        if axis == 0:
            return _su2(t1=amplitude * np.sin(TWO_PI * th) * np.sin(TWO_PI * xs[1]))
        return _su2()

    return AnalyticConnection(2, phi, base, "su2-axial")


FAMILIES = {
    "zero": lambda amp: zero_family(),
    "abelian": abelian_family,
    "flat": lambda amp: flat_family(),
    "su2-axial": axial_family,
    "su2-family": su2_family,
}


def preset_family(name, amplitude=0.7):
    """The named family of FAMILIES, unsampled."""
    return FAMILIES[name](amplitude)


def connection_preset(name, theta_points=12, base_points=16, amplitude=0.7):
    """Sample a named family of FAMILIES; the result carries it for resampling."""
    return sample_connection(preset_family(name, amplitude), theta_points, base_points)


def matrix_preset_fields(name, amp, th, xs):
    """A preset's (phi, base_0, base_1, base_2) as closed-form matrix fields."""
    s, c = np.sin, np.cos
    t, x0, x1, x2 = (TWO_PI * v for v in (th, *xs))

    def m(coeff, gen):
        return np.asarray(coeff)[..., None, None] * gen

    zero = m(0.0 * t, T3)
    if name == "zero":
        return [zero] * 4
    if name == "abelian":
        return [zero, zero, m(amp * s(x0), T3), zero]
    if name == "su2-axial":
        return [m(amp * c(x2), T2), m(amp * s(t) * s(x1), T1), zero, zero]
    if name == "su2-family":
        return [
            amp * (m(s(x0), T3) + m(c(t) * s(x1), T1) + m(s(t) * c(x2), T2)),
            amp * (m(s(t) * s(x1), T1) + m(c(t) * c(x2), T2) + m(c(x1), T3)),
            amp * (m(c(t) * s(x2), T1) + m(s(t) * s(x0), T3) + m(s(x2), T2)),
            amp * (m(s(t) * c(x0), T2) + m(c(t) * c(x1), T3) + m(s(x0), T1)),
        ]
    # flat: u^-1 (2 pi T) u, u a product of rotations exp(2 pi x_j T_j)
    r1, r2, r3 = (
        m(c(x), np.eye(2)) + m(s(x), gen) for x, gen in ((x0, T1), (x1, T2), (x2, T3))
    )
    one = m(1.0 + 0.0 * t, np.eye(2))

    def transport(u, gen):
        return np.swapaxes(u.conj(), -1, -2) @ (TWO_PI * gen) @ u

    return [
        transport(r1 @ r2 @ r3, T3),
        transport(r2 @ r3, T1),
        transport(r3, T2),
        transport(one, T3),
    ]


def trace_index(rho, x):
    img = mapped_image(rho, x)
    return np.trace(img @ img).real / np.trace(x @ x).real


def su_matrices(coeffs, n):
    """The (..., n, n) matrices sum_a c_a T_a of coefficient arrays (..., n^2 - 1)."""
    basis = np.array(su_basis(n), dtype=complex).reshape(-1, n * n)
    entries = np.stack([basis.real, basis.imag], axis=-1).reshape(-1, 2 * n * n)
    coeffs = np.asarray(coeffs, dtype=float)
    flat = coeffs.reshape(math.prod(coeffs.shape[:-1]), n * n - 1) @ entries
    return flat.view(complex).reshape(coeffs.shape[:-1] + (n, n))


def coefficients(samples):
    """The coefficients -tr(T_k X) / 2 of (..., n, n) su(n) samples, as (..., n^2 - 1)."""
    samples = np.asarray(samples, dtype=complex)
    n = samples.shape[-1]
    basis = np.array(su_basis(n), dtype=complex).reshape(-1, n, n)
    return -np.einsum("kji,...ij->...k", basis, samples).real / 2.0


def frame(n):
    """The orthonormal frame e_a = T_a / sqrt 2 of su(n), as an (n^2 - 1, n, n) array."""
    return np.array(su_basis(n), dtype=complex).reshape(-1, n, n) / math.sqrt(2.0)


def adjoint_image(x):
    """ad(X) of (..., n, n) samples by explicit commutators: ad(X)_ab = -tr(e_a [X, e_b])."""
    e = frame(x.shape[-1])
    bracket = np.einsum("...ij,bjk->...bik", x, e) - np.einsum("bij,...jk->...bik", e, x)
    return -np.einsum("aij,...bji->...ab", e, bracket)


def oracle_image(rho, x):
    """rho's image of (..., n, n) samples: 1 x 1 zeros, x itself, or adjoint_image(x)."""
    if rho.dim == 1:
        return np.zeros(x.shape[:-2] + (1, 1), dtype=complex)
    return x if rho.is_fundamental() else adjoint_image(x)


def mapped_image(rho, x):
    """rho's image of (..., n, n) su(n) samples through its coefficient map, as su(dim) matrices."""
    return su_matrices(coefficients(x) @ rho.coefficient_map(), rho.dim)


def stacked(field):
    """A family's field, a sequence of coefficient arrays, as one array (..., n^2 - 1)."""
    return np.stack(np.broadcast_arrays(*field), axis=-1)


def trailing(coeffs):
    """A coefficient-leading array (n^2 - 1, ...) with its coefficient axis moved last."""
    return np.moveaxis(coeffs, 0, -1)


def leading(coeffs):
    """A coefficient array (..., n^2 - 1) with its coefficient axis moved first."""
    return np.moveaxis(coeffs, -1, 0)


def every_coefficient(n):
    """All n^2 - 1 coefficients of su(n): the full route's closure, and the rows of its term table."""
    return tuple(range(n * n - 1))


def full_terms(n):
    """su(n)'s whole bracket term table."""
    return _bracket_terms(n, every_coefficient(n), every_coefficient(n))


def live_closure(conn):
    """The closure of the connection's live coefficients, which a curvature pass runs on."""
    return caloron._closure(conn.n, caloron._live(conn))


def trailing_bracket(x, y, n):
    """_bracket with su(n)'s whole term table on arrays (..., n^2 - 1), the axis moved at the boundary."""
    return trailing(_bracket(leading(x), leading(y), full_terms(n)))


def curvature_matrices(conn):
    """(mixed, base): F_{theta a} and F_ab (a < b) of one curvature pass, as matrix samples.

    Each component's runs are concatenated over the circle and turned into
    (..., n, n) matrices by su_matrices, so a NaN coefficient reaches them.
    """
    runs = list(_curvature_slices(conn, every_coefficient(conn.n)))
    return tuple(
        {
            k: su_matrices(trailing(np.concatenate([c[k] for c in comps], axis=1)), conn.n)
            for k in comps[0]
        }
        for comps in ([run.mixed for run in runs], [run.base for run in runs])
    )


def max_norm(comps):
    """Largest entry modulus over the components of a periodic sampling; NaN if any is NaN."""
    return float(np.max([np.abs(arr).max() for part in comps for arr in part.values()]))


class TestPresetCatalog:
    def test_names(self):
        # su2_family's label names it in every sampler error
        names = ["abelian", "flat", "su2-axial", "su2-family", "zero"]
        assert [preset_family(name).label for name in names] == names

    @pytest.mark.parametrize("amplitude", [0.7, 1e8])
    @pytest.mark.parametrize("name", ["zero", "abelian", "flat", "su2-axial", "su2-family"])
    def test_fields_match_closed_form_matrices(self, name, amplitude):
        rng = np.random.default_rng(60)
        th, *xs = rng.random((4, 256))
        family = preset_family(name, amplitude)
        got = [family.phi(th, xs)] + [family.base(th, xs, axis) for axis in range(3)]
        for field, matrices in zip(got, matrix_preset_fields(name, amplitude, th, xs)):
            want = coefficients(matrices)
            # the matrices lie in su(2): their coefficients give them back
            assert np.abs(su_matrices(want, 2) - matrices).max() <= 1e-15 * np.abs(matrices).max()
            assert len(field) == 3
            field = np.broadcast_to(stacked(field), want.shape)
            assert np.abs(field - want).max() <= 1e-15 * np.abs(want).max()


class TestCurvature:
    def test_zero_preset_is_exactly_flat(self):
        cur = curvature_matrices(connection_preset("zero", theta_points=8, base_points=8))
        assert max_norm(cur) == 0.0

    @pytest.mark.parametrize("base_points,bound", [(16, 5e-3), (32, 5e-4)])
    def test_abelian_matches_closed_form(self, base_points, bound):
        conn = connection_preset("abelian", theta_points=12, base_points=base_points)
        mixed, base = curvature_matrices(conn)
        xs = np.arange(base_points) / base_points
        want = (0.7 * TWO_PI * np.cos(TWO_PI * xs))[None, :, None, None, None, None] * T3
        assert np.abs(base[(0, 1)] - want).max() <= bound
        for key, arr in base.items():
            if key != (0, 1):
                assert np.abs(arr).max() <= 1e-12
        for arr in mixed.values():
            assert np.abs(arr).max() <= 1e-12

    def test_abelian_error_contracts_at_fourth_order(self):
        errs = {}
        for m in (16, 32):
            conn = connection_preset("abelian", theta_points=12, base_points=m)
            xs = np.arange(m) / m
            want = (0.7 * TWO_PI * np.cos(TWO_PI * xs))[None, :, None, None, None, None] * T3
            errs[m] = np.abs(curvature_matrices(conn)[1][(0, 1)] - want).max()
        assert math.log2(errs[16] / errs[32]) >= 3.5

    def test_max_norm_propagates_nan(self):
        # max(worst, nan) keeps worst, so one NaN sample must reach the norm
        # of the curving and of the density
        conn = connection_preset("su2-family", theta_points=8, base_points=8)
        conn.a[2, 0, 4, 4, 4, 0] = math.nan
        forms = CurvaturePass(conn)
        assert math.isnan(forms.curving.max_norm())
        assert math.isnan(forms.density.max_norm())

    def test_nan_reaches_the_norm_through_the_commutator(self):
        # at cell (4, 4, 4) F_02 reads a_2 only through [A_0, A_2]: the
        # stencil d_0 A_2 skips the centre and d_2 A_0 does not read A_2
        conn = connection_preset("su2-family", theta_points=8, base_points=8)
        conn.a[2, 0, 0, 4, 4, 4] = math.nan
        _, base = curvature_matrices(conn)
        assert np.isnan(base[(0, 2)][0, 4, 4, 4]).any()
        stencil = central_diff4(trailing(conn.a[2]), 1, conn.spacing())
        assert np.isfinite(stencil[0, 4, 4, 4]).all()
        forms = CurvaturePass(conn)
        assert math.isnan(forms.curving.max_norm())
        assert math.isnan(forms.density.max_norm())

    def test_flat_preset_contracts_at_fourth_order(self):
        # measured 0.9305 at M=16 and 0.06145 at M=32, order 3.92
        res = {}
        for m in (16, 32):
            conn = connection_preset("flat", theta_points=12, base_points=m)
            res[m] = max_norm(curvature_matrices(conn))
        assert res[16] <= 1.0
        assert res[32] <= 0.07
        assert math.log2(res[16] / res[32]) >= 3.5


class TestRebagging:
    def test_resample_needs_a_family(self):
        # the identity check samples its refined grid from the connection's family
        conn = connection_preset("zero", theta_points=8, base_points=8)
        bare = LatticeConnection(conn.n, conn.theta_points, conn.base_points, conn.phi, conn.a)
        with pytest.raises(ArgumentError, match="connection has no analytic family to resample from"):
            CurvaturePass(bare).identity_check(2)

    def test_too_few_circle_points_rejected(self):
        with pytest.raises(ValidationError, match="circle points"):
            connection_preset("zero", theta_points=4, base_points=8)

    def test_stencil_needs_five_base_points(self):
        with pytest.raises(ResolutionError, match="5-point stencil"):
            connection_preset("zero", theta_points=8, base_points=4)

    def test_grid_over_the_cap_raises_before_allocating(self):
        # 12 * 400^3 * 4 entries would need 46 GiB; the cap answers at once
        with pytest.raises(ResourceError, match="over the cap"):
            connection_preset("su2-family", theta_points=12, base_points=400)
        # the ghost margin counts: 45^3 cells fit the cap, 53^3 do not
        assert 8 * 45**3 * 4 <= MAX_GRID_ENTRIES < 8 * 53**3 * 4
        family = connection_preset("zero", 8, 8).family
        with pytest.raises(ResourceError, match="over the cap"):
            sample_connection(family, 8, 45, ghost_margin=4)

    def test_mismatched_shapes_rejected(self):
        conn = connection_preset("zero", theta_points=8, base_points=8)
        with pytest.raises(ArgumentError, match="shape"):
            LatticeConnection(2, 8, 8, conn.phi[:, :4], conn.a)

    def test_two_base_components_rejected(self):
        # the base is T^3: a connection on T^2 is refused, not read as one
        conn = connection_preset("zero", theta_points=8, base_points=8)
        want = re.escape("base components shape (2, 3, 8, 8, 8, 8), expected (3, 3, 8, 8, 8, 8)")
        with pytest.raises(ArgumentError, match=want):
            LatticeConnection(2, 8, 8, conn.phi, conn.a[:2])
        assert LatticeConnection.base_dim == conn.base_dim == 3


class TestBField:
    def test_zero_preset(self):
        pair = connection_preset("zero", theta_points=8, base_points=8)
        assert CurvaturePass(pair).curving.max_norm() == 0.0

    def test_abelian_preset_has_no_curving(self):
        # no theta dependence and no Higgs, so both integrand terms vanish
        pair = connection_preset("abelian", theta_points=12, base_points=16)
        assert CurvaturePass(pair).curving.max_norm() == 0.0

    def test_axial_family_is_structurally_zero(self):
        # T1 and T2 never meet in the pairing, so every term is exactly zero
        pair = connection_preset("su2-axial", theta_points=12, base_points=16)
        assert CurvaturePass(pair).curving.max_norm() == 0.0

    def test_generic_family_has_nonzero_curving(self):
        pair = connection_preset("su2-family", theta_points=12, base_points=16)
        assert CurvaturePass(pair).curving.max_norm() > 1e-2

    def test_ghost_sampling_rejected(self):
        conn = connection_preset("su2-family", theta_points=8, base_points=8)
        ghosted = sample_connection(conn.family, 8, 8, ghost_margin=2)
        with pytest.raises(ArgumentError, match="periodic"):
            CurvaturePass(ghosted)

    def test_complex_integrand_rejected(self):
        # a Hermitian (not anti-Hermitian) component is an imaginary
        # coefficient; the sampler rejects it instead of dropping it
        def phi(th, xs):
            return [np.zeros(th.shape)] * 3

        def base(th, xs, axis):
            out = [np.zeros(th.shape)] * 3
            out[1] = np.sin(TWO_PI * th) + (1j * np.cos(TWO_PI * th) if axis else 0.0)
            return out

        family = AnalyticConnection(2, phi, base, "hermitian")
        with pytest.raises(ConsistencyError, match="'hermitian': base\\[1\\] is not 3 finite real"):
            sample_connection(family, 8, 8)

    def test_non_finite_samples_rejected(self):
        # one NaN or inf coefficient anywhere must not reach the pipelines
        good = connection_preset("su2-family", theta_points=8, base_points=8).family

        def phi(th, xs):
            out = [np.array(np.broadcast_to(c, (8, 8, 8, 8))) for c in good.phi(th, xs)]
            out[1][0, 0, 0, 0] = math.nan
            return out

        def nan_base(th, xs, axis):
            return [math.nan * c for c in good.base(th, xs, axis)]

        def inf_base(th, xs, axis):
            return [c + (math.inf if axis == 2 else 0.0) for c in good.base(th, xs, axis)]

        for family, what in (
            (AnalyticConnection(2, phi, good.base, "nan-higgs"), "phi"),
            (AnalyticConnection(2, good.phi, nan_base, "nan-gauge"), "base\\[0\\]"),
            (AnalyticConnection(2, good.phi, inf_base, "inf-gauge"), "base\\[2\\]"),
        ):
            with pytest.raises(ConsistencyError, match=f"{family.label}': {what} is not 3 finite"):
                sample_connection(family, 8, 8)
        with pytest.raises(ConsistencyError, match="'su2-family': phi is not 3 finite"):
            connection_preset("su2-family", theta_points=8, base_points=8, amplitude=math.nan)


class TestDensityAndIdentity:
    def test_zero_preset_density_vanishes(self):
        conn = connection_preset("zero", theta_points=8, base_points=8)
        (density,) = pontryagin_densities(conn, [FUND])
        assert density.max_norm() == 0.0

    def test_identity_on_generic_family(self):
        # measured residual 3.28e-3 at (P=12, M=16), order 3.87 under 2x refinement
        conn = connection_preset("su2-family", theta_points=12, base_points=16)
        res, order = CurvaturePass(conn).identity_check(refine_factor=2)
        assert res <= 5e-3
        assert order >= 3.5

    def test_identity_differentiates_each_grid_once(self, monkeypatch):
        # the density and the curving share dtheta A: one spectral derivative
        # per base axis on the coarse grid and on the refined one
        calls = []

        def counting(arr, axis=0):
            calls.append(arr.shape[2])
            return spectral_theta_derivative(arr, axis=axis)

        monkeypatch.setattr("gerbetool.caloron.spectral_theta_derivative", counting)
        conn = connection_preset("su2-family", theta_points=8, base_points=8)
        CurvaturePass(conn).identity_check(refine_factor=2)
        assert sorted(calls) == [8, 8, 8, 16, 16, 16]

    def test_each_pass_differentiates_its_closure_alone(self, monkeypatch):
        # the pairing's winding family lives along T1 alone, so its pass
        # takes one-coefficient derivatives and no bracket; su2-family is
        # live in all three, so the caloron pass runs on all of them
        seen = {name: [] for name in ("spectral_theta_derivative", "central_diff4", "_bracket")}

        def counted(name, real):
            def wrapper(arr, *args, **kwargs):
                seen[name].append(len(arr))
                return real(arr, *args, **kwargs)

            return wrapper

        for name in seen:
            monkeypatch.setattr(caloron, name, counted(name, getattr(caloron, name)))
        pontryagin_densities(ModuliFamily().connection(8, 12), (FUND, Representation.adjoint(2)))
        # dtheta A once per base axis; per circle point, 6 stencils for F_ab and 3 for F_theta a
        assert seen == {"spectral_theta_derivative": [1] * 3, "central_diff4": [1] * 8 * 9, "_bracket": []}
        for calls in seen.values():
            calls.clear()
        CurvaturePass(connection_preset("su2-family", theta_points=8, base_points=16), Representation.adjoint(2))
        assert {name: set(calls) for name, calls in seen.items()} == dict.fromkeys(seen, {3})
        assert len(seen["spectral_theta_derivative"]) == 3

    def test_identity_peak_memory_is_bounded(self):
        # traced peak in fine-grid coefficient fields (8 x 24^3 x 3 floats):
        # 16.3 while every F_{theta a} and F_ab was held on the full grid, 8.5
        # with the curvature streamed one circle point at a time (the fine
        # connection's 4 fields, dtheta A's 3 and one transform's
        # temporaries); the pushes onto the support left it at 8.5
        conn = connection_preset("su2-family", theta_points=8, base_points=12)
        field = 8 * 24**3 * 3 * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            CurvaturePass(conn).identity_check(refine_factor=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - before) / field <= 10.0

    def test_flat_preset_meets_the_identity_at_roundoff(self):
        # coarse and fine residuals 6.5e-13 and 8.1e-13 are roundoff at the
        # field scale 2 pi; an absolute 1e-13 floor read them as order -0.30
        conn = connection_preset("flat", theta_points=12, base_points=16)
        res, order = CurvaturePass(conn).identity_check(2)
        assert res <= 1e-11
        assert order == math.inf

    @pytest.mark.parametrize("amplitude", [1e-4, 1e-8])
    def test_small_field_order_is_measured(self, amplitude):
        # the residual scales as amplitude^3 (measured 9.6e-15 coarse, 6.5e-16
        # fine at 1e-4), so its order is the default amplitude's 3.87
        conn = connection_preset(
            "su2-family", theta_points=12, base_points=16, amplitude=amplitude
        )
        res, order = CurvaturePass(conn).identity_check(2)
        assert res <= 1e-2 * amplitude**3
        assert abs(order - 3.875) <= 0.01

    def test_tiny_field_meets_the_identity_at_roundoff(self):
        # at amplitude 1e-12 the fine residual 6.4e-39 is roundoff of the
        # density's quadratic terms, 29 eps amplitude^2; measured, it read order 0.87
        conn = connection_preset(
            "su2-family", theta_points=12, base_points=16, amplitude=1e-12
        )
        assert CurvaturePass(conn).identity_check(2)[1] == math.inf

    def test_identity_on_zero_preset_is_exact(self):
        conn = connection_preset("zero", theta_points=8, base_points=8)
        res, order = CurvaturePass(conn).identity_check(2)
        assert res == 0.0
        assert order == math.inf

    @pytest.mark.parametrize("name, amplitude", [("zero", 0.7), ("su2-family", 1e-12)])
    def test_nan_sample_reads_a_nan_order(self, name, amplitude):
        # the refined grid is resampled clean from the family and its residual
        # falls under the roundoff floor; the coarse NaN once read as order inf
        conn = connection_preset(name, theta_points=8, base_points=8, amplitude=amplitude)
        conn.a[2, 0, 0, 4, 4, 4] = math.nan
        res, order = CurvaturePass(conn).identity_check(2)
        assert math.isnan(res) and math.isnan(order)

    @pytest.mark.parametrize("factor", [1, 0, 1.5])
    def test_refine_factor_is_an_integer_of_at_least_two(self, factor):
        # these raised ZeroDivisionError, ValueError and TypeError
        conn = connection_preset("su2-family", theta_points=8, base_points=8)
        with pytest.raises(ArgumentError, match="refine factor must be an integer >= 2"):
            CurvaturePass(conn).identity_check(factor)

    def test_identity_needs_periodic_sampling(self):
        conn = connection_preset("su2-family", theta_points=8, base_points=8)
        ghosted = sample_connection(conn.family, 8, 8, ghost_margin=2)
        with pytest.raises(ArgumentError, match="periodic"):
            CurvaturePass(ghosted).identity_check(2)


class TestDynkinIndex:
    def test_su2_modules_match_ladder_oracle(self):
        assert Representation.fundamental(2).index == su2_ladder_index(2) == 1
        assert Representation.adjoint(2).index == su2_ladder_index(3) == 4
        assert Representation(2, ()).index == 0
        assert Representation(3, ()).index == 0

    def test_larger_fundamentals(self):
        assert Representation.fundamental(3).index == 1
        assert Representation.fundamental(4).index == 1

    def test_su3_adjoint_matches_root_oracle(self):
        assert Representation.adjoint(3).index == su3_adjoint_index() == 6

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_adjoint_trace_ratio(self, n):
        # the closed forms of the adjoint, fundamental and trivial against
        # the trace ratio and the shape of their images
        x = np.zeros((n, n), dtype=complex)
        x[0, 0], x[1, 1] = 1j, -1j
        for rho in (Representation.adjoint(n), Representation.fundamental(n), Representation(n, ())):
            got = trace_index(rho, x)
            assert abs(got - float(rho.index)) <= 1e-12, rho
            assert mapped_image(rho, x).shape == (rho.dim, rho.dim), rho

    # each names no trivial, fundamental or adjoint representation: too
    # long for n, out of order, or another partition (su(2)'s spin 3/2 and
    # its determinant (1, 1), su(3)'s antifundamental (1, 1) and its (2, 2))
    @pytest.mark.parametrize(
        "n, partition",
        [(2, (3,)), (2, (1, 1)), (3, (1, 1)), (2, (0, 1)), (2, (1, 1, 1)), (3, (2, 2))],
    )
    def test_other_partitions_are_refused_at_construction(self, n, partition):
        with pytest.raises(CapabilityError, match=re.escape(str(partition))):
            Representation(n, partition)

    def test_adjoint_image_is_a_homomorphism(self):
        rng = np.random.default_rng(3)
        rho = Representation.adjoint(2)
        for _ in range(5):
            c1, c2 = rng.standard_normal(3), rng.standard_normal(3)
            sig = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]])]
            x = 1j * sum(c * s for c, s in zip(c1, sig))
            y = 1j * sum(c * s for c, s in zip(c2, sig))
            lhs = mapped_image(rho, x @ y - y @ x)
            img_x, img_y = mapped_image(rho, x), mapped_image(rho, y)
            assert np.abs(lhs - (img_x @ img_y - img_y @ img_x)).max() <= 1e-12


class TestSuFrame:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_frame_is_orthonormal(self, n):
        # the adjoint oracle's frame T / sqrt 2, so su_basis is orthogonal with <T_a, T_a> = 2
        e = frame(n)
        assert e.shape == (n * n - 1, n, n)
        gram = -np.einsum("aij,bji->ab", e, e)
        assert np.abs(gram - np.eye(n * n - 1)).max() <= 1e-15
        assert np.abs(e + np.swapaxes(e.conj(), 1, 2)).max() == 0.0
        assert np.abs(np.trace(e, axis1=1, axis2=2)).max() <= 1e-15

    def test_su2_structure_constants_are_twice_epsilon(self):
        eps = np.zeros((3, 3, 3))
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            eps[a, b, c], eps[b, a, c] = 1.0, -1.0
        assert np.array_equal(su_structure_constants(2), 2.0 * eps)

    def test_su1_is_zero(self):
        # su(1) = 0, the trivial image: no basis, and the trivial map has no columns
        assert su_basis(1) == []
        assert coefficients(np.zeros((4, 1, 1))).shape == (4, 0)
        assert Representation(2, ()).coefficient_map().shape == (3, 0)
        assert np.array_equal(su_matrices(np.zeros((4, 0)), 1), np.zeros((4, 1, 1)))


class TestBatchedKernels:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("samples", [4096, 7])
    def test_commutator_matches_matmul(self, n, samples):
        # the coefficient bracket is the matrix commutator, on a batch of
        # 4096 x 20 samples and on one of 7 x 20
        rng = np.random.default_rng(10 + n)
        x, y = random_su(rng, (samples, 5, 4), n), random_su(rng, (samples, 5, 4), n)
        cx, cy = coefficients(x), coefficients(y)
        want = x @ y - y @ x
        got = su_matrices(trailing_bracket(cx, cy, n), n)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        single = su_matrices(trailing_bracket(cx[0, 0, 0], cy[0, 0, 0], n), n)
        assert np.abs(single - want[0, 0, 0]).max() <= 1e-13 * np.abs(want).max()

    def test_su2_bracket_is_the_cross_product(self):
        # f_abc = 2 eps_abc: the a < b terms are the cross product's, bit for bit
        x, y = np.random.default_rng(60).standard_normal((2, 4096, 3))
        assert np.array_equal(trailing_bracket(x, y, 2), np.cross(x, y) * 2.0)

    @pytest.mark.parametrize("n", [3, 4])
    def test_bracket_matches_the_full_contraction(self, n):
        # the oracle contracts the whole m x m outer product with f_abc
        m = n * n - 1
        x, y = np.random.default_rng(70 + n).standard_normal((2, 5, 64, m))
        outer = (x[..., :, None] * y[..., None, :]).reshape(x.shape[:-1] + (m * m,))
        want = outer @ su_structure_constants(n).reshape(m * m, m)
        got = trailing_bracket(x, y, n)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_coefficient_round_trip(self, n):
        rng = np.random.default_rng(30 + n)
        x, y = random_su(rng, (2, 7), n), random_su(rng, (2, 7), n)
        coeffs = coefficients(x)
        assert coeffs.shape == (2, 7, n * n - 1) and coeffs.dtype == float
        assert np.abs(su_matrices(coeffs, n) - x).max() <= 1e-14 * np.abs(x).max()
        # <X, Y> = -trace(XY) is twice the coefficient dot product
        pair = -np.einsum("...ij,...ji->...", x, y)
        dot = 2.0 * (coeffs * coefficients(y)).sum(axis=-1)
        assert np.abs(pair - dot).max() <= 1e-13 * np.abs(pair).max()

    def test_large_fields_stay_real(self):
        # the density's imaginary part is roundoff at the field's own scale;
        # a commutator that lost its anti-Hermitian symmetry left 1.5e7 here
        conn = connection_preset(
            "su2-family", theta_points=8, base_points=8, amplitude=1e6
        )
        assert np.isfinite(CurvaturePass(conn).density.max_norm())

    def test_membership_bound_is_relative_to_the_field(self):
        # at amplitude 1e8 an absolute 1e-10 reality bound on matrix samples
        # failed on an imaginary residue of 3.5e7; coefficient fields have none
        conn = connection_preset(
            "su2-family", theta_points=8, base_points=8, amplitude=1e8
        )
        forms = CurvaturePass(conn, Representation.adjoint(2))
        assert np.isfinite(forms.curving.max_norm())
        assert np.isfinite(forms.density.max_norm())
        res, order = forms.identity_check(2)
        assert math.isfinite(res) and order >= 1.9
        worst, scale = forms.scaling_check()
        assert worst <= 1e-12 * scale
        # the same field as (..., 2, 2) matrices, in su(2) exactly, is
        # rejected, not converted
        big = conn.family

        def base(th, xs, axis):
            return su_matrices(stacked(big.base(th, xs, axis)), 2)

        with pytest.raises(ConsistencyError, match="'matrices': base\\[0\\] is not .* complex128"):
            sample_connection(AnalyticConnection(2, big.phi, base, "matrices"), 8, 8)

    @pytest.mark.parametrize("n", [2, 3])
    def test_adjoint_image_matches_elementwise_formula(self, n):
        # ad(X)_ab = <e_a, [X, e_b]> = -tr(e_a (X e_b - e_b X)), one element at a time
        e = frame(n)
        x = random_su(np.random.default_rng(20 + n), (2, 3), n)
        rho = Representation.adjoint(n)
        got = mapped_image(rho, x)
        assert got.shape == (2, 3, n * n - 1, n * n - 1)
        for idx in np.ndindex(2, 3):
            bracket = [x[idx] @ tb - tb @ x[idx] for tb in e]
            want = np.array([[-np.trace(ta @ c) for c in bracket] for ta in e])
            assert np.abs(got[idx] - want).max() <= 1e-13
            assert np.abs(adjoint_image(x[idx]) - want).max() <= 1e-13


class TestRhoScaling:
    def test_fundamental_route_is_bitwise_neutral(self):
        pair = connection_preset("su2-family", theta_points=12, base_points=16)
        assert CurvaturePass(pair, Representation.fundamental(2)).scaling_check()[0] == 0.0

    def test_adjoint_scales_by_its_index(self):
        # measured 8.2e-15; the identity is pointwise in the samples
        pair = connection_preset("su2-family", theta_points=12, base_points=16)
        assert CurvaturePass(pair, Representation.adjoint(2)).scaling_check()[0] <= 1e-10

    def test_trivial_representation_kills_everything(self):
        pair = connection_preset("su2-family", theta_points=12, base_points=16)
        assert CurvaturePass(pair, Representation(2, ())).scaling_check() == (0.0, 0.0)

    def test_zero_connection(self):
        pair = connection_preset("zero", theta_points=8, base_points=8)
        assert CurvaturePass(pair, Representation.adjoint(2)).scaling_check() == (0.0, 0.0)

    def test_scale_is_the_index_times_the_fundamental_forms(self):
        pair = connection_preset("su2-family", theta_points=12, base_points=16)
        b = CurvaturePass(pair).curving
        want = 4.0 * max(b.max_norm(), b.exterior_derivative().max_norm())
        assert CurvaturePass(pair, Representation.adjoint(2)).scaling_check()[1] == want

    def test_adjoint_peak_memory_is_bounded(self):
        # traced peak in su(2) coefficient fields (12 x 16^3 x 3 floats): 22.3
        # while the whole connection was pushed into 8 adjoint coefficients,
        # 9.9 with each run of circle points pushed as it is sliced, 7.0 with
        # both curvings from one pass and the a < b bracket, which forms no
        # m x m outer product, 5.2 with each run pushed onto the 3 su(3)
        # coefficients the adjoint reaches (the curving alone peaks at 4.2:
        # dtheta A's 3 fields and one run's temporaries)
        conn = connection_preset("su2-family", theta_points=12, base_points=16)
        field = 12 * 16**3 * 3 * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            CurvaturePass(conn, Representation.adjoint(2)).scaling_check()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - before) / field <= 12.0


class TestIndexCurvature:
    def test_fundamental_equals_plain_density(self):
        conn = connection_preset("su2-family", theta_points=12, base_points=16)
        (fund,) = pontryagin_densities(conn, [FUND])
        assert (fund - CurvaturePass(conn).density).max_norm() == 0.0

    def test_adjoint_is_four_times_fundamental(self):
        # measured 2.7e-15 against a density of max norm 0.84
        conn = connection_preset("su2-family", theta_points=12, base_points=16)
        adj, fund = pontryagin_densities(conn, [Representation.adjoint(2), FUND])
        assert (adj - 4.0 * fund).max_norm() <= 1e-10

    def test_zero_connection(self):
        conn = connection_preset("zero", theta_points=8, base_points=8)
        (density,) = pontryagin_densities(conn, [Representation.adjoint(2)])
        assert density.max_norm() == 0.0


class TestGrids:
    def test_spectral_derivative_exact_on_harmonics(self):
        p = 12
        th = np.arange(p) / p
        for k in (1, 2, 5):
            got = spectral_theta_derivative(np.sin(TWO_PI * k * th))
            want = TWO_PI * k * np.cos(TWO_PI * k * th)
            assert np.abs(got - want).max() <= 1e-11

    def test_spectral_derivative_rejects_complex_samples(self):
        with pytest.raises(ArgumentError, match="real samples"):
            spectral_theta_derivative(np.exp(1j * TWO_PI * np.arange(12) / 12))

    def test_central_diff4_is_exact_on_cubics(self):
        m = 16
        xs = np.arange(m, dtype=float)
        # cubic in the index is reproduced exactly up to wraparound cells
        arr = xs**3
        got = central_diff4(arr, 0, 1.0)[3 : m - 3]
        want = (3 * xs**2)[3 : m - 3]
        assert np.abs(got - want).max() <= 1e-9

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("length", range(1, 7))
    def test_central_diff4_matches_the_rolled_formula_bit_for_bit(self, length, dtype):
        def rolled(arr, axis, spacing):
            return (
                -np.roll(arr, -2, axis=axis)
                + 8.0 * np.roll(arr, -1, axis=axis)
                - 8.0 * np.roll(arr, 1, axis=axis)
                + np.roll(arr, 2, axis=axis)
            ) / (12.0 * spacing)

        rng = np.random.default_rng(80 + length)
        for axis in range(3):
            shape = [2, 3, 4]
            shape[axis] = length
            arr = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
            if dtype is complex:
                arr = arr + 1j * rng.standard_normal(shape)
            for ax in (axis, axis - 3):
                got, want = central_diff4(arr, ax, 0.37), rolled(arr, ax, 0.37)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_central_diff4_matches_the_negated_first_form_bit_for_bit(self, dtype):
        # the stencil once began -a[4:] + 8 a[3:-1]; 8 a[3:-1] - a[4:] rounds the same
        def negated_first(arr, axis, spacing):
            p = arr.shape[axis]
            a = np.moveaxis(np.take(arr, np.arange(-2, p + 2), axis=axis, mode="wrap"), axis, 0)
            out = -a[4:] + 8.0 * a[3:-1]
            out -= 8.0 * a[1:-3]
            out += a[:-4]
            out /= 12.0 * spacing
            return np.moveaxis(out, 0, axis)

        rng = np.random.default_rng(90)
        shape = (3, 2, 5, 6, 7)
        arr = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        if dtype is complex:
            arr = arr + 1j * rng.standard_normal(shape)
        for axis in range(len(shape)):
            got, want = central_diff4(arr, axis, 0.37), negated_first(arr, axis, 0.37)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_double_exterior_derivative_vanishes(self):
        m = 16
        xs = np.arange(m) / m
        g0, g1, g2 = np.meshgrid(xs, xs, xs, indexing="ij")
        comps = {
            (0,): np.sin(TWO_PI * g0) * np.cos(TWO_PI * g1),
            (1,): np.cos(TWO_PI * 2 * g2),
            (2,): np.sin(TWO_PI * (g0 + g2)),
        }
        w = GridForm(1, comps)
        dd = w.exterior_derivative().exterior_derivative()
        assert dd.max_norm() <= 1e-9

    def test_form_validation(self):
        m = 8
        arr = np.zeros((m, m, m))
        with pytest.raises(ValidationError, match="component keys"):
            GridForm(1, {(0, 1): arr})
        with pytest.raises(ArgumentError, match="degree"):
            GridForm(4, {})
        with pytest.raises(DimensionError):
            GridForm(1, {(0,): arr, (1,): arr, (2,): arr}).integrate()

    def test_components_off_the_three_torus_rejected(self):
        flat = np.zeros((8, 8))
        with pytest.raises(ValidationError, match=re.escape("one 3-dimensional shape, got [(8, 8)]")):
            GridForm(0, {(): flat})
        with pytest.raises(ValidationError, match="one 3-dimensional shape"):
            GridForm(1, {(0,): np.zeros((8, 8, 8)), (1,): flat, (2,): flat})

    def test_top_form_integral_is_mean(self):
        m = 8
        vals = np.arange(m**3, dtype=float).reshape(m, m, m)
        form = GridForm(3, {(0, 1, 2): vals})
        assert form.integrate() == pytest.approx(vals.mean())

    def test_ghost_margin_is_skipped_by_norms(self):
        m, g = 8, 2
        arr = np.zeros((m + 2 * g,) * 3)
        arr[0, 0, 0] = 7.0  # ghost cell, must not count
        form = GridForm(0, {(): arr}, ghost_margin=g)
        assert form.max_norm() == 0.0

    def test_max_norm_keeps_nan_in_any_component(self):
        ones, nan = np.ones((8, 8, 8)), np.full((8, 8, 8), math.nan)
        for comps in (
            {(0, 1): ones, (0, 2): nan, (1, 2): ones},
            {(0, 1): nan, (0, 2): ones, (1, 2): ones},
        ):
            assert math.isnan(GridForm(2, comps).max_norm())


class TestCoefficientMap:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rows_are_coefficients_of_the_images(self, n):
        # row a against the coefficients of the oracle's image of T_a
        m = n * n - 1
        for rho in (
            Representation(n, ()),
            Representation.fundamental(n),
            Representation.adjoint(n),
        ):
            got = rho.coefficient_map()
            assert got.shape == (m, rho.dim**2 - 1) and not got.flags.writeable
            want = coefficients(oracle_image(rho, np.array(su_basis(n))))
            assert np.abs(got - want).max(initial=0.0) <= 1e-15
        assert np.array_equal(Representation.fundamental(n).coefficient_map(), np.eye(m))
        assert Representation(n, ()).coefficient_map().shape == (m, 0)

    def test_su2_adjoint_entries_are_exact(self):
        # f_abc = 2 eps_abc, so each image of T_a is a rotation generator of weight exactly 2
        m = Representation.adjoint(2).coefficient_map()
        assert set(np.unique(m)) == {-2.0, 0.0, 2.0}
        assert np.array_equal(np.count_nonzero(m, axis=1), [1, 1, 1])

    def test_other_partitions_raise(self):
        with pytest.raises(CapabilityError):
            Representation(2, (3,)).coefficient_map()

    @pytest.mark.parametrize("n", [2, 3])
    def test_map_preserves_brackets(self, n):
        rng = np.random.default_rng(50 + n)
        x, y = rng.standard_normal((2, 64, n * n - 1))
        for rho in (Representation.fundamental(n), Representation.adjoint(n)):
            m = rho.coefficient_map()
            want = trailing_bracket(x, y, n) @ m
            got = trailing_bracket(x @ m, y @ m, rho.dim)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            # the push of coefficient-leading fields is the trailing product x @ m
            pushed = trailing(caloron._push(leading(x.reshape(4, 16, -1)), m)).reshape(64, -1)
            assert np.abs(pushed - x @ m).max() <= 1e-15 * np.abs(x @ m).max()

    def test_density_matches_the_matrix_route(self):
        conn = connection_preset("su2-family", theta_points=12, base_points=16)
        rho = Representation.adjoint(2)
        mixed, base = curvature_matrices(conn)

        def through_images(comps):
            return {k: leading(coefficients(adjoint_image(v))) for k, v in comps.items()}

        # _density returns the circle sum; the pipeline divides by the point count
        want = _density(through_images(mixed), through_images(base), 0)
        want = (1.0 / conn.theta_points) * want
        (got,) = pontryagin_densities(conn, [rho])
        assert (got - want).max_norm() <= 1e-13 * want.max_norm()

    def test_pipelines_stay_on_coefficients(self, monkeypatch):
        conn = connection_preset("su2-family", theta_points=8, base_points=8)
        rho = Representation.adjoint(2)
        rho.coefficient_map()  # built once, then cached

        def fail(*args, **kwargs):
            raise AssertionError("left the coefficient frame")

        # families return coefficients, so caloron has no converter at all
        assert not hasattr(caloron, "su_coefficients")
        assert not hasattr(caloron, "su_matrices")
        monkeypatch.setattr(caloron, "LatticeConnection", fail)
        pontryagin_densities(conn, [rho])
        CurvaturePass(conn, rho).scaling_check()

    def test_sampling_converts_each_field_once(self):
        # one evaluation per field: the Higgs field, then each base axis
        good = connection_preset("abelian", theta_points=8, base_points=8).family
        calls = []

        def phi(th, xs):
            calls.append("phi")
            return good.phi(th, xs)

        def base(th, xs, axis):
            calls.append(axis)
            return good.base(th, xs, axis)

        family = AnalyticConnection(2, phi, base, "counted")
        conn = sample_connection(family, 8, 8)
        assert calls == ["phi", 0, 1, 2]
        assert conn.phi.shape == (3, 8, 8, 8, 8)
        assert conn.a.shape == (3,) + conn.phi.shape
        assert conn.phi.dtype == conn.a.dtype == float

    def test_representation_of_another_algebra_rejected(self):
        conn = connection_preset("su2-family", theta_points=8, base_points=8)
        with pytest.raises(ArgumentError, match="su\\(3\\)"):
            CurvaturePass(conn, Representation.adjoint(3))
        for rho in (Representation.adjoint(3), Representation.fundamental(3)):
            with pytest.raises(ArgumentError, match="su\\(3\\)"):
                pontryagin_densities(conn, [rho])


def one_form_pass(conn, form):
    """The circle mean of one form over its own curvature pass, on the connection's live closure."""
    return caloron._circle_means(conn, live_closure(conn), lambda run: [form(run)])[0]


def same_bits(got, want):
    return all(
        np.array_equal(got.comps[k], want.comps[k]) and got.comps[k].shape == want.comps[k].shape
        for k in want.comps
    ) and set(got.comps) == set(want.comps) and got.ghost_margin == want.ghost_margin


class TestOneCurvaturePass:
    """Forms read from one shared pass equal the forms of separate passes, bit for bit."""

    ADJ = Representation.adjoint(2)

    @staticmethod
    def family(name):
        if name == "winding":
            return ModuliFamily(modulation=0.2).family()
        return preset_family(name)

    @pytest.mark.parametrize("name", ["su2-family", "flat", "winding"])
    @pytest.mark.parametrize("ghost_margin", [0, 4])
    def test_densities_share_a_pass(self, name, ghost_margin):
        conn = sample_connection(self.family(name), 8, 6, ghost_margin)
        (m, _), g = _support_map(conn, self.ADJ, live_closure(conn)), ghost_margin
        fund, adj = pontryagin_densities(conn, (FUND, self.ADJ))
        assert same_bits(fund, one_form_pass(conn, lambda run: _density(run.mixed, run.base, g)))
        assert same_bits(adj, one_form_pass(conn, lambda run: _density(run.mixed, run.base, g, m)))
        assert fund.max_norm() > 0 or name == "flat"

    @pytest.mark.parametrize("name", ["su2-family", "flat", "winding"])
    def test_caloron_forms_share_a_pass(self, name):
        # the winding family is a covering-space sample, not periodic: its
        # forms mean nothing here, but their bits must still agree
        conn = sample_connection(self.family(name), 8, 6)
        (m, support), iota = _support_map(conn, self.ADJ, live_closure(conn)), 4.0
        forms = CurvaturePass(conn, self.ADJ)
        pushed = one_form_pass(conn, lambda run: _curving(run.pushed(m, _bracket_terms(3, support, support))))
        b = one_form_pass(conn, _curving)
        assert same_bits(forms.curving, b)
        assert same_bits(forms.density, pontryagin_densities(conn, [FUND])[0])
        assert same_bits(forms.pushed, pushed)
        worst = max(
            (pushed - iota * b).max_norm(),
            (pushed.exterior_derivative() - iota * b.exterior_derivative()).max_norm(),
        )
        scale = iota * max(b.max_norm(), b.exterior_derivative().max_norm())
        assert forms.scaling_check() == (worst, scale)
        plain = CurvaturePass(conn)
        assert plain.pushed is None and same_bits(plain.density, forms.density)

    def test_identity_check_reads_the_pass(self):
        conn = connection_preset("su2-family", theta_points=8, base_points=8)
        assert CurvaturePass(conn, self.ADJ).identity_check(2) == CurvaturePass(conn).identity_check(2)

    def test_scaling_needs_a_representation(self):
        conn = connection_preset("su2-family", theta_points=8, base_points=8)
        with pytest.raises(ArgumentError, match="representation"):
            CurvaturePass(conn).scaling_check()

    def test_a_pass_needs_periodic_sampling(self):
        conn = sample_connection(preset_family("su2-family"), 8, 6, 2)
        with pytest.raises(ArgumentError, match="periodic"):
            CurvaturePass(conn)


def full_pass(conn, rho):
    """(curving, density, pushed, rho's density) on all n^2 - 1 coefficients, rho not the fundamental.

    The oracle of the pass on the live closure and of the pushes onto the
    support: every coefficient of the connection differentiated, bracketed
    and pushed through rho's whole map with su(dim)'s whole term table, as
    the pipelines did before they were restricted.
    """
    every, m, g = every_coefficient(conn.n), rho.coefficient_map(), conn.ghost_margin
    forms = [
        _curving,
        lambda run: _density(run.mixed, run.base, g),
        lambda run: _curving(run.pushed(m, full_terms(rho.dim))),
        lambda run: _density(run.mixed, run.base, g, m),
    ]
    return caloron._circle_means(conn, every, lambda run: [form(run) for form in forms])


def noncommuting_slots(dim):
    """su_basis(dim) slots of the real antisymmetric units E_ij - E_ji whose su(n) frame pair fails to commute.

    ad(X) in the real frame of su(n) is a real antisymmetric matrix, and its
    (i, j) entry is <e_i, [X, e_j]>, so some X reaches it exactly when e_i and
    e_j do not commute.  Slot 2k holds the k-th pair i < j.
    """
    n = math.isqrt(dim + 1)
    basis = su_basis(n)
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    return tuple(
        2 * k
        for k, (i, j) in enumerate(pairs)
        if np.abs(basis[i] @ basis[j] - basis[j] @ basis[i]).max() > 1e-12
    )


class TestSupport:
    """Pushes onto a coefficient map's support equal the full route bit for bit."""

    ADJ = Representation.adjoint(2)

    def test_supports_of_the_adjoints(self):
        assert _support(self.ADJ.coefficient_map()) == (0, 2, 4) == noncommuting_slots(3)
        want = (0, 2, 4, 6, 8, 10, 14, 16, 18, 20, 22, 26, 28, 30, 32, 34, 36, 38, 40, 42, 44, 46, 48, 50, 52)
        assert _support(Representation.adjoint(3).coefficient_map()) == want == noncommuting_slots(8)
        # the fundamental's identity reaches every coefficient, the trivial none
        assert _support(Representation.fundamental(3).coefficient_map()) == tuple(range(8))
        assert _support(Representation(2, ()).coefficient_map()) == ()

    @pytest.mark.parametrize("n", [2, 3])
    def test_bracket_on_the_support_is_the_full_bracket_there(self, n):
        # fields that are +-0 off the support, as pushed fields are
        rho = Representation.adjoint(n)
        m = rho.coefficient_map()
        support = _support(m)
        x, y = (leading(c @ m) for c in np.random.default_rng(40 + n).standard_normal((2, 64, n * n - 1)))
        full = _bracket(x, y, full_terms(rho.dim))
        got = _bracket(x[list(support)], y[list(support)], _bracket_terms(rho.dim, support, support))
        assert np.array_equal(got, full[list(support)])
        # outputs off the support need not vanish in general (the map's
        # entries carry roundoff), and the curving pairs them only with
        # fields that are +-0 there; for su(2) the support spans so(3), a
        # subalgebra of su(3), so no term leaves it
        if n == 2:
            assert not np.delete(full, support, axis=0).any()

    @pytest.mark.parametrize("case", ["su2-family", "winding"])
    def test_pushes_equal_the_full_route(self, case):
        # su2-family at 8 x 8^3, periodic; the winding family ghosted by 2
        if case == "winding":
            conn = ModuliFamily().connection(8, 12)
        else:
            conn = connection_preset(case, theta_points=8, base_points=8)
        want_pushed, want_density = full_pass(conn, self.ADJ)[2:]
        (density,) = pontryagin_densities(conn, [self.ADJ])
        assert same_bits(density, want_density) and density.max_norm() > 0
        if conn.ghost_margin:
            m, support = _support_map(conn, self.ADJ, live_closure(conn))
            pushed = one_form_pass(conn, lambda run: _curving(run.pushed(m, _bracket_terms(3, support, support))))
        else:
            pushed = CurvaturePass(conn, self.ADJ).pushed
        assert same_bits(pushed, want_pushed) and pushed.max_norm() > 0
        # the full route's pushed fields are exact zeros off the support
        run = next(_curvature_slices(conn, every_coefficient(2)))
        full = run.pushed(self.ADJ.coefficient_map(), full_terms(3))
        for field in (full.phi, *full.a, *full.d_theta_a, *full.base.values()):
            assert not field[[1, 3, 5, 6, 7]].any()

    def test_support_map_keeps_every_row(self):
        # a NaN in any su(2) coefficient reaches the support
        conn = connection_preset("su2-family", theta_points=8, base_points=8)
        m, support = _support_map(conn, self.ADJ, live_closure(conn))
        assert m.shape == (3, 3) and np.array_equal(m, self.ADJ.coefficient_map()[:, [0, 2, 4]])
        for c in range(3):
            x = np.zeros((3, 2))
            x[c, 0] = math.nan
            assert np.isnan(caloron._push(x, m)[:, 0]).all()


def slot_family(n, slots, amplitude=0.7):
    """An su(n) family generic in the su_basis slots given, every field zero in the others."""

    def field(th, xs, f):
        out = [0.0] * (n * n - 1)
        for k in slots:
            wave = np.sin(TWO_PI * (th + xs[(k + f) % 3]) + k + f)
            out[k] = amplitude * wave * np.cos(TWO_PI * xs[(k + 2 * f) % 3])
        return out

    return AnalyticConnection(
        n, lambda th, xs: field(th, xs, 0), lambda th, xs, axis: field(th, xs, 1 + axis), f"slots {slots}"
    )


class TestClosure:
    """A pass on the closure of the live coefficients equals the full-coefficient route bit for bit."""

    # (family, representation, live set, closure): the winding family along
    # T1 (su_basis(2) slot 1); an su(2) family in T2 and T1 alone, whose
    # bracket reaches T3; an su(3) family in so(3), slots (0, 2, 4), whose
    # hull 0..4 holds the dead slots 1 and 3; the zero connection
    CASES = {
        "winding": (ModuliFamily().family(), Representation.adjoint(2), (1,), (1,)),
        "t2-t1": (slot_family(2, (0, 1)), Representation.adjoint(2), (0, 1), (0, 1, 2)),
        "so3-in-su3": (slot_family(3, (0, 2, 4)), Representation.adjoint(3), (0, 2, 4), (0, 2, 4)),
        "zero": (zero_family(), Representation.adjoint(2), (), ()),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_closure_pass_equals_the_full_route(self, case):
        family, rho, live, closure = self.CASES[case]
        conn = sample_connection(family, 8, 6)
        assert caloron._live(conn) == live and live_closure(conn) == closure
        curving, density, pushed, rho_density = full_pass(conn, rho)
        forms = CurvaturePass(conn, rho)
        fund_density, got_rho_density = pontryagin_densities(conn, (Representation.fundamental(conn.n), rho))
        assert same_bits(forms.curving, curving) and same_bits(forms.pushed, pushed)
        assert same_bits(forms.density, density) and same_bits(fund_density, density)
        assert same_bits(got_rho_density, rho_density)
        nonzero = [form.max_norm() > 0 for form in (curving, density, pushed, rho_density)]
        assert nonzero == [case != "zero"] * 4

    def test_bracket_reaches_past_the_live_set(self):
        # F_ab's T3 part comes from [A_a, A_b] alone: a pass on the live set
        # (T2, T1) would drop it, and the density pairs it with G's T3 part
        conn = sample_connection(self.CASES["t2-t1"][0], 8, 6)
        run = next(_curvature_slices(conn, every_coefficient(2)))
        assert not conn.phi[2].any() and not conn.a[:, 2].any()
        assert all(run.base[key][2].any() and run.mixed[key[0]][2].any() for key in run.base)

    def test_winding_densities_ghosted_equal_the_full_route(self):
        conn = ModuliFamily().connection(8, 12)
        _, density, _, adjoint_density = full_pass(conn, Representation.adjoint(2))
        fund, adj = pontryagin_densities(conn, (FUND, Representation.adjoint(2)))
        assert same_bits(fund, density) and same_bits(adj, adjoint_density)
        assert fund.max_norm() > 0 and adj.max_norm() > 0

    def test_runs_are_views_of_the_hull(self):
        conn = sample_connection(self.CASES["so3-in-su3"][0], 8, 6)
        for run in _curvature_slices(conn, (0, 2, 4)):
            assert run.phi.shape[0] == 5 and run.a.shape[1] == 5
            assert np.shares_memory(run.phi, conn.phi) and np.shares_memory(run.a, conn.a)
            assert not run.phi[[1, 3]].any() and not run.a[:, [1, 3]].any()

    def test_closures_of_su2_and_su3(self):
        # any two su(2) coefficients generate the third; so(3) and the Cartan
        # subalgebra of su(3) are closed, and T1 of su(3) with its diagonal
        # partner reaches the slots of that root's su(2)
        assert caloron._closure(2, (0, 1)) == caloron._closure(2, (1, 2)) == (0, 1, 2)
        assert caloron._closure(2, (2,)) == (2,) and caloron._closure(2, ()) == ()
        assert caloron._closure(3, (0, 2, 4)) == (0, 2, 4) and caloron._closure(3, (6, 7)) == (6, 7)
        assert caloron._closure(3, (0, 1)) == (0, 1, 6)
        # slot 2 with a diagonal slot reaches slot 3 in one step and the other
        # diagonal slot only in the next, so the closure repeats until nothing joins
        assert caloron._closure(3, (2, 6)) == (2, 3, 6, 7)

    def test_adjoint_push_reaches_the_closure_rows_support_alone(self):
        # the su(2) adjoint's map reaches su(3) slots (0, 2, 4); T1 (slot 1)
        # alone reaches slot 2, so the winding family pushes one coefficient
        conn = ModuliFamily().connection(8, 12)
        m, support = _support_map(conn, Representation.adjoint(2), (1,))
        assert support == (2,) and np.array_equal(m, Representation.adjoint(2).coefficient_map()[1:2, [2]])

    def test_live_scan_sees_a_nan_in_a_dead_coefficient(self):
        conn = ModuliFamily().connection(8, 12)
        conn.a[2, 0, 7, 3, 3, 3] = math.nan
        assert caloron._live(conn) == (0, 1) and live_closure(conn) == (0, 1, 2)
        assert all(math.isnan(form.integrate()) for form in pontryagin_densities(conn, (FUND, Representation.adjoint(2))))

    def test_live_scan_makes_no_field_sized_temporary(self):
        # the winding family's two dead coefficients are read in full, one
        # circle point of one grid at a time, in place
        conn = ModuliFamily().connection(8, 12)
        point = np.prod(conn.phi.shape[2:]) * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            assert caloron._live(conn) == (1,)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= point


class TestLayout:
    """The fields are coefficient-leading: each coefficient one contiguous grid array."""

    def test_each_coefficient_is_a_contiguous_grid(self):
        conn = connection_preset("su2-family", theta_points=8, base_points=6)
        assert conn.phi.shape == (3, 8, 6, 6, 6) and conn.a.shape == (3, 3, 8, 6, 6, 6)
        # a connection built from Fortran-ordered arrays stores C-ordered copies
        fortran = LatticeConnection(2, 8, 6, np.asfortranarray(conn.phi), np.asfortranarray(conn.a))
        assert np.array_equal(fortran.phi, conn.phi) and np.array_equal(fortran.a, conn.a)
        for each in (conn, fortran):
            for c in range(3):
                assert each.phi[c].flags.c_contiguous
                assert all(each.a[x, c].flags.c_contiguous for x in range(3))

    @pytest.mark.parametrize("theta_points, base_points, widths", [(12, 16, [1] * 12), (40, 5, [32, 8])])
    def test_runs_are_views_of_the_connection(self, theta_points, base_points, widths):
        # 16^3 cells give one circle point per run; 5^3 cells give runs of 32
        conn = connection_preset("su2-family", theta_points, base_points)
        runs = list(_curvature_slices(conn, live_closure(conn)))
        assert [run.phi.shape[1] for run in runs] == widths
        start = 0
        for run, width in zip(runs, widths):
            s = slice(start, start + width)
            start += width
            assert np.shares_memory(run.phi, conn.phi) and np.shares_memory(run.a, conn.a)
            assert np.array_equal(run.phi, conn.phi[:, s]) and np.array_equal(run.a, conn.a[:, :, s])
            for field in (run.phi, *run.a, *run.d_theta_a):
                assert all(c.flags.c_contiguous for c in field)

    def test_sampling_places_every_field_shape(self):
        # a family returns its coefficients first: one array (m,) of
        # constants, or per coefficient a constant, a circle profile
        # (P, 1, 1, 1) or the full grid; each lands in its coefficient's grid
        coeffs = np.array([1.0, 2.0, 3.0])

        def phi(th, xs):
            return coeffs

        def base(th, xs, axis):
            if axis == 0:
                return [th * c for c in coeffs]
            full = th + xs[0] + 10.0 * xs[1] + 100.0 * xs[2]
            return [full * (c + axis) for c in coeffs]

        conn = sample_connection(AnalyticConnection(2, phi, base, "shapes"), 8, 6)
        th, x = np.arange(8) / 8, np.arange(6) / 6
        profile = th[:, None, None, None]
        full = profile + x[:, None, None] + 10.0 * x[:, None] + 100.0 * x
        grid = (8, 6, 6, 6)
        for c in range(3):
            assert np.array_equal(conn.phi[c], np.full(grid, coeffs[c]))
            assert np.array_equal(conn.a[0, c], np.broadcast_to(profile * coeffs[c], grid))
            for axis in (1, 2):
                assert np.array_equal(conn.a[axis, c], full * (coeffs[c] + axis))

    def test_one_field_may_mix_shapes(self):
        # each coefficient broadcasts on its own: a constant, a profile, a grid
        def phi(th, xs):
            return [2.0, th, th + xs[0] + xs[1] + xs[2]]

        def base(th, xs, axis):
            return [0.0, 0.0, 0.0]

        conn = sample_connection(AnalyticConnection(2, phi, base, "mixed"), 8, 6)
        th, x = np.arange(8) / 8, np.arange(6) / 6
        profile = th[:, None, None, None]
        grid = (8, 6, 6, 6)
        assert np.array_equal(conn.phi[0], np.full(grid, 2.0))
        assert np.array_equal(conn.phi[1], np.broadcast_to(profile, grid))
        assert np.array_equal(conn.phi[2], profile + x[:, None, None] + x[:, None] + x)
        assert not conn.a.any()

    @pytest.mark.parametrize("count", [2, 4, 1])
    def test_wrong_coefficient_count_rejected(self, count):
        # an su(2) field is 3 coefficients; a scalar is one, and every other
        # count is refused before anything is written, naming the field
        def phi(th, xs):
            return [th] * 3

        def base(th, xs, axis):
            if axis != 1:
                return [th] * 3
            return 0.5 if count == 1 else [th] * count

        family = AnalyticConnection(2, phi, base, "miscounted")
        with pytest.raises(
            ConsistencyError, match=f"'miscounted': base\\[1\\] is not 3 finite real .* got {count} of"
        ):
            sample_connection(family, 8, 6)

    def test_unbroadcastable_coefficient_rejected(self):
        # three coefficients of shape (5,) fit no axis of the 8 x 8^3 grid;
        # numpy's bare ValueError named neither the family nor the field
        def phi(th, xs):
            return [np.ones(5)] * 3

        def base(th, xs, axis):
            return [th] * 3

        family = AnalyticConnection(2, phi, base, "misshapen")
        with pytest.raises(
            ConsistencyError,
            match=r"'misshapen': phi coefficient 0 of shape \(5,\) does not broadcast to the grid \(8, 8, 8, 8\)",
        ):
            sample_connection(family, 8, 8)
