"""Surface-group representations into SU(n) and the curvature pairing.

A representation is stored by its 2g generator matrices, one array whose
leading axes may index a stack of points, together with the prescribed
central defect z of the surface relation; the relation residual is reported
rather than enforced, so deliberately perturbed points can be measured.
Irreducibility is decided through the dimension of the joint commutant
(null space of a stacked Sylvester system), with an explicit indeterminate
band around the rank threshold.  Conjugation, the relation and
irreducibility each act on a whole stack in one batched pass.

Two parameter families feed the sampled-geometry pipelines, and neither
reads a representation point: circle-holonomy paths drive spectral flow,
and a fixed su(2) winding family over a 3-torus of parameters drives the
curvature pairing.  The winding family is sampled from covering-space
formulas (the potentials jump by a constant across a period; the declared
integer windings make the jump a legal gauge transformation), so the base
grids carry ghost margins and all reported quantities are built from the
gauge-invariant density, which is genuinely periodic.
"""

from dataclasses import dataclass, replace
import functools
import math
import numbers

import numpy as np

from .caloron import AnalyticConnection, _torus_coords, sample_connection
from .errors import ArgumentError, ValidationError
from .presets import T1, T2, diagonal_unitaries
from .spectral import _UNITARY_TOLERANCE, TWO_PI, _unitary


@dataclass(frozen=True, eq=False)
class SurfaceGroupRep:
    """Generators (A_1, B_1, ..., A_g, B_g) with prescribed central defect z.

    The generators are one complex (..., 2g, n, n) array, checked once as
    special-unitary; leading axes index a stack of points sharing genus, n
    and z.  The surface relation itself is measured by relation_check, not
    enforced, so perturbed representation points are representable.  An
    array field has no generated equality, so points compare by identity.
    """

    genus: int
    n: int
    z: complex
    generators: np.ndarray

    def __post_init__(self):
        if self.genus < 2:
            raise ValidationError(f"genus must be >= 2, got {self.genus}")
        if self.n < 2:
            raise ValidationError(f"need SU(n) with n >= 2, got {self.n}")
        gens = _generator_array(self.generators, self.genus, self.n)
        gens = _unitary(gens, "generator", True, gens.ndim - 2, name=_generator_name)
        object.__setattr__(self, "generators", gens)
        if not abs(abs(self.z) - 1.0) <= _UNITARY_TOLERANCE:
            raise ValidationError("central defect z must be a unit scalar")


def _generator_array(generators, genus, n):
    """generators as one complex (..., 2 genus, n, n) array, its shape checked.

    A ragged sequence of matrices is refused naming its first matrix that is
    not n x n; the generators of an array share one shape, so there it is
    generator 1.
    """
    want = f"must be a square matrix, {n} x {n}, got shape"
    try:
        gens = np.asarray(generators, dtype=complex)
    except (TypeError, ValueError) as exc:
        shapes = [np.shape(g) for g in generators]
        bad = next((idx for idx, shape in enumerate(shapes) if shape != (n, n)), None)
        if bad is None:
            raise ValidationError(f"generators are not a numeric array: {exc}") from None
        raise ValidationError(f"generator {bad + 1} {want} {shapes[bad]}") from None
    if gens.ndim < 3 or gens.shape[-3] != 2 * genus:
        raise ValidationError(f"need {2 * genus} generators, got an array of shape {gens.shape}")
    if gens.shape[-2:] != (n, n):
        raise ValidationError(f"generator 1 {want} {gens.shape[-2:]}")
    return gens


def _generator_name(at):
    """The name of the failing matrix at index (p..., j - 1): generator j of point [p]..."""
    point = "".join(f"[{p}]" for p in at[:-1])
    return f"generator {at[-1] + 1}" + (f" of point {point}" if point else "")


@dataclass(frozen=True)
class LoopWord:
    """Word in the surface-group generators: (index 1..2g, exponent +-1)."""

    letters: tuple

    def __post_init__(self):
        if not self.letters:
            raise ArgumentError("loop word must be nonempty")
        for index, exponent in self.letters:
            if not _is_whole(index):
                raise ArgumentError(f"generator indices must be integers, got {index!r}")
            if exponent not in (-1, 1):
                raise ArgumentError(f"exponents must be +1 or -1, got {exponent!r}")
        object.__setattr__(self, "letters", tuple((int(i), int(e)) for i, e in self.letters))


def _is_whole(value):
    """Whether value is an integer-valued real number: not NaN, inf, a fraction or a string."""
    return isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    )


def relation_check(rep):
    """Max-norm residual of prod_i [A_i, B_i] = z I (group commutators).

    A float for one point, an array of one residual per point for a stack;
    every generator is inverted in one batched call.
    """
    gens, inverses = rep.generators, np.linalg.inv(rep.generators)
    acc = np.eye(rep.n, dtype=complex)
    for i in range(0, 2 * rep.genus, 2):
        acc = acc @ gens[..., i, :, :] @ gens[..., i + 1, :, :]
        acc = acc @ inverses[..., i, :, :] @ inverses[..., i + 1, :, :]
    residual = np.abs(acc - rep.z * np.eye(rep.n)).max(axis=(-2, -1))
    return float(residual) if residual.ndim == 0 else residual


def _sylvester_stack(gens):
    """The maps X -> X g - g X of m generators, stacked: an (..., m n^2, n^2) array.

    Block b is kron(g_b.T, 1) - kron(1, g_b), built for every generator of
    every point at once; entry [..., b, i, k, j, l] is
    g_b[j, i] 1[k, l] - 1[i, j] g_b[k, l].
    """
    n = gens.shape[-1]
    eye = np.eye(n)
    return (
        gens.swapaxes(-1, -2)[..., :, None, :, None] * eye[:, None, :]
        - eye[:, None, :, None] * gens[..., None, :, None, :]
    ).reshape(gens.shape[:-3] + (-1, n * n))


# irreducibility_check's rank threshold on the Sylvester singular values,
# and the indeterminate band around it
_NULL_THRESHOLD = 1e-8
_INDETERMINATE_BAND = (1e-9, 1e-7)


def irreducibility_check(rep):
    """Joint-commutant dimension via the null space of stacked Sylvester maps.

    Returns (verdict, commutant_dimension): verdict True (irreducible,
    commutant is scalars only), False (reducible), or None when some
    singular value falls inside the indeterminate band around the
    threshold.  A stack of points takes one batched SVD and returns an
    object array of verdicts and an int array of dimensions.
    """
    svals = np.linalg.svd(_sylvester_stack(rep.generators), compute_uv=False)
    dims = np.sum(svals < _NULL_THRESHOLD, axis=-1)
    low, high = _INDETERMINATE_BAND
    unsure = np.any((svals >= low) & (svals <= high), axis=-1)
    verdicts = np.where(unsure, None, dims == 1)
    if verdicts.ndim == 0:
        return verdicts.item(), int(dims)
    return verdicts, dims


def conjugate(rep, h):
    """The gauge action: every generator g becomes h g h^-1.

    h is one (n, n) element or an array stacking them on any leading axes,
    checked once; those axes broadcast against the rep's, so (k, 1, n, n)
    elements move p points to a (k, p, 2g, n, n) stack, revalidated once.
    """
    stack = max(getattr(h, "ndim", 2) - 2, 0)  # a sequence is one element
    h = _unitary(h, "conjugating element", True, stack, rep.n)
    h = h[..., None, :, :]  # each element against all generators of its point
    return replace(rep, generators=h @ rep.generators @ h.conj().swapaxes(-1, -2))


def holonomy(rep, word):
    """Ordered product of generators along a loop word."""
    acc = np.eye(rep.n, dtype=complex)
    for index, exponent in word.letters:
        if not 1 <= index <= 2 * rep.genus:
            raise ArgumentError(
                f"generator index {index} outside 1..{2 * rep.genus}"
            )
        g = rep.generators[..., index - 1, :, :]
        acc = acc @ (g if exponent == 1 else np.linalg.inv(g))
    return acc


def standard_genus2_su2():
    """Genus-2 SU(2) point with z = -1: an anticommuting pair plus identities.

    A_1 = i sigma_1 and B_1 = i sigma_2 give the group commutator
    A B A^-1 B^-1 = -I; the second handle is trivial.
    """
    eye = np.eye(2, dtype=complex)
    return SurfaceGroupRep(2, 2, -1.0 + 0j, np.stack((T1, T2, eye, eye)))


def generic_genus2_su2(rng):
    """Seeded genus-2 SU(2) point with z = -1 and a generic first handle.

    A_1 and B_1 are Haar-random, and c = [A_1, B_1].  The second handle
    solves [A_2, B_2] = -c^-1 in closed form: with -c^-1 = V diag(e^{ia},
    e^{-ia}) V^dag, A_2 = V diag(e^{ia/2}, e^{-ia/2}) V^dag squares to it
    and B_2 = V ((0, 1), (-1, 0)) V^dag conjugates A_2 to its inverse, so
    [A_2, B_2] = A_2^2.  V diagonalizes the Hermitian (u - u^dag) / 2i of
    u = -c^-1, which shares u's eigenvectors, so V is unitary to roundoff.
    """
    a1, b1 = random_special_unitary(2, rng, 2)
    target = -(b1 @ a1 @ b1.conj().T @ a1.conj().T)  # -[A_1, B_1]^-1
    _, v = np.linalg.eigh((target - target.conj().T) / 2j)
    half = np.angle((v.conj().T @ target @ v)[0, 0]) / 2
    a2 = (v * np.exp([1j * half, -1j * half])) @ v.conj().T
    b2 = v @ np.array([[0.0, 1.0], [-1.0, 0.0]]) @ v.conj().T
    return SurfaceGroupRep(2, 2, -1.0 + 0j, np.stack((a1, b1, a2, b2)))


def random_special_unitary(n, rng, count=None):
    """A Haar-random SU(n) element, or a (count, n, n) stack of them.

    One standard_normal draw of shape (count, 2, n, n) consumes the stream
    as count single draws do, each its real n x n part before its imaginary
    part; then one batched QR, with the phases of R's diagonal moved into Q,
    and one batched det scale each element onto SU(n).
    """
    x = rng.standard_normal((() if count is None else (count,)) + (2, n, n))
    z = (x[..., 0, :, :] + 1j * x[..., 1, :, :]) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[..., None, :]
    det = np.linalg.det(q)
    return q * (det ** (-1.0 / n))[..., None, None]


def holonomy_path(name, steps):
    """Closed circle-holonomy family feeding spectral flow: one (steps + 1, n, n) array.

    "u1-winding": the 1 x 1 loop exp(2 pi i t), one full winding.
    "su2-balanced": diag(exp(2 pi i t), exp(-2 pi i t)), net flow zero.
    Row k is at t = k / steps, and the last row repeats the first exactly.
    """
    windings = {"u1-winding": (1,), "su2-balanced": (1, -1)}.get(name)  # turns per color
    if windings is None:
        raise ArgumentError(f"unknown holonomy path {name!r}")
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 2:
        raise ArgumentError(f"a holonomy path needs an integer steps >= 2, got {steps!r}")
    ts = np.arange(steps + 1) % steps / steps
    return diagonal_unitaries(ts[:, None] * np.array(windings))


@dataclass(frozen=True)
class ModuliFamily:
    """The fixed su(2) winding family over a 3-torus of parameters; it reads no point.

    A Higgs field winding w1 times across the first parameter and a gauge
    component winding w2 times across the third, plus a smooth modulation;
    every field lies along T1, so the pairing converges to the model value
    -2 w1 w2.  family() returns each field coefficient-leading in the
    su_basis(2) order, which lists T2 before T1: [0.0, profile, 0.0], its
    scalars broadcast by the sampler.
    """

    w1: int = 1
    w2: int = 1
    modulation: float = 0.2

    def __post_init__(self):
        for name, value in (("w1", self.w1), ("w2", self.w2)):
            if not _is_whole(value):
                raise ValidationError(f"windings must be integers, got {name} = {value!r}")

    def family(self):
        eps = self.modulation
        w1, w2 = self.w1, self.w2

        def phi(th, xs):
            lin = TWO_PI * w1 * xs[0]
            wave = eps * np.sin(TWO_PI * th) * np.sin(TWO_PI * xs[1])
            return [0.0, lin + wave, 0.0]

        def base(th, xs, axis):
            if axis == 0:
                return [0.0, eps * np.cos(TWO_PI * th) * np.cos(TWO_PI * xs[2]), 0.0]
            if axis == 1:
                lin = TWO_PI * w2 * xs[2]
                wave = eps * np.sin(TWO_PI * th) * np.sin(TWO_PI * xs[0])
                return [0.0, lin + wave, 0.0]
            return [0.0, 0.0, 0.0]

        return AnalyticConnection(2, phi, base, "moduli-winding")

    def connection(self, theta_points, base_points):
        """The family sampled with a ghost margin of _GHOST_MARGIN cells, its seams checked."""
        fam = self.family()
        conn = sample_connection(fam, theta_points, base_points, _GHOST_MARGIN)
        _seam_check(conn, fam)
        return conn


# The sampled potentials are not periodic, so a core cell's 5-point base
# stencil must stay inside the ghost margin, and a density reads nothing
# further out: the margin is the stencil's half-width.
_GHOST_MARGIN = 2


# _seam_check's bound on a jump's spread, relative to the field values
_SEAM_TOLERANCE = 1e-10


def _seam_check(conn, fam):
    """Closedness: crossing one base period must shift potentials by a constant.

    For each base axis, the jump field(x + 1) - field(x) of each coefficient
    must itself be constant over the probe grid (the covering-space formula
    descends to the torus up to a rigid gauge shift).  A jump that varies by more than
    _SEAM_TOLERANCE times the largest field value it is the difference of (its
    roundoff scale), or by NaN, means the sampled family is not a closed
    connection family.
    """
    probe = np.array([0.05, 0.35, 0.65])
    thetas, coords = _torus_coords(np.arange(conn.theta_points) / conn.theta_points, probe)
    grid = (conn.theta_points,) + probe.shape * 3
    fields = [("higgs", fam.phi)] + [
        (f"gauge[{ax}]", functools.partial(fam.base, axis=ax)) for ax in range(3)
    ]
    # each field at the unshifted probe, evaluated once for the three axes
    unshifted = [list(field(thetas, coords)) for _, field in fields]
    for axis in range(3):
        shifted = list(coords)
        shifted[axis] = shifted[axis] + 1.0
        for (label, field), heres in zip(fields, unshifted):
            spreads, scales = [], []
            for there, here in zip(field(thetas, shifted), heres):
                jump = np.broadcast_to(np.subtract(there, here), grid)
                spreads.append(np.abs(jump - jump.mean()).max())
                scales += [np.abs(there).max(), np.abs(here).max()]
            spread, scale = float(np.max(spreads)), float(np.max(scales))
            if not spread <= _SEAM_TOLERANCE * scale:
                raise ValidationError(
                    f"family {fam.label}: {label} jump across axis {axis} "
                    f"varies by {spread:.3e}; not a closed family"
                )
