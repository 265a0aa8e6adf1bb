"""Surface-group representations into SU(n) and the curvature pairing.

A representation is stored by its 2g generator matrices together with the
prescribed central defect z of the surface relation; the relation residual
is reported rather than enforced, so deliberately perturbed points can be
measured.  Irreducibility is decided through the dimension of the joint
commutant (null space of a stacked Sylvester system), with an explicit
indeterminate band around the rank threshold.

Parameter families built from a representation feed the sampled-geometry
pipelines: circle-holonomy paths drive spectral flow, and winding families
over a 3-torus of parameters drive the curvature pairing.  Winding
families are sampled from covering-space formulas (the potentials jump by
a constant across a period; the declared integer windings make the jump a
legal gauge transformation), so the base grids carry ghost margins and all
reported quantities are built from the gauge-invariant density, which is
genuinely periodic.
"""

from dataclasses import dataclass, replace
import math

import numpy as np

from .caloron import AnalyticConnection, check_grid, sample_connection
from .errors import ArgumentError, ResolutionError, ValidationError
from .liealg import su_coefficients
from .presets import T1, T2, diagonal_unitaries
from .spectral import TWO_PI, _unitary


@dataclass(frozen=True)
class SurfaceGroupRep:
    """Generators (A_1, B_1, ..., A_g, B_g) with prescribed central defect z.

    Generators are validated as special-unitary; the surface relation
    itself is measured by relation_check, not enforced, so perturbed
    representation points are representable.  z_exponent records the k of
    z = exp(2 pi i k / n) when known (whether z generates the center is
    interpretive metadata, not a constraint).
    """

    genus: int
    n: int
    z: complex
    generators: tuple
    tolerance: float = 1e-10
    z_exponent: int = None

    def __post_init__(self):
        if self.genus < 2:
            raise ValidationError(f"genus must be >= 2, got {self.genus}")
        if self.n < 2:
            raise ValidationError(f"need SU(n) with n >= 2, got {self.n}")
        if len(self.generators) != 2 * self.genus:
            raise ValidationError(f"need {2 * self.genus} generators, got {len(self.generators)}")
        det_tolerance = max(self.tolerance, 1e-9)
        gens = tuple(
            _unitary(g, self.tolerance, f"generator {idx + 1}", det_tolerance, n=self.n)
            for idx, g in enumerate(self.generators)
        )
        object.__setattr__(self, "generators", gens)
        if not abs(abs(self.z) - 1.0) <= self.tolerance:
            raise ValidationError("central defect z must be a unit scalar")

    def generates_center(self):
        if self.z_exponent is None:
            return None
        return math.gcd(self.z_exponent % self.n, self.n) == 1


@dataclass(frozen=True)
class LoopWord:
    """Word in the surface-group generators: (index 1..2g, exponent +-1)."""

    letters: tuple

    def __post_init__(self):
        letters = tuple((int(i), int(e)) for i, e in self.letters)
        if not letters:
            raise ArgumentError("loop word must be nonempty")
        if any(e not in (-1, 1) for _, e in letters):
            raise ArgumentError("exponents must be +1 or -1")
        object.__setattr__(self, "letters", letters)


def relation_check(rep):
    """Max-norm residual of prod_i [A_i, B_i] = z I (group commutators)."""
    n = rep.n
    acc = np.eye(n, dtype=complex)
    for i in range(rep.genus):
        a = rep.generators[2 * i]
        b = rep.generators[2 * i + 1]
        acc = acc @ a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)
    return float(np.abs(acc - rep.z * np.eye(n)).max())


def _sylvester_stack(generators):
    """The maps X -> X g - g X of m generators, stacked: an (m n^2, n^2) matrix.

    Block b is kron(g_b.T, 1) - kron(1, g_b), built for every generator at
    once; entry [b, i, k, j, l] is g_b[j, i] 1[k, l] - 1[i, j] g_b[k, l].
    """
    gens = np.stack(generators)
    n = gens.shape[-1]
    eye = np.eye(n)
    return (
        gens.transpose(0, 2, 1)[:, :, None, :, None] * eye[:, None, :]
        - eye[:, None, :, None] * gens[:, None, :, None, :]
    ).reshape(-1, n * n)


def irreducibility_check(rep, null_threshold=1e-8, band=(1e-9, 1e-7)):
    """Joint-commutant dimension via the null space of stacked Sylvester maps.

    Returns (verdict, commutant_dimension): verdict True (irreducible,
    commutant is scalars only), False (reducible), or None when some
    singular value falls inside the indeterminate band around the
    threshold.
    """
    svals = np.linalg.svd(_sylvester_stack(rep.generators), compute_uv=False)
    dim = int(np.sum(svals < null_threshold))
    if np.any((svals >= band[0]) & (svals <= band[1])):
        return None, dim
    return dim == 1, dim


def conjugate(rep, h):
    """The gauge action: every generator g becomes h g h^-1."""
    h = _unitary(h, rep.tolerance, "conjugating element", max(rep.tolerance, 1e-9), n=rep.n)
    h_inv = h.conj().T
    return replace(rep, generators=tuple(h @ g @ h_inv for g in rep.generators))


def holonomy(rep, word):
    """Ordered product of generators along a loop word."""
    acc = np.eye(rep.n, dtype=complex)
    for index, exponent in word.letters:
        if not 1 <= index <= 2 * rep.genus:
            raise ArgumentError(
                f"generator index {index} outside 1..{2 * rep.genus}"
            )
        g = rep.generators[index - 1]
        acc = acc @ (g if exponent == 1 else np.linalg.inv(g))
    return acc


def standard_genus2_su2():
    """Genus-2 SU(2) point with z = -1: an anticommuting pair plus identities.

    A_1 = i sigma_1 and B_1 = i sigma_2 give the group commutator
    A B A^-1 B^-1 = -I; the second handle is trivial.
    """
    eye = np.eye(2, dtype=complex)
    return SurfaceGroupRep(
        2, 2, -1.0 + 0j, (T1, T2, eye, eye), z_exponent=1
    )


def random_special_unitary(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    det = np.linalg.det(q)
    return q * det ** (-1.0 / n)


def holonomy_path(name, steps=48):
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


def _loop_direction(rep, word):
    """Anti-Hermitian direction of the holonomy, normalized to length 2.

    Falls back to the diagonal block generator when the holonomy is
    central (no preferred direction).
    """
    u = holonomy(rep, word)
    phases, vecs = np.linalg.eig(u)
    angles = np.angle(phases)
    herm = (vecs * angles) @ np.linalg.inv(vecs)
    herm = 0.5 * (herm + herm.conj().T)
    herm = herm - np.trace(herm) / rep.n * np.eye(rep.n)
    norm_sq = float(np.trace(herm @ herm).real)
    if norm_sq < 1e-12:
        k = np.zeros((rep.n, rep.n), dtype=complex)
        k[0, 0], k[1, 1] = 1j, -1j
        return k
    return 1j * herm * math.sqrt(2.0 / norm_sq)


@dataclass(frozen=True)
class ModuliFamily:
    """The winding 3-parameter connection family attached to a representation point.

    A Higgs field winding w1 times across the first parameter and a gauge
    component winding w2 times across the third, all along the holonomy
    direction of the chosen loop, plus a smooth modulation; the pairing
    converges to the model value -2 w1 w2.
    """

    rep: SurfaceGroupRep
    w1: int = 1
    w2: int = 1
    modulation: float = 0.2

    def __post_init__(self):
        if int(self.w1) != self.w1 or int(self.w2) != self.w2:
            raise ValidationError("windings must be integers")

    def family(self, word):
        k = su_coefficients(_loop_direction(self.rep, word))[0]
        eps = self.modulation
        w1, w2 = self.w1, self.w2

        def along_k(coeff):
            return np.asarray(coeff)[..., None] * k

        def phi(th, xs):
            lin = TWO_PI * w1 * xs[0]
            wave = eps * np.sin(TWO_PI * th) * np.sin(TWO_PI * xs[1])
            return along_k(lin + wave)

        def base(th, xs, axis):
            if axis == 0:
                return along_k(eps * np.cos(TWO_PI * th) * np.cos(TWO_PI * xs[2]))
            if axis == 1:
                lin = TWO_PI * w2 * xs[2] + 0.0 * th
                wave = eps * np.sin(TWO_PI * th) * np.sin(TWO_PI * xs[0])
                return along_k(lin + wave)
            return along_k(0.0 * (th + xs[axis]))

        return AnalyticConnection(self.rep.n, phi, base, "moduli-winding")

    def connection(self, word, theta_points=8, base_points=12, ghost_margin=4):
        check_sampling(theta_points, base_points, ghost_margin, self.rep.n)
        fam = self.family(word)
        conn = sample_connection(fam, 3, theta_points, base_points, ghost_margin)
        _seam_check(conn, fam)
        return conn


def check_sampling(theta_points, base_points, ghost_margin, n):
    """Grid rules of a covering-space family sampling, checked before allocation.

    The sampled potentials are not periodic, so the 5-point base stencil of
    every core cell must stay inside the ghost margin: ghost_margin >= 2.
    The rest is caloron.check_grid on S1 x T3.
    """
    if ghost_margin < 2:
        raise ResolutionError(
            f"ghost margin {ghost_margin} is below the stencil half-width 2"
        )
    check_grid(theta_points, base_points, 3, n, ghost_margin)


def _seam_check(conn, fam, tolerance=1e-10):
    """Closedness: crossing one base period must shift potentials by a constant.

    For each base axis, the jump field(x + 1) - field(x) must itself be
    constant over the probe grid (the covering-space formula descends to
    the torus up to a rigid gauge shift).  A jump that varies by more than
    tolerance times the largest field value it is the difference of (its
    roundoff scale), or by NaN, means the sampled family is not a closed
    connection family.
    """
    d = conn.base_dim
    thetas = (np.arange(conn.theta_points) / conn.theta_points).reshape(
        (-1,) + (1,) * d
    )
    probe = np.array([0.05, 0.35, 0.65])
    coords = [
        probe.reshape((1,) * (i + 1) + (-1,) + (1,) * (d - 1 - i))
        for i in range(d)
    ]
    fields = [("higgs", fam.phi)] + [
        (f"gauge[{ax}]", lambda t, c, ax=ax: fam.base(t, c, ax))
        for ax in range(d)
    ]
    for axis in range(d):
        shifted = list(coords)
        shifted[axis] = shifted[axis] + 1.0
        for label, field in fields:
            there, here = field(thetas, shifted), field(thetas, coords)
            jump = there - here
            mean = jump.reshape((-1,) + jump.shape[-1:]).mean(axis=0)
            spread = float(np.abs(jump - mean).max())
            scale = max(float(np.abs(there).max()), float(np.abs(here).max()))
            if not spread <= tolerance * scale:
                raise ValidationError(
                    f"family {fam.label}: {label} jump across axis {axis} "
                    f"varies by {spread:.3e}; not a closed family"
                )

