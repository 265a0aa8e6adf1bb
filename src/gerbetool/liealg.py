"""su(n) structure: orthogonal bases, representations, exact Dynkin indices.

Conventions: algebra elements are anti-Hermitian traceless n x n matrices,
paired by <X, Y> = -trace(XY).  The standard basis below is normalized to
<T_a, T_b> = 2 delta_ab, which gives the coroot h = i diag(1, -1, 0, ...)
squared length 2 (long roots have length sqrt 2).  An element is also
stored as its real coefficients c_a in X = sum_a c_a T_a, a trailing axis
of length n^2 - 1: there <X, Y> = 2 c(X).c(Y), and the bracket contracts
the coefficients with the structure constants.

The Dynkin index of an irreducible representation with highest weight
given by a partition is computed exactly over the rationals from the
weight system (Freudenthal recursion), as tr_rho(H^2) / <H, H> on a test
coroot, cross-checked on a second coroot.
"""

from dataclasses import dataclass
from fractions import Fraction
import functools
import itertools
import math

import numpy as np

from .errors import ArgumentError, CapabilityError, ConsistencyError

_DIM_CAP = 200


def su_basis(n):
    """Anti-Hermitian basis of su(n) with -tr(T_a T_b) = 2 delta_ab.

    su(1) = 0 has the empty basis; it is the image of the trivial
    representation.
    """
    if n < 1:
        raise ArgumentError("su(n) needs n >= 1")
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            x = np.zeros((n, n), dtype=complex)
            x[i, j], x[j, i] = 1.0, -1.0
            out.append(x)
            y = np.zeros((n, n), dtype=complex)
            y[i, j], y[j, i] = 1j, 1j
            out.append(y)
    for k in range(1, n):
        d = np.zeros((n, n), dtype=complex)
        scale = math.sqrt(2.0 / (k * (k + 1)))
        for t in range(k):
            d[t, t] = 1j * scale
        d[k, k] = -1j * k * scale
        out.append(d)
    return out


def _read_only(arr):
    arr.flags.writeable = False
    return arr


def _basis_array(n):
    return np.array(su_basis(n), dtype=complex).reshape(-1, n, n)


@functools.lru_cache(maxsize=None)
def su_frame(n):
    """Orthonormal frame e_a = T_a / sqrt 2 of su(n), <e_a, e_b> = delta_ab.

    A read-only (n^2 - 1, n, n) array, built once per n.
    """
    return _read_only(_basis_array(n) / math.sqrt(2.0))


def _brackets(basis):
    """[X_a, X_b] for every pair of basis elements, shape (m, m, n, n)."""
    products = np.einsum("aij,bjk->abik", basis, basis)
    return products - products.transpose(1, 0, 2, 3)


@functools.lru_cache(maxsize=None)
def su_structure_constants(n):
    """Real f_abc with [T_a, T_b] = sum_c f_abc T_c in the su_basis frame.

    f_abc = <T_c, [T_a, T_b]> / 2; for su(2) it is 2 eps_abc.  A read-only
    (m, m, m) array, m = n^2 - 1.
    """
    basis = _basis_array(n)
    pairs = -np.einsum("cji,abij->abc", basis, _brackets(basis)) / 2.0
    return _read_only(pairs.real)


@functools.lru_cache(maxsize=None)
def _coefficient_map(n):
    """Real (2 n^2, 2 n^2) map from (Re, Im)-interleaved entries of X.

    Columns: the m coefficients Re <T_a, X> / 2, then Re tr X, the m
    imaginary parts Im <T_a, X> / 2 and Im tr X.  The last n^2 + 1 vanish
    exactly when X lies in su(n).
    """
    basis = _basis_array(n)
    m = len(basis)
    weights = np.empty((n, n, m + 1), dtype=complex)
    weights[..., :m] = -basis.transpose(2, 1, 0) / 2.0
    weights[..., m] = np.eye(n)
    weights = weights.reshape(n * n, m + 1)
    out = np.empty((n * n, 2, 2 * m + 2))
    out[:, 0, : m + 1], out[:, 1, : m + 1] = weights.real, -weights.imag
    out[:, 0, m + 1 :], out[:, 1, m + 1 :] = weights.imag, weights.real
    return _read_only(out.reshape(2 * n * n, 2 * m + 2))


def su_coefficients(samples):
    """Coefficients of (..., n, n) samples in the su_basis frame, by one GEMM.

    Returns (coeffs, off): coeffs has shape (..., n^2 - 1) and holds
    Re <T_a, X> / 2.  off measures how far the samples lie from su(n): the
    largest |Im <T_a, X> / 2| or |tr X| relative to the largest coefficient
    (0 for zero samples, inf for a nonzero part off su(n) alone); a NaN
    sample makes it NaN.
    """
    samples = np.ascontiguousarray(samples, dtype=complex)
    n = samples.shape[-1]
    m = n * n - 1
    out = samples.reshape(-1, n * n).view(float) @ _coefficient_map(n)
    rest = np.abs(out[:, m:]).max(initial=0.0)
    scale = np.abs(out[:, :m]).max(initial=0.0)
    if scale == 0.0:
        off = 0.0 if rest == 0.0 else math.inf
    else:
        off = float(rest / scale)
    return out[:, :m].reshape(samples.shape[:-2] + (m,)), off


@functools.lru_cache(maxsize=None)
def _adjoint_map(n):
    """Linear map X -> ad(X) in the normalized su_basis frame, (n^2, (n^2-1)^2).

    ad(X)_ab = <e_a, [X, e_b]> = sum_ij X_ij [e_a, e_b]_ji, so row (i, j)
    holds the (j, i) entries of the frame commutators.
    """
    out = _brackets(su_frame(n)).transpose(3, 2, 0, 1).reshape(n * n, -1)
    return _read_only(out)


def _pad_partition(n, part):
    part = tuple(int(p) for p in part)
    if len(part) > n:
        raise CapabilityError(f"partition longer than n = {n}")
    if any(p < 0 for p in part) or any(
        part[i] < part[i + 1] for i in range(len(part) - 1)
    ):
        raise CapabilityError(f"not a partition: {part}")
    return part + (0,) * (n - len(part))


def weyl_dimension(n, part):
    """Dimension of the su(n) irrep with the given highest-weight partition."""
    lam = _pad_partition(n, part)
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return num // den


def _majorizes(lam, mu):
    s1 = s2 = 0
    for a, b in zip(lam, mu):
        s1 += a
        s2 += b
        if s2 > s1:
            return False
    return True


def _inner_su(n, x, y):
    dot = sum(Fraction(a) * b for a, b in zip(x, y))
    return dot - Fraction(sum(x) * sum(y), n)


def weight_multiplicities(n, part):
    """All weights (epsilon coordinates) with multiplicities, by Freudenthal.

    The weight set of the irrep is exactly the integer tuples with the same
    coordinate sum whose decreasing rearrangement is majorized by the
    highest weight; multiplicities are computed on dominant representatives
    and extended by Weyl (permutation) invariance.
    """
    lam = _pad_partition(n, part)
    dim = weyl_dimension(n, lam)
    if dim > _DIM_CAP:
        raise CapabilityError(f"dimension {dim} exceeds supported cap {_DIM_CAP}")
    total = sum(lam)
    lo, hi = lam[-1], lam[0]
    all_weights = [
        mu
        for mu in itertools.product(range(lo, hi + 1), repeat=n)
        if sum(mu) == total and _majorizes(lam, tuple(sorted(mu, reverse=True)))
    ]
    dominant = sorted({tuple(sorted(mu, reverse=True)) for mu in all_weights})

    def level(mu):
        acc = run = 0
        for a, b in zip(lam, mu):
            run += a - b
            acc += run
        return acc

    dominant.sort(key=level)
    rho = tuple(range(n - 1, -1, -1))
    pos_roots = []
    for i in range(n):
        for j in range(i + 1, n):
            alpha = [0] * n
            alpha[i], alpha[j] = 1, -1
            pos_roots.append(tuple(alpha))
    weight_set = set(all_weights)
    mult = {lam: 1}
    lam_rho = tuple(a + b for a, b in zip(lam, rho))
    norm_top = _inner_su(n, lam_rho, lam_rho)
    for mu in dominant:
        if mu == lam:
            continue
        num = Fraction(0)
        for alpha in pos_roots:
            k = 1
            while True:
                nu = tuple(a + k * b for a, b in zip(mu, alpha))
                if nu not in weight_set:
                    break
                num += 2 * mult[tuple(sorted(nu, reverse=True))] * _inner_su(n, nu, alpha)
                k += 1
        mu_rho = tuple(a + b for a, b in zip(mu, rho))
        den = norm_top - _inner_su(n, mu_rho, mu_rho)
        value = num / den
        if value.denominator != 1 or value <= 0:
            raise ConsistencyError(f"non-integral multiplicity {value} at {mu}")
        mult[mu] = int(value)
    out = {mu: mult[tuple(sorted(mu, reverse=True))] for mu in all_weights}
    if sum(out.values()) != dim:
        raise ConsistencyError(
            f"weight multiplicities sum to {sum(out.values())}, expected {dim}"
        )
    return out


def dynkin_index(n, highest_weight):
    """Exact index: tr_rho(H^2) / <H, H> on the coroot H = diag(1,-1,0,...).

    Returns a Fraction in lowest terms; the same value must come out on the
    highest-root coroot diag(1,0,...,-1), otherwise ConsistencyError.
    """
    weights = weight_multiplicities(n, highest_weight)
    s_simple = sum(m * (mu[0] - mu[1]) ** 2 for mu, m in weights.items())
    s_long = sum(m * (mu[0] - mu[-1]) ** 2 for mu, m in weights.items())
    if s_simple != s_long:
        raise ConsistencyError(
            f"index differs between coroots: {s_simple}/2 vs {s_long}/2"
        )
    return Fraction(s_simple, 2)


@dataclass(frozen=True)
class Representation:
    """A representation of su(n) named by its highest-weight partition.

    Matrix images are available for the trivial, fundamental, and adjoint
    cases (all the sampled-connection pipelines need); the Dynkin index is
    available for any partition within the dimension cap.  The pipelines,
    which hold su(n) coefficients, apply the images as coefficient_map, the
    real linear map they induce from su(n) to su(dim) coefficients.
    """

    n: int
    partition: tuple

    def __post_init__(self):
        object.__setattr__(self, "partition", _pad_partition(self.n, self.partition))

    @classmethod
    def fundamental(cls, n):
        return cls(n, (1,))

    @classmethod
    def adjoint(cls, n):
        return cls(n, (2,) + (1,) * (n - 2))

    @property
    def dim(self):
        return weyl_dimension(self.n, self.partition)

    @property
    def index(self):
        return dynkin_index(self.n, self.partition)

    def is_trivial(self):
        return all(p == 0 for p in self.partition)

    def is_fundamental(self):
        return self.partition == (1,) + (0,) * (self.n - 1)

    def is_adjoint(self):
        return self.partition == (2,) + (1,) * (self.n - 2) + (0,)

    def matrix_image(self, samples):
        """Image of su(n)-valued sample arrays (..., n, n) under the representation.

        Vectorized over leading axes.  Supported: trivial (1x1 zeros),
        fundamental (identity), adjoint (real ad-matrices in the normalized
        su_basis frame); anything else raises CapabilityError.
        """
        samples = np.asarray(samples, dtype=complex)
        if samples.shape[-2:] != (self.n, self.n):
            raise ArgumentError(
                f"samples have trailing shape {samples.shape[-2:]}, "
                f"expected ({self.n}, {self.n})"
            )
        if self.is_trivial():
            return np.zeros(samples.shape[:-2] + (1, 1), dtype=complex)
        if self.is_fundamental():
            return samples.copy()
        if self.is_adjoint():
            flat = samples.reshape(-1, self.n * self.n) @ _adjoint_map(self.n)
            return flat.reshape(samples.shape[:-2] + (self.dim, self.dim))
        raise CapabilityError(
            f"matrix images not implemented for partition {self.partition}"
        )

    @functools.lru_cache(maxsize=None)
    def coefficient_map(self):
        """matrix_image on coefficients: a read-only real (n^2 - 1, dim^2 - 1) map.

        Row a holds the su(dim) coefficients of matrix_image(T_a), so a
        coefficient array c maps to c @ coefficient_map().  The fundamental's
        map is exactly the identity, where the conversion would round.
        """
        if self.is_fundamental():
            return _read_only(np.eye(self.n * self.n - 1))
        return _read_only(su_coefficients(self.matrix_image(_basis_array(self.n)))[0])
