"""su(n) structure: orthogonal bases, coefficients, and three representations.

Conventions: algebra elements are anti-Hermitian traceless n x n matrices,
paired by <X, Y> = -trace(XY).  The standard basis below is normalized to
<T_a, T_b> = 2 delta_ab, which gives the coroot h = i diag(1, -1, 0, ...)
squared length 2 (long roots have length sqrt 2).  An element is also
stored as its real coefficients c_a in X = sum_a c_a T_a, a trailing axis
of length n^2 - 1 (caloron's fields and families put it first): there <X, Y> =
2 c(X).c(Y), and the bracket contracts the coefficients with the structure
constants.
"""

from dataclasses import dataclass
import functools
import math

import numpy as np

from .errors import ArgumentError, CapabilityError


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


@functools.lru_cache(maxsize=None)
def su_structure_constants(n):
    """Real f_abc with [T_a, T_b] = sum_c f_abc T_c in the su_basis frame.

    f_abc = <T_c, [T_a, T_b]> / 2; for su(2) it is 2 eps_abc.  A read-only
    (m, m, m) array, m = n^2 - 1.
    """
    basis = np.array(su_basis(n), dtype=complex).reshape(-1, n, n)
    products = np.einsum("aij,bjk->abik", basis, basis)
    brackets = products - products.transpose(1, 0, 2, 3)
    pairs = -np.einsum("cji,abij->abc", basis, brackets) / 2.0
    return _read_only(pairs.real)


@dataclass(frozen=True)
class Representation:
    """The trivial, fundamental or adjoint representation of su(n).

    Named by its highest-weight partition, padded with zeros to length n:
    () is the trivial, (1,) the fundamental and (2, 1, ..., 1) with n - 2
    ones the adjoint; any other partition raises CapabilityError.  These
    are the representations the sampled-connection pipelines act with.
    The pipelines, which hold su(n) coefficients, apply each as its
    coefficient_map, the real linear map it induces from su(n) to su(dim)
    coefficients.
    """

    n: int
    partition: tuple

    def __post_init__(self):
        n = self.n
        part = tuple(int(p) for p in self.partition)
        part += (0,) * (n - len(part))
        # the first entry, 0, 1 or 2, tells the three apart
        named = ((0,) * n, (1,) + (0,) * (n - 1), (2,) + (1,) * (n - 2) + (0,))
        if n < 2 or part not in named:
            raise CapabilityError(
                f"su({n}) partition {self.partition}: only the trivial, fundamental "
                "and adjoint representations of su(n), n >= 2, are supported"
            )
        object.__setattr__(self, "partition", part)

    @classmethod
    def fundamental(cls, n):
        return cls(n, (1,))

    @classmethod
    def adjoint(cls, n):
        return cls(n, (2,) + (1,) * (n - 2))

    @property
    def dim(self):
        """1, n or n^2 - 1."""
        return (1, self.n, self.n * self.n - 1)[self.partition[0]]

    @property
    def index(self):
        """The Dynkin index tr_rho(H^2) / <H, H>: 0, 1 or 2n."""
        return (0, 1, 2 * self.n)[self.partition[0]]

    def is_fundamental(self):
        return self.partition[0] == 1

    @functools.lru_cache(maxsize=None)
    def coefficient_map(self):
        """The map on coefficients: a read-only real (n^2 - 1, dim^2 - 1) array.

        A coefficient array c maps to c @ coefficient_map().  The trivial's
        map is (n^2 - 1, 0) and the fundamental's exactly the identity.  The
        adjoint's row a is ad(T_a) in the orthonormal frame T_b / sqrt 2: the
        real antisymmetric matrix with entry f_acb at (b, c).  Its su(dim)
        coefficients are those entries for b < c, on su_basis(dim)'s real
        antisymmetric slots 2k, the k-th pair in np.triu_indices order.
        """
        m = self.n * self.n - 1
        if self.is_fundamental():
            return _read_only(np.eye(m))
        out = np.zeros((m, self.dim * self.dim - 1))
        if self.partition[0] == 2:
            b, c = np.triu_indices(m, 1)
            out[:, : 2 * len(b) : 2] = su_structure_constants(self.n)[:, c, b]
        return _read_only(out)
