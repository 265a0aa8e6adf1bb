"""Truncated fermionic Fock space with a movable normal-ordering cut.

Modes live on a window |m| <= N with n_colors internal labels.  Slot (i, m)
is occupied in the reference vacuum exactly when m < lambda (the cut, a
non-integer rational).  psi^i_m creates slot (i, m); psibar^i_n destroys
slot (i, -n), so {psi^i_m, psibar^j_n} = delta^{ij} delta_{m+n,0} holds
exactly on the whole window space.  States are stored as particle/hole data
relative to the vacuum; signs follow the canonical slot order (modes
ascending, colors ascending within a mode).

Current operators sigma(e^{ij}_n) are truncated sums of normal-ordered
pairs.  Identities that fail near the window edge are checked on the safe
subspace: states whose excitations keep a declared margin from the
boundary, where the truncated operators agree with the untruncated ones.

Every check works on one graded basis per (window, pair_cap), cached as an
int64 occupation-mask array with a sorted lookup (graded_basis).  The exact
identities apply each operator once to the whole block of safe columns
through the mask -> amplitude dict engine, with the column index packed
above the window's slots; the exponential runs on blocks of probe columns.
The basis size is bounded by a declared cost model (check_basis_cost).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
import itertools
import math

import numpy as np
import scipy.sparse as sp

from .errors import (
    ArgumentError,
    ConsistencyError,
    PrecisionError,
    RangeError,
    ResolutionError,
    ResourceError,
    ValidationError,
)
from .spectral import rational

PSI = "psi"
PSIBAR = "psibar"

_ZERO_TOL = 1e-14

# Cost model: the largest graded basis a check may allocate, and the slots
# an int64 occupation mask may use, clear of the sign bit.
MAX_BASIS_DIM = 50_000
MASK_BITS = 62
# One scaled Taylor exponential of a probe block may cost at most this many
# multiply-adds: 2^scale * n_terms sparse products, each nnz * block columns
# plus a fixed call cost of the order of 10 us, counted as _PRODUCT_OVERHEAD.
MAX_EXPM_WORK = 2**28
_PRODUCT_OVERHEAD = 4096
# Probe columns per block in projective_equality_check.
_PROBE_BLOCK = 16


@dataclass(frozen=True)
class FockWindow:
    """Mode window |m| <= N, n_colors colors, normal-ordering cut lambda."""

    n_colors: int
    N: int
    cut: Fraction

    def __post_init__(self):
        if self.n_colors < 1:
            raise ValidationError("need at least one color")
        if self.N < 1:
            raise ValidationError("window size N must be >= 1")
        lam = rational(self.cut)
        object.__setattr__(self, "cut", lam)
        if lam.denominator == 1:
            raise ValidationError(f"cut must be non-integer, got {lam}")
        if not (-self.N < lam < self.N):
            raise RangeError(f"cut {lam} outside the open window (-{self.N}, {self.N})")

    @property
    def n_slots(self):
        return (2 * self.N + 1) * self.n_colors

    def slot(self, color, mode):
        """Canonical slot index: modes ascending, colors ascending within a mode."""
        if not 1 <= color <= self.n_colors:
            raise RangeError(f"color {color} outside 1..{self.n_colors}")
        if not -self.N <= mode <= self.N:
            raise RangeError(f"mode {mode} outside window |m| <= {self.N}")
        return (mode + self.N) * self.n_colors + (color - 1)

    def slot_label(self, s):
        mode, c = divmod(s, self.n_colors)
        return (c + 1, mode - self.N)

    def sea_count(self, cut=None):
        """Number of window modes strictly below the cut (per color)."""
        lam = self.cut if cut is None else rational(cut)
        return min(max(math.floor(lam) + self.N + 1, 0), 2 * self.N + 1)

    def sea_mask(self, cut=None):
        """Occupation mask of every slot whose mode lies strictly below the cut.

        The sea is the contiguous run of the lowest slots, so the mask is a
        closed form rather than a loop over modes.
        """
        lam = self.cut if cut is None else rational(cut)
        modes = min(max(math.ceil(lam) + self.N, 0), 2 * self.N + 1)
        return (1 << (modes * self.n_colors)) - 1

    def above_slots(self):
        return [
            self.slot(c, m)
            for m in range(math.ceil(self.cut), self.N + 1)
            for c in range(1, self.n_colors + 1)
        ]

    def below_slots(self):
        return [
            self.slot(c, m)
            for m in range(-self.N, math.floor(self.cut) + 1)
            for c in range(1, self.n_colors + 1)
        ]


@dataclass(frozen=True)
class FockState:
    """Occupation relative to the vacuum: particles above the cut, holes below."""

    window: FockWindow
    particles: frozenset
    holes: frozenset

    def __post_init__(self):
        object.__setattr__(self, "particles", frozenset(self.particles))
        object.__setattr__(self, "holes", frozenset(self.holes))
        w = self.window
        for c, m in self.particles:
            w.slot(c, m)
            if not m > w.cut:
                raise ValidationError(f"particle mode {m} not above the cut {w.cut}")
        for c, m in self.holes:
            w.slot(c, m)
            if not m < w.cut:
                raise ValidationError(f"hole mode {m} not below the cut {w.cut}")

    @property
    def pair_count(self):
        return len(self.particles) + len(self.holes)

    @cached_property
    def mask(self):
        m = self.window.sea_mask()
        for c, mode in self.holes:
            m ^= 1 << self.window.slot(c, mode)
        for c, mode in self.particles:
            m |= 1 << self.window.slot(c, mode)
        return m

    @classmethod
    def from_mask(cls, window, mask):
        sea = window.sea_mask()
        particles, holes = [], []
        for s in range(window.n_slots):
            bit = 1 << s
            if mask & bit and not sea & bit:
                particles.append(window.slot_label(s))
            elif sea & bit and not mask & bit:
                holes.append(window.slot_label(s))
        return cls(window, frozenset(particles), frozenset(holes))


def vacuum(window):
    return FockState(window, frozenset(), frozenset())


class FockVector:
    """Sparse complex linear combination of FockStates on one window.

    Amplitudes with |a| <= 1e-14 are treated as exact zeros and dropped.
    """

    __slots__ = ("window", "amps")

    def __init__(self, window, amps=None):
        self.window = window
        self.amps = {}
        if amps:
            for key, val in amps.items():
                mask = key.mask if isinstance(key, FockState) else int(key)
                if abs(val) > _ZERO_TOL:
                    self.amps[mask] = self.amps.get(mask, 0j) + complex(val)

    @classmethod
    def from_state(cls, state, amplitude=1.0):
        return cls(state.window, {state.mask: amplitude})

    def amplitude(self, state):
        mask = state.mask if isinstance(state, FockState) else int(state)
        return self.amps.get(mask, 0j)

    def norm_max(self):
        return max((abs(a) for a in self.amps.values()), default=0.0)

    def norm2(self):
        return math.sqrt(sum(abs(a) ** 2 for a in self.amps.values()))


@dataclass(frozen=True)
class ModeOperator:
    """psi (creator of slot (color, mode)) or psibar (destroyer of (color, -mode))."""

    kind: str
    color: int
    mode: int

    def __post_init__(self):
        if self.kind not in (PSI, PSIBAR):
            raise ArgumentError(f"kind must be '{PSI}' or '{PSIBAR}', got {self.kind!r}")

    def slot_mode(self):
        return self.mode if self.kind == PSI else -self.mode


def psi(color, mode):
    return ModeOperator(PSI, color, mode)


def psibar(color, mode):
    return ModeOperator(PSIBAR, color, mode)


def _parity(bits):
    return -1.0 if bits.bit_count() & 1 else 1.0


def _parities(masks):
    """Bit parity (0 or 1) of each non-negative int64 mask, by xor folding."""
    for shift in (32, 16, 8, 4, 2, 1):
        masks = masks ^ (masks >> shift)
    return masks & 1


def apply_mode(op, vec):
    """Apply a single mode operator; fermionic sign from slots preceding the target."""
    if isinstance(vec, FockState):
        vec = FockVector.from_state(vec)
    w = vec.window
    s = w.slot(op.color, op.slot_mode())
    bit = 1 << s
    below = bit - 1
    out = {}
    if op.kind == PSI:
        for mask, amp in vec.amps.items():
            if mask & bit:
                continue
            out[mask | bit] = _parity(mask & below) * amp
    else:
        for mask, amp in vec.amps.items():
            if not mask & bit:
                continue
            out[mask ^ bit] = _parity(mask & below) * amp
    return FockVector(w, out)


def basis_dimension(n_slots, pair_cap):
    """Number of graded basis states: at most pair_cap particles plus holes.

    Particles sit above the cut and holes below it, so choosing k excited
    slots out of all n_slots counts them (Vandermonde): sum_k C(n_slots, k).
    """
    return sum(math.comb(n_slots, k) for k in range(pair_cap + 1))


def check_basis_cost(n_slots, pair_cap):
    """Dimension of the graded basis; ResourceError beyond the cost model."""
    if n_slots > MASK_BITS:
        raise ResourceError(
            f"{n_slots} slots exceed the {MASK_BITS}-bit occupation mask"
        )
    dim = basis_dimension(n_slots, pair_cap)
    if dim > MAX_BASIS_DIM:
        raise ResourceError(
            f"graded basis of {dim} states (n_slots {n_slots}, pair_cap {pair_cap}) "
            f"exceeds the cap of {MAX_BASIS_DIM}"
        )
    return dim


class GradedBasis:
    """Occupation masks of a graded basis as an int64 array with sorted lookup.

    Column k holds the mask of the k-th state of the enumeration; rows()
    maps arbitrary masks back to columns through a sorted copy.
    """

    def __init__(self, window, masks):
        self.window = window
        self.masks = masks
        self.masks.flags.writeable = False
        self._order = np.argsort(masks, kind="stable")
        self._sorted = masks[self._order]

    def __len__(self):
        return len(self.masks)

    def rows(self, masks):
        """Column of each mask in the basis, -1 where the mask lies outside it."""
        if not len(self._sorted):
            return np.full(len(masks), -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self._sorted, masks), len(self._sorted) - 1)
        return np.where(self._sorted[pos] == masks, self._order[pos], -1)


def _subset_masks(slots, max_size):
    """Masks of the size-k subsets of `slots` in lexicographic order, k <= max_size."""
    return [
        np.array(
            [sum(1 << s for s in combo) for combo in itertools.combinations(slots, k)],
            dtype=np.int64,
        )
        for k in range(min(max_size, len(slots)) + 1)
    ]


@lru_cache(maxsize=32)
def graded_basis(window, pair_cap):
    """The graded basis of enumerate_states(window, pair_cap) as cached masks.

    Same order as enumerate_states: excitation count ascending, then
    particles above holes lexicographically.  Because the order is graded,
    the states with at most c excitations are the first
    basis_dimension(n_slots, c) columns of every basis with a larger cap.
    """
    check_basis_cost(window.n_slots, pair_cap)
    above = _subset_masks(window.above_slots(), pair_cap)
    below = _subset_masks(window.below_slots(), pair_cap)
    sea = np.int64(window.sea_mask())
    chunks = [np.zeros(0, dtype=np.int64)]
    for total in range(pair_cap + 1):
        for n_p in range(total, -1, -1):
            n_h = total - n_p
            if n_p < len(above) and n_h < len(below):
                grid = above[n_p][:, None] | (sea ^ below[n_h])[None, :]
                chunks.append(grid.ravel())
    return GradedBasis(window, np.concatenate(chunks))


def _as_basis(basis):
    """A GradedBasis, or one built from a list of FockStates."""
    if isinstance(basis, GradedBasis):
        return basis
    masks = np.array([st.mask for st in basis], dtype=np.int64)
    return GradedBasis(basis[0].window, masks)


def _compress(basis, terms, scalar=0j):
    """CSR matrix of sum amp c^dag(s_to) c(s_from) + scalar on a basis.

    Either slot of a term may be None, for a lone creator or destroyer.
    Images outside the basis are dropped, so a column whose exact image
    stays inside the basis is represented exactly.
    """
    masks = basis.masks
    dim = len(masks)
    cols = np.arange(dim)
    rows_out, cols_out, data_out = [cols[:0]], [cols[:0]], [np.zeros(0, dtype=complex)]
    for amp, s_to, s_from in terms:
        image, odd = masks, np.zeros(dim, dtype=np.int64)
        ok = np.ones(dim, dtype=bool)
        if s_from is not None:
            bit = np.int64(1 << s_from)
            ok &= (image & bit) != 0
            odd ^= _parities(image & (bit - 1))
            image = image ^ bit
        if s_to is not None:
            bit = np.int64(1 << s_to)
            ok &= (image & bit) == 0
            odd ^= _parities(image & (bit - 1))
            image = image | bit
        rows = basis.rows(image)
        ok &= rows >= 0
        rows_out.append(rows[ok])
        cols_out.append(cols[ok])
        data_out.append(np.where(odd[ok], -1.0, 1.0) * complex(amp))
    if scalar:
        rows_out.append(cols)
        cols_out.append(cols)
        data_out.append(np.full(dim, complex(scalar)))
    coo = sp.coo_matrix(
        (
            np.concatenate(data_out),
            (np.concatenate(rows_out), np.concatenate(cols_out)),
        ),
        shape=(dim, dim),
    )
    return sp.csr_matrix(coo)


class SparseOperator:
    """Quadratic operator: sum of hops amp * c^dag(slot_to) c(slot_from) + scalar.

    The hop list plus scalar is the exact (window-truncated) operator; the
    matrix() view compresses it onto a graded basis.  safe_margin records
    how far truncation artifacts can reach (in modes) from the window
    boundary.
    """

    __slots__ = ("window", "hops", "scalar", "safe_margin")

    def __init__(self, window, hops=(), scalar=0j, safe_margin=0):
        self.window = window
        merged = {}
        for amp, s_to, s_from in hops:
            key = (s_to, s_from)
            merged[key] = merged.get(key, 0j) + complex(amp)
        self.hops = tuple(
            (a, s_to, s_from) for (s_to, s_from), a in sorted(merged.items()) if a != 0
        )
        self.scalar = complex(scalar)
        self.safe_margin = safe_margin

    def apply_masks(self, amps):
        """Exact action on a dict mask -> amplitude.

        Keys may carry extra bits above the window's slots (a packed column
        index): hops and signs only read the slot bits, so such bits ride
        along unchanged and one call applies the operator to a whole block.
        """
        moves = [
            (a, 1 << s_from, (1 << s_from) - 1, 1 << s_to, (1 << s_to) - 1)
            for a, s_to, s_from in self.hops
        ]
        out = {}
        scalar = self.scalar
        for mask, amp in amps.items():
            for a, bf, below_f, bt, below_t in moves:
                if not mask & bf:
                    continue
                m1 = mask ^ bf
                if m1 & bt:
                    continue
                m2 = m1 | bt
                # parity of the two sign counts is the parity of their XOR
                if ((mask & below_f) ^ (m1 & below_t)).bit_count() & 1:
                    out[m2] = out.get(m2, 0j) - a * amp
                else:
                    out[m2] = out.get(m2, 0j) + a * amp
            if scalar:
                out[mask] = out.get(mask, 0j) + scalar * amp
        return out

    def apply(self, vec):
        if isinstance(vec, FockState):
            vec = FockVector.from_state(vec)
        return FockVector(self.window, self.apply_masks(vec.amps))

    def __add__(self, other):
        self._check_window(other)
        return SparseOperator(
            self.window,
            self.hops + other.hops,
            self.scalar + other.scalar,
            max(self.safe_margin, other.safe_margin),
        )

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        return SparseOperator(
            self.window,
            tuple((scalar * a, t, f) for a, t, f in self.hops),
            scalar * self.scalar,
            self.safe_margin,
        )

    def _check_window(self, other):
        if other.window != self.window:
            raise ArgumentError("operators live on different windows")

    @classmethod
    def identity(cls, window, scalar=1.0):
        return cls(window, (), scalar)

    def matrix(self, basis):
        """Compression onto a graded basis (or a list of FockStates) as CSR."""
        return _compress(_as_basis(basis), self.hops, self.scalar)


def enumerate_states(window, pair_cap):
    """Graded basis: particle+hole count ascending, then lexicographic slots."""
    check_basis_cost(window.n_slots, pair_cap)
    above = window.above_slots()
    below = window.below_slots()
    out = []
    for total in range(pair_cap + 1):
        for n_p in range(total, -1, -1):
            n_h = total - n_p
            if n_p > len(above) or n_h > len(below):
                continue
            for ps in itertools.combinations(above, n_p):
                for hs in itertools.combinations(below, n_h):
                    out.append(
                        FockState(
                            window,
                            frozenset(window.slot_label(s) for s in ps),
                            frozenset(window.slot_label(s) for s in hs),
                        )
                    )
    return out


def safe_states(window, pair_cap, margin):
    """Graded basis states whose excitations keep `margin` modes from the edge."""
    masks = graded_basis(window, pair_cap).masks
    cols = _safe_columns(window, pair_cap, margin)
    return [FockState.from_mask(window, mask) for mask in masks[cols].tolist()]


def _safe_columns(window, pair_cap, margin):
    """Columns of graded_basis(window, pair_cap) clear of the edge by `margin`.

    A particle in mode m is unsafe when N - m < margin, a hole when
    m + N < margin; both tests are bit masks over the slot layout.
    """
    masks = graded_basis(window, pair_cap).masks
    n_modes = 2 * window.N + 1
    edge = min(max(margin, 0), n_modes)
    width = window.n_colors
    full = (1 << window.n_slots) - 1
    top = np.int64(full ^ ((1 << ((n_modes - edge) * width)) - 1))
    bottom = np.int64((1 << (edge * width)) - 1)
    sea = np.int64(window.sea_mask())
    particles = masks & ~sea
    holes = sea & ~masks
    return np.flatnonzero(((particles & top) == 0) & ((holes & bottom) == 0))


def _require_interior(window, margin):
    lam = window.cut
    if math.ceil(lam) + margin > window.N or math.floor(lam) - margin < -window.N:
        raise ResolutionError(
            f"window N={window.N} too small for margin {margin} around cut {lam}; "
            "increase N"
        )


def _safe_block(window, pair_cap, margin):
    """Packed dict {mask | k << n_slots: 1} over the safe columns of the basis."""
    _require_interior(window, margin)
    cols = _safe_columns(window, pair_cap, margin)
    if not len(cols):
        raise ResolutionError(
            f"safe subspace empty for margin {margin} at N={window.N}; increase N"
        )
    masks = graded_basis(window, pair_cap).masks[cols].tolist()
    shift = window.n_slots
    return {mask | (k << shift): 1.0 for k, mask in enumerate(masks)}


def _max_abs(amps):
    """Largest |amplitude| of a mask dict; NaN propagates."""
    values = np.fromiter(amps.values(), dtype=complex, count=len(amps))
    return float(np.abs(values).max(initial=0.0))


def normal_ordered_pair(i, j, m, n, window):
    """Normal-ordered pair :psi^i_m psibar^j_n: at the window's cut.

    Equal to psi^i_m psibar^j_n for m > cut and -psibar^j_n psi^i_m for
    m < cut; as a quadratic operator this is a single hop minus a scalar
    delta^{ij} delta_{m,-n} when m < cut.
    """
    s_to = window.slot(i, m)
    s_from = window.slot(j, -n)
    scalar = 0j
    if m < window.cut and i == j and m == -n:
        scalar = -1.0 + 0j
    return SparseOperator(
        window, ((1.0, s_to, s_from),), scalar, safe_margin=abs(m + n)
    )


def sigma(i, j, n, window, cut=None):
    """Truncated current sigma(e^{ij}_n) = sum_m :psi^i_m psibar^j_{-n-m}: .

    The sum keeps every m with both mode labels inside the window; as a
    hop operator the current moves fermion modes DOWN by n.  This fixes
    the loop orientation so that positive-transfer currents annihilate the
    vacuum, the normalization under which the commutator's central term is
    +m delta_{m+n,0} (the opposite orientation flips its sign).  The
    normal-ordering cut defaults to the window's cut; passing mu builds the
    mu-ordered current on the same window (used by the cut-shift identity).
    """
    N = window.N
    if abs(n) > 2 * N:
        raise RangeError(f"transfer index |{n}| exceeds 2N = {2 * N}")
    lam = window.cut if cut is None else rational(cut)
    if lam.denominator == 1:
        raise ValidationError(f"normal-ordering cut must be non-integer, got {lam}")
    hops = []
    for m in range(max(-N, -n - N), min(N, N - n) + 1):
        hops.append((1.0, window.slot(i, m), window.slot(j, m + n)))
    scalar = 0j
    if i == j and n == 0:
        scalar = -float(window.sea_count(lam))
    return SparseOperator(window, tuple(hops), scalar, safe_margin=abs(n))


def elementary_action(i, j, n, color, mode):
    """Action e^{ij}_n(psi^k_m) = delta^{jk} psi^i_{m+n} on single-particle labels."""
    if color != j:
        return None
    return (i, mode + n)


def commutator_check(i, j, k, l, m, n, window, pair_cap=2):
    """Max-norm residual of the central-extension commutator on the safe subspace.

    [sigma(e^{ij}_m), sigma(e^{kl}_n)] - delta^{jk} sigma(e^{il}_{m+n})
    + delta^{il} sigma(e^{kj}_{m+n}) - delta^{jk} delta^{il} m delta_{m+n,0}
    must vanish exactly (amplitudes are signed integers) on states whose
    excitations stay |m|+|n| modes clear of the window boundary.  The probe
    basis caps the excitation count at pair_cap; the identity itself is
    count-independent.  Each operator acts once on the whole safe block.
    """
    block = _safe_block(window, pair_cap, abs(m) + abs(n))
    op_a = sigma(i, j, m, window)
    op_b = sigma(k, l, n, window)
    rhs = SparseOperator(window)
    if j == k:
        rhs = rhs + sigma(i, l, m + n, window)
    if i == l:
        rhs = rhs - sigma(k, j, m + n, window)
    central = float(m) if (j == k and i == l and m + n == 0) else 0.0
    lhs = op_a.apply_masks(op_b.apply_masks(block))
    for key, amp in op_b.apply_masks(op_a.apply_masks(block)).items():
        lhs[key] = lhs.get(key, 0j) - amp
    for key, amp in rhs.apply_masks(block).items():
        lhs[key] = lhs.get(key, 0j) - amp
    if central:
        for key in block:
            lhs[key] = lhs.get(key, 0j) - central
    return _max_abs(lhs)


def _transport_modes(window, mu):
    lam = window.cut
    mu = rational(mu)
    if mu.denominator == 1:
        raise ValidationError(f"target cut must be non-integer, got {mu}")
    if not mu > lam:
        raise ArgumentError(f"target cut {mu} must exceed the window cut {lam}")
    modes = list(range(math.ceil(lam), math.floor(mu) + 1))
    if modes and modes[-1] > window.N:
        raise RangeError(
            f"band ({lam}, {mu}] exits the window: mode {modes[-1]} > N = {window.N}"
        )
    return mu, modes


def bogoliubov_vacuum(window, mu):
    """Transported vacuum |mu> = (prod_{lam<n<=mu} prod_i psi^i_n)|lam>.

    The operator string is ordered modes ascending, colors ascending within
    a mode, and applied right to left.  The result is verified to satisfy
    both mu-vacuum annihilation properties before being returned.
    """
    mu, modes = _transport_modes(window, mu)
    string = [(c, m) for m in modes for c in range(1, window.n_colors + 1)]
    vec = FockVector.from_state(vacuum(window))
    for c, m in reversed(string):
        vec = apply_mode(psi(c, m), vec)
    if len(vec.amps) != 1 or abs(abs(next(iter(vec.amps.values()))) - 1.0) > 1e-12:
        raise ConsistencyError("transported vacuum is not a unit product state")
    for c in range(1, window.n_colors + 1):
        for kmode in range(-window.N, window.N + 1):
            if kmode < mu and apply_mode(psi(c, kmode), vec).norm_max() > 0:
                raise ConsistencyError(
                    f"transported vacuum not annihilated by psi^{c}_{kmode}"
                )
            if kmode <= -mu and apply_mode(psibar(c, kmode), vec).norm_max() > 0:
                raise ConsistencyError(
                    f"transported vacuum not annihilated by psibar^{c}_{kmode}"
                )
    return vec


def cut_shift_check(i, j, n, window, mu, pair_cap=2):
    """Residual of sigma_mu = sigma_lam - n_{lam,mu} delta^{ij} delta_{n,0} Id.

    Returns (max-norm residual on the safe subspace, n_{lam,mu}) where
    n_{lam,mu} counts integers in (lam, mu].  Exact zero expected: the two
    truncated currents share every hop and differ only in the scalar.
    """
    mu, modes = _transport_modes(window, mu)
    n_shift = len(modes)
    op_mu = sigma(i, j, n, window, cut=mu)
    op_lam = sigma(i, j, n, window)
    diff = op_mu - op_lam
    if i == j and n == 0:
        diff = diff + SparseOperator.identity(window, float(n_shift))
    block = _safe_block(window, pair_cap, abs(n))
    return _max_abs(diff.apply_masks(block)), n_shift


def _expm_multiply(mat, block, t, tol=1e-12):
    """exp(t*mat) @ block by scaling plus truncated Taylor series, in place.

    The scaling s keeps theta = |t| * ||mat||_1 / 2^s <= 0.5, the series is
    summed until its a-priori tail bound theta^(K+1)/((K+1)!(1-theta)) drops
    below tol; failure to reach that bound, or a non-finite result, raises
    PrecisionError.  Work beyond MAX_EXPM_WORK raises ResourceError before
    the first product.
    """
    if t == 0:
        return block.copy()
    norm1 = float(np.max(np.abs(mat).sum(axis=0))) if mat.nnz else 0.0
    if not math.isfinite(abs(t) * norm1):
        raise PrecisionError(f"operator norm {norm1:.3e} at time {t} is not finite")
    theta_target = 0.5
    scale = max(0, math.ceil(math.log2(max(abs(t) * norm1, 1e-300) / theta_target)))
    theta = math.ldexp(abs(t) * norm1, -scale)
    n_terms, bound = 1, theta
    while bound / (1.0 - theta) > tol:
        n_terms += 1
        bound *= theta / n_terms
        if n_terms > 60:
            raise PrecisionError("series tail bound not met within 60 terms")
    work = 2**scale * n_terms * (mat.nnz * block.shape[1] + _PRODUCT_OVERHEAD)
    if work > MAX_EXPM_WORK:
        raise ResourceError(
            f"exponential needs 2^{scale} x {n_terms} products of a "
            f"{mat.nnz}-entry matrix on {block.shape[1]} columns "
            f"(|t| * ||mat||_1 = {abs(t) * norm1:.3e}), over the cap of "
            f"{MAX_EXPM_WORK} multiply-adds"
        )
    step = t / 2**scale
    out = block.astype(np.result_type(mat.dtype, block.dtype, step))
    for _ in range(2**scale):
        term = out
        for k in range(1, n_terms + 1):
            term = mat @ term
            term *= step / k
            out += term
        if not np.isfinite(out).all():
            raise PrecisionError(
                f"exponential overflowed: |t| * ||mat||_1 = {abs(t) * norm1:.3e}"
            )
    return out


def projective_equality_check(terms, t, window, mu, pair_cap=3, tail_tol=1e-12):
    """Residual of exp(t sigma_mu(K)) = exp(t sigma_lam(K)) exp(-t n_{lam,mu} Tr K).

    K is a finite combination [(coeff, i, j, n), ...] of elementary loop
    generators; Tr uses the window-independent convention Tr e^{ii}_0 = 1.
    Both exponentials act on the graded-basis compression (identical bases,
    so the matrices differ exactly by the scalar) applied to blocks of safe
    probe columns, in real arithmetic when every matrix entry and the scalar
    factor are real.
    """
    mu, modes = _transport_modes(window, mu)
    n_shift = len(modes)
    trace_k = sum(c for c, i, j, n in terms if i == j and n == 0)
    op_lam = SparseOperator(window)
    op_mu = SparseOperator(window)
    max_n = 0
    for c, i, j, n in terms:
        op_lam = op_lam + c * sigma(i, j, n, window)
        op_mu = op_mu + c * sigma(i, j, n, window, cut=mu)
        max_n = max(max_n, abs(n))
    basis = graded_basis(window, pair_cap)
    mat_lam = op_lam.matrix(basis)
    mat_mu = op_mu.matrix(basis)
    factor = np.exp(-t * n_shift * trace_k)
    if not (
        np.iscomplexobj(factor) or mat_lam.data.imag.any() or mat_mu.data.imag.any()
    ):
        mat_lam, mat_mu = mat_lam.real, mat_mu.real
    _require_interior(window, max_n)
    # the basis is graded, so probe columns at the lower cap index it too
    probes = _safe_columns(window, min(2, pair_cap), max_n)
    residual = 0.0
    for start in range(0, len(probes), _PROBE_BLOCK):
        cols = probes[start:start + _PROBE_BLOCK]
        block = np.zeros((len(basis), len(cols)), dtype=mat_mu.dtype)
        block[cols, np.arange(len(cols))] = 1.0
        lhs = _expm_multiply(mat_mu, block, t, tail_tol)
        rhs = _expm_multiply(mat_lam, block, t, tail_tol)
        rhs *= factor
        lhs -= rhs
        residual = np.maximum(residual, np.abs(lhs).max())
    return float(residual)


def mode_operator_matrix(op, basis, index=None):
    """Matrix of a single mode operator on a graded basis (CSR).

    `basis` is a GradedBasis or a list of FockStates.  `index`, a mask ->
    row dict, is accepted for callers that built one; rows are found by a
    sorted search of the basis masks.
    """
    basis = _as_basis(basis)
    s = basis.window.slot(op.color, op.slot_mode())
    term = (1.0, s, None) if op.kind == PSI else (1.0, None, s)
    return _compress(basis, (term,))


def car_residual(window, pair_cap=2):
    """Max residual of the four anticommutator identities as matrices.

    The graded basis caps the excitation count; the products are exact on
    columns whose intermediate states stay inside the cap, so the residual
    is measured on states with count <= pair_cap - 1 (the first columns of
    the graded basis) and must be exactly 0.  Every label pair is formed at
    once: stacking the mode matrices turns the products X_a Y_b on the kept
    columns into one sparse product whose (a, b) block is X_a Y_b.
    """
    basis = graded_basis(window, pair_cap)
    dim = len(basis)
    keep = basis_dimension(window.n_slots, pair_cap - 1)
    if not keep:
        return 0.0
    labels = [
        (c, m)
        for c in range(1, window.n_colors + 1)
        for m in range(-window.N, window.N + 1)
    ]
    n_lab = len(labels)
    creators = _stack([mode_operator_matrix(psi(c, m), basis) for c, m in labels], keep)
    destroyers = _stack(
        [mode_operator_matrix(psibar(c, -m), basis) for c, m in labels], keep
    )
    # delta_{ab} times the kept columns of the identity, on the diagonal blocks
    blocks = np.arange(n_lab)[:, None]
    kept = np.arange(keep)
    delta = sp.csr_matrix(
        (
            np.ones(n_lab * keep),
            ((blocks * dim + kept).ravel(), (blocks * keep + kept).ravel()),
        ),
        shape=(n_lab * dim, n_lab * keep),
    )
    worst = 0.0
    for left, right, want in (
        (creators, creators, False),
        (destroyers, destroyers, False),
        (creators, destroyers, True),
        (destroyers, creators, True),
    ):
        anti = left[0] @ right[1] + _swap_blocks(right[0] @ left[1], dim, keep)
        if want:
            anti = anti - delta
        worst = np.maximum(worst, np.abs(anti.data).max(initial=0.0))
    return float(worst)


def _stack(mats, keep):
    """(vstack of mats, hstack of their first `keep` columns), both CSR."""
    return (
        sp.vstack(mats, format="csr"),
        sp.hstack([x[:, :keep] for x in mats], format="csr"),
    )


def _swap_blocks(mat, rows, cols):
    """Block transpose: block (b, a) of rows x cols blocks moves to (a, b)."""
    coo = mat.tocoo()
    block_r, r = np.divmod(coo.row, rows)
    block_c, c = np.divmod(coo.col, cols)
    return sp.csr_matrix(
        (coo.data, (block_c * rows + r, block_r * cols + c)), shape=mat.shape
    )
