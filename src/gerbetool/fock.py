"""Truncated fermionic Fock space with a movable normal-ordering cut.

Modes live on a window |m| <= N with n_colors internal labels.  Slot (i, m)
is occupied in the reference vacuum exactly when m < lambda (the cut, a
non-integer rational).  psi^i_m creates slot (i, m); psibar^i_n destroys
slot (i, -n), so {psi^i_m, psibar^j_n} = delta^{ij} delta_{m+n,0} holds
exactly on the whole window space.  A state is an int64 occupation mask,
bit s set when slot s is filled; signs follow the canonical slot order
(modes ascending, colors ascending within a mode).

Current operators sigma(e^{ij}_n) are truncated sums of normal-ordered
pairs.  Identities that fail near the window edge are checked on the safe
subspace: states whose excitations keep a declared margin from the
boundary, where the truncated operators agree with the untruncated ones.

Vectors are blocks: (masks, cols, amps) arrays, amplitude amps[k] on state
masks[k] in column cols[k]; vacuum() is the one-column block of the sea.
Every check works on one graded basis per (window, pair_cap), cached as an
int64 occupation-mask array with a sorted lookup (graded_basis).  One int64
hop kernel (_hop), one masked compare broadcast over keys x hops with its
signs from a multiply-fold parity, builds the matrices, applies lone
creators and destroyers, and applies operators to blocks whose images are
never truncated, so exact identities stay exact.
The exponential runs on blocks of probe columns.  The basis size is bounded
by a declared cost model (check_basis_cost), and so are the exponential's
work and growth (check_expm_cost).

A compression onto a basis is one numpy form: (rows, cols, data) arrays
sorted by row and then column, equal keys summed.
The exponential of a probe block runs on the rows the block reaches: the
smallest row set that holds its columns and is closed under the matrix's
column -> row entries.  Every other row of exp(t*mat) @ block is exactly 0,
so the principal submatrix on that set, stored as a padded row table, gives
the same kept rows, summed in the same column order.
Equal (mask, column) keys are summed after one stable sort of one int64 key:
the column times (the largest mask + 1) plus the mask wherever that fits in
an int64, every call at the defaults, and otherwise the column times the
number of distinct masks plus the mask's rank.
Each truncated current and safe probe block is built once per key and
shared, with read-only arrays, and each Taylor schedule once per norm.
commutator_check is the one entry point of the central-extension identity:
it takes any number of index tuples, evaluates each unordered pair of
currents once (a swapped pair's residual is the exact negative), builds
each current's image of a safe block once per call, and sums the pairs in
batches of at most MAX_BATCH_ENTRIES hop-kernel entries.  car_residual
likewise runs three of the four anticommutator orders, since {destroy,
create} repeats {create, destroy} with the labels swapped.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import itertools
import math

import numpy as np

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

# Cost model: the largest graded basis a check may allocate, and the slots
# an int64 occupation mask may use, clear of the sign bit.
MAX_BASIS_DIM = 50_000
MASK_BITS = 62
# Cost model of one commutator_check batch: the hop-kernel entries (keys x
# hops of each operator on its inputs, plus the scalar parts) of the tuples
# summed in one _sum_keys call.  The CLI's default sweep (210 pairs on a
# 352-state basis), warm, median of three medians of 5 on a 2-core x86 VM
# with Python 3.11.7 and numpy 2.4.6, with the packed sort key and the
# one-compare hop kernel:
#   batch bound (entries)    1    2**15  2**16  2**17  2**18  2**19
#   time (ms)               57       35     38     38     36     34
#   tracemalloc peak (MB)  1.2      1.2    2.5    4.0    5.8    9.7
# A bound of 1 sums each pair alone.  Past 2**15 the time is flat within
# the run-to-run spread (three more series read 35 to 64 ms from 2**15 on,
# in no order of the bound), and past 2**17 (14 batches of 1 to 36 pairs)
# the peak keeps doubling.  The bound changes no report.
MAX_BATCH_ENTRIES = 2**17
# One Taylor exponential of a probe block may cost at most this many
# multiply-adds: steps * degree sparse products, each nnz * block columns
# plus a fixed call cost of the order of 10 us, counted as _PRODUCT_OVERHEAD.
MAX_EXPM_WORK = 2**28
_PRODUCT_OVERHEAD = 4096
# Largest theta = |t| * ||mat||_1 / steps of one Taylor step: beyond it the
# alternating terms lose accuracy to cancellation.  The series is cut at a
# tail bound of one unit roundoff, below the rounding error.
_THETA_MAX = 2.0
_UNIT_ROUNDOFF = 2.0**-53
# Largest |t| * ||mat||_1 of an exponential.  It bounds the log of every
# entry of exp(t*mat) on a unit column, and e^700 (about 1e304) keeps that
# bound four decades inside the float range.
_MAX_NORM_T = 700.0
# Probe columns per block in projective_equality_check.  The three default
# projective checks (2 952 states, 2 648 products at width 16), each block
# on the rows it reaches, measured warm, median of three medians of 5 on a
# 2-core x86 VM:
#   block width               16    32    64   128   400
#   time (s)                0.11  0.10  0.10  0.45  1.03
#   tracemalloc peak (MB)    4.0   4.0   4.0   7.1  15.0
# A wider block makes fewer calls but reaches more rows; from 128 columns
# the transfer-pair blocks reach most of their charge sector.  32 and 64
# save under a fifth, and check_expm_cost counts each product's work per
# block column, so a wider block would refuse configs admitted today.
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

    def sea_count(self, cut=None):
        """Number of window modes strictly below the cut (per color)."""
        lam = self.cut if cut is None else rational(cut)
        return min(max(math.floor(lam) + self.N + 1, 0), 2 * self.N + 1)

    def sea_mask(self):
        """Occupation mask of every slot whose mode lies strictly below the cut.

        The sea is the contiguous run of the lowest slots, so the mask is a
        closed form rather than a loop over modes.
        """
        modes = min(max(math.ceil(self.cut) + self.N, 0), 2 * self.N + 1)
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


# Bit 4k of every nibble, and the multiplier that sums the 16 nibbles into the top one.
_NIBBLE_ONES = np.int64(0x1111111111111111)


def _parities(masks):
    """Bit parity (0 or 1) of each non-negative int64 mask, by a multiply fold.

    Two xor folds leave each nibble's parity in its low bit; the product
    with _NIBBLE_ONES sums those 16 bits into bits 60 to 63 (the int64
    product wraps), and bit 60 is the sum's parity.  No np.bitwise_count,
    which numpy 1.24 lacks.
    """
    masks = masks ^ (masks >> 1)
    masks ^= masks >> 2
    masks &= _NIBBLE_ONES
    masks *= _NIBBLE_ONES
    return (masks >> 60) & 1


def _bits(slots, other):
    """(bit, mask of the lower slots) of int64 slots; zeros like `other` for None."""
    if slots is None:
        return (np.zeros(len(other), dtype=np.int64),) * 2
    bit = np.left_shift(np.int64(1), slots)
    return bit, bit - 1


def _hop(masks, s_to, s_from):
    """Hops c^dag(s_to[h]) c(s_from[h]) on int64 masks, broadcast over keys x hops.

    The slots are int64 arrays of one length; either may be None, for lone
    creators or destroyers.  Returns (keys, hops, images, odd) of the
    (mask, hop) pairs the hop does not annihilate, odd = 1 where the sign
    is -1.  Each sign counts the occupied slots below the slot it acts on;
    the two counts add up to the parity of their XOR.
    """
    bit_f, low_f = _bits(s_from, s_to)
    bit_t, low_t = _bits(s_to, s_from)
    # the source occupied and the target empty, one compare: a diagonal hop
    # tests the source alone, a lone creator the target, a lone destroyer the source
    keys, hops = np.nonzero((masks[:, None] & (bit_f | bit_t)) == bit_f)
    masks = masks[keys]
    cleared = masks ^ bit_f[hops]
    odd = _parities((masks & low_f[hops]) ^ (cleared & low_t[hops]))
    return keys, hops, cleared | bit_t[hops], odd


def _hop_parts(block, amps, s_to, s_from, hop_weight=0):
    """Block (masks, cols, amps) under sum_h amps[h] c^dag(s_to[h]) c(s_from[h]).

    The images are exact, never truncated to a basis, and the column index
    rides in its own array (plus hop_weight * h, to keep the hops apart);
    equal keys are left for _sum_keys to add.
    """
    masks, cols, values = block
    keys, hops, images, odd = _hop(masks, s_to, s_from)
    amps = amps[hops]
    values = values[keys] * np.where(odd, -amps, amps)
    cols = cols[keys]
    if hop_weight:
        cols += hop_weight * hops
    return images, cols, values


def _sum_keys(parts):
    """One block from (masks, cols, amps) parts, equal (mask, col) keys summed.

    Equal keys are added one by one in the order the parts list them, as a
    CSR matrix sums its duplicates (np.add.reduceat adds a run of 8 or more
    pairwise, which rounds non-integer sums differently).  The order is one
    stable sort of one int64 key, the permutation of np.lexsort((masks,
    cols)): cols * span + masks with span = masks.max() + 1 when that packs
    into an int64, else cols * len(uniq) + ids, ids the dense ranks of the
    masks.
    """
    masks, cols, amps = (np.concatenate(x) for x in zip(*parts))
    span = int(masks.max(initial=0)) + 1
    # The packed key is below (cols.max() + 1) * span, checked here.  Masks of
    # up to MASK_BITS slots make span up to 2**62, so only a window with its
    # top slots in use and a wide column range takes the rank key, which is
    # below (cols.max() + 1) * len(uniq) <= (cols.max() + 1) * E for E entries.
    # Per caller, (cols.max() + 1) * E <= 2**63 holds:
    # - _compress sorts (basis column, row) pairs, both < MAX_BASIS_DIM: the
    #   key is below MAX_BASIS_DIM**2 < 2**32;
    # - apply, cut_shift_check and central_term_check take one operator to a
    #   vacuum or safe block: cols < MAX_BASIS_DIM, and each of at most
    #   MAX_BASIS_DIM keys gives at most MASK_BITS**2 + 1 entries (one per
    #   distinct slot pair, and the scalar): below 2**44;
    # - car_residual weights label pairs into the column: cols <
    #   MAX_BASIS_DIM * MASK_BITS**2, with at most one entry per column in
    #   each of three parts: below 3 * (MAX_BASIS_DIM * MASK_BITS**2)**2 < 2**57;
    # - commutator_check sums a batch: cols and E are both below the batch's
    #   entry count, at most MAX_BATCH_ENTRIES unless one tuple is the batch;
    #   then cols < MAX_BASIS_DIM and, with at most MASK_BITS hops a current,
    #   E <= MAX_BASIS_DIM * (2 * MASK_BITS**2 + 6 * MASK_BITS + 5): below 2**45.
    if (int(cols.max(initial=0)) + 1) * span <= 2**63:
        keys = cols * span + masks
    else:
        uniq, ids = np.unique(masks, return_inverse=True)
        keys = cols * len(uniq) + ids
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = order[first]
    sums = np.zeros(len(starts), dtype=amps.dtype)
    np.add.at(sums, np.cumsum(first) - 1, amps[order])
    return masks[starts], cols[starts], sums


def _unit_block(masks):
    """Block with state k of `masks` in column k."""
    return masks, np.arange(len(masks)), np.ones(len(masks))


def vacuum(window):
    """The vacuum at the window's cut as a one-column block: the filled sea."""
    return _unit_block(np.array([window.sea_mask()], dtype=np.int64))


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


def _compress(basis, parts):
    """Matrix (rows, cols, data) on a basis from the image parts of its unit block.

    Images outside the basis are dropped, so a column whose exact image
    stays inside the basis is represented exactly.  The entries are sorted
    by row and then column, equal keys summed (_sum_keys), the order in
    which a CSR product adds a row's terms; the data is complex.
    """
    masks, cols, amps = (np.concatenate(x) for x in zip(*parts))
    rows = basis.rows(masks)
    inside = rows >= 0
    # _sum_keys sorts by its second array, then by its first
    cols, rows, data = _sum_keys([(cols[inside], rows[inside], amps[inside].astype(complex))])
    return rows, cols, data


class SparseOperator:
    """Quadratic operator: sum of hops amp * c^dag(slot_to) c(slot_from) + scalar.

    The hop list plus scalar is the exact (window-truncated) operator; the
    matrix() view compresses it onto a graded basis.
    """

    __slots__ = ("window", "hops", "scalar", "_amps", "_to", "_from")

    def __init__(self, window, hops=(), scalar=0j):
        self.window = window
        merged = {}
        for amp, s_to, s_from in hops:
            key = (s_to, s_from)
            merged[key] = merged.get(key, 0j) + complex(amp)
        self.hops = tuple(
            (a, s_to, s_from) for (s_to, s_from), a in sorted(merged.items()) if a != 0
        )
        self.scalar = complex(scalar)
        amps = np.array([a for a, _, _ in self.hops], dtype=complex)
        self._amps = amps if amps.imag.any() else amps.real
        slots = np.array([(t, f) for _, t, f in self.hops], dtype=np.int64)
        self._to, self._from = slots.reshape(-1, 2).T
        for arr in (self._amps, self._to, self._from):
            arr.flags.writeable = False

    def _image_parts(self, block, coeff=1.0):
        """Parts of coeff * self applied to a block; see _hop_parts."""
        parts = [_hop_parts(block, coeff * self._amps, self._to, self._from)]
        if self.scalar:
            masks, cols, amps = block
            parts.append((masks, cols, amps * (coeff * self.scalar)))
        return parts

    def apply(self, block):
        """The operator applied to a block, equal keys summed; see _hop_parts."""
        return _sum_keys(self._image_parts(block))

    def __add__(self, other):
        self._check_window(other)
        return SparseOperator(self.window, self.hops + other.hops, self.scalar + other.scalar)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        return SparseOperator(
            self.window,
            tuple((scalar * a, t, f) for a, t, f in self.hops),
            scalar * self.scalar,
        )

    def _check_window(self, other):
        if other.window != self.window:
            raise ArgumentError("operators live on different windows")

    def matrix(self, basis):
        """Compression onto a GradedBasis as (rows, cols, data); see _compress."""
        return _compress(basis, self._image_parts(_unit_block(basis.masks)))


def enumerate_states(window, pair_cap):
    """Occupation masks (Python ints) of the graded basis, one state at a time.

    Particle+hole count ascending, then lexicographic slots: the order of
    graded_basis, which builds the same masks as numpy grids.
    """
    check_basis_cost(window.n_slots, pair_cap)
    above = window.above_slots()
    below = window.below_slots()
    sea = window.sea_mask()
    out = []
    for total in range(pair_cap + 1):
        for n_p in range(total, -1, -1):
            pairs = itertools.product(
                itertools.combinations(above, n_p),
                itertools.combinations(below, total - n_p),
            )
            for ps, hs in pairs:
                out.append(sea ^ sum(1 << s for s in ps + hs))
    return out


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


@lru_cache(maxsize=32)
def _safe_block(window, pair_cap, margin):
    """Block (masks, cols, amps) of the safe basis states, state k in column k.

    Cached per key and shared by every check, so its arrays are read-only.
    """
    _require_interior(window, margin)
    cols = _safe_columns(window, pair_cap, margin)
    if not len(cols):
        raise ResolutionError(
            f"safe subspace empty for margin {margin} at N={window.N}; increase N"
        )
    block = _unit_block(graded_basis(window, pair_cap).masks[cols])
    for arr in block:
        arr.flags.writeable = False
    return block


def _max_abs(block):
    """Largest |amplitude| of a block; NaN propagates."""
    return float(np.abs(block[2]).max(initial=0.0))


def sigma(i, j, n, window, cut=None):
    """Truncated current sigma(e^{ij}_n) = sum_m :psi^i_m psibar^j_{-n-m}: .

    The sum keeps every m with both mode labels inside the window; as a
    hop operator the current moves fermion modes DOWN by n.  This fixes
    the loop orientation so that positive-transfer currents annihilate the
    vacuum, the normalization under which the commutator's central term is
    +m delta_{m+n,0} (the opposite orientation flips its sign).  The
    normal-ordering cut defaults to the window's cut; passing mu builds the
    mu-ordered current on the same window (used by the cut-shift identity).
    Each current is built once per (i, j, n, window, cut) and shared.
    """
    if abs(n) > 2 * window.N:
        raise RangeError(f"transfer index |{n}| exceeds 2N = {2 * window.N}")
    lam = window.cut if cut is None else rational(cut)
    if lam.denominator == 1:
        raise ValidationError(f"normal-ordering cut must be non-integer, got {lam}")
    return _current(i, j, n, window, lam)


@lru_cache(maxsize=1024)
def _current(i, j, n, window, lam):
    """The current sigma(e^{ij}_n) at cut lam, built once per key.

    The operator is shared by every caller, so its arrays are read-only and
    its sums and scalar multiples are new operators.
    """
    N = window.N
    hops = [
        (1.0, window.slot(i, m), window.slot(j, m + n))
        for m in range(max(-N, -n - N), min(N, N - n) + 1)
    ]
    scalar = -float(window.sea_count(lam)) if i == j and n == 0 else 0.0
    return SparseOperator(window, tuple(hops), scalar)


def commutator_check(window, tuples, pair_cap=2):
    """Worst max-norm residual of the central-extension commutator over tuples.

    For each (i, j, k, l, m, n) of `tuples`,
    [sigma(e^{ij}_m), sigma(e^{kl}_n)] - delta^{jk} sigma(e^{il}_{m+n})
    + delta^{il} sigma(e^{kj}_{m+n}) - delta^{jk} delta^{il} m delta_{m+n,0}
    must vanish exactly (amplitudes are signed integers) on states whose
    excitations stay |m|+|n| modes clear of the window boundary.  The probe
    basis caps the excitation count at pair_cap; the identity itself is
    count-independent.

    Swapping the two currents negates a tuple's residual exactly, so each
    tuple is taken in its canonical order (_canonical) and each unordered
    pair of currents is evaluated once: the CLI's default sweep over 20
    currents runs their 210 pairs, not 400 ordered tuples, and reads the
    worst residual of the tuples as given.  The pairs are grouped by margin
    |m|+|n|, and each current's image of the margin's safe block is built
    once per call, keyed by the operator object that sigma returns.
    Tuples of one margin are summed in batches of at most MAX_BATCH_ENTRIES
    hop-kernel entries (a lone larger tuple is its own batch): tuple t of a
    batch owns the columns from t * len(block), each operator acts once on
    all of the batch's inputs to it, and one _sum_keys call sums the batch.
    A NaN in any batch survives.
    """
    by_margin = {}
    for t in dict.fromkeys(map(_canonical, tuples)):
        by_margin.setdefault(abs(t[4]) + abs(t[5]), []).append(t)
    worst = 0.0
    for margin, group in sorted(by_margin.items()):
        block = _safe_block(window, pair_cap, margin)
        images = {}
        batches, entries = [[]], 0
        for i, j, k, l, m, n in sorted(group, key=lambda t: t[4:]):
            op_a, op_b = sigma(i, j, m, window), sigma(k, l, n, window)
            for op in (op_a, op_b):
                if op not in images:
                    images[op] = op.apply(block)
            # (operator, input block, sign) of each term
            terms = [(op_a, images[op_b], 1.0), (op_b, images[op_a], -1.0)]
            if j == k:
                terms.append((sigma(i, l, m + n, window), block, -1.0))
            if i == l:
                terms.append((sigma(k, j, m + n, window), block, 1.0))
            scalar = float(m) if j == k and i == l and m + n == 0 else 0.0
            cost = len(block[0]) + sum(
                len(x[0]) * (len(op.hops) + 1) for op, x, _ in terms
            )
            if batches[-1] and entries + cost > MAX_BATCH_ENTRIES:
                batches.append([])
                entries = 0
            batches[-1].append((terms, scalar))
            entries += cost
        for batch in batches:
            worst = np.maximum(worst, _max_abs(_sum_keys(_batch_parts(block, batch))))
    return float(worst)


def _canonical(t):
    """The tuple (i, j, k, l, m, n), or (k, l, i, j, n, m) when (i, j, m) > (k, l, n).

    Swapping the two currents negates the commutator, both structure terms
    and the central term m delta_{m+n,0} (n = -m where it is nonzero), so
    the swapped tuple's residual is the exact negative of the tuple's.
    """
    i, j, k, l, m, n = t
    return (k, l, i, j, n, m) if (i, j, m) > (k, l, n) else (i, j, k, l, m, n)


def _batch_parts(block, batch):
    """Parts of a commutator batch: tuple t's terms shifted to the columns from t * len(block).

    Each operator acts once, on its inputs of every tuple concatenated,
    each input signed as its term is.
    """
    masks, cols, amps = block
    inputs = {}
    parts = []
    for t, (terms, scalar) in enumerate(batch):
        offset = t * len(masks)
        for op, (x_masks, x_cols, x_amps), sign in terms:
            inputs.setdefault(op, []).append((x_masks, x_cols + offset, sign * x_amps))
        if scalar:
            parts.append((masks, cols + offset, -scalar * amps))
    for op, xs in inputs.items():
        parts += op._image_parts(tuple(np.concatenate(x) for x in zip(*xs)))
    return parts


def central_term_check(window):
    """Worst |<vac| [sigma(e^{11}_m), sigma(e^{11}_{-m})] |vac> - m| for m = 1, 2.

    The vacuum expectation of the commutator is the central term m of the
    extension; amplitudes are signed integers, so 0.0 is exact.
    """
    probe = vacuum(window)
    worst = 0.0
    for m in (1, 2):
        op_a, op_b = sigma(1, 1, m, window), sigma(1, 1, -m, window)
        parts = op_a._image_parts(op_b.apply(probe)) + op_b._image_parts(op_a.apply(probe), -1.0)
        masks, _, amps = _sum_keys(parts)
        worst = np.maximum(worst, abs(amps[masks == probe[0][0]].sum() - m))
    return float(worst)


def _transport_modes(window, mu):
    lam = window.cut
    mu = rational(mu)
    if mu.denominator == 1:
        raise ValidationError(f"target cut must be non-integer, got {mu}")
    if not mu > lam:
        raise ArgumentError(f"target cut {mu} must exceed the window cut {lam}")
    top = math.floor(mu)  # the cut lies inside the window, so a top past N is a band mode
    if top > window.N:
        raise RangeError(f"band ({lam}, {mu}] exits the window: mode {top} > N = {window.N}")
    return mu, list(range(math.ceil(lam), top + 1))


def bogoliubov_vacuum(window, mu):
    """Transported vacuum |mu> = (prod_{lam<n<=mu} prod_i psi^i_n)|lam> and its defects.

    The operator string is ordered modes ascending, colors ascending within
    a mode, and applied right to left, one creator at a time.  A result
    that is not one unit product state raises ConsistencyError.  Returns
    (block, unannihilated): the one-column block, and the names, in slot
    order, of the creators of slots below mu and destroyers of slots above
    it that do not annihilate the state; a mu-vacuum has none.  Each of the
    two kinds is one batched hop.
    """
    mu, modes = _transport_modes(window, mu)
    one = np.ones(1)
    block = vacuum(window)
    for m in reversed(modes):
        for c in range(window.n_colors, 0, -1):
            block = _hop_parts(block, one, np.array([window.slot(c, m)]), None)
    masks, _, amps = block
    if len(masks) != 1 or not abs(abs(amps[0]) - 1.0) <= 1e-12:
        raise ConsistencyError("transported vacuum is not a unit product state")
    slots = np.arange(window.n_slots, dtype=np.int64)
    below = window.sea_count(mu) * window.n_colors
    # the slots, ascending, whose creator (below mu) or destroyer (above) acts
    creators = slots[_hop(masks, slots[:below], None)[1]]
    destroyers = slots[below:][_hop(masks, None, slots[below:])[1]]
    unannihilated = []
    for kind, sign, acting in (("psi", 1, creators), ("psibar", -1, destroyers)):
        for slot in acting.tolist():
            mode, c = divmod(slot, window.n_colors)
            unannihilated.append(f"{kind}^{c + 1}_{sign * (mode - window.N)}")
    return block, tuple(unannihilated)


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
        diff = diff + SparseOperator(window, (), float(n_shift))
    block = _safe_block(window, pair_cap, abs(n))
    return _max_abs(_sum_keys(diff._image_parts(block))), n_shift


def _tail_bound(theta, degree):
    """Bound on sum_{k > degree} theta^k / k!, valid for theta < degree + 2."""
    first = theta ** (degree + 1) / math.factorial(degree + 1)
    return first / (1.0 - theta / (degree + 2))


@lru_cache(maxsize=8)
def _theta_table(tol):
    """Largest theta <= _THETA_MAX with _tail_bound <= tol, by degree 1..60."""
    table = []
    for degree in range(1, 61):
        low, high = 0.0, _THETA_MAX
        while _tail_bound(high, degree) > tol and high - low > 1e-15:
            mid = 0.5 * (low + high)
            low, high = (mid, high) if _tail_bound(mid, degree) <= tol else (low, mid)
        table.append(high if _tail_bound(high, degree) <= tol else low)
    return tuple(table)


@lru_cache(maxsize=64)
def _taylor_schedule(norm_t, tol):
    """(steps, degree) of least product count steps * degree for exp(t*mat).

    Every step has theta = norm_t / steps <= _THETA_MAX and a degree whose
    tail bound is at most tol: the (m, s) selection of Al-Mohy and Higham
    (SIAM J. Sci. Comput. 33, 2011) on the bound of _tail_bound.  Memoised
    per (norm_t, tol): a battery's probe blocks share their matrices' norms.
    """
    table = enumerate(_theta_table(tol), 1)
    options = [(max(1, math.ceil(norm_t / th)), k) for k, th in table if th > 0]
    if not options:
        raise PrecisionError(f"series tail bound {tol} not met within 60 terms")
    return min(options, key=lambda option: option[0] * option[1])


def _norm1(mat):
    """||mat||_1 of a (rows, cols, data) matrix, the largest absolute column sum."""
    _, cols, data = mat
    return float(np.bincount(cols, weights=np.abs(data)).max()) if len(data) else 0.0


def _reached_rows(edges, cols, dim):
    """Smallest row set that holds `cols` and is closed under the entries `edges`.

    edges is (rows, cols) of every matrix entry; the set, a boolean mask over
    dim rows, is the fixpoint of reach[rows[reach[cols]]] = True.  A matrix
    applied to a block supported on the set stays on it.
    """
    rows, sources = edges
    reach = np.zeros(dim, dtype=bool)
    reach[cols] = True
    while True:
        size = np.count_nonzero(reach)
        reach[rows[reach[sources]]] = True
        if np.count_nonzero(reach) == size:
            return reach


def _row_table(mat, reach):
    """Principal submatrix of mat on the rows `reach` marks, as a padded row table.

    Returns (cols, data), each (width, rows): slot k holds each row's k-th
    entry in column order, by its index among the kept rows.  A row with
    fewer entries is padded with zeros on column 0.
    """
    rows, cols, data = mat
    keep = reach[rows] & reach[cols]
    local = np.cumsum(reach) - 1
    rows, cols, data = local[rows[keep]], local[cols[keep]], data[keep]
    counts = np.bincount(rows, minlength=np.count_nonzero(reach))
    slots = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
    table_cols = np.zeros((counts.max(initial=0), len(counts)), dtype=np.int64)
    table_data = np.zeros(table_cols.shape, dtype=data.dtype)
    table_cols[slots, rows] = cols
    table_data[slots, rows] = data
    return table_cols, table_data


def _row_product(table, x):
    """table @ x for a padded row table: one gather, multiply and add per slot."""
    cols, data = table
    out = np.zeros(x.shape, dtype=np.result_type(data, x))
    for col, entry in zip(cols, data):
        out += entry[:, None] * x[col]
    return out


def check_expm_cost(norm_t, nnz, columns):
    """(steps, degree) of exp(t*mat) @ block at |t| * ||mat||_1 = norm_t, within the cost model.

    _taylor_schedule picks the steps and the degree.  Each product costs nnz
    multiply-adds per block column plus _PRODUCT_OVERHEAD, and work beyond
    MAX_EXPM_WORK raises ResourceError.  A norm_t that is not finite, or
    over _MAX_NORM_T, where the exponential may overflow, raises
    PrecisionError.  columns is the block's width, _PROBE_BLOCK or less
    in projective_equality_check.
    """
    if not math.isfinite(norm_t):
        raise PrecisionError(f"|t| * ||mat||_1 = {norm_t} is not finite")
    steps, degree = _taylor_schedule(norm_t, _UNIT_ROUNDOFF)
    work = steps * degree * (nnz * columns + _PRODUCT_OVERHEAD)
    if work > MAX_EXPM_WORK:
        raise ResourceError(
            f"exponential needs {steps} x {degree} products of a {nnz}-entry "
            f"matrix on {columns} columns (|t| * ||mat||_1 = {norm_t:.3e}), "
            f"over the cap of {MAX_EXPM_WORK} multiply-adds"
        )
    if norm_t > _MAX_NORM_T:
        raise PrecisionError(
            f"exponential may overflow: |t| * ||mat||_1 = {norm_t:.3e} exceeds {_MAX_NORM_T}"
        )
    return steps, degree


def _expm_multiply(table, block, t, norm1, nnz):
    """exp(t*mat) @ block by steps of a truncated Taylor series on a padded row table.

    norm1 = ||mat||_1 and nnz are those of the full compression the table
    was cut from, so the schedule and the cost model do not depend on the
    rows kept.  check_expm_cost picks the steps and the degree, and refuses
    work or growth beyond the cost model before the first product; a
    non-finite step raises PrecisionError.
    """
    if t == 0:
        return block.copy()
    norm_t = abs(t) * norm1
    steps, degree = check_expm_cost(norm_t, nnz, block.shape[1])
    step = t / steps
    out = block.astype(np.result_type(table[1].dtype, block.dtype, step))
    for _ in range(steps):
        term = out
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            for k in range(1, degree + 1):
                term = _row_product(table, term)
                term *= step / k
                out += term
        if not np.isfinite(out).all():
            raise PrecisionError(
                f"exponential overflowed: |t| * ||mat||_1 = {norm_t:.3e}"
            )
    return out


def projective_equality_check(terms, t, window, mu, pair_cap=3):
    """Residual of exp(t sigma_mu(K)) = exp(t sigma_lam(K)) exp(-t n_{lam,mu} Tr K).

    K is a finite combination [(coeff, i, j, n), ...] of elementary loop
    generators; Tr uses the window-independent convention Tr e^{ii}_0 = 1.
    Both exponentials act on the graded-basis compression (identical bases,
    so the matrices differ exactly by the scalar) applied to blocks of safe
    probe columns, in real arithmetic when every matrix entry and the scalar
    factor are real.  Each block runs on the rows it reaches under either
    matrix (_reached_rows); both sides are exactly 0 on every other row.
    The exponentials grow as e^{|t| ||sigma||}, so the residual is the
    largest entry of the difference of the two sides over max(1, the
    largest entry of either side, trace factor included); a NaN stays NaN.
    """
    mu, modes = _transport_modes(window, mu)
    n_shift = len(modes)
    trace_k = sum(c for c, i, j, n in terms if i == j and n == 0)
    op_lam = op_mu = SparseOperator(window)
    for c, i, j, n in terms:
        op_lam = op_lam + c * sigma(i, j, n, window)
        op_mu = op_mu + c * sigma(i, j, n, window, cut=mu)
    max_n = max((abs(n) for *_, n in terms), default=0)
    basis = graded_basis(window, pair_cap)
    mats = op_mu.matrix(basis), op_lam.matrix(basis)
    factor = np.exp(-t * n_shift * trace_k)
    if not (np.iscomplexobj(factor) or any(data.imag.any() for *_, data in mats)):
        mats = tuple((rows, cols, data.real) for rows, cols, data in mats)
    _require_interior(window, max_n)
    # the basis is graded, so probe columns at the lower cap index it too
    probes = _safe_columns(window, min(2, pair_cap), max_n)
    costs = [(_norm1(mat), len(mat[2])) for mat in mats]
    edges = [np.concatenate(x) for x in zip(*(mat[:2] for mat in mats))]
    residual = scale = 0.0
    for start in range(0, len(probes), _PROBE_BLOCK):
        cols = probes[start:start + _PROBE_BLOCK]
        reach = _reached_rows(edges, cols, len(basis))
        block = np.zeros((np.count_nonzero(reach), len(cols)), dtype=mats[0][2].dtype)
        block[np.cumsum(reach)[cols] - 1, np.arange(len(cols))] = 1.0
        lhs, rhs = (
            _expm_multiply(_row_table(mat, reach), block, t, *cost)
            for mat, cost in zip(mats, costs)
        )
        rhs *= factor
        scale = np.maximum(scale, np.maximum(np.abs(lhs).max(), np.abs(rhs).max()))
        lhs -= rhs
        residual = np.maximum(residual, np.abs(lhs).max())
    return float(residual / np.maximum(1.0, scale))


def car_residual(window, pair_cap=2):
    """Max residual of the anticommutator identities on the block engine.

    Label (c, m) sits on slot(c, m): psi^c_m creates it and psibar^c_{-m}
    destroys it.  Every label pair is formed at once: column
    k + keep * (a + n_slots * b) of the block holds {X_a, Y_b} applied to
    basis state k, for the states with count <= pair_cap - 1 (the first
    `keep` columns of the graded basis).  The anticommutator is symmetric
    and every pair (a, b) is formed, so {destroy_a, create_b} is
    {create_b, destroy_a}: three orders (create, create), (create, destroy)
    and (destroy, destroy) cover all four.  Amplitudes are signed integers,
    so the residual must be exactly 0.
    """
    keep = basis_dimension(window.n_slots, pair_cap - 1)
    if not keep:
        return 0.0
    n = window.n_slots
    slots, ones = np.arange(n), np.ones(n)
    block = _unit_block(graded_basis(window, pair_cap).masks[:keep])

    def each_label(block, create, weight):
        # creators (or destroyers) of every slot a at once, a weighted into the column
        to, source = (slots, None) if create else (None, slots)
        return _hop_parts(block, ones, to, source, weight)

    diag = np.tile(block[0], n), np.add.outer(keep * (n + 1) * slots, block[1]).ravel()
    worst = 0.0
    for x_creates, y_creates in itertools.combinations_with_replacement((True, False), 2):
        parts = [
            each_label(each_label(block, y_creates, keep * n), x_creates, keep),
            each_label(each_label(block, x_creates, keep), y_creates, keep * n),
        ]
        if x_creates != y_creates:
            parts.append((*diag, -np.ones(n * keep)))
        worst = np.maximum(worst, _max_abs(_sum_keys(parts)))
    return float(worst)
