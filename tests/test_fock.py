"""Fermionic window Fock space, truncated currents, and vacuum transport.

Oracle: an independent Jordan-Wigner model.  Slot s of the window becomes
bit s of a 2^n_slots-dimensional space (basis index == occupation mask) and
the creator on slot s is the kron chain Z x ... x Z x adag x I x ... x I
with Z-strings on the lower slots, built with scipy.sparse.kron from 2x2
site matrices.  Currents are assembled from first principles: the
normal-ordered pair keeps the written order when the creator mode sits
above the cut and swaps with a sign when it sits below, and the current
with transfer n sums the pairs that move modes down by n.  All oracle
matrices have exact signed-integer entries, so comparisons against the
library are exact.
"""

from fractions import Fraction
import itertools
import math
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from gerbetool import fock
from gerbetool.errors import (
    ArgumentError,
    ConsistencyError,
    PrecisionError,
    RangeError,
    ResolutionError,
    ResourceError,
    ValidationError,
)
from gerbetool.fock import (
    MAX_BASIS_DIM,
    FockWindow,
    GradedBasis,
    SparseOperator,
    basis_dimension,
    bogoliubov_vacuum,
    car_residual,
    commutator_check,
    cut_shift_check,
    enumerate_states,
    graded_basis,
    projective_equality_check,
    sigma,
    vacuum,
)

A_DAG = sp.csr_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
A = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
Z = sp.csr_matrix(np.diag([1.0, -1.0]))
I2 = sp.identity(2, format="csr")

_jw_cache = {}


def jw(window, slot, create):
    """Sparse matrix of the slot creator/annihilator with its Z-string."""
    key = (window, slot, create)
    if key not in _jw_cache:
        acc = sp.identity(1, format="csr")
        for s in range(window.n_slots):
            if s == slot:
                f = A_DAG if create else A
            elif s < slot:
                f = Z
            else:
                f = I2
            acc = sp.kron(f, acc, format="csr")
        _jw_cache[key] = acc
    return _jw_cache[key]


def jw_identity(window):
    return sp.identity(2**window.n_slots, format="csr", dtype=float)


def oracle_pair(i, j, m, n, window, cut=None):
    """Normal-ordered :psi^i_m psibar^j_n: as a sparse oracle matrix."""
    lam = window.cut if cut is None else Fraction(cut)
    s_create = window.slot(i, m)
    s_destroy = window.slot(j, -n)
    if m > lam:
        return jw(window, s_create, True) @ jw(window, s_destroy, False)
    return -(jw(window, s_destroy, False) @ jw(window, s_create, True))


_sigma_cache = {}


def oracle_sigma(i, j, n, window, cut=None):
    """Truncated current from its definition: sum_m :psi^i_m psibar^j_{-n-m}:."""
    key = (window, i, j, n, cut)
    if key not in _sigma_cache:
        N = window.N
        acc = sp.csr_matrix((2**window.n_slots,) * 2, dtype=float)
        for m in range(-N, N + 1):
            if abs(m + n) <= N:
                acc = acc + oracle_pair(i, j, m, -n - m, window, cut)
        _sigma_cache[key] = acc
    return _sigma_cache[key]


def operator_matrix(op):
    """Sparse oracle-frame matrix of a library SparseOperator."""
    w = op.window
    acc = op.scalar * jw_identity(w)
    for amp, s_to, s_from in op.hops:
        acc = acc + amp * (jw(w, s_to, True) @ jw(w, s_from, False))
    return acc


def vac_vector(window):
    e = np.zeros(2**window.n_slots)
    e[window.sea_mask()] = 1.0
    return e


def exact_equal(x, y):
    d = (x - y).tocoo() if sp.issparse(x) else sp.coo_matrix(x - y)
    return d.nnz == 0 or float(np.abs(d.data).max()) == 0.0


def mask_is_safe(window, mask, margin):
    """Excitations of the mask stay `margin` modes clear of both edges."""
    sea = window.sea_mask()
    for s in range(window.n_slots):
        m = s // window.n_colors - window.N
        filled, in_sea = mask >> s & 1, sea >> s & 1
        if filled and not in_sea and window.N - m < margin:
            return False
        if in_sea and not filled and m + window.N < margin:
            return False
    return True


def lone_parts(block, slot, create):
    """Parts of a block under the creator (or destroyer) of one slot."""
    s = np.array([slot], dtype=np.int64)
    return fock._hop_parts(block, np.ones(1), *((s, None) if create else (None, s)))


def full_basis(window):
    """Every state of the window, in enumerate_states order."""
    masks = enumerate_states(window, window.n_slots)
    return GradedBasis(window, np.array(masks, dtype=np.int64))


def csr(mat, basis):
    """The library's (rows, cols, data) matrix on a basis as a scipy CSR matrix."""
    rows, cols, data = mat
    return sp.csr_matrix((data, (rows, cols)), shape=(len(basis),) * 2)


def mode_matrix(basis, slot, create):
    """CSR compression of a lone creator (or destroyer) onto a basis."""
    parts = [lone_parts(fock._unit_block(basis.masks), slot, create)]
    return csr(fock._compress(basis, parts), basis)


def vector_block(v):
    """The full-space vector v as a one-column block: amplitude v[mask] on mask."""
    return np.arange(len(v), dtype=np.int64), np.zeros(len(v), dtype=np.int64), v


def dense(block, dim):
    """A one-column block with distinct masks as a dense vector."""
    masks, _, amps = block
    out = np.zeros(dim, dtype=complex)
    out[masks] = amps
    return out


def amplitude(block, mask):
    masks, _, amps = block
    return amps[masks == mask].sum()


W31 = FockWindow(1, 3, "1/2")
W22 = FockWindow(2, 2, "1/2")


class TestOracleSelfChecks:
    def test_canonical_anticommutators(self):
        w = W31
        eye = jw_identity(w)
        for s in range(w.n_slots):
            for t in range(w.n_slots):
                c_s = jw(w, s, False)
                cd_t = jw(w, t, True)
                acar = c_s @ cd_t + cd_t @ c_s
                want = eye if s == t else 0.0 * eye
                assert exact_equal(acar, want)
                assert exact_equal(c_s @ jw(w, t, False) + jw(w, t, False) @ c_s, 0.0 * eye)

    def test_vacuum_is_filled_sea(self):
        e = vac_vector(W31)
        for m in (-3, -2, -1, 0):
            assert exact_equal_vec(jw(W31, W31.slot(1, m), True) @ e, 0.0 * e)
        for m in (1, 2, 3):
            assert exact_equal_vec(jw(W31, W31.slot(1, m), False) @ e, 0.0 * e)


def exact_equal_vec(x, y):
    return float(np.abs(np.asarray(x) - np.asarray(y)).max()) == 0.0


class TestWindowAndStates:
    def test_slot_layout_round_trips(self):
        for s in range(W22.n_slots):
            mode, c = divmod(s, W22.n_colors)
            assert W22.slot(c + 1, mode - W22.N) == s

    def test_sea_count(self):
        assert W31.sea_count() == 4
        assert W31.sea_count("5/2") == 6
        assert W22.sea_count() == 3

    def test_integer_cut_rejected(self):
        with pytest.raises(ValidationError, match="non-integer"):
            FockWindow(1, 3, "1")

    def test_enumeration_is_graded_and_complete(self):
        basis = enumerate_states(W31, 7)
        assert len(basis) == 2**W31.n_slots
        counts = [bin(mask ^ W31.sea_mask()).count("1") for mask in basis]
        assert counts == sorted(counts)


class TestNanAmplitudes:
    def test_nan_amplitude_is_kept(self):
        w = FockWindow(1, 2, "1/2")
        vec = (np.array([w.sea_mask()]), np.zeros(1, dtype=np.int64), np.array([math.nan]))
        assert math.isnan(fock._max_abs(vec))
        moved = fock._sum_keys([lone_parts(vec, w.slot(1, 1), True)])
        assert len(moved[0]) == 1
        assert math.isnan(fock._max_abs(moved))
        # a NaN behind a finite amplitude reaches the max norm too
        behind = vector_block(np.array([1.0, math.nan]))
        assert math.isnan(fock._max_abs(behind))


def lexsort_sum_keys(parts):
    """Reference of fock._sum_keys: np.lexsort((masks, cols)), then equal keys added in order."""
    masks, cols, amps = (np.concatenate(x) for x in zip(*parts))
    order = np.lexsort((masks, cols))
    masks, cols, amps = masks[order], cols[order], amps[order]
    first = np.ones(len(masks), dtype=bool)
    first[1:] = (masks[1:] != masks[:-1]) | (cols[1:] != cols[:-1])
    sums = np.zeros(np.count_nonzero(first), dtype=amps.dtype)
    np.add.at(sums, np.cumsum(first) - 1, amps)
    return masks[first], cols[first], sums


def assert_same_sums(parts):
    got, want = fock._sum_keys(parts), lexsort_sum_keys(parts)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestSumKeys:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_lexsort_bit_for_bit(self, dtype):
        # non-integer amplitudes on heavily repeated keys: runs of equal keys
        # longer than 8 round differently unless added one by one in order
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 40, size=(3, 600))
        masks = np.int64(1) << rng.integers(0, fock.MASK_BITS, size=(3, 7))
        parts = []
        for key, bits in zip(keys, masks):
            amps = rng.standard_normal(600) * 10.0 ** rng.integers(-8, 8, 600)
            if dtype is complex:
                amps = amps + 1j * rng.standard_normal(600)
            parts.append((bits[key % 7] | (key // 7), key % 5, amps))
        assert_same_sums(parts)
        assert len(fock._sum_keys(parts)[0]) < 1800

    def test_key_at_the_int64_limit(self):
        # (cols.max() + 1) * len(uniq) = 2**63: the largest key is 2**63 - 1,
        # on masks that fill all MASK_BITS slots
        rng = np.random.default_rng(9)
        uniq = (np.int64(1) << (fock.MASK_BITS - 1)) | rng.choice(2**40, 2**10, replace=False)
        masks = np.concatenate([uniq, rng.choice(uniq, 3000)])
        cols = rng.integers(0, 2**53, len(masks))
        cols[:2] = 2**53 - 1
        masks[1] = uniq.max()
        amps = rng.standard_normal(len(masks))
        assert len(np.unique(masks)) * (int(cols.max()) + 1) == 2**63
        assert_same_sums([(masks, cols, amps), (masks[::-1], cols[::-1], amps[::-1])])

    def test_callers_stay_below_the_int64_limit(self):
        # the bounds derived beside _sum_keys's key, from the cost model's constants
        dim, bits = fock.MAX_BASIS_DIM, fock.MASK_BITS
        lone_tuple = dim * (2 * bits**2 + 6 * bits + 5)
        bounds = {
            "compress": dim * dim,
            "apply": dim * dim * (bits**2 + 1),
            "car_residual": 3 * (dim * bits**2) ** 2,
            "commutator batch": fock.MAX_BATCH_ENTRIES**2,
            "commutator lone tuple": dim * lone_tuple,
        }
        assert {name: bound < 2**63 for name, bound in bounds.items()} == dict.fromkeys(bounds, True)


class TestModeOperators:
    @pytest.mark.parametrize("window", [W31, W22], ids=["c1N3", "c2N2"])
    def test_apply_mode_matches_oracle_on_random_vectors(self, window):
        rng = np.random.default_rng(42)
        dim = 2**window.n_slots
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        for s in range(window.n_slots):
            for create in (True, False):
                got = dense(fock._sum_keys([lone_parts(vector_block(v), s, create)]), dim)
                want = jw(window, s, create) @ v
                assert np.abs(got - want).max() <= 1e-12

    def test_creator_on_vacuum(self):
        out = lone_parts(vacuum(W31), W31.slot(1, 1), True)
        assert amplitude(out, W31.sea_mask() | 1 << W31.slot(1, 1)) == 1.0
        assert len(out[0]) == 1

    def test_creator_on_filled_sea_mode_vanishes(self):
        assert fock._max_abs(lone_parts(vacuum(W31), W31.slot(1, 0), True)) == 0.0

    def test_full_basis_matrix_is_permuted_oracle(self):
        w = FockWindow(1, 2, "1/2")
        basis = full_basis(w)
        perm = basis.masks.tolist()
        for create, s in ((True, w.slot(1, 1)), (False, w.slot(1, -2))):
            got = mode_matrix(basis, s, create).toarray()
            want = jw(w, s, create).toarray()[np.ix_(perm, perm)]
            assert exact_equal_vec(got, want)

    @pytest.mark.parametrize("window", [FockWindow(1, 3, "1/2"), W22], ids=["c1N3", "c2N2"])
    def test_car_relations_exact(self, window):
        basis = full_basis(window)
        eye = sp.identity(len(basis), format="csr", dtype=complex)
        slots = range(window.n_slots)
        creators = {s: mode_matrix(basis, s, True) for s in slots}
        destroyers = {s: mode_matrix(basis, s, False) for s in slots}
        for s1 in slots:
            p1 = creators[s1]
            for s2 in slots:
                b2 = destroyers[s2]
                delta = eye if s1 == s2 else 0.0 * eye
                assert exact_equal(p1 @ b2 + b2 @ p1, delta)


def library_pair(i, j, m, n, window):
    """Normal-ordered pair :psi^i_m psibar^j_n: as a one-hop SparseOperator.

    Equal to psi^i_m psibar^j_n for m > cut and -psibar^j_n psi^i_m for
    m < cut: the hop minus a scalar delta^{ij} delta_{m,-n} when m < cut.
    """
    s_to = window.slot(i, m)
    s_from = window.slot(j, -n)
    scalar = -1.0 if m < window.cut and i == j and m == -n else 0.0
    return SparseOperator(window, ((1.0, s_to, s_from),), scalar)


class TestNormalOrderedPair:
    @pytest.mark.parametrize("m,n", [(1, -1), (1, 0), (2, -1), (0, 0), (-1, 1), (-2, 0)])
    def test_matches_oracle(self, m, n):
        basis = full_basis(W31)
        perm = basis.masks.tolist()
        got = csr(library_pair(1, 1, m, n, W31).matrix(basis), basis).toarray()
        want = oracle_pair(1, 1, m, n, W31).toarray()[np.ix_(perm, perm)]
        assert exact_equal_vec(got, want)

    def test_vacuum_expectation_vanishes(self):
        e = vac_vector(W31)
        for m in range(-3, 4):
            for n in range(-3, 4):
                val = e @ (oracle_pair(1, 1, m, n, W31) @ e)
                assert val == 0.0
                impl = library_pair(1, 1, m, n, W31).apply(vacuum(W31))
                assert amplitude(impl, W31.sea_mask()) == 0.0


class TestSigma:
    @pytest.mark.parametrize("n", range(-2, 3))
    def test_single_color_matches_oracle(self, n):
        assert exact_equal(operator_matrix(sigma(1, 1, n, W31)), oracle_sigma(1, 1, n, W31))

    @pytest.mark.parametrize("i,j,n", [(1, 2, 0), (2, 1, 1), (1, 1, -1), (2, 2, 0)])
    def test_two_color_matches_oracle(self, i, j, n):
        assert exact_equal(operator_matrix(sigma(i, j, n, W22)), oracle_sigma(i, j, n, W22))

    def test_diagonal_charge_annihilates_vacuum(self):
        for w in (W31, W22):
            e = vac_vector(w)
            assert exact_equal_vec(oracle_sigma(1, 1, 0, w) @ e, 0.0 * e)
            assert fock._max_abs(sigma(1, 1, 0, w).apply(vacuum(w))) == 0.0

    def test_positive_transfer_annihilates_vacuum(self):
        for n in (1, 2):
            assert fock._max_abs(sigma(1, 1, n, W31).apply(vacuum(W31))) == 0.0

    @pytest.mark.parametrize("m", [1, 2])
    def test_vacuum_pairing_equals_transfer(self, m):
        e = vac_vector(W31)
        want = e @ (oracle_sigma(1, 1, m, W31) @ (oracle_sigma(1, 1, -m, W31) @ e))
        assert want == float(m)
        out = sigma(1, 1, m, W31).apply(sigma(1, 1, -m, W31).apply(vacuum(W31)))
        assert amplitude(out, W31.sea_mask()) == float(m)

    def test_oversized_transfer_rejected(self):
        with pytest.raises(RangeError, match="2N"):
            sigma(1, 1, 7, W31)

    def test_integer_ordering_cut_rejected(self):
        with pytest.raises(ValidationError, match="non-integer"):
            sigma(1, 1, 0, W31, cut="2")


def commutator_residual_matrix(i, j, k, l, m, n, window, cols=slice(None)):
    """Oracle residual of the centrally extended commutator identity, on the columns `cols`."""
    lhs = (
        oracle_sigma(i, j, m, window) @ oracle_sigma(k, l, n, window)[:, cols]
        - oracle_sigma(k, l, n, window) @ oracle_sigma(i, j, m, window)[:, cols]
    )
    if j == k:
        lhs = lhs - oracle_sigma(i, l, m + n, window)[:, cols]
    if i == l:
        lhs = lhs + oracle_sigma(k, j, m + n, window)[:, cols]
    if j == k and i == l and m + n == 0:
        lhs = lhs - float(m) * jw_identity(window)[:, cols]
    return lhs


def assert_safe_columns_vanish(window, res, margin):
    res = sp.csr_matrix(res)
    res.eliminate_zeros()
    bad_cols = np.unique(res.tocoo().col)
    for col in bad_cols:
        assert not mask_is_safe(window, int(col), margin), (
            f"identity fails on safe mask {int(col):b} at margin {margin}"
        )


class TestCommutator:
    def test_single_color_full_space_sweep(self):
        # margin |m| + |n| must leave interior room: at N = 3 that is <= 2
        w = W31
        for m in range(-2, 3):
            for n in range(-2, 3):
                margin = abs(m) + abs(n)
                if margin > w.N - 1:
                    continue
                res = commutator_residual_matrix(1, 1, 1, 1, m, n, w)
                assert_safe_columns_vanish(w, res, margin)

    def test_single_color_wide_transfer_central_term(self):
        # transfer 2 against -2 needs margin 4, hence a window of N = 5
        w = FockWindow(1, 5, "1/2")
        res = commutator_residual_matrix(1, 1, 1, 1, 2, -2, w)
        assert_safe_columns_vanish(w, res, 4)
        # the central term is load bearing: dropping it breaks the vacuum column
        res_wrong = res + 2.0 * jw_identity(w)
        vac_col = np.abs(res_wrong.tocsc()[:, w.sea_mask()].toarray())
        assert vac_col.max() == 2.0

    def test_two_color_full_space_sweep(self):
        w = FockWindow(2, 3, "1/2")
        for i, j, k, l in [(1, 1, 1, 1), (1, 2, 2, 1), (1, 1, 2, 2), (2, 1, 1, 2), (1, 2, 1, 2)]:
            for m, n in [(0, 0), (1, 0), (1, -1), (-1, 1), (0, 1), (1, 1)]:
                res = commutator_residual_matrix(i, j, k, l, m, n, w)
                assert_safe_columns_vanish(w, res, abs(m) + abs(n))

    def test_library_check_single_color(self):
        assert commutator_check(FockWindow(1, 4, "1/2"), [(1, 1, 1, 1, 1, -1)]) == 0.0

    def test_library_check_two_color_central(self):
        assert commutator_check(FockWindow(2, 6, "1/2"), [(1, 2, 2, 1, 2, -2)]) == 0.0

    def test_library_check_disjoint_colors(self):
        assert commutator_check(FockWindow(2, 4, "1/2"), [(1, 1, 2, 2, 1, 1)]) == 0.0

    def test_margin_exceeding_window_rejected(self):
        with pytest.raises(ResolutionError, match="increase N"):
            commutator_check(FockWindow(1, 2, "1/2"), [(1, 1, 1, 1, 2, -2)])

    @pytest.mark.parametrize(
        "batch_entries", [fock.MAX_BATCH_ENTRIES, 2**40], ids=["declared", "one-per-margin"]
    )
    @pytest.mark.parametrize("planted", [False, True], ids=["clean", "sigma12-defect"])
    def test_batched_check_is_the_worst_per_tuple_residual(self, monkeypatch, planted, batch_entries):
        # every tuple of a two-color sweep at 1 in one call, against the max
        # of each tuple's dense oracle residual on its own safe columns.  The
        # defect sits in the one current sigma(e^{12}_1), so tuples differ.
        # Swapping the two currents negates a tuple's residual and the sweep
        # holds both, so one batch per margin that merged the tuples' columns
        # would read 0.0.
        w = FockWindow(2, 4, "1/2")
        monkeypatch.setattr(fock, "MAX_BATCH_ENTRIES", batch_entries)
        real, oracle = fock.sigma, oracle_sigma

        def defective(i, j, n, window, cut=None):
            op = real(i, j, n, window, cut)
            return flip_middle_hop(op) if (i, j, n) == (1, 2, 1) else op

        flipped = operator_matrix(flip_middle_hop(real(1, 2, 1, w)))

        def oracle_defective(i, j, n, window, cut=None):
            return flipped if (i, j, n) == (1, 2, 1) else oracle(i, j, n, window, cut)

        if planted:
            monkeypatch.setattr(fock, "sigma", defective)
            monkeypatch.setattr(sys.modules[__name__], "oracle_sigma", oracle_defective)
        tuples = list(itertools.product((1, 2), (1, 2), (1, 2), (1, 2), (-1, 0, 1), (-1, 0, 1)))
        want = 0.0
        for i, j, k, l, m, n in tuples:
            cols = fock._safe_block(w, 2, abs(m) + abs(n))[0]
            res = commutator_residual_matrix(i, j, k, l, m, n, w, cols)
            want = max(want, float(np.abs(sp.csr_matrix(res).data).max(initial=0.0)))
        assert (want > 0.0) == planted
        assert commutator_check(w, tuples) == want


SWEEP_AT_1 = list(itertools.product((1, 2), (1, 2), (1, 2), (1, 2), (-1, 0, 1), (-1, 0, 1)))


def batch_sizes(monkeypatch):
    """The list that collects the tuple count of every batch reaching fock._batch_parts."""
    seen = []
    real = fock._batch_parts
    monkeypatch.setattr(fock, "_batch_parts", lambda block, batch: seen.append(len(batch)) or real(block, batch))
    return seen


class TestCanonicalPairs:
    @pytest.mark.parametrize(
        "defect", [None, (1, 2, 1), (2, 2, 1)], ids=["clean", "sigma12-defect", "sigma22-defect"]
    )
    def test_order_of_the_two_currents_does_not_change_the_residual(self, monkeypatch, defect):
        # the sweep, its tuples swapped, and its canonical tuples alone read
        # the same worst residual.  sigma(e^{22}_1) sorts last of the sweep's
        # currents, so its defect is met only as the second current of its
        # canonical pairs, and the dense oracle must still see it
        w = FockWindow(2, 4, "1/2")
        swapped = [(k, l, i, j, n, m) for i, j, k, l, m, n in SWEEP_AT_1]
        canonical = [t for t in SWEEP_AT_1 if (t[0], t[1], t[4]) <= (t[2], t[3], t[5])]
        assert len(canonical) == 12 * 13 // 2  # 12 currents: 2 x 2 colors, 3 transfers
        if defect is not None:
            real_sigma = fock.sigma

            def defective(i, j, n, window, cut=None):
                op = real_sigma(i, j, n, window, cut)
                return flip_middle_hop(op) if (i, j, n) == defect else op

            monkeypatch.setattr(fock, "sigma", defective)
        got = commutator_check(w, SWEEP_AT_1)
        assert commutator_check(w, swapped) == got
        assert commutator_check(w, canonical) == got
        assert (got > 0.0) == (defect is not None)
        if defect == (2, 2, 1):
            flipped = operator_matrix(fock.sigma(2, 2, 1, w))
            real = oracle_sigma
            monkeypatch.setattr(
                sys.modules[__name__],
                "oracle_sigma",
                lambda i, j, n, window, cut=None: flipped if (i, j, n) == defect else real(i, j, n, window, cut),
            )
            want = 0.0
            for i, j, k, l, m, n in SWEEP_AT_1:
                cols = fock._safe_block(w, 2, abs(m) + abs(n))[0]
                res = commutator_residual_matrix(i, j, k, l, m, n, w, cols)
                want = max(want, float(np.abs(sp.csr_matrix(res).data).max(initial=0.0)))
            assert got == want

    def test_fock_battery_sweeps_each_unordered_pair_once(self, monkeypatch):
        # the default sweep has 20 currents (2 x 2 colors, 5 transfers): 400
        # ordered tuples, 20 * 21 / 2 = 210 unordered pairs
        from gerbetool.cli import COMMANDS

        seen = batch_sizes(monkeypatch)
        decl = COMMANDS["fock"]
        rows = {name: thunk for name, _, thunk in decl.battery(dict(decl.defaults), 0)}
        assert rows["commutator-sweep"]() == 0.0
        assert sum(seen) == 210

    def test_duplicates_are_evaluated_once(self, monkeypatch):
        seen = batch_sizes(monkeypatch)
        tuples = [(1, 2, 2, 1, 1, -1), (2, 1, 1, 2, -1, 1), (1, 2, 2, 1, 1, -1), [2, 1, 1, 2, -1, 1]]
        assert commutator_check(FockWindow(2, 4, "1/2"), tuples) == 0.0
        assert seen == [1]


def car_residual_four_orders(window, pair_cap=2):
    """car_residual's engine run on all four orders of (X, Y), each creating or destroying."""
    keep = basis_dimension(window.n_slots, pair_cap - 1)
    if not keep:
        return 0.0
    n = window.n_slots
    slots, ones = np.arange(n), np.ones(n)
    block = fock._unit_block(graded_basis(window, pair_cap).masks[:keep])

    def each_label(block, create, weight):
        to, source = (slots, None) if create else (None, slots)
        return fock._hop_parts(block, ones, to, source, weight)

    diag = np.tile(block[0], n), np.add.outer(keep * (n + 1) * slots, block[1]).ravel()
    worst = 0.0
    for x_creates, y_creates in itertools.product((True, False), repeat=2):
        parts = [
            each_label(each_label(block, y_creates, keep * n), x_creates, keep),
            each_label(each_label(block, x_creates, keep), y_creates, keep * n),
        ]
        if x_creates != y_creates:
            parts.append((*diag, -np.ones(n * keep)))
        worst = np.maximum(worst, fock._max_abs(fock._sum_keys(parts)))
    return float(worst)


def also_hops_back(create):
    """A _hop_parts whose lone creators (or destroyers) also apply the opposite mode operator.

    psi_a + psibar_a keeps every {creator, destroyer} relation, since
    {psibar_a, psibar_b} = 0, and breaks only {psi_a, psi_b}: the defect is
    seen by the (create, create) order alone, and its mirror by
    (destroy, destroy) alone.
    """

    def planted(real):
        def hop_parts(block, amps, s_to, s_from, hop_weight=0):
            parts = real(block, amps, s_to, s_from, hop_weight)
            if (s_from if create else s_to) is not None:
                return parts
            back = real(block, amps, s_from, s_to, hop_weight)
            return tuple(np.concatenate(pair) for pair in zip(parts, back))

        return hop_parts

    return planted


def negated_destroyers(real):
    """A _hop_parts whose lone destroyers carry the sign -1: only {creator, destroyer} sees it."""

    def hop_parts(block, amps, s_to, s_from, hop_weight=0):
        return real(block, -amps if s_to is None else amps, s_to, s_from, hop_weight)

    return hop_parts


class TestCarThreeOrders:
    @pytest.mark.parametrize(
        "owner, planted",
        [
            (None, None),
            ("_parities", lambda real: lambda masks: masks & 0),
            ("_parities", lambda real: lambda masks: real(masks) ^ (masks & 1)),
            ("_parities", lambda real: lambda masks: real(masks) ^ ((masks >> 3) & 1)),
            ("_hop_parts", also_hops_back(create=True)),
            ("_hop_parts", also_hops_back(create=False)),
            ("_hop_parts", negated_destroyers),
        ],
        ids=[
            "clean",
            "all-even",
            "slot0-flips",
            "slot3-flips",
            "creator-destroys",
            "destroyer-creates",
            "destroyer-negated",
        ],
    )
    @pytest.mark.parametrize(
        "window, cap",
        [(FockWindow(2, 3, "1/2"), 2), (FockWindow(1, 3, "-1/2"), 3)],
        ids=["c2N3", "c1N3-cap3"],
    )
    def test_matches_the_four_order_loop(self, monkeypatch, owner, planted, window, cap):
        if planted is not None:
            monkeypatch.setattr(fock, owner, planted(getattr(fock, owner)))
        want = car_residual_four_orders(window, cap)
        assert car_residual(window, cap) == want
        assert (want > 0.0) == (planted is not None)


def plant_band(monkeypatch, change):
    """Make fock._transport_modes hand on its band of modes through `change`."""
    real = fock._transport_modes

    def planted(window, mu):
        mu, modes = real(window, mu)
        return mu, change(modes)

    monkeypatch.setattr(fock, "_transport_modes", planted)


class TestBogoliubov:
    def test_trivial_shift_returns_vacuum(self):
        vec, unannihilated = bogoliubov_vacuum(W31, "3/4")
        assert unannihilated == ()
        assert amplitude(vec, W31.sea_mask()) == 1.0
        assert len(vec[0]) == 1

    def test_single_color_two_mode_shift(self):
        vec, unannihilated = bogoliubov_vacuum(W31, "5/2")
        assert unannihilated == ()
        mask = W31.sea_mask() | 1 << W31.slot(1, 1) | 1 << W31.slot(1, 2)
        assert amplitude(vec, mask) == 1.0
        assert len(vec[0]) == 1

    def test_two_color_one_mode_shift(self):
        vec, unannihilated = bogoliubov_vacuum(W22, "3/2")
        assert unannihilated == ()
        mask = W22.sea_mask() | 1 << W22.slot(1, 1) | 1 << W22.slot(2, 1)
        assert amplitude(vec, mask) == 1.0

    def test_reverse_string_recovers_vacuum(self):
        vec, _ = bogoliubov_vacuum(W31, "5/2")
        back = lone_parts(lone_parts(vec, W31.slot(1, 1), False), W31.slot(1, 2), False)
        assert amplitude(back, W31.sea_mask()) == 1.0
        assert len(back[0]) == 1

    def test_oracle_annihilation_properties(self):
        # the shifted vacuum fills every mode below 5/2 and nothing above
        (masks, _, amps), _ = bogoliubov_vacuum(W31, "5/2")
        e = np.zeros(2**W31.n_slots, dtype=complex)
        e[masks] = amps
        for mode in range(-3, 4):
            s = W31.slot(1, mode)
            out = jw(W31, s, mode < 2.5) @ e
            assert np.abs(out).max() == 0.0

    @pytest.mark.parametrize(
        "window, mu, change, named",
        [
            (W31, "5/2", lambda modes: modes + [modes[-1] + 1], ("psibar^1_-3",)),
            (W22, "3/2", lambda modes: modes + [modes[-1] + 1], ("psibar^1_-2", "psibar^2_-2")),
            (W31, "5/2", lambda modes: modes[:-1], ("psi^1_2",)),
        ],
        ids=["extra-mode", "extra-mode-two-colors", "missing-mode"],
    )
    def test_unannihilated_vacuum_names_the_first_operator(
        self, monkeypatch, window, mu, change, named
    ):
        # a band one mode too wide fills a slot above mu (its destroyer does not
        # annihilate), one mode too narrow leaves a slot below mu empty; each
        # operator that acts is named, in slot order
        plant_band(monkeypatch, change)
        (masks, _, amps), unannihilated = bogoliubov_vacuum(window, mu)
        assert unannihilated == named
        assert len(masks) == 1 and abs(amps[0]) == 1.0

    def test_annihilated_string_is_not_a_unit_product_state(self, monkeypatch):
        # a creator repeated in the string annihilates the state
        plant_band(monkeypatch, lambda modes: modes * 2)
        with pytest.raises(ConsistencyError, match="not a unit product state"):
            bogoliubov_vacuum(W31, "5/2")

    def test_band_exiting_window_rejected(self):
        with pytest.raises(RangeError, match="exits the window"):
            bogoliubov_vacuum(W31, "9/2")

    def test_backward_shift_rejected(self):
        with pytest.raises(ArgumentError, match="exceed"):
            bogoliubov_vacuum(W31, "-1/2")

    def test_integer_target_rejected(self):
        with pytest.raises(ValidationError, match="non-integer"):
            bogoliubov_vacuum(W31, 2)


class TestCutShift:
    def test_diagonal_charge_shifts_by_mode_count(self):
        res, n_shift = cut_shift_check(1, 1, 0, W31, "5/2")
        assert res == 0.0
        assert n_shift == 2

    def test_off_diagonal_current_unchanged(self):
        w = W22
        res, n_shift = cut_shift_check(1, 2, 0, w, "3/2")
        assert res == 0.0 and n_shift == 1
        assert sigma(1, 2, 0, w, cut="3/2").hops == sigma(1, 2, 0, w).hops
        assert sigma(1, 2, 0, w, cut="3/2").scalar == sigma(1, 2, 0, w).scalar == 0.0

    def test_nonzero_transfer_unchanged(self):
        res, n_shift = cut_shift_check(1, 1, 1, W31, "3/2")
        assert res == 0.0 and n_shift == 1

    def test_oracle_operator_difference_is_scalar(self):
        # the whole cut-shift identity, verified on the full oracle space
        diff = oracle_sigma(1, 1, 0, W31, cut="5/2") - oracle_sigma(1, 1, 0, W31)
        assert exact_equal(diff, -2.0 * jw_identity(W31))


class TestProjectiveEquality:
    def test_diagonal_generator(self):
        res = projective_equality_check([(1.0, 1, 1, 0)], 0.3, W31, "5/2")
        assert res <= 1e-10

    def test_matches_dense_exponential_oracle(self):
        w = W31
        t, n_shift = 0.3, 2
        lam_m = oracle_sigma(1, 1, 0, w).toarray()
        mu_m = oracle_sigma(1, 1, 0, w, cut="5/2").toarray()
        lhs = expm(t * mu_m)
        rhs = np.exp(-t * n_shift) * expm(t * lam_m)
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_traceless_generator_is_exactly_projective_trivial(self):
        res = projective_equality_check(
            [(1.0, 1, 1, 0), (-1.0, 2, 2, 0)], 0.4, FockWindow(2, 3, "1/2"), "3/2"
        )
        assert res == 0.0

    def test_zero_time_is_exact(self):
        assert projective_equality_check([(1.0, 1, 1, 0)], 0.0, W31, "5/2") == 0.0

    def test_off_diagonal_mixture(self):
        res = projective_equality_check(
            [(1.0, 1, 1, 0), (0.5, 1, 1, 1), (0.5, 1, 1, -1)], 0.25, W31, "5/2"
        )
        assert res <= 1e-10


class TestGradedBasisEngine:
    @pytest.mark.parametrize(
        "window", [W31, W22, FockWindow(2, 6, "1/2")], ids=["c1N3", "c2N2", "c2N6"]
    )
    @pytest.mark.parametrize("cap", [2, 3])
    def test_cached_masks_follow_enumeration(self, window, cap):
        masks = graded_basis(window, cap).masks
        assert masks.dtype == np.int64
        assert masks.tolist() == enumerate_states(window, cap)
        assert len(masks) == basis_dimension(window.n_slots, cap)
        assert graded_basis(window, cap) is graded_basis(window, cap)

    @pytest.mark.parametrize("margin", [0, 1, 2, 3])
    def test_safe_columns_match_oracle_predicate(self, margin):
        w = FockWindow(2, 3, "1/2")
        masks = graded_basis(w, 3).masks.tolist()
        want = [k for k, mask in enumerate(masks) if mask_is_safe(w, mask, margin)]
        assert fock._safe_columns(w, 3, margin).tolist() == want

    @pytest.mark.parametrize("margin", [0, 2])
    def test_safe_states_are_the_safe_fock_states(self, margin):
        w = FockWindow(2, 3, "1/2")
        want = [mask for mask in enumerate_states(w, 3) if mask_is_safe(w, mask, margin)]
        assert fock._safe_block(w, 3, margin)[0].tolist() == want

    def test_parities_match_bit_counts(self):
        rng = np.random.default_rng(0)
        masks = rng.integers(0, 1 << 62, size=200, dtype=np.int64)
        want = [bin(m).count("1") & 1 for m in masks.tolist()]
        assert fock._parities(masks).tolist() == want

    def test_matrices_need_no_numpy_2_api(self, monkeypatch):
        # numpy >= 1.24 is supported; bitwise_count exists only from 2.0
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        assert car_residual(W22, 2) == 0.0
        basis = graded_basis(W22, 2)
        assert mode_matrix(basis, W22.slot(2, 1), True).nnz > 0
        assert csr(sigma(1, 2, 1, W22).matrix(basis), basis).nnz > 0

    def test_rows_find_members_and_reject_outsiders(self):
        basis = graded_basis(W22, 2)
        masks = basis.masks
        assert basis.rows(masks[::-1]).tolist() == list(range(len(masks)))[::-1]
        full = np.int64((1 << W22.n_slots) - 1)
        assert basis.rows(np.array([full], dtype=np.int64)).tolist() == [-1]

    def test_planted_sign_defect_is_caught(self, monkeypatch):
        # one hop of every current flips sign: the block check must see it
        real = fock.sigma

        def flipped(i, j, n, window, cut=None):
            op = real(i, j, n, window, cut)
            hops = list(op.hops)
            a, s_to, s_from = hops[len(hops) // 2]
            hops[len(hops) // 2] = (-a, s_to, s_from)
            return SparseOperator(window, hops, op.scalar)

        w = FockWindow(1, 4, "1/2")
        assert commutator_check(w, [(1, 1, 1, 1, 1, 0)]) == 0.0
        monkeypatch.setattr(fock, "sigma", flipped)
        assert commutator_check(w, [(1, 1, 1, 1, 1, 0)]) > 0.0

    def test_probe_block_width_does_not_change_the_residual(self, monkeypatch):
        w = FockWindow(2, 4, "1/2")
        terms = [(1.0, 1, 1, 1), (-1.0, 1, 1, -1), (0.5, 1, 2, 0)]
        wide = projective_equality_check(terms, 0.35, w, "5/2")
        monkeypatch.setattr(fock, "_PROBE_BLOCK", 1)
        assert projective_equality_check(terms, 0.35, w, "5/2") == wide

    @pytest.mark.parametrize(
        "terms",
        [[(1 + 0j, 1, 1, 0)], [(1.0, 1, 1, 0), (1j, 2, 2, 0), (-1j, 2, 2, 0)]],
        ids=["complex-typed", "cancelling-imaginary"],
    )
    def test_complex_typed_real_generator(self, terms):
        # the matrices are real but the trace factor is complex-typed
        assert projective_equality_check(terms, 0.35, W22, "3/2") <= 1e-12

    def test_car_residual_exact(self):
        assert car_residual(FockWindow(2, 3, "1/2"), 2) == 0.0
        assert car_residual(FockWindow(1, 3, "-1/2"), 3) == 0.0


class TestCostModel:
    def test_dimension_formula(self):
        assert basis_dimension(26, 3) == 2952
        assert basis_dimension(51, 3) == 22152
        assert basis_dimension(W22.n_slots, 2) == len(enumerate_states(W22, 2))

    def test_oversized_basis_rejected_before_allocating(self):
        w = FockWindow(2, 6, "1/2")
        assert basis_dimension(w.n_slots, 9) > MAX_BASIS_DIM
        with pytest.raises(ResourceError, match="cap"):
            graded_basis(w, 9)
        with pytest.raises(ResourceError, match="cap"):
            enumerate_states(w, 9)

    def test_mask_width_bounded(self):
        with pytest.raises(ResourceError, match="62-bit"):
            graded_basis(FockWindow(3, 11, "1/2"), 0)

    @pytest.mark.parametrize(
        "window, t, cap",
        [(W31, 1e6, 2), (FockWindow(2, 6, "1/2"), 50.0, 3)],
        ids=["small-matrix", "default-window"],
    )
    def test_exponential_work_bounded(self, window, t, cap):
        # t = 50 on the CLI's default window would take minutes of products
        terms = [(1.0, 1, 1, 1), (-1.0, 1, 1, -1)]
        with pytest.raises(ResourceError, match="over the cap"):
            projective_equality_check(terms, t, window, "5/2", pair_cap=cap)

    @pytest.mark.parametrize(
        "terms",
        [[(math.nan, 1, 1, 0)], [(1.0, 1, 1, 1), (math.nan, 1, 1, -1)]],
        ids=["charge", "transfer-pair"],
    )
    def test_nan_coefficient_raises(self, terms):
        # the NaN reaches ||mat||_1, so the schedule refuses it before any product
        with pytest.raises(PrecisionError, match="not finite"):
            projective_equality_check(terms, 0.35, W31, "5/2", pair_cap=2)

    def test_overflowing_exponential_raises(self):
        # the Taylor steps overflow to inf and NaN; that must not read as a pass
        with pytest.raises(PrecisionError, match="overflow"):
            projective_equality_check([(1.0, 1, 1, 0)], 400.0, W31, "5/2", pair_cap=2)


def flip_middle_hop(op):
    """The operator with the sign of its middle hop flipped (a planted defect)."""
    hops = list(op.hops)
    a, s_to, s_from = hops[len(hops) // 2]
    hops[len(hops) // 2] = (-a, s_to, s_from)
    return SparseOperator(op.window, hops, op.scalar)


# 62 slots: the widest occupation mask the cost model admits.  A column
# index packed above the slot bits would wrap in int64 here.
W62 = FockWindow(2, 15, "1/2")


class TestWidestMask:
    def test_window_is_admitted(self):
        assert W62.n_slots == fock.MASK_BITS
        assert len(graded_basis(W62, 2)) == basis_dimension(W62.n_slots, 2)
        assert len(fock._safe_columns(W62, 2, 2)) > 2**10

    @pytest.mark.parametrize(
        "args",
        [(1, 1, 1, 1, 1, -1), (1, 2, 2, 1, 2, -2), (2, 1, 1, 2, 1, 1), (1, 2, 2, 1, 0, 0)],
    )
    def test_commutator_exact(self, args):
        assert commutator_check(W62, [args]) == 0.0

    @pytest.mark.parametrize("i, j, n", [(1, 1, 0), (1, 2, 1)])
    def test_cut_shift_exact(self, i, j, n):
        assert cut_shift_check(i, j, n, W62, "7/2") == (0.0, 3)

    def test_block_keeps_columns_apart(self):
        # an exact identity reads 0.0 even when columns merge, so compare
        # the block image with each column applied on its own
        masks, cols, amps = fock._safe_block(W62, 2, 2)
        op = sigma(1, 2, 1, W62) + sigma(2, 1, -1, W62) + sigma(2, 2, 0, W62)
        image = fock._sum_keys(op._image_parts((masks, cols, amps)))
        got = sorted((c, m, a) for m, c, a in zip(*map(np.ndarray.tolist, image)) if a)
        want = sorted(
            (k, m, a)
            for k, mask in enumerate(masks.tolist())
            for m, _, a in zip(*map(np.ndarray.tolist, op.apply(fock._unit_block(masks[k:k + 1]))))
            if a
        )
        assert len(got) > len(masks) and got == want

    def test_planted_sign_defect_is_caught(self, monkeypatch):
        real = fock.sigma
        monkeypatch.setattr(fock, "sigma", lambda *a, **kw: flip_middle_hop(real(*a, **kw)))
        for args in [(1, 1, 1, 1, 1, 0), (1, 2, 2, 1, 2, -2), (2, 1, 1, 2, 1, 1)]:
            assert commutator_check(W62, [args]) == 2.0

    def test_planted_cut_shift_defect_is_caught(self, monkeypatch):
        real = fock.sigma

        def flip_mu_current(i, j, n, window, cut=None):
            op = real(i, j, n, window, cut)
            return op if cut is None else flip_middle_hop(op)

        monkeypatch.setattr(fock, "sigma", flip_mu_current)
        for i, j, n in [(1, 1, 0), (1, 2, 1)]:
            residual, _ = cut_shift_check(i, j, n, W62, "7/2")
            assert residual > 0.0


class TestBlockEngine:
    @pytest.mark.parametrize("window", [W31, FockWindow(2, 6, "1/2")], ids=["c1N3", "c2N6"])
    def test_central_term_exact(self, window):
        assert fock.central_term_check(window) == 0.0

    def test_reversed_current_orientation_is_caught(self, monkeypatch):
        # [sigma_{-m}, sigma_m] has vacuum expectation -m: residual 2m, 4 at m = 2
        real = fock.sigma
        monkeypatch.setattr(
            fock, "sigma", lambda i, j, n, window, cut=None: real(i, j, -n, window, cut)
        )
        assert fock.central_term_check(W31) == 4.0

    def test_apply_sums_equal_keys_like_the_oracle(self):
        rng = np.random.default_rng(3)
        w = W22
        dim = 2**w.n_slots
        v = rng.standard_normal(dim)
        for op in (sigma(1, 1, 0, w), sigma(1, 2, 1, w) + sigma(2, 1, -1, w)):
            got = dense(op.apply(vector_block(v)), dim)
            assert np.abs(got - operator_matrix(op) @ v).max() <= 1e-12


# The CLI's default fock window and its three projective generators.
W26 = FockWindow(2, 6, "1/2")
GENERATORS = {
    "transfer-pair": [(1.0, 1, 1, 1), (-1.0, 1, 1, -1)],
    "color-mixing": [(0.5, 1, 2, 0), (0.5, 2, 1, 0)],
    "charge": [(1.0, 1, 1, 0)],
}


def generator_matrix(terms, cut):
    """The library compression of sum c * sigma(i, j, n) onto the cap-3 basis of W26."""
    op = SparseOperator(W26)
    for c, i, j, n in terms:
        op = op + c * sigma(i, j, n, W26, cut=cut)
    return op.matrix(graded_basis(W26, 3))


def expm_on_rows(mat, reach, block, t):
    """The library exponential of mat's principal submatrix on the rows `reach` marks."""
    table = fock._row_table(mat, reach)
    return fock._expm_multiply(table, block, t, fock._norm1(mat), len(mat[2]))


class TestTaylorSchedule:
    @pytest.mark.parametrize("cut", [None, "5/2"], ids=["lam", "mu"])
    @pytest.mark.parametrize("name", list(GENERATORS))
    def test_matches_scipy_expm_multiply(self, name, cut):
        from scipy.sparse.linalg import expm_multiply

        basis = graded_basis(W26, 3)
        mat = generator_matrix(GENERATORS[name], cut)
        probes = fock._safe_columns(W26, 2, 1)[:16]
        block = np.zeros((len(basis), len(probes)))
        block[probes, np.arange(len(probes))] = 1.0
        got = expm_on_rows(mat, np.ones(len(basis), dtype=bool), block, 0.35)
        want = expm_multiply(0.35 * csr(mat, basis), block)
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize(
        "name, cut, schedule",
        [
            ("transfer-pair", None, (2, 18)),
            ("transfer-pair", "5/2", (2, 18)),
            ("color-mixing", None, (1, 14)),
            ("color-mixing", "5/2", (1, 14)),
            ("charge", None, (1, 18)),
            ("charge", "5/2", (1, 22)),
        ],
    )
    def test_schedule_is_pinned(self, name, cut, schedule):
        # (steps, degree); power-of-two steps at theta <= 0.5 took (8, 10),
        # (2, 10), (4, 10) and (4, 12)
        mat = csr(generator_matrix(GENERATORS[name], cut), graded_basis(W26, 3))
        norm_t = 0.35 * float(np.abs(mat).sum(axis=0).max())
        assert fock._taylor_schedule(norm_t, fock._UNIT_ROUNDOFF) == schedule

    def test_battery_product_count(self, monkeypatch):
        real = fock._taylor_schedule
        seen = []

        def spy(norm_t, tol):
            seen.append(real(norm_t, tol))
            return seen[-1]

        monkeypatch.setattr(fock, "_taylor_schedule", spy)
        for terms in GENERATORS.values():
            assert projective_equality_check(terms, 0.35, W26, "5/2", pair_cap=3) <= 1e-14
        assert len(seen) == 120
        assert sum(steps * degree for steps, degree in seen) == 2648

    @pytest.mark.parametrize("tol", [1e-12, 2.0**-53])
    @pytest.mark.parametrize("norm_t", [0.0, 1e-9, 0.5, 2.0, 2.1, 37.0, 1e4])
    def test_schedule_meets_its_bounds(self, norm_t, tol):
        steps, degree = fock._taylor_schedule(norm_t, tol)
        theta = norm_t / steps
        assert steps >= 1 and 1 <= degree <= 60
        assert theta <= fock._THETA_MAX
        assert fock._tail_bound(theta, degree) <= tol
        # fewer steps break a condition at this degree
        for fewer in range(max(1, steps - 3), steps):
            theta = norm_t / fewer
            assert theta > fock._THETA_MAX or fock._tail_bound(theta, degree) > tol
        # no pair at another degree meets both conditions for fewer products:
        # the most steps that would cost less leave theta too large
        for other in range(1, 61):
            most = (steps * degree - 1) // other
            if other != degree and most >= 1:
                theta = norm_t / most
                assert theta > fock._THETA_MAX or fock._tail_bound(theta, other) > tol


# The real generators and a complex one, whose matrices keep complex data.
REACH_GENERATORS = {
    **GENERATORS,
    "complex": [(0.5j, 1, 2, 1), (0.5j, 2, 1, -1), (0.25 - 0.5j, 1, 1, 0)],
}


class TestReachedRows:
    """Each probe block's exponential on the rows it reaches, set back into every row.

    The projective residual cannot see a reached set that drops a row: both
    sides lose the same entries.  So the kept rows are compared with scipy's
    exponential on the full matrix, which must be exactly 0 on every other row.
    """

    @pytest.mark.parametrize("cut", [None, "5/2"], ids=["lam", "mu"])
    @pytest.mark.parametrize("name", list(REACH_GENERATORS))
    def test_reached_rows_match_the_full_exponential(self, name, cut):
        from scipy.sparse.linalg import expm_multiply

        basis = graded_basis(W26, 3)
        mat = generator_matrix(REACH_GENERATORS[name], cut)
        rows, cols, _ = mat
        probes = fock._safe_columns(W26, 2, 1)
        unit = np.zeros((len(basis), len(probes)))
        unit[probes, np.arange(len(probes))] = 1.0
        want = expm_multiply(0.35 * csr(mat, basis), unit)
        for start in range(0, len(probes), fock._PROBE_BLOCK):
            block = slice(start, start + fock._PROBE_BLOCK)
            reach = fock._reached_rows((rows, cols), probes[block], len(basis))
            # closed: no entry leads from a kept column to a dropped row
            assert reach[rows[reach[cols]]].all()
            assert (want[~reach, block] == 0).all()
            got = np.zeros(want[:, block].shape, dtype=complex)
            got[reach] = expm_on_rows(mat, reach, unit[reach, block], 0.35)
            assert np.abs(got - want[:, block]).max() <= 1e-12


# Three colors at N = 8: 51 slots, 1 327 states at pair cap 2, 22 152 at 3.
W51 = FockWindow(3, 8, "1/2")


class TestThreeColorWindow:
    def test_basis_sizes(self):
        assert len(graded_basis(W51, 2)) == 1327
        assert len(graded_basis(W51, 3)) == 22152

    @pytest.mark.parametrize(
        "args, cap",
        [
            ((1, 2, 2, 3, 1, -1), 2),
            ((1, 2, 2, 1, 2, -2), 2),
            ((3, 3, 3, 3, 1, 0), 2),
            ((1, 3, 3, 1, 0, 0), 2),
            ((1, 2, 2, 1, 1, -1), 3),
        ],
    )
    def test_commutator_exact(self, args, cap):
        assert commutator_check(W51, [args], pair_cap=cap) == 0.0

    @pytest.mark.parametrize("i, j, n", [(1, 1, 0), (2, 3, 1), (3, 3, -2)])
    def test_cut_shift_exact(self, i, j, n):
        assert cut_shift_check(i, j, n, W51, "5/2") == (0.0, 2)

    def test_projective_exponential(self):
        terms = [(1.0, 1, 1, 0), (0.5, 2, 3, 1), (0.5, 3, 2, -1)]
        assert projective_equality_check(terms, 0.35, W51, "5/2", pair_cap=2) <= 1e-10


def operator_arrays(op):
    return op._amps, op._to, op._from


class TestCaches:
    """sigma and _safe_block hand out shared, cached objects that no caller may change."""

    @pytest.mark.parametrize("cut", [None, "5/2"], ids=["lam", "mu"])
    def test_repeated_currents_are_shared_and_read_only(self, cut):
        first = sigma(1, 2, 1, W26, cut=cut)
        again = sigma(1, 2, 1, W26, cut=cut)
        assert again is first
        assert not any(arr.flags.writeable for arr in operator_arrays(first))
        with pytest.raises(ValueError, match="read-only"):
            first._amps[0] = 5.0

    def test_cut_at_the_window_cut_shares_the_default_current(self):
        assert sigma(1, 1, 0, W26, cut="1/2") is sigma(1, 1, 0, W26)

    def test_arithmetic_leaves_the_cached_current_unchanged(self):
        op = sigma(1, 1, 0, W26, cut="5/2")
        hops, scalar = op.hops, op.scalar
        arrays = [arr.copy() for arr in operator_arrays(op)]
        other = sigma(1, 1, 0, W26)
        results = [op + other, op - other, other - op, 2.0 * op, -1.0 * op, (1 + 1j) * op]
        assert all(r is not op for r in results)
        assert op.hops == hops and op.scalar == scalar
        assert all(np.array_equal(a, b) for a, b in zip(operator_arrays(op), arrays))
        assert sigma(1, 1, 0, W26, cut="5/2") is op
        assert (2.0 * op).hops == tuple((2.0 * a, t, f) for a, t, f in hops)

    def test_safe_block_is_shared_and_read_only(self):
        block = fock._safe_block(W26, 2, 1)
        assert fock._safe_block(W26, 2, 1) is block
        assert not any(arr.flags.writeable for arr in block)
        assert block[0].tolist() == graded_basis(W26, 2).masks[fock._safe_columns(W26, 2, 1)].tolist()

    def test_default_battery_builds_each_current_once(self, monkeypatch):
        from gerbetool.cli import run_scenario, validate_scenario

        real = fock.sigma
        asked = []

        def spy(i, j, n, window, cut=None):
            asked.append((i, j, n, window, window.cut if cut is None else Fraction(cut)))
            return real(i, j, n, window, cut)

        monkeypatch.setattr(fock, "sigma", spy)
        fock._current.cache_clear()
        report = run_scenario(*validate_scenario({"command": "fock"})[:3])
        assert report["status"] == "pass"
        built = fock._current.cache_info().misses
        assert built == len(set(asked)) and len(asked) > 10 * built
