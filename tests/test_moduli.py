"""Surface-group representation points and the parameter-space pairing.

Oracles:
  * relation and holonomy products recomputed with conjugate-transpose
    inverses (the library route uses np.linalg.inv);
  * commutant dimension as n^2 - rank of the stacked Sylvester system;
  * the winding family's curvature density in closed form.  All potentials
    point along T1, with <T1, T1> = 2, so every commutator drops and the
    density reduces to
        -2 w1 w2 + eps^2 sin(2 pi x0) sin(2 pi x2),
    whose torus integral is the model value -2 w1 w2 (adjoint route: x4).
"""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from scipy.linalg import expm

from gerbetool import cli, spectral
from gerbetool.caloron import pontryagin_densities, sample_connection
from gerbetool.errors import ArgumentError, ValidationError
from gerbetool.liealg import Representation
from gerbetool.moduli import (
    LoopWord,
    ModuliFamily,
    SurfaceGroupRep,
    conjugate,
    generic_genus2_su2,
    holonomy,
    holonomy_path,
    irreducibility_check,
    random_special_unitary,
    relation_check,
    standard_genus2_su2,
)
from gerbetool.moduli import _seam_check, _sylvester_stack
from gerbetool.spectral import SpectralCut, spectral_flow

TWO_PI = 2.0 * math.pi
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)


def oracle_relation_residual(rep):
    """Product of group commutators using adjoint inverses."""
    acc = np.eye(rep.n, dtype=complex)
    for i in range(rep.genus):
        a = rep.generators[2 * i]
        b = rep.generators[2 * i + 1]
        acc = acc @ a @ b @ a.conj().T @ b.conj().T
    return float(np.abs(acc - rep.z * np.eye(rep.n)).max())


def oracle_holonomy(rep, letters):
    acc = np.eye(rep.n, dtype=complex)
    for i, e in letters:
        g = rep.generators[i - 1]
        acc = acc @ (g if e == 1 else g.conj().T)
    return acc


def oracle_sylvester_stack(rep):
    eye = np.eye(rep.n)
    return np.vstack([np.kron(g.T, eye) - np.kron(eye, g) for g in rep.generators])


def oracle_commutant_dim(rep):
    return rep.n**2 - np.linalg.matrix_rank(oracle_sylvester_stack(rep), tol=1e-8)


def oracle_irreducibility(rep, null_threshold=1e-8, band=(1e-9, 1e-7)):
    """irreducibility_check's verdict rule on the np.kron stack."""
    svals = np.linalg.svd(oracle_sylvester_stack(rep), compute_uv=False)
    dim = int(np.sum(svals < null_threshold))
    if np.any((svals >= band[0]) & (svals <= band[1])):
        return None, dim
    return dim == 1, dim


def identity_rep(n=2):
    eye = np.eye(n, dtype=complex)
    return SurfaceGroupRep(2, n, 1.0 + 0j, (eye,) * 4)


def reducible_su4():
    i2 = np.eye(2, dtype=complex)
    a1 = np.kron(i2, 1j * SIGMA1)
    b1 = np.kron(i2, 1j * SIGMA2)
    e4 = np.eye(4, dtype=complex)
    return SurfaceGroupRep(2, 4, -1.0 + 0j, (a1, b1, e4, e4))


class TestRepresentationPoint:
    def test_standard_point_satisfies_relation_exactly(self):
        rep = standard_genus2_su2()
        assert relation_check(rep) == 0.0
        assert oracle_relation_residual(rep) == 0.0

    def test_identity_point_misses_central_defect(self):
        rep = standard_genus2_su2()
        wrong = SurfaceGroupRep(2, 2, 1.0 + 0j, rep.generators)
        assert relation_check(wrong) == pytest.approx(2.0)

    @pytest.mark.parametrize("eps", [1e-3, 1e-4])
    def test_perturbation_residual_is_linear(self, eps):
        rep = standard_genus2_su2()
        gens = list(rep.generators)
        gens[0] = expm(eps * 1j * SIGMA1) @ gens[0]
        pert = SurfaceGroupRep(2, 2, -1.0 + 0j, tuple(gens))
        res = relation_check(pert)
        assert abs(res - oracle_relation_residual(pert)) <= 1e-13
        assert res == pytest.approx(2.0 * eps, rel=1e-2)

    def test_non_special_generator_rejected(self):
        with pytest.raises(ValidationError, match="unit determinant"):
            SurfaceGroupRep(2, 2, 1.0, (1j * np.eye(2, dtype=complex),) + (np.eye(2),) * 3)

    def test_nan_generator_rejected(self):
        gens = list(standard_genus2_su2().generators)
        gens[1] = gens[1].copy()
        gens[1][0, 0] = math.nan
        with pytest.raises(ValidationError, match="generator 2 is not unitary"):
            SurfaceGroupRep(2, 2, -1.0, tuple(gens))

    def test_nan_central_defect_rejected(self):
        gens = standard_genus2_su2().generators
        with pytest.raises(ValidationError, match="unit scalar"):
            SurfaceGroupRep(2, 2, complex(math.nan, 0.0), gens)

    def test_empty_generators_rejected(self):
        # a 0 x 0 generator once reached numpy's max of a zero-size array
        with pytest.raises(ValidationError, match="generator 1 must be a square matrix"):
            SurfaceGroupRep(2, 2, -1.0, (np.zeros((0, 0)),) * 4)

    def test_wrong_size_generator_rejected(self):
        # a ragged list: the three 2 x 2 generators, then a 3 x 3 one
        gens = [*standard_genus2_su2().generators[:3], np.eye(3)]
        with pytest.raises(ValidationError, match="generator 4 must be a square matrix, 2 x 2"):
            SurfaceGroupRep(2, 2, -1.0, gens)

    def test_non_numeric_generators_rejected(self):
        with pytest.raises(ValidationError, match="generators are not a numeric array"):
            SurfaceGroupRep(2, 2, -1.0, [[["a", "b"], ["c", "d"]]] * 4)

    def test_wrong_generator_count_rejected(self):
        with pytest.raises(ValidationError, match="generators"):
            SurfaceGroupRep(2, 2, 1.0, (np.eye(2),) * 3)

    def test_low_genus_rejected(self):
        with pytest.raises(ValidationError, match="genus"):
            SurfaceGroupRep(1, 2, 1.0, (np.eye(2),) * 2)


class TestIrreducibility:
    def test_standard_point_is_irreducible(self):
        rep = standard_genus2_su2()
        verdict, dim = irreducibility_check(rep)
        assert verdict is True and dim == 1
        assert oracle_commutant_dim(rep) == 1

    def test_identity_point_is_maximally_reducible(self):
        rep = identity_rep()
        verdict, dim = irreducibility_check(rep)
        assert verdict is False and dim == 4
        assert oracle_commutant_dim(rep) == 4

    def test_block_point_in_su4_is_reducible(self):
        rep = reducible_su4()
        assert relation_check(rep) == 0.0
        verdict, dim = irreducibility_check(rep)
        assert verdict is False and dim == 4
        assert oracle_commutant_dim(rep) == 4


def random_su3_rep(seed):
    rng = np.random.default_rng(seed)
    gens = tuple(random_special_unitary(3, rng) for _ in range(4))
    return SurfaceGroupRep(2, 3, 1.0 + 0j, gens)


def near_identity_rep(eps):
    """The identity point with A_1 moved by exp(i eps sigma_1): singular values ~ eps."""
    eye = np.eye(2, dtype=complex)
    return SurfaceGroupRep(2, 2, 1.0 + 0j, (expm(1j * eps * SIGMA1), eye, eye, eye))


class TestSylvesterStack:
    @pytest.mark.parametrize("seed", range(10))
    def test_conjugated_su2_stack_equals_kron_stack(self, seed):
        h = random_special_unitary(2, np.random.default_rng(seed))
        rep = conjugate(standard_genus2_su2(), h)
        got, want = _sylvester_stack(rep.generators), oracle_sylvester_stack(rep)
        assert got.shape == want.shape == (16, 4)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_random_su3_stack_equals_kron_stack(self, seed):
        rep = random_su3_rep(seed)
        got, want = _sylvester_stack(rep.generators), oracle_sylvester_stack(rep)
        assert got.shape == want.shape == (36, 9)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "rep, verdict",
        [
            (standard_genus2_su2(), True),
            (identity_rep(), False),
            (reducible_su4(), False),
            (random_su3_rep(0), True),
            (near_identity_rep(3e-8), None),
            (near_identity_rep(1e-3), False),
        ],
        ids=["irreducible", "identity", "su4-block", "su3-random", "indeterminate", "near-identity"],
    )
    def test_verdicts_match_the_kron_oracle(self, rep, verdict):
        assert irreducibility_check(rep) == oracle_irreducibility(rep)
        assert irreducibility_check(rep)[0] is verdict


class TestConjugation:
    def test_identity_and_center_act_trivially(self):
        rep = standard_genus2_su2()
        for h in (np.eye(2, dtype=complex), -np.eye(2, dtype=complex)):
            out = conjugate(rep, h)
            for g_out, g_in in zip(out.generators, rep.generators):
                assert np.array_equal(g_out, g_in)

    @pytest.mark.parametrize("seed", range(10))
    def test_gauge_action_preserves_everything(self, seed):
        rep = standard_genus2_su2()
        h = random_special_unitary(2, np.random.default_rng(seed))
        out = conjugate(rep, h)
        assert relation_check(out) <= 1e-12
        verdict, dim = irreducibility_check(out)
        assert verdict is True and dim == 1
        assert out.z == rep.z

    def test_non_unitary_conjugator_rejected(self):
        rep = standard_genus2_su2()
        with pytest.raises(ValidationError, match="unitary"):
            conjugate(rep, 2.0 * np.eye(2))

    def test_wrong_size_conjugator_rejected(self):
        # a 3 x 3 element once reached numpy's matmul against 2 x 2 generators
        with pytest.raises(ValidationError, match="conjugating element must be a square matrix, 2 x 2"):
            conjugate(standard_genus2_su2(), np.eye(3))

    def test_nan_conjugator_rejected(self):
        h = np.eye(2, dtype=complex)
        h[1, 1] = math.nan
        with pytest.raises(ValidationError, match="conjugating element is not unitary"):
            conjugate(standard_genus2_su2(), h)


def loop_draw(n, rng):
    """One Haar SU(n) draw as the per-element code made it: real normals, then imaginary."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    det = np.linalg.det(q)
    return q * det ** (-1.0 / n)


def loop_relation_residual(rep):
    """The relation residual of one point as the per-element code computed it."""
    acc = np.eye(rep.n, dtype=complex)
    for i in range(rep.genus):
        a, b = rep.generators[2 * i], rep.generators[2 * i + 1]
        acc = acc @ a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)
    return float(np.abs(acc - rep.z * np.eye(rep.n)).max())


def battery_points(seed):
    """The moduli battery's two points, one at a time: the quaternion point, the seeded generic one."""
    return standard_genus2_su2(), generic_genus2_su2(np.random.default_rng(seed))


def element_stream(seed):
    """The conjugating elements' stream: the first child of the seed, not the seed's own stream."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


def loop_conjugation_invariance(points, k, seed):
    """conjugation-invariance one element and one point at a time: elements, conjugates, residual.

    ceil(k / 2) elements, each moving every point, so k or k + 1 conjugates.
    """
    rng = element_stream(seed)
    bases = [(loop_relation_residual(rep), oracle_irreducibility(rep)) for rep in points]
    hs, moved, worst = [], [], 0.0
    for _ in range(-(-k // 2)):
        h = loop_draw(2, rng)
        for rep, (base, base_verdict) in zip(points, bases):
            point = SurfaceGroupRep(rep.genus, rep.n, rep.z, [h @ g @ h.conj().T for g in rep.generators])
            worst = np.maximum(worst, abs(loop_relation_residual(point) - base))
            if oracle_irreducibility(point) != base_verdict:
                worst = np.maximum(worst, 1.0)
            moved.append(point.generators)
        hs.append(h)
    return np.stack(hs)[:, None], np.stack(moved).reshape(len(hs), len(points), 4, 2, 2), worst


def run_conjugation_invariance(conjugations, seed):
    """The moduli battery's checks run in order up to conjugation-invariance; its value."""
    params = {"conjugations": conjugations, "flow_steps": 48, "n_max": 4}
    for name, _, thunk in cli._battery_moduli(params, seed):
        value = thunk()
        if name == "conjugation-invariance":
            return value


# a conjugate in the middle of the (200, 2) stack of conjugation-invariance
# at 400 conjugations: element 118 moving the generic point
MID = (118, 1)


def reducible_point_mid(real):
    """A fault of conjugate: the conjugate at MID becomes the identity point."""

    def fault(rep, h):
        moved = real(rep, h)
        gens = moved.generators.copy()
        gens[MID] = np.eye(2)  # the identity point: reducible, and off the relation
        return dataclasses.replace(moved, generators=gens)

    return fault


def verdict_at_mid(verdict, dim):
    """A fault of irreducibility_check: the conjugate at MID reads (verdict, dim)."""

    def plant(real):
        def fault(rep):
            verdicts, dims = real(rep)
            if rep.generators.ndim == 5:  # the conjugates, not the two points
                verdicts, dims = verdicts.copy(), dims.copy()
                verdicts[MID], dims[MID] = verdict, dim
            return verdicts, dims

        return fault

    return plant


def nan_residual_at_mid(real):
    """A fault of relation_check: the conjugate at MID reads NaN."""

    def fault(rep):
        residuals = real(rep)
        if rep.generators.ndim == 5:
            residuals = residuals.copy()
            residuals[MID] = math.nan
        return residuals

    return fault


class TestConjugationStack:
    @pytest.mark.parametrize("seed", [0, 41, 97, 901])
    @pytest.mark.parametrize("k", [1, 10, 400])
    def test_battery_equals_the_per_element_loop_bit_for_bit(self, monkeypatch, seed, k):
        seen = []
        real = cli.conjugate

        def spy(rep, h):
            moved = real(rep, h)
            seen.append((h, moved.generators))
            return moved

        monkeypatch.setattr(cli, "conjugate", spy)
        residual = run_conjugation_invariance(k, seed)
        want_h, want_moved, want_residual = loop_conjugation_invariance(battery_points(seed), k, seed)
        [(h, moved)] = seen
        half = -(-k // 2)
        assert h.shape == (half, 1, 2, 2) and moved.shape == (half, 2, 4, 2, 2)
        assert h.tobytes() == want_h.tobytes()
        assert moved.tobytes() == want_moved.tobytes()
        assert np.float64(residual).tobytes() == np.float64(want_residual).tobytes()
        if (seed, k) == (41, 400):
            assert residual == 1.2582987106621732e-15

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("seed", [0, 41, 97])
    def test_single_draw_is_unchanged(self, n, seed):
        rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got, want = random_special_unitary(n, rng), loop_draw(n, loop_rng)
            assert got.shape == (n, n) and got.tobytes() == want.tobytes()
        assert rng.standard_normal() == loop_rng.standard_normal()

    def test_stacked_draw_follows_the_single_stream(self):
        stack = random_special_unitary(3, np.random.default_rng(5), 7)
        rng = np.random.default_rng(5)
        singles = np.stack([random_special_unitary(3, rng) for _ in range(7)])
        assert stack.shape == (7, 3, 3) and stack.tobytes() == singles.tobytes()

    def test_check_makes_one_call_of_each(self, monkeypatch):
        # the base point's residual and verdict come from the two checks before it
        calls = []
        for name in ("random_special_unitary", "conjugate", "relation_check", "irreducibility_check"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
        params = {"conjugations": 400, "flow_steps": 48, "n_max": 4}
        checks = cli._battery_moduli(params, 41)
        for name, tolerance, thunk in checks:
            calls.clear()
            value = thunk()
            if name == "conjugation-invariance":
                break
        assert value <= tolerance
        assert sorted(calls) == ["conjugate", "irreducibility_check", "random_special_unitary", "relation_check"]

    @pytest.mark.parametrize(
        "name, plant, residual",
        [
            # the identity point misses z = -1 by 2, less the generic point's own residual
            ("conjugate", reducible_point_mid, 2.0 - relation_check(battery_points(41)[1])),
            ("irreducibility_check", verdict_at_mid(False, 4), 1.0),
            ("irreducibility_check", verdict_at_mid(None, 1), 1.0),
            ("relation_check", nan_residual_at_mid, math.nan),
        ],
        ids=["reducible-conjugate", "reducible-verdict", "indeterminate-verdict", "nan-relation"],
    )
    def test_one_bad_point_mid_stack_fails(self, monkeypatch, name, plant, residual):
        # element 118 of 200 is neither first nor last, and NaN must not read pass
        monkeypatch.setattr(cli, name, plant(getattr(cli, name)))
        params = {"conjugations": 400, "flow_steps": 48, "n_max": 4}
        records = {r["name"]: r for r in cli.run_scenario("moduli", params, 41)["checks"]}
        got = records["conjugation-invariance"]
        assert got["status"] == "fail"
        assert got["residual"] == residual or (math.isnan(residual) and math.isnan(got["residual"]))
        assert records["relation-residual"]["status"] == records["irreducibility"]["status"] == "pass"

    def test_stacked_points_are_checked_per_point(self):
        rep = standard_genus2_su2()
        moved = conjugate(rep, random_special_unitary(2, np.random.default_rng(3), 6))
        residuals, (verdicts, dims) = relation_check(moved), irreducibility_check(moved)
        assert residuals.shape == verdicts.shape == dims.shape == (6,)
        word = LoopWord(((1, 1), (2, -1), (3, 1)))
        for p in range(6):
            point = SurfaceGroupRep(2, 2, rep.z, moved.generators[p])
            assert residuals[p] == relation_check(point)
            assert holonomy(moved, word)[p].tobytes() == holonomy(point, word).tobytes()
            assert (verdicts[p], dims[p]) == irreducibility_check(point)
            assert _sylvester_stack(moved.generators)[p].tobytes() == _sylvester_stack(point.generators).tobytes()

    def test_stack_error_names_point_and_generator(self):
        gens = np.stack([standard_genus2_su2().generators] * 3)
        gens[1, 2, 0, 0] = math.nan
        with pytest.raises(ValidationError, match=r"generator 3 of point \[1\] is not unitary"):
            SurfaceGroupRep(2, 2, -1.0, gens)

    def test_stacked_conjugator_error_names_its_index(self):
        h = random_special_unitary(2, np.random.default_rng(0), 8)
        h[5] *= 2.0
        with pytest.raises(ValidationError, match=r"conjugating element\[5\] is not unitary"):
            conjugate(standard_genus2_su2(), h)
        points = conjugate(standard_genus2_su2(), np.stack([np.eye(2)] * 2))
        with pytest.raises(ValidationError, match=r"conjugating element\[5\]\[0\] is not unitary"):
            conjugate(points, h[:, None])

    @pytest.mark.parametrize("seed", [0, 7, 41, 97])
    def test_element_axes_broadcast_against_the_points(self, seed):
        points = battery_points(seed)
        stack = SurfaceGroupRep(2, 2, -1.0, np.stack([rep.generators for rep in points]))
        h = random_special_unitary(2, element_stream(seed), 5)
        moved = conjugate(stack, h[:, None])
        assert moved.generators.shape == (5, 2, 4, 2, 2)
        for i, p in itertools.product(range(5), range(2)):
            assert moved.generators[i, p].tobytes() == conjugate(points[p], h[i]).generators.tobytes()

    @pytest.mark.parametrize(
        "h",
        [[np.eye(2), np.eye(3)], [[np.eye(2)], [np.eye(2), np.eye(2)]], [["a", "b"], ["c", "d"]], "h", None],
        ids=["ragged", "ragged-stack", "strings", "string", "none"],
    )
    def test_ragged_or_non_numeric_element_rejected(self, h):
        with pytest.raises(ValidationError, match="conjugating element"):
            conjugate(standard_genus2_su2(), h)

    @pytest.mark.parametrize("seed", [0, 7, 41, 97])
    def test_elements_are_not_the_generic_generators(self, monkeypatch, seed):
        # a draw from default_rng(seed) itself would repeat the generic
        # point's A_1 and B_1 as the first two elements
        seen = []
        real = cli.conjugate
        monkeypatch.setattr(cli, "conjugate", lambda rep, h: seen.append(h) or real(rep, h))
        run_conjugation_invariance(400, seed)
        [h] = seen
        generic = battery_points(seed)[1].generators
        gaps = np.abs(h[:, 0, None] - generic).max(axis=(-2, -1))
        assert gaps.shape == (200, 4) and gaps.min() > 0.0


class TestHolonomy:
    def test_single_letter_is_the_generator(self):
        rep = standard_genus2_su2()
        assert np.array_equal(holonomy(rep, LoopWord(((1, 1),))), rep.generators[0])

    def test_letter_times_inverse_is_identity(self):
        rep = standard_genus2_su2()
        got = holonomy(rep, LoopWord(((1, 1), (1, -1))))
        assert np.abs(got - np.eye(2)).max() <= 1e-12

    def test_relation_word_reaches_central_defect(self):
        rep = standard_genus2_su2()
        word = LoopWord(
            ((1, 1), (2, 1), (1, -1), (2, -1), (3, 1), (4, 1), (3, -1), (4, -1))
        )
        got = holonomy(rep, word)
        assert np.abs(got - rep.z * np.eye(2)).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_adjoint_inverse_oracle(self, seed):
        rep = standard_genus2_su2()
        rng = np.random.default_rng(seed)
        letters = tuple(
            (int(rng.integers(1, 5)), int(rng.choice((-1, 1)))) for _ in range(6)
        )
        got = holonomy(rep, LoopWord(letters))
        assert np.abs(got - oracle_holonomy(rep, letters)).max() <= 1e-12

    def test_concatenation_is_composition(self):
        rep = standard_genus2_su2()
        head = ((1, 1), (2, -1), (1, 1))
        tail = ((2, 1),)
        whole = holonomy(rep, LoopWord(head + tail))
        split = holonomy(rep, LoopWord(head)) @ holonomy(rep, LoopWord(tail))
        assert np.array_equal(whole, split)

    def test_bad_generator_index_rejected(self):
        rep = standard_genus2_su2()
        with pytest.raises(ArgumentError, match="index"):
            holonomy(rep, LoopWord(((5, 1),)))

    def test_empty_word_rejected(self):
        with pytest.raises(ArgumentError, match="nonempty"):
            LoopWord(())

    def test_non_unit_exponent_rejected(self):
        with pytest.raises(ArgumentError, match="exponent"):
            LoopWord(((1, 2),))

    @pytest.mark.parametrize(
        "letter, refusal",
        [
            ((1.5, 1), "generator indices must be integers, got 1.5"),
            (("a", 1), "generator indices must be integers, got 'a'"),
            ((1, 1.5), "exponents must be +1 or -1, got 1.5"),
            ((1, "a"), "exponents must be +1 or -1, got 'a'"),
        ],
        ids=["fractional-index", "string-index", "fractional-exponent", "string-exponent"],
    )
    def test_non_integer_letter_refused_not_truncated(self, letter, refusal):
        # int() alone truncates 1.5 to 1 and raises a bare ValueError on "a"
        with pytest.raises(ArgumentError, match=f"^{re.escape(refusal)}$"):
            LoopWord((letter,))

    def test_integer_valued_letters_are_kept_as_ints(self):
        word = LoopWord(((np.int64(2), 1.0), (3.0, -1)))
        assert word.letters == ((2, 1), (3, -1))
        assert all(type(v) is int for letter in word.letters for v in letter)


class TestGenericPoint:
    @pytest.mark.parametrize("seed", range(6))
    def test_relation_and_irreducibility(self, seed):
        rep = generic_genus2_su2(np.random.default_rng(seed))
        assert (rep.genus, rep.n, rep.z) == (2, 2, -1.0)
        assert relation_check(rep) <= 1e-14
        assert oracle_relation_residual(rep) <= 1e-14
        assert irreducibility_check(rep) == oracle_irreducibility(rep) == (True, 1)

    def test_second_handle_closes_the_first(self):
        # [A_2, B_2] = A_2^2 = -[A_1, B_1]^-1, with A_2 and B_2 special unitary
        a1, b1, a2, b2 = generic_genus2_su2(np.random.default_rng(5)).generators
        c = a1 @ b1 @ a1.conj().T @ b1.conj().T
        comm = a2 @ b2 @ a2.conj().T @ b2.conj().T
        assert np.abs(comm - a2 @ a2).max() <= 1e-14
        assert np.abs(a2 @ a2 + c.conj().T).max() <= 1e-14
        for g in (a2, b2):
            assert np.abs(g @ g.conj().T - np.eye(2)).max() <= 1e-14
            assert abs(np.linalg.det(g) - 1.0) <= 1e-14

    def test_seeded(self):
        first = generic_genus2_su2(np.random.default_rng(3)).generators
        assert np.array_equal(first, generic_genus2_su2(np.random.default_rng(3)).generators)
        assert not np.allclose(first, generic_genus2_su2(np.random.default_rng(4)).generators)

    def test_commutator_sees_the_exponents(self):
        # [a1, b1] and [a1^-1, b1^-1] agree at the quaternion point, so a
        # letter map that flips exponents passes there; the generic point
        # tells them apart (1.09 at seed 5)
        word = ((1, 1), (2, 1), (1, -1), (2, -1))
        flipped = tuple((i, -e) for i, e in word)
        quaternion = standard_genus2_su2()
        generic = generic_genus2_su2(np.random.default_rng(5))
        gap = [
            np.abs(holonomy(rep, LoopWord(word)) - holonomy(rep, LoopWord(flipped))).max()
            for rep in (quaternion, generic)
        ]
        assert gap[0] == 0.0 and gap[1] > 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_holonomy_matches_adjoint_inverse_oracle(self, seed):
        rep = generic_genus2_su2(np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 100)
        letters = tuple(
            (int(rng.integers(1, 5)), int(rng.choice((-1, 1)))) for _ in range(6)
        )
        got = holonomy(rep, LoopWord(letters))
        assert np.abs(got - oracle_holonomy(rep, letters)).max() <= 1e-14

    def test_letter_map_row_reads_the_battery_seed(self, monkeypatch):
        # the moduli battery's letter-map row draws its generic point from
        # the battery seed, with no config key of its own
        drawn = []

        def spy(rng):
            rep = generic_genus2_su2(rng)
            drawn.append(rep.generators)
            return rep

        monkeypatch.setattr(cli, "generic_genus2_su2", spy)
        rows = {name: thunk for name, _, thunk in cli._battery_moduli(dict(cli.COMMANDS["moduli"].defaults), 11)}
        assert drawn == []  # building the battery draws nothing
        assert rows["letter-map"]() <= 1e-14
        (gens,) = drawn
        assert np.array_equal(gens, generic_genus2_su2(np.random.default_rng(11)).generators)


def diagonal_generators(real):
    """A fault of generic_genus2_su2: each generator becomes its diagonal eigenvalue matrix.

    The generators then commute, so the point is reducible and its product
    of commutators is the identity, not z = -1.
    """

    def fault(rng):
        rep = real(rng)
        eigenvalues = np.linalg.eigvals(rep.generators)
        return dataclasses.replace(rep, generators=eigenvalues[..., None] * np.eye(rep.n))

    return fault


class TestPointStack:
    def test_reducible_generic_point_fails_by_its_residuals(self, monkeypatch):
        seen = []
        real_relation = cli.relation_check
        monkeypatch.setattr(cli, "generic_genus2_su2", diagonal_generators(cli.generic_genus2_su2))
        monkeypatch.setattr(cli, "relation_check", lambda rep: seen.append(real_relation(rep)) or seen[-1])
        params = dict(cli.COMMANDS["moduli"].defaults)
        records = {r["name"]: r for r in cli.run_scenario("moduli", params, 7)["checks"]}
        # the quaternion point is untouched: its residual is still exactly 0
        assert seen[0][0] == 0.0 and abs(seen[0][1] - 2.0) <= 1e-12
        assert records["relation-residual"]["status"] == "fail"
        assert records["relation-residual"]["residual"] == seen[0][1]
        # commuting diagonal generators share a 2-dimensional commutant
        assert records["irreducibility"]["status"] == "fail"
        assert records["irreducibility"]["residual"] == 2.0

    def test_points_are_built_once_by_the_first_check(self, monkeypatch):
        built = []
        real = cli.standard_genus2_su2
        monkeypatch.setattr(cli, "standard_genus2_su2", lambda: built.append(1) or real())
        rows = cli._battery_moduli(dict(cli.COMMANDS["moduli"].defaults), 7)
        assert built == []  # building the battery builds no point
        for _, tolerance, thunk in rows:
            value = thunk()
            assert (value[0] if isinstance(value, tuple) else value) <= tolerance
        assert built == [1]

    @pytest.mark.parametrize("seed", [0, 7, 41, 97])
    def test_rows_do_not_depend_on_their_order(self, seed):
        params = dict(cli.COMMANDS["moduli"].defaults)
        forward = [(name, thunk()) for name, _, thunk in cli._battery_moduli(params, seed)]
        backward = [(name, thunk()) for name, _, thunk in reversed(cli._battery_moduli(params, seed))]
        assert forward == backward[::-1]


class TestHolonomyPaths:
    def test_paths_close_exactly(self):
        for name, n in (("u1-winding", 1), ("su2-balanced", 2)):
            path = holonomy_path(name, steps=48)
            assert path.shape == (49, n, n) and path.dtype == complex
            assert np.array_equal(path[0], path[-1])

    @pytest.mark.parametrize("steps", [1, 0, -3, 2.5, True])
    def test_bad_step_counts_rejected(self, steps):
        # one step once gave the constant path [U(0), U(0)], whose flow 0
        # misread the u1 loop's winding; 0 and -3 raised a raw IndexError
        with pytest.raises(ArgumentError, match="steps >= 2"):
            holonomy_path("u1-winding", steps)

    def test_flow_checks_build_two_holonomies_per_path(self, monkeypatch):
        # a path is one array, checked once: only its endpoint spectra build
        # a Holonomy (the per-step objects made 98 at flow_steps 48)
        built = []
        real = spectral.Holonomy.__post_init__

        def spy(self):
            built.append(self.matrix.shape)
            real(self)

        monkeypatch.setattr(spectral.Holonomy, "__post_init__", spy)
        params = {"conjugations": 1, "flow_steps": 48, "n_max": 4}
        flows = [check for check in cli._battery_moduli(params, 0) if check[0].startswith("flow-")]
        assert [fn() for _, _, fn in flows] == [0, 0]
        assert len(built) <= 2 * len(flows) == 4

    def test_u1_winding_flows_one(self):
        flow = spectral_flow(
            holonomy_path("u1-winding", steps=48), SpectralCut("1/2"), N=3
        )
        assert flow == 1

    def test_su2_balanced_flow_cancels(self):
        flow = spectral_flow(
            holonomy_path("su2-balanced", steps=48), SpectralCut("1/2"), N=3
        )
        assert flow == 0

    def test_unknown_path_rejected(self):
        with pytest.raises(ArgumentError, match="unknown holonomy path"):
            holonomy_path("torus", 48)


SAMPLING = (8, 12)  # theta_points and base_points of the pairing battery's defaults
FUND = Representation.fundamental(2)
ADJ = Representation.adjoint(2)


class TestPairing:
    @pytest.mark.parametrize("w1,w2", [(1, 1), (2, 1), (1, -1)])
    def test_winding_family_hits_model_value(self, w1, w2):
        conn = ModuliFamily(w1=w1, w2=w2).connection(*SAMPLING)
        (density,) = pontryagin_densities(conn, [FUND])
        got = density.integrate()
        assert abs(got - (-2.0 * w1 * w2)) <= 1e-10

    @pytest.mark.parametrize("w1,w2", [(1, 1), (1, -1)])
    def test_adjoint_pairing_scales_by_four(self, w1, w2):
        conn = ModuliFamily(w1=w1, w2=w2).connection(*SAMPLING)
        (density,) = pontryagin_densities(conn, [ADJ])
        got = density.integrate()
        assert abs(got - (-8.0 * w1 * w2)) <= 1e-10

    def test_density_matches_closed_form_pointwise(self):
        # stencil error measured at 9.7e-5 on a density of scale 2
        eps, m = 0.2, 12
        conn = ModuliFamily(w1=1, w2=1).connection(8, m)
        (density,) = pontryagin_densities(conn, [FUND])
        g = conn.ghost_margin
        comp = density.comps[(0, 1, 2)]
        core = comp[g:-g, g:-g, g:-g]
        xs = np.arange(m) / m
        x0, _, x2 = np.meshgrid(xs, xs, xs, indexing="ij")
        want = -2.0 + eps**2 * np.sin(TWO_PI * x0) * np.sin(TWO_PI * x2)
        assert np.abs(core - want).max() <= 5e-4

    def test_core_densities_equal_a_wider_margin_bit_for_bit(self):
        # a core cell's density reads samples at most 2 cells away, the
        # 5-point stencil's half-width, so the connection's margin of 2
        # gives the core densities of a margin-4 sampling exactly
        fam = ModuliFamily()
        conn = fam.connection(*SAMPLING)
        wide = sample_connection(fam.family(), *SAMPLING, ghost_margin=4)
        assert conn.ghost_margin == 2 and conn.phi[0].shape == (8, 16, 16, 16)
        for narrow_form, wide_form in zip(
            pontryagin_densities(conn, [FUND, ADJ]), pontryagin_densities(wide, [FUND, ADJ])
        ):
            narrow_core = narrow_form.comps[(0, 1, 2)][2:-2, 2:-2, 2:-2]
            wide_core = wide_form.comps[(0, 1, 2)][4:-4, 4:-4, 4:-4]
            assert narrow_core.shape == (12, 12, 12)
            assert np.array_equal(narrow_core, wide_core)
            assert narrow_form.integrate() == wide_form.integrate()

    @pytest.mark.parametrize(
        "params, residuals",
        [
            ({"modulation": -1e6, "base_points": 5}, (1.9531249999538147e-06, 3.739864831964126e-08)),
            ({"modulation": 1e6}, (8.280147841821517e-06, 3.5573917273841095e-08)),
        ],
        ids=["modulation-min-base-5", "modulation-max"],
    )
    def test_edge_residuals_are_pinned(self, params, residuals):
        # the readings at the admitted modulation edges, where roundoff of
        # density terms of order modulation^2 sets the residuals
        _, params, seed, _ = cli.validate_scenario({"command": "pairing", "params": params})
        report = cli.run_scenario("pairing", params, seed)
        assert tuple(r["residual"] for r in report["checks"]) == residuals

    def test_default_residuals_are_pinned(self):
        # the readings of the pairing battery sampled with a margin of 4
        _, params, seed, _ = cli.validate_scenario({"command": "pairing"})
        report = cli.run_scenario("pairing", params, seed)
        residuals = {r["name"]: r["residual"] for r in report["checks"]}
        assert residuals == {"winding-model-value": 0.0, "adjoint-scaling": 5.551115123125783e-16}

    def test_fractional_winding_rejected(self):
        with pytest.raises(ValidationError, match="^windings must be integers, got w1 = 1.5$"):
            ModuliFamily(w1=1.5)

    @pytest.mark.parametrize(
        "winding, shown",
        [({"w1": math.nan}, "w1 = nan"), ({"w2": math.inf}, "w2 = inf"), ({"w2": "1"}, "w2 = '1'")],
        ids=["nan", "inf", "string"],
    )
    def test_non_finite_or_non_numeric_winding_rejected(self, winding, shown):
        # int() alone raises a bare ValueError on NaN and OverflowError on inf
        with pytest.raises(ValidationError, match=f"^windings must be integers, got {shown}$"):
            ModuliFamily(**winding)

    def test_family_lies_along_t1(self):
        # su_basis(2) lists T2 before T1: every field is [0.0, profile, 0.0]
        assert [f.name for f in dataclasses.fields(ModuliFamily)] == ["w1", "w2", "modulation"]
        fam = ModuliFamily().family()
        th, xs = np.zeros((1, 1, 1, 1)), [np.full((1, 1, 1, 1), 0.3)] * 3
        for field in [fam.phi(th, xs)] + [fam.base(th, xs, axis) for axis in range(3)]:
            assert field[0] == 0.0 and field[2] == 0.0
        assert np.all(fam.base(th, xs, 2)[1] == 0.0)

    def test_open_family_rejected_by_seam_check(self):
        class QuadraticFamily(ModuliFamily):
            def family(self):
                fam = super().family()

                def phi(th, xs):
                    higgs = list(fam.phi(th, xs))
                    higgs[1] = higgs[1] + xs[0] ** 2  # a bump along T1
                    return higgs

                return type(fam)(fam.n, phi, fam.base, fam.label)

        with pytest.raises(ValidationError, match="higgs jump across axis 0"):
            QuadraticFamily().connection(*SAMPLING)

    @pytest.mark.parametrize("defect", ["quadratic", "nan"])
    def test_seam_check_reads_every_coefficient(self, defect):
        # a defect in one coefficient of one gauge component, a coefficient
        # off T1, is rejected as a defect of the whole field
        class OneCoefficient(ModuliFamily):
            def family(self):
                fam = super().family()

                def base(th, xs, axis):
                    out = list(fam.base(th, xs, axis))
                    if axis == 1:
                        out[2] = out[2] + (xs[2] ** 2 if defect == "quadratic" else math.nan * xs[2])
                    return out

                return type(fam)(fam.n, fam.phi, base, fam.label)

        fam = OneCoefficient()
        axis = 2 if defect == "quadratic" else 0  # a NaN jump shows across the first axis
        with pytest.raises(ValidationError, match=rf"gauge\[1\] jump across axis {axis} varies by"):
            if defect == "nan":  # the sampler refuses a NaN before the seam is probed
                _seam_check(ModuliFamily().connection(*SAMPLING), fam.family())
            fam.connection(*SAMPLING)

