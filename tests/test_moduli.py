"""Surface-group representation points and the parameter-space pairing.

Oracles:
  * relation and holonomy products recomputed with conjugate-transpose
    inverses (the library route uses np.linalg.inv);
  * commutant dimension as n^2 - rank of the stacked Sylvester system;
  * the winding family's curvature density in closed form.  All potentials
    point along one normalized direction K with <K, K> = 2, so every
    commutator drops and the density reduces to
        -2 w1 w2 + eps^2 sin(2 pi x0) sin(2 pi x2),
    whose torus integral is the model value -2 w1 w2 (adjoint route: x4).
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from gerbetool import cli, spectral
from gerbetool.caloron import index_curvature, pontryagin_density
from gerbetool.errors import ArgumentError, ResolutionError, ValidationError
from gerbetool.liealg import Representation, su_coefficients
from gerbetool.moduli import (
    LoopWord,
    ModuliFamily,
    SurfaceGroupRep,
    conjugate,
    holonomy,
    holonomy_path,
    irreducibility_check,
    random_special_unitary,
    relation_check,
    standard_genus2_su2,
)
from gerbetool.moduli import _loop_direction, _sylvester_stack
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
        gens = standard_genus2_su2().generators[:3] + (np.eye(3),)
        with pytest.raises(ValidationError, match="generator 4 must be a square matrix, 2 x 2"):
            SurfaceGroupRep(2, 2, -1.0, gens)

    def test_wrong_generator_count_rejected(self):
        with pytest.raises(ValidationError, match="generators"):
            SurfaceGroupRep(2, 2, 1.0, (np.eye(2),) * 3)

    def test_low_genus_rejected(self):
        with pytest.raises(ValidationError, match="genus"):
            SurfaceGroupRep(1, 2, 1.0, (np.eye(2),) * 2)

    def test_center_metadata(self):
        assert standard_genus2_su2().generates_center() is True
        rep = identity_rep()
        assert rep.generates_center() is None


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
        assert out.z == rep.z and out.z_exponent == rep.z_exponent

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
            holonomy_path("torus")


class TestLoopDirection:
    def test_generic_holonomy_direction_is_normalized(self):
        rep = standard_genus2_su2()
        k = _loop_direction(rep, LoopWord(((1, 1),)))
        assert abs(-np.trace(k @ k).real - 2.0) <= 1e-12
        assert np.abs(k + k.conj().T).max() <= 1e-12
        assert abs(np.trace(k)) <= 1e-12

    def test_central_holonomy_falls_back_to_diagonal(self):
        rep = standard_genus2_su2()
        k = _loop_direction(rep, LoopWord(((3, 1),)))
        assert np.array_equal(k, np.diag([1j, -1j]))


WORD = LoopWord(((1, 1),))
FUND = Representation.fundamental(2)
ADJ = Representation.adjoint(2)


class TestPairing:
    @pytest.mark.parametrize("w1,w2", [(1, 1), (2, 1), (1, -1)])
    def test_winding_family_hits_model_value(self, w1, w2):
        conn = ModuliFamily(standard_genus2_su2(), w1=w1, w2=w2).connection(WORD)
        got = pontryagin_density(conn, FUND).integrate()
        assert abs(got - (-2.0 * w1 * w2)) <= 1e-10

    @pytest.mark.parametrize("w1,w2", [(1, 1), (1, -1)])
    def test_adjoint_pairing_scales_by_four(self, w1, w2):
        conn = ModuliFamily(standard_genus2_su2(), w1=w1, w2=w2).connection(WORD)
        got = pontryagin_density(conn, ADJ).integrate()
        assert abs(got - (-8.0 * w1 * w2)) <= 1e-10

    def test_density_matches_closed_form_pointwise(self):
        # stencil error measured at 9.7e-5 on a density of scale 2
        eps, m, g = 0.2, 12, 4
        fam = ModuliFamily(standard_genus2_su2(), w1=1, w2=1)
        conn = fam.connection(WORD, 8, m, g)
        comp = index_curvature(conn, FUND).comps[(0, 1, 2)]
        core = comp[g:-g, g:-g, g:-g]
        xs = np.arange(m) / m
        x0, _, x2 = np.meshgrid(xs, xs, xs, indexing="ij")
        want = -2.0 + eps**2 * np.sin(TWO_PI * x0) * np.sin(TWO_PI * x2)
        assert np.abs(core - want).max() <= 5e-4

    @pytest.mark.parametrize("margin", [0, 1])
    def test_ghost_margin_must_cover_the_stencil(self, margin):
        # covering-space samples are not periodic, so a stencil that leaves
        # the margin reads across the seam: the model value -2 came out as
        # 2.5e-17 at margin 0 and -2.85 at margin 1
        fam = ModuliFamily(standard_genus2_su2())
        with pytest.raises(ResolutionError, match="stencil half-width 2"):
            fam.connection(WORD, 8, 12, margin)

    def test_fractional_winding_rejected(self):
        with pytest.raises(ValidationError, match="integer"):
            ModuliFamily(standard_genus2_su2(), w1=1.5)

    def test_open_family_rejected_by_seam_check(self):
        class QuadraticFamily(ModuliFamily):
            def family(self, word):
                fam = super().family(word)
                inner = fam.phi

                k = su_coefficients(_loop_direction(self.rep, word))[0]

                def phi(th, xs):
                    bump = (xs[0] ** 2 + 0.0 * th)[..., None]
                    return inner(th, xs) + bump * k

                return type(fam)(fam.n, phi, fam.base, fam.label)

        fam = QuadraticFamily(standard_genus2_su2())
        with pytest.raises(ValidationError, match="higgs jump across axis 0"):
            fam.connection(WORD)
