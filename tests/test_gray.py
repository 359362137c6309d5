"""Gray conditions, pointwise equivalences, Lagrangian curvature, the Ricci
normal form of the reversed structure, the commuted second derivative of
Omega, and the canonical-connection Ricci form."""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from ak4 import algebra, cli, gray, sandbox
from ak4.charts import J_FRAME
from ak4.cli import PointAnalysis

from conftest import KAHLER_NAMES, applies_at, at, hyperbolic_factor, identity, point_analysis, product_surfaces, residual_at, sphere_factor


class TestGrayResiduals:
    def test_kahler_charts_satisfy_all_conditions(self, analyses):
        for name in KAHLER_NAMES:
            for pa in analyses[name]:
                ladder = at(pa, "ladder")
                assert ladder.g1 < 1e-8
                assert ladder.g2 < 1e-8
                assert ladder.g3 < 1e-8

    def test_flat_zero(self, analyses):
        pa = analyses["flat"][0]
        ladder = at(pa, "ladder")
        assert (ladder.g1, ladder.g2, ladder.g3) == (0.0, 0.0, 0.0)

    def test_kodaira_thurston_second_condition_fails(self, analyses):
        for pa in analyses["kodaira-thurston"]:
            assert at(pa, "ladder").g2 > 1e-4  # recorded, clearly nonzero


class TestImplicationChain:
    def test_chain_on_sandbox(self):
        # g1 < 1e-12 => g2 < 1e-10 => g3 < 1e-10 over a mixed population.
        batches = [
            sandbox.g1_batch(250, 31),
            sandbox.g2_batch(250, 32),
            sandbox.random_batch(500, 33),
        ]
        batch = np.concatenate(batches)
        g1, g2, g3 = algebra.gray_residuals(batch)
        g1_holds = g1 < 1e-12
        assert g1_holds.sum() >= 250
        assert g2[g1_holds].max() < 1e-10
        g2_holds = g2 < 1e-12
        assert g2_holds.sum() >= 500
        assert g3[g2_holds].max() < 1e-10


class TestLemma5:
    def _triples(self, batch):
        parts = algebra.split_operator(algebra.operator_matrix(batch))
        blocks = algebra.u2_blocks(parts["wplus"])
        ric_anti = algebra.frobenius(algebra.j_anti_part(algebra.ricci_contraction(batch)))
        return np.maximum(ric_anti, np.maximum(algebra.frobenius(blocks["w2"]), algebra.frobenius(blocks["w3"])))

    def test_two_sided_equivalence_on_sandbox(self):
        batch = np.concatenate([sandbox.random_batch(500, 41), sandbox.g2_batch(500, 42)])
        g2 = algebra.gray_residuals(batch)[1]
        triple = self._triples(batch)
        forward = triple[g2 < 1e-12]
        assert forward.size >= 500 and forward.max() < 1e-10
        backward = g2[triple < 1e-12]
        assert backward.size >= 500 and backward.max() < 1e-10
        # and the nonzero population stays away from zero on both sides
        assert (g2[triple > 1e-2] > 1e-8).all()

    def test_w3_only_counterexample(self):
        g2 = algebra.gray_residuals(sandbox.curvature_with_blocks(w3=(0.4, -0.2)))[1]
        assert g2 > 1e-2

    def test_kahler_charts_both_sides(self, analyses):
        for name in KAHLER_NAMES:
            for pa in analyses[name]:
                assert at(pa, "ladder").g2 < 1e-8
                assert gray.lemma5_triple(pa.batch.dr)[pa.index] < 1e-8


class TestProp1:
    prop1 = identity("prop1")

    def test_kahler_einstein_trivial(self, analyses):
        for name in ("fubini-study", "complex-hyperbolic"):
            for pa in analyses[name]:
                assert applies_at(self.prop1, pa)
                assert residual_at(self.prop1, pa) < 1e-8

    def test_constant_curvature_product(self):
        spec = product_surfaces(
            sphere_factor(1.0), sphere_factor(1.0), name="two-spheres", domain=((-0.7, 0.7),) * 4
        )
        pa = point_analysis(spec, (0.2, -0.1, 0.4, 0.3), order=4)
        assert applies_at(self.prop1, pa)
        assert residual_at(self.prop1, pa) < 1e-8

    def test_product_surfaces_nontrivial_scalar(self, analyses):
        # Kahler, so the hypothesis holds; s varies but s* tracks it exactly.
        for pa in analyses["product-surfaces"]:
            assert applies_at(self.prop1, pa)
            assert residual_at(self.prop1, pa) < 1e-8  # theta = 0, so this is |d(s* - s)|

    def test_kodaira_thurston_hypothesis_not_met(self, analyses):
        for pa in analyses["kodaira-thurston"]:
            assert at(pa, "ladder").g2 > gray.DEFAULT_VERDICT_TOL
            assert not applies_at(self.prop1, pa)


class TestTotallyRealCurvature:
    def test_flat_spread_zero(self, analyses):
        gr = at(analyses["flat"][0], "gr")
        assert gr.mu_formula == 0.0
        assert gr.mu_max - gr.mu_min == 0.0

    def test_fubini_study_constant_and_formula(self, analyses):
        for pa in analyses["fubini-study"]:
            gr = at(pa, "gr")
            assert gr.mu_max - gr.mu_min < 1e-7
            s = at(pa, "cd").s_value
            assert abs(gr.mu_formula - (2 * s - at(pa, "dr").kappa) / 24.0) < 1e-12
            assert abs(gr.mu_max - s / 24.0) < 1e-7  # kappa = s

    def test_unequal_factor_curvatures_spread(self):
        spec = product_surfaces(sphere_factor(1.0), "1", name="sphere-plane", domain=((-0.7, 0.7),) * 4)
        pa = point_analysis(spec, (0.1, 0.2, -0.1, 0.3), order=4)
        gr = at(pa, "gr")
        assert gr.mu_max - gr.mu_min > 1e-3
        assert algebra.frobenius(at(pa, "dr").wminus) > 1e-3

    def test_opposite_factor_curvatures_conformally_flat(self):
        # Curvatures +1 and -1 cancel: W- = 0, and the totally-real sectional
        # curvature is the pointwise constant (2s - kappa)/24 = 0.
        spec = product_surfaces(
            sphere_factor(1.0), hyperbolic_factor(-1.0), name="mixed", domain=((-0.5, 0.5),) * 4
        )
        pa = point_analysis(spec, (0.1, 0.2, -0.1, 0.3), order=4)
        assert algebra.frobenius(at(pa, "dr").wminus) < 1e-9
        gr = at(pa, "gr")
        assert max(abs(gr.mu_max), abs(gr.mu_min)) < 1e-9

    def test_lagrangian_sampling_respects_constraint(self):
        draws = np.random.default_rng(0).standard_normal((100, 2, 4))
        x = draws[:, 0] / np.linalg.norm(draws[:, 0], axis=1)[:, None]
        jx = x @ J_FRAME.T
        y = gray._lagrangian_part(draws[:, 1], x, jx)
        y /= np.linalg.norm(y, axis=1)[:, None]
        assert np.abs(np.einsum("ni,ni->n", jx, y)).max() < 1e-12  # Lagrangian: g(JX, Y) = 0

    def test_block_sampling_matches_the_per_plane_loop(self, analyses):
        # the one-block draw must reproduce the per-plane loop it replaced, bit for bit
        for rows in analyses.values():
            for pa in rows:
                for seed in (42, 7, 2024):
                    gr = gray.gray_report(pa.batch.cd, pa.batch.dr, seed=seed)
                    mus = _per_plane_mus(at(pa, "cd").R_frame, seed)
                    assert gr.mu_min == [float(mus.min())]
                    assert gr.mu_max == [float(mus.max())]

    @pytest.mark.parametrize("layout", ["C", "F", "permuted"])
    def test_the_batch_einsum_gives_the_per_plane_bits_in_any_memory_order(self, layout, monkeypatch):
        # gray_report's one einsum over the batch against the per-plane einsum
        # on each point, as bytes, whatever the memory order of R; a planted
        # inf and NaN stay in their own points
        r = sandbox.random_batch(5, 3)
        r[1, 0, 1, 0, 1] = np.inf
        r[3, 2, 0, 3, 1] = np.nan
        perm = (0, 3, 1, 4, 2)
        r = {"C": r, "F": np.asfortranarray(r), "permuted": np.ascontiguousarray(r.transpose(perm)).transpose(np.argsort(perm))}[layout]
        expected = np.stack([_per_plane_mus(r[p], 42) for p in range(len(r))])
        einsum, made = np.einsum, []
        monkeypatch.setattr(np, "einsum", lambda *args, **kwargs: made.append(einsum(*args, **kwargs)) or made[-1])
        cd = SimpleNamespace(R_frame=r, s_value=np.zeros(len(r)))
        dr = SimpleNamespace(kappa=np.zeros(len(r)), wplus=np.zeros((len(r), 3, 3)))
        gray.gray_report(cd, dr, seed=42)
        [mus] = made
        assert mus.tobytes() == expected.tobytes()
        assert np.isnan(mus[3]).all() and np.isfinite(mus[[0, 2, 4]]).all()

    def test_sandbox_lemma6_equivalence(self):
        # constancy <=> (Ric J-invariant, W3+ = 0, W- = 0); exercise both
        # directions on constructed tensors.
        ok = sandbox.curvature_with_blocks(s=3.0, kappa=1.2, ric0=_jinv_ric0())
        bad = sandbox.curvature_with_blocks(s=3.0, kappa=1.2, ric0=_jinv_ric0(), wminus=np.diag([0.4, -0.1, -0.3]))
        for tensor, expect_const in ((ok, True), (bad, False)):
            mus = _sample_mus(tensor, 200)
            spread = mus.max() - mus.min()
            if expect_const:
                s = float(np.einsum("ijij->", tensor * 0) + algebra.ricci_contraction(tensor).trace())
                kappa = algebra.u2_blocks(algebra.split_operator(algebra.operator_matrix(tensor))["wplus"])["kappa"]
                assert spread < 1e-10
                assert np.abs(mus - (2 * s - kappa) / 24.0).max() < 1e-10
            else:
                assert spread > 1e-3


def _jinv_ric0():
    return np.diag([0.5, 0.5, -0.5, -0.5])


def _per_plane_mus(r, seed):
    """Sectional curvatures of the Lagrangian planes as drawn one plane at a time."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7A]))
    mus = np.empty(gray.PLANES)
    for k in range(gray.PLANES):
        x = rng.standard_normal(4)
        x = x / np.linalg.norm(x)
        jx = J_FRAME @ x
        y = rng.standard_normal(4)
        y -= (y @ x) * x + (y @ jx) * jx
        y /= np.linalg.norm(y)
        mus[k] = np.einsum("ijkl,i,j,k,l->", r, x, y, x, y)
    return mus


def _sample_mus(tensor, n):
    rng = np.random.default_rng(1)
    mus = np.empty(n)
    for k in range(n):
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        jx = J_FRAME @ x
        y = rng.standard_normal(4)
        y -= (y @ x) * x + (y @ jx) * jx
        y /= np.linalg.norm(y)
        mus[k] = np.einsum("ijkl,i,j,k,l->", tensor, x, y, x, y)
    return mus


class TestWPlusDegeneracy:
    def test_kahler_double_eigenvalue(self, analyses):
        for name in ("fubini-study", "complex-hyperbolic"):
            for pa in analyses[name]:
                eig = at(pa, "gr").wplus_eigenvalues
                kappa = at(pa, "dr").kappa
                expected = np.sort([kappa / 6.0, -kappa / 12.0, -kappa / 12.0])
                assert np.abs(np.sort(eig) - expected).max() < 1e-8
                assert min(abs(eig[0] - eig[1]), abs(eig[1] - eig[2]), abs(eig[0] - eig[2])) < 1e-8

    def test_flat_all_zero(self, analyses):
        assert np.abs(at(analyses["flat"][0], "gr").wplus_eigenvalues).max() == 0.0

    def test_sandbox_dichotomy_given_w3_zero(self):
        # with W3+ = 0: degenerate spectrum <=> W2+ = 0
        rng = np.random.default_rng(77)
        for _ in range(50):
            kappa = float(rng.standard_normal())
            p, q = rng.standard_normal(2)
            with_w2 = sandbox.curvature_with_blocks(kappa=kappa, psi=(p, q))
            wp = algebra.split_operator(algebra.operator_matrix(with_w2))["wplus"]
            eig = np.linalg.eigvalsh(wp)
            gap = min(abs(eig[0] - eig[1]), abs(eig[1] - eig[2]))
            if p * p + q * q > 1e-2:
                assert gap > 1e-6
            without = sandbox.curvature_with_blocks(kappa=kappa)
            wp0 = algebra.split_operator(algebra.operator_matrix(without))["wplus"]
            eig0 = np.linalg.eigvalsh(wp0)
            assert min(abs(eig0[0] - eig0[1]), abs(eig0[1] - eig0[2])) < 1e-12


class TestReversedStructure:
    def test_kahler_charts_nullity_undefined(self, analyses):
        for name in KAHLER_NAMES:
            pa = analyses[name][0]
            assert not cli.kahler_nullity(pa.batch)[pa.index]
            assert not applies_at(identity("prop2i"), pa)

    def test_kodaira_thurston_reversed_structure(self, analyses):
        for pa in analyses["kodaira-thurston"]:
            assert cli.kahler_nullity(pa.batch)[pa.index]
            assert not cli.second_gray(pa.batch)[pa.index]  # but Proposition 2(i) does not apply
            # the commuted-second-derivative shape identity is unconditional
            assert gray.nabla2_omega_shape_residual(pa.batch.conn)[pa.index] < 1e-8

    def test_prop2i_on_synthetic_configuration(self):
        # Ric0 in the normal form (kappa/4)(-g|_D + g|_Dperp), D-perp = span{e1, e2}
        kappa = 1.8
        g_perp = np.diag([1.0, 1.0, 0.0, 0.0])
        ric0 = (kappa / 4.0) * (-(np.eye(4) - g_perp) + g_perp)
        assert abs(np.trace(ric0)) < 1e-12
        assert np.abs(algebra.j_anti_part(ric0)).max() < 1e-12  # J-invariant
        def first_order(*a_values):
            """A first-order batch with these values of a, in the identity frame."""
            structure = SimpleNamespace(frame=np.stack([np.eye(4)] * len(a_values)))
            return SimpleNamespace(a=SimpleNamespace(value=np.array(a_values)), conn=SimpleNamespace(structure=structure))

        def decomposition(*ric0s):
            return SimpleNamespace(ric0=np.array(ric0s), kappa=np.full(len(ric0s), kappa))

        hfo = first_order([0.3, 0.0, 0.0, 0.0])
        assert gray.prop2i_residual(hfo, decomposition(ric0))[0] < 1e-15
        perturbed = ric0 + 0.01 * np.diag([1.0, 1.0, -1.0, -1.0])
        assert gray.prop2i_residual(hfo, decomposition(perturbed))[0] > 1e-3
        assert cli.kahler_nullity(SimpleNamespace(hfo=hfo)) == [True]
        assert cli.kahler_nullity(SimpleNamespace(hfo=first_order(np.zeros(4)))) == [False]
        # a batch where the nullity is undefined at one point: no warning there
        with np.errstate(all="raise"):
            residuals = gray.prop2i_residual(first_order([0.3, 0.0, 0.0, 0.0], np.zeros(4)), decomposition(ric0, ric0))
        assert residuals[0] < 1e-15


def _antisymmetry(gamma0: np.ndarray) -> float:
    return float(np.abs(gamma0 + gamma0.T).max())


class TestCanonicalRicciForm:
    def test_flat_zero(self, analyses):
        pa = analyses["flat"][0]
        assert np.abs(gray.canonical_ricci_form(pa.batch.dr)[pa.index]).max() == 0.0

    def test_kahler_reduction_to_ricci_form(self, analyses):
        # With nabla J = 0 the torsion term dies and gamma0(X, Y) = 4 rho(JX->..):
        # compare against 4 Ric(J., .) built from the Ricci tensor directly.
        for name in KAHLER_NAMES:
            for pa in analyses[name]:
                gamma0 = gray.canonical_ricci_form(pa.batch.dr)[pa.index]
                rho4 = 4.0 * np.einsum("kx,ky->xy", J_FRAME, at(pa, "cd").ric_frame)
                assert np.abs(gamma0 - rho4).max() < 1e-8
                assert _antisymmetry(gamma0) < 1e-8

    def test_kodaira_thurston_antisymmetry(self, analyses):
        for pa in analyses["kodaira-thurston"]:
            assert _antisymmetry(gray.canonical_ricci_form(pa.batch.dr)[pa.index]) < 1e-8


class TestClassification:
    def test_verdicts(self, analyses):
        assert at(analyses["flat"][0], "ladder").verdict == "KAHLER"
        assert at(analyses["fubini-study"][0], "ladder").verdict == "KAHLER"
        assert at(analyses["kodaira-thurston"][0], "ladder").verdict == "AK"
        assert "einstein" in at(analyses["complex-hyperbolic"][0], "ladder").flags

    def test_almost_hermitian_verdict(self, ricci_anti_analysis):
        assert at(ricci_anti_analysis, "ladder").verdict == "ALMOST-HERMITIAN"

    @pytest.mark.parametrize("ric_anti_norm", [5e-8, 5e-9])
    def test_j_invariant_ricci_flag_agrees_with_the_hypothesis(self, analyses, ric_anti_norm):
        # 5e-8 lies between the verdict bound 1e-7 and the hypothesis bound 1e-8
        full = analyses["kodaira-thurston"][0]
        dr = dataclasses.replace(full.batch.dr, ric_anti_norm=np.array([ric_anti_norm]))
        flagged = "j-invariant-ricci" in gray.classify(full.batch.cd, dr, full.batch.hfo).flags[0]
        assert flagged == cli.j_invariant_ricci(SimpleNamespace(dr=dr))[0] == (ric_anti_norm < 1e-8)

    @pytest.mark.parametrize("d_omega_norm", [5e-8, 5e-10])
    def test_almost_kahler_verdict_agrees_with_the_hypothesis(self, analyses, d_omega_norm):
        # 5e-8 lies between the verdict bound 1e-7 and the hypothesis bound 1e-9
        full = analyses["kodaira-thurston"][0]
        hfo = dataclasses.replace(full.batch.hfo, d_omega_norm=np.array([d_omega_norm]))
        verdict = gray.classify(full.batch.cd, full.batch.dr, hfo).verdict[0]
        assert verdict.startswith("AK") == cli.almost_kahler(SimpleNamespace(hfo=hfo))[0] == (d_omega_norm < 1e-9)


class TestLemma6EquivalenceAcrossCharts:
    def test_both_directions_on_all_analyzed_points(self, analyses):
        for rows in analyses.values():
            for pa in rows:
                triple_max = gray.lemma6_triple(pa.batch.dr)[pa.index]
                gr = at(pa, "gr")
                spread = gr.mu_max - gr.mu_min
                if triple_max < 1e-8:
                    assert spread < 1e-7
                    assert abs(gr.mu_max - gr.mu_formula) < 1e-7
                if spread < 1e-10:
                    assert triple_max < 1e-7
