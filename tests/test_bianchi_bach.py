"""Cotton-York, the delta W+ split, and the three Bach routes."""

from __future__ import annotations

import numpy as np
import pytest

from ak4 import bianchi_bach, charts, jets, riemann, tensorops
from ak4.cli import analyze_point
from ak4.errors import AK4Error, JetOrderError
from ak4.exprs import eval_jet, parse_expr

from conftest import EINSTEIN_NAMES, KAHLER_NAMES


class TestCottonYork:
    def test_flat_zero(self, analyses):
        assert np.abs(analyses["flat"][0].sor.cotton).max() == 0.0

    def test_einstein_charts_zero(self, analyses):
        for name in EINSTEIN_NAMES:
            for pa in analyses[name]:
                assert np.abs(pa.sor.cotton).max() < 1e-7

    def test_product_surfaces_nonzero_with_bianchi(self, analyses):
        for pa in analyses["product-surfaces"]:
            assert np.abs(pa.sor.cotton).max() > 1e-3  # non-constant curvature
            assert pa.sor.residuals["delta W = C"] < 1e-7

    def test_delta_w_equals_c_all_charts(self, analyses):
        for rows in analyses.values():
            for pa in rows:
                assert pa.sor.residuals["delta W = C"] < 1e-7
                assert pa.sor.residuals["delta W+ = C+"] < 1e-7

    def test_insufficient_order(self, catalog_specs):
        sp = charts.structure_at(catalog_specs["fubini-study"], (0, 0, 0, 0), order=2)
        cd = riemann.curvature(riemann.connection(sp))
        with pytest.raises(JetOrderError):
            bianchi_bach.cotton_york(cd)

    def test_delta_weyl_memoized_from_each_weyl_piece(self, analyses):
        cd = analyses["kodaira-thurston"][0].cd
        for which, w in (("full", cd.weyl), ("plus", cd.weyl_plus), ("minus", cd.weyl_minus)):
            dw = bianchi_bach.delta_weyl(cd, which)
            assert dw is bianchi_bach.delta_weyl(cd, which)
            assert np.array_equal(dw.c, cd.conn.codifferential(w).c)


class TestDeltaWPlusSplit:
    def test_flat_alpha_beta_zero(self, analyses):
        sor = analyses["flat"][0].sor
        assert np.abs(sor.alpha).max() == 0.0
        assert np.abs(sor.beta).max() == 0.0

    def test_product_surfaces_alpha_is_minus_ds_over_12(self, analyses):
        # Kahler with J-invariant Ricci and theta = 0: alpha = -ds/12,
        # nontrivially nonzero since the scalar curvature varies.
        for pa in analyses["product-surfaces"]:
            assert np.abs(pa.sor.alpha).max() > 1e-3
            assert pa.sor.residuals["alpha formula"] < 1e-7
            assert pa.sor.residuals["beta formula"] < 1e-7
            assert np.abs(pa.sor.beta).max() < 1e-7  # integrable: V- part vanishes

    def test_completeness_all_charts(self, analyses):
        for rows in analyses.values():
            for pa in rows:
                assert pa.sor.residuals["V+ + V- completeness"] < 1e-7

    def test_hypothesis_sensitivity(self, ricci_anti_analysis, analyses):
        # With Ric not J-invariant the alpha formula must fail decisively.
        assert ricci_anti_analysis.dr.ric_anti_norm > 1e-2
        assert ricci_anti_analysis.sor.residuals["alpha formula"] > 1e-2
        for pa in analyses["kodaira-thurston"]:
            assert pa.sor.residuals["alpha formula"] > 1e-2

    def test_reconstruction_inverts_extraction(self):
        # A(alpha) and B(beta) are injective with clean extractions: feeding a
        # reconstructed element back through the split returns the 1-forms.
        rng = np.random.default_rng(3)
        for _ in range(20):
            alpha = rng.standard_normal(4)
            beta = rng.standard_normal(4)
            v = bianchi_bach.reconstruct_v_plus(alpha) + bianchi_bach.reconstruct_v_minus(beta)
            a2, b2, comp = bianchi_bach.split_delta_wplus(None, v)
            assert np.abs(a2 - alpha).max() < 1e-12
            assert np.abs(b2 - beta).max() < 1e-12
            assert comp < 1e-12

    def test_v_elements_are_self_dual_and_trace_free(self):
        rng = np.random.default_rng(4)
        star = np.zeros((6, 6))
        from ak4.charts import FRAME_FORMS

        for _ in range(10):
            alpha = rng.standard_normal(4)
            beta = rng.standard_normal(4)
            for v in (bianchi_bach.reconstruct_v_plus(alpha), bianchi_bach.reconstruct_v_minus(beta)):
                # each value v[m] is a self-dual 2-form: expand in the basis
                for m in range(4):
                    coeffs = np.einsum("aij,ij->a", FRAME_FORMS, v[m]) / 4.0
                    rebuilt = np.einsum("a,aij->ij", coeffs, FRAME_FORMS)
                    assert np.abs(rebuilt - v[m]).max() < 1e-12
                    assert np.abs(coeffs[3:]).max() < 1e-12  # no anti-self-dual part
                trace = np.einsum("mmj->j", v)
                assert np.abs(trace).max() < 1e-12


class TestBach:
    def test_flat_zero(self, analyses):
        assert np.abs(analyses["flat"][0].sor.bach_direct).max() == 0.0

    def test_einstein_and_self_dual_vanish(self, analyses):
        for name in ("complex-hyperbolic", "fubini-study"):
            for pa in analyses[name]:
                assert np.abs(pa.sor.bach_direct).max() < 1e-6

    def test_three_way_agreement(self, analyses):
        for rows in analyses.values():
            for pa in rows:
                res = pa.sor.residuals
                assert res["bach direct vs plus"] < 1e-6
                assert res["bach direct vs minus"] < 1e-6
                assert res["bach symmetric"] < 1e-7
                assert res["bach traceless"] < 1e-7

    def test_almost_kahler_form_on_product_surfaces(self, analyses):
        for pa in analyses["product-surfaces"]:
            assert pa.sor.bach_ak is not None
            assert pa.sor.residuals["bach direct vs almost-kahler form"] < 1e-6
            assert pa.sor.residuals["bach direct vs ricci form"] < 1e-6
            assert np.abs(pa.sor.bach_direct).max() > 1e-3  # genuinely non-Bach-flat

    def test_almost_kahler_form_rejected_on_kodaira_thurston(self, analyses):
        pa = analyses["kodaira-thurston"][0]
        assert pa.sor.bach_ak is None
        assert "not J-invariant" in pa.sor.bach_ak_skip_reason
        with pytest.raises(AK4Error, match="J-invariant"):
            bianchi_bach.bach_almost_kahler(pa.cd, pa.hfo, pa.dr.ric_anti_norm)

    def test_constant_scalar_j_invariant_reduction(self):
        # Kahler, constant s, non-Einstein: every derivative term in the
        # almost Kahler Bach formula vanishes, leaving B = -(s/6) Ric0.
        spec = charts.product_surfaces(charts.sphere_factor(1.0), "1", name="sphere-plane", domain=((-0.7, 0.7),) * 4)
        for p in spec.sample_points(2, 17):
            pa = analyze_point(spec, p, order=4)
            expected = -(pa.dr.s / 6.0) * pa.dr.ric0
            assert np.abs(pa.sor.bach_direct - expected).max() < 1e-7
            assert np.abs(pa.sor.bach_ak - expected).max() < 1e-7


class TestWeitzenboeck:
    def test_flat_any_field(self, analyses):
        pa = analyses["flat"][0]
        assert pa.sor.residuals["weitzenboeck omega"] < 1e-7
        assert pa.sor.residuals["weitzenboeck random"] < 1e-7

    def test_harmonic_omega_reduction(self, analyses):
        # On almost Kahler charts Omega is closed and coclosed, so
        # nabla*nabla Omega = -(s/3) Omega + 2 W(Omega).
        for name in ("product-surfaces", "kodaira-thurston"):
            for pa in analyses[name]:
                sp, cd = pa.sp, pa.cd
                rough = cd.conn.rough_laplacian(sp.omega)
                w_om = 0.5 * jets.contract(cd.weyl, tensorops.raise_pair(sp.omega, sp.g_inv, 0, 1), (2, 3), (0, 1))
                rhs = -(cd.s / 3.0) * sp.omega + 2.0 * w_om
                res = np.abs(tensorops.frame_components((rough - rhs).value, sp.frame)).max()
                assert res < 1e-7

    def test_random_field_is_the_rounded_polynomial(self, analyses):
        # the field is the expression text with the same rng draws, parsed and evaluated as jets
        sp = analyses["kodaira-thurston"][0].sp
        field = bianchi_bach.random_polynomial_2form(sp, 2024)
        rng = np.random.default_rng(np.random.SeedSequence([2024, 0x2F]))
        monomials = ["1", "x1", "x2", "x3", "x4", "x1*x3", "x2^2", "x4*x1", "x3^2"]
        for i in range(4):
            assert not field[i, i].c.any()
            for j in range(i + 1, 4):
                src = " + ".join(f"({c:.6f})*{m}" for c, m in zip(rng.uniform(-1.0, 1.0, 9), monomials))
                expect = eval_jet(parse_expr(src), sp.point, sp.order).c
                assert np.array_equal(field[i, j].c, expect)
                assert np.array_equal(field[j, i].c, -expect)

    def test_random_field_all_charts(self, analyses):
        for rows in analyses.values():
            for pa in rows:
                assert pa.sor.residuals["weitzenboeck random"] < 1e-6

    def test_insufficient_order(self, catalog_specs):
        sp = charts.structure_at(catalog_specs["flat"], (0, 0, 0, 0), order=2)
        cd = riemann.curvature(riemann.connection(sp))
        with pytest.raises(JetOrderError):
            bianchi_bach.weitzenboeck_check(sp, cd)


class TestIntegrabilityCriterion:
    def test_vanishing_v_minus_part_with_nonzero_ricci_forces_integrability(self, analyses, ricci_anti_analysis):
        # Across every analyzed chart point: Ric0 != 0 and (delta W+)^- = 0
        # implies the Nijenhuis tensor vanishes; conversely integrable charts
        # produce beta = 0.
        from ak4 import algebra

        rows = [pa for chart_rows in analyses.values() for pa in chart_rows]
        rows.append(ricci_anti_analysis)
        checked = 0
        for pa in rows:
            ric0_norm = float(algebra.frobenius(pa.dr.ric0))
            beta_norm = float(np.abs(pa.sor.beta).max())
            if ric0_norm > 1e-3 and beta_norm < 1e-8:
                assert pa.hfo.nijenhuis_norm < 1e-6
                checked += 1
            if pa.hfo.nijenhuis_norm < 1e-9 and pa.dr.ric_anti_norm < 1e-8:
                assert beta_norm < 1e-8
        assert checked >= 3  # the implication is exercised, not vacuous
