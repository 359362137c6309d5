"""Cotton-York, the delta W+ split, and the three Bach routes."""

from __future__ import annotations

import numpy as np
import pytest

from ak4 import bianchi_bach, charts, cli, jets, riemann, tensorops
from ak4.cli import PointAnalysis
from ak4.errors import JetOrderError
from ak4.exprs import parse_expr

from conftest import EINSTEIN_NAMES, at, divergence, expr_jet, identity, point_analysis, product_surfaces, second_order_residuals, sphere_factor, structure_batch


def _cotton_frame(pa: PointAnalysis) -> np.ndarray:
    """Frame components C[x, y, z] of the Cotton-York tensor at the point."""
    return tensorops.frame_components(bianchi_bach.cotton_york(pa.batch.cd)[pa.index].value, at(pa, "structure").frame)


class TestCottonYork:
    def test_flat_zero(self, analyses):
        assert np.abs(_cotton_frame(analyses["flat"][0])).max() == 0.0

    def test_einstein_charts_zero(self, analyses):
        for name in EINSTEIN_NAMES:
            for pa in analyses[name]:
                assert np.abs(_cotton_frame(pa)).max() < 1e-7

    def test_product_surfaces_nonzero_with_bianchi(self, analyses):
        for pa in analyses["product-surfaces"]:
            assert np.abs(_cotton_frame(pa)).max() > 1e-3  # non-constant curvature
            assert second_order_residuals(pa)["delta W = C"] < 1e-7

    def test_delta_w_equals_c_all_charts(self, analyses):
        for rows in analyses.values():
            for pa in rows:
                assert second_order_residuals(pa)["delta W = C"] < 1e-7
                assert second_order_residuals(pa)["delta W+ = C+"] < 1e-7

    def test_insufficient_order(self, catalog_specs):
        cd = riemann.curvature(riemann.connection(structure_batch(catalog_specs["fubini-study"], (0, 0, 0, 0), order=2)))
        with pytest.raises(JetOrderError):
            bianchi_bach.cotton_york(cd)

    def test_delta_weyl_memoized_from_each_weyl_piece(self, analyses):
        cd = analyses["kodaira-thurston"][0].batch.cd
        dws = bianchi_bach.delta_weyl(cd)
        assert dws is bianchi_bach.delta_weyl(cd) is cd.delta_weyls
        for dw, w in zip(dws, (cd.weyl, cd.weyl_plus, cd.weyl_minus), strict=True):
            assert np.array_equal(dw[0].c, (-divergence(cd.conn, w[0], 0)).c)


class TestDeltaWPlusSplit:
    def test_flat_alpha_beta_zero(self, analyses):
        res = second_order_residuals(analyses["flat"][0])
        assert res["alpha norm"] == 0.0
        assert res["beta norm"] == 0.0

    def test_product_surfaces_alpha_is_minus_ds_over_12(self, analyses):
        # Kahler with J-invariant Ricci and theta = 0: alpha = -ds/12,
        # nontrivially nonzero since the scalar curvature varies.
        for pa in analyses["product-surfaces"]:
            assert second_order_residuals(pa)["alpha norm"] > 1e-3
            assert second_order_residuals(pa)["alpha formula"] < 1e-7
            assert second_order_residuals(pa)["beta formula"] < 1e-7
            assert second_order_residuals(pa)["beta norm"] < 1e-7  # integrable: V- part vanishes

    def test_completeness_all_charts(self, analyses):
        for rows in analyses.values():
            for pa in rows:
                assert second_order_residuals(pa)["V+ + V- completeness"] < 1e-7

    def test_hypothesis_sensitivity(self, ricci_anti_analysis, analyses):
        # With Ric not J-invariant the alpha formula must fail decisively.
        assert at(ricci_anti_analysis, "dr").ric_anti_norm > 1e-2
        assert second_order_residuals(ricci_anti_analysis)["alpha formula"] > 1e-2
        for pa in analyses["kodaira-thurston"]:
            assert second_order_residuals(pa)["alpha formula"] > 1e-2

    def test_reconstruction_inverts_extraction(self):
        # A(alpha) and B(beta) are injective with clean extractions: feeding a
        # reconstructed element back through the split returns the 1-forms.
        rng = np.random.default_rng(3)
        for _ in range(20):
            alpha = rng.standard_normal(4)
            beta = rng.standard_normal(4)
            v = bianchi_bach.reconstruct_v_plus(alpha) + bianchi_bach.reconstruct_v_minus(beta)
            [a2], [b2], [comp] = bianchi_bach.split_delta_wplus(v[None])
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
        assert np.abs(bianchi_bach.bach_direct(analyses["flat"][0].batch.cd)[0]).max() == 0.0

    def test_einstein_and_self_dual_vanish(self, analyses):
        for name in ("complex-hyperbolic", "fubini-study"):
            for pa in analyses[name]:
                assert np.abs(bianchi_bach.bach_direct(pa.batch.cd)[pa.index]).max() < 1e-6

    def test_three_way_agreement(self, analyses):
        for rows in analyses.values():
            for pa in rows:
                res = second_order_residuals(pa)
                assert res["bach direct vs plus"] < 1e-6
                assert res["bach direct vs minus"] < 1e-6
                assert res["bach symmetric"] < 1e-7
                assert res["bach traceless"] < 1e-7

    def test_almost_kahler_form_on_product_surfaces(self, analyses):
        for pa in analyses["product-surfaces"]:
            assert "bach_ak_skipped" not in cli._point_document(pa, [])["second_order"]
            assert second_order_residuals(pa)["bach direct vs almost-kahler form"] < 1e-6
            assert second_order_residuals(pa)["bach direct vs ricci form"] < 1e-6
            assert np.abs(bianchi_bach.bach_direct(pa.batch.cd)[pa.index]).max() > 1e-3  # genuinely non-Bach-flat

    def test_almost_kahler_form_rejected_on_kodaira_thurston(self, analyses):
        for pa in analyses["kodaira-thurston"]:
            assert second_order_residuals(pa)["bach direct vs almost-kahler form"] is None
            second_order = cli._point_document(pa, [])["second_order"]
            assert second_order["bach_ak_skipped"] == f"Ricci tensor not J-invariant at this point: |Ric^anti| = {at(pa, 'dr').ric_anti_norm:.3e}"

    def test_almost_kahler_form_skipped_where_not_almost_kahler(self, ricci_anti_analysis):
        # Hermitian, not almost Kahler: the message names |dOmega|, the first hypothesis that fails
        second_order = cli._point_document(ricci_anti_analysis, [])["second_order"]
        d_omega = at(ricci_anti_analysis, "hfo").d_omega_norm
        assert d_omega > 1e-3
        assert second_order["bach_ak_skipped"] == f"not almost Kahler at this point: |dOmega| = {d_omega:.3e}"

    def test_closed_form_columns_follow_the_registry_row(self, catalog_specs):
        # fubini-study points, where the closed forms apply, in one batch with kodaira-thurston points
        batches = [(catalog_specs[name], catalog_specs[name].sample_points(2, 31)) for name in ("fubini-study", "kodaira-thurston")]
        batch = cli.point_analyses(charts.structure_at(batches, 4))[0].batch
        applies = identity("bach-ak-form").applies(batch)
        assert type(batch.sor) is dict and applies == [True, True, False, False]
        for name in ("bach direct vs almost-kahler form", "bach direct vs ricci form"):
            assert [value is not None for value in batch.sor[name]] == applies

    def test_almost_kahler_form_gives_each_point_its_bits_alone(self, catalog_specs):
        # kodaira-thurston: S = sum_i (nabla_i rho0) o (nabla_i Omega) is not 0
        spec = catalog_specs["kodaira-thurston"]
        points = spec.sample_points(5, 29)
        cd = riemann.curvature(riemann.connection(charts.structure_at([(spec, points)], 4)))
        rho0 = jets.contract(cd.conn.structure.J.truncate(1), cd.ric0.truncate(1), 0, 0)
        d_rho0 = tensorops.frame_components(riemann.covd(cd.gamma, rho0).value, cd.frame)
        d_omega = tensorops.frame_components(cd.conn.nabla_omega.value, cd.frame)
        assert np.abs(np.einsum("pmnj,pmin->pij", d_rho0, d_omega)).max(axis=(1, 2)).min() > 1e-3
        together = bianchi_bach.bach_almost_kahler(cd)
        for k, p in enumerate(points):
            alone = bianchi_bach.bach_almost_kahler(riemann.curvature(riemann.connection(charts.structure_at([(spec, p[None])], 4))))
            assert [b[k].tobytes() for b in together] == [b[0].tobytes() for b in alone]

    def test_constant_scalar_j_invariant_reduction(self):
        # Kahler, constant s, non-Einstein: every derivative term in the
        # almost Kahler Bach formula vanishes, leaving B = -(s/6) Ric0.
        spec = product_surfaces(sphere_factor(1.0), "1", name="sphere-plane", domain=((-0.7, 0.7),) * 4)
        for p in spec.sample_points(2, 17):
            pa = point_analysis(spec, p, order=4)
            expected = -(at(pa, "cd").s_value / 6.0) * at(pa, "dr").ric0
            [bach_ak], _ = bianchi_bach.bach_almost_kahler(pa.batch.cd)
            assert np.abs(bianchi_bach.bach_direct(pa.batch.cd)[pa.index] - expected).max() < 1e-7
            assert np.abs(bach_ak - expected).max() < 1e-7


def per_route_bach(cd: riemann.CurvatureBatch, w: jets.Jet, dw: jets.Jet) -> np.ndarray:
    """One Bach route alone: sum_i [nabla_i (dw)(X, e_i, Y) + w(X, e_i, h(e_i), Y)] in frame components."""
    term1 = riemann.divergence(cd.g_inv, cd.gamma, dw, 1).value
    term2 = jets.contract(w.truncate(0), cd.h_raised, (1, 2), (0, 1)).value
    return tensorops.frame_components(term1 + term2, cd.frame)


class TestStackedRoutes:
    """The Bach routes and the Weitzenboeck forms run stacked on the point
    axis; each keeps the bits it has alone."""

    @pytest.fixture(scope="class")
    def cd(self, catalog_specs):
        batches = [(spec, spec.sample_points(2, 19)) for spec in catalog_specs.values()]
        return riemann.curvature(riemann.connection(charts.structure_at(batches, 4)))

    def test_each_bach_route_matches_the_route_alone(self, cd):
        dw, dwp, dwm = cd.delta_weyls
        direct = per_route_bach(cd, cd.weyl, dw)
        plus, minus = (2.0 * per_route_bach(cd, w, d) for w, d in ((cd.weyl_plus, dwp), (cd.weyl_minus, dwm)))
        assert bianchi_bach.bach_direct(cd).tobytes() == direct.tobytes()
        assert [b.tobytes() for b in bianchi_bach.bach_gauduchon(cd)] == [plus.tobytes(), minus.tobytes()]

    def test_a_weitzenboeck_residual_does_not_depend_on_the_forms_beside_it(self, cd):
        points, order = cd.conn.structure.points, cd.conn.structure.order
        f1, f2 = (bianchi_bach.random_polynomial_2form(points, order, seed) for seed in (3, 4))
        [omega] = bianchi_bach.weitzenboeck_check(cd)
        omega_1, res_1 = bianchi_bach.weitzenboeck_check(cd, f1)
        omega_21, res_2, res_21 = bianchi_bach.weitzenboeck_check(cd, f2, f1)
        assert omega.tobytes() == omega_1.tobytes() == omega_21.tobytes()
        assert res_1.tobytes() == res_21.tobytes() and res_2.tobytes() != res_1.tobytes()


class TestWeitzenboeck:
    def test_flat_any_field(self, analyses):
        pa = analyses["flat"][0]
        assert second_order_residuals(pa)["weitzenboeck omega"] < 1e-7
        assert second_order_residuals(pa)["weitzenboeck random"] < 1e-7

    def test_harmonic_omega_reduction(self, analyses):
        # On almost Kahler charts Omega is closed and coclosed, so
        # nabla*nabla Omega = delta(nabla Omega) = -(s/3) Omega + 2 W(Omega).
        for name in ("product-surfaces", "kodaira-thurston"):
            for pa in analyses[name]:
                sp, cd, conn = pa.batch.structure, pa.batch.cd, pa.batch.conn
                rough = -divergence(conn, conn.nabla_omega[pa.index], 0, pa.index)
                w_om = 0.5 * jets.contract(cd.weyl, tensorops.raise_pair(sp.omega, sp.g_inv, 0, 1), (2, 3), (0, 1))[pa.index]
                rhs = -(cd.s[pa.index] / 3.0) * sp.omega[pa.index] + 2.0 * w_om
                res = np.abs(tensorops.frame_components((rough - rhs).value, sp.frame[pa.index])).max()
                assert res < 1e-7

    def test_random_field_is_the_rounded_polynomial(self, analyses):
        # the field is the expression text with the same rng draws, parsed and evaluated as jets
        structure = analyses["kodaira-thurston"][0].batch.structure
        [field] = bianchi_bach.random_polynomial_2form(structure.points, structure.order, 2024)
        rng = np.random.default_rng(np.random.SeedSequence([2024, 0x2F]))
        monomials = ["1", "x1", "x2", "x3", "x4", "x1*x3", "x2^2", "x4*x1", "x3^2"]
        for i in range(4):
            assert not field[i, i].c.any()
            for j in range(i + 1, 4):
                src = " + ".join(f"({c:.6f})*{m}" for c, m in zip(rng.uniform(-1.0, 1.0, 9), monomials))
                expect = expr_jet(parse_expr(src), structure.points[0], field.order).c
                assert np.array_equal(field[i, j].c, expect)
                assert np.array_equal(field[j, i].c, -expect)

    def test_random_field_all_charts(self, analyses):
        for rows in analyses.values():
            for pa in rows:
                assert second_order_residuals(pa)["weitzenboeck random"] < 1e-6

    def test_insufficient_order(self, catalog_specs):
        cd = riemann.curvature(riemann.connection(structure_batch(catalog_specs["flat"], (0, 0, 0, 0), order=2)))
        with pytest.raises(JetOrderError):
            bianchi_bach.weitzenboeck_check(cd)


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
            ric0_norm = float(algebra.frobenius(at(pa, "dr").ric0))
            beta_norm = second_order_residuals(pa)["beta norm"]
            if ric0_norm > 1e-3 and beta_norm < 1e-8:
                assert at(pa, "hfo").nijenhuis_norm < 1e-6
                checked += 1
            if at(pa, "hfo").nijenhuis_norm < 1e-9 and at(pa, "dr").ric_anti_norm < 1e-8:
                assert beta_norm < 1e-8
        assert checked >= 3  # the implication is exercised, not vacuous
