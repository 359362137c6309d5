"""Connection, curvature, covariant differentiation, first-order invariants."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from ak4 import charts, cli, gray, jets, riemann
from ak4.errors import JetOrderError
from ak4.jets import Jet

from conftest import KAHLER_NAMES, product_surfaces, rotated_j_chart, sphere_factor, structure_point
from oracles import fd_christoffel, fd_curvature, fd_nabla_omega


def _invariant_residuals(cd: riemann.CurvatureData) -> dict[str, float]:
    """Symmetry, first-Bianchi, operator-symmetry and metric-compatibility residuals."""
    rf = cd.R_frame
    scale = max(1.0, float(np.abs(rf).max()))
    res = {
        "antisymmetry (first pair)": float(np.abs(rf + rf.transpose(1, 0, 2, 3)).max()),
        "antisymmetry (second pair)": float(np.abs(rf + rf.transpose(0, 1, 3, 2)).max()),
        "pair symmetry": float(np.abs(rf - rf.transpose(2, 3, 0, 1)).max()),
        "first Bianchi": float(np.abs(rf + rf.transpose(0, 2, 3, 1) + rf.transpose(0, 3, 1, 2)).max()),
        "operator symmetric": float(np.abs(cd.operator - cd.operator.T).max()),
    }
    nabla_g = cd.conn.covd(cd.sp.g)
    res["metric compatibility"] = float(np.abs(nabla_g.value).max())
    res["scale"] = scale
    return res


class TestConnection:
    def test_flat_connection_vanishes(self, analyses):
        conn = analyses["flat"][0].cd.conn
        assert np.abs(conn.gamma.c).max() == 0.0

    def test_conformal_factor_christoffels(self):
        # g = e^{2u}(dx1^2 + dx2^2) + flat, u = x1: the 2d block has
        # G^1_11 = 1, G^1_22 = -1, G^2_12 = G^2_21 = 1, everything else 0.
        spec = product_surfaces("exp(x1)", "1", name="exp-factor", domain=((-0.8, 0.8),) * 4)
        for p in [(0.3, -0.2, 0.0, 0.0), (0.0, 0.5, 0.1, 0.2), (-0.6, 0.1, 0.4, -0.4)]:
            sp = structure_point(spec, p, order=2)
            [conn] = riemann.connection([sp])
            g = conn.gamma.value
            expected = np.zeros((4, 4, 4))
            expected[0, 0, 0] = 1.0
            expected[0, 1, 1] = -1.0
            expected[1, 0, 1] = expected[1, 1, 0] = 1.0
            assert np.abs(g - expected).max() < 1e-13
            fd = fd_christoffel(spec, p)
            assert np.abs(g - fd).max() < 1e-6

    def test_metric_compatibility_all_charts(self, analyses):
        for rows in analyses.values():
            for pa in rows:
                nabla_g = pa.cd.conn.covd(pa.sp.g)
                assert np.abs(nabla_g.c).max() < 1e-9

    def test_torsion_free(self, analyses):
        for rows in analyses.values():
            for pa in rows:
                g = pa.cd.conn.gamma
                assert np.abs(g.c - np.swapaxes(g.c, 1, 2)).max() < 1e-14

    def test_insufficient_order(self, catalog_specs):
        sp = structure_point(catalog_specs["flat"], (0, 0, 0, 0), order=0)
        with pytest.raises(JetOrderError):
            riemann.connection([sp])


class TestCurvature:
    def test_flat_curvature_vanishes(self, analyses):
        cd = analyses["flat"][0].cd
        assert np.abs(cd.R_frame).max() == 0.0
        assert cd.s_value == 0.0

    def test_sphere_times_plane_scalar_two(self):
        spec = product_surfaces(sphere_factor(1.0), "1", name="sphere-plane", domain=((-0.7, 0.7),) * 4)
        for p in spec.sample_points(3, 5):
            sp = structure_point(spec, p, order=4)
            [cd] = riemann.curvature(riemann.connection([sp]))
            assert abs(cd.s_value - 2.0) < 1e-8
            fd = fd_curvature(spec, p)
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(cd.R.value - fd).max() / scale < 1e-4

    def test_complex_hyperbolic_einstein_negative(self, analyses):
        for pa in analyses["complex-hyperbolic"]:
            assert np.abs(pa.cd.ric0_frame).max() < 1e-8
            assert pa.cd.s_value < 0

    def test_symmetries_and_first_bianchi(self, analyses):
        for rows in analyses.values():
            for pa in rows:
                res = _invariant_residuals(pa.cd)
                assert res["antisymmetry (first pair)"] < 1e-9
                assert res["antisymmetry (second pair)"] < 1e-9
                assert res["pair symmetry"] < 1e-9
                assert res["first Bianchi"] < 1e-8
                assert res["operator symmetric"] < 1e-9

    def test_jets_vs_finite_difference_pipeline(self, catalog_specs):
        # Independent-pipeline cross-check: coordinate curvature components
        # from jets against nested second-order central differences.
        for name, spec in catalog_specs.items():
            for p in spec.sample_points(2, 13):
                sp = structure_point(spec, p, order=2)
                [cd] = riemann.curvature(riemann.connection([sp]))
                fd = fd_curvature(spec, p)
                scale = max(1.0, np.abs(fd).max())
                assert np.abs(cd.R.value - fd).max() / scale < 1e-4, name

    def test_insufficient_order(self, catalog_specs):
        sp = structure_point(catalog_specs["fubini-study"], (0, 0, 0, 0), order=1)
        with pytest.raises(JetOrderError):
            riemann.curvature(riemann.connection([sp]))


class TestHermitianFirstOrder:
    def test_kahler_charts_have_parallel_j(self, analyses):
        for name in KAHLER_NAMES:
            for pa in analyses[name]:
                h = pa.hfo
                assert h.nabla_j_sq < 1e-18
                assert h.theta_norm < 1e-9
                assert h.nijenhuis_norm < 1e-9
                a_norm = np.abs(h.a.value).max()
                b_norm = np.abs(h.b.value).max()
                assert max(a_norm, b_norm) < 1e-9

    def test_kodaira_thurston_strictly_almost_kahler(self, analyses, catalog_specs):
        for pa in analyses["kodaira-thurston"]:
            h = pa.hfo
            assert h.d_omega_norm < 1e-9
            assert h.theta_norm < 1e-9
            assert h.b_plus_ja_norm < 1e-9  # b = -Ja
            a_sq = float(jets.contract(h.a, jets.contract(pa.sp.g_inv, h.a, 1, 0), 0, 0).value)
            s_star_minus_s = pa.dr.s_star - pa.dr.s
            assert abs(a_sq - s_star_minus_s / 4.0) < 1e-8
            fd = fd_nabla_omega(catalog_specs["kodaira-thurston"], pa.sp.point)
            assert np.abs(fd - h.conn.nabla_omega.value).max() < 1e-6

    def test_nabla_j_identity_all_charts(self, analyses, ricci_anti_analysis):
        rows = [pa for chart_rows in analyses.values() for pa in chart_rows]
        rows.append(ricci_anti_analysis)  # integrable non-Kahler: N = 0, theta != 0
        for pa in rows:
            assert pa.hfo.identity_residual < 1e-8

    def test_lee_form_on_warped_chart(self, ricci_anti_analysis):
        # theta = 2 f'/f dx1 for g = dx1^2 + dx2^2 + f(x1)^2(dx3^2 + dx4^2)
        pa = ricci_anti_analysis
        x1 = pa.sp.point[0]
        f = 1 + x1**2 / 2
        expected = np.array([2 * x1 / f, 0, 0, 0])
        assert np.abs(pa.hfo.theta.value - expected).max() < 1e-12
        assert pa.hfo.nijenhuis_norm < 1e-12


    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_values_from_order_0_equal_the_first_order_jets(self, catalog_specs, order):
        # a, b, theta and b + Ja as first-order jets, built the way the
        # nabla2-omega-shape row builds a; tobytes(), so the sign of zero counts
        batches = [(spec, spec.sample_points(4, 7)) for spec in catalog_specs.values()]
        for pa in cli.point_analyses(charts.structure_at(batches, order)):
            sp, conn, hfo = pa.sp, pa.conn, pa.hfo
            a = riemann.nabla_omega_along(conn.nabla_omega, sp.phi, sp.g_inv)
            b = riemann.nabla_omega_along(conn.nabla_omega, sp.jphi, sp.g_inv)
            theta = -jets.contract(riemann.neg_trace(sp.g_inv, conn.nabla_omega), sp.J, 0, 0)
            b_plus_ja = b - jets.contract(a, sp.J, 0, 0)
            assert (a.order, hfo.a.order) == (1, 0)
            assert hfo.a.value.tobytes() == a.value.tobytes()
            assert hfo.b.value.tobytes() == b.value.tobytes()
            assert hfo.theta.value.tobytes() == theta.value.tobytes()
            assert hfo.theta_norm == float(riemann._frame_max(theta.value, sp.frame))
            assert hfo.b_plus_ja_norm == float(riemann._frame_max(b_plus_ja.value, sp.frame))


class TestRicciIdentity:
    def test_flat_zero(self, analyses):
        assert riemann.ricci_identity_check([analyses["flat"][0].cd]) == [0.0]

    def test_all_catalog_charts(self, analyses):
        for rows in analyses.values():
            for pa in rows:
                assert riemann.ricci_identity_check([pa.cd])[0] < 1e-8

    def test_covariant_derivative_order_exhaustion(self, catalog_specs):
        sp = structure_point(catalog_specs["fubini-study"], (0.1, 0, 0, 0), order=3)
        [conn] = riemann.connection([sp])
        [cd] = riemann.curvature([conn])
        dr = conn.covd(cd.R)  # curvature has order 1 at chart order 3
        assert dr.order == 0
        with pytest.raises(JetOrderError):
            conn.covd(dr)  # order exhausted: error, never silent truncation


#: The values of each batched stage's record that a test compares, by the
#: PointAnalysis attribute that holds the record: every dataclass field but
#: the records and structure it was built from, and every value that the
#: first read fills for the whole batch.
STAGE_VALUES = {
    "conn": ("gamma", "nabla_omega", "nabla2_omega"),
    "cd": ("R", "ric", "s", "R_frame", "ric_frame", "s_value", "operator", "ric0_frame", "ric0", "h", "h_raised", "weyl", "weyl_plus", "weyl_minus"),
    "hfo": ("nabla_j_sq", "d_omega_norm", "nijenhuis", "nijenhuis_norm", "theta", "a", "b", "theta_norm", "b_plus_ja_norm", "identity_residual"),
    "dr": (
        "parts",
        "s",
        "ric0",
        "ric0_anti",
        "ric_anti_norm",
        "w1",
        "w2",
        "w3",
        "psi",
        "kappa",
        "ric_star",
        "s_star",
        "star_skew_residual",
        "recon_residual",
        "u2_residual",
        "orthogonality_residual",
        "kappa_identity_residual",
        "block_norms",
    ),
    "ladder": ("g1", "g2", "g3", "verdict", "flags"),
    "gr": ("mu_formula", "mu_min", "mu_max", "wplus_eigenvalues"),
}
#: The values an order-4 analysis adds: the codifferentials of the Weyl
#: tensors and the second-order report.
SECOND_ORDER_VALUES = {
    "cd": ("delta_weyl", "delta_weyl_plus", "delta_weyl_minus"),
    "sor": ("residuals", "bach_ak_skip_reason"),
}
#: Dataclass fields that hold an input of the stage, not a value it computed.
INPUTS = {"sp", "conn", "cd", "batch", "index"}
#: The hypotheses of the registry rows, each a column over a batch.
HYPOTHESES = (cli.almost_kahler, cli.j_invariant_ricci, cli.second_gray, cli.kahler_nullity, cli.lemma6_triple)


def _same(x, y) -> bool:
    """Same bits, for jets, dicts of arrays, arrays, floats and strings."""
    if isinstance(x, Jet):
        return x.order == y.order and np.array_equal(x.c, y.c)
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same(x[k], y[k]) for k in x)
    if isinstance(x, float):  # repr tells -0.0 from 0.0 and keeps NaN equal to itself
        return type(x) is type(y) and repr(x) == repr(y)
    return type(x) is type(y) and np.array_equal(x, y)


def _stage_values(pa: cli.PointAnalysis) -> dict[tuple[str, str], object]:
    """Every value of the point's analysis a batch must not change: the stage
    values, each hypothesis and the measured values behind them, each
    applicable row's residual, and the report's point document."""
    stages = (STAGE_VALUES, SECOND_ORDER_VALUES) if pa.order == 4 else (STAGE_VALUES,)
    values = {(stage, name): getattr(getattr(pa, stage), name) for group in stages for stage, names in group.items() for name in names}
    for hypothesis in HYPOTHESES:
        values["hypothesis", hypothesis.__name__] = hypothesis(pa.batch)[pa.index]
    values["hypothesis", "lemma5 triple"] = float(gray.lemma5_triple([pa.dr])[0])
    values["hypothesis", "lemma6 triple"] = float(gray.lemma6_triple([pa.dr])[0])
    for ident in cli.IDENTITIES:
        if ident.order <= pa.order:
            applies = ident.applies(pa.batch)[pa.index]
            values["applies", ident.name] = applies
            if applies:
                values["residual", ident.name] = ident.residual(pa.batch)[pa.index]
    rows = cli._identity_rows(pa.batch, 1.0)[pa.index]
    values["document", "json"] = cli._json_text(cli._point_document(pa, rows))
    return values


def _assert_batches_match(sps: list, n: int) -> None:
    """Analyses of `sps` (charts of n points each) in one batch and per chart
    give every value of one-point batches, bit for bit."""
    alone = [cli.point_analyses([sp]) for sp in sps]
    per_chart = [pa for k in range(0, len(sps), n) for pa in cli.point_analyses(sps[k : k + n])]
    together = cli.point_analyses(sps)
    assert len(alone) == len(per_chart) == len(together) == len(sps)
    for [a], b, c in zip(alone, per_chart, together):
        expected = _stage_values(a)
        for label, analysis in (("per chart", b), ("all charts", c)):
            values = _stage_values(analysis)
            assert values.keys() == expected.keys(), label
            for key, value in values.items():
                assert _same(value, expected[key]), (key, label)


class TestPipelineBatch:
    """Each batched stage gives each point the bits of a one-point batch."""

    def test_every_computed_field_is_compared(self, analyses):
        pa = analyses["kodaira-thurston"][0]
        for stage, names in STAGE_VALUES.items():
            fields = {f.name for f in dataclasses.fields(getattr(pa, stage))}
            assert fields - INPUTS <= set(names), stage

    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_every_value_equals_the_one_point_batch(self, catalog_specs, order, n):
        batches = [(spec, spec.sample_points(n, 23)) for spec in catalog_specs.values()]
        _assert_batches_match(charts.structure_at(batches, order), n)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_a_batch_where_the_closed_bach_forms_apply_at_some_points(self, catalog_specs, n):
        # fubini-study and kodaira-thurston points in one batch, as `check --chart all` batches them
        batches = [(catalog_specs[name], catalog_specs[name].sample_points(n, 31)) for name in ("fubini-study", "kodaira-thurston")]
        sps = charts.structure_at(batches, 4)
        reasons = [pa.sor.bach_ak_skip_reason for pa in cli.point_analyses(sps)]
        assert reasons[:n] == [None] * n and None not in reasons[n:]
        _assert_batches_match(sps, n)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_a_batch_whose_points_take_their_frame_from_different_candidates(self, order):
        # e3 comes from d3 (m = 2) at x1 = 0 and from d2 (m = 1) at x1 = 0.3
        pts = np.array([(0.0, 0.1, 0.2, 0.3), (0.3, 0.1, 0.2, 0.3), (0.0, -0.4, 0.5, 0.1)])
        sps = charts.structure_at([(rotated_j_chart(), pts)], order)
        assert [bool(np.abs(sp.frame[2] - [0.0, 0.0, 1.0, 0.0]).max() < 1e-15) for sp in sps] == [True, False, True]
        _assert_batches_match(sps, len(sps))

    def test_a_curvature_batch_reads_mu_from_consecutive_structure_points(self, catalog_specs):
        spec = catalog_specs["fubini-study"]
        sps = charts.structure_at([(spec, spec.sample_points(4, 5))], 4)
        [cd] = riemann.curvature(riemann.connection(sps[1:2]))
        assert np.shares_memory(cd.batch._mu.c, sps[0].batch.mu.c)
        assert np.array_equal(cd.batch._mu.c[0], sps[1].mu.c)
        cds = riemann.curvature(riemann.connection([sps[0], sps[2]]))
        with pytest.raises(ValueError, match="consecutive structure points"):
            cds[0].batch._mu

    def test_the_first_read_fills_the_batch(self, catalog_specs):
        spec = catalog_specs["kodaira-thurston"]
        pas = cli.point_analyses(charts.structure_at([(spec, spec.sample_points(3, 5))], 2))
        ladder = pas[1].ladder
        batch = pas[0].batch
        assert {"conn", "cd", "hfo", "dr", "ladder"} <= vars(batch).keys()
        assert all(pa.batch is batch for pa in pas) and batch.ladder[1] is ladder
        assert "nabla_omega" in vars(pas[0].conn.batch) and "ric0_frame" in vars(pas[0].cd.batch)
        assert "_u2" not in vars(pas[0].dr.batch)  # the ladder reads no U(2) block
