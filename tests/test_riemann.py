"""Connection, curvature, covariant differentiation, first-order invariants."""

from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from ak4 import charts, cli, gray, jets, riemann
from ak4.errors import JetOrderError
from ak4.jets import Jet

from conftest import KAHLER_NAMES, all_points, at, product_surfaces, rotated_j_chart, sphere_factor, structure_batch
from oracles import fd_christoffel, fd_curvature, fd_nabla_omega


def _invariant_residuals(pa: cli.PointAnalysis) -> dict[str, float]:
    """Symmetry, first-Bianchi and operator-symmetry residuals (metric
    compatibility is `TestConnection.test_metric_compatibility_all_charts`)."""
    cd = at(pa, "cd")
    rf = cd.R_frame
    scale = max(1.0, float(np.abs(rf).max()))
    res = {
        "antisymmetry (first pair)": float(np.abs(rf + rf.transpose(1, 0, 2, 3)).max()),
        "antisymmetry (second pair)": float(np.abs(rf + rf.transpose(0, 1, 3, 2)).max()),
        "pair symmetry": float(np.abs(rf - rf.transpose(2, 3, 0, 1)).max()),
        "first Bianchi": float(np.abs(rf + rf.transpose(0, 2, 3, 1) + rf.transpose(0, 3, 1, 2)).max()),
        "operator symmetric": float(np.abs(cd.operator - cd.operator.T).max()),
    }
    res["scale"] = scale
    return res


class TestConnection:
    def test_flat_connection_vanishes(self, analyses):
        conn = analyses["flat"][0].batch.conn
        assert np.abs(conn.gamma.c).max() == 0.0

    def test_conformal_factor_christoffels(self):
        # g = e^{2u}(dx1^2 + dx2^2) + flat, u = x1: the 2d block has
        # G^1_11 = 1, G^1_22 = -1, G^2_12 = G^2_21 = 1, everything else 0.
        spec = product_surfaces("exp(x1)", "1", name="exp-factor", domain=((-0.8, 0.8),) * 4)
        for p in [(0.3, -0.2, 0.0, 0.0), (0.0, 0.5, 0.1, 0.2), (-0.6, 0.1, 0.4, -0.4)]:
            g = riemann.connection(structure_batch(spec, p, order=2)).gamma.value[0]
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
                nabla_g = riemann.covd(pa.batch.conn.gamma, pa.batch.structure.g)
                assert np.abs(nabla_g.c).max() < 1e-9

    def test_torsion_free(self, analyses):
        for rows in analyses.values():
            for pa in rows:
                g = pa.batch.conn.gamma
                assert np.abs(g.c - np.swapaxes(g.c, 2, 3)).max() < 1e-14

    def test_insufficient_order(self, catalog_specs):
        structure = structure_batch(catalog_specs["flat"], (0, 0, 0, 0), order=0)
        with pytest.raises(JetOrderError):
            riemann.connection(structure)


def _curvature(spec, p, order: int) -> riemann.CurvatureBatch:
    """The curvature of `spec` at one point, a batch of one."""
    return riemann.curvature(riemann.connection(structure_batch(spec, p, order)))


class TestCurvature:
    def test_flat_curvature_vanishes(self, analyses):
        cd = at(analyses["flat"][0], "cd")
        assert np.abs(cd.R_frame).max() == 0.0
        assert cd.s_value == 0.0

    def test_sphere_times_plane_scalar_two(self):
        spec = product_surfaces(sphere_factor(1.0), "1", name="sphere-plane", domain=((-0.7, 0.7),) * 4)
        for p in spec.sample_points(3, 5):
            cd = _curvature(spec, p, order=4)
            assert abs(cd.s_value[0] - 2.0) < 1e-8
            fd = fd_curvature(spec, p)
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(cd.R.value[0] - fd).max() / scale < 1e-4

    def test_complex_hyperbolic_einstein_negative(self, analyses):
        for pa in analyses["complex-hyperbolic"]:
            cd = at(pa, "cd")
            assert np.abs(cd.ric0_frame).max() < 1e-8
            assert cd.s_value < 0

    def test_symmetries_and_first_bianchi(self, analyses):
        for rows in analyses.values():
            for pa in rows:
                res = _invariant_residuals(pa)
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
                cd = _curvature(spec, p, order=2)
                fd = fd_curvature(spec, p)
                scale = max(1.0, np.abs(fd).max())
                assert np.abs(cd.R.value[0] - fd).max() / scale < 1e-4, name

    def test_insufficient_order(self, catalog_specs):
        with pytest.raises(JetOrderError):
            _curvature(catalog_specs["fubini-study"], (0, 0, 0, 0), order=1)


EPS = np.finfo(float).eps


def _star(star: Jet, t: Jet, pair: tuple[int, int]) -> Jet:
    """The Hodge star applied to the slot pair `pair` of t, in place."""
    a, b = pair
    starred = jets.contract(star, t, (2, 3), pair)  # the starred pair first, the other slots after
    return jets.moveaxis(starred, (0, 1), (a, b))


class TestHodgeStar:
    """The star operator of each curvature batch and the Weyl halves it
    projects, as jets at every coefficient: |.| is the largest |coefficient|."""

    def test_star_twice_is_the_identity_on_2_forms(self, analyses):
        # each entry of a double contraction sums 16 products per contraction
        # over up to 6 coefficient pairs, each of size up to |star|^2 |t|
        rng = np.random.default_rng(36)
        for name, pa in all_points(analyses):
            star = pa.batch.cd.star
            for _ in range(3):
                t = Jet(star.order, rng.standard_normal((1, 4, 4, jets.NCOEF[star.order])))
                t = t - jets.moveaxis(t, 0, 1)
                twice = _star(star, _star(star, t, (0, 1)), (0, 1))
                bound = 64 * EPS * max(1.0, np.abs(star.c).max()) ** 2 * np.abs(t.c).max()
                assert np.abs((twice - t).c).max() <= bound, name

    def test_the_frame_forms_are_self_dual_and_anti_self_dual(self, analyses):
        # In the adapted coframe e^a, positive under the declared orientation,
        # *(e^a^e^b +- e^c^e^d) = +-(e^a^e^b +- e^c^e^d) for (abcd) = (1234),
        # (1342) and (1423): the anti-self-dual forms tell the star from the
        # identity, which the other identities of this class cannot.
        for name, pa in all_points(analyses):
            cd = pa.batch.cd
            e = cd.frame @ cd.g.value  # (e^a)_i = g_ij E_a^j
            wedge = e[:, :, None, :, None] * e[:, None, :, None, :]
            wedge = wedge - wedge.transpose(0, 1, 2, 4, 3)  # [:, a, b] = e^a ^ e^b
            star = cd.star.value
            for sign in (1.0, -1.0):
                for a, b, c, d in ((0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2)):
                    form = wedge[:, a, b] + sign * wedge[:, c, d]
                    starred = np.einsum("pijkl,pkl->pij", star, form)
                    bound = 64 * EPS * np.abs(star).max() * np.abs(form).max()
                    assert np.abs(starred - sign * form).max() <= bound, (name, sign, a)

    def test_the_weyl_halves_are_eigentensors_of_the_star_on_both_pairs(self, analyses):
        for name, pa in all_points(analyses):
            cd = pa.batch.cd
            bound = 32 * EPS * np.abs(cd.weyl.c).max()  # 0 on the flat chart, where W is 0
            for sign, half in ((1.0, cd.weyl_plus), (-1.0, cd.weyl_minus)):
                for pair in ((0, 1), (2, 3)):
                    assert np.abs((_star(cd.star, half, pair) - sign * half).c).max() <= bound, (name, sign, pair)

    def test_the_weyl_halves_add_up_to_the_weyl_tensor(self, analyses):
        for name, pa in all_points(analyses):
            cd = pa.batch.cd
            assert np.abs((cd.weyl_plus + cd.weyl_minus - cd.weyl).c).max() <= 32 * EPS * np.abs(cd.weyl.c).max(), name


class TestHermitianFirstOrder:
    def test_kahler_charts_have_parallel_j(self, analyses):
        for name in KAHLER_NAMES:
            for pa in analyses[name]:
                h = at(pa, "hfo")
                assert h.nabla_j_sq < 1e-18
                assert h.theta_norm < 1e-9
                assert h.nijenhuis_norm < 1e-9
                a_norm = np.abs(h.a.value).max()
                b_norm = np.abs(h.b.value).max()
                assert max(a_norm, b_norm) < 1e-9

    def test_kodaira_thurston_strictly_almost_kahler(self, analyses, catalog_specs):
        for pa in analyses["kodaira-thurston"]:
            h, sp = at(pa, "hfo"), at(pa, "structure")
            assert h.d_omega_norm < 1e-9
            assert h.theta_norm < 1e-9
            assert h.b_plus_ja_norm < 1e-9  # b = -Ja
            a, g_inv = pa.batch.hfo.a, pa.batch.structure.g_inv
            a_sq = float(jets.contract(a, jets.contract(g_inv, a, 1, 0), 0, 0).value[pa.index])
            s_star_minus_s = at(pa, "dr").s_star - at(pa, "cd").s_value
            assert abs(a_sq - s_star_minus_s / 4.0) < 1e-8
            fd = fd_nabla_omega(catalog_specs["kodaira-thurston"], sp.points)
            assert np.abs(fd - at(pa, "conn").nabla_omega.value).max() < 1e-6

    def test_nabla_j_identity_all_charts(self, analyses, ricci_anti_analysis):
        rows = [pa for chart_rows in analyses.values() for pa in chart_rows]
        rows.append(ricci_anti_analysis)  # integrable non-Kahler: N = 0, theta != 0
        for pa in rows:
            assert at(pa, "hfo").identity_residual < 1e-8

    def test_lee_form_on_warped_chart(self, ricci_anti_analysis):
        # theta = 2 f'/f dx1 for g = dx1^2 + dx2^2 + f(x1)^2(dx3^2 + dx4^2)
        pa = ricci_anti_analysis
        x1 = at(pa, "structure").points[0]
        f = 1 + x1**2 / 2
        expected = np.array([2 * x1 / f, 0, 0, 0])
        assert np.abs(at(pa, "hfo").theta.value - expected).max() < 1e-12
        assert at(pa, "hfo").nijenhuis_norm < 1e-12

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_values_from_order_0_equal_the_first_order_jets(self, catalog_specs, order):
        # a, b, theta and b + Ja as first-order jets, built the way the
        # nabla2-omega-shape row builds a; tobytes(), so the sign of zero counts
        batches = [(spec, spec.sample_points(4, 7)) for spec in catalog_specs.values()]
        batch = cli.point_analyses(charts.structure_at(batches, order))[0].batch
        sp, nabla_omega, hfo = batch.structure, batch.conn.nabla_omega, batch.hfo
        a = riemann.nabla_omega_along(nabla_omega, sp.phi, sp.g_inv)
        b = riemann.nabla_omega_along(nabla_omega, sp.jphi, sp.g_inv)
        theta = -jets.contract(riemann.neg_trace(sp.g_inv, nabla_omega), sp.J, 0, 0)
        b_plus_ja = b - jets.contract(a, sp.J, 0, 0)
        assert (a.order, hfo.a.order) == (1, 0)
        assert hfo.a.value.tobytes() == a.value.tobytes()
        assert hfo.b.value.tobytes() == b.value.tobytes()
        assert hfo.theta.value.tobytes() == theta.value.tobytes()
        assert hfo.theta_norm == riemann._frame_max(theta.value, sp.frame).tolist()
        assert hfo.b_plus_ja_norm == riemann._frame_max(b_plus_ja.value, sp.frame).tolist()


class TestRicciIdentity:
    def test_flat_zero(self, analyses):
        assert riemann.ricci_identity_check(analyses["flat"][0].batch.cd) == [0.0]

    def test_all_catalog_charts(self, analyses):
        for rows in analyses.values():
            for pa in rows:
                assert riemann.ricci_identity_check(pa.batch.cd)[pa.index] < 1e-8

    def test_covariant_derivative_order_exhaustion(self, catalog_specs):
        cd = _curvature(catalog_specs["fubini-study"], (0.1, 0, 0, 0), order=3)
        gamma = cd.conn.gamma
        dr = riemann.covd(gamma, cd.R)  # curvature has order 1 at chart order 3
        assert dr.order == 0
        with pytest.raises(JetOrderError):
            riemann.covd(gamma, dr)  # order exhausted: error, never silent truncation


def old_covd(gamma: Jet, t: Jet) -> Jet:
    """The covariant derivative with Gamma and t contracted at their own
    orders, one above the result's: `riemann.covd` before it truncated them."""
    out = jets.partials(t)
    for a in range(t.c.ndim - 2):
        term = jets.contract(gamma, jets.moveaxis(t, a, 0), 0, 0)
        out = out - jets.moveaxis(term, 1, a + 1)
    return out


class TestCovd:
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_truncated_contractions_keep_the_bits(self, catalog_specs, order):
        # tobytes(), so the sign of zero counts; the Christoffel jets at the
        # connection's order and at the curvature's, as the stages take them
        for seed in range(6):
            batches = [(spec, spec.sample_points(1, seed)) for spec in catalog_specs.values()]
            cd = riemann.curvature(riemann.connection(charts.structure_at(batches, order)))
            structure = cd.conn.structure
            tensors = {"omega": structure.omega, "g": structure.g, "h": cd.h, "ric0": cd.ric0, "weyl": cd.weyl}
            if cd.s.order:
                tensors["ds"] = jets.partials(cd.s)
            for name, t in tensors.items():
                for gamma in (cd.conn.gamma, cd.gamma):
                    if t.order == 0:
                        continue
                    new, old = riemann.covd(gamma, t), old_covd(gamma, t)
                    assert (new.order, new.c.tobytes()) == (old.order, old.c.tobytes()), (name, seed)

    def test_a_tensor_without_its_point_axis_is_refused(self):
        # every tensor axis has length 4, so without the check a point-less
        # Gamma and g pass for a batch of 4 points and give a wrong jet
        structure = structure_batch(charts.catalog_chart("fubini-study"), (0.1, 0.2, -0.3, 0.25), 4)
        conn = riemann.connection(structure)
        assert np.abs(riemann.covd(conn.gamma, structure.g).value).max() < 1e-12
        with pytest.raises(ValueError, match=r"\(4, 4, 4, 35\).*\(4, 4, 70\)"):
            riemann.covd(conn.gamma[0], structure.g[0])
        with pytest.raises(ValueError, match=r"\(1, 4, 4, 4, 35\).*\(2, 4, 4, 70\)"):
            riemann.covd(conn.gamma, structure.g[[0, 0]])
        with pytest.raises(ValueError, match=r"\(4, 4, 4, 35\).*\(4, 4, 70\)"):
            riemann.divergence(structure.g_inv[0], conn.gamma[0], structure.g[0])


#: The values of each batched stage's record that a test compares, by the
#: AnalysisBatch attribute that holds the record: every dataclass field but
#: the records and structure it was built from, and every value that the
#: first read fills for the whole batch.
STAGE_VALUES = {
    "conn": ("gamma", "nabla_omega", "nabla2_omega"),
    "cd": (
        "g",
        "g_inv",
        "gamma",
        "R",
        "ric",
        "s",
        "frame",
        "R_frame",
        "ric_frame",
        "s_value",
        "operator",
        "ric0_frame",
        "ric0",
        "h",
        "h_raised",
        "star",
        "weyl",
        "weyl_plus",
        "weyl_minus",
    ),
    "hfo": (
        "nabla_j_sq",
        "d_omega_norm",
        "nabla_omega0",
        "is_almost_kahler",
        "nijenhuis",
        "nijenhuis_norm",
        "theta",
        "a",
        "b",
        "theta_norm",
        "b_plus_ja_norm",
        "identity_residual",
    ),
    "dr": (
        "parts",
        "ric0",
        "ric0_anti",
        "ric_anti_norm",
        "is_j_invariant_ricci",
        "wplus",
        "wminus",
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
#: The codifferentials an order-4 analysis adds, in the order of
#: `CurvatureBatch.delta_weyls`, read off the curvature slice that holds the
#: point, as the second-order report reads them.
DELTA_WEYLS = ("delta W", "delta W+", "delta W-")
#: Dataclass fields that hold an input of the stage, not a value it computed.
INPUTS = {"structure", "conn", "cd", "rows"}
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


def _entry(record, name: str, k: int):
    """Entry k of the point-axis value `name` of a batch record; a dict of
    columns gives the dict of its entries."""
    value = getattr(record, name)
    return {key: column[k] for key, column in value.items()} if isinstance(value, dict) else value[k]


def _stage_values(pa: cli.PointAnalysis) -> dict[tuple[str, str], object]:
    """Every value of the point's analysis a batch must not change: the stage
    values, each hypothesis and the measured values behind them, each
    applicable row's residual, and the report's point document."""
    batch, k = pa.batch, pa.index
    values = {(stage, name): _entry(getattr(batch, stage), name, k) for stage, names in STAGE_VALUES.items() for name in names}
    if batch.structure.order == 4:
        part = batch.cd.slices()[k // riemann.CURVATURE_SLICE]
        values.update({("cd", name): dw[k - part.rows.start] for name, dw in zip(DELTA_WEYLS, part.delta_weyls, strict=True)})
        values.update({("sor", name): column[k] for name, column in batch.sor.items()})
    for hypothesis in HYPOTHESES:
        values["hypothesis", hypothesis.__name__] = hypothesis(batch)[k]
    values["hypothesis", "lemma5 triple"] = float(gray.lemma5_triple(batch.dr)[k])
    values["hypothesis", "lemma6 triple"] = float(gray.lemma6_triple(batch.dr)[k])
    for ident in cli.IDENTITIES:
        if ident.order <= batch.structure.order:
            applies = ident.applies(batch)[k]
            values["applies", ident.name] = applies
            if applies:
                values["residual", ident.name] = ident.residual(batch)[k]
    rows = cli._identity_rows(batch, 1.0)[k]
    values["document", "json"] = cli._json_text(cli._point_document(pa, rows))
    return values


def _assert_batches_match(batches: list, order: int) -> None:
    """Analyses of the (spec, points) `batches` in one batch and per chart give
    every value of one-point batches, bit for bit."""
    alone = [cli.point_analyses(charts.structure_at([(spec, p[None])], order)) for spec, pts in batches for p in pts]
    per_chart = [pa for batch in batches for pa in cli.point_analyses(charts.structure_at([batch], order))]
    together = cli.point_analyses(charts.structure_at(batches, order))
    assert len(alone) == len(per_chart) == len(together) == sum(len(pts) for _, pts in batches)
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
        batch = analyses["kodaira-thurston"][0].batch
        for stage, names in STAGE_VALUES.items():
            fields = {f.name for f in dataclasses.fields(getattr(batch, stage))}
            assert fields - INPUTS <= set(names), stage

    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_every_value_equals_the_one_point_batch(self, catalog_specs, order, n):
        _assert_batches_match([(spec, spec.sample_points(n, 23)) for spec in catalog_specs.values()], order)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_a_batch_where_the_closed_bach_forms_apply_at_some_points(self, catalog_specs, n):
        # fubini-study and kodaira-thurston points in one batch, as `check --chart all` batches them
        batches = [(catalog_specs[name], catalog_specs[name].sample_points(n, 31)) for name in ("fubini-study", "kodaira-thurston")]
        column = cli.point_analyses(charts.structure_at(batches, 4))[0].batch.sor["bach direct vs almost-kahler form"]
        assert None not in column[:n] and column[n:] == [None] * n
        _assert_batches_match(batches, 4)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_a_batch_whose_points_take_their_frame_from_different_candidates(self, order):
        # e3 comes from d3 (m = 2) at x1 = 0 and from d2 (m = 1) at x1 = 0.3
        pts = np.array([(0.0, 0.1, 0.2, 0.3), (0.3, 0.1, 0.2, 0.3), (0.0, -0.4, 0.5, 0.1)])
        frame = charts.structure_at([(rotated_j_chart(), pts)], order).frame
        assert [bool(np.abs(e3 - [0.0, 0.0, 1.0, 0.0]).max() < 1e-15) for e3 in frame[:, 2]] == [True, False, True]
        _assert_batches_match([(rotated_j_chart(), pts)], order)

    def test_curvature_slices_are_views_of_the_batch(self, catalog_specs):
        # 20 points: slices of 8, 8 and 4, whose second-order jets read the structure batch's mu
        batches = [(spec, spec.sample_points(4, 5)) for spec in catalog_specs.values()]
        structure = charts.structure_at(batches, 4)
        cd = riemann.curvature(riemann.connection(structure))
        parts = cd.slices()
        assert [part.rows for part in parts] == [slice(0, 8), slice(8, 16), slice(16, 20)]
        for part in parts:
            for name in ("R", "g_inv", "gamma", "s", "frame", "R_frame", "s_value"):
                whole, mine = getattr(cd, name), getattr(part, name)
                whole, mine = (whole.c, mine.c) if isinstance(whole, Jet) else (whole, mine)
                assert np.shares_memory(mine, whole) and np.array_equal(mine, whole[part.rows]), name
            assert np.array_equal(part.star.c, cd.star.c[part.rows])
        small = riemann.curvature(riemann.connection(charts.structure_at(batches[:2], 4)))
        assert small.slices()[0] is small  # 8 points: the batch is its own slice

    def test_each_stage_reads_the_arrays_of_the_stage_before(self, catalog_specs):
        # the classify-order2 shape: 4 points of each catalog chart, one batch
        batches = [(spec, spec.sample_points(4, 5)) for spec in catalog_specs.values()]
        batch = cli.point_analyses(charts.structure_at(batches, 2))[0].batch
        structure, conn, cd, hfo, dr = batch.structure, batch.conn, batch.cd, batch.hfo, batch.dr
        assert batch.ladder.verdict  # every stage classify runs
        shared = {
            "g": (cd.g.c, structure.g.c),
            "g^-1": (cd.g_inv.c, structure.g_inv.c),
            "Gamma": (cd.gamma.c, conn.gamma.c),
            "frame (curvature)": (cd.frame, structure.frame),
            "Ric0": (dr.ric0, cd.ric0_frame),
            "operator blocks": (dr.parts["mixed"], cd.operator),
        }
        for name, (mine, theirs) in shared.items():
            assert np.shares_memory(mine, theirs), name

    def test_a_batch_is_freed_by_refcount(self, catalog_specs):
        # no record holds itself or a record that holds it: a reference cycle
        # would keep every second-order jet until the cyclic collector runs
        spec = catalog_specs["kodaira-thurston"]
        gc.disable()
        try:
            batch = cli.point_analyses(charts.structure_at([(spec, spec.sample_points(2, 5))], 4))[0].batch
            assert cli._identity_rows(batch, 1.0)
            # the second-order report is a dict of columns of floats and None, which refer to nothing
            assert all(type(column) is list and all(v is None or type(v) is float for v in column) for column in batch.sor.values())
            stages = ("structure", "conn", "cd", "hfo", "dr", "ladder", "gr")
            refs = [weakref.ref(batch)] + [weakref.ref(getattr(batch, stage)) for stage in stages]
            del batch
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_the_first_read_fills_the_batch(self, catalog_specs):
        spec = catalog_specs["kodaira-thurston"]
        pas = cli.point_analyses(charts.structure_at([(spec, spec.sample_points(3, 5))], 2))
        ladder = pas[1].batch.ladder
        batch = pas[0].batch
        assert {"conn", "cd", "hfo", "dr", "ladder"} <= vars(batch).keys()
        assert all(pa.batch is batch for pa in pas) and batch.ladder is ladder
        assert "nabla_omega" in vars(batch.conn) and "ric0_frame" in vars(batch.cd)
        assert "_u2" not in vars(batch.dr)  # the ladder reads no U(2) block
