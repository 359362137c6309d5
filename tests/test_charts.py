"""Chart loading, catalog content, structure validation, adapted frames."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from ak4 import charts, exprs, jets, tensorops
from ak4.charts import FRAME_FORMS
from ak4.errors import ChartError, ParseError, StructureError

from conftest import CATALOG_NAMES, at, expr_jet, points_of, product_surfaces, ricci_anti_chart, rotated_j_chart, stack, structure_batch, structure_point
from oracles import fd_d_omega

STRUCT_TOL = 1e-9
EPS = np.finfo(float).eps


class TestCatalog:
    def test_catalog_has_expected_charts(self, catalog_specs):
        assert len(catalog_specs) >= 5
        assert set(CATALOG_NAMES) <= set(catalog_specs)

    def test_catalog_chart_builds_only_the_named_chart(self, monkeypatch):
        charts.catalog_chart.cache_clear()
        parsed = []
        parse_expr = charts.parse_expr
        monkeypatch.setattr(charts, "parse_expr", lambda src: parsed.append(src) or parse_expr(src))
        flat = charts.catalog_chart("flat")
        assert flat.name == "flat"
        assert len(parsed) == 26  # the 10 metric and 16 structure entries of one chart
        assert charts.catalog_chart("flat") is flat  # parsed once per process
        assert len(parsed) == 26

    def test_catalog_order_and_unknown_name_message(self):
        assert tuple(spec.name for spec in charts.catalog()) == CATALOG_NAMES
        with pytest.raises(ChartError) as err:
            charts.catalog_chart("nosuch")
        assert str(err.value) == f"unknown catalog chart 'nosuch' (known: {', '.join(CATALOG_NAMES)})"

    def test_flat_chart_is_euclidean(self, catalog_specs):
        sp = structure_point(catalog_specs["flat"], (0.5, -0.5, 0.2, 0.9), order=2)
        assert np.array_equal(sp.g.value, np.eye(4))
        omega = np.zeros((4, 4))
        omega[0, 1] = omega[2, 3] = 1.0
        omega[1, 0] = omega[3, 2] = -1.0
        assert np.abs(sp.omega.value - omega).max() == 0.0
        assert np.array_equal(sp.frame, np.eye(4))

    def test_fubini_study_origin_is_unit_metric(self, catalog_specs):
        sp = structure_point(catalog_specs["fubini-study"], (0, 0, 0, 0), order=2)
        assert np.abs(sp.g.value - np.eye(4)).max() < 1e-15

    def test_invariants_on_32_seeded_points(self, catalog_specs):
        for spec in catalog_specs.values():
            for p in spec.sample_points(32, 42):
                sp = structure_point(spec, p, order=2)
                assert max(sp.invariant_residuals.values()) < STRUCT_TOL

    def test_kodaira_thurston_closed_form_and_nonparallel_j(self, catalog_specs):
        spec = catalog_specs["kodaira-thurston"]
        for p in spec.sample_points(6, 3):
            d_om = fd_d_omega(spec, p)  # finite differences, no jets
            assert np.abs(d_om).max() < 1e-10
        from ak4 import riemann

        hfo = riemann.hermitian_first_order(riemann.connection(structure_batch(spec, (0.2, 0.1, -0.3, 0.5), order=2)))
        assert hfo.nabla_j_sq[0] > 1.0  # strictly almost Kahler

    def test_product_surfaces_with_unit_factors_is_flat(self):
        spec = product_surfaces("1", "1", name="trivial")
        from ak4 import riemann

        cd = riemann.curvature(riemann.connection(structure_batch(spec, (0.3, 0.3, -0.2, 0.1), order=4)))
        assert np.abs(cd.R_frame).max() < 1e-14


class TestChartFiles:
    def test_round_trip_through_file(self, tmp_path, catalog_specs):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(charts.chart_to_dict(catalog_specs["flat"])))
        spec = charts.load_chart(path)
        assert spec.name == "flat"
        assert spec.g_src[(0, 0)] == "1"
        assert spec.j_src[1][0] == "1"

    def test_missing_metric_component(self, tmp_path, catalog_specs):
        data = charts.chart_to_dict(catalog_specs["flat"])
        del data["g"]["34"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ChartError, match="g_34"):
            charts.load_chart(path)

    def test_malformed_expression_reports_location(self, tmp_path, catalog_specs):
        data = charts.chart_to_dict(catalog_specs["flat"])
        data["g"]["11"] = "x1 +"
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ChartError, match="g_11.*offset 4"):
            charts.load_chart(path)

    def test_deeply_nested_expression_is_a_parse_error(self, tmp_path, catalog_specs):
        data = charts.chart_to_dict(catalog_specs["flat"])
        data["g"]["11"] = "1" + "+0*x1" * 5000
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ChartError, match="g_11.*nested deeper") as excinfo:
            charts.load_chart(path)
        assert isinstance(excinfo.value.__cause__, ParseError)

    def test_coords_must_be_a_list_of_four_names(self, catalog_specs):
        data = charts.chart_to_dict(catalog_specs["flat"])
        data["coords"] = "x1x2"
        with pytest.raises(ChartError, match="coords"):
            charts.chart_from_dict(data)

    def test_degenerate_domain(self, catalog_specs):
        data = charts.chart_to_dict(catalog_specs["flat"])
        data["domain"][2] = [1.0, 1.0]
        with pytest.raises(ChartError, match="degenerate"):
            charts.chart_from_dict(data)

    @pytest.mark.parametrize(
        ("key", "mutate"),
        [
            pytest.param("domain", lambda d: {**d, "domain": [[0, "a"]] + [[0, 1]] * 3}, id="domain-bound-not-number"),
            pytest.param("domain", lambda d: {**d, "domain": [[0]] + [[0, 1]] * 3}, id="domain-short-interval"),
            pytest.param("domain", lambda d: {**d, "domain": 5}, id="domain-not-list"),
            pytest.param("domain bound out of float range", lambda d: {**d, "domain": [[0, 10**400]] + [[0, 1]] * 3}, id="domain-bound-overflows"),
            pytest.param("coordinate 1", lambda d: {**d, "domain": [[0, math.inf]] + [[0, 1]] * 3}, id="domain-bound-infinite"),
            pytest.param("coordinate 2", lambda d: {**d, "domain": [[0, 1], [-1e308, 1e308], [0, 1], [0, 1]]}, id="domain-width-overflows"),
            pytest.param("g", lambda d: {**d, "g": "11 12 13"}, id="g-not-object"),
            pytest.param("J", lambda d: {**d, "J": {**d["J"], "1_1": 0}}, id="J-entry-not-string"),
            pytest.param("tags", lambda d: {**d, "tags": 5}, id="tags-not-list"),
            pytest.param("JSON object", lambda d: [d], id="chart-not-object"),
            pytest.param("name must be a string", lambda d: {**d, "name": None}, id="name-null"),
            pytest.param("name must be a string", lambda d: {**d, "name": 5}, id="name-number"),
            pytest.param("name must be a string", lambda d: {**d, "name": ["a"]}, id="name-list"),
            pytest.param("name must be a string", lambda d: {**d, "name": {"x": 1}}, id="name-object"),
        ],
    )
    def test_malformed_chart_types_exit_2(self, key, mutate, tmp_path, catalog_specs, capsys):
        from ak4 import cli

        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(mutate(charts.chart_to_dict(catalog_specs["flat"]))))
        code = cli.main(["report", "--chart", str(path), "--points", "1", "--order", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(b"{ not json", id="syntax"),
            pytest.param(b"\xff\xfe", id="not-utf-8"),
            pytest.param(b"[" * 100000, id="nested-too-deep"),
            pytest.param(b'{"domain": [[0, ' + b"9" * 5000 + b"]]}", id="integer-past-the-digit-limit"),
        ],
    )
    def test_not_json(self, content, tmp_path, capsys):
        from ak4 import cli

        path = tmp_path / "broken.json"
        path.write_bytes(content)
        with pytest.raises(ChartError, match="not valid JSON"):
            charts.load_chart(path)
        assert cli.main(["report", "--chart", str(path), "--points", "1"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ChartError, match="cannot read"):
            charts.load_chart(tmp_path / "nope.json")


def record_orders(monkeypatch) -> tuple[list[int], list[int]]:
    """The order of each `tensorops.determinant4` and each
    `charts._adapted_frame` call (0: it takes values), from here on."""
    dets, frames = [], []
    determinant4, adapted_frame = tensorops.determinant4, charts._adapted_frame

    def counted_det(g):
        dets.append(g.order)
        return determinant4(g)

    def counted_frame(g, J):
        frames.append(0)
        return adapted_frame(g, J)

    monkeypatch.setattr(tensorops, "determinant4", counted_det)
    monkeypatch.setattr(charts, "_adapted_frame", counted_frame)
    return dets, frames


class TestStructureValidation:
    def test_broken_j_square(self, catalog_specs):
        data = charts.chart_to_dict(catalog_specs["flat"])
        data["J"]["2_1"] = "0.5"  # J o J != -Id
        spec = charts.chart_from_dict(data)
        with pytest.raises(StructureError, match="J o J"):
            structure_batch(spec, (0, 0, 0, 0), order=2)

    def test_incompatible_metric(self, catalog_specs):
        data = charts.chart_to_dict(catalog_specs["flat"])
        data["g"]["11"] = "2"  # J no longer orthogonal
        spec = charts.chart_from_dict(data)
        with pytest.raises(StructureError, match=r"g\(J"):
            structure_batch(spec, (0, 0, 0, 0), order=2)

    def test_a_singular_metric_reports_a_positive_zero_residual(self, catalog_specs):
        data = charts.chart_to_dict(catalog_specs["flat"])
        data["g"]["11"] = "x1^2"  # a zero eigenvalue at x1 = 0
        spec = charts.chart_from_dict(data)
        with pytest.raises(StructureError, match=r"'g positive definite' violated, residual 0\.000e\+00$") as excinfo:
            structure_batch(spec, (0, 0, 0, 0), order=2)
        assert math.copysign(1.0, excinfo.value.residual) == 1.0

    def test_point_outside_domain(self, catalog_specs):
        with pytest.raises(ChartError, match="outside domain"):
            structure_batch(catalog_specs["flat"], (3, 0, 0, 0), order=2)

    def test_domain_bounds_are_built_once(self, catalog_specs):
        # sample_points and the domain check read the same read-only arrays,
        # and the samples keep the bits of bounds rebuilt on every call
        for spec in catalog_specs.values():
            lo, hi = spec.bounds
            assert lo.tolist() == [d[0] for d in spec.domain] and hi.tolist() == [d[1] for d in spec.domain]
            with pytest.raises(ValueError):
                lo[0] = 0.0
            with pytest.raises(ValueError):
                hi[0] = 0.0
            rebuilt_lo, rebuilt_hi = np.array([d[0] for d in spec.domain]), np.array([d[1] for d in spec.domain])
            expected = rebuilt_lo + charts._unit_draws(5, 8) * (rebuilt_hi - rebuilt_lo)
            assert spec.sample_points(5, 8).tobytes() == expected.tobytes()

    def test_one_determinant_per_point(self, catalog_specs, monkeypatch):
        calls, _ = record_orders(monkeypatch)
        spec = catalog_specs["kodaira-thurston"]
        for order in (2, 4):
            calls.clear()
            structure = structure_batch(spec, (0.2, 0.1, -0.3, 0.5), order=order)
            assert calls == [0]  # mu's value, for the self-duality checks
            structure.mu
            assert calls == [0, min(order, 2)]  # the mu jet, on its first read
            structure.mu
            assert calls == [0, min(order, 2)]

    def test_omega_never_user_supplied(self, catalog_specs):
        # Omega is derived from (g, J); for every catalog chart it must equal
        # e1^e2 + e3^e4 in the constructed coframe (checked in structure_at).
        for spec in catalog_specs.values():
            sp = structure_point(spec, spec.sample_points(1, 9)[0], order=2)
            assert sp.invariant_residuals["Omega = e1^e2 + e3^e4"] < STRUCT_TOL


def eager_j_side(g: jets.Jet, J: jets.Jet) -> tuple[np.ndarray, jets.Jet, jets.Jet, jets.Jet]:
    """The adapted frame, mu, phi and J phi of the metrics g and structures J
    (point axis first), built eagerly by the calls `structure_at` and the
    batch make: the frame from the values, mu oriented by the frame's
    determinant, and phi the unit J-anti-invariant part of the constant
    e1^e3 - e2^e4 of the frame's coframe."""
    frame = charts._adapted_frame(g.value, J.value)
    mu = tensorops.volume_form(g, np.sign(np.linalg.det(frame)))
    coframe = frame @ g.value
    outer = coframe[:, :, None, :, None] * coframe[:, None, :, None, :]
    wedge = outer - outer.transpose(0, 1, 2, 4, 3)  # [:, a, b] = e^a ^ e^b
    phi0 = jets.Jet(0, (wedge[:, 0, 2] - wedge[:, 1, 3])[..., None])
    phi = charts._anti_invariant_phi(phi0, J, tensorops.matrix_inverse(g))
    jphi = -jets.contract(J, phi, 0, 0)
    return frame, mu, phi, jphi


class TestStructureOrders:
    def test_truncated_fields_equal_the_full_order_leading_coefficients(self, catalog_specs):
        # Rebuild the J-side fields at order 4 with the same calls structure_at
        # makes, on a one-point batch. Every coefficient is bit-identical
        # except, possibly, the degree-2 part of phi and J phi: their
        # contractions sum a padded pair axis whose length depends on the
        # order, and BLAS may round that sum differently. Nothing reads phi or
        # J phi beyond first order.
        n, n1 = jets.NCOEF[charts.J_SIDE_ORDER], jets.NCOEF[1]
        for spec in catalog_specs.values():
            for p in spec.sample_points(3, 11):
                sp = structure_point(spec, p, order=4)
                g = sp.g[None]
                J = stack([stack([expr_jet(spec.J[i][j], sp.point, 4) for j in range(4)]) for i in range(4)])[None]
                omega = jets.contract(J, g, 0, 0)
                frame, mu, phi, jphi = eager_j_side(g, J)
                assert np.array_equal(sp.frame, frame[0])
                for name, full in (("J", J), ("omega", omega), ("mu", mu)):
                    assert np.array_equal(getattr(sp, name).c, full.c[0, ..., :n]), (spec.name, name)
                for name, full in (("phi", phi), ("jphi", jphi)):
                    mine, full_c = getattr(sp, name).c, full.c[0]
                    assert np.array_equal(mine[..., :n1], full_c[..., :n1]), (spec.name, name)
                    scale = np.abs(full_c[..., :n]).max()
                    np.testing.assert_allclose(mine, full_c[..., :n], rtol=0, atol=1e-15 * scale)

    @pytest.mark.parametrize("order", [3, 4])
    def test_j_holds_the_bits_of_a_j_only_program_at_j_side_order(self, catalog_specs, order):
        # structure_at evaluates g and J in one program at the command's order
        # and truncates J; the last chart's sqrt series overflows at degree 4
        tiny_angle = rotated_j_chart("sqrt(1e-90 + x1^2)", (-1e-50, 1e-50))
        for spec in [*catalog_specs.values(), rotated_j_chart(), tiny_angle]:
            pts = spec.sample_points(4, 13)
            J = charts.structure_at([(spec, pts)], order).J
            [alone] = exprs.eval_jet([exprs.Program([e for row in spec.J for e in row])], [pts], charts.J_SIDE_ORDER)
            assert J.order == charts.J_SIDE_ORDER
            assert J.c.tobytes() == alone.reshape(J.c.shape).tobytes(), spec.name

    def test_a_j_whose_high_degree_coefficients_overflow_passes_at_order_4(self, tmp_path, capsys):
        from ak4 import cli

        path = tmp_path / "tiny-angle.json"
        path.write_text(json.dumps(charts.chart_to_dict(rotated_j_chart("sqrt(1e-90 + x1^2)", (-1e-50, 1e-50)))))
        assert cli.main(["report", "--chart", str(path), "--points", "2", "--order", "4"]) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_field_orders(self, catalog_specs, order):
        spec = catalog_specs["kodaira-thurston"]
        sp = structure_point(spec, (0.2, 0.1, -0.3, 0.5), order=order)
        assert (sp.order, sp.g.order, sp.g_inv.order) == (order, order, order - 1)
        for name in ("J", "omega", "mu", "phi", "jphi"):
            assert getattr(sp, name).order == min(order, 2), name


class TestStructureDemand:
    """The structure stage validates on values; mu, phi and J phi are built
    as jets only when a reader asks for them."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--chart", "all", "--order", "2", "--points", "4"],
            ["check", "kappa", "--chart", "all", "--points", "1"],
        ],
    )
    def test_verdicts_and_kappa_read_only_values(self, argv, monkeypatch, capsys):
        from ak4 import cli

        dets, frames = record_orders(monkeypatch)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out
        assert dets == [0] and frames == [0]  # one batch

    def test_report_builds_the_jets_once_per_batch(self, monkeypatch, capsys):
        from ak4 import cli

        dets, frames = record_orders(monkeypatch)
        assert cli.main(["report", "--chart", "kodaira-thurston", "--points", "2"]) == 0
        assert capsys.readouterr().out
        order = 4  # the report default
        assert dets == [0, min(order, charts.J_SIDE_ORDER)]  # mu, for the Weyl halves
        assert frames == [0]  # a, b and theta are values: the report builds no frame jet


class TestDeferredJets:
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_values_and_jets_hold_the_eager_bits(self, catalog_specs, order):
        # tobytes(), so that the sign of zero counts
        specs = [*catalog_specs.values(), rotated_j_chart(), ricci_anti_chart()]
        batches = [(spec, spec.sample_points(3, 23)) for spec in specs]
        together = points_of(charts.structure_at(batches, order))
        alone = [structure_point(spec, p, order) for spec, pts in batches for p in pts]
        for sps in [together] + [[sp] for sp in alone]:
            g = stack([sp.g.truncate(sp.J.order) for sp in sps])
            frame, mu, phi, jphi = eager_j_side(g, stack([sp.J for sp in sps]))
            for k, sp in enumerate(sps):
                assert sp.frame.tobytes() == frame[k].tobytes()
                for name, eager in (("mu", mu), ("phi", phi), ("jphi", jphi)):
                    jet = getattr(sp, name)
                    assert jet.order == eager.order and jet.c.tobytes() == eager.c[k].tobytes(), name


class TestPhiSection:
    """phi is the unit J-anti-invariant part of the constant 2-form
    phi0 = e1^e3 - e2^e4, as a jet at J's order. Each bound is 64 eps times
    the largest |coefficient| of the factors of one term."""

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_phi_is_a_unit_anti_invariant_self_dual_section_with_value_phi0(self, catalog_specs, order):
        sb = charts.structure_at([(spec, spec.sample_points(3, 31)) for spec in catalog_specs.values()], order)
        J, phi = sb.J, sb.phi
        assert phi.order == J.order == min(order, charts.J_SIDE_ORDER)
        assert phi.value.tobytes() == sb.phi0.value.tobytes()
        g_inv = tensorops.matrix_inverse(sb.g.truncate(J.order))
        star = tensorops.star_operator(sb.mu, g_inv)
        # phi(J., J.) = -phi, *phi = phi and |phi|^2 = 2 in every coefficient
        anti = jets.contract(jets.contract(J, phi, 0, 0), J, 1, 0) + phi
        dual = jets.contract(star, phi, (2, 3), (0, 1)) - phi
        norm = tensorops.form_inner(phi, phi, g_inv) - 2.0
        for k, point in enumerate(sb.points):
            size = np.abs(phi.c[k]).max()
            j, gi, st = (max(1.0, np.abs(t.c[k]).max()) for t in (J, g_inv, star))
            assert np.abs(anti.c[k]).max() <= 64 * EPS * j * j * size, point
            assert np.abs(dual.c[k]).max() <= 64 * EPS * st * size, point
            assert np.abs(norm.c[k]).max() <= 64 * EPS * (gi * size) ** 2, point

    @pytest.mark.parametrize("order", [2, 4])
    def test_nabla2_omega_shape_holds_in_a_rotated_gauge(self, catalog_specs, order):
        # phi' = cos t phi + sin t J phi is another unit section of the
        # anti-invariant forms; the row rebuilds a and xi from it (xi shifts by dt)
        from ak4 import cli, gray

        pts = catalog_specs["kodaira-thurston"].sample_points(6, 19)
        conn = cli.point_analyses(charts.structure_at([(catalog_specs["kodaira-thurston"], pts)], order))[0].batch.conn
        sp = conn.structure
        assert max(gray.nabla2_omega_shape_residual(conn)) <= 1e-12
        x1, x3 = (jets.Jet.coordinate(i, pts, sp.J.order) for i in (0, 2))
        t = 0.3 * x1 - 0.2 * (x3 * x3)
        c, s = jets.cos(t)[:, None, None], jets.sin(t)[:, None, None]
        phi, jphi = sp.phi, sp.jphi
        sp.phi, sp.jphi = c * phi + s * jphi, c * jphi - s * phi
        assert np.abs((sp.phi - phi).c).max() > 0.1
        assert max(gray.nabla2_omega_shape_residual(conn)) <= 1e-12
        sp.jphi = jphi  # phi' and J phi are no gauge: the row sees it
        assert max(gray.nabla2_omega_shape_residual(conn)) > 1e-3


class TestAdaptedFrame:
    def test_deterministic_bitwise(self, catalog_specs):
        spec = catalog_specs["kodaira-thurston"]
        p = (0.3, -0.4, 0.7, 0.2)
        a = structure_point(spec, p, order=3)
        b = structure_point(spec, p, order=3)
        assert np.array_equal(a.frame, b.frame)
        assert np.array_equal(a.phi.c, b.phi.c)

    def test_self_dual_triple_star_eigenvectors(self, analyses):
        for rows in analyses.values():
            for pa in rows:
                sp = pa.batch.structure
                star = tensorops.star_operator(sp.mu, sp.g_inv)
                for form in (sp.omega, sp.phi, sp.jphi):
                    starred = jets.contract(star, form, (2, 3), (0, 1))
                    assert np.abs((starred - form).value).max() < STRUCT_TOL

    def test_two_form_norms_and_splitting(self, analyses):
        # |Omega|^2 = |phi|^2 = |Jphi|^2 = 2; phi, Jphi span the anti-invariant
        # plane; the anti-self-dual triple is J-invariant.
        for rows in analyses.values():
            for pa in rows:
                sp = at(pa, "structure")
                ginv = sp.g_inv
                for form in (sp.omega, sp.phi, sp.jphi):
                    n2 = tensorops.form_inner(form[None], form[None], ginv[None]).value[0]
                    assert abs(n2 - 2.0) < STRUCT_TOL
                jmat = sp.J.value
                for name, form in (("phi", sp.phi), ("jphi", sp.jphi)):
                    acted = np.einsum("ki,lj,kl->ij", jmat, jmat, form.value)
                    assert np.abs(acted + form.value).max() < 1e-8, name  # anti-invariant
                # the anti-self-dual triple is J-invariant in frame components
                from ak4.charts import J_FRAME

                for k in range(3, 6):
                    acted = np.einsum("ki,lj,kl->ij", J_FRAME, J_FRAME, FRAME_FORMS[k])
                    assert np.abs(acted - FRAME_FORMS[k]).max() == 0.0

    def test_frame_fallback_when_x2_degenerate(self):
        # A chart where d/dx2 lies in span{e1, e2}: J maps d1 -> d2, so the
        # Gram-Schmidt candidate x2 is consumed and x3 must be used.
        j = {f"{i}_{k}": "0" for i in range(1, 5) for k in range(1, 5)}
        j.update({"2_1": "1", "1_2": "-1", "4_3": "1", "3_4": "-1"})
        spec = charts.chart_from_dict(
            {
                "name": "fallback",
                "coords": ["x1", "x2", "x3", "x4"],
                "domain": [[-1, 1]] * 4,
                "g": {
                    "11": "1", "22": "1", "33": "1", "44": "1",
                    "12": "0", "13": "0", "14": "0", "23": "0", "24": "0", "34": "0",
                },
                "J": j,
            }
        )
        sp = structure_point(spec, (0, 0, 0, 0), order=2)
        # e2 = J e1 = d/dx2 exactly; e3 must come from d/dx3
        assert np.abs(sp.frame[2] - np.array([0, 0, 1, 0])).max() < 1e-12


def scaled_chart(spec: charts.ChartSpec, c2: float) -> charts.ChartSpec:
    """The chart of the metric c2 * g with the same J."""
    data = charts.chart_to_dict(spec)
    data["g"] = {key: f"{c2!r}*({src})" for key, src in data["g"].items()}
    return charts.chart_from_dict(data, name_hint=f"{spec.name} scaled by {c2!r}")


class TestFrameAtAnyScale:
    """The adapted frame's independence test is relative to g(d_m, d_m), so a
    homothety g -> c^2 g scales the frame by 1/c and builds it the same way."""

    @pytest.mark.parametrize("c2", [1e-10, 1e-12])
    def test_a_small_metric_gives_the_scaled_frame(self, catalog_specs, c2):
        for spec in catalog_specs.values():
            pts = spec.sample_points(4, 3)
            unscaled = charts.structure_at([(spec, pts)], 2)
            scaled = charts.structure_at([(scaled_chart(spec, c2), pts)], 2)
            for a, b in zip(unscaled.frame, scaled.frame):
                gap = np.abs(math.sqrt(c2) * b - a).max()
                assert gap <= 1e-12 * np.abs(a).max(), spec.name


class TestAdaptedFrameOp:
    def test_adapted_frame_returns_basis(self, analyses):
        pa = analyses["kodaira-thurston"][0]
        assert at(pa, "structure").frame.shape == (4, 4)


def assert_same_structure(a, b) -> None:
    """Every field of two structure points holds the same bits."""
    assert (a.point, a.order) == (b.point, b.order)
    for name in ("g", "g_inv", "J", "omega", "mu", "phi", "jphi"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.order == y.order and np.array_equal(x.c, y.c), name
    assert np.array_equal(a.frame, b.frame)
    assert a.invariant_residuals == b.invariant_residuals


class TestStructureBatch:
    """A batch of points gives each point the bits of a one-point batch."""

    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_every_field_equals_the_one_point_batch(self, catalog_specs, order, n):
        batches = [(spec, spec.sample_points(n, 17)) for spec in catalog_specs.values()]
        alone = [structure_point(spec, p, order) for spec, pts in batches for p in pts]
        per_chart = [sp for batch in batches for sp in points_of(charts.structure_at([batch], order))]
        together = points_of(charts.structure_at(batches, order))
        assert len(alone) == len(per_chart) == len(together) == 5 * n
        for a, b, c in zip(alone, per_chart, together):
            assert_same_structure(b, a)
            assert_same_structure(c, a)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_points_of_one_batch_take_their_own_frame_vector(self, order):
        spec = rotated_j_chart()
        pts = np.array([(0.0, 0.1, 0.2, 0.3), (0.3, 0.1, 0.2, 0.3)])
        for batch in (pts, pts[::-1]):
            together = points_of(charts.structure_at([(spec, batch)], order))
            for sp, p in zip(together, batch):
                assert_same_structure(sp, structure_point(spec, p, order))
        first, second = points_of(charts.structure_at([(spec, pts)], order))
        # e3 comes from d3 (m = 2) at x1 = 0, and from d2 (m = 1) at x1 = 0.3
        np.testing.assert_allclose(first.frame[2], [0.0, 0.0, 1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(second.frame[2], [0.0, np.sin(0.3), -np.cos(0.3), 0.0], atol=1e-15)

    def test_empty_batch(self, catalog_specs):
        assert charts.structure_at([(catalog_specs["flat"], np.empty((0, 4)))], 2) is None
