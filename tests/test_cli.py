"""Command-line surface: exit codes, JSON schema, determinism, check names."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import stat
import threading
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ak4 import charts, cli, jets, riemann
from ak4.cli import RunConfig, run_report
from ak4.errors import AK4Error
from conftest import CATALOG_NAMES, applies_at, at, half_bad_chart, point_analysis, residual_at

#: Out-of-range values of the flags RunConfig validates.
BAD_FLAG_VALUES = [
    ("--seed", "-1"),
    ("--tol-scale", "nan"),
    ("--tol-scale", "inf"),
    ("--tol-scale", "0"),
    ("--json", ""),
]


#: The stages that run once per batch of points (one batch per command up to cli.BATCH_POINTS points).
BATCHED_STAGES = ("riemann.connection", "riemann.curvature", "riemann.hermitian_first_order", "decomp.decompose", "gray.classify")


def run_main(argv):
    return cli.main(argv)


def _count_calls(monkeypatch, names) -> Counter:
    """Count the calls of each `module.function` the CLI reaches, by that name."""
    calls = Counter()
    for name in names:
        module, function = name.split(".")
        original = getattr(getattr(cli, module), function)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(getattr(cli, module), function, counted)
    return calls


class TestReport:
    def test_flat_report_passes(self, capsys):
        code = run_main(["report", "--chart", "flat", "--points", "8", "--seed", "1", "--order", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "KAHLER" in out
        assert "overall: pass" in out

    def test_kodaira_thurston_report(self, capsys):
        code = run_main(["report", "--chart", "kodaira-thurston", "--points", "4", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "AK" in out
        assert "s-star" in out

    def test_missing_chart_file_exit_2(self, capsys):
        code = run_main(["report", "--chart", "missing.json"])
        err = capsys.readouterr().err
        assert code == 2
        assert "missing.json" in err

    def test_order_2_skips_second_order_checks(self, capsys):
        code = run_main(["report", "--chart", "flat", "--points", "2", "--order", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "skipped" in out
        assert "bianchi" not in out.split("skipped")[0]

    def test_json_output_and_determinism(self, tmp_path):
        paths = []
        for k in range(2):
            path = tmp_path / f"report{k}.json"
            config = RunConfig(chart="kodaira-thurston", points=2, seed=9, order=4, json_path=str(path))
            doc, code = run_report(config)
            assert code == 0
            cli.write_json(doc, str(path))
            paths.append(path)
        docs = [json.loads(p.read_text()) for p in paths]
        for doc in docs:
            assert doc["schema"] == "ak4/1"
            del doc["timing_s"]
        assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)

    def test_tol_scale_flag(self, capsys):
        code = run_main(["report", "--chart", "flat", "--points", "2", "--tol-scale", "10.0"])
        assert code == 0

    def test_config_validation(self):
        with pytest.raises(AK4Error):
            RunConfig(points=0)
        with pytest.raises(AK4Error):
            RunConfig(order=5)
        with pytest.raises(AK4Error):
            RunConfig(tol_scale=-1.0)
        for bad in (float("nan"), float("inf"), 0.0):
            with pytest.raises(AK4Error, match="--tol-scale"):
                RunConfig(tol_scale=bad)
        with pytest.raises(AK4Error, match="--seed"):
            RunConfig(seed=-1)

    @pytest.mark.parametrize(
        ("argv", "expected"),
        [
            pytest.param(["report"], RunConfig(), id="report"),
            pytest.param(["check", "kappa"], RunConfig(chart="all", order=2), id="check"),
            pytest.param(["classify"], RunConfig(chart="all"), id="classify"),
        ],
    )
    def test_flag_defaults_are_run_config_defaults(self, argv, expected):
        assert cli._config_from(cli.build_parser().parse_args(argv)) == expected

    def test_the_shared_parser_keeps_no_flag_between_commands(self, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_report", lambda config: seen.append(config) or 0)
        assert run_main(["report", "--points", "3"]) == 0
        assert run_main(["report"]) == 0
        assert seen == [RunConfig(points=3), RunConfig()]

    @pytest.mark.parametrize(
        ("command", "flag", "value"),
        [
            pytest.param(command, flag, value, id=f"command{i}-{flag}-{value}")
            for i, command in enumerate((["report"], ["check", "kappa"], ["classify"]))
            for flag, value in BAD_FLAG_VALUES
            # only report takes --json; classify takes no --tol-scale
            if (command == ["report"] or flag != "--json") and (command != ["classify"] or flag == "--seed")
        ],
    )
    def test_bad_flag_value_exits_2_naming_the_flag(self, command, flag, value, capsys):
        code = run_main([*command, "--chart", "flat", "--points", "1", "--order", "2", flag, value])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {flag} must be")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        ("command", "flag"),
        [pytest.param(["report"], "--planes", id="report---planes")]
        + [pytest.param(["check", "kappa"], f, id=f"check-{f}") for f in ("--json", "--checks", "--planes")]
        + [pytest.param(["classify"], f, id=f"classify-{f}") for f in ("--json", "--checks", "--tol-scale", "--planes")],
    )
    def test_flag_the_command_does_not_read_exits_2(self, command, flag, tmp_path, capsys):
        value = str(tmp_path / "out.json")
        with pytest.raises(SystemExit) as exc:
            run_main([*command, "--chart", "flat", "--points", "1", "--order", "2", flag, value])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.json").exists()


class TestCheck:
    @pytest.mark.parametrize("name", ["kappa", "ric-id", "s-star"])
    def test_fast_checks_pass_on_catalog(self, name, capsys):
        code = run_main(["check", name, "--chart", "all", "--points", "2", "--seed", "3", "--order", "2"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "pass" in out

    def test_kappa_on_fubini_study(self, capsys):
        code = run_main(["check", "kappa", "--chart", "fubini-study", "--points", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "worst residual" in out

    @pytest.mark.parametrize(("name", "order"), [("kappa", 2), ("prop1", 3), ("bianchi", 4)])
    def test_default_order_is_the_identity_order(self, name, order, monkeypatch, capsys):
        built = []
        build = charts.structure_at

        def recording(batches, order):
            built.append(order)
            return build(batches, order)

        monkeypatch.setattr(cli.charts, "structure_at", recording)
        argv = ["check", name, "--chart", "all", "--points", "1", "--seed", "5"]
        outputs = []
        for extra in ([], ["--order", str(order)]):
            code = run_main([*argv, *extra])
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert "worst residual" in outputs[0][1]
        assert set(built) == {order}

    def test_bach_3way_on_product_surfaces(self, capsys):
        code = run_main(["check", "bach-3way", "--chart", "product-surfaces", "--points", "2"])
        assert code == 0

    def test_unknown_check_exit_2_lists_names(self, capsys):
        code = run_main(["check", "nosuch", "--chart", "flat"])
        out = capsys.readouterr().out
        assert code == 2
        assert "kappa" in out and "bianchi" in out

    def test_not_applicable_rows_print_the_point_like_applicable_rows(self, capsys):
        assert run_main(["check", "prop1", "--chart", "all", "--points", "3", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "not applicable" in out
        assert "np.float64" not in out
        assert "[ 0.428 -0.107 -0.046 -0.534]  not applicable" in out

    def test_first_order_check_skips_the_curvature(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("curvature computed for a first-order identity")

        monkeypatch.setattr(cli.riemann, "curvature", fail)
        assert run_main(["check", "nabla-j-identity", "--chart", "all", "--points", "2"]) == 0
        assert "worst residual" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["nabla2-omega-shape", "gamma0-antisymmetry"])
    def test_check_only_rows_apply_on_every_catalog_chart(self, name, capsys):
        assert run_main(["check", name, "--chart", "all", "--points", "2"]) == 0
        out = capsys.readouterr().out
        assert "not applicable" not in out
        assert "worst residual" in out
        assert run_main(["check", "nosuch"]) == 2
        assert f"  {name}\n" in capsys.readouterr().out

    def test_tol_scale_moves_no_hypothesis(self, capsys):
        # the Ricci tensor of kodaira-thurston is not J-invariant, however loose the tolerances
        assert run_main(["check", "lemma1-alpha", "--chart", "kodaira-thurston", "--points", "2", "--tol-scale", "1e8"]) == 0
        out = capsys.readouterr().out
        assert out.count("not applicable") == 2
        assert "no applicable chart/point combinations" in out

    def test_sandbox_checks(self, capsys):
        for name in ("sandbox-roundtrip", "sandbox-lemma5", "gray-chain"):
            code = run_main(["check", name, "--points", "4", "--seed", "2"])
            assert code == 0, name


class TestClassify:
    def test_catalog_verdicts(self, capsys):
        code = run_main(["classify", "--points", "2", "--seed", "3", "--order", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "flat" in out and "KAHLER" in out
        # kodaira-thurston gets an AK-prefixed verdict with the ladder shown
        kt_line = [ln for ln in out.splitlines() if ln.startswith("kodaira-thurston")][0]
        assert "AK" in kt_line
        assert "|dOmega|" in kt_line

    def test_complex_hyperbolic_einstein_flag(self, capsys):
        code = run_main(["classify", "--chart", "complex-hyperbolic", "--points", "2", "--order", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "KAHLER" in out and "einstein" in out


class TestCatalogCommand:
    def test_lists_charts(self, capsys):
        assert run_main(["catalog"]) == 0
        out = capsys.readouterr().out
        for name in ("flat", "product-surfaces", "fubini-study", "complex-hyperbolic", "kodaira-thurston"):
            assert name in out


class TestAllCheckNames:
    def test_every_named_check_runs(self, capsys):
        # Exercise each registered check end to end on a cheap configuration.
        for name in cli.CHECK_NAMES:
            code = run_main(["check", name, "--chart", "flat", "--points", "1", "--seed", "4"])
            out = capsys.readouterr()
            assert code == 0, f"{name}: {out.out}"


class TestIdentityRegistry:
    def test_names_are_unique(self):
        names = [i.name for i in cli.IDENTITIES]
        assert len(names) == len(set(names))
        assert not set(names) & set(cli.SANDBOX_CHECKS)

    def test_every_check_group_resolves_to_one_tier(self):
        for group in {i.group for i in cli.IDENTITIES}:
            members = cli._select((group,), cli.IDENTITIES)
            assert group in cli.CHECK_NAMES
            assert members, group
            assert len({i.tol for i in members}) == 1, group

    @pytest.mark.parametrize("tol_scale", [1.0, 1e-3])
    def test_check_is_the_max_of_its_report_rows(self, tol_scale, monkeypatch):
        analyses = {}
        build = cli._analyses

        def shared(specs, config, order):
            for spec in specs:
                key = (spec.name, config.points, config.seed, order)
                if key not in analyses:
                    analyses[key] = list(build([spec], config, order))
                yield from analyses[key]

        monkeypatch.setattr(cli, "_analyses", shared)
        groups = sorted({i.group for i in cli.REPORTED})
        for name in ("flat", "product-surfaces", "fubini-study", "complex-hyperbolic", "kodaira-thurston"):
            config = RunConfig(chart=name, points=2, seed=5, tol_scale=tol_scale)
            doc, _ = run_report(config)
            for group in groups:
                members = {i.name for i in cli._select((group,), cli.REPORTED)}
                checked = cli._per_point_check(config, cli._select((group,), cli.IDENTITIES))
                for point_doc, row in zip(doc["points"], checked, strict=True):
                    reported = [r["residual"] for r in point_doc["identities"] if r["name"] in members]
                    assert row["residual"] == (max(reported) if reported else None), (name, group)

    @pytest.mark.parametrize(
        ("module", "stage", "argv"),
        [
            pytest.param("bianchi_bach", "second_order_report", ["check", "kappa"], id="check-kappa-second-order"),
            pytest.param("riemann", "hermitian_first_order", ["check", "kappa"], id="check-kappa-first-order"),
            pytest.param("gray", "prop1_check", ["classify", "--order", "4"], id="classify-prop1"),
            pytest.param("gray", "_lagrangian_planes", ["classify"], id="classify-lagrangian-planes"),
            pytest.param("decomp", "star_ricci", ["classify"], id="classify-star-ricci"),
            pytest.param("algebra", "u2_blocks", ["classify"], id="classify-u2-blocks"),
            pytest.param("algebra", "join_operator", ["classify"], id="classify-reconstruction"),
            pytest.param("algebra", "kn_delta", ["classify"], id="classify-orthogonality"),
            pytest.param("riemann", "_nabla_j_identity_residual", ["classify"], id="classify-nabla-j-identity"),
            pytest.param("algebra", "join_operator", ["check", "kappa"], id="check-kappa-reconstruction"),
            pytest.param("algebra", "kn_delta", ["check", "kappa"], id="check-kappa-orthogonality"),
        ],
    )
    def test_command_skips_the_stages_it_does_not_read(self, module, stage, argv, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError(f"{stage} called by {' '.join(argv)}")

        monkeypatch.setattr(getattr(cli, module), stage, fail)
        assert run_main([*argv, "--chart", "all", "--points", "1"]) == 0
        assert capsys.readouterr().out

    def test_report_computes_each_deferred_value_once(self, monkeypatch):
        expected = {"decomp.star_ricci": 1, "algebra.u2_blocks": 1, "riemann._nijenhuis": 1}  # once for the batch
        expected |= {"algebra.join_operator": 1, "riemann._nabla_j_identity_residual": 1}  # once for the batch: rows only
        calls = _count_calls(monkeypatch, expected)
        run_report(RunConfig(chart="kodaira-thurston", points=2))
        assert calls == expected

    @pytest.mark.parametrize("batch_points", [2, cli.BATCH_POINTS])
    def test_each_row_is_evaluated_once_per_batch(self, batch_points, monkeypatch):
        calls = Counter()

        def counted(ident):
            def residual(batch):
                calls[ident.name] += 1
                return ident.residual(batch)

            return dataclasses.replace(ident, residual=residual)

        patched = tuple(counted(i) for i in cli.IDENTITIES)
        monkeypatch.setattr(cli, "IDENTITIES", patched)
        monkeypatch.setattr(cli, "REPORTED", tuple(i for i in patched if i.report))
        monkeypatch.setattr(cli, "BATCH_POINTS", batch_points)
        batches = -(-4 // batch_points)
        for chart in ("fubini-study", "kodaira-thurston"):
            calls.clear()
            doc, _ = run_report(RunConfig(chart=chart, points=4, order=4))
            # a row runs on a batch only where some point satisfies its hypotheses,
            # and here each row applies at every point or at none
            assert calls == Counter({row["name"]: batches for row in doc["points"][0]["identities"]}), chart

    @pytest.mark.parametrize("batch_points", [2, cli.BATCH_POINTS])
    def test_each_hypothesis_is_evaluated_once_per_batch(self, batch_points, monkeypatch):
        # lemma6-constancy and lemma6-mu-formula both assume the lemma 6 triple
        calls = _count_calls(monkeypatch, ("gray.lemma6_triple",))
        monkeypatch.setattr(cli, "BATCH_POINTS", batch_points)
        for chart in ("fubini-study", "kodaira-thurston"):
            calls.clear()
            run_report(RunConfig(chart=chart, points=4, order=4))
            assert calls == {"gray.lemma6_triple": -(-4 // batch_points)}, chart

    def test_a_two_point_order_4_report_makes_its_jet_contractions_in_stacked_passes(self, monkeypatch):
        # the second-order report runs its same-shape jet work on the point
        # axis (`jets.concat`); un-stacking a pass raises these counts, which
        # were 139 and 124 with one contraction per piece and per slot, and
        # 87 and 73 with the adapted frame built on jets and the Weyl halves
        # projected on both pairs (kodaira-thurston skips the closed Bach forms)
        calls = Counter()
        contract = jets.contract

        def counted(*args):
            calls[chart] += 1
            return contract(*args)

        monkeypatch.setattr(jets, "contract", counted)
        for chart in CATALOG_NAMES:
            run_report(RunConfig(chart=chart, points=2, order=4))
        assert calls == {"flat": 74, "product-surfaces": 74, "fubini-study": 74, "complex-hyperbolic": 74, "kodaira-thurston": 60}

    def test_a_two_point_order_4_report_makes_one_divergence_per_pass(self, monkeypatch):
        # delta W+-, the Bach routes, the Ricci-route Laplacian and one for the
        # Weitzenboeck forms; kodaira-thurston skips the closed Bach forms
        calls = _count_calls(monkeypatch, ("riemann.divergence",))
        for chart, expected in (("fubini-study", 4), ("kodaira-thurston", 3)):
            calls.clear()
            run_report(RunConfig(chart=chart, points=2, order=4))
            assert calls == {"riemann.divergence": expected}, chart

    def test_the_second_order_jets_are_formed_once_per_curvature_slice(self, monkeypatch):
        # their temporaries grow with the points formed at once
        stages = ("gray.gray_report", "bianchi_bach.second_order_report", "bianchi_bach.cotton_york")
        calls = _count_calls(monkeypatch, stages)
        run_report(RunConfig(chart="fubini-study", points=2 * riemann.CURVATURE_SLICE + 1, order=4))
        assert calls == {"gray.gray_report": 1, "bianchi_bach.second_order_report": 1, "bianchi_bach.cotton_york": 3}

    def test_no_row_warns_or_raises_where_it_does_not_apply(self, capsys):
        # on every catalog chart some hypothesis fails, and prop2i's Kahler
        # nullity is undefined wherever a = 0; nothing may warn there
        with np.errstate(all="raise"):
            for name in cli.CHECK_NAMES:
                assert run_main(["check", name, "--chart", "all", "--points", "2", "--order", "4"]) in (0, 1), name
            assert run_main(["report", "--chart", "kodaira-thurston", "--points", "2", "--json", "-"]) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize(
        ("argv", "stages"),
        [
            pytest.param(["classify", "--points", "4"], BATCHED_STAGES, id="classify"),
            pytest.param(["check", "kappa", "--points", "2"], ("riemann.connection", "riemann.curvature", "decomp.decompose"), id="check-kappa"),
        ],
    )
    def test_each_batched_stage_runs_once_per_command(self, argv, stages, monkeypatch, capsys):
        calls = _count_calls(monkeypatch, BATCHED_STAGES)
        assert run_main([*argv, "--chart", "all"]) == 0
        assert capsys.readouterr().out
        assert calls == {stage: 1 for stage in stages}

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_every_applicable_row_returns_a_finite_float(self, order, analyses, catalog_specs):
        for name, spec in catalog_specs.items():
            for full in analyses[name]:
                pa = full if order == 4 else point_analysis(spec, at(full, "structure").points, order=order)
                for ident in cli.IDENTITIES:
                    if ident.order <= order and applies_at(ident, pa):
                        value = residual_at(ident, pa)
                        assert isinstance(value, float) and math.isfinite(value), (name, order, ident.name)


class TestCheckSelection:
    def test_checks_flag_filters_identities(self, capsys):
        code = run_main(["report", "--chart", "flat", "--points", "2", "--checks", "kappa,ric-id"])
        out = capsys.readouterr().out
        assert code == 0
        assert "kappa" in out and "ric-id" in out
        assert "bianchi" not in out

    @pytest.mark.parametrize("json_flag", [[], ["--json", "-"]])
    def test_unknown_name_exits_2_and_lists_names(self, json_flag, capsys):
        code = run_main(["report", "--chart", "flat", "--points", "1", "--order", "2", "--checks", "nosuch", *json_flag])
        captured = capsys.readouterr()
        assert code == 2
        assert "'nosuch'" in captured.err and "kappa" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", [",", "", " , "])
    def test_a_selection_naming_no_identity_exits_2(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            run_main(["report", "--chart", "flat", "--points", "1", "--order", "2", "--checks", value])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert "--checks" in captured.err and "names no identity" in captured.err
        assert captured.out == "" and "Traceback" not in captured.err

    def test_selection_without_applicable_rows(self, capsys):
        code = run_main(["report", "--chart", "flat", "--points", "1", "--order", "2", "--checks", "bianchi"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no applicable identities" in out


class TestUserChartFiles:
    def _write_chart(self, tmp_path, mutate=None):
        data = charts.chart_to_dict(charts.catalog_chart("product-surfaces"))
        data["name"] = "user-chart"
        if mutate:
            mutate(data)
        path = tmp_path / "user.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_report_on_chart_file(self, tmp_path, capsys):
        path = self._write_chart(tmp_path)
        code = run_main(["report", "--chart", path, "--points", "2", "--order", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "user-chart" in out

    def test_structure_violation_exits_2(self, tmp_path, capsys):
        def break_j(data):
            data["J"]["2_1"] = "0.7"

        path = self._write_chart(tmp_path, break_j)
        code = run_main(["report", "--chart", path, "--points", "2", "--order", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "J o J" in err

    @pytest.mark.parametrize("command", [["report"], ["check", "kappa"], ["classify"]])
    def test_bad_sample_point_is_named(self, command, tmp_path, capsys):
        def indefinite_metric(data):
            data["g"]["11"] = "x1"

        path = self._write_chart(tmp_path, indefinite_metric)
        code = run_main([*command, "--chart", path, "--points", "2", "--order", "2"])
        err = capsys.readouterr().err
        p = charts.load_chart(path).sample_points(2, 42)[0]
        assert p[0] < 0.0  # g_11 = x1 is negative at the first point
        assert code == 2
        assert "'user-chart', point 0 at (" in err and f"{p[0]:.6g}" in err
        assert "g positive definite" in err

    @pytest.mark.parametrize("expr", ["2 + x1^1e400", "2 + x1^(0*1e400)", "2 + x1^2^(10^400)"])
    def test_non_finite_constant_exponent_exits_2(self, expr, tmp_path, capsys):
        def huge_exponent(data):
            data["g"]["11"] = expr

        path = self._write_chart(tmp_path, huge_exponent)
        code = run_main(["report", "--chart", path, "--points", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "bad expression for g_11" in err and "exponent" in err

    def test_json_to_stdout(self, capsys):
        code = run_main(["report", "--chart", "flat", "--points", "1", "--order", "2", "--json", "-"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert code == 0
        assert doc["schema"] == "ak4/1"
        assert doc["aggregate"]["all_pass"] is True

    def test_json_to_stdout_matches_the_file(self, tmp_path, capsys):
        argv = ["report", "--chart", "kodaira-thurston", "--points", "2", "--order", "4"]
        assert run_main([*argv, "--json", "-"]) == 0
        printed = capsys.readouterr().out
        path = tmp_path / "report.json"
        assert run_main([*argv, "--json", str(path)]) == 0
        written = path.read_bytes().decode("utf-8")

        def without_timing(text):
            return [line for line in text.splitlines(keepends=True) if not line.startswith('  "timing_s": ')]

        assert printed.endswith("}\n") and written.endswith("}\n")
        assert without_timing(printed) == without_timing(written)
        assert len(without_timing(written)) == len(written.splitlines()) - 1

    @pytest.mark.parametrize(
        "target", ["missing/report.json", ".", "report.json" + os.sep], ids=["missing-directory", "directory", "trailing-separator"]
    )
    def test_unwritable_json_path_exits_2(self, target, tmp_path, capsys):
        path = os.path.join(tmp_path, target)
        code = run_main(["report", "--chart", "flat", "--points", "1", "--order", "2", "--json", path])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot write the JSON report to ") and path in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert list(tmp_path.rglob("*")) == []  # neither a report nor a temp file

    def test_json_through_a_symlink_writes_its_target(self, tmp_path):
        (tmp_path / "reports").mkdir()
        target = tmp_path / "reports" / "report.json"
        target.write_text("stale\n")
        link = tmp_path / "latest.json"
        link.symlink_to(os.path.join("reports", "report.json"))
        code = run_main(["report", "--chart", "flat", "--points", "1", "--order", "2", "--json", str(link)])
        assert code == 0
        assert link.is_symlink() and os.readlink(link) == os.path.join("reports", "report.json")
        assert json.loads(target.read_text())["schema"] == "ak4/1"
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_json_to_a_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        received = []
        # daemon: were the FIFO replaced instead, its reader would wait for a writer forever
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        doc = {"schema": "ak4/1", "points": [{"residual": 1.5e-17}]}
        cli.write_json(doc, str(fifo))
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert received == [cli._json_text(doc).encode("utf-8")]

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["umask-022", "umask-027"])
    def test_json_file_keeps_normal_permissions(self, umask, tmp_path):
        new, existing = tmp_path / "new.json", tmp_path / "existing.json"
        existing.write_text("{}\n")
        existing.chmod(0o604)  # bits no umask gives
        previous = os.umask(umask)
        try:
            cli.write_json({"a": 1}, str(new))
            cli.write_json({"a": 1}, str(existing))
            assert os.umask(umask) == umask  # write_json leaves the umask as it found it
        finally:
            os.umask(previous)
        assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask
        assert stat.S_IMODE(existing.stat().st_mode) == 0o604
        assert json.loads(existing.read_text()) == {"a": 1}

    @pytest.mark.parametrize(
        "part, key, expr, entry",
        [("g", "11", "exp(1000)+x1", "g_11"), ("g", "11", "1e400", "g_11"), ("J", "2_1", "exp(1000)", "J^2_1")],
    )
    def test_non_finite_entry_is_named(self, part, key, expr, entry, tmp_path, capsys):
        def overflow(data):
            data[part][key] = expr

        path = self._write_chart(tmp_path, overflow)
        code = run_main(["report", "--chart", path, "--points", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "'user-chart', point 0 at (" in err
        assert f"chart entry {entry} = inf is not finite" in err
        assert err.count("\n") == 1 and "Traceback" not in err


#: What every command prints for the half-bad chart at --points 6 --seed 3:
#: points 3 and 5 are bad, and the first of them ends the run.
HALF_BAD_ERROR = (
    "error: chart 'half-bad', point 3 at (-0.632285, -0.528721, -0.0603834, 0.28788): "
    "structure invariant 'g positive definite' violated, residual 1.323e-01\n"
)


class TestBadPointInABatch:
    """A bad point ends the run as it would if every point were evaluated alone."""

    @pytest.mark.parametrize("command", [["report"], ["classify"], ["check", "kappa"]])
    def test_first_bad_point_ends_the_command(self, command, tmp_path, capsys):
        path = tmp_path / "half-bad.json"
        path.write_text(json.dumps(half_bad_chart()))
        code = run_main([*command, "--chart", str(path), "--points", "6", "--seed", "3"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", HALF_BAD_ERROR)

    def test_analyses_yields_every_good_point_before_the_error(self):
        flat, bad = charts.catalog_chart("flat"), charts.chart_from_dict(half_bad_chart())
        config = RunConfig(points=6, seed=3)
        seen = []
        with pytest.raises(AK4Error) as err:
            for spec, pa in cli._analyses([flat, bad], config, 2):
                seen.append((spec.name, at(pa, "structure").points))
        assert f"error: {err.value}\n" == HALF_BAD_ERROR
        expected = [("flat", tuple(p)) for p in flat.sample_points(6, 3)] + [("half-bad", tuple(p)) for p in bad.sample_points(6, 3)[:3]]
        assert seen == expected

    def test_classify_prints_the_good_charts_before_the_error(self, monkeypatch, capsys):
        flat, bad = charts.catalog_chart("flat"), charts.chart_from_dict(half_bad_chart())
        monkeypatch.setattr(cli, "_charts_for", lambda config: [flat, bad])
        code = run_main(["classify", "--points", "6", "--seed", "3"])
        out, err = capsys.readouterr()
        assert code == 2 and err == HALF_BAD_ERROR
        assert [line.split()[0] for line in out.splitlines()] == ["flat"]


class TestBatchSize:
    """A command runs its points in batches of up to cli.BATCH_POINTS; the size changes no output."""

    @pytest.mark.parametrize("command", [["classify"], ["check", "kappa"], ["report", "--chart", "kodaira-thurston", "--order", "2", "--json", "-"]])
    def test_outputs_do_not_depend_on_the_batch_size(self, command, monkeypatch, capsys):
        outputs = []
        for size in (1, 4, cli.BATCH_POINTS):
            monkeypatch.setattr(cli, "BATCH_POINTS", size)
            code = run_main([*command, "--points", "7", "--seed", "11"])
            outputs.append((code, capsys.readouterr().out.split('"timing_s"')[0]))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_each_batch_runs_each_stage_once(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "BATCH_POINTS", 8)
        calls = _count_calls(monkeypatch, BATCHED_STAGES)
        assert run_main(["classify", "--points", "4"]) == 0  # 20 points: batches of 8, 8 and 4
        assert capsys.readouterr().out
        assert calls == {stage: 3 for stage in BATCHED_STAGES}

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_first_bad_point_in_a_later_batch(self, size, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "BATCH_POINTS", size)
        path = tmp_path / "half-bad.json"
        path.write_text(json.dumps(half_bad_chart()))
        code = run_main(["report", "--chart", str(path), "--points", "6", "--seed", "3"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", HALF_BAD_ERROR)


#: Coordinates a `check` row may print: inside a domain box, tiny, zero, huge or not finite.
_COORDINATES = st.one_of(
    st.floats(-2.0, 2.0),
    st.floats(-2e-3, 2e-3),
    st.sampled_from([0.0, -0.0, 1e-4, -1e-4, 0.0005, 0.9995, -0.0625]),
    st.floats(-1e9, 1e9),
    st.floats(),
)


class TestPointColumn:
    @given(st.tuples(_COORDINATES, _COORDINATES, _COORDINATES, _COORDINATES))
    @settings(max_examples=500, deadline=None)
    def test_equals_array2string(self, point):
        assert cli._point_text(point) == np.array2string(np.asarray(point), precision=3)


class TestOutOfMemory:
    """A --points too large to allocate exits 2 with a message, not a traceback.
    The allocations are patched to fail; nothing that large is allocated."""

    @pytest.mark.parametrize("command", [["report"], ["classify"], ["check", "kappa"]])
    def test_sample_points_too_large_to_allocate(self, command, monkeypatch, capsys):
        def no_memory(spec, n, seed):
            raise MemoryError(f"Unable to allocate {32 * n} bytes for {spec.name} points at seed {seed}")

        monkeypatch.setattr(charts.ChartSpec, "sample_points", no_memory)
        code = run_main([*command, "--chart", "flat", "--points", "1000000000000"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: --points 1000000000000 needs more memory than is available: Unable to allocate 32000000000000 bytes for flat points at seed 42\n"

    def test_a_batched_stage_out_of_memory(self, monkeypatch, capsys):
        def no_memory(_cds):
            raise MemoryError

        monkeypatch.setattr(cli.riemann, "curvature", no_memory)
        code = run_main(["classify"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", "error: --points 32 needs more memory than is available\n")


class TestUnshapeableCount:
    """A --points numpy cannot shape exits 2 naming the flag, before anything
    is sampled or allocated."""

    @pytest.mark.parametrize("count", [10**20, 2**62])
    @pytest.mark.parametrize(
        ("argv", "flag"),
        [
            (["report", "--chart", "flat", "--points"], "--points"),
            (["check", "kappa", "--points"], "--points"),
            (["classify", "--points"], "--points"),
            (["check", "gray-chain", "--points"], "--points"),
            (["check", "sandbox-lemma5", "--points"], "--points"),
            (["check", "sandbox-roundtrip", "--points"], "--points"),
        ],
    )
    def test_is_refused(self, argv, flag, count, monkeypatch, capsys):
        def sampled(*args):
            raise AssertionError("sampled before the count was checked")

        monkeypatch.setattr(charts.ChartSpec, "sample_points", sampled)
        for generator in ("random_batch", "g1_batch", "g2_batch"):
            monkeypatch.setattr(cli.sandbox, generator, sampled)
        code = run_main([*argv, str(count)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be <= {cli.MAX_COUNT}, the most numpy can shape, got {count}\n"

    @pytest.mark.parametrize("name", ["gray-chain", "sandbox-lemma5", "sandbox-roundtrip"])
    def test_a_sandbox_check_is_refused_a_count_it_cannot_draw(self, name, monkeypatch, capsys):
        # max(8 N, 256) tensors of 256 float64: numpy shapes at most intp max bytes
        most = np.iinfo(np.intp).max // (8 * 256 * 8)

        def drawn(*args):
            raise MemoryError("drawn")

        for generator in ("random_batch", "g1_batch", "g2_batch"):
            monkeypatch.setattr(cli.sandbox, generator, drawn)
        for count in (most + 1, 2**50, cli.MAX_COUNT):
            code = run_main(["check", name, "--points", str(count)])
            out, err = capsys.readouterr()
            assert (code, out) == (2, "")
            assert err == f"error: --points must be <= {most} for a sandbox check, the most numpy can shape, got {count}\n"
        # the largest count that numpy can shape reaches the generators
        assert run_main(["check", name, "--points", str(most)]) == 2
        assert capsys.readouterr().err == f"error: --points {most} needs more memory than is available: drawn\n"


def _kappa_nan_at_the_second_point(monkeypatch) -> None:
    """Make the kappa row's residual NaN at the second point of each batch."""

    def residual(batch):
        return [math.nan if k == 1 else 1e-12 for k in range(len(batch.structure.points))]

    patched = tuple(dataclasses.replace(i, residual=residual) if i.name == "kappa" else i for i in cli.IDENTITIES)
    monkeypatch.setattr(cli, "IDENTITIES", patched)
    monkeypatch.setattr(cli, "REPORTED", tuple(i for i in patched if i.report))


def _weitzenboeck_field_nan_at_the_second_point(monkeypatch) -> None:
    """Make the random-field Weitzenboeck residual NaN at the second point of each batch."""
    second_order_report = cli.bianchi_bach.second_order_report

    def planted(*args, **kwargs):
        sor = second_order_report(*args, **kwargs)
        sor["weitzenboeck random"][1] = math.nan
        return sor

    monkeypatch.setattr(cli.bianchi_bach, "second_order_report", planted)


class TestNonFiniteResidual:
    """A NaN residual ranks worst: `>` and max() would pass over it."""

    def test_weitzenboeck_keeps_a_nan_of_the_random_field(self, monkeypatch):
        _weitzenboeck_field_nan_at_the_second_point(monkeypatch)
        doc, code = run_report(RunConfig(chart="flat", points=2, checks=("weitzenboeck",)))
        worst = doc["aggregate"]["identities"]["weitzenboeck"]
        assert code == 1
        assert math.isnan(worst["residual"]) and worst["point_index"] == 1 and worst["pass"] is False

    def test_a_chart_whose_random_field_overflows_fails_weitzenboeck(self, tmp_path, capsys):
        # at coordinates near 1e308 the seeded polynomial 2-form overflows, and
        # its residual is NaN: the row fails, and nothing warns or raises
        doc = charts.chart_to_dict(charts.catalog_chart("flat")) | {"domain": [[0.0, 1e308]] * 4}
        path = tmp_path / "huge-flat.json"
        path.write_text(json.dumps(doc))
        with np.errstate(all="raise"):
            code = run_main(["report", "--chart", str(path), "--points", "2"])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        assert re.search(r"^  weitzenboeck +worst nan +\(tol 1\.0e-06\)  FAIL$", out, re.M)
        assert re.findall(r"^  (\S+) .*  FAIL$", out, re.M) == ["weitzenboeck"]
        assert out.endswith("overall: FAIL\n")

    @pytest.mark.parametrize(
        ("g2", "triple", "expected"),
        [
            (math.nan, 1.0, math.nan),
            (1.0, math.nan, math.nan),
            (math.nan, 0.0, math.nan),
            (0.0, math.nan, math.nan),
            (1.0, 2.0, 0.0),
            (0.0, 2.0, 2.0),
            (2.0, 0.0, 2.0),
            (1e-12, 1e-11, 1e-11),
        ],
    )
    def test_lemma5_fails_on_a_nan_on_either_side(self, g2, triple, expected, monkeypatch):
        monkeypatch.setattr(cli.gray, "lemma5_triple", lambda dr: np.array([triple]))
        [residual] = cli._lemma5(SimpleNamespace(ladder=SimpleNamespace(g2=[g2]), dr=None))
        assert residual == expected or (math.isnan(residual) and math.isnan(expected))

    @pytest.mark.parametrize(("low", "high"), [(math.nan, 0.5), (-0.5, math.nan)])
    def test_mu_formula_gap_keeps_a_nan_extreme(self, low, high):
        [gap] = cli._mu_formula_gap(SimpleNamespace(mu_formula=[0.0], mu_min=[low], mu_max=[high]))
        assert math.isnan(gap)

    def test_check_reports_it_worst_and_fails(self, monkeypatch, capsys):
        _kappa_nan_at_the_second_point(monkeypatch)
        code = run_main(["check", "kappa", "--chart", "flat", "--points", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("  FAIL\n") == 1
        assert out.endswith("worst residual nan on flat -> FAIL\n")

    def test_report_aggregate_names_its_point(self, monkeypatch, capsys):
        _kappa_nan_at_the_second_point(monkeypatch)
        doc, code = run_report(RunConfig(chart="flat", points=2, order=2, checks=("kappa",)))
        worst = doc["aggregate"]["identities"]["kappa"]
        assert code == 1
        assert math.isnan(worst["residual"]) and worst["point_index"] == 1 and worst["pass"] is False

    def test_report_text_prints_it(self, monkeypatch, capsys):
        _kappa_nan_at_the_second_point(monkeypatch)
        assert run_main(["report", "--chart", "flat", "--points", "2", "--order", "2", "--checks", "kappa"]) == 1
        assert "  kappa  worst nan  (tol 1.0e-09)  FAIL\n" in capsys.readouterr().out

    @pytest.mark.parametrize("first", ["finite", "nan"])
    def test_group_max_keeps_it(self, first):
        values = {"finite": 1e-12, "nan": math.nan}
        second = "nan" if first == "finite" else "finite"
        group = tuple(cli.Identity(k, cli.TOL_ALGEBRAIC, 2, lambda batch, v=values[k]: [v] * len(batch.structure.points), group="g") for k in (first, second))
        rows = cli._per_point_check(RunConfig(chart="flat", points=1, order=2), group)
        assert len(rows) == 1 and math.isnan(rows[0]["residual"])


def _json_reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.floats().map(np.float64)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-320, 1e300])
    | st.text()
)
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4)
    | st.dictionaries(st.integers() | st.booleans(), inner, max_size=3)
    | st.dictionaries(st.floats(), inner, max_size=3),
    max_leaves=24,
)


class TestJsonWriter:
    """`_json_text` writes the bytes of json.dumps(indent=2, sort_keys=True)."""

    @pytest.mark.parametrize("order", [2, 4])
    def test_catalog_reports(self, order, catalog_specs):
        for name in catalog_specs:
            doc, _ = run_report(RunConfig(chart=name, points=2, order=order))
            assert cli._json_text(doc) == _json_reference(doc), name

    @settings(max_examples=300, deadline=None)
    @given(_JSON_DOCS)
    def test_generated_documents(self, doc):
        assert cli._json_text(doc) == _json_reference(doc)

    def test_edge_documents(self):
        docs = [
            {},
            [],
            {"a": {}, "b": [], "c": [[], {}], "é": "ü\u2028\x00\"\\", "\ud800": "\U0001f600"},
            [math.nan, math.inf, -math.inf, np.float64(0.1), np.float64(math.nan), True, False, None, 0, -7, 2**70],
            {1: "a", 3: "b", 2: "c"},
            {True: 1, False: 2},
            {None: [1.5]},
            {1.5: 0, -math.inf: 1},
        ]
        for doc in docs:
            assert cli._json_text(doc) == _json_reference(doc)

    def test_containers_of_scalar_dicts(self):
        # strings that hold what the one-call paths rewrite around: braces,
        # commas, quotes, newlines and NULs, beside the scalars json writes
        tricky = ["}", "{", '"}', "},\n{", "a: {", ":\0{", "\0", "\\", '\\"', "x\n    \"y\": {"]
        rows = [{k: v, "n": i, "f": math.nan, "b": True, "z": None} for i, (k, v) in enumerate(zip(tricky, reversed(tricky)))]
        docs = [
            rows,
            {k: row for k, row in zip(tricky, rows)},
            {"rows": rows, "by": {k: row for k, row in zip(tricky, rows)}, "one": [{"k": "}"}], "keys": {1.5: {"a": 1}, -2: {"b": 2}}},
            [{"a": 1}, {}],
            {"a": {"b": 1}, "c": {}},
            [rows, [{"x": [1]}]],
        ]
        for doc in docs:
            assert cli._json_text(doc) == _json_reference(doc)

    @pytest.mark.parametrize("value", [np.int64(1), np.float32(1.0), np.bool_(True), {1, 2}, object(), b"x"])
    def test_rejects_what_json_rejects(self, value):
        for doc in (value, [value], {"k": value}):
            with pytest.raises(TypeError):
                _json_reference(doc)
            with pytest.raises(TypeError):
                cli._json_text(doc)

    def test_rejects_the_keys_json_rejects(self):
        with pytest.raises(TypeError):
            _json_reference({(1, 2): 0})
        with pytest.raises(TypeError, match="keys must be str, int, float, bool or None, not tuple"):
            cli._json_text({(1, 2): 0})
