"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Every tolerance is pinned here, taken from the tolerance ladder (algebraic
1e-9, first-order 1e-8, third-order 1e-7, fourth-order 1e-6) or from the
criterion itself. Heavy per-point analyses are shared through the
session-scoped `analyses` fixture (3 seeded points per catalog chart at jet
order 4); cheap pointwise validations run at the stated 32 points.
"""

from __future__ import annotations

import json

import numpy as np

from ak4 import algebra, bianchi_bach, charts, cli, riemann, sandbox, tensorops

from conftest import applies_at, at, identity, point_analysis, product_surfaces, residual_at, second_order_residuals, sphere_factor, structure_batch, structure_point
from oracles import fd_curvature


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {label:34s} {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_structure_validation(catalog_specs):
    worst = 0.0
    for spec in catalog_specs.values():
        for p in spec.sample_points(32, 42):
            sp = structure_point(spec, p, order=2)
            worst = max(worst, max(sp.invariant_residuals.values()))
    _verdict(1, "structure validation (5x32 pts)", worst < 1e-9, f"worst {worst:.2e}")


def test_criterion_02_reconstruction_and_idempotence(analyses):
    worst_chart = 0.0
    for rows in analyses.values():
        for pa in rows:
            dr = at(pa, "dr")
            worst_chart = max(worst_chart, dr.recon_residual, dr.u2_residual)
    batch = sandbox.random_batch(1000, 2024)
    m = algebra.operator_matrix(batch)
    parts = algebra.split_operator(m)
    eye3 = np.eye(3)
    rebuilt = np.zeros_like(m)
    rebuilt[..., :3, :3] = parts["wplus"] + parts["s"][..., None, None] / 12.0 * eye3
    rebuilt[..., 3:, 3:] = parts["wminus"] + parts["s"][..., None, None] / 12.0 * eye3
    rebuilt[..., :3, 3:] = parts["mixed"]
    rebuilt[..., 3:, :3] = np.swapaxes(parts["mixed"], -1, -2)
    reassembled = algebra.tensor_from_operator(rebuilt)
    roundtrip = float(np.abs(reassembled - batch).max())
    parts2 = algebra.split_operator(algebra.operator_matrix(reassembled))
    idem = max(
        float(np.abs(parts2["wplus"] - parts["wplus"]).max()),
        float(np.abs(parts2["wminus"] - parts["wminus"]).max()),
        float(np.abs(parts2["mixed"] - parts["mixed"]).max()),
        float(np.abs(parts2["s"] - parts["s"]).max()),
    )
    ok = worst_chart < 1e-8 and roundtrip < 1e-10 and idem < 1e-10
    _verdict(2, "so4/u2 reconstruction + sandbox", ok, f"charts {worst_chart:.2e}, roundtrip {roundtrip:.2e}, idem {idem:.2e}")


def test_criterion_03_scalar_curvature_relations(analyses):
    worst_kappa = 0.0
    worst_sstar = 0.0
    kt_difference = None
    s_star = identity("s-star")
    for name, rows in analyses.items():
        for pa in rows:
            worst_kappa = max(worst_kappa, at(pa, "dr").kappa_identity_residual)
            if at(pa, "hfo").d_omega_norm < 1e-9:
                assert applies_at(s_star, pa)
                worst_sstar = max(worst_sstar, residual_at(s_star, pa))
            if name == "kodaira-thurston":
                kt_difference = at(pa, "dr").s_star - at(pa, "cd").s_value
    ok = worst_kappa < 1e-9 and worst_sstar < 1e-8 and kt_difference > 1e-3
    _verdict(
        3,
        "kappa and s*-s relations",
        ok,
        f"kappa {worst_kappa:.2e}, s*-s {worst_sstar:.2e}, strict difference {kt_difference:.3f}",
    )


def test_criterion_04_second_bianchi(analyses):
    worst = 0.0
    nontrivial = 0.0
    for name, rows in analyses.items():
        for pa in rows:
            res = second_order_residuals(pa)
            worst = max(worst, res["delta W = C"], res["delta W+ = C+"])
            if name == "product-surfaces":
                cotton = tensorops.frame_components(bianchi_bach.cotton_york(pa.batch.cd)[pa.index].value, at(pa, "structure").frame)
                nontrivial = max(nontrivial, float(np.abs(cotton).max()))
    ok = worst < 1e-7 and nontrivial > 1e-3
    _verdict(4, "delta W = C (incl. non-Einstein)", ok, f"worst {worst:.2e}, |C| on product {nontrivial:.2e}")


def test_criterion_05_alpha_beta_formulas(analyses, ricci_anti_analysis):
    worst = 0.0
    for rows in analyses.values():
        for pa in rows:
            if at(pa, "dr").ric_anti_norm < 1e-8:  # hypothesis: J-invariant Ricci
                res = second_order_residuals(pa)
                worst = max(worst, res["alpha formula"], res["beta formula"])
    violation = second_order_residuals(ricci_anti_analysis)["alpha formula"]
    kt_violation = min(second_order_residuals(pa)["alpha formula"] for pa in analyses["kodaira-thurston"])
    ok = worst < 1e-7 and violation > 1e-2 and kt_violation > 1e-2
    _verdict(
        5,
        "alpha/beta formulas + sensitivity",
        ok,
        f"worst {worst:.2e}, violated-hypothesis residuals {violation:.2e}/{kt_violation:.2e}",
    )


def test_criterion_06_bach_three_way(analyses):
    worst_pair = 0.0
    worst_vanish = 0.0
    for name, rows in analyses.items():
        for pa in rows:
            res = second_order_residuals(pa)
            worst_pair = max(worst_pair, res["bach direct vs plus"], res["bach direct vs minus"])
            if res["bach direct vs almost-kahler form"] is not None:
                worst_pair = max(worst_pair, res["bach direct vs almost-kahler form"], res["bach direct vs ricci form"])
            if name in ("complex-hyperbolic", "fubini-study"):  # Einstein / self-dual
                worst_vanish = max(worst_vanish, float(np.abs(bianchi_bach.bach_direct(pa.batch.cd)[pa.index]).max()))
    ok = worst_pair < 1e-6 and worst_vanish < 1e-6
    _verdict(6, "bach three-way + vanishing", ok, f"pairwise {worst_pair:.2e}, einstein/self-dual |B| {worst_vanish:.2e}")


def test_criterion_07_lemma5_and_gray_chain():
    batch = np.concatenate(
        [sandbox.random_batch(400, 71), sandbox.g2_batch(300, 72), sandbox.g1_batch(300, 73)]
    )
    assert len(batch) == 1000
    g1, g2, g3 = algebra.gray_residuals(batch)
    parts = algebra.split_operator(algebra.operator_matrix(batch))
    blocks = algebra.u2_blocks(parts["wplus"])
    ric_anti = algebra.frobenius(algebra.j_anti_part(algebra.ricci_contraction(batch)))
    triple = np.maximum(ric_anti, np.maximum(algebra.frobenius(blocks["w2"]), algebra.frobenius(blocks["w3"])))
    fwd_ok = bool((g2 < 1e-12).sum() >= 600 and triple[g2 < 1e-12].max() < 1e-10)
    bwd_ok = bool((triple < 1e-12).sum() >= 600 and g2[triple < 1e-12].max() < 1e-10)
    chain_ok = bool(g2[g1 < 1e-12].max() < 1e-10 and g3[g2 < 1e-12].max() < 1e-10)
    ok = fwd_ok and bwd_ok and chain_ok
    _verdict(7, "lemma-5 equivalence + gray chain", ok, f"1000 tensors, forward {fwd_ok}, backward {bwd_ok}, chain {chain_ok}")


def test_criterion_08_totally_real_curvature(analyses):
    worst_fs = 0.0
    for pa in analyses["fubini-study"]:
        gr = at(pa, "gr")
        worst_fs = max(worst_fs, gr.mu_max - gr.mu_min, abs(gr.mu_max - gr.mu_formula), abs(gr.mu_min - gr.mu_formula))
    spec = product_surfaces(sphere_factor(1.0), "1", name="sphere-plane", domain=((-0.7, 0.7),) * 4)
    pa = point_analysis(spec, (0.15, -0.2, 0.3, 0.1), order=4)
    gr = at(pa, "gr")
    spread = gr.mu_max - gr.mu_min
    wminus = float(algebra.frobenius(at(pa, "dr").wminus))
    ok = worst_fs < 1e-7 and spread > 1e-3 and wminus > 1e-3
    _verdict(8, "totally-real curvature both ways", ok, f"fs {worst_fs:.2e}, spread {spread:.2e}, |W-| {wminus:.2e}")


def test_criterion_09_ricci_and_weitzenboeck(analyses):
    worst_ric = 0.0
    worst_wz = 0.0
    for rows in analyses.values():
        for pa in rows:
            worst_ric = max(worst_ric, riemann.ricci_identity_check(pa.batch.cd)[pa.index])
            res = second_order_residuals(pa)
            worst_wz = max(worst_wz, res["weitzenboeck omega"], res["weitzenboeck random"])
    ok = worst_ric < 1e-8 and worst_wz < 1e-6
    _verdict(9, "ricci identity + weitzenboeck", ok, f"ric-id {worst_ric:.2e}, weitzenboeck {worst_wz:.2e}")


def test_criterion_10_determinism(tmp_path):
    docs = []
    for k in range(2):
        config = cli.RunConfig(chart="kodaira-thurston", points=2, seed=11, order=4)
        doc, code = cli.run_report(config)
        assert code == 0
        path = tmp_path / f"run{k}.json"
        cli.write_json(doc, str(path))
        loaded = json.loads(path.read_text())
        del loaded["timing_s"]
        docs.append(json.dumps(loaded, sort_keys=True))
    ok = docs[0] == docs[1]
    _verdict(10, "deterministic reports", ok, f"{len(docs[0])} bytes, byte-identical modulo timing")


def test_criterion_11_jets_vs_finite_differences(catalog_specs):
    worst = 0.0
    for spec in catalog_specs.values():
        for p in spec.sample_points(2, 101):
            cd = riemann.curvature(riemann.connection(structure_batch(spec, p, order=2)))
            fd = fd_curvature(spec, p)
            scale = max(1.0, float(np.abs(fd).max()))
            worst = max(worst, float(np.abs(cd.R.value[0] - fd).max()) / scale)
    _verdict(11, "jet AD vs finite differences", worst < 1e-4, f"worst relative {worst:.2e}")
