"""SO(4)/U(2) decomposition, star-Ricci, scalar-curvature relations."""

from __future__ import annotations

import numpy as np
import pytest

from ak4 import algebra, charts, decomp, riemann, sandbox

from conftest import KAHLER_NAMES, Entries, applies_at, at, hyperbolic_factor, identity, product_surfaces, residual_at, sphere_factor, structure_batch


class TestSO4:
    def test_flat_all_parts_vanish(self, analyses):
        pa = analyses["flat"][0]
        for norm in at(pa, "dr").block_norms.values():
            assert norm == 0.0
        assert at(pa, "cd").s_value == 0.0

    def test_fubini_study_self_dual_einstein(self, analyses):
        for pa in analyses["fubini-study"]:
            dr = at(pa, "dr")
            assert np.abs(dr.wminus).max() < 1e-8
            assert np.abs(dr.ric0).max() < 1e-8
            assert dr.recon_residual < 1e-8

    def test_unequal_constant_curvatures(self):
        spec = product_surfaces(
            sphere_factor(1.0),
            hyperbolic_factor(-1.0),
            name="sphere-hyperbolic",
            domain=((-0.5, 0.5),) * 4,
        )
        for p in spec.sample_points(2, 21):
            cd = riemann.curvature(riemann.connection(structure_batch(spec, p, order=4)))
            dr = Entries(decomp.decompose(cd), 0)
            assert algebra.frobenius(dr.ric0) > 0.1  # not Einstein
            assert dr.recon_residual < 1e-8
            assert abs(cd.s_value[0]) < 1e-8  # curvatures +1 and -1 cancel

    def test_reconstruction_all_charts(self, analyses):
        for rows in analyses.values():
            for pa in rows:
                dr = at(pa, "dr")
                assert dr.recon_residual < 1e-8
                assert dr.u2_residual < 1e-9
                assert dr.orthogonality_residual < 1e-9


class TestU2:
    def test_kahler_charts(self, analyses):
        for name in KAHLER_NAMES:
            for pa in analyses[name]:
                dr = at(pa, "dr")
                assert algebra.frobenius(dr.w2) < 1e-8
                assert algebra.frobenius(dr.w3) < 1e-8
                assert abs(dr.kappa - at(pa, "cd").s_value) < 1e-8

    def test_kappa_identity_everywhere(self, analyses):
        for rows in analyses.values():
            for pa in rows:
                assert at(pa, "dr").kappa_identity_residual < 1e-9

    def test_kodaira_thurston_blocks(self, analyses):
        for pa in analyses["kodaira-thurston"]:
            dr = at(pa, "dr")
            assert dr.kappa_identity_residual < 1e-9
            assert dr.s_star - at(pa, "cd").s_value > 0.5  # strictly almost Kahler


class TestStarRicci:
    def test_kahler_star_ricci_equals_ricci(self, analyses):
        for name in KAHLER_NAMES:
            for pa in analyses[name]:
                cd, dr = at(pa, "cd"), at(pa, "dr")
                assert np.abs(dr.ric_star - cd.ric_frame).max() < 1e-8
                assert abs(dr.s_star - cd.s_value) < 1e-8

    def test_flat_star_ricci_zero(self, analyses):
        assert np.abs(at(analyses["flat"][0], "dr").ric_star).max() == 0.0

    def test_kodaira_thurston_scalar_difference(self, analyses):
        s_star = identity("s-star")
        for pa in analyses["kodaira-thurston"]:
            assert applies_at(s_star, pa)
            assert residual_at(s_star, pa) < 1e-8
            assert at(pa, "dr").s_star - at(pa, "cd").s_value == pytest.approx(0.5 * at(pa, "hfo").nabla_j_sq, abs=1e-9)

    def test_skew_part_consistency(self, analyses):
        for rows in analyses.values():
            for pa in rows:
                assert at(pa, "dr").star_skew_residual < 1e-9


class TestJInvariance:
    def test_einstein_charts(self, analyses):
        for name in ("flat", "fubini-study", "complex-hyperbolic"):
            for pa in analyses[name]:
                assert at(pa, "dr").ric_anti_norm < 1e-8
                assert algebra.frobenius(at(pa, "cd").operator[1:3, 3:]) < 1e-8

    def test_product_surfaces_kahler_non_einstein(self, analyses):
        for pa in analyses["product-surfaces"]:
            dr = at(pa, "dr")
            assert dr.ric_anti_norm < 1e-8
            assert algebra.frobenius(at(pa, "cd").operator[1:3, 3:]) < 1e-8
            assert algebra.frobenius(dr.ric0) > 1e-3  # Ric0 itself nonzero

    def test_injected_anti_invariant_ricci(self):
        # Constructed counterexample: a purely anti-invariant Ric0 must load
        # the (phi, Jphi) x anti-self-dual block, and the two residuals are
        # proportional within fixed bounds over random draws.
        rng = np.random.default_rng(7)
        for _ in range(50):
            h = rng.standard_normal((4, 4))
            h = 0.5 * (h + h.T)
            h = algebra.j_anti_part(h)
            h -= np.trace(h) / 4.0 * np.eye(4)
            if algebra.frobenius(h) < 0.1:
                continue
            r = sandbox.curvature_with_blocks(ric0=h)
            m = algebra.operator_matrix(r)
            ric_anti = float(algebra.frobenius(algebra.j_anti_part(algebra.ricci_contraction(r))))
            mixed = float(algebra.frobenius(m[1:3, 3:]))
            assert ric_anti > 0.1
            assert mixed > 0.1
            ratio = mixed / ric_anti
            assert 0.2 < ratio < 5.0

    def test_equivalence_on_sandbox(self):
        # Ric J-invariant <=> the anti-invariant self-dual plane decouples
        # from the anti-self-dual forms.
        batch = sandbox.random_batch(200, 3)
        m = algebra.operator_matrix(batch)
        ric_anti = algebra.frobenius(algebra.j_anti_part(algebra.ricci_contraction(batch)))
        mixed = algebra.frobenius(m[:, 1:3, 3:])
        # remove the anti part block by block and check the mixed block dies
        fixed = batch - 0.5 * algebra.kn_delta(algebra.j_anti_part(algebra.ricci_contraction(batch)))
        m2 = algebra.operator_matrix(fixed)
        mixed2 = algebra.frobenius(m2[:, 1:3, 3:])
        assert mixed2.max() < 1e-10
        assert (mixed[ric_anti > 0.5] > 1e-3).all()


class TestAlgebraicSandboxRoundTrip:
    def test_thousand_tensors(self):
        batch = sandbox.random_batch(1000, 11)
        m = algebra.operator_matrix(batch)
        parts = algebra.split_operator(m)
        blocks = algebra.u2_blocks(parts["wplus"])
        eye3 = np.eye(3)
        rebuilt = np.zeros_like(m)
        rebuilt[..., :3, :3] = parts["wplus"] + parts["s"][..., None, None] / 12.0 * eye3
        rebuilt[..., 3:, 3:] = parts["wminus"] + parts["s"][..., None, None] / 12.0 * eye3
        rebuilt[..., :3, 3:] = parts["mixed"]
        rebuilt[..., 3:, :3] = np.swapaxes(parts["mixed"], -1, -2)
        tensors = algebra.tensor_from_operator(rebuilt)
        assert np.abs(tensors - batch).max() < 1e-10
        # projector idempotence: decomposing the rebuilt operator changes nothing
        parts2 = algebra.split_operator(algebra.operator_matrix(tensors))
        blocks2 = algebra.u2_blocks(parts2["wplus"])
        assert np.abs(parts2["wplus"] - parts["wplus"]).max() < 1e-10
        assert np.abs(parts2["wminus"] - parts["wminus"]).max() < 1e-10
        assert np.abs(parts2["s"] - parts["s"]).max() < 1e-10
        for key in ("w1", "w2", "w3"):
            assert np.abs(blocks2[key] - blocks[key]).max() < 1e-10


class TestJoinOperator:
    def test_inverse_of_split_batched_and_single(self):
        m = algebra.operator_matrix(sandbox.random_batch(64, 3))
        assert np.abs(algebra.join_operator(algebra.split_operator(m)) - m).max() < 1e-12
        single = algebra.join_operator(algebra.split_operator(m[0]))
        assert single.shape == (6, 6)
        assert np.abs(single - m[0]).max() < 1e-12


class TestTraces:
    def test_ric0_traceless_and_scalar_consistency(self, analyses):
        for rows in analyses.values():
            for pa in rows:
                cd = at(pa, "cd")
                assert abs(np.trace(at(pa, "dr").ric0)) < 1e-9
                assert abs(np.trace(cd.ric_frame) - cd.s_value) < 1e-9
                # operator trace is s/2 under the half-norm convention
                assert abs(2.0 * np.trace(cd.operator) - cd.s_value) < 1e-9
