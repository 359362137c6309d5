"""Construction invariants of the algebraic curvature sandbox."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ak4 import algebra, sandbox

from oracles import first_bianchi_residual


class TestRandomCurvature:
    def test_first_bianchi_by_construction(self):
        r = sandbox.random_batch(1, 0)[0]
        assert first_bianchi_residual(r) < 1e-12
        assert np.abs(r + r.transpose(1, 0, 2, 3)).max() < 1e-12
        assert np.abs(r + r.transpose(0, 1, 3, 2)).max() < 1e-12
        assert np.abs(r - r.transpose(2, 3, 0, 1)).max() < 1e-12

    def test_distinct_seeds_distinct_tensors(self):
        a = sandbox.random_batch(1, 1)[0]
        b = sandbox.random_batch(1, 2)[0]
        assert np.abs(a - b).max() > 1e-3

    def test_seed_determinism(self):
        assert np.array_equal(sandbox.random_batch(1, 5)[0], sandbox.random_batch(1, 5)[0])

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_batch_invariants(self, seed):
        batch = sandbox.random_batch(4, seed)
        assert first_bianchi_residual(batch).max() < 1e-12


class TestPrescribedBlocks:
    def test_pure_scalar_is_constant_curvature(self):
        r = sandbox.curvature_with_blocks(s=12.0)
        m = algebra.operator_matrix(r)
        assert np.abs(m - np.eye(6)).max() < 1e-12  # s/12 = 1 on every 2-form
        ric = algebra.ricci_contraction(r)
        assert np.abs(ric - 3.0 * np.eye(4)).max() < 1e-12

    def test_psi_round_trip(self):
        r = sandbox.curvature_with_blocks(psi=(0.7, -0.3))
        parts = algebra.split_operator(algebra.operator_matrix(r))
        blocks = algebra.u2_blocks(parts["wplus"])
        assert np.abs(blocks["psi"] - np.array([0.7, -0.3])).max() < 1e-10
        assert np.abs(blocks["w1"]).max() < 1e-12
        assert np.abs(blocks["w3"]).max() < 1e-12

    def test_only_anti_invariant_ricci_violates_criterion(self):
        h = np.zeros((4, 4))
        h[0, 0], h[1, 1] = 0.5, -0.5  # J-anti-invariant diagonal
        m = algebra.operator_matrix(sandbox.curvature_with_blocks(ric0=h))
        assert algebra.frobenius(m[1:3, 3:]) > 0.1  # couples anti plane to ASD forms
        assert np.abs(m[0, 3:]).max() < 1e-12  # invariant part untouched

    def test_malformed_blocks_rejected(self):
        with pytest.raises(ValueError, match="traceless"):
            sandbox.curvature_with_blocks(ric0=np.eye(4))
        with pytest.raises(ValueError, match="symmetric"):
            sandbox.curvature_with_blocks(wminus=np.triu(np.ones((3, 3)), 1))

    def test_full_block_prescription_round_trip(self):
        ric0 = np.diag([0.4, 0.4, -0.4, -0.4])
        wm = np.diag([0.3, -0.1, -0.2])
        r = sandbox.curvature_with_blocks(s=2.0, ric0=ric0, kappa=-1.5, psi=(0.2, 0.1), w3=(0.05, -0.3), wminus=wm)
        assert first_bianchi_residual(r) < 1e-12
        parts = algebra.split_operator(algebra.operator_matrix(r))
        blocks = algebra.u2_blocks(parts["wplus"])
        assert abs(parts["s"] - 2.0) < 1e-10
        assert abs(blocks["kappa"] + 1.5) < 1e-10
        assert np.abs(blocks["psi"] - np.array([0.2, 0.1])).max() < 1e-10
        assert np.abs(parts["wminus"] - wm).max() < 1e-10
        ric_rec = algebra.ricci_contraction(r) - parts["s"] / 4.0 * np.eye(4)
        assert np.abs(ric_rec - ric0).max() < 1e-10

    def test_g2_and_g1_batches_satisfy_their_conditions(self):
        g1, g2, g3 = algebra.gray_residuals(sandbox.g1_batch(40, 9))
        assert g1.max() < 1e-12 and g2.max() < 1e-12 and g3.max() < 1e-12
        g1, g2, g3 = algebra.gray_residuals(sandbox.g2_batch(40, 9))
        assert g2.max() < 1e-12 and g3.max() < 1e-12
        assert np.median(g1) > 1e-3  # generically not first-condition
