"""Tensor kernels against the loops they replaced, and the size of the jet caches.

Each oracle below is the earlier implementation, kept here verbatim so that
the rewritten kernel must reproduce it bit for bit (np.array_equal).
"""

from __future__ import annotations

import contextlib
import io
import itertools

import numpy as np
import pytest

from ak4 import algebra, charts, cli, jets, sandbox, tensorops
from ak4.charts import J_FRAME
from ak4.exprs import eval_jet
from ak4.jets import Jet
from ak4.tensorops import EPS4

from conftest import CATALOG_NAMES, all_points


def old_determinant4(g: Jet) -> Jet:
    det = None
    for c, d in itertools.combinations(range(4), 2):
        comp = [k for k in range(4) if k not in (c, d)]
        sign = EPS4[c, d, comp[0], comp[1]]
        top = g[0, c] * g[1, d] - g[0, d] * g[1, c]
        bot = g[2, comp[0]] * g[3, comp[1]] - g[2, comp[1]] * g[3, comp[0]]
        term = sign * (top * bot)
        det = term if det is None else det + term
    return det


def old_frame_components(values: np.ndarray, frame: np.ndarray) -> np.ndarray:
    out = np.asarray(values)
    for axis in range(out.ndim):
        out = np.moveaxis(np.tensordot(frame, out, axes=([1], [axis])), 0, axis)
    return out


def old_rot(r: np.ndarray, slots: tuple[int, ...]) -> np.ndarray:
    out = r
    for slot in slots:
        axis = out.ndim - 4 + slot
        out = np.moveaxis(np.tensordot(out, J_FRAME, axes=([axis], [0])), -1, axis)
    return out


def metric_jet(spec: charts.ChartSpec, p, order: int) -> Jet:
    rows = [[eval_jet(spec.g[(min(i, j), max(i, j))], p, order) for j in range(4)] for i in range(4)]
    return jets.stack([jets.stack(row) for row in rows])


#: Every slot set `algebra.gray_residuals` rotates.
ROT_SLOTS = [(2, 3), (0, 1), (0, 2), (0, 3), (0, 1, 2, 3)]


class TestDeterminant:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    @pytest.mark.parametrize("order", range(5))
    def test_matches_the_laplace_loop(self, name, order, catalog_specs):
        spec = catalog_specs[name]
        for p in spec.sample_points(3, 17):
            g = metric_jet(spec, p, order)
            got = tensorops.determinant4(g)
            assert got.order == order
            assert np.array_equal(got.c, old_determinant4(g).c)
            assert float(got.value) == pytest.approx(np.linalg.det(g.value), rel=1e-13)


class TestFrameComponents:
    def test_catalog_tensors_match_the_tensordot_loop(self, analyses):
        for _, pa in all_points(analyses):
            frame = pa.sp.frame
            for values in (pa.cd.R.value, pa.cd.ric.value, pa.hfo.nabla_omega.value, pa.hfo.theta.value, pa.cd.s.value):
                assert np.array_equal(tensorops.frame_components(values, frame), old_frame_components(values, frame))

    def test_sandbox_batch_matches_the_tensordot_loop(self):
        batch = sandbox.random_batch(4, 3)  # (4, 4, 4, 4, 4): the batch axis acts as a fifth index
        frame = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))[0]
        for values in (batch, batch[0], batch[0, 0, 0]):
            assert np.array_equal(tensorops.frame_components(values, frame), old_frame_components(values, frame))


class TestRot:
    @pytest.mark.parametrize("slots", ROT_SLOTS)
    def test_catalog_curvature_matches_the_tensordot_loop(self, slots, analyses):
        for _, pa in all_points(analyses):
            assert np.array_equal(algebra._rot(pa.cd.R_frame, slots), old_rot(pa.cd.R_frame, slots))

    @pytest.mark.parametrize("slots", ROT_SLOTS)
    def test_sandbox_batch_matches_the_tensordot_loop(self, slots):
        batch = np.concatenate([sandbox.random_batch(5, 8), sandbox.g2_batch(5, 8)])
        assert np.array_equal(algebra._rot(batch, slots), old_rot(batch, slots))


def test_jet_caches_stay_small_over_the_catalog(monkeypatch):
    """The pipeline meets few shapes, so its caches stay small; a shape that
    leaks into a cache key (a point count, say) would grow them without bound."""
    monkeypatch.setattr(jets, "_PLANS", {})
    monkeypatch.setattr(jets, "_PERMS", {})
    for order in ("2", "3", "4"):
        common = ["--points", "1", "--order", order]
        runs = [["report", "--chart", name, *common] for name in CATALOG_NAMES]
        runs += [["classify", "--chart", "all", *common], ["check", "kappa", "--chart", "all", *common]]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
    assert 0 < len(jets._PLANS) <= 128
    assert 0 < len(jets._PERMS) <= 64
