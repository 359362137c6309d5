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

from ak4 import algebra, bianchi_bach, charts, cli, jets, riemann, sandbox, tensorops
from ak4.charts import J_FRAME
from ak4.jets import Jet
from ak4.tensorops import EPS4

from conftest import CATALOG_NAMES, all_points, at, divergence, expr_jet, point_analysis, stack, structure_point


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
    rows = [[expr_jet(spec.g[(min(i, j), max(i, j))], p, order) for j in range(4)] for i in range(4)]
    return stack([stack(row) for row in rows])


def old_random_polynomial_2form(sp, seed: int) -> Jet:
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x2F]))
    order = min(sp.order, charts.J_SIDE_ORDER)
    x1, x2, x3, x4 = (Jet.coordinate(i, sp.point, order) for i in range(4))
    entries = [[None] * 4 for _ in range(4)]
    zero = Jet.constant(0.0, order)
    for i in range(4):
        entries[i][i] = zero
        for j in range(i + 1, 4):
            c = [float(f"{v:.6f}") for v in rng.uniform(-1.0, 1.0, size=9)]
            val = (
                Jet.constant(c[0], order)
                + c[1] * x1
                + c[2] * x2
                + c[3] * x3
                + c[4] * x4
                + c[5] * x1 * x3
                + c[6] * x2**2
                + c[7] * x4 * x1
                + c[8] * x3**2
            )
            entries[i][j] = val
            entries[j][i] = -val
    return stack([stack(row) for row in entries])


def old_weyl(pa: cli.PointAnalysis) -> Jet:
    """The Weyl tensor of the batch of `pa` with the Kulkarni-Nomizu square
    of g taken at g's full order; each subtraction is written as the earlier
    `Jet.__sub__` did it."""
    g, cd = pa.batch.structure.g, pa.batch.cd
    scalar_part = jets.outer(cd.s / 24.0, tensorops.kn_jet(g, g))
    ric0_part = 0.5 * tensorops.kn_jet(cd.ric0, g)
    return cd.R + (-scalar_part) + (-ric0_part)


def _jets_on(obj, seen: set):
    """Every Jet reachable from obj through ak4 records, cached stages included."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, Jet):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _jets_on(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _jets_on(item, seen)
    elif type(obj).__module__.startswith("ak4."):
        for item in vars(obj).values():
            yield from _jets_on(item, seen)


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
            frame = at(pa, "structure").frame
            for values in (at(pa, "cd").R.value, at(pa, "cd").ric.value, at(pa, "conn").nabla_omega.value, at(pa, "hfo").theta.value, at(pa, "cd").s.value):
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
            assert np.array_equal(algebra._rot(at(pa, "cd").R_frame, slots), old_rot(at(pa, "cd").R_frame, slots))

    @pytest.mark.parametrize("slots", ROT_SLOTS)
    def test_sandbox_batch_matches_the_tensordot_loop(self, slots):
        batch = np.concatenate([sandbox.random_batch(5, 8), sandbox.g2_batch(5, 8)])
        assert np.array_equal(algebra._rot(batch, slots), old_rot(batch, slots))


def test_jet_caches_stay_small_over_the_catalog(monkeypatch):
    """The pipeline meets few shapes, so its caches stay small; a shape that
    leaks into a cache key (a point count, say) would grow them without bound.
    The same commands at another point count add no key."""
    monkeypatch.setattr(jets, "_PLANS", {})
    monkeypatch.setattr(jets, "_PERMS", {})
    sizes = []
    for points in ("1", "3"):
        for order in ("2", "3", "4"):
            common = ["--points", points, "--order", order]
            runs = [["report", "--chart", name, *common] for name in CATALOG_NAMES]
            runs += [["classify", "--chart", "all", *common], ["check", "kappa", "--chart", "all", *common]]
            for argv in runs:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0, argv
        sizes.append((len(jets._PLANS), len(jets._PERMS)))
    assert sizes[0] == sizes[1]
    assert 0 < len(jets._PLANS) <= 128
    assert 0 < len(jets._PERMS) <= 64


class TestJetKernels:
    @pytest.mark.parametrize("order", range(1, 5))
    def test_partials_match_a_stack_of_partial(self, order, analyses):
        for _, pa in all_points(analyses):
            for j in (at(pa, "structure").g, at(pa, "structure").omega, at(pa, "conn").gamma, at(pa, "cd").R, at(pa, "structure").g[0, 1]):
                if j.order >= order:
                    j = j.truncate(order)
                    got = jets.partials(j[None])[0]
                    old = stack([j.partial(m) for m in range(4)])
                    assert got.order == old.order and got.c.flags.c_contiguous
                    assert np.array_equal(got.c, old.c)

    def test_partials_of_an_order_0_jet_raise(self):
        with pytest.raises(jets.JetOrderError):
            jets.partials(Jet.constant(np.eye(4)[None], 0))

    def test_subtraction_matches_adding_the_negation(self, analyses):
        rng = np.random.default_rng(7)
        for _, pa in all_points(analyses):
            a, b = at(pa, "cd").R, jets.moveaxis(pa.batch.cd.R, 0, 2)[pa.index]
            for other in (b, b.truncate(1), at(pa, "cd").weyl):
                assert np.array_equal((a - other).c, (a + (-other)).c)
            scalar = rng.standard_normal((4, 4, 4, 4))
            assert np.array_equal((a - scalar).c, (a + (-scalar)).c)
            assert np.array_equal((a - 0.3).c, (a + (-0.3)).c)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_stacked_random_2form_matches_the_per_entry_builder(self, order, catalog_specs):
        for spec in catalog_specs.values():
            for p in spec.sample_points(2, 5):
                sp = structure_point(spec, p, order)
                for seed in (0, 42, 2024):
                    [got] = bianchi_bach.random_polynomial_2form([sp.point], sp.order, seed)
                    old = old_random_polynomial_2form(sp, seed)
                    assert got.order == old.order
                    assert np.array_equal(got.c, old.c)

    def test_weyl_from_g_at_curvature_order_matches_full_order_g(self, analyses):
        for _, pa in all_points(analyses):
            assert pa.batch.cd.R.order == 2
            assert np.array_equal(pa.batch.cd.weyl.c, old_weyl(pa).c)

    def test_cached_nabla_omega_matches_fresh_covariant_derivatives(self, analyses):
        for _, pa in all_points(analyses):
            conn = pa.batch.conn
            fresh = riemann.covd(conn.gamma, pa.batch.structure.omega)
            assert np.array_equal(conn.nabla_omega.c, fresh.c)
            assert np.array_equal(conn.nabla2_omega.c, riemann.covd(conn.gamma, fresh).c)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_inverse_metric_at_one_order_less_matches_the_full_inverse(self, order, catalog_specs):
        for spec in catalog_specs.values():
            for p in spec.sample_points(2, 9):
                sp = structure_point(spec, p, order)
                full = tensorops.matrix_inverse(sp.g[None])[0]
                assert sp.g_inv.order == order - 1
                assert np.array_equal(sp.g_inv.c, full.c[..., : jets.NCOEF[order - 1]])

    def test_value_only_terms_match_their_full_order_values(self, analyses):
        """C+ and W(phi) are read as values; order-0 inputs give the same bits."""
        for _, pa in all_points(analyses):
            structure, cd = pa.batch.structure, pa.batch.cd
            g_inv, mu, c = tensorops.matrix_inverse(structure.g), structure.mu, bianchi_bach.cotton_york(cd)
            full = tensorops.dual_projection(c, g_inv, mu, 1.0, (1, 2))
            low = tensorops.dual_projection(c.truncate(0), g_inv.truncate(0), mu.truncate(0), 1.0, (1, 2))
            assert np.array_equal(full.value, low.value)
            for phi in (structure.omega, bianchi_bach.random_polynomial_2form(structure.points, structure.order, 42)):
                full = tensorops.form_inner(cd.weyl, phi, g_inv, (2, 3))
                low = tensorops.form_inner(cd.weyl.truncate(0), phi.truncate(0), g_inv.truncate(0), (2, 3))
                assert np.array_equal(full.value, low.value)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_every_jet_the_kernels_build_is_well_formed(self, order, catalog_specs, monkeypatch):
        """`Jet._of` skips the checks of `Jet.__init__`; every jet built or
        stored during a full analysis must still pass them."""
        built = []
        unchecked = Jet._of.__func__

        def recording(cls, o, c):
            built.append((o, c))
            return unchecked(cls, o, c)

        monkeypatch.setattr(Jet, "_of", classmethod(recording))
        stored = []
        for spec in catalog_specs.values():
            pa = point_analysis(spec, spec.sample_points(1, 11)[0], order=order)
            for ident in cli.IDENTITIES:
                if ident.order <= order and any(ident.applies(pa.batch)):
                    ident.residual(pa.batch)
            assert at(pa, "gr").mu_max >= at(pa, "gr").mu_min
            stored += list(_jets_on(pa, set()))
        assert len(built) > 1000 and len(stored) > 20
        for o, c in built + [(j.order, j.c) for j in stored]:
            assert isinstance(c, np.ndarray) and c.dtype == np.float64
            assert 0 <= o <= jets.MAX_ORDER and c.shape[-1] == jets.NCOEF[o]


def old_divergence(conn: riemann.ConnectionBatch, t: Jet, slot: int) -> Jet:
    """The divergence at the first point of `conn` as it was taken before
    `divergence`: form nabla t, then trace it, on a batch of that point alone."""
    nabla_t = riemann.covd(conn.gamma[:1], t[None])
    return -riemann.neg_trace(conn.structure.g_inv[:1], jets.moveaxis(nabla_t, slot + 1, 1))[0]


def per_slot_covd(gamma: Jet, t: Jet) -> Jet:
    """`riemann.covd` with one contraction per slot, before the slots were stacked."""
    out = jets.partials(t)
    low = min(out.order, gamma.order)
    gamma, t = gamma.truncate(low), t.truncate(low)
    for a in range(t.c.ndim - 2):
        term = jets.contract(gamma, jets.moveaxis(t, a, 0), 0, 0)  # (m, q, rest)
        out = out - jets.moveaxis(term, 1, a + 1)
    return out


def per_slot_divergence(g_inv: Jet, gamma: Jet, t: Jet, slot: int) -> Jet:
    """`riemann.divergence` with one contraction per slot other than `slot`,
    before those slots were stacked."""
    out = jets.contract(g_inv, jets.partials(t), (0, 1), (0, slot + 1))
    low = t.truncate(out.order)
    g_low, gamma_low = g_inv.truncate(out.order), gamma.truncate(out.order)
    trace, raised = jets.contract(g_low, gamma_low, (0, 1), (1, 2)), jets.contract(g_low, gamma_low, 0, 1)
    out = out - jets.contract(trace, low, 0, slot)
    for a in range(t.c.ndim - 2):
        if a != slot:
            term = jets.contract(raised, low, (0, 1), (slot, a))  # (c, other slots)
            out = out - jets.moveaxis(term, 0, a if a < slot else a - 1)
    return out


class TestStackedSlots:
    """`covd` and `divergence` stack their per-slot contractions on the point
    axis; each gives the bits of the per-slot loop, the sign of zero included."""

    @pytest.fixture(scope="class")
    def conn(self, catalog_specs):
        batches = [(spec, spec.sample_points(2, 13)) for spec in catalog_specs.values()]
        return riemann.connection(charts.structure_at(batches, 4))

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_covd_matches_the_per_slot_loop(self, rank, conn):
        rng = np.random.default_rng(rank)
        points = len(conn.gamma.c)
        for order in (1, 2, 3, 4):
            t = Jet(order, rng.standard_normal((points,) + (4,) * rank + (jets.NCOEF[order],)))
            got, old = riemann.covd(conn.gamma, t), per_slot_covd(conn.gamma, t)
            assert (got.order, got.c.shape, got.c.tobytes()) == (old.order, old.c.shape, old.c.tobytes()), order

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_divergence_matches_the_per_slot_loop_at_every_slot(self, rank, conn):
        rng = np.random.default_rng(10 + rank)
        points, g_inv = len(conn.gamma.c), conn.structure.g_inv
        for order in (1, 2, 3):
            t = Jet(order, rng.standard_normal((points,) + (4,) * rank + (jets.NCOEF[order],)))
            terms: dict = {}
            for slot in range(rank):
                got, old = riemann.divergence(g_inv, conn.gamma, terms, t, slot), per_slot_divergence(g_inv, conn.gamma, t, slot)
                assert (got.order, got.c.shape, got.c.tobytes()) == (old.order, old.c.shape, old.c.tobytes()), (order, slot)

    def test_a_stacked_divergence_gives_each_block_its_own_bits(self, conn):
        # three tensors stacked on the point axis, as the Weyl tensor and its halves are
        rng = np.random.default_rng(7)
        points, g_inv, gamma = len(conn.gamma.c), conn.structure.g_inv, conn.gamma
        parts = [Jet(2, rng.standard_normal((points, 4, 4, 4, 4, jets.NCOEF[2]))) for _ in range(3)]
        stacked = riemann.divergence(jets.concat([g_inv] * 3), jets.concat([gamma] * 3), {}, jets.concat(parts), 0)
        for block, part in zip(jets.split(stacked, 3), parts):
            assert block.c.tobytes() == riemann.divergence(g_inv, gamma, {}, part, 0).c.tobytes()


class TestDivergence:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_matches_the_trace_of_the_covariant_derivative(self, rank, analyses):
        rng = np.random.default_rng(rank)
        for name in CATALOG_NAMES:
            conn = analyses[name][0].batch.conn
            for order in (1, 2, 3):
                t = Jet(order, rng.standard_normal((4,) * rank + (jets.NCOEF[order],)))
                for slot in range(rank):
                    got, old = divergence(conn, t, slot), old_divergence(conn, t, slot)
                    assert got.order == old.order == order - 1 and got.shape == old.shape == (4,) * (rank - 1)
                    assert np.abs(got.c - old.c).max() <= 1e-13 * np.abs(old.c).max(), (name, order, slot)

    @pytest.mark.parametrize("name", ["product-surfaces", "kodaira-thurston"])
    def test_report_never_differentiates_a_rank_4_tensor(self, name, monkeypatch):
        """No reader forms nabla W: every delta is a divergence taken without nabla t."""
        ranks = []
        covd = riemann.covd

        def recording(gamma, t):
            ranks.append(t.c.ndim - 2)
            return covd(gamma, t)

        monkeypatch.setattr(riemann, "covd", recording)
        doc, code = cli.run_report(cli.RunConfig(chart=name, points=1))
        assert code == 0 and "bach direct vs plus" in doc["points"][0]["second_order"]
        assert ranks and max(ranks) == 3

    def test_weyl_halves_from_the_shared_star_match_the_projection_bit_for_bit(self, analyses):
        for _, pa in all_points(analyses):
            sp, cd = pa.batch.structure, pa.batch.cd
            for sign, half in ((1.0, cd.weyl_plus), (-1.0, cd.weyl_minus)):
                first = tensorops.dual_projection(cd.weyl, sp.g_inv, sp.mu, sign, (0, 1))
                assert np.array_equal(half.c, tensorops.dual_projection(first, sp.g_inv, sp.mu, sign, (2, 3)).c)
