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

from ak4 import algebra, bianchi_bach, charts, cli, decomp, jets, riemann, sandbox, tensorops
from ak4.charts import FRAME_FORMS, J_FRAME
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
            star = tensorops.star_operator(mu, g_inv)
            full = 0.5 * (c + jets.contract(c, star, (1, 2), (2, 3)))
            low = 0.5 * (c.truncate(0) + jets.contract(c.truncate(0), star.truncate(0), (1, 2), (2, 3)))
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
            for slot in range(rank):
                got, old = riemann.divergence(g_inv, conn.gamma, t, slot), per_slot_divergence(g_inv, conn.gamma, t, slot)
                assert (got.order, got.c.shape, got.c.tobytes()) == (old.order, old.c.shape, old.c.tobytes()), (order, slot)

    @pytest.mark.parametrize(
        ("rank", "order"),
        [
            pytest.param(4, 2, id="weyl-and-halves"),
            pytest.param(3, 1, id="weitzenboeck-forms"),
        ],
    )
    def test_a_stacked_divergence_gives_each_block_its_own_bits(self, rank, order, conn):
        # three tensors stacked on the point axis, as the Weyl tensor and its
        # halves are, or as the Weitzenboeck check's nabla phi and d phi are
        rng = np.random.default_rng(7)
        points, g_inv, gamma = len(conn.gamma.c), conn.structure.g_inv, conn.gamma
        parts = [Jet(order, rng.standard_normal((points,) + (4,) * rank + (jets.NCOEF[order],))) for _ in range(3)]
        stacked = riemann.divergence(jets.concat([g_inv] * 3), jets.concat([gamma] * 3), jets.concat(parts), 0)
        for block, part in zip(jets.split(stacked, 3), parts):
            assert block.c.tobytes() == riemann.divergence(g_inv, gamma, part, 0).c.tobytes()


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


# -- the einsums and dots that the frame-tensor gathers replaced ---------------


def einsum_operator_matrix(r: np.ndarray) -> np.ndarray:
    return np.einsum("...ijkl,aij,bkl->...ab", r, FRAME_FORMS, FRAME_FORMS) / 8.0


def einsum_j_invariant_part(h: np.ndarray) -> np.ndarray:
    return 0.5 * (h + np.einsum("ai,...ab,bj->...ij", J_FRAME, h, J_FRAME))


def dot_rot(r: np.ndarray, slots: tuple[int, ...]) -> np.ndarray:
    """J on each slot in turn, the slot's axis moved last and multiplied by J_FRAME in one np.dot."""
    out = r
    ndim = r.ndim
    for slot in slots:
        axis = ndim - 4 + slot
        rest = out.shape[:axis] + out.shape[axis + 1 :]
        flat = out.transpose((*range(axis), *range(axis + 1, ndim), axis)).reshape(-1, out.shape[axis])
        out = np.dot(flat, J_FRAME).reshape(rest + (4,)).transpose((*range(axis), ndim - 1, *range(axis, ndim - 1)))
    return out


def dot_gray_residuals(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    axes = (-4, -3, -2, -1)
    r0 = dot_rot(r, (0,))
    r01 = dot_rot(r0, (1,))
    g1 = np.abs(r - dot_rot(r, (2, 3))).max(axis=axes)
    g2 = np.abs(r - r01 - dot_rot(r0, (2,)) - dot_rot(r0, (3,))).max(axis=axes)
    g3 = np.abs(r - dot_rot(r01, (2, 3))).max(axis=axes)
    return g1, g2, g3


def einsum_star_ricci(r_frames: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    r_omega = 0.5 * np.stack([np.einsum("ijkl,kl->ij", r, FRAME_FORMS[0]) for r in r_frames])
    ric_star = -np.einsum("ki,...kj->...ij", J_FRAME, r_omega)
    s_star = np.trace(ric_star, axis1=-2, axis2=-1)
    skew = 0.5 * (ric_star - np.swapaxes(ric_star, -1, -2))
    j_psi = -np.einsum("ki,...kj->...ij", J_FRAME, algebra.psi_form(psi))
    return ric_star, s_star, np.abs(skew + 0.5 * j_psi).max(axis=(-2, -1))


def einsum_j_form(alpha: np.ndarray) -> np.ndarray:
    return -np.einsum("...k,ki->...i", alpha, J_FRAME)


def einsum_split_delta_wplus(dwp_frame: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    omega_f, phi_f, jphi_f = FRAME_FORMS[:3]
    eye, jm = np.eye(4), J_FRAME.T
    gamma = np.stack([0.5 * np.einsum("...mij,ij->...m", t3_f, omega_f) for t3_f in dwp_frame])
    alpha = 0.5 * np.einsum("...m,ma->...a", gamma, J_FRAME)
    ja = einsum_j_form(alpha)
    wedge1 = np.einsum("...i,mj->...mij", alpha, eye) - np.einsum("...j,mi->...mij", alpha, eye)
    wedge2 = np.einsum("...i,mj->...mij", ja, jm) - np.einsum("...j,mi->...mij", ja, jm)
    a_part = np.einsum("...m,ij->...mij", ja, omega_f) - 0.5 * (wedge1 - wedge2)
    rem = dwp_frame - a_part
    beta = 0.5 * np.einsum("...m,ma->...a", 0.5 * np.einsum("...mij,ij->...m", rem, phi_f), J_FRAME)
    jb = einsum_j_form(beta)
    b_part = np.einsum("...i,mj->...mij", jb, phi_f) - np.einsum("...j,mi->...mij", jb, phi_f)
    b_part += np.einsum("...i,mj->...mij", beta, jphi_f) - np.einsum("...j,mi->...mij", beta, jphi_f)
    return alpha, beta, np.abs(dwp_frame - a_part - b_part).max(axis=(-3, -2, -1))


def assert_same_bits(got, want) -> None:
    """The same entries, NaN where want is NaN, and the same sign bit on every
    entry that is not NaN, so +0.0 and -0.0 differ."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    number = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[number]), np.signbit(want[number]))


def frame_layout(values: np.ndarray, blocks: int = 1, block: int = 0) -> np.ndarray:
    """A copy of values, a batch on its first axis, in the memory layout that
    `tensorops.frame_components` gives block `block` of `blocks` such batches
    stacked on the point axis: R_frame is the one block of its batch, and a
    report slice's delta W+ is block 2 of 4 (`bianchi_bach._frame_blocks`)."""
    stacked = np.concatenate([values] * blocks)
    out = tensorops.frame_components(stacked, np.broadcast_to(np.eye(4), (len(stacked), 4, 4)))
    out[...] = stacked  # the layout of the frame components, the entries of values, signed zeros included
    return out.reshape(blocks, len(values), *values.shape[1:])[block]


def planted_zeros(shape: tuple[int, ...], seed: int) -> np.ndarray:
    """Normal entries with about a tenth +0.0 and a tenth -0.0."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    u = rng.random(shape)
    x[u < 0.1] = 0.0
    x[(u >= 0.1) & (u < 0.2)] = -0.0
    return x


#: Point counts of the random batches: every count up to 25.
RANDOM_POINTS = range(1, 26)


def random_curvatures() -> list[np.ndarray]:
    """Random (P, 4, 4, 4, 4) batches with planted signed zeros, C-ordered and
    in R_frame's layout, at every P of RANDOM_POINTS."""
    batches = [planted_zeros((p, 4, 4, 4, 4), p) for p in RANDOM_POINTS]
    return batches + [frame_layout(r) for r in batches]


def sandbox_curvatures() -> list[np.ndarray]:
    batch = np.concatenate([sandbox.random_batch(5, 8), sandbox.g1_batch(5, 8), sandbox.g2_batch(5, 8)])
    return [batch, frame_layout(batch)]


@pytest.fixture(scope="module")
def catalog_batches(catalog_specs) -> list[cli.AnalysisBatch]:
    """One order-4 analysis batch of 3 seeded points per catalog chart."""
    return [cli.point_analyses(charts.structure_at([(spec, spec.sample_points(3, 42))], 4))[0].batch for spec in catalog_specs.values()]


class TestFrameTensorGathers:
    """Each contraction with a constant frame tensor is a signed gather with
    the bits of the einsum or np.dot it replaced, on the pipeline's layouts:
    the catalog's own batches, sandbox batches and random ones with signed
    zeros, C-ordered and in the strided layout of frame components."""

    def curvatures(self, analyses, catalog_batches) -> list[np.ndarray]:
        catalog = [batch.cd.R_frame for batch in catalog_batches] + [at(pa, "cd").R_frame for _, pa in all_points(analyses)]
        return catalog + sandbox_curvatures() + random_curvatures()

    def test_operator_matrix(self, analyses, catalog_batches):
        for r in self.curvatures(analyses, catalog_batches):
            assert_same_bits(algebra.operator_matrix(r), einsum_operator_matrix(r))

    def test_gray_residuals(self, analyses, catalog_batches):
        for r in self.curvatures(analyses, catalog_batches):
            for got, want in zip(algebra.gray_residuals(r), dot_gray_residuals(r)):
                assert_same_bits(got, want)

    @pytest.mark.parametrize("slots", ROT_SLOTS + [(0,), (1,), (2,), (3,)])
    def test_rotation_of_a_curvature(self, slots, analyses, catalog_batches):
        for r in self.curvatures(analyses, catalog_batches):
            assert_same_bits(algebra._rot(r, slots), dot_rot(r, slots))

    def test_j_invariant_part(self, catalog_batches):
        values = [planted_zeros((p, 4, 4), p) for p in RANDOM_POINTS]
        values += [batch.dr.ric0 for batch in catalog_batches] + [algebra.ricci_contraction(r) for r in sandbox_curvatures()]
        for h in values + [np.swapaxes(h, -1, -2) for h in values]:
            assert_same_bits(algebra.j_invariant_part(h), einsum_j_invariant_part(h))

    def test_star_ricci(self, catalog_batches):
        """The batched gather keeps the per-point einsum's bits on R_frame's
        layout, where einsum added the four terms in (k, l) order."""
        cases = [(batch.cd.R_frame, batch.dr.psi) for batch in catalog_batches]
        cases += [(r, planted_zeros((len(r), 2), len(r))) for r in random_curvatures()[len(RANDOM_POINTS) :]]
        cases += [(sandbox_curvatures()[1], planted_zeros((15, 2), 15))]
        for r, psi in cases:
            for got, want in zip(decomp.star_ricci(r, psi), einsum_star_ricci(r, psi)):
                assert_same_bits(got, want)

    def test_split_delta_wplus(self, catalog_batches, monkeypatch):
        """On the delta W+ of each report slice, and on random ones in its layout."""
        seen = []
        split = bianchi_bach.split_delta_wplus
        monkeypatch.setattr(bianchi_bach, "split_delta_wplus", lambda dwp: seen.append(dwp) or split(dwp))
        for batch in catalog_batches:
            assert batch.sor
        assert len(seen) == len(catalog_batches)
        seen += [frame_layout(planted_zeros((p, 4, 4, 4), p), 4, 2) for p in RANDOM_POINTS]
        for dwp in seen:
            for got, want in zip(split(dwp), einsum_split_delta_wplus(dwp)):
                assert_same_bits(got, want)

    def test_form_pairing_adds_in_kl_order(self):
        """On R_frame's layout the gather matches the per-point einsum for
        every basis form; the order is fixed, whatever the operand's strides."""
        for r in random_curvatures()[len(RANDOM_POINTS) :]:
            for a in range(6):
                want = 0.5 * np.stack([np.einsum("ijkl,kl->ij", x, FRAME_FORMS[a]) for x in r])
                assert_same_bits(algebra.form_pairing(r, a), want)
                assert_same_bits(algebra.form_pairing(np.ascontiguousarray(r), a), algebra.form_pairing(r, a))

    def test_integer_and_single_precision_input(self):
        """einsum and np.dot with the float64 constants computed in float64
        whatever the input's type; so do the gathers."""
        r = planted_zeros((3, 4, 4, 4, 4), 3)
        for x in (np.rint(4.0 * r).astype(np.int64), r.astype(np.float32)):
            assert_same_bits(algebra.operator_matrix(x), einsum_operator_matrix(x))
            assert_same_bits(algebra._rot(x, (0, 1, 2, 3)), dot_rot(x, (0, 1, 2, 3)))
            assert_same_bits(algebra.j_invariant_part(x[:, 0, 1]), einsum_j_invariant_part(x[:, 0, 1]))
            assert_same_bits(algebra.form_pairing(frame_layout(x), 0), 0.5 * np.stack([np.einsum("ijkl,kl->ij", p, FRAME_FORMS[0]) for p in frame_layout(x)]))

    def test_non_finite_entries_keep_the_einsum_output(self):
        """An inf at point 1, an inf and a nan at point 2: einsum's zero terms
        spread NaN, and the gathers spread it to the same entries. The sign
        of such a NaN is kept where no input is NaN."""
        r = sandbox.random_batch(4, 5).copy()
        r[1, 0, 1, 2, 3] = np.inf
        r[2, 0, 1, 2, 3] = -np.inf
        r[2, 3, 2, 1, 0] = np.nan
        with np.errstate(invalid="ignore"):
            m = algebra.operator_matrix(r)
            assert np.isfinite(m[[0, 3]]).all()
            assert np.isnan(m[1]).sum() == 32 and np.isinf(m[1]).sum() == 4
            assert np.isnan(m[2]).all()
            assert_same_bits(m, einsum_operator_matrix(r))
            assert np.array_equal(np.signbit(m[1]), np.signbit(einsum_operator_matrix(r)[1]))
            for got, want in zip(algebra.gray_residuals(r), dot_gray_residuals(r)):
                assert np.isnan(got[1:3]).all() and np.isfinite(got[[0, 3]]).all()
                assert_same_bits(got, want)
            for slots in ROT_SLOTS:
                got, want = algebra._rot(r, slots), dot_rot(r, slots)
                assert_same_bits(got, want)
                assert np.array_equal(np.signbit(got[1]), np.signbit(want[1]))
            h = r[:, 0, :, 2, :]
            assert_same_bits(algebra.j_invariant_part(h), einsum_j_invariant_part(h))
            r_frame = frame_layout(r)
            for got, want in zip(decomp.star_ricci(r_frame, np.ones((4, 2))), einsum_star_ricci(r_frame, np.ones((4, 2)))):
                assert_same_bits(got, want)
