"""SO(4) and U(2) decompositions of the curvature operator at a point.

The curvature operator is a symmetric 6x6 matrix on the adapted 2-form
basis (Omega, phi, J phi | anti-self-dual triple). Its star-commuting part
is block diagonal and carries the scalar part and the two Weyl halves; the
star-anti-commuting off-diagonal block is the Kulkarni-Nomizu lift of the
traceless Ricci tensor. The self-dual Weyl block further splits under U(2)
into the kappa line, the Omega-row coupling governed by the 2-form Psi, and
the traceless remainder on the anti-invariant plane.

All matrix norms here are Frobenius norms of operator blocks; multiplying a
squared operator norm by 4 gives the squared full tensor norm of the
corresponding (0,4) tensor.

`decompose` computes the SO(4) split, Ric0 and Ric^anti, which every command
reads, once per batch of points on a leading point axis, and returns one
record per point (see `riemann`). The U(2) blocks (kappa, Psi), star-Ricci
(s*), the residuals that only report rows read and the block norms are
computed for the whole batch on the first read at any point, so
`ak4 classify`, which reads only the split, computes none of them. R(Omega)
in s* is the one step that runs point by point (see `star_ricci`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import algebra, jets
from .charts import FRAME_FORMS, J_FRAME
from .riemann import CurvatureData

#: |Ric^anti| below which the Ricci tensor counts as J-invariant.
J_INVARIANT_RICCI_TOL = 1e-8


def _column(group: str, key):
    """A read-only attribute: the point's entry of column `key` of the batch's `group`."""
    return property(lambda self: getattr(self.batch, group)[key][self.index])


@dataclass
class DecompReport:
    """Full curvature decomposition at one point, with residuals."""

    cd: CurvatureData
    parts: dict[str, np.ndarray]  # algebra.split_operator(cd.operator)
    s: float
    ric0: np.ndarray  # frame components, 4x4
    ric0_anti: np.ndarray
    ric_anti_norm: float
    # operator, parts, s, ric0, ric0_anti (stacked), r_frames
    batch: jets.Batch = field(repr=False)
    index: int

    @property
    def is_j_invariant_ricci(self) -> bool:
        return self.ric_anti_norm < J_INVARIANT_RICCI_TOL

    wplus = _column("parts", "wplus")  # 3x3 blocks on (Omega, phi, Jphi)
    wminus = _column("parts", "wminus")

    # `_u2` and `_star` give whole-batch columns, which only `_column` reads

    @jets.per_batch
    def _u2(batch: jets.Batch) -> dict[str, np.ndarray]:
        """The U(2) blocks of W+, formed for the whole batch."""
        return algebra.u2_blocks(batch.parts["wplus"])

    w1 = _column("_u2", "w1")
    w2 = _column("_u2", "w2")
    w3 = _column("_u2", "w3")
    psi = _column("_u2", "psi")  # components of Psi along (phi, J phi)

    @jets.per_batch
    def kappa(batch: jets.Batch) -> list[float]:
        return batch._u2["kappa"].tolist()

    @jets.per_batch
    def _star(batch: jets.Batch) -> tuple[np.ndarray, list[float], list[float]]:
        """Star-Ricci, s* and the skew residual, formed for the whole batch."""
        ric_star, s_star, residual = star_ricci(batch.r_frames, batch._u2["psi"])
        return ric_star, s_star.tolist(), residual.tolist()

    ric_star = _column("_star", 0)  # 4x4, not assumed symmetric
    s_star = _column("_star", 1)
    star_skew_residual = _column("_star", 2)  # skew(Ric*) vs -(1/2) J Psi

    @jets.per_batch
    def recon_residual(batch: jets.Batch) -> list[float]:
        return np.abs(batch.operator - algebra.join_operator(batch.parts)).max(axis=(1, 2)).tolist()

    @jets.per_batch
    def u2_residual(batch: jets.Batch) -> list[float]:
        u2 = batch._u2
        return np.abs(batch.parts["wplus"] - (u2["w1"] + u2["w2"] + u2["w3"])).max(axis=(1, 2)).tolist()

    @jets.per_batch
    def orthogonality_residual(batch: jets.Batch) -> list[float]:
        """Mutual orthogonality of the seven summands as operators."""
        parts, u2 = batch.parts, batch._u2
        summands = np.zeros((7, len(batch.s), 6, 6))
        summands[0] = (parts["s"] / 12.0)[:, None, None] * np.eye(6)
        # the J-invariant and anti-invariant Ricci parts, lifted in one call
        ric0_parts = np.stack([algebra.j_invariant_part(batch.ric0), batch.ric0_anti])
        summands[1:3] = algebra.operator_matrix(0.5 * algebra.kn_delta(ric0_parts))
        for k, name in enumerate(("w1", "w2", "w3")):
            summands[3 + k, :, :3, :3] = u2[name]
        summands[6, :, 3:, 3:] = parts["wminus"]
        first, second = np.triu_indices(7, 1)
        pairs = np.sum(summands[first] * summands[second], axis=(2, 3))
        return np.fmax.reduce(np.abs(pairs), axis=0, initial=0.0).tolist()

    @jets.per_batch
    def kappa_identity_residual(batch: jets.Batch) -> list[float]:  # kappa - (3 s* - s)/2
        return np.abs(batch._u2["kappa"] - 0.5 * (3.0 * np.array(batch._star[1]) - batch.s)).tolist()

    @jets.per_batch
    def block_norms(batch: jets.Batch) -> list[dict[str, float]]:
        f, parts, u2 = algebra.frobenius, batch.parts, batch._u2
        norms = {
            "ric0": f(batch.ric0),
            "ric0_anti": f(batch.ric0_anti),
            "wplus": f(parts["wplus"]),
            "wminus": f(parts["wminus"]),
            "w1": f(u2["w1"]),
            "w2": f(u2["w2"]),
            "w3": f(u2["w3"]),
        }
        return [dict(zip(norms, point)) for point in zip(*(v.tolist() for v in norms.values()))]


def star_ricci(r_frames: Sequence[np.ndarray], psi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Star-Ricci tensor Ric*(X, Y) = -R(Omega)(JX, Y), its trace, and the
    residual of skew(Ric*) = -(1/2) J Psi at each point, from each point's
    R_frame and the components psi (P, 2) of Psi along (phi, J phi) from
    `algebra.u2_blocks`.

    R(Omega) is contracted one point at a time: einsum sums its 16 terms in
    an order that depends on the operand's shape and strides, and a batched
    einsum or matmul moves the last bit at some points. Every later step sums
    at most one non-zero term, or four in a trace, so it runs batched.
    """
    r_omega = 0.5 * np.stack([np.einsum("ijkl,kl->ij", r, FRAME_FORMS[0]) for r in r_frames])
    ric_star = -np.einsum("ki,...kj->...ij", J_FRAME, r_omega)
    s_star = np.trace(ric_star, axis1=-2, axis2=-1)
    skew = 0.5 * (ric_star - np.swapaxes(ric_star, -1, -2))
    j_psi = -np.einsum("ki,...kj->...ij", J_FRAME, algebra.psi_form(psi))
    residual = np.abs(skew + 0.5 * j_psi).max(axis=(-2, -1))
    return ric_star, s_star, residual


def decompose(cds: Sequence[CurvatureData]) -> list[DecompReport]:
    """The SO(4) split of the curvature operator, the part every command reads,
    formed once over all the points; one record per point."""
    ric0 = np.stack([cd.ric0_frame for cd in cds])
    ric0_anti = algebra.j_anti_part(ric0)
    operator = np.stack([cd.operator for cd in cds])
    parts = algebra.split_operator(operator)
    s = np.array([cd.s_value for cd in cds])
    ric_anti_norm = algebra.frobenius(ric0_anti).tolist()
    batch = jets.Batch(DecompReport, operator=operator, parts=parts, s=s, ric0=ric0, ric0_anti=ric0_anti, r_frames=[cd.R_frame for cd in cds])
    point_parts = [{key: value[k] for key, value in parts.items()} for k in range(len(cds))]
    return [
        DecompReport(cd, point_parts[k], cd.s_value, ric0[k], ric0_anti[k], ric_anti_norm[k], batch, k)
        for k, cd in enumerate(cds)
    ]
