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
record per point (see `riemann`). The U(2) blocks (kappa, Psi) and star-Ricci (s*) are
computed for the whole batch on the first read at any point, so
`ak4 classify`, which reads only the split, computes none of them. The
residuals of `DecompReport`, which only report rows read, are computed per
point on first read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import algebra, jets
from .charts import FRAME_FORMS, J_FRAME
from .riemann import CurvatureData

#: |Ric^anti| below which the Ricci tensor counts as J-invariant.
J_INVARIANT_RICCI_TOL = 1e-8


def _entry(group: str, key):
    """A read-only attribute: entry `key` of the attribute `group`."""
    return property(lambda self: getattr(self, group)[key])


def _per_point(blocks: dict[str, np.ndarray], n: int) -> list[dict[str, np.ndarray]]:
    """A dict of (n, ...) arrays as one dict of views per point."""
    return [{key: value[k] for key, value in blocks.items()} for k in range(n)]


@dataclass
class DecompReport:
    """Full curvature decomposition at one point, with residuals."""

    cd: CurvatureData
    parts: dict[str, np.ndarray]  # algebra.split_operator(cd.operator)
    s: float
    ric0: np.ndarray  # frame components, 4x4
    ric0_anti: np.ndarray
    ric_anti_norm: float
    batch: jets.Batch = field(repr=False)  # wplus (stacked), r_frames
    index: int

    @property
    def is_j_invariant_ricci(self) -> bool:
        return self.ric_anti_norm < J_INVARIANT_RICCI_TOL

    wplus = _entry("parts", "wplus")  # 3x3 blocks on (Omega, phi, Jphi)
    wminus = _entry("parts", "wminus")

    @jets.per_batch
    def _u2(batch: jets.Batch) -> list[dict[str, np.ndarray]]:
        """The U(2) blocks of W+, formed for the whole batch."""
        return _per_point(algebra.u2_blocks(batch.wplus), len(batch.wplus))

    w1 = _entry("_u2", "w1")
    w2 = _entry("_u2", "w2")
    w3 = _entry("_u2", "w3")
    psi = _entry("_u2", "psi")  # components of Psi along (phi, J phi)

    @cached_property
    def kappa(self) -> float:
        return float(self._u2["kappa"])

    @jets.per_batch
    def _star(batch: jets.Batch) -> list[tuple[np.ndarray, float, float]]:
        """Star-Ricci, s* and the skew residual, formed for the whole batch."""
        ric_star, s_star, residual = star_ricci(batch.r_frames, np.stack([u2["psi"] for u2 in batch._u2]))
        return list(zip(ric_star, s_star.tolist(), residual.tolist()))

    ric_star = _entry("_star", 0)  # 4x4, not assumed symmetric
    s_star = _entry("_star", 1)
    star_skew_residual = _entry("_star", 2)  # skew(Ric*) vs -(1/2) J Psi

    @cached_property
    def recon_residual(self) -> float:
        return float(np.abs(self.cd.operator - algebra.join_operator(self.parts)).max())

    @cached_property
    def u2_residual(self) -> float:
        return float(np.abs(self.wplus - (self.w1 + self.w2 + self.w3)).max())

    @cached_property
    def orthogonality_residual(self) -> float:
        # Mutual orthogonality of the seven summands as operators.
        summands = [float(self.parts["s"]) / 12.0 * np.eye(6)]
        for h in (algebra.j_invariant_part(self.ric0), self.ric0_anti):
            summands.append(algebra.operator_matrix(0.5 * algebra.kn_delta(h)))
        for blk in (self.w1, self.w2, self.w3):
            emb = np.zeros((6, 6))
            emb[:3, :3] = blk
            summands.append(emb)
        emb = np.zeros((6, 6))
        emb[3:, 3:] = self.wminus
        summands.append(emb)
        ortho = 0.0
        for i in range(len(summands)):
            for j in range(i + 1, len(summands)):
                ortho = max(ortho, abs(float(np.sum(summands[i] * summands[j]))))
        return ortho

    @cached_property
    def kappa_identity_residual(self) -> float:  # kappa - (3 s* - s)/2
        return float(abs(self.kappa - 0.5 * (3.0 * self.s_star - self.s)))

    def block_norms(self) -> dict[str, float]:
        f = algebra.frobenius
        return {
            "ric0": float(f(self.ric0)),
            "ric0_anti": float(f(self.ric0_anti)),
            "wplus": float(f(self.wplus)),
            "wminus": float(f(self.wminus)),
            "w1": float(f(self.w1)),
            "w2": float(f(self.w2)),
            "w3": float(f(self.w3)),
        }


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
    parts = algebra.split_operator(np.stack([cd.operator for cd in cds]))
    ric_anti_norm = algebra.frobenius(ric0_anti).tolist()
    batch = jets.Batch(DecompReport, wplus=parts["wplus"], r_frames=[cd.R_frame for cd in cds])
    return [
        DecompReport(cd, point_parts, cd.s_value, ric0[k], ric0_anti[k], ric_anti_norm[k], batch, k)
        for k, (cd, point_parts) in enumerate(zip(cds, _per_point(parts, len(cds))))
    ]
