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
record of the batch (see `riemann`). The U(2) blocks (kappa, Psi),
star-Ricci (s*), the residuals that only report rows read and the block
norms are cached properties, computed for the whole batch on their first
read, so `ak4 classify`, which reads only the split, computes none of them.
No step runs point by point: R(Omega) in s* is one signed gather over the
batch (`algebra.form_pairing`, see `star_ricci`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import algebra
from .charts import J_FRAME
from .riemann import CurvatureBatch

#: |Ric^anti| below which the Ricci tensor counts as J-invariant.
J_INVARIANT_RICCI_TOL = 1e-8


def _column(group: str, key):
    """A read-only attribute: column `key` of the batch's `group`."""
    return property(lambda self: getattr(self, group)[key])


@dataclass
class DecompBatch:
    """Full curvature decomposition at every point of a batch, with residuals."""

    cd: CurvatureBatch
    parts: dict[str, np.ndarray]  # algebra.split_operator(cd.operator)
    ric0: np.ndarray  # frame components, (P, 4, 4)
    ric0_anti: np.ndarray
    ric_anti_norm: np.ndarray

    @functools.cached_property
    def is_j_invariant_ricci(self) -> np.ndarray:
        return self.ric_anti_norm < J_INVARIANT_RICCI_TOL

    wplus = _column("parts", "wplus")  # 3x3 blocks on (Omega, phi, Jphi)
    wminus = _column("parts", "wminus")

    @functools.cached_property
    def _u2(self) -> dict[str, np.ndarray]:
        """The U(2) blocks of W+."""
        return algebra.u2_blocks(self.parts["wplus"])

    w1 = _column("_u2", "w1")
    w2 = _column("_u2", "w2")
    w3 = _column("_u2", "w3")
    psi = _column("_u2", "psi")  # components of Psi along (phi, J phi)
    kappa = _column("_u2", "kappa")

    @functools.cached_property
    def _star(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Star-Ricci, s* and the skew residual."""
        return star_ricci(self.cd.R_frame, self.psi)

    ric_star = _column("_star", 0)  # 4x4, not assumed symmetric
    s_star = _column("_star", 1)
    star_skew_residual = _column("_star", 2)  # skew(Ric*) vs -(1/2) J Psi

    @functools.cached_property
    def recon_residual(self) -> list[float]:
        return np.abs(self.cd.operator - algebra.join_operator(self.parts)).max(axis=(1, 2)).tolist()

    @functools.cached_property
    def u2_residual(self) -> list[float]:
        return np.abs(self.wplus - (self.w1 + self.w2 + self.w3)).max(axis=(1, 2)).tolist()

    @functools.cached_property
    def orthogonality_residual(self) -> list[float]:
        """Mutual orthogonality of the seven summands as operators."""
        summands = np.zeros((7, len(self.ric0), 6, 6))
        summands[0] = (self.parts["s"] / 12.0)[:, None, None] * np.eye(6)
        # the J-invariant and anti-invariant Ricci parts, lifted in one call
        ric0_parts = np.stack([algebra.j_invariant_part(self.ric0), self.ric0_anti])
        summands[1:3] = algebra.operator_matrix(0.5 * algebra.kn_delta(ric0_parts))
        for k, block in enumerate((self.w1, self.w2, self.w3)):
            summands[3 + k, :, :3, :3] = block
        summands[6, :, 3:, 3:] = self.wminus
        first, second = np.triu_indices(7, 1)
        pairs = np.sum(summands[first] * summands[second], axis=(2, 3))
        return np.fmax.reduce(np.abs(pairs), axis=0, initial=0.0).tolist()

    @functools.cached_property
    def kappa_identity_residual(self) -> list[float]:  # kappa - (3 s* - s)/2
        return np.abs(self.kappa - 0.5 * (3.0 * self.s_star - self.cd.s_value)).tolist()

    @functools.cached_property
    def block_norms(self) -> list[dict[str, float]]:
        f = algebra.frobenius
        norms = {
            "ric0": f(self.ric0),
            "ric0_anti": f(self.ric0_anti),
            "wplus": f(self.wplus),
            "wminus": f(self.wminus),
            "w1": f(self.w1),
            "w2": f(self.w2),
            "w3": f(self.w3),
        }
        return [dict(zip(norms, point)) for point in zip(*(v.tolist() for v in norms.values()))]


def star_ricci(r_frames: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Star-Ricci tensor Ric*(X, Y) = -R(Omega)(JX, Y), its trace, and the
    residual of skew(Ric*) = -(1/2) J Psi at each point, from the frame
    components r_frames (P, 4, 4, 4, 4) of R and the components psi (P, 2)
    of Psi along (phi, J phi) from `algebra.u2_blocks`.

    R(Omega) is `algebra.form_pairing` over the whole batch: its four
    non-zero terms in (k, l) order, ((R01 - R10) + R23) - R32, the order the
    per-point einsum it replaces used on the strided R_frame that
    `tensorops.frame_components` returns. Every later step sums at most one
    non-zero term, or four in a trace.
    """
    r_omega = algebra.form_pairing(r_frames, 0)
    ric_star = -np.einsum("ki,...kj->...ij", J_FRAME, r_omega)
    s_star = np.trace(ric_star, axis1=-2, axis2=-1)
    skew = 0.5 * (ric_star - np.swapaxes(ric_star, -1, -2))
    j_psi = -np.einsum("ki,...kj->...ij", J_FRAME, algebra.psi_form(psi))
    residual = np.abs(skew + 0.5 * j_psi).max(axis=(-2, -1))
    return ric_star, s_star, residual


def decompose(cd: CurvatureBatch) -> DecompBatch:
    """The SO(4) split of the curvature operator, the part every command reads,
    at every point of the batch."""
    ric0 = cd.ric0_frame
    ric0_anti = algebra.j_anti_part(ric0)
    return DecompBatch(cd, algebra.split_operator(cd.operator), ric0, ric0_anti, algebra.frobenius(ric0_anti))
