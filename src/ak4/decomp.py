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

`decompose` computes the SO(4) split, which every command reads. The U(2)
blocks, star-Ricci and every residual of `DecompReport` are computed on first
read, so `ak4 classify`, which reads only the split, computes none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import algebra
from .charts import FRAME_FORMS, J_FRAME
from .riemann import CurvatureData

#: |Ric^anti| below which the Ricci tensor counts as J-invariant.
J_INVARIANT_RICCI_TOL = 1e-8


def _entry(group: str, key):
    """A read-only attribute: entry `key` of the attribute `group`."""
    return property(lambda self: getattr(self, group)[key])


@dataclass
class DecompReport:
    """Full curvature decomposition at one point, with residuals."""

    cd: CurvatureData
    parts: dict[str, np.ndarray]  # algebra.split_operator(cd.operator)
    s: float
    ric0: np.ndarray  # frame components, 4x4
    ric0_anti: np.ndarray
    ric_anti_norm: float

    @property
    def is_j_invariant_ricci(self) -> bool:
        return self.ric_anti_norm < J_INVARIANT_RICCI_TOL

    wplus = _entry("parts", "wplus")  # 3x3 blocks on (Omega, phi, Jphi)
    wminus = _entry("parts", "wminus")

    @cached_property
    def _u2(self) -> dict[str, np.ndarray]:
        return algebra.u2_blocks(self.wplus)

    w1 = _entry("_u2", "w1")
    w2 = _entry("_u2", "w2")
    w3 = _entry("_u2", "w3")
    psi = _entry("_u2", "psi")  # components of Psi along (phi, J phi)

    @cached_property
    def kappa(self) -> float:
        return float(self._u2["kappa"])

    @cached_property
    def _star(self) -> tuple[np.ndarray, float, float]:
        return star_ricci(self.cd, self.psi)

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


def star_ricci(cd: CurvatureData, psi: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Star-Ricci tensor Ric*(X, Y) = -R(Omega)(JX, Y), its trace, and the
    residual of skew(Ric*) = -(1/2) J Psi, for the components psi of Psi
    along (phi, J phi) from `algebra.u2_blocks`."""
    r_omega = 0.5 * np.einsum("ijkl,kl->ij", cd.R_frame, FRAME_FORMS[0])
    ric_star = -np.einsum("ki,kj->ij", J_FRAME, r_omega)
    s_star = float(np.trace(ric_star))
    skew = 0.5 * (ric_star - ric_star.T)
    j_psi = -np.einsum("ki,kj->ij", J_FRAME, algebra.psi_form(psi))
    residual = float(np.abs(skew + 0.5 * j_psi).max())
    return ric_star, s_star, residual


def decompose(cd: CurvatureData) -> DecompReport:
    """The SO(4) split of the curvature operator, the part every command reads."""
    ric0 = cd.ric0_frame
    ric0_anti = algebra.j_anti_part(ric0)
    return DecompReport(
        cd=cd,
        parts=algebra.split_operator(cd.operator),
        s=cd.s_value,
        ric0=ric0,
        ric0_anti=ric0_anti,
        ric_anti_norm=float(algebra.frobenius(ric0_anti)),
    )
