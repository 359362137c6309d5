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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .charts import FRAME_FORMS, J_FRAME
from .riemann import CurvatureData

#: |Ric^anti| below which the Ricci tensor counts as J-invariant.
J_INVARIANT_RICCI_TOL = 1e-8


@dataclass
class DecompReport:
    """Full curvature decomposition at one point, with residuals."""

    s: float
    ric0: np.ndarray  # frame components, 4x4
    ric0_anti: np.ndarray
    wplus: np.ndarray  # 3x3 blocks on (Omega, phi, Jphi)
    wminus: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    kappa: float
    ric_star: np.ndarray  # 4x4, not assumed symmetric
    s_star: float
    psi: np.ndarray  # components of Psi along (phi, J phi)
    recon_residual: float
    u2_residual: float
    orthogonality_residual: float
    kappa_identity_residual: float  # kappa - (3 s* - s)/2
    star_skew_residual: float  # skew(Ric*) vs -(1/2) J Psi
    ric_anti_norm: float

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
    """Full SO(4) + U(2) decomposition with every derived scalar and residual."""
    m = cd.operator
    parts = algebra.split_operator(m)
    s_op = float(parts["s"])
    wplus, wminus = parts["wplus"], parts["wminus"]
    blocks = algebra.u2_blocks(wplus)
    w1, w2, w3, psi = blocks["w1"], blocks["w2"], blocks["w3"], blocks["psi"]
    kappa = float(blocks["kappa"])
    ric0 = cd.ric0_frame
    ric0_anti = algebra.j_anti_part(ric0)

    recon_residual = float(np.abs(m - algebra.join_operator(parts)).max())

    u2_residual = float(np.abs(wplus - (w1 + w2 + w3)).max())

    # Mutual orthogonality of the seven summands as operators.
    summands = [s_op / 12.0 * np.eye(6)]
    for h in (algebra.j_invariant_part(ric0), ric0_anti):
        summands.append(algebra.operator_matrix(0.5 * algebra.kn_delta(h)))
    for blk in (w1, w2, w3):
        emb = np.zeros((6, 6))
        emb[:3, :3] = blk
        summands.append(emb)
    emb = np.zeros((6, 6))
    emb[3:, 3:] = wminus
    summands.append(emb)
    ortho = 0.0
    for i in range(len(summands)):
        for j in range(i + 1, len(summands)):
            ortho = max(ortho, abs(float(np.sum(summands[i] * summands[j]))))

    ric_star, s_star, star_skew_residual = star_ricci(cd, psi)
    kappa_identity_residual = float(abs(kappa - 0.5 * (3.0 * s_star - cd.s_value)))

    return DecompReport(
        s=cd.s_value,
        ric0=ric0,
        ric0_anti=ric0_anti,
        wplus=wplus,
        wminus=wminus,
        w1=w1,
        w2=w2,
        w3=w3,
        kappa=kappa,
        ric_star=ric_star,
        s_star=s_star,
        psi=psi,
        recon_residual=recon_residual,
        u2_residual=u2_residual,
        orthogonality_residual=ortho,
        kappa_identity_residual=kappa_identity_residual,
        star_skew_residual=star_skew_residual,
        ric_anti_norm=float(algebra.frobenius(ric0_anti)),
    )
