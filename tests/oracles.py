"""Independent finite-difference oracles used by the test suite.

Everything here goes through plain floating-point evaluation of chart
expressions (exprs.eval_float); the jet pipeline is never called, so
agreement between these oracles and the jet results is a genuine
two-pipeline cross-check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ak4.charts import ChartSpec, _UPPER
from ak4.exprs import eval_float
from ak4.jets import MULTI_INDICES, NCOEF


def first_bianchi_residual(r: np.ndarray) -> np.ndarray:
    cyc = r + np.moveaxis(r, (-3, -2, -1), (-1, -3, -2)) + np.moveaxis(r, (-3, -2, -1), (-2, -1, -3))
    return np.abs(cyc).max(axis=(-4, -3, -2, -1))


# Central stencils: (offsets, weights); accuracy O(h^2) and O(h^4).
STENCILS_ACC2 = {
    0: ((0,), (1.0,)),
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
}
STENCILS_ACC4 = {
    0: ((0,), (1.0,)),
    1: ((-2, -1, 1, 2), (1.0 / 12, -2.0 / 3, 2.0 / 3, -1.0 / 12)),
    2: ((-2, -1, 0, 1, 2), (-1.0 / 12, 4.0 / 3, -5.0 / 2, 4.0 / 3, -1.0 / 12)),
    3: ((-3, -2, -1, 0, 1, 2, 3), (1.0 / 8, -1.0, 13.0 / 8, 0.0, -13.0 / 8, 1.0, -1.0 / 8)),
    4: ((-3, -2, -1, 0, 1, 2, 3), (-1.0 / 6, 2.0, -13.0 / 2, 28.0 / 3, -13.0 / 2, 2.0, -1.0 / 6)),
}


def fd_derivative(f, p, alpha, h, stencils=STENCILS_ACC2) -> float:
    """Mixed partial d^alpha f(p) from tensor-product central stencils."""
    axes = [i for i, a in enumerate(alpha) if a > 0]
    if not axes:
        return f(p)
    grids = [stencils[alpha[i]] for i in axes]
    total = 0.0
    for combo in itertools.product(*[range(len(g[0])) for g in grids]):
        q = list(p)
        w = 1.0
        for axis, idx, (offsets, weights) in zip(axes, combo, grids):
            q[axis] += offsets[idx] * h
            w *= weights[idx]
        total += w * f(q)
    return total / h ** sum(alpha)


def fd_taylor_coefficients(f, p, order: int, h_by_order=None, stencils=STENCILS_ACC4) -> np.ndarray:
    """All Taylor coefficients (derivative / alpha!) up to the given order.

    h_by_order maps the total derivative order to a step size; the defaults
    balance truncation against roundoff for O(1) function scales.
    """
    if h_by_order is None:
        h_by_order = {0: 1.0, 1: 1e-2, 2: 1e-2, 3: 2e-2, 4: 2e-2}
    out = np.empty(NCOEF[order])
    for k, alpha in enumerate(MULTI_INDICES[: NCOEF[order]]):
        deg = sum(alpha)
        fact = 1.0
        for a in alpha:
            fact *= math.factorial(a)
        out[k] = fd_derivative(f, p, alpha, h_by_order[deg], stencils) / fact
    return out


# -- pure finite-difference curvature pipeline -----------------------------------


def metric_at(spec: ChartSpec, p) -> np.ndarray:
    g = np.empty((4, 4))
    for i, j in _UPPER:
        g[i, j] = g[j, i] = eval_float(spec.g[(i, j)], p)
    return g


def j_at(spec: ChartSpec, p) -> np.ndarray:
    return np.array([[eval_float(spec.J[i][j], p) for j in range(4)] for i in range(4)])


def omega_at(spec: ChartSpec, p) -> np.ndarray:
    g = metric_at(spec, p)
    j = j_at(spec, p)
    return np.einsum("ki,kj->ij", j, g)


def fd_christoffel(spec: ChartSpec, p, h: float = 1e-3) -> np.ndarray:
    """Gamma^k_ij from second-order central differences of the metric."""
    dg = np.empty((4, 4, 4))
    for m in range(4):
        qp, qm = list(p), list(p)
        qp[m] += h
        qm[m] -= h
        dg[m] = (metric_at(spec, qp) - metric_at(spec, qm)) / (2.0 * h)
    ginv = np.linalg.inv(metric_at(spec, p))
    sym = np.moveaxis(dg, (0, 1, 2), (1, 0, 2)) + np.moveaxis(dg, (0, 1, 2), (2, 1, 0)) - dg  # [l, i, j]
    return 0.5 * np.einsum("kl,lij->kij", ginv, sym)


def fd_curvature(spec: ChartSpec, p, h: float = 1e-3) -> np.ndarray:
    """Coordinate components R_ijkl from nested finite differences.

    Matches the jet pipeline's sign convention: R(X, Y, X, Y) is the
    sectional curvature.
    """
    d_gamma = np.empty((4, 4, 4, 4))
    for m in range(4):
        qp, qm = list(p), list(p)
        qp[m] += h
        qm[m] -= h
        d_gamma[m] = (fd_christoffel(spec, qp, h) - fd_christoffel(spec, qm, h)) / (2.0 * h)
    gamma = fd_christoffel(spec, p, h)
    gg = np.einsum("lim,mjk->lijk", gamma, gamma)
    comm = (
        np.einsum("iljk->lijk", d_gamma)
        - np.einsum("jlik->lijk", d_gamma)
        + gg
        - np.einsum("ljik->lijk", gg)
    )
    g = metric_at(spec, p)
    return -np.einsum("ml,mijk->ijkl", g, comm)


def fd_d_omega(spec: ChartSpec, p, h: float = 1e-4) -> np.ndarray:
    """(d Omega)_ijk by first-order central differences."""
    d_om = np.empty((4, 4, 4))
    for m in range(4):
        qp, qm = list(p), list(p)
        qp[m] += h
        qm[m] -= h
        d_om[m] = (omega_at(spec, qp) - omega_at(spec, qm)) / (2.0 * h)
    return d_om - np.einsum("jik->ijk", d_om) + np.einsum("kij->ijk", d_om)


def fd_nabla_omega(spec: ChartSpec, p, h: float = 1e-3) -> np.ndarray:
    """(nabla_m Omega)_ij by central differences plus Christoffel corrections."""
    d_om = np.empty((4, 4, 4))
    for m in range(4):
        qp, qm = list(p), list(p)
        qp[m] += h
        qm[m] -= h
        d_om[m] = (omega_at(spec, qp) - omega_at(spec, qm)) / (2.0 * h)
    gamma = fd_christoffel(spec, p, h)
    om = omega_at(spec, p)
    corr = np.einsum("pmi,pj->mij", gamma, om) + np.einsum("pmj,ip->mij", gamma, om)
    return d_om - corr
