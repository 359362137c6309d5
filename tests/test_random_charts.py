"""End-to-end property: every unconditional identity holds on random charts.

Conformal deformations of the flat chart keep the standard complex structure
orthogonal, so each draw is a genuine (generally non-Kahler) Hermitian
structure with a fully generic Lee form; all hypothesis-free identities in
the report table must hold on every one of them.
"""

from __future__ import annotations

import numpy as np

from ak4 import charts, cli
from conftest import at, point_analysis

_J_STD = {f"{i}_{k}": "0" for i in range(1, 5) for k in range(1, 5)}
_J_STD.update({"2_1": "1", "1_2": "-1", "4_3": "1", "3_4": "-1"})


def conformal_chart(seed: int) -> charts.ChartSpec:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF0]))
    c = rng.uniform(-0.25, 0.25, 8)
    u = (
        f"({c[0]:.4f})*x1 + ({c[1]:.4f})*x2^2 + ({c[2]:.4f})*x3*x4 + ({c[3]:.4f})*sin(x1 + x4)"
        f" + ({c[4]:.4f})*x2*x3 + ({c[5]:.4f})*cos(x2) + ({c[6]:.4f})*x4^2 + ({c[7]:.4f})*x1*x2"
    )
    f2 = f"exp(2*({u}))"
    g = {"11": f2, "22": f2, "33": f2, "44": f2, "12": "0", "13": "0", "14": "0", "23": "0", "24": "0", "34": "0"}
    return charts.chart_from_dict(
        {
            "name": f"conformal-{seed}",
            "coords": ["x1", "x2", "x3", "x4"],
            "domain": [[-0.5, 0.5]] * 4,
            "g": g,
            "J": _J_STD,
            "tags": ["conformally-flat", "hermitian"],
        }
    )


def test_unconditional_identities_on_random_hermitian_charts():
    failures = []
    saw_nonzero_lee_form = False
    for seed in (3, 17):
        spec = conformal_chart(seed)
        for p in spec.sample_points(2, seed):
            pa = point_analysis(spec, p, order=4, seed=1)
            saw_nonzero_lee_form |= at(pa, "hfo").theta_norm > 1e-3
            [rows] = cli._identity_rows(pa.batch, 1.0)
            for row in rows:
                if not row["pass"]:
                    failures.append((spec.name, row["name"], row["residual"]))
    assert not failures, failures
    assert saw_nonzero_lee_form  # the draws genuinely leave the almost Kahler class
