"""Numerical verification engine for four-dimensional almost Hermitian charts.

Evaluates metrics and almost complex structures given as coordinate
expressions, computes curvature decompositions and differential identities
through truncated Taylor jets, and classifies structures against the Gray
curvature conditions.
"""

__version__ = "0.1.0"

from .charts import ChartSpec, StructureBatch, catalog, load_chart, structure_at
from .decomp import DecompBatch, decompose, star_ricci
from .errors import AK4Error, ChartError, DomainError, JetOrderError, ParseError, StructureError
from .exprs import eval_float, eval_jet, parse_expr
from .jets import Jet
from .riemann import (
    ConnectionBatch,
    CurvatureBatch,
    FirstOrderBatch,
    connection,
    curvature,
    hermitian_first_order,
    ricci_identity_check,
)
from .sandbox import curvature_with_blocks

__all__ = [
    "AK4Error",
    "ChartError",
    "ChartSpec",
    "ConnectionBatch",
    "CurvatureBatch",
    "DecompBatch",
    "DomainError",
    "FirstOrderBatch",
    "Jet",
    "JetOrderError",
    "ParseError",
    "StructureBatch",
    "StructureError",
    "catalog",
    "connection",
    "curvature",
    "curvature_with_blocks",
    "decompose",
    "eval_float",
    "eval_jet",
    "hermitian_first_order",
    "load_chart",
    "parse_expr",
    "ricci_identity_check",
    "star_ricci",
    "structure_at",
]
