"""Gegenbauer interpolation, spectral differentiation and quadrature on
Gauss-type nodes, with machine-evaluable exponential-accuracy error bounds.

The quickest tour is demos/ at the repository root; the public surface is
re-exported here.
"""

from .special import (
    GegenbauerParam,
    g_coeff_sequence,
    d_coeff_sequence,
    h_norm,
    total_mass,
)
from .poly import (
    eval_recurrence,
    recurrence_table,
    eval_with_derivative,
    normalized_on_ellipse,
    value_at_one,
)
from .nodes import (
    GAUSS,
    GAUSS_LOBATTO,
    NodeSet,
    gauss_rule,
    closed_form_gauss_rule,
    gauss_nodes,
    gauss_lobatto_nodes,
    barycentric_weights,
)
from .operators import (
    DiffMatrix,
    interpolate,
    diff_matrix,
    differentiate_at_nodes,
    expansion_coeffs,
    truncated_expansion_error,
)
from .bounds import (
    BoundBreakdown,
    PoleOnContourError,
    ellipse_points,
    remainder_exact,
    remainder_bound,
    e_n_metrics,
    quad_bound,
)
from .experiments import (
    ExperimentConfig,
    ExperimentRecord,
    TEST_FUNCTIONS,
    ConfigError,
    DominanceError,
)

__version__ = "0.1.0"

__all__ = [
    "GegenbauerParam", "g_coeff_sequence", "d_coeff_sequence", "h_norm",
    "total_mass",
    "eval_recurrence", "recurrence_table",
    "eval_with_derivative", "normalized_on_ellipse", "value_at_one",
    "GAUSS", "GAUSS_LOBATTO", "NodeSet", "gauss_rule", "closed_form_gauss_rule",
    "gauss_nodes", "gauss_lobatto_nodes", "barycentric_weights",
    "DiffMatrix", "interpolate", "diff_matrix", "differentiate_at_nodes",
    "expansion_coeffs", "truncated_expansion_error",
    "BoundBreakdown", "PoleOnContourError", "ellipse_points",
    "remainder_exact", "remainder_bound", "e_n_metrics", "quad_bound",
    "ExperimentConfig", "ExperimentRecord", "TEST_FUNCTIONS",
    "ConfigError", "DominanceError",
    "__version__",
]
