"""Barycentric interpolation, differentiation matrices and truncated expansions.

These are the approximation operators whose maximum-norm errors the bounds
module certifies.
"""

from dataclasses import dataclass

import numpy as np

from .nodes import NodeSet, gauss_nodes
from .poly import recurrence_table
from .special import as_param, h_norm

__all__ = [
    "GRID_SIZE",
    "DiffMatrix",
    "interpolate",
    "diff_matrix",
    "differentiate_at_nodes",
    "expansion_coeffs",
    "truncated_expansion_error",
]

# points of the uniform grid on [-1, 1] where max-norm errors are measured
GRID_SIZE = 2001


@dataclass(frozen=True)
class DiffMatrix:
    """Differentiation matrix: entry [j, k] is the derivative of the k-th
    Lagrange basis polynomial at node j.  Row sums vanish by construction."""

    node_set: NodeSet
    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)


def interpolate(node_set: NodeSet, values, x):
    """Evaluate the polynomial interpolant of (nodes, values) at x.

    Second barycentric formula with an exact short-circuit when x coincides
    with a node; x may be a scalar or an array.
    """
    vals = np.asarray(values, dtype=float)
    if len(vals) != node_set.n + 1:
        raise ValueError("values must have one entry per node")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    scalar = np.ndim(x) == 0
    diff = xs[None, :] - node_set.nodes[:, None]
    hit_rows, hit_cols = np.nonzero(diff == 0.0)
    diff[hit_rows, hit_cols] = 1.0
    terms = node_set.bary_weights[:, None] / diff
    out = (vals @ terms) / np.sum(terms, axis=0)
    if hit_rows.size:
        out[hit_cols] = vals[hit_rows]
    return float(out[0]) if scalar else out


def diff_matrix(node_set: NodeSet) -> DiffMatrix:
    """First-derivative matrix on the node set.

    Off-diagonal entries (b_k/b_j)/(x_j - x_k); diagonal by the negative-sum
    trick, which enforces exact annihilation of constants.
    """
    x = node_set.nodes
    b = node_set.bary_weights
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    D = (b[None, :] / b[:, None]) / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -np.sum(D, axis=1))
    return DiffMatrix(node_set, D)


def differentiate_at_nodes(node_set: NodeSet, values) -> np.ndarray:
    """Derivative of the interpolant at the nodes: the matrix-vector product."""
    vals = np.asarray(values, dtype=float)
    if len(vals) != node_set.n + 1:
        raise ValueError("values must have one entry per node")
    return diff_matrix(node_set).entries @ vals


def expansion_coeffs(param, u, n: int) -> np.ndarray:
    """Coefficients of u in the orthogonal family, degrees 0..n.

    Each coefficient is the weighted projection integral divided by the
    squared norm, computed with an internal Gauss rule of 2(n+1) points so
    that aliasing stays at machine level for the decay checks downstream.
    """
    p = as_param(param)
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    rule = gauss_nodes(p, 2 * n + 1)            # 2(n+1) points
    table = recurrence_table(p, n, rule.nodes)
    weighted = rule.quad_weights * np.asarray(u(rule.nodes), dtype=float)
    norms = np.array([h_norm(p, m) for m in range(n + 1)])
    return (table @ weighted) / norms


def truncated_expansion_error(param, u, n: int, grid_size: int = GRID_SIZE) -> float:
    """Max over a uniform grid of |truncated expansion of u - u|."""
    p = as_param(param)
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    coeffs = expansion_coeffs(p, u, n)
    xs = np.linspace(-1.0, 1.0, grid_size)
    table = recurrence_table(p, n, xs)
    return float(np.max(np.abs(coeffs @ table - u(xs))))
