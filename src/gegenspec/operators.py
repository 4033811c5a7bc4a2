"""Barycentric interpolation, differentiation matrices and truncated expansions.

These are the approximation operators whose maximum-norm errors the bounds
module certifies.  The exact interpolation and differentiation errors of a
function with known poles come from Hermite's contour formula
(hermite_interp_error, hermite_diff_error).
"""

import math
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
    "hermite_interp_error",
    "hermite_diff_error",
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
    D = np.divide(b[None, :] / b[:, None], diff, out=diff)
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


def _hermite(nodes, x, diffs, u, poles):
    """N_p u[x_0, ..., x_n, x_p] at each point x_p, N_p the product of row p
    of diffs (omega(x_p), or omega'(x_p) at a node).

    Hermite's formula on the circle |z| = R, which encloses the nodes and
    every pole a of u, gives the divided difference as minus the residues
    of u(z) / (omega(z) (z - x)) at the poles plus the contour integral.
    The residue of a pole with principal part sum_k c_k / (z - a)^k is
    sum_k c_k h_{k-1} / (omega(a) (a - x)), h_k the complete symmetric
    sums of 1 / (y - a) over y in the nodes and x.  The integral is the
    trapezoid rule on 2(n+1) + 32 points with R >= n + 1 (the saddle radius
    for entire u), summed as a power series in x / z.  Every omega ratio is
    a sum of logarithms of the factors x - x_j and z - x_j, so no product
    overflows, and no step subtracts nearly equal numbers: the result keeps
    its relative accuracy far below the rounding floor of the operators.
    """
    hit = np.any(diffs == 0.0, axis=1)            # x_p is a node: zero error
    log_n = np.sum(np.log(np.abs(np.where(diffs == 0.0, 1.0, diffs))), axis=1)
    sign = np.where(np.sum(diffs < 0.0, axis=1) % 2, -1.0, 1.0) * ~hit

    out = np.zeros(len(x), dtype=complex)
    for a, cs in poles:
        to_nodes = 1.0 / (nodes - a)
        to_x = 1.0 / (x - a)
        power_sums = [None] + [np.sum(to_nodes ** i) + to_x ** i
                               for i in range(1, len(cs))]
        h = [np.ones_like(to_x)]
        for k in range(1, len(cs)):
            h.append(sum(power_sums[i] * h[k - i] for i in range(1, k + 1)) / k)
        ratio = sign * np.exp(log_n - np.sum(np.log(a - nodes)))
        out += ratio * to_x * sum(c * hk for c, hk in zip(cs, h))

    n = len(nodes) - 1
    radius = max(n + 1.0, 2.0 * max([1.0] + [abs(a) for a, _ in poles]))
    count = 2 * (n + 1) + 32
    z = radius * np.exp(2j * np.pi * np.arange(count) / count)
    vals = u(z)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"u is not finite on the contour |z| = {radius:g}")
    log_w = -np.sum(np.log(z[:, None] - nodes[None, :]), axis=1)  # log(1 / omega(z))
    shift = float(np.max(log_w.real))
    # moments of z^-k, k < terms: the series in x / z reaches 2^-64
    terms = math.ceil(64.0 * math.log(2.0) / math.log(radius))
    moments = (z[None, :] ** -np.arange(terms)[:, None]) @ (vals * np.exp(log_w - shift))
    out += sign * np.exp(log_n + shift) * np.polyval(moments[::-1] / count, x)
    return out.real


def hermite_interp_error(node_set: NodeSet, u, poles, x) -> np.ndarray:
    """u(x) - p(x) at the points x in [-1, 1], p the interpolant of u on
    node_set.

    poles lists u's principal parts ((a, (c_1, c_2, ...)), ...), the terms
    c_k / (z - a)^k; u must be analytic elsewhere and accept complex arrays.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(np.abs(xs) <= 1.0):
        raise ValueError("x must lie in [-1, 1]")
    return _hermite(node_set.nodes, xs, xs[:, None] - node_set.nodes[None, :], u, poles)


def hermite_diff_error(node_set: NodeSet, u, poles) -> np.ndarray:
    """u'(x_j) - p'(x_j) at every node x_j: omega'(x_j) u[x_0, ..., x_n, x_j].

    poles as in hermite_interp_error.
    """
    xs = node_set.nodes
    diffs = xs[:, None] - xs[None, :]
    np.fill_diagonal(diffs, 1.0)
    return _hermite(xs, xs, diffs, u, poles)
