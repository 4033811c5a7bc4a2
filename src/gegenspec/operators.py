"""Barycentric interpolation, differentiation matrices and truncated expansions.

These are the approximation operators whose maximum-norm errors the bounds
module certifies.  The exact errors of a function with known poles come from
Cauchy's formula in double precision: Hermite's contour formula for
interpolation and differentiation (hermite_interp_error, hermite_diff_error)
and the second-kind-function kernel for the truncated expansion
(exact_expansion_error).
"""

import math
from dataclasses import dataclass

import numpy as np

from .nodes import NodeSet, _lagrange_matrix, gauss_nodes
from .poly import GRID_SIZE, recurrence_table, second_kind_sweep
from .special import as_param, h_norm

__all__ = [
    "GRID_SIZE",
    "DiffMatrix",
    "interpolate",
    "diff_matrix",
    "differentiate_at_nodes",
    "expansion_coeffs",
    "truncated_expansion_error",
    "exact_expansion_error",
    "hermite_interp_error",
    "hermite_diff_error",
]


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

    The values times the Lagrange basis matrix (second barycentric form), so
    an x that coincides with a node returns that node's value exactly; x may
    be a scalar or an array.
    """
    vals = np.asarray(values, dtype=float)
    if len(vals) != node_set.n + 1:
        raise ValueError("values must have one entry per node")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = vals @ _lagrange_matrix(node_set.nodes, node_set.bary_weights, xs)
    return float(out[0]) if np.ndim(x) == 0 else out


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


def truncated_expansion_error(param, u, n: int) -> float:
    """Max over the uniform GRID_SIZE grid of |truncated expansion of u - u|."""
    p = as_param(param)
    coeffs = expansion_coeffs(p, u, n)
    xs = np.linspace(-1.0, 1.0, GRID_SIZE)
    table = recurrence_table(p, n, xs)
    return float(np.max(np.abs(coeffs @ table - u(xs))))


# Node-polynomial products are rescaled after every _BLOCK factors.  A factor
# x - x_j with x, x_j in [-1, 1] is at most 2 in modulus, so a block takes a
# mantissa in [1/2, 1) to at most 2^32; no 32 node gaps multiply to below
# about 1e-160 for n <= 10^4 (measured for lam from -0.49 to 7.7), far above
# the least normal double 2.2e-308; only a point x within about 1e-140 of a
# node, but not on it, can take a block product below it, where its error
# is itself near or below that floor.  A contour factor (z - x_j) / R lies
# within 1 +- 1/R in modulus.
_BLOCK = 32


def _rescale(m, expo):
    """(m 2^-k, expo + k), k the binary exponent of |m|: the same value
    m 2^expo with |m| in [1/2, 1), or m = 0 and expo unchanged.  k stops at
    that of the least normal double, so a subnormal m scales by a finite
    2^1021 and stays below 1/2."""
    k = np.maximum(np.frexp(np.abs(m))[1], -1021)
    return m * np.ldexp(1.0, -k), expo + k


def _product(x, nodes, radius=None, at_nodes=False):
    """The product over the nodes x_j of the factors x - x_j, or (x - x_j) / R
    with radius R, at each point x as (m, expo), product = m 2^expo.  The
    factors of _BLOCK nodes are formed, multiplied in and rescaled one block
    at a time, so at most _BLOCK rows of factors exist at once.  With
    at_nodes (x the nodes themselves) the factor of x_j at itself is 1, which
    gives omega'(x_j).  A zero factor gives m = 0 exactly, and the result has
    the relative error of the plain product."""
    m, expo = np.ones(x.shape, dtype=np.result_type(x, nodes)), 0
    for start in range(0, len(nodes), _BLOCK):
        block = x[None, :] - nodes[start:start + _BLOCK, None]
        if at_nodes:
            rows = np.arange(len(block))
            block[rows, start + rows] = 1.0
        if radius is not None:
            block /= radius
        m, expo = _rescale(m * np.prod(block, axis=0), expo)
    return m, expo


def _contour(u, poles, n: int, count: int):
    """(z, u(z), powers) on the circle |z| = R of Cauchy's formula for the
    exact errors: count trapezoid points, R = max(n + 1, 2 max|a|, 2) over
    the poles a (n + 1 is the saddle radius for entire u), and a ValueError
    where u is not finite or a pole has order above 2, the residues both
    kernels take.  Callers sum their kernels as series in x / z: row k of
    powers is z^-k for k < ceil(64 ln 2 / ln R), so for |x| <= 1 the series
    reaches 2^-64.
    """
    if any(len(cs) > 2 for _, cs in poles):
        raise ValueError("poles of order above 2 are not supported")
    radius = max(n + 1.0, 2.0 * max([1.0] + [abs(a) for a, _ in poles]))
    z = radius * np.exp(2j * np.pi * np.arange(count) / count)
    vals = u(z)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"u is not finite on the contour |z| = {radius:g}")
    terms = math.ceil(64.0 * math.log(2.0) / math.log(radius))
    return z, vals, z[None, :] ** -np.arange(terms)[:, None]


def exact_expansion_error(param, u, poles, n: int, x) -> np.ndarray:
    """u(x) - p(x) at the points x in [-1, 1], p the degree-n truncated
    expansion of u with the coefficients of expansion_coeffs.

    poles as in hermite_interp_error.  The error is the
    integral of u(z) G(x, z) dz / (2 pi i) on _contour's circle minus the
    residues of u G at the poles, c_1 G(x, a) + c_2 dG/dz(x, a), where
        G(x, z) = 1/(z - x) - sum_j w_j K_n(x, y_j) / (z - y_j)
                = A (C_{n+1}(x) F_n(z) - C_n(x) F_{n+1}(z)) / (z - x),
    y_j, w_j the N = 2(n + 1)-point Gauss rule, K_n the Christoffel-Darboux
    kernel, A = (n + 1) / (2 (n + lam) h_n) and F_l = Q_l - C_l Q_N / C_N
    the exact tail plus the aliasing of the rule (Gautschi & Varga, SIAM J.
    Numer. Anal. 20, 1983), from second_kind_sweep started at N, on 2N + 64
    points.  F_n = F_0 r_1 ... r_n is rescaled by a power of two after each
    factor, so it neither underflows nor rounds beyond its factors.
    """
    p = as_param(param)
    xs = np.asarray(x, dtype=float)
    if not np.all(np.abs(xs) <= 1.0):
        raise ValueError("x must lie in [-1, 1]")
    c_n, c_next = recurrence_table(p, n + 1, xs)[n:]
    z, vals, powers = _contour(u, poles, n, 4 * (n + 1) + 64)
    # at the poles, then on the contour: A F_n = f_n 2^expo, dlog = F_n' / F_n
    # and rho = F_{n+1} / F_n
    zs = np.concatenate([[a for a, _ in poles], z]).astype(complex)
    f_n = np.full_like(zs, (n + 1) / (2.0 * (n + p.lam) * h_norm(p, n)))
    expo, dlog = np.zeros(zs.shape, dtype=int), np.zeros_like(zs)
    for l, r, dr in second_kind_sweep(p, 2 * (n + 1), zs):
        if l == n + 1:
            rho, drho = r, dr
        elif l <= n:
            f_n *= r
            dlog += dr / r
            f_n, expo = _rescale(f_n, expo)

    out = np.zeros(len(xs))
    for i, (a, cs) in enumerate(poles):
        f_a = f_n[i] * np.ldexp(1.0, expo[i])
        g_a = f_a * (c_next - c_n * rho[i])          # (a - x) G(x, a)
        residue = cs[0] * g_a / (a - xs)
        if len(cs) == 2:
            dg_a = dlog[i] * g_a - f_a * c_n * drho[i]
            residue += cs[1] * (dg_a - g_a / (a - xs)) / (a - xs)
        out -= residue.real

    k = len(poles)
    shift = int(np.max(expo[k:]))
    vals = vals * f_n[k:] * np.ldexp(1.0, expo[k:] - shift)
    m_n, m_next = powers @ vals, powers @ (vals * rho[k:])
    contour = c_next * np.polyval(m_n[::-1], xs) - c_n * np.polyval(m_next[::-1], xs)
    return out + np.ldexp(contour.real / len(z), shift)


def _hermite(nodes, x, omega, u, poles):
    """N_p u[x_0, ..., x_n, x_p] at each point x_p, N_p = m_p 2^e_p from
    omega = (m, e) of _product: omega(x_p), or omega'(x_p) at a node.

    Hermite's formula on _contour's circle |z| = R gives the divided
    difference as minus the residues of u(z) / (omega(z) (z - x)) at the
    poles plus the contour integral.  The poles, the nodes and x lie within
    R / 2, so a trapezoid rule of max(2(n+1), 64) + 32 points aliases at
    about 2^-96 (2(n+1) + 32 points left 5e-10 relative at n = 1, R = 2);
    an entire u needs about 2(n+1).
    The residue of a pole with principal part c_1 / (z - a) + c_2 / (z - a)^2
    is (c_1 + c_2 h_1) / (omega(a) (a - x)), h_1 = sum_j 1 / (x_j - a) +
    1 / (x - a).  omega(z) / R^(n+1) is the rescaled product of the factors
    (z - x_j) / R, as omega(x_p) is that of x_p - x_j: neither overflows nor
    underflows, a point on a node gives an exact 0, and each keeps the
    relative error of n + 1 roundings.  Only log omega(a) is a sum of
    logarithms.  No step subtracts nearly equal numbers: the result keeps
    its relative accuracy far below the rounding floor of the operators.
    """
    n = len(nodes) - 1
    z, vals, powers = _contour(u, poles, n, max(2 * (n + 1), 64) + 32)
    m, e = omega
    # log(omega(x_p) / m_p); -inf on a node, where the error is an exact 0
    log_n = np.where(m == 0.0, -np.inf, e * math.log(2.0))

    out = np.zeros(len(x))
    for a, cs in poles:
        a = complex(a)
        to_x = 1.0 / (x - a)
        part = cs[0] if len(cs) == 1 else cs[0] + cs[1] * (np.sum(1.0 / (nodes - a)) + to_x)
        log_a = np.sum(np.log(a - nodes))           # log omega(a)
        ratio = m * np.exp(log_n - log_a.real) * np.exp(-1j * log_a.imag)
        out += (ratio * to_x * part).real

    radius = z[0].real                           # z[0] = R
    m_w, e_w = _product(z, nodes, radius)
    shift = -(n + 1) * math.log(radius)           # log(1 / R^(n+1))
    moments = powers @ (vals / (m_w * np.ldexp(1.0, e_w)))
    out += m * np.exp(log_n + shift) * np.polyval(moments[::-1].real / len(z), x)
    return out


def hermite_interp_error(node_set: NodeSet, u, poles, x) -> np.ndarray:
    """u(x) - p(x) at the points x in [-1, 1], p the interpolant of u on
    node_set.

    poles lists u's principal parts ((a, (c_1,)) or (a, (c_1, c_2)), ...),
    the terms c_k / (z - a)^k of poles of order at most 2 (a higher order
    is a ValueError); u must be analytic elsewhere and accept complex arrays.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(np.abs(xs) <= 1.0):
        raise ValueError("x must lie in [-1, 1]")
    nodes = node_set.nodes
    return _hermite(nodes, xs, _product(xs, nodes), u, poles)


def hermite_diff_error(node_set: NodeSet, u, poles) -> np.ndarray:
    """u'(x_j) - p'(x_j) at every node x_j: omega'(x_j) u[x_0, ..., x_n, x_j].

    poles as in hermite_interp_error.
    """
    xs = node_set.nodes
    return _hermite(xs, xs, _product(xs, xs, at_nodes=True), u, poles)
