"""Gauss and Gauss-Lobatto node sets with quadrature and barycentric weights.

Nodes come from the symmetric tridiagonal eigenproblem of the orthonormalized
three-term recurrence, then take exactly two Newton steps (no residual test);
each step evaluates C_{n+1} and its derivative in one sweep.  The nodes are
then symmetrized, so x_{n-j} = -x_j exactly.  Gauss quadrature weights come
from the eigenvector first components.
gauss_rule returns that bare (nodes, weights) rule; the Lobatto interior, the
internal rule of the interpolatory weights and the reference rules of the
error measurements use it, so no barycentric weights are built that nobody
reads.  Lobatto weights always go through the interpolatory formula so one
fully testable code path covers them.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .poly import eval_with_derivative
from .special import as_param, total_mass

__all__ = [
    "GAUSS",
    "GAUSS_LOBATTO",
    "NodeSet",
    "gauss_rule",
    "gauss_nodes",
    "gauss_lobatto_nodes",
    "quad_weights_interpolatory",
    "barycentric_weights",
]

GAUSS = "gauss"
GAUSS_LOBATTO = "gauss-lobatto"


@dataclass(frozen=True)
class NodeSet:
    """Immutable bundle of nodes, quadrature weights and barycentric weights.

    There are n+1 nodes, strictly ascending and symmetric about 0.
    """

    family: str
    param: object
    n: int
    nodes: np.ndarray
    quad_weights: np.ndarray
    bary_weights: np.ndarray

    def __post_init__(self):
        for name in ("nodes", "quad_weights", "bary_weights"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len(self.nodes) != self.n + 1:
            raise ValueError("node count must be n + 1")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly ascending")


def _jacobi_offdiag(lam: float, count: int) -> np.ndarray:
    """Off-diagonal of the symmetric Jacobi matrix for the orthonormal family.

    beta_j^2 = j (j + 2 lam - 1) / (4 (j + lam - 1)(j + lam)); the j = 1 entry
    has both factors negative for lam < 0, so the ratio stays positive on the
    whole admissible range.
    """
    j = np.arange(1, count, dtype=float)
    beta2 = j * (j + 2.0 * lam - 1.0) / (4.0 * (j + lam - 1.0) * (j + lam))
    return np.sqrt(beta2)


def gauss_rule(param, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule (nodes, quadrature weights) on the n+1 zeros of C_{n+1}.

    Eigenvalues of the (n+1)x(n+1) Jacobi matrix give global starting values;
    two Newton steps restore full precision, each taking C_{n+1} and its
    derivative from one recurrence sweep (eval_with_derivative).  Weights are
    the scaled squares of the eigenvector first components.  Both arrays are
    symmetrized.
    """
    p = as_param(param)
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    count = n + 1
    if count == 1:
        return np.array([0.0]), np.array([total_mass(p)])
    x, vecs = eigh_tridiagonal(np.zeros(count), _jacobi_offdiag(p.lam, count))
    w = total_mass(p) * vecs[0] ** 2
    for _ in range(2):
        c, dc = eval_with_derivative(p, n + 1, x)
        x = x - c / dc
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


def gauss_nodes(param, n: int) -> NodeSet:
    """Gauss node set: gauss_rule plus barycentric weights."""
    p = as_param(param)
    x, w = gauss_rule(p, n)
    return NodeSet(GAUSS, p, n, x, w, barycentric_weights(x))


def gauss_lobatto_nodes(param, n: int) -> NodeSet:
    """Lobatto node set: endpoints -1, 1 plus the zeros of C_{n-1} of family lam+1.

    Quadrature weights are interpolatory with respect to the lam weight.
    """
    p = as_param(param)
    if n < 1:
        raise ValueError("n must be >= 1 (at least the two endpoints)")
    if n == 1:
        x = np.array([-1.0, 1.0])
    else:
        interior, _ = gauss_rule(p.lam + 1.0, n - 2)
        x = np.concatenate([[-1.0], interior, [1.0]])
    b = barycentric_weights(x)
    return NodeSet(GAUSS_LOBATTO, p, n, x, _interpolatory(x, b, p), b)


def quad_weights_interpolatory(nodes, param) -> np.ndarray:
    """Interpolatory weights: integral of each Lagrange basis times the weight."""
    x = np.asarray(nodes, dtype=float)
    if len(np.unique(x)) != len(x):
        raise ValueError("nodes must be distinct")
    return _interpolatory(x, barycentric_weights(x), as_param(param))


def _interpolatory(x, b, p) -> np.ndarray:
    """Interpolatory weights of nodes x with barycentric weights b.

    Each basis polynomial (degree n) is integrated exactly by an internal
    Gauss rule of the same weight function with n+2 points.
    """
    y, wq = gauss_rule(p, len(x))          # n+2 points, exact through degree 2n+3
    return _lagrange_matrix(x, b, y) @ wq


def _lagrange_matrix(x, b, y) -> np.ndarray:
    """Matrix L with L[j, q] = value of the j-th Lagrange basis at y[q]."""
    diff = y[None, :] - x[:, None]
    hit_rows, hit_cols = np.nonzero(diff == 0.0)
    diff[hit_rows, hit_cols] = 1.0
    L = np.divide(b[:, None], diff, out=diff)
    L /= np.sum(L, axis=0, keepdims=True)
    if hit_rows.size:
        L[:, hit_cols] = 0.0
        L[hit_rows, hit_cols] = 1.0
    return L


def barycentric_weights(nodes) -> np.ndarray:
    """Weights 1 / prod_{k != j} (x_j - x_k), rescaled so max |b_j| = 1.

    The product is accumulated in log space, so clustered spectral nodes do
    not underflow even for large node counts.
    """
    x = np.asarray(nodes, dtype=float)
    m = len(x)
    if m == 1:
        return np.array([1.0])
    diff = x[:, None] - x[None, :]
    signs = np.where((np.sum(diff < 0, axis=1) % 2) == 0, 1.0, -1.0)
    absd = np.abs(diff, out=diff)
    np.fill_diagonal(absd, 1.0)
    if np.any(absd == 0.0):
        raise ValueError("nodes must be distinct")
    logb = -np.sum(np.log(absd, out=absd), axis=1)
    return signs * np.exp(logb - np.max(logb))
