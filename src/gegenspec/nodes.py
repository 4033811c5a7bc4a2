"""Gauss and Gauss-Lobatto node sets with quadrature and barycentric weights.

Two routes build a Gauss rule from the symmetric tridiagonal eigenproblem of
the orthonormalized three-term recurrence.  Both symmetrize their result, so
x_{n-j} = -x_j and w_{n-j} = w_j exactly.

* gauss_rule (Golub-Welsch): eigenvalues and eigenvectors; the nodes take
  exactly two Newton steps (no residual test), each evaluating C_{n+1} and
  its derivative in one sweep, and the weights are the scaled squares of
  the eigenvector first components.  Those weights lose relative accuracy
  where the first components are tiny: at the end nodes for large lam
  (3.5e-3 at lam = 7.7, n = 1000; nothing left at lam = 20), and everywhere
  at tiny |lam|, where the Jacobi matrix's j = 1 entry cancels (7e-9 at
  lam = 1e-8, n = 2, and 4.5e-6 at n = 1000).  The Gauss node sets, the
  Lobatto interior and the internal rule of the Lobatto weights use
  this route, and gauss_nodes_mp starts from its nodes; stored benchmark
  references pin its bits, so it stays until those are rebuilt.
* closed_form_gauss_rule: eigenvalues only, one Newton step, and the
  weights in closed form from C_{n+1}' (see its docstring); about 5e-11
  relative or better against a 50-digit oracle for -0.4999 <= lam <= 20
  and n up to 1000 (lam = 3.2 up to n = 4000), with the nodes within
  2.3e-16 of gauss_rule's.  For lam < 0 the two end weights close the total
  mass, since their nodes crowd +-1 too closely for any formula at the
  rounded node.  No library path calls it yet: the quadrature measurement
  compares the rule with the exact integral (operators.weighted_integral),
  and gauss_rule keeps its bits for the stored references.

gauss_rule returns the bare (nodes, weights) rule, so no barycentric weights
are built that nobody reads.  Lobatto weights integrate the Lagrange basis
(_lagrange_matrix) with an internal Gauss rule.

Node sets keep their nodes finite and strictly ascending, so both node
kernels place points among them by binary search (np.searchsorted) instead
of scanning a difference matrix: _lagrange_matrix finds the one node each
target can hit, and barycentric_weights reads each sign from the rank of its
node.

scipy.linalg (eigh_tridiagonal) is imported inside the two routes, so it
loads at the first eigensolve and not with the package.
"""

from dataclasses import dataclass

import numpy as np

from .poly import eval_with_derivative
from .special import as_param, total_mass, value_at_one

__all__ = [
    "GAUSS",
    "GAUSS_LOBATTO",
    "NodeSet",
    "gauss_rule",
    "closed_form_gauss_rule",
    "gauss_nodes",
    "gauss_lobatto_nodes",
    "barycentric_weights",
]

GAUSS = "gauss"
GAUSS_LOBATTO = "gauss-lobatto"


@dataclass(frozen=True)
class NodeSet:
    """Immutable bundle of nodes, quadrature weights and barycentric weights.

    There are n+1 nodes, finite, strictly ascending and symmetric about 0.
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
        if not np.all(np.isfinite(self.nodes)):
            raise ValueError("nodes must be finite")
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
    from scipy.linalg import eigh_tridiagonal

    x, vecs = eigh_tridiagonal(np.zeros(count), _jacobi_offdiag(p.lam, count))
    w = total_mass(p) * vecs[0] ** 2
    for _ in range(2):
        c, dc = eval_with_derivative(p, n + 1, x)
        x = x - c / dc
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


def closed_form_gauss_rule(param, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule on the n+1 zeros of C_{n+1} from eigenvalues only.

    The Jacobi matrix's eigenvalues x give the starts; one recurrence sweep
    gives C = C_{n+1}(x) and C' and the node x - C/C'.  The weights are
    w_j = K / ((1 - x^2) C'^2) with K = 2 lam h_0 C_{n+1}(1),
    evaluated at the start and carried to the node by exp(4 lam x D/(1-x^2)),
    D = C/C': at a zero of C_{n+1} the Gegenbauer ODE gives (1 - x^2) C'^2
    the log-derivative 4 lam x/(1 - x^2).  For lam > 0 the weights are scaled
    to total_mass instead of by K.  For lam < 0 the two end weights, which
    hold most of the mass as lam -> -1/2 while their nodes crowd +-1 too
    closely for any formula at the rounded node, close the mass:
    each is half of total_mass minus the interior sum.  Both arrays are
    symmetrized.
    """
    p = as_param(param)
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    count = n + 1
    mass = total_mass(p)
    if count == 1:
        return np.array([0.0]), np.array([mass])
    lam = p.lam
    from scipy.linalg import eigh_tridiagonal

    x = eigh_tridiagonal(np.zeros(count), _jacobi_offdiag(lam, count), eigvals_only=True)
    c, dc = eval_with_derivative(p, count, x)
    delta = c / dc
    scale = np.max(np.abs(dc))          # keeps C'^2 finite at large lam and n
    one_minus_x2 = (1.0 - x) * (1.0 + x)
    w = np.exp(4.0 * lam * x * delta / one_minus_x2) / (one_minus_x2 * (dc / scale) ** 2)
    if lam > 0:
        w *= mass / np.sum(w)
    else:
        w *= 2.0 * lam * mass * value_at_one(p, count) / scale**2
        w[0] = w[-1] = 0.5 * (mass - np.sum(w[1:-1]))
    x = x - delta
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


def gauss_nodes(param, n: int) -> NodeSet:
    """Gauss node set: gauss_rule plus barycentric weights."""
    p = as_param(param)
    x, w = gauss_rule(p, n)
    return NodeSet(GAUSS, p, n, x, w, barycentric_weights(x))


def gauss_lobatto_nodes(param, n: int) -> NodeSet:
    """Lobatto node set: endpoints -1, 1 plus the zeros of C_{n-1} of family lam+1.

    Quadrature weights are interpolatory with respect to the lam weight: each
    Lagrange basis polynomial (degree n) is integrated exactly by the n+2 point
    Gauss rule of that weight.  A weight that is not positive (none for
    lam <= 12 and n <= 256) is a ValueError.
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
    y, wq = gauss_rule(p, n + 1)
    w = _lagrange_matrix(x, b, y) @ wq
    if not np.all(w > 0.0):
        raise ValueError(f"Lobatto weights at lambda = {p.lam}, n = {n} are not all "
                         f"positive (smallest {np.min(w):.3g})")
    return NodeSet(GAUSS_LOBATTO, p, n, x, w, b)


def _lagrange_matrix(x, b, y) -> np.ndarray:
    """Matrix L with L[j, q] = value of the j-th Lagrange basis at y[q].

    Second barycentric form: column q is b_j / (y_q - x_j) over its sum.  A
    target that hits a node exactly gets that node's unit column.  The nodes
    x must be strictly ascending, as every NodeSet and the Lobatto build keep
    them: one binary search then finds the only node a target can hit.  This
    is the one float64 evaluator of the basis; operators.interpolate and the
    Lobatto weights both use it.
    """
    pos = np.minimum(np.searchsorted(x, y), len(x) - 1)
    hit_cols = np.flatnonzero(x[pos] == y)
    hit_rows = pos[hit_cols]
    diff = y[None, :] - x[:, None]
    diff[hit_rows, hit_cols] = 1.0
    L = np.divide(b[:, None], diff, out=diff)
    total = np.sum(L, axis=0, keepdims=True)
    total[0, hit_cols] = 1.0        # hit columns are set below; their sum may be 0
    L /= total
    L[:, hit_cols] = 0.0
    L[hit_rows, hit_cols] = 1.0
    return L


def barycentric_weights(nodes) -> np.ndarray:
    """Weights 1 / prod_{k != j} (x_j - x_k), rescaled so max |b_j| = 1.

    The nodes may come in any order but must be finite and distinct.  The
    sign of b_j is (-1)^(number of nodes above x_j), read by binary search in
    a sorted copy, whose neighbours also give the distinctness check.  The
    magnitude is accumulated in log space, so clustered spectral nodes do
    not underflow even for large node counts.
    """
    x = np.asarray(nodes, dtype=float)
    m = len(x)
    if not np.all(np.isfinite(x)):
        raise ValueError("nodes must be finite")
    s = np.sort(x)
    if np.any(s[1:] == s[:-1]):
        raise ValueError("nodes must be distinct")
    above = m - np.searchsorted(s, x, side="right")
    signs = np.where(above % 2 == 0, 1.0, -1.0)
    absd = x[:, None] - x[None, :]
    np.abs(absd, out=absd)
    np.fill_diagonal(absd, 1.0)
    logb = -np.sum(np.log(absd, out=absd), axis=1)
    return signs * np.exp(logb - np.max(logb))
