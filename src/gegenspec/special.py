"""The family parameter, its coefficient sequences and weighted norms.

Everything here is a pure function of its arguments; ratios of Gamma values are
assembled in log space (or by multiplicative recurrences) so that nothing
overflows for large degree or index.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GegenbauerParam",
    "as_param",
    "g_coeff_sequence",
    "d_coeff_sequence",
    "h_norm",
    "total_mass",
]


# Smallest admissible |lam|, the smallest any check uses.  The recurrence and
# Jacobi coefficients cancel as lam -> 0: at 1e-8 the Gauss nodes are off by up
# to 2.1e-9 and the n = 1000 weights by 4.5e-6, at 1e-12 a node is off by
# 1.7e-5, and at 1.2e-16 one lies outside [-1, 1].
LAM_MIN = 1e-8


@dataclass(frozen=True)
class GegenbauerParam:
    """Family index lam of the weight (1-x^2)^(lam-1/2); lam > -1/2 and
    |lam| >= LAM_MIN, which excludes the degenerate lam = 0."""

    lam: float

    def __post_init__(self):
        lam = float(self.lam)
        if not math.isfinite(lam) or lam <= -0.5:
            raise ValueError(f"lambda must satisfy lambda > -1/2, got {lam}")
        if abs(lam) < LAM_MIN:
            raise ValueError(f"lambda must satisfy |lambda| >= {LAM_MIN} (lambda = 0 is "
                             f"a degenerate family), got {lam}")
        object.__setattr__(self, "lam", lam)


def as_param(param) -> GegenbauerParam:
    """Coerce a float or GegenbauerParam to a validated GegenbauerParam."""
    if isinstance(param, GegenbauerParam):
        return param
    return GegenbauerParam(float(param))


def g_coeff_sequence(param, kmax: int) -> np.ndarray:
    """Array [g_0, ..., g_kmax] of g_k = Gamma(k+lam) / (k! Gamma(lam)).

    Computed by the multiplicative recurrence g_{k+1} = g_k (k+lam)/(k+1)
    from g_0 = 1, never via direct Gamma evaluation, so large k cannot
    overflow.  For lam < 0 the single sign flip at k = 1 emerges from the
    recurrence.
    """
    lam = as_param(param).lam
    if kmax < 0:
        raise ValueError("kmax must be a nonnegative integer")
    g = np.empty(kmax + 1)
    g[0] = 1.0
    for j in range(kmax):
        g[j + 1] = g[j] * (j + lam) / (j + 1)
    return g


def d_coeff_sequence(param, n: int) -> np.ndarray:
    """Array [d_{n,1}, ..., d_{n,n}] of the defects d_{n,k} = 1 - g_{n-k}/g_n.

    The ratio g_{n-k}/g_n is accumulated in one multiplicative sweep; every
    intermediate stays O(poly(n)) for any lam > -1/2.
    """
    lam = as_param(param).lam
    if n < 1:
        raise ValueError("n must be >= 1")
    d = np.empty(n)
    r = 1.0
    for k in range(1, n + 1):
        r *= (n - k + 1) / (n - k + lam)
        d[k - 1] = 1.0 - r
    return d


def h_norm(param, n: int) -> float:
    """Squared weighted norm of the degree-n polynomial of the family.

    h_n = 2^(1-2 lam) pi Gamma(n+2 lam) / (Gamma(lam)^2 n! (n+lam)),
    assembled in log space (the value is positive for every admissible lam).
    """
    lam = as_param(param).lam
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    # math.lgamma returns log|Gamma|; the sign factors of Gamma(n+2 lam) and
    # 1/(n+lam) cancel for every admissible (lam, n), so h_n = exp(log|h_n|).
    logh = (
        (1.0 - 2.0 * lam) * math.log(2.0)
        + math.log(math.pi)
        + math.lgamma(n + 2.0 * lam)
        - 2.0 * math.lgamma(lam)
        - math.lgamma(n + 1.0)
        - math.log(abs(n + lam))
    )
    return math.exp(logh)


def total_mass(param) -> float:
    """Integral of the weight (1-x^2)^(lam-1/2) over [-1, 1]."""
    lam = as_param(param).lam
    return math.exp(
        0.5 * math.log(math.pi) + math.lgamma(lam + 0.5) - math.lgamma(lam + 1.0)
    )
