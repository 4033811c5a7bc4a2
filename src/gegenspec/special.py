"""The family parameter and its constants, each from one formula: g_k, the
ratios g_{n-k}/g_n and the defects d_{n,k} = 1 - g_{n-k}/g_n as running
products of their step ratios, the endpoint value C_n(1) from one Gamma-ratio
routine, h_0 = total_mass and h_n = h_0 lam/(n+lam) C_n(1).

Everything here is a pure function of its arguments, and nothing overflows
for large degree or index.
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
    "value_at_one",
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

    The running product of the ratios g_{k+1}/g_k = (k+lam)/(k+1) from
    g_0 = 1, never a direct Gamma evaluation, so large k cannot overflow.
    For lam < 0 the single sign flip at k = 1 emerges from the product.
    """
    lam = as_param(param).lam
    if kmax < 0:
        raise ValueError("kmax must be a nonnegative integer")
    ks = np.arange(0.0, kmax)
    return np.cumprod(np.concatenate([[1.0], (ks + lam) / (ks + 1.0)]))


def _g_ratios(lam: float, n: int, kmax: int) -> np.ndarray:
    """Array [g_n/g_n, g_{n-1}/g_n, ..., g_{n-kmax}/g_n], the running product
    of g_{n-k}/g_{n-k+1} = (n-k+1)/(n-k+lam); every entry stays O(poly(n))
    for any lam > -1/2."""
    ks = np.arange(1.0, kmax + 1.0)
    return np.cumprod(np.concatenate([[1.0], (n - ks + 1.0) / (n - ks + lam)]))


def d_coeff_sequence(param, n: int) -> np.ndarray:
    """Array [d_{n,1}, ..., d_{n,n}] of the defects d_{n,k} = 1 - g_{n-k}/g_n."""
    lam = as_param(param).lam
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1.0 - _g_ratios(lam, n, n)[1:]


# B_{2j} / (2j (2j - 1)), j = 1..8, the coefficients of x^(1-2j) in the
# Stirling series of ln Gamma(x)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400)


def _gamma_ratio(x: float, d: float) -> tuple[float, float]:
    """(b, r) with Gamma(x+d)/Gamma(x) = b^d e^r, for x > 0 and x + d > 0:
    Gamma(z+1) = z Gamma(z) carries x and x + d to 10 or more (b is the
    carried x), then r differences the Stirling series term by term, the
    leading ones as (x+d-1/2) log1p(d/x) - d (Hale & Townsend, SIAM J. Sci.
    Comput. 35, 2013).  b^d as a power is one rounding, where d ln b and
    lgamma differences lose about ln(x) digits."""
    r = 0.0
    while min(x, x + d) < 10.0:
        r -= math.log1p(d / x)
        x += 1.0
    y = x + d
    r += (y - 0.5) * math.log1p(d / x) - d
    for j, c in enumerate(_STIRLING):
        r += c * (y ** (-2 * j - 1) - x ** (-2 * j - 1))
    return x, r


def value_at_one(param, n: int) -> float:
    """Endpoint value C_n(1) = Gamma(n+2 lam)/(n! Gamma(2 lam))."""
    lam = as_param(param).lam
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    if n == 0:
        return 1.0
    d = 2.0 * lam - 1.0
    b, r = _gamma_ratio(n + 1.0, d)
    r -= math.lgamma(2.0 * lam)
    try:
        c = b**d * math.exp(r)
    except OverflowError:       # b^d alone overflows, C_n(1) may not
        c = math.exp(d * math.log(b) + r)
    return math.copysign(c, lam)


def h_norm(param, n: int) -> float:
    """Squared weighted norm h_n = h_0 lam/(n+lam) C_n(1) of the degree-n
    polynomial, h_0 = total_mass (bitwise at n = 0)."""
    p = as_param(param)
    c_n = value_at_one(p, n)
    return total_mass(p) * (p.lam / (n + p.lam)) * c_n


def total_mass(param) -> float:
    """h_0 = sqrt(pi) Gamma(lam+1/2)/Gamma(lam+1), the integral of the weight
    (1-x^2)^(lam-1/2) over [-1, 1]."""
    lam = as_param(param).lam
    return math.exp(
        0.5 * math.log(math.pi) + math.lgamma(lam + 0.5) - math.lgamma(lam + 1.0)
    )
