"""Arbitrary-precision quadrature and expansion error measurements (mpmath).

Spectral errors decay below the double-precision noise floor long before
the certified bounds stop shrinking, so honest bound-versus-error
comparisons at large n need a measurement path whose own rounding floor is
far lower.  Interpolation and differentiation errors get one in double
precision from Hermite's formula (operators.hermite_*_error); the quadrature
and truncated-expansion errors come from here, where everything mirrors
the double-precision operators with mpmath arithmetic.  Node
starting values come from the fast double path and are Newton-refined.
"""

import mpmath as mp

from . import nodes as _nodes
from .operators import GRID_SIZE
from .special import as_param

__all__ = [
    "gauss_nodes_mp",
    "lobatto_nodes_mp",
    "quad_error_mp",
    "expansion_error_mp",
]

# working precision, in decimal digits, of every function here
DPS = 35


def _geg(lam, n, x):
    """C_n at an mpmath point by the forward recurrence."""
    c_prev = mp.mpf(1)
    if n == 0:
        return c_prev
    c = 2 * lam * x
    for m in range(2, n + 1):
        c_prev, c = c, (2 * (m + lam - 1) * x * c - (m + 2 * lam - 2) * c_prev) / m
    return c


def _dgeg(lam, n, x):
    return 2 * lam * _geg(lam + 1, n - 1, x)


def _h_norm_mp(lam, n):
    """Squared weighted norm h_n of the degree-n polynomial (see special.h_norm)."""
    return (
        2 ** (1 - 2 * lam)
        * mp.pi
        * mp.gamma(n + 2 * lam)
        / (mp.gamma(lam) ** 2 * mp.factorial(n) * (n + lam))
    )


def _grid_mp():
    """The GRID_SIZE-point uniform grid on [-1, 1] at working precision."""
    m = GRID_SIZE - 1
    return (mp.mpf(2 * i - m) / m for i in range(GRID_SIZE))


def gauss_nodes_mp(param, n: int):
    """Gauss nodes refined to DPS digits (Newton from the double-path values)."""
    p = as_param(param)
    with mp.workdps(DPS):
        lam = mp.mpf(p.lam)
        out = []
        for x0 in _nodes.gauss_nodes(p, n).nodes:
            x = mp.mpf(float(x0))
            for _ in range(5):
                x = x - _geg(lam, n + 1, x) / _dgeg(lam, n + 1, x)
            out.append(x)
    return out


def lobatto_nodes_mp(param, n: int):
    """Lobatto nodes: exact endpoints plus refined interior zeros."""
    p = as_param(param)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return [mp.mpf(-1), mp.mpf(1)]
    interior = gauss_nodes_mp(p.lam + 1.0, n - 2)
    return [mp.mpf(-1)] + interior + [mp.mpf(1)]


def _interpolation_data(param, n, family, u):
    """Nodes, barycentric weights and values of u at the nodes."""
    if family == _nodes.GAUSS:
        xs = gauss_nodes_mp(param, n)
    elif family == _nodes.GAUSS_LOBATTO:
        xs = lobatto_nodes_mp(param, n)
    else:
        raise ValueError(f"unknown family {family!r}")
    b = []
    for j, xj in enumerate(xs):
        prod = mp.mpf(1)
        for k, xk in enumerate(xs):
            if k != j:
                prod *= xj - xk
        b.append(1 / prod)
    return xs, b, [u(x) for x in xs]


def _interpolant_mp(xs, b, uv, x):
    """Second-form barycentric interpolant at x; uv[j] exactly at node j."""
    num = mp.mpf(0)
    den = mp.mpf(0)
    for xj, bj, uj in zip(xs, b, uv):
        d = x - xj
        if d == 0:
            return uj
        t = bj / d
        num += t * uj
        den += t
    return num / den


def quad_error_mp(param, n: int, family: str, u) -> float:
    """|integral of (u - interpolant) times the weight| over [-1, 1], by
    mpmath quadrature at DPS digits.

    The value has a rounding floor of about 1e-37 to 1e-38: on runge1 at
    lam = 1/2 it is noise rather than the error for n >= 44 (n = 64 Gauss
    gives 1.5e-38 where 70 digits give 4.5e-50).
    """
    p = as_param(param)
    with mp.workdps(DPS):
        lam = mp.mpf(p.lam)
        xs, b, uv = _interpolation_data(p, n, family, u)
        weight = lambda x: (1 - x * x) ** (lam - mp.mpf(1) / 2)
        err = mp.quad(
            lambda x: (u(x) - _interpolant_mp(xs, b, uv, x)) * weight(x), [-1, 0, 1]
        )
        return float(abs(err))


def expansion_error_mp(param, u, n: int) -> float:
    """Exact max-grid error of the degree-n truncated expansion of u.

    Coefficients use the same 2(n+1)-point quadrature as the double path, so
    the two agree wherever double precision can still resolve the error.
    """
    p = as_param(param)
    with mp.workdps(DPS):
        lam = mp.mpf(p.lam)
        npts = 2 * (n + 1)
        ys = gauss_nodes_mp(p, npts - 1)
        # classical weights: (k_{N}/k_{N-1}) h_{N-1} / (C_{N-1}(y) C'_N(y))
        nn = npts - 1
        lead_ratio = 2 * (nn + lam) / (nn + 1)
        h_prev = _h_norm_mp(lam, nn)
        ws = [
            lead_ratio * h_prev / (_geg(lam, nn, y) * _dgeg(lam, npts, y)) for y in ys
        ]
        uv = [u(y) for y in ys]
        coeffs = []
        for l in range(n + 1):
            s = mp.fsum(w * uy * _geg(lam, l, y) for w, uy, y in zip(ws, uv, ys))
            coeffs.append(s / _h_norm_mp(lam, l))
        worst = mp.mpf(0)
        for xg in _grid_mp():
            # one recurrence sweep accumulating all degrees
            acc = coeffs[0]
            c_prev = mp.mpf(1)
            if n >= 1:
                c = 2 * lam * xg
                acc += coeffs[1] * c
                for m in range(2, n + 1):
                    c_prev, c = c, (
                        2 * (m + lam - 1) * xg * c - (m + 2 * lam - 2) * c_prev
                    ) / m
                    acc += coeffs[m] * c
            worst = max(worst, abs(acc - u(xg)))
        return float(worst)
