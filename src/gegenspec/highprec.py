"""Arbitrary-precision quadrature and expansion error measurements (mpmath).

Spectral errors decay below the double-precision noise floor long before
the certified bounds stop shrinking, so honest bound-versus-error
comparisons at large n need a measurement path whose own rounding floor is
far lower.  Interpolation and differentiation errors get one in double
precision from Hermite's formula (operators.hermite_*_error); the quadrature
and truncated-expansion errors come from here, where everything mirrors
the double-precision operators with mpmath arithmetic.  Node
starting values come from the fast double path and are Newton-refined until
a step leaves the node unchanged, at most 5 steps.  The recurrence
coefficients are built once per (lam, degree), and the expansion error takes
every C_l at a quadrature node from one sweep.
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


def _recurrence(lam, n):
    """Coefficients of the forward recurrence up to degree n, built once.

    2 lam for C_1, then (2 (m + lam - 1), m + 2 lam - 2, m) for m = 2..n,
    with m C_m = 2 (m + lam - 1) x C_{m-1} - (m + 2 lam - 2) C_{m-2}; each
    is an mpf at the working precision.
    """
    return 2 * lam, [(2 * (m + lam - 1), m + 2 * lam - 2, m) for m in range(2, n + 1)]


def _geg_values(rec, n, x):
    """[C_0(x), ..., C_n(x)] at an mpmath point; rec = _recurrence(lam, N), N >= n."""
    two_lam, steps = rec
    vals = [mp.mpf(1)]
    if n >= 1:
        vals.append(two_lam * x)
        for a, b, m in steps[: n - 1]:
            vals.append((a * x * vals[-1] - b * vals[-2]) / m)
    return vals


def _dgeg(rec, drec, n, x):
    """C_n'(x) = 2 lam C_{n-1}(x) of the family lam+1; drec = _recurrence(lam + 1, N)."""
    two_lam, _ = rec
    return two_lam * _geg_values(drec, n - 1, x)[-1]


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
    """Gauss nodes refined to DPS digits.

    Newton runs from the double-path values until a step leaves the node
    unchanged, at most 5 steps.  A step is a fixed map of the node, so
    stopping at its fixed point gives what all 5 steps would, bit for bit.
    """
    p = as_param(param)
    with mp.workdps(DPS):
        lam = mp.mpf(p.lam)
        rec, drec = _recurrence(lam, n + 1), _recurrence(lam + 1, n)
        out = []
        for x0 in _nodes.gauss_rule(p, n)[0]:
            x = mp.mpf(float(x0))
            for _ in range(5):
                step = x - _geg_values(rec, n + 1, x)[-1] / _dgeg(rec, drec, n + 1, x)
                if step == x:
                    break
                x = step
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
        expo = lam - mp.mpf(1) / 2
        err = mp.quad(
            lambda x: (u(x) - _interpolant_mp(xs, b, uv, x)) * (1 - x * x) ** expo,
            [-1, 0, 1],
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
        nn = npts - 1
        ys = gauss_nodes_mp(p, nn)
        rec, drec = _recurrence(lam, nn), _recurrence(lam + 1, nn)
        # C_0 .. C_nn at each quadrature node, one sweep per node
        tables = [_geg_values(rec, nn, y) for y in ys]
        # classical weights: (k_{N}/k_{N-1}) h_{N-1} / (C_{N-1}(y) C'_N(y))
        lead_ratio = 2 * (nn + lam) / (nn + 1)
        h_prev = _h_norm_mp(lam, nn)
        ws = [
            lead_ratio * h_prev / (t[nn] * _dgeg(rec, drec, npts, y))
            for t, y in zip(tables, ys)
        ]
        uv = [u(y) for y in ys]
        coeffs = []
        for l in range(n + 1):
            s = mp.fsum(w * uy * t[l] for w, uy, t in zip(ws, uv, tables))
            coeffs.append(s / _h_norm_mp(lam, l))
        worst = mp.mpf(0)
        for xg in _grid_mp():
            acc = coeffs[0]
            for ck, cx in zip(coeffs[1:], _geg_values(rec, n, xg)[1:]):
                acc += ck * cx
            worst = max(worst, abs(acc - u(xg)))
        return float(worst)
