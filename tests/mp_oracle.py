"""Independent arbitrary-precision oracle for interpolation and differentiation
errors: the barycentric formulas evaluated in mpmath on Newton-refined nodes.

The library measures these errors with Hermite's formula in double precision
(operators.hermite_*_error); the tests compare it against this slow, plainly
written path.  u and du must accept mpmath arguments.

It also keeps plain copies of the high-precision node, quadrature and
expansion paths, written with mpf operators on every node: the recurrence
with its coefficients rebuilt at every step, always five Newton steps per
node, one recurrence per degree in the expansion, and the barycentric
interpolant inside mp.quad.  The library's versions (mirrored refinement,
raw libmp kernels) must agree with them bit for bit.
"""

from functools import lru_cache

import mpmath as mp

from gegenspec import nodes as _nodes
from gegenspec.highprec import (
    DPS,
    _grid_mp,
    _h_norm_mp,
    _interpolant_mp,
    _interpolation_data,
)
from gegenspec.special import as_param


def geg_plain(lam, n, x):
    """C_n at an mpmath point by the forward recurrence."""
    c_prev = mp.mpf(1)
    if n == 0:
        return c_prev
    c = 2 * lam * x
    for m in range(2, n + 1):
        c_prev, c = c, (2 * (m + lam - 1) * x * c - (m + 2 * lam - 2) * c_prev) / m
    return c


def dgeg_plain(lam, n, x):
    return 2 * lam * geg_plain(lam + 1, n - 1, x)


@lru_cache(maxsize=None)
def gauss_nodes_mp_plain(lam: float, n: int) -> tuple:
    """Gauss nodes at DPS digits: five Newton steps from the double-path values."""
    p = as_param(lam)
    with mp.workdps(DPS):
        lam = mp.mpf(p.lam)
        out = []
        for x0 in _nodes.gauss_nodes(p, n).nodes:
            x = mp.mpf(float(x0))
            for _ in range(5):
                x = x - geg_plain(lam, n + 1, x) / dgeg_plain(lam, n + 1, x)
            out.append(x)
    return tuple(out)


def lobatto_nodes_mp_plain(lam: float, n: int) -> list:
    if n == 1:
        return [mp.mpf(-1), mp.mpf(1)]
    return [mp.mpf(-1), *gauss_nodes_mp_plain(lam + 1.0, n - 2), mp.mpf(1)]


def interpolation_data_plain(lam: float, n: int, family: str, u):
    """Plain nodes, barycentric weights 1 / prod_{k != j} (x_j - x_k) and values
    of u at the nodes."""
    if family == _nodes.GAUSS:
        xs = list(gauss_nodes_mp_plain(lam, n))
    else:
        xs = lobatto_nodes_mp_plain(lam, n)
    b = []
    for j, xj in enumerate(xs):
        prod = mp.mpf(1)
        for k, xk in enumerate(xs):
            if k != j:
                prod *= xj - xk
        b.append(1 / prod)
    return xs, b, [u(x) for x in xs]


def interpolant_mp_plain(xs, b, uv, x):
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


def quad_error_mp_plain(lam: float, n: int, family: str, u) -> float:
    """|integral of (u - interpolant) times the weight| by mp.quad at DPS digits."""
    p = as_param(lam)
    with mp.workdps(DPS):
        xs, b, uv = interpolation_data_plain(p.lam, n, family, u)
        expo = mp.mpf(p.lam) - mp.mpf(1) / 2
        err = mp.quad(
            lambda x: (u(x) - interpolant_mp_plain(xs, b, uv, x)) * (1 - x * x) ** expo,
            [-1, 0, 1],
        )
        return float(abs(err))


def expansion_error_mp_plain(lam: float, u, n: int) -> float:
    """Max-grid error of the degree-n truncated expansion: one recurrence per
    degree and quadrature node, one sweep per grid point."""
    p = as_param(lam)
    with mp.workdps(DPS):
        lam = mp.mpf(p.lam)
        npts = 2 * (n + 1)
        nn = npts - 1
        ys = gauss_nodes_mp_plain(p.lam, nn)
        lead_ratio = 2 * (nn + lam) / (nn + 1)
        h_prev = _h_norm_mp(lam, nn)
        ws = [
            lead_ratio * h_prev / (geg_plain(lam, nn, y) * dgeg_plain(lam, npts, y))
            for y in ys
        ]
        uv = [u(y) for y in ys]
        coeffs = []
        for l in range(n + 1):
            s = mp.fsum(w * uy * geg_plain(lam, l, y) for w, uy, y in zip(ws, uv, ys))
            coeffs.append(s / _h_norm_mp(lam, l))
        worst = mp.mpf(0)
        for xg in _grid_mp():
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


def diff_error_mp(param, n: int, family: str, u, du, dps: int = DPS) -> float:
    """Max over the nodes of |interpolant derivative - u'| at dps digits."""
    with mp.workdps(dps):
        xs, b, uv = _interpolation_data(param, n, family, u)
        worst = mp.mpf(0)
        for j in range(len(xs)):
            row_sum = mp.mpf(0)
            acc = mp.mpf(0)
            for k in range(len(xs)):
                if k == j:
                    continue
                d_jk = (b[k] / b[j]) / (xs[j] - xs[k])
                row_sum += d_jk
                acc += d_jk * uv[k]
            acc += -row_sum * uv[j]      # negative-sum diagonal
            worst = max(worst, abs(acc - du(xs[j])))
        return float(worst)


def interp_error_mp(param, n: int, family: str, u, dps: int = DPS) -> float:
    """Max over the uniform GRID_SIZE grid of |interpolant - u| at dps digits."""
    with mp.workdps(dps):
        xs, b, uv = _interpolation_data(param, n, family, u)
        worst = mp.mpf(0)
        for xg in _grid_mp():
            worst = max(worst, abs(_interpolant_mp(xs, b, uv, xg) - u(xg)))
        return float(worst)


def interp_remainder_mp(param, n: int, family: str, u, points, dps: int = DPS) -> list:
    """u(x) - interpolant(x) at each float x in points, at dps digits."""
    with mp.workdps(dps):
        xs, b, uv = _interpolation_data(param, n, family, u)
        return [float(u(x) - _interpolant_mp(xs, b, uv, x))
                for x in map(mp.mpf, points)]
