"""Independent arbitrary-precision oracle for interpolation, differentiation
and truncated-expansion errors: the barycentric formulas and the expansion
evaluated in mpmath on Newton-refined nodes.

The library measures these errors in double precision from Cauchy's formula
(operators.hermite_*_error, operators.exact_expansion_error); the tests
compare it against this slow, plainly written path.  u and du must accept
mpmath arguments.

It also keeps plain copies of the high-precision node and quadrature paths,
written with mpf operators on every node: the recurrence with its
coefficients rebuilt at every step, always five Newton steps per node, and
the barycentric interpolant inside mp.quad.  The library's versions
(mirrored refinement, integer-mantissa kernels) must agree with them bit
for bit.

gauss_node_weight_mp checks the closed-form Gauss weights against the
Christoffel-number formula at 50 digits; it uses nothing from the library.
"""

from functools import lru_cache

import mpmath as mp

from gegenspec import nodes as _nodes
from gegenspec.highprec import DPS, _interpolation_data
from gegenspec.operators import GRID_SIZE
from gegenspec.special import as_param


def h_norm_mp(lam, n):
    """Squared weighted norm h_n of the degree-n polynomial (see special.h_norm)."""
    return (
        2 ** (1 - 2 * lam)
        * mp.pi
        * mp.gamma(n + 2 * lam)
        / (mp.gamma(lam) ** 2 * mp.factorial(n) * (n + lam))
    )


def grid_mp():
    """The GRID_SIZE-point uniform grid on [-1, 1] at working precision."""
    m = GRID_SIZE - 1
    return (mp.mpf(2 * i - m) / m for i in range(GRID_SIZE))


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
def gauss_nodes_mp_plain(lam: float, n: int, dps: int = DPS) -> tuple:
    """Gauss nodes at dps digits: five Newton steps from the double-path values."""
    p = as_param(lam)
    with mp.workdps(dps):
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


def expansion_error_mp_plain(lam: float, u, n: int, points, dps: int = DPS) -> list:
    """u(x) - (degree-n truncated expansion of u)(x) at each float x in points,
    at dps digits, with the coefficients from the 2(n+1)-point Gauss rule:
    one recurrence sweep per quadrature node and per point."""
    p = as_param(lam)
    with mp.workdps(dps):
        lam = mp.mpf(p.lam)
        npts = 2 * (n + 1)
        nn = npts - 1
        ys = gauss_nodes_mp_plain(p.lam, nn, dps)
        lead_ratio = 2 * (nn + lam) / (nn + 1)
        h_prev = h_norm_mp(lam, nn)

        def sweep(x, top):
            """[C_0(x), ..., C_top(x)] by the forward recurrence."""
            vals = [mp.mpf(1), 2 * lam * x]
            for m in range(2, top + 1):
                vals.append((2 * (m + lam - 1) * x * vals[-1]
                             - (m + 2 * lam - 2) * vals[-2]) / m)
            return vals[:top + 1]

        tables = [sweep(y, nn) for y in ys]
        wu = [lead_ratio * h_prev / (t[nn] * dgeg_plain(lam, npts, y)) * u(y)
              for t, y in zip(tables, ys)]
        coeffs = [mp.fsum(a * t[l] for a, t in zip(wu, tables)) / h_norm_mp(lam, l)
                  for l in range(n + 1)]
        return [float(u(x) - mp.fsum(c * v for c, v in zip(coeffs, sweep(x, n))))
                for x in map(mp.mpf, points)]


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
        for xg in grid_mp():
            worst = max(worst, abs(interpolant_mp_plain(xs, b, uv, xg) - u(xg)))
        return float(worst)


def interp_remainder_mp(param, n: int, family: str, u, points, dps: int = DPS) -> list:
    """u(x) - interpolant(x) at each float x in points, at dps digits."""
    with mp.workdps(dps):
        xs, b, uv = _interpolation_data(param, n, family, u)
        return [float(u(x) - interpolant_mp_plain(xs, b, uv, x))
                for x in map(mp.mpf, points)]


def gauss_node_weight_mp(lam: float, n: int, start: float, dps: int = 50) -> tuple:
    """(node, weight) of the (n+1)-point Gauss rule at dps digits, by Newton
    from the float start on C_N, N = n+1, with the weight
    (k_N/k_{N-1}) h_{N-1} / (C_{N-1}(x) C'_N(x)); k_m is the leading
    coefficient of C_m and h_m its squared weighted norm.  C and C' come from
    the recurrence and its derivative, all in mpmath."""
    big_n = n + 1
    with mp.workdps(dps):
        lam = mp.mpf(lam)

        def values(x):
            """(C_{N-1}, C_N, C'_N) at x."""
            c_prev, c = mp.mpf(1), 2 * lam * x
            dc_prev, dc = mp.mpf(0), 2 * lam
            for m in range(2, big_n + 1):
                a, b = 2 * (m + lam - 1), m + 2 * lam - 2
                c_prev, c, dc_prev, dc = (
                    c, (a * x * c - b * c_prev) / m,
                    dc, (a * (c + x * dc) - b * dc_prev) / m,
                )
            return c_prev, c, dc

        x = mp.mpf(start)
        for _ in range(4):
            _, c, dc = values(x)
            x -= c / dc
        c_prev, _, dc = values(x)
        m = big_n - 1
        h_prev = (2 ** (1 - 2 * lam) * mp.pi * mp.gamma(m + 2 * lam)
                  / (mp.gamma(lam) ** 2 * mp.factorial(m) * (m + lam)))
        lead_ratio = 2 * (m + lam) / big_n
        return x, lead_ratio * h_prev / (c_prev * dc)
