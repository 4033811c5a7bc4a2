"""Independent arbitrary-precision oracle for interpolation and differentiation
errors: the barycentric formulas evaluated in mpmath on Newton-refined nodes.

The library measures these errors with Hermite's formula in double precision
(operators.hermite_*_error); the tests compare it against this slow, plainly
written path.  u and du must accept mpmath arguments.
"""

import mpmath as mp

from gegenspec.highprec import DPS, _grid_mp, _interpolant_mp, _interpolation_data


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
