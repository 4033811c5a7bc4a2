"""Evaluation of the Gegenbauer polynomial C_n, its derivative and the
second-kind functions Q_l(z) = integral of w(y) C_l(y) / (z - y) dy.

Two routes for C_n are provided and cross-checked by the test suite:

* the three-term recurrence (real or complex argument, vectorized), one
  in-place sweep that eval_recurrence, recurrence_table and
  eval_with_derivative share; the last carries the families lam and lam+1
  through it together and is the one source of C_n',
* the w-series C_n(z) = sum_k g_k g_{n-k} w^{n-2k}, valid off the unit disk
  with z = (w + 1/w)/2, in the normalized form C_n(z)/(g_n w^n) built
  entirely from the O(1) coefficient ratios of special, stable for
  arbitrarily large n.

Q_l solves the same recurrence for l >= 1 as its minimal solution, so
second_kind_sweep takes it from one backward (Miller) sweep of the ratios
Q_l / Q_{l-1} (Gautschi, SIAM Rev. 9, 1967).
"""

import math
from functools import lru_cache

import numpy as np

from .special import _g_ratios, _gamma_ratio, as_param, g_coeff_sequence, total_mass

__all__ = [
    "calibrated_sup_scale",
    "eval_recurrence",
    "recurrence_table",
    "eval_with_derivative",
    "normalized_on_ellipse",
    "second_kind_sweep",
    "second_kind_table",
]

# second_kind_table's Miller start: digits resolved, and the cap in steps beyond n
MILLER_DIGITS = 20
MILLER_MAX_STEPS = 100_000

# points of the uniform grid on [-1, 1] where max-norm errors are measured
GRID_SIZE = 2001


def _as_points(x):
    """Return (array, scalar_flag) for a scalar or array argument."""
    arr = np.asarray(x)
    scalar = arr.ndim == 0
    if not np.iscomplexobj(arr):
        arr = arr.astype(float) if arr.dtype != np.float64 else arr
    return np.atleast_1d(arr), scalar


def _recurrence_coeffs(m, lam):
    """(a_m, b_m) = (2 (m + lam - 1), m + 2 lam - 2), the coefficients of
    both sweeps: m C_m = a_m x C_{m-1} - b_m C_{m-2}."""
    return 2.0 * (m + lam - 1.0), m + 2.0 * lam - 2.0


def _sweep(lams, n: int, pts):
    """Forward recurrence for several families at once, in place.

    Yields (C_{m-1}, C_m) at the points pts for m = 1..n (nothing for
    n = 0); row r of each array belongs to the family lams[r].  Both arrays
    are overwritten by the next step, so copy what must outlive it.

    C_0 = 1, C_1 = 2 lam x,
    m C_m = 2 (m + lam - 1) x C_{m-1} - (m + 2 lam - 2) C_{m-2},
    each product and difference taken in that order for every row.
    """
    if n < 1:
        return
    col = np.asarray(lams, dtype=float).reshape((-1,) + (1,) * pts.ndim)
    c_prev = np.ones(col.shape[:1] + pts.shape, dtype=pts.dtype)
    c = 2.0 * col * pts
    yield c_prev, c
    ms = np.arange(2.0, n + 1.0).reshape((-1,) + (1,) * col.ndim)
    a, b = _recurrence_coeffs(ms, col)
    nxt = np.empty_like(c)
    for m in range(2, n + 1):
        np.multiply(a[m - 2], pts, out=nxt)
        nxt *= c
        c_prev *= b[m - 2]
        nxt -= c_prev
        nxt /= m
        c_prev, c, nxt = c, nxt, c_prev
        yield c_prev, c


def eval_recurrence(param, n: int, x):
    """C_n at x (scalar or array, real or complex) by forward recurrence."""
    lam = as_param(param).lam
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    pts, scalar = _as_points(x)
    if n == 0:
        c = np.ones_like(pts)
    else:
        for _, rows in _sweep((lam,), n, pts):
            pass
        c = rows[0]
    return c[0] if scalar else c


def recurrence_table(param, n: int, x) -> np.ndarray:
    """All degrees at once: row m of the result holds C_m at the points x."""
    lam = as_param(param).lam
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    pts, _ = _as_points(x)
    table = np.empty((n + 1,) + pts.shape, dtype=pts.dtype)
    table[0] = 1.0
    for m, (_, rows) in enumerate(_sweep((lam,), n, pts), start=1):
        table[m] = rows[0]
    return table


def eval_with_derivative(param, n: int, x):
    """(C_n, C_n') at x from one sweep over the families lam and lam+1,
    with C_n' = 2 lam C_{n-1} of the family lam+1.

    At real points C_n is eval_recurrence's, bit for bit, and C_n' is
    2 lam times eval_recurrence(lam + 1, n - 1, x).  Needs n >= 1.
    """
    p = as_param(param)
    if n < 1:
        raise ValueError("n must be >= 1 for the derivative")
    pts, scalar = _as_points(x)
    for prev, rows in _sweep((p.lam, p.lam + 1.0), n, pts):
        pass
    c, dc = rows[0], 2.0 * p.lam * prev[1]
    return (c[0], dc[0]) if scalar else (c, dc)


def normalized_on_ellipse(param, n: int, w):
    """Normalized value C_n(z)/(g_n w^n) = sum_k (g_{n-k}/g_n) g_k w^{-2k}.

    Only coefficient ratios enter, so nothing overflows before a coefficient
    leaves the double range (ValueError; lam = 300 from n = 1129 at |w| = 1.2).
    For large n the sum is cut off once a tail bound falls below 1e-17 of the
    accumulated magnitude; with |w| close to 1 the full sum is taken.
    """
    p = as_param(param)
    lam = p.lam
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    pts, scalar = _as_points(w)
    pts = pts.astype(complex)
    mags = np.abs(pts)
    if np.any(mags <= 1.0):
        raise ValueError("normalized_on_ellipse requires |w| > 1")
    qmag = float(np.max(mags)) ** -2.0

    # Cap on any coefficient |(g_{n-k}/g_n) g_k|, in logs: for lam < 1 all
    # |g_k| <= 1 and the ratio is at most 1/|g_n|; for lam > 1 the ratio is
    # at most 1 and g_k <= g_n (Gamma(|lam|) for |Gamma(lam)| leaves it up to
    # 1.93x low at lam < 0, far below one rounding of the sum).  The sum stops
    # at the first k where the cap times the tail qmag^(k+1)/(1-qmag) is below
    # 1e-17 max(sum_j<=k |c_j| qmag^j, 1); the cap alone gets there within
    # kmax terms, two spare for rounding.
    b, r = _gamma_ratio(n + 1.0, lam - 1.0) if n else (1.0, 0.0)
    log_cap = abs((lam - 1.0) * math.log(b) + r - math.lgamma(abs(lam))) if n else 0.0
    log_tail = math.log(qmag / (1.0 - qmag))
    kmax = min(n, max(0, math.ceil((math.log(1e-17) - log_cap - log_tail)
                                   / math.log(qmag)) + 2))
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = _g_ratios(lam, n, kmax) * g_coeff_sequence(lam, kmax)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(f"the coefficients g_(n-k) g_k/g_n overflow at lambda={lam}, n={n}")
    mag = np.cumprod(np.concatenate([[1.0], np.full(kmax, qmag)]))    # qmag^k
    acc_abs = np.cumsum(np.abs(coeffs) * mag)
    room = np.exp(np.log(1e-17 * np.maximum(acc_abs, 1.0)) - log_cap)
    cut = np.flatnonzero(mag * qmag / (1.0 - qmag) < room)
    q = pts ** -2.0
    total = np.zeros_like(q)
    for c in reversed(coeffs[:cut[0] + 1 if cut.size else None].tolist()):
        total = total * q + c
    return total[0] if scalar else total


def second_kind_sweep(param, start: int, z):
    """Yield (l, r_l, r_l') for l = start - 1, ..., 1, then (0, F_0, F_0'),
    at the complex points z: F solves the recurrence with F_start = 0 and
    F_1 = 2 lam (z F_0 - h_0), r_l = F_l / F_{l-1} and ' is d/dz.

    From r_start = 0, r_{l-1} = b_l / (a_l z - l r_l) with a_l = 2 (l + lam - 1)
    and b_l = l + 2 lam - 2, and F_0 = 2 lam h_0 / (2 lam z - r_1).  Then
    F_l = Q_l - C_l Q_start / C_start, which is sum_j w_j C_l(y_j) / (z - y_j)
    over the Gauss rule with `start` points.
    """
    lam = as_param(param).lam
    r = dr = np.zeros_like(z)
    for l in range(start, 1, -1):
        a, b = _recurrence_coeffs(l, lam)
        den = a * z - l * r
        r = b / den
        dr = r * (l * dr - a) / den
        yield l - 1, r, dr
    den = 2.0 * lam * z - r
    f0 = 2.0 * lam * total_mass(lam) / den
    yield 0, f0, f0 * (dr - 2.0 * lam) / den


def second_kind_table(param, n: int, z):
    """(Q, Q'): row l holds Q_l and its derivative at the points z off [-1, 1].

    second_kind_sweep starts MILLER_DIGITS ln 10 / ln|w| steps beyond n,
    z = (w + 1/w) / 2 with |w| > 1 at the point nearest [-1, 1], so C_l
    enters Q_l below 10^-MILLER_DIGITS; a longer sweep than MILLER_MAX_STEPS
    raises ValueError.
    """
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    pts, scalar = _as_points(z)
    pts = pts.astype(complex)
    log_w = float(np.min(np.log(np.abs(pts + np.sqrt(pts - 1.0) * np.sqrt(pts + 1.0)))))
    steps = math.ceil(MILLER_DIGITS * math.log(10.0) / log_w) if log_w > 0 else math.inf
    if steps > MILLER_MAX_STEPS:
        raise ValueError(f"z is too close to [-1, 1]: Q needs {steps} recurrence steps "
                         f"beyond n, at most {MILLER_MAX_STEPS} are taken")
    q = np.empty((n + 1,) + pts.shape, dtype=complex)
    dq = np.empty_like(q)
    for l, r, dr in second_kind_sweep(param, n + steps, pts):
        if l <= n:
            q[l], dq[l] = r, dr
    for l in range(1, n + 1):
        q[l], dq[l] = q[l] * q[l - 1], dq[l] * q[l - 1] + q[l] * dq[l - 1]
    return (q[:, 0], dq[:, 0]) if scalar else (q, dq)


@lru_cache(maxsize=None)
def calibrated_sup_scale(lam: float) -> float:
    """Calibrated constant D = sup_n max_x |C_n(x)| / n^(lam-1) for -1/2 < lam < 0.

    It gives the sup-norm bound max |C_n| <= D n^(lam-1) on [-1, 1] (for
    lam > 0 the max is the endpoint value C_n(1), special.value_at_one).  The
    sup is taken over n = 1..200 on the GRID_SIZE grid; computed once per
    lam and cached (write-once, read-many).  Results that depend on it are
    flagged downstream.
    """
    xs = np.linspace(-1.0, 1.0, GRID_SIZE)
    table = recurrence_table(lam, 200, xs)
    best = 0.0
    for n in range(1, 201):
        best = max(best, float(np.max(np.abs(table[n]))) / n ** (lam - 1.0))
    return best

