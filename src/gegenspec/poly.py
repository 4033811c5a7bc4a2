"""Evaluation of the Gegenbauer polynomial C_n and its derivative.

Three routes are provided and cross-checked by the test suite:

* the three-term recurrence (real or complex argument, vectorized),
* the w-series valid off the unit disk, with z = (w + 1/w)/2,
* a normalized boundary form C_n(z)/(g_n w^n) built entirely from O(1)
  coefficient ratios, stable for arbitrarily large n.
"""

import math
from functools import lru_cache

import numpy as np

from .special import as_param, g_coeff_sequence

__all__ = [
    "calibrated_sup_scale",
    "eval_recurrence",
    "recurrence_table",
    "eval_derivative",
    "eval_w_series",
    "normalized_on_ellipse",
    "value_at_one",
]


def _as_points(x):
    """Return (array, scalar_flag) for a scalar or array argument."""
    arr = np.asarray(x)
    scalar = arr.ndim == 0
    if not np.iscomplexobj(arr):
        arr = arr.astype(float) if arr.dtype != np.float64 else arr
    return np.atleast_1d(arr), scalar


def eval_recurrence(param, n: int, x):
    """C_n at x (scalar or array, real or complex) by forward recurrence.

    C_0 = 1, C_1 = 2 lam x,
    m C_m = 2 (m + lam - 1) x C_{m-1} - (m + 2 lam - 2) C_{m-2}.
    """
    lam = as_param(param).lam
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    pts, scalar = _as_points(x)
    c_prev = np.ones_like(pts)
    if n == 0:
        return c_prev[0] if scalar else c_prev
    c = 2.0 * lam * pts
    for m in range(2, n + 1):
        c_prev, c = c, (2.0 * (m + lam - 1.0) * pts * c - (m + 2.0 * lam - 2.0) * c_prev) / m
    return c[0] if scalar else c


def recurrence_table(param, n: int, x) -> np.ndarray:
    """All degrees at once: row m of the result holds C_m at the points x."""
    lam = as_param(param).lam
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    pts, _ = _as_points(x)
    table = np.empty((n + 1,) + pts.shape, dtype=pts.dtype)
    table[0] = 1.0
    if n >= 1:
        table[1] = 2.0 * lam * pts
    for m in range(2, n + 1):
        table[m] = (2.0 * (m + lam - 1.0) * pts * table[m - 1]
                    - (m + 2.0 * lam - 2.0) * table[m - 2]) / m
    return table


def eval_derivative(param, n: int, x):
    """Derivative of C_n, i.e. 2 lam C_{n-1} of the family lam+1.  Needs n >= 1."""
    p = as_param(param)
    if n < 1:
        raise ValueError("n must be >= 1 for the derivative")
    return 2.0 * p.lam * eval_recurrence(p.lam + 1.0, n - 1, x)


def eval_w_series(param, n: int, w):
    """C_n at z = (w + 1/w)/2 through the series sum_k g_k g_{n-k} w^{n-2k}.

    Requires |w| > 1 (the joukowski map is a bijection off the closed unit
    disk).  Terms are added in ascending k, i.e. in descending magnitude of
    w^{n-2k}, with compensated summation.
    """
    p = as_param(param)
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    pts, scalar = _as_points(w)
    pts = pts.astype(complex)
    if np.any(np.abs(pts) <= 1.0):
        raise ValueError("eval_w_series requires |w| > 1")
    g = g_coeff_sequence(p, n)
    power = pts ** n
    step = pts ** -2.0
    total = np.zeros_like(pts)
    comp = np.zeros_like(pts)
    for k in range(n + 1):
        term = (g[k] * g[n - k]) * power
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        power = power * step
    return total[0] if scalar else total


def normalized_on_ellipse(param, n: int, w):
    """Normalized value C_n(z)/(g_n w^n) = sum_k (g_{n-k}/g_n) g_k w^{-2k}.

    Only coefficient ratios enter (g_{n-k}/g_n via a backward multiplicative
    recurrence), so the evaluation is overflow-free for any n.  For large n
    the geometrically decaying powers let the sum be cut off once a rigorous
    tail bound falls below 1e-17 of the accumulated magnitude; with |w| close
    to 1 the full sum is taken.
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

    # Rigorous cap on any coefficient |(g_{n-k}/g_n) g_k|: for lam < 1 all
    # |g_k| <= 1 and the ratio is at most 1/|g_n|; for lam > 1 the ratio is
    # at most 1 and g_k <= g_n.
    log_abs_gn = (math.lgamma(n + lam) - math.lgamma(n + 1.0) - math.lgamma(abs(lam))
                  if n >= 1 else 0.0)
    coeff_cap = math.exp(abs(log_abs_gn))

    coeffs = []
    ratio = 1.0      # g_{n-k}/g_n
    g = 1.0          # g_k
    mag_k = 1.0      # qmag^k
    acc_abs = 0.0
    for k in range(n + 1):
        c = ratio * g
        coeffs.append(c)
        acc_abs += abs(c) * mag_k
        if k < n:
            tail_cap = coeff_cap * mag_k * qmag / (1.0 - qmag)
            if tail_cap < 1e-17 * max(acc_abs, 1.0):
                break
            ratio *= (n - k) / (n - k - 1.0 + lam)
            g *= (k + lam) / (k + 1.0)
            mag_k *= qmag
    q = pts ** -2.0
    total = np.zeros_like(q)
    for c in reversed(coeffs):
        total = total * q + c
    return total[0] if scalar else total


def value_at_one(param, n: int) -> float:
    """Endpoint value C_n(1) = Gamma(n+2 lam)/(n! Gamma(2 lam)), via log space."""
    lam = as_param(param).lam
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    if n == 0:
        return 1.0
    sign = -1.0 if lam < 0 else 1.0
    return sign * math.exp(
        math.lgamma(n + 2.0 * lam) - math.lgamma(n + 1.0) - math.lgamma(2.0 * lam)
    )


@lru_cache(maxsize=None)
def calibrated_sup_scale(lam: float) -> float:
    """Calibrated constant D = sup_n max_x |C_n(x)| / n^(lam-1) for -1/2 < lam < 0.

    It gives the sup-norm bound max |C_n| <= D n^(lam-1) on [-1, 1] (for
    lam > 0 the max is the endpoint value C_n(1), see value_at_one).  The
    sup is taken over n = 1..200 on a 2001-point grid; computed once per
    lam and cached (write-once, read-many).  Results that depend on it are
    flagged downstream.
    """
    xs = np.linspace(-1.0, 1.0, 2001)
    table = recurrence_table(lam, 200, xs)
    best = 0.0
    for n in range(1, 201):
        best = max(best, float(np.max(np.abs(table[n]))) / n ** (lam - 1.0))
    return best

