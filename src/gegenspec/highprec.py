"""Arbitrary-precision quadrature error measurements (mpmath).

Spectral errors decay below the double-precision noise floor long before
the certified bounds stop shrinking, so honest bound-versus-error
comparisons at large n need a measurement path whose own rounding floor is
far lower.  Interpolation, differentiation and truncated-expansion errors
get one in double precision from Cauchy's formula (operators.hermite_*_error,
operators.exact_expansion_error); the quadrature error comes from here,
where everything mirrors the double-precision operators with mpmath
arithmetic.

Node starting values come from the fast double path and are Newton-refined
until a step leaves the node unchanged, at most 5 steps.  Only the starts
x0 >= 0 are refined; the rest are their exact negatives (see
gauss_nodes_mp).  The recurrence coefficients are built once per
(lam, degree).

The hot loops (the recurrence sweeps, the barycentric weights and the
barycentric sum inside mp.quad) run on mpmath.libmp raw values (mpf_add,
mpf_mul, ...) at the precision and rounding in force at each call, in the
operation order of mpf operator code.  Every such operation is correctly
rounded, so the results are the same mpf bit for bit; only the object
creation and type dispatch go.  Bit identity matters because at large n the
quadrature error at DPS digits is rounding noise (see quad_error_mp): the
value there is reproducible only by the same roundings.  The measured
function u must map an mpf to an mpf.
"""

import mpmath as mp
from mpmath.libmp import (
    fone,
    fzero,
    from_int,
    mpf_add,
    mpf_div,
    mpf_eq,
    mpf_mul,
    mpf_neg,
    mpf_rdiv_int,
    mpf_sub,
)

from . import nodes as _nodes
from .special import as_param

__all__ = [
    "gauss_nodes_mp",
    "lobatto_nodes_mp",
    "quad_error_mp",
]

# working precision, in decimal digits, of every function here
DPS = 35


def _prec_rounding():
    """(precision in bits, rounding mode) of mpmath's context right now.

    mp.quad raises the working precision around the integrand, so a raw
    kernel reads this at each call rather than fixing DPS's precision.
    """
    return mp.mp._prec_rounding


def _recurrence(lam, n):
    """Coefficients of the forward recurrence up to degree n, built once.

    2 lam for C_1, then (2 (m + lam - 1), m + 2 lam - 2, m) for m = 2..n,
    with m C_m = 2 (m + lam - 1) x C_{m-1} - (m + 2 lam - 2) C_{m-2}; all
    raw mpf values, m exact and the others rounded to the working precision.
    """
    return (2 * lam)._mpf_, [
        ((2 * (m + lam - 1))._mpf_, (m + 2 * lam - 2)._mpf_, from_int(m))
        for m in range(2, n + 1)
    ]


def _geg_last(rec, x, prec, rnd):
    """Raw C_N(x) for rec = _recurrence(lam, N), N >= 1, keeping only the two
    newest values."""
    two_lam, steps = rec
    c_prev, c = fone, mpf_mul(two_lam, x, prec, rnd)
    for a, b, m in steps:
        c_prev, c = c, mpf_div(
            mpf_sub(
                mpf_mul(mpf_mul(a, x, prec, rnd), c, prec, rnd),
                mpf_mul(b, c_prev, prec, rnd),
                prec, rnd,
            ),
            m, prec, rnd,
        )
    return c


def _dgeg(rec, drec, n, x, prec, rnd):
    """Raw C_n'(x) = 2 lam C_{n-1}(x) of the family lam+1;
    drec = _recurrence(lam + 1, n - 1)."""
    c = _geg_last(drec, x, prec, rnd) if n > 1 else fone
    return mpf_mul(rec[0], c, prec, rnd)


def _newton(rec, drec, n, x, prec, rnd):
    """Zero of C_n refined from the raw start x.

    rec = _recurrence(lam, n), drec = _recurrence(lam + 1, n - 1).  Steps
    x - C_n(x) / C_n'(x) until one leaves x unchanged, at most 5 steps.  A
    step is a fixed map of the node, so stopping at its fixed point gives
    what all 5 steps would, bit for bit.
    """
    for _ in range(5):
        step = mpf_sub(
            x,
            mpf_div(_geg_last(rec, x, prec, rnd), _dgeg(rec, drec, n, x, prec, rnd),
                    prec, rnd),
            prec, rnd,
        )
        if mpf_eq(step, x):
            break
        x = step
    return x


def gauss_nodes_mp(param, n: int):
    """Gauss nodes refined to DPS digits.

    Newton runs from the double-path values until a step leaves the node
    unchanged, at most 5 steps.  Only the upper half of the starts (the
    x0 >= 0) is refined; node j of the lower half is the exact negative of
    node n - j.  That is what refining it would give, bit for bit:
    gauss_rule's starts are exactly antisymmetric, mpmath's round-to-nearest
    is sign-symmetric, and the recurrence gives C_m(-x) = (-1)^m C_m(x)
    operation by operation, so a Newton step and the fixed-point test at
    -x0 are exactly the negatives of those at x0.
    """
    p = as_param(param)
    with mp.workdps(DPS):
        prec, rnd = _prec_rounding()
        lam = mp.mpf(p.lam)
        rec, drec = _recurrence(lam, n + 1), _recurrence(lam + 1, n)
        starts = _nodes.gauss_rule(p, n)[0]
        count = len(starts)
        upper = [_newton(rec, drec, n + 1, mp.mpf(float(x0))._mpf_, prec, rnd)
                 for x0 in starts[count // 2:]]
        lower = [mpf_neg(x) for x in reversed(upper[count % 2:])]
        return [mp.make_mpf(x) for x in lower + upper]


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
    """Nodes, barycentric weights 1 / prod_{k != j} (x_j - x_k) (raw products, the
    operations of mpf code) and values of u at the nodes."""
    if family == _nodes.GAUSS:
        xs = gauss_nodes_mp(param, n)
    elif family == _nodes.GAUSS_LOBATTO:
        xs = lobatto_nodes_mp(param, n)
    else:
        raise ValueError(f"unknown family {family!r}")
    prec, rnd = _prec_rounding()
    raw = [x._mpf_ for x in xs]
    b = []
    for j, xj in enumerate(raw):
        prod = fone
        for k, xk in enumerate(raw):
            if k != j:
                prod = mpf_mul(prod, mpf_sub(xj, xk, prec, rnd), prec, rnd)
        b.append(mp.make_mpf(mpf_rdiv_int(1, prod, prec, rnd)))
    return xs, b, [u(x) for x in xs]


def _raw_triples(xs, b, uv):
    """(x_j, b_j, u_j) as raw mpf values, the input of _interpolant_raw."""
    return [(xj._mpf_, bj._mpf_, uj._mpf_) for xj, bj, uj in zip(xs, b, uv)]


def _interpolant_raw(triples, x):
    """Raw second-form barycentric interpolant at the raw point x.

    Operation for operation the mpf code t = b_j / (x - x_j),
    num += t u_j, den += t, num / den, returning u_j when x is node j.
    """
    prec, rnd = _prec_rounding()
    num = den = fzero
    for xj, bj, uj in triples:
        d = mpf_sub(x, xj, prec, rnd)
        if mpf_eq(d, fzero):
            return uj
        t = mpf_div(bj, d, prec, rnd)
        num = mpf_add(num, mpf_mul(t, uj, prec, rnd), prec, rnd)
        den = mpf_add(den, t, prec, rnd)
    return mpf_div(num, den, prec, rnd)


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
        triples = _raw_triples(*_interpolation_data(p, n, family, u))
        expo = lam - mp.mpf(1) / 2
        err = mp.quad(
            lambda x: (u(x) - mp.make_mpf(_interpolant_raw(triples, x._mpf_)))
            * (1 - x * x) ** expo,
            [-1, 0, 1],
        )
        return float(abs(err))
