"""Arbitrary-precision quadrature and expansion error measurements (mpmath).

Spectral errors decay below the double-precision noise floor long before
the certified bounds stop shrinking, so honest bound-versus-error
comparisons at large n need a measurement path whose own rounding floor is
far lower.  Interpolation and differentiation errors get one in double
precision from Hermite's formula (operators.hermite_*_error); the quadrature
and truncated-expansion errors come from here, where everything mirrors
the double-precision operators with mpmath arithmetic.

Node starting values come from the fast double path and are Newton-refined
until a step leaves the node unchanged, at most 5 steps.  Only the starts
x0 >= 0 are refined; the rest are their exact negatives (see
gauss_nodes_mp).  The expansion error likewise takes the C_l at the
mirrored quadrature nodes and grid points by sign flips.  The recurrence
coefficients are built once per (lam, degree).

The hot loops (the recurrence sweeps, the barycentric weights and the
barycentric sum inside mp.quad, the expansion sums) run on mpmath.libmp raw
values (mpf_add, mpf_mul, ...) at the precision and rounding in force at
each call, in the operation order of mpf operator code.  Every such
operation is correctly rounded, so the results are the same mpf bit for
bit; only the object creation and type dispatch go.  Bit identity matters
because at large n the quadrature error at DPS digits is rounding noise
(see quad_error_mp): the value there is reproducible only by the same
roundings.  The measured function u must map an mpf to an mpf.
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
    mpf_sum,
)

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


def _geg_values(rec, n, x, prec, rnd):
    """Raw [C_0(x), ..., C_n(x)] at a raw point; rec = _recurrence(lam, N), N >= n."""
    two_lam, steps = rec
    vals = [fone]
    if n >= 1:
        c_prev, c = fone, mpf_mul(two_lam, x, prec, rnd)
        vals.append(c)
        for a, b, m in steps[: n - 1]:
            c_prev, c = c, mpf_div(
                mpf_sub(
                    mpf_mul(mpf_mul(a, x, prec, rnd), c, prec, rnd),
                    mpf_mul(b, c_prev, prec, rnd),
                    prec, rnd,
                ),
                m, prec, rnd,
            )
            vals.append(c)
    return vals


def _geg_last(rec, x, prec, rnd):
    """Raw C_N(x) for rec = _recurrence(lam, N), N >= 1: _geg_values' last
    entry, keeping only the two newest values."""
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


def _flip_odd(vals):
    """Raw values indexed by degree l with the odd-l ones negated: from
    C_l(x) (or c_l C_l(x)) at x, the same at -x, since C_l(-x) = (-1)^l C_l(x)
    operation by operation."""
    return [mpf_neg(v) if l % 2 else v for l, v in enumerate(vals)]


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


def _h_norm_mp(lam, n):
    """Squared weighted norm h_n of the degree-n polynomial (see special.h_norm)."""
    return (
        2 ** (1 - 2 * lam)
        * mp.pi
        * mp.gamma(n + 2 * lam)
        / (mp.gamma(lam) ** 2 * mp.factorial(n) * (n + lam))
    )


def _grid_mp():
    """The GRID_SIZE-point uniform grid on [-1, 1] at working precision;
    exactly antisymmetric, each point being one rounded division of integers."""
    m = GRID_SIZE - 1
    return (mp.mpf(2 * i - m) / m for i in range(GRID_SIZE))


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


def _interpolant_mp(xs, b, uv, x):
    """Second-form barycentric interpolant at x; uv[j] exactly at node j."""
    return mp.make_mpf(_interpolant_raw(_raw_triples(xs, b, uv), mp.convert(x)._mpf_))


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
        prec, rnd = _prec_rounding()
        # the nodes pair up as y, -y (gauss_nodes_mp): C_0 .. C_nn from one
        # sweep at each upper-half node, and by sign flips at its mirror
        upper = ys[npts // 2:]
        tables = [_geg_values(rec, nn, y._mpf_, prec, rnd) for y in upper]
        tables = [_flip_odd(t) for t in reversed(tables)] + tables
        # classical weights (k_{N}/k_{N-1}) h_{N-1} / (C_{N-1}(y) C'_N(y)),
        # even in y since nn is odd and both factors flip sign at -y
        scale = (2 * (nn + lam) / (nn + 1) * _h_norm_mp(lam, nn))._mpf_
        ws = []
        for t, y in zip(tables[npts // 2:], upper):
            dc = _dgeg(rec, drec, npts, y._mpf_, prec, rnd)
            ws.append(mpf_div(scale, mpf_mul(t[nn], dc, prec, rnd), prec, rnd))
        wu = [mpf_mul(w, u(y)._mpf_, prec, rnd) for w, y in zip(ws[::-1] + ws, ys)]
        # mp.fsum of the terms w u(y) C_l(y) is mpf_sum at the context precision
        coeffs = []
        for l in range(n + 1):
            terms = [mpf_mul(a, t[l], prec, rnd) for a, t in zip(wu, tables)]
            coeffs.append(mpf_div(mpf_sum(terms, prec, rnd), _h_norm_mp(lam, l)._mpf_,
                                  prec, rnd))
        # grid point GRID_SIZE - 1 - i is -grid[i]: the terms c_l C_l there
        # are those at grid[i] with the odd ones negated (c_0 C_0 = c_0)
        grid = list(_grid_mp())
        worst = mp.mpf(0)
        for i in range(GRID_SIZE // 2, GRID_SIZE):
            vals = _geg_values(rec, n, grid[i]._mpf_, prec, rnd)
            terms = [mpf_mul(c, v, prec, rnd) for c, v in zip(coeffs, vals)]
            points = [(grid[i], terms)]
            if GRID_SIZE - 1 - i < i:
                points.append((grid[GRID_SIZE - 1 - i], _flip_odd(terms)))
            for xg, ts in points:
                acc = ts[0]
                for t in ts[1:]:
                    acc = mpf_add(acc, t, prec, rnd)
                worst = max(worst, abs(mp.make_mpf(acc) - u(xg)))
        return float(worst)
