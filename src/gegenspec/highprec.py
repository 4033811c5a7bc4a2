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
barycentric sum inside mp.quad) run on plain integers: a value is a pair
(man, exp) of a signed int mantissa and an int exponent, worth man 2^exp.
Each add, sub, mul and div is first done exactly in integers (operands
aligned to the smaller exponent; a quotient of at least prec + 2 bits gets
a sticky bit for its remainder) and then cut by one shared round-half-even
step, _round, to the precision of mpmath's context at the call, in the
operation order of mpf operator code.  mpmath's context rounds to nearest,
and a correctly rounded result is unique, so each is the mpf that mpmath's
own operation gives, bit for bit; only libmp's tuple unpacking,
normalisation and dispatch go.  The pairs become mpf values
(libmp.from_man_exp) only at the outputs.  Bit identity matters because at
large n the quadrature error at DPS digits is rounding noise (see
quad_error_mp): the value there is reproducible only by the same roundings.
The measured function u must map an mpf to an mpf.

The package does not import this module: experiments.measure_quad_error
imports it at its first escalation, and mpmath loads with it.
"""

import mpmath as mp
from mpmath.libmp import from_man_exp

from . import nodes as _nodes
from .special import as_param

__all__ = [
    "gauss_nodes_mp",
    "lobatto_nodes_mp",
    "quad_error_mp",
]

# working precision, in decimal digits, of every function here
DPS = 35

_ONE = (1, 0)


def _pair(v):
    """(man, exp) of the mpf v."""
    sign, man, exp, _ = v._mpf_
    return -man if sign else man, exp


def _mpf(a):
    """The mpf worth the pair a."""
    return mp.make_mpf(from_man_exp(*a))


def _round(man, exp, prec):
    """man 2^exp rounded half to even to prec bits, as a pair.

    The signed shifts floor, so t's low bit says the dropped part is at
    least half an ulp and the bits below it say whether it is more; an
    exact half rounds up only from an odd t >> 1.
    """
    n = man.bit_length() - prec
    if n <= 0:
        return man, exp
    t = man >> (n - 1)
    if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
        return (t >> 1) + 1, exp + n
    return t >> 1, exp + n


def _sub(a, b, prec):
    """a - b, aligned exactly, then rounded.  The exponent gaps met here
    stay within a few hundred bits, so the exact shift costs little."""
    (m, e), (k, f) = a, b
    if e < f:
        return _round(m - (k << (f - e)), e, prec)
    return _round((m << (e - f)) - k, f, prec)


def _mul(a, b, prec):
    return _round(a[0] * b[0], a[1] + b[1], prec)


def _div(a, b, prec):
    """a / b rounded: a quotient of at least prec + 2 bits, then a sticky
    bit if the remainder is not zero.

    divmod floors for either sign, so the true value lies inside (q, q + 1),
    which holds no rounding boundary at that length; q + 1/2 rounds the same.
    """
    (m, e), (k, f) = a, b
    s = max(prec + 2 + k.bit_length() - m.bit_length(), 0)
    q, r = divmod(m << s, k)
    if r:
        return _round(2 * q + 1, e - f - s - 1, prec)
    return _round(q, e - f - s, prec)


def _recurrence(lam, n):
    """Coefficients of the forward recurrence up to degree n, built once.

    2 lam for C_1, then (2 (m + lam - 1), m + 2 lam - 2, m) for m = 2..n,
    with m C_m = 2 (m + lam - 1) x C_{m-1} - (m + 2 lam - 2) C_{m-2}; the
    pairs flattened, m exact and the others rounded to the working precision.
    """
    return _pair(2 * lam), [
        (*_pair(2 * (m + lam - 1)), *_pair(m + 2 * lam - 2), (m, 0))
        for m in range(2, n + 1)
    ]


def _geg_last(rec, x, prec):
    """C_N(x) for rec = _recurrence(lam, N), N >= 1, keeping only the two
    newest values: _mul and _sub written out around _round."""
    two_lam, steps = rec
    xm, xe = x
    pm, pe = _ONE
    cm, ce = _mul(two_lam, x, prec)
    for am, ae, bm, be, m in steps:
        am, ae = _round(am * xm, ae + xe, prec)
        am, ae = _round(am * cm, ae + ce, prec)
        bm, be = _round(bm * pm, be + pe, prec)
        pm, pe = cm, ce
        cm, ce = _div(_round(am - (bm << (be - ae)), ae, prec) if ae < be
                      else _round((am << (ae - be)) - bm, be, prec), m, prec)
    return cm, ce


def _dgeg(rec, drec, n, x, prec):
    """C_n'(x) = 2 lam C_{n-1}(x) of the family lam+1;
    drec = _recurrence(lam + 1, n - 1)."""
    c = _geg_last(drec, x, prec) if n > 1 else _ONE
    return _mul(rec[0], c, prec)


def _newton(rec, drec, n, x, prec):
    """Zero of C_n refined from the start x.

    rec = _recurrence(lam, n), drec = _recurrence(lam + 1, n - 1).  Steps
    x - C_n(x) / C_n'(x) until one leaves x unchanged, at most 5 steps.  A
    step is a fixed map of the node, so stopping at its fixed point gives
    what all 5 steps would, bit for bit.
    """
    for _ in range(5):
        step = _sub(x, _div(_geg_last(rec, x, prec), _dgeg(rec, drec, n, x, prec),
                            prec), prec)
        if not _sub(step, x, prec)[0]:
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
        prec = mp.mp.prec
        lam = mp.mpf(p.lam)
        rec, drec = _recurrence(lam, n + 1), _recurrence(lam + 1, n)
        starts = _nodes.gauss_rule(p, n)[0]
        count = len(starts)
        upper = [_newton(rec, drec, n + 1, _pair(mp.mpf(float(x0))), prec)
                 for x0 in starts[count // 2:]]
        lower = [(-m, e) for m, e in reversed(upper[count % 2:])]
        return [_mpf(x) for x in lower + upper]


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
    """Nodes, barycentric weights 1 / prod_{k != j} (x_j - x_k) (products
    in the order of mpf code) and values of u at the nodes."""
    if family == _nodes.GAUSS:
        xs = gauss_nodes_mp(param, n)
    elif family == _nodes.GAUSS_LOBATTO:
        xs = lobatto_nodes_mp(param, n)
    else:
        raise ValueError(f"unknown family {family!r}")
    prec = mp.mp.prec
    pairs = [_pair(x) for x in xs]
    b = []
    for j, xj in enumerate(pairs):
        prod = _ONE
        for k, xk in enumerate(pairs):
            if k != j:
                prod = _mul(prod, _sub(xj, xk, prec), prec)
        b.append(_mpf(_div(_ONE, prod, prec)))
    return xs, b, [u(x) for x in xs]


def _node_triples(xs, b, uv):
    """(x_j, b_j, u_j) as pairs, flattened into one tuple per node: the
    input of _interpolant."""
    return [(*_pair(xj), *_pair(bj), *_pair(uj)) for xj, bj, uj in zip(xs, b, uv)]


def _interpolant(triples, x):
    """Second-form barycentric interpolant at the mpf x, as an mpf.

    Operation for operation the mpf code t = b_j / (x - x_j),
    num += t u_j, den += t, num / den, returning u_j when x is node j.
    The loop is _sub, _div, _mul and additions written out around _round,
    at the precision in force at the call: mp.quad raises it around the
    integrand.
    """
    prec = mp.mp.prec
    xm, xe = _pair(x)
    nm = ne = dm = de = 0
    for km, ke, bm, be, um, ue in triples:
        if xe < ke:
            m, e = _round(xm - (km << (ke - xe)), xe, prec)
        else:
            m, e = _round((xm << (xe - ke)) - km, ke, prec)
        if not m:
            return _mpf((um, ue))
        s = prec + 2 + m.bit_length() - bm.bit_length()
        if s < 0:
            s = 0
        q, r = divmod(bm << s, m)
        tm, te = _round(2 * q + 1, be - e - s - 1, prec) if r else _round(q, be - e - s, prec)
        m, e = _round(tm * um, te + ue, prec)
        nm, ne = (_round(nm + (m << (e - ne)), ne, prec) if ne < e
                  else _round((nm << (ne - e)) + m, e, prec))
        dm, de = (_round(dm + (tm << (te - de)), de, prec) if de < te
                  else _round((dm << (de - te)) + tm, te, prec))
    return _mpf(_div((nm, ne), (dm, de), prec))


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
        triples = _node_triples(*_interpolation_data(p, n, family, u))
        expo = lam - mp.mpf(1) / 2
        err = mp.quad(
            lambda x: (u(x) - _interpolant(triples, x)) * (1 - x * x) ** expo,
            [-1, 0, 1],
        )
        return float(abs(err))
