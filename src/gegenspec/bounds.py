"""Bernstein-ellipse geometry and machine-evaluable maximum-norm error bounds.

The module provides the exact boundary remainder of the normalized polynomial,
its certified upper bounds, the tightness metric used by the large-n studies,
and the interpolation / differentiation / quadrature bounds for both node
families.  Every bound is returned as an itemized BoundBreakdown so reports
can show each constant next to the rate term.  The Lobatto bounds are
T43a(lam) = F T41i(lam+1) and T43b(lam) = F T42(lam+1), F = 4 rho^4/(rho^2-1)^2.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .nodes import GAUSS, GAUSS_LOBATTO
from .poly import calibrated_sup_scale, normalized_on_ellipse
from .special import as_param, d_coeff_sequence, g_coeff_sequence, total_mass

__all__ = [
    "BoundBreakdown",
    "PoleOnContourError",
    "ellipse_points",
    "remainder_exact",
    "remainder_bound",
    "e_n_metrics",
    "quad_bound",
    "rho_scan_grid",
    "scan_sups",
    "minimize_bound_on_grid",
    "Theorem",
    "THEOREMS",
    "lookup_theorem",
]

FLAG_C_ONE = "c set to 1"
FLAG_CALIBRATED = "uses calibrated D_lambda"
FLAG_SKIPPED_RHO = "skipped rho values with non-finite max"

# boundary points per ellipse in every sampled sup M_rho and in E_n
ELLIPSE_SAMPLES = 2048

# boundary points per call of u in scan_sups: the rho block is this many
# points // (samples//2 + 1) rows (31 rows of the 1025 angles a scan with
# ELLIPSE_SAMPLES evaluates), enough to amortize the per-call cost while the
# block's complex temporaries stay around half a megabyte each
_SCAN_POINTS = 1 << 15

# remainder_exact stops its infinite tail once a term is at most this
# fraction of the accumulated sum
_TAIL_RTOL = 1e-17


class PoleOnContourError(ArithmeticError):
    """The sampled function is not finite on the ellipse boundary."""


@dataclass(frozen=True)
class BoundBreakdown:
    """One evaluated upper bound: constant factor, rate factor, their product,
    the parameters that entered, and any caveat flags."""

    theorem_id: str
    constant_factor: float
    rate_factor: float
    total: float
    parameters: dict
    flags: list = field(default_factory=list)
    terms: dict | None = None

    def as_dict(self) -> dict:
        d = {
            "theorem_id": self.theorem_id,
            "constant_factor": self.constant_factor,
            "rate_factor": self.rate_factor,
            "total": self.total,
            "parameters": dict(self.parameters),
            "flags": list(self.flags),
        }
        if self.terms is not None:
            d["terms"] = dict(self.terms)
        return d


def _check_rho(rho: float):
    if not (math.isfinite(rho) and rho > 1.0):
        raise ValueError(f"rho must be finite and > 1, got {rho}")


def ellipse_points(rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Boundary samples (w_j, z_j) of the Bernstein ellipse of radius rho:
    w_j = rho e^{i theta_j} at the ELLIPSE_SAMPLES Fourier angles
    theta_j = 2 pi j / ELLIPSE_SAMPLES, z_j = (w_j + 1/w_j)/2."""
    _check_rho(rho)
    theta = 2.0 * np.pi * np.arange(ELLIPSE_SAMPLES) / ELLIPSE_SAMPLES
    w = rho * np.exp(1j * theta)
    return w, 0.5 * (w + 1.0 / w)


def remainder_exact(param, n: int, rho: float) -> float:
    """Exact boundary remainder: sum_{k=1..n} |d_{n,k}| |g_k| rho^{-2k} plus
    the tail sum_{k>n} |g_k| rho^{-2k}.

    The head is one array expression over the coefficient sequences; the
    infinite tail continues the g_k recurrence from g_n and stops once a term
    is at most _TAIL_RTOL times the accumulated sum (geometric decay; a sum
    that underflows to 0 stops at once).  The tail runs in blocks of
    doubling length, each a running product of the g_k ratios and of q and
    a running sum, so every term and partial sum is the float a term-by-term
    loop gives.  A rho too close to 1 for the tail to stop within `steps`
    terms is a ValueError before it runs.
    """
    lam = as_param(param).lam
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    _check_rho(rho)
    q = rho ** -2.0
    g = g_coeff_sequence(lam, n)
    qk = q ** np.arange(n + 1.0)
    total = (float(np.sum(np.abs(d_coeff_sequence(lam, n)) * np.abs(g[1:]) * qk[1:]))
             if n else 0.0)
    g, qk, k = g[n], qk[n], n
    steps = 100_000_000
    first = float(abs(g * (n + lam) / (n + 1.0)) * qk * q)
    if _tail_outlasts(lam, n, q, total, first, steps):
        raise ValueError(f"rho={rho} is too close to 1: the remainder tail needs more "
                         f"than {steps} terms to converge")
    size = 64
    while k <= n + steps:
        ks = np.arange(k + 1.0, k + size + 1.0)
        gs = np.cumprod(np.concatenate([[g], (ks - 1.0 + lam) / ks]))[1:]
        qks = np.cumprod(np.concatenate([[qk], np.full(size, q)]))[1:]
        terms = np.abs(gs) * qks
        totals = np.cumsum(np.concatenate([[total], terms]))[1:]
        stop = np.flatnonzero(terms <= _TAIL_RTOL * totals)
        if stop.size:
            return float(totals[stop[0]])
        g, qk, total, k = gs[-1], qks[-1], totals[-1], k + size
        size = min(2 * size, 1 << 20)
    raise RuntimeError("tail failed to converge")


def _tail_outlasts(lam, n, q, head, first, steps) -> bool:
    """True if remainder_exact's tail, from the term `first` after the head
    sum `head`, provably cannot stop within `steps` terms.  The terms rise
    up to k = peak: there none is below the first and the sum is at most
    head + (count x term); beyond it none is below the last (bounded by
    Bernoulli's inequality) and the sum is below head + max(1, (1-q)^-lam).
    """
    if not 0.0 < first < math.inf:
        return False
    if first * (1.0 - _TAIL_RTOL * (steps + 1.0)) <= _TAIL_RTOL * head:
        return False
    peak = (lam - 1.0) * q / (1.0 - q)
    if peak >= n + steps + 1.0:
        return True
    if lam >= 1.0:
        log_p = (lam - 1.0) * math.log1p(steps / (n + math.floor(lam) + 1.0))
    else:
        log_p = -(2.0 if lam < 0 else 1.0 - lam) * math.log1p(steps / (n + 1.0))
    log_sum = max(0.0, -lam * math.log1p(-q))
    log_sum += math.log1p(head * math.exp(-log_sum))
    return math.log(first) + steps * math.log(q) + log_p > math.log(_TAIL_RTOL) + log_sum


def _head_factor(lam: float, rho: float) -> float:
    """|(1 - rho^-2)^-lam - 1|, the closed form of the head sum."""
    return abs((1.0 - rho ** -2.0) ** (-lam) - 1.0)


def _m_condition_ok(lam: float, rho: float, m: int) -> bool:
    return m + 2.0 >= (lam - 1.0) * (1.0 / (2.0 * math.log(rho)) - 1.0)


_M_CONDITION_TEXT = "m + 2 >= (lambda - 1) (1/(2 ln rho) - 1)"


def remainder_bound(param, n: int, rho: float, m="auto") -> BoundBreakdown:
    """Certified upper bound for the exact boundary remainder.

    For lam > 1 the bound splits at an index m subject to the admissibility
    condition m + 2 >= (lambda-1)(1/(2 ln rho) - 1); for -1/2 < lam < 1
    (lam != 0, n >= 3) a three-term bound holds for every 1 <= m <= n.
    With m="auto" the total is minimized over all admissible m.
    """
    p = as_param(param)
    lam = p.lam
    _check_rho(rho)
    if lam == 1.0:
        raise ValueError(
            "lambda = 1 is covered by neither branch of the remainder bound "
            "(the remainder is exactly rho^(-2n)/(rho^2-1) there)"
        )
    if n < 1:
        raise ValueError("n must be >= 1")
    case_low = -0.5 < lam < 1.0
    if case_low and n < 3:
        raise ValueError("the -1/2 < lambda < 1 branch requires n >= 3")

    d = d_coeff_sequence(p, n)
    head = _head_factor(lam, rho)
    ms = np.arange(1, n + 1)

    if case_low:
        theorem_id = "T31ii"
        admissible = np.ones(n, dtype=bool)
        t_head = np.abs(d) * head
        t_geo = rho ** (-2.0 * ms.astype(float)) / (rho * rho - 1.0)
        t_end = np.full(n, 2.0 * rho ** (-2.0 * float(n)))
        totals = t_head + t_geo + t_end
        term_names = ("head", "geometric_tail", "endgame")
        term_cols = (t_head, t_geo, t_end)
    else:
        theorem_id = "T31i"
        admissible = np.array([_m_condition_ok(lam, rho, int(mm)) for mm in ms])
        fl = math.floor(lam)
        log_fact = math.lgamma(fl + 1.0)
        a_const = np.exp(
            -math.lgamma(lam)
            + 1.0 / (12.0 * (ms + 1.0 + lam))
            + lam / (2.0 * (ms + 1.0))
        )
        t_head = d * head
        t_tail = a_const * np.exp(
            log_fact
            - lam * math.log(2.0 * math.log(rho))
            + fl * np.log(ms + lam)
            - 2.0 * (ms - 1.0) * math.log(rho)
        )
        totals = t_head + t_tail
        term_names = ("head", "integral_tail")
        term_cols = (t_head, t_tail)

    flags = []
    if m == "auto":
        if not np.any(admissible):
            raise ValueError(
                f"no m in [1, {n}] satisfies the admissibility condition "
                f"{_M_CONDITION_TEXT}"
            )
        masked = np.where(admissible, totals, np.inf)
        idx = int(np.argmin(masked))
        flags.append("m auto-selected")
    else:
        m = int(m)
        if not (1 <= m <= n):
            raise ValueError(f"m must satisfy 1 <= m <= n, got m={m}")
        idx = m - 1
        if not admissible[idx]:
            raise ValueError(
                f"m={m} violates the admissibility condition {_M_CONDITION_TEXT}"
            )
    total = float(totals[idx])
    return BoundBreakdown(
        theorem_id=theorem_id,
        constant_factor=1.0,
        rate_factor=total,
        total=total,
        parameters={"lambda": lam, "n": n, "rho": rho, "m": int(ms[idx])},
        flags=flags,
        terms={name: float(col[idx]) for name, col in zip(term_names, term_cols)},
    )


def e_n_metrics(param, ns, rho: float) -> list[float]:
    """Normalized sup discrepancy between the boundary series and its limit,
    at each degree n in ns.

    E_n = max_z |(1-w^-2)^-lam - C_n(z)/(g_n w^n)| / A(rho, lam) over the
    ellipse_points of rho, with the normalization
    A = |1-lam| |(1-rho^-2)^-lam - 1|; lam = 1 degenerates (A = 0) and is
    rejected.  The points, the limit and A depend only on (lam, rho) and are
    built once for all the degrees.
    """
    p = as_param(param)
    lam = p.lam
    if lam == 1.0:
        raise ValueError("normalization degenerates at lambda = 1 (A = 0)")
    try:
        a_norm = abs(1.0 - lam) * _head_factor(lam, rho)
    except OverflowError:
        a_norm = math.inf
    if a_norm == math.inf:
        raise ValueError(f"the normalization A overflows at lambda={lam}, rho={rho}")
    w, _ = ellipse_points(rho)
    limit = (1.0 - w ** -2.0) ** (-lam)
    return [float(np.max(np.abs(limit - normalized_on_ellipse(p, n, w))) / a_norm)
            for n in ns]


# The interp/diff bounds below are elementwise in rho and M_rho.  Each is
# written once as a factor function (lam, n, rho, m_rho) -> (theorem id,
# flags, constant, rate) on numpy arrays, evaluated once per grid by
# _minimum; a single-rho BoundBreakdown is the grid of one rho.


def _rate(power: float, n: int, rho):
    """n^power / rho^n evaluated in log space."""
    return np.exp(power * math.log(n) - n * np.log(rho))


def _check_bound_args(n: int, rho: float, m_rho: float):
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_rho(rho)
    if not (math.isfinite(m_rho) and m_rho >= 0):
        raise ValueError(f"M_rho must be finite and >= 0, got {m_rho}")


def _minimum(factors, lam: float, n: int, rhos, sups) -> tuple[int, BoundBreakdown]:
    """(i, breakdown at rhos[i]) for the first rho minimising the bound,
    from one evaluation of factors over the grid (non-finite sups count as
    +inf).  A minimum that overflows (a huge rho or M_rho) raises ValueError
    rather than returning a non-finite total."""
    with np.errstate(over="ignore", invalid="ignore"):
        theorem_id, flags, const, rate = factors(lam, n, rhos, sups)
        totals = const * rate
    i = int(np.argmin(np.where(np.isfinite(sups), totals, np.inf)))
    rho, m_rho = float(rhos[i]), float(sups[i])
    if not math.isfinite(totals[i]):
        raise ValueError(f"{theorem_id} bound is not finite at rho={rho:g}, "
                         f"M_rho={m_rho:g}")
    return i, BoundBreakdown(
        theorem_id=theorem_id,
        constant_factor=float(const[i]),
        rate_factor=float(rate[i]),
        total=float(totals[i]),
        parameters={"lambda": lam, "n": n, "rho": rho, "M_rho": m_rho},
        flags=flags,
    )


def _gauss_interp(lam, n, rho, m_rho):
    """Max-norm interpolation error on the Gauss nodes: the lam > 0 branch
    decays like n^lam / rho^n; the -1/2 < lam < 0 branch has no algebraic
    factor and uses the calibrated sup-norm constant."""
    common = m_rho * np.sqrt(rho * rho + rho ** -2.0) / (rho - 1.0) ** 2
    if lam > 0:
        const = (
            math.exp(math.lgamma(lam) - math.lgamma(2.0 * lam))
            * common
            * (1.0 + rho ** -2.0) ** lam
        )
        return "T41i", [FLAG_C_ONE], const, _rate(lam, n, rho)
    const = (
        calibrated_sup_scale(lam)
        * math.exp(math.lgamma(lam))
        * common
        * (1.0 - rho ** -2.0) ** lam
    )
    return "T41ii", [FLAG_C_ONE, FLAG_CALIBRATED], const, _rate(0.0, n, rho)


def _gauss_diff(lam, n, rho, m_rho):
    """Max node-differencing error on the Gauss nodes: rate n^(lam+2)/rho^n."""
    branch = (1.0 + rho ** -2.0) ** lam if lam > 0 else (1.0 - rho ** -2.0) ** lam
    const = (
        2.0
        * math.exp(math.lgamma(lam + 1.0) - math.lgamma(2.0 * lam + 2.0))
        * m_rho
        * np.sqrt(rho * rho + rho ** -2.0)
        * branch
        / (rho - 1.0) ** 2
    )
    return "T42", [FLAG_C_ONE], const, _rate(lam + 2.0, n, rho)


def _lobatto(gauss, theorem_id):
    """The Lobatto form of a Gauss factor function (Theorem 4.3).  The
    Lobatto points are +-1 plus the Gauss points of family lam+1, so the
    bound is the lam+1 Gauss bound times the endpoint factor
    F = rho^2 / b^2 = 4 rho^4 / (rho^2 - 1)^2, b^2 = ((rho - 1/rho)/2)^2 the
    minimum of |1 - z^2| on the ellipse of radius rho."""
    def factors(lam, n, rho, m_rho):
        _, flags, const, rate = gauss(lam + 1.0, n, rho, m_rho)
        endpoint = (2.0 * rho * rho / ((rho - 1.0) * (rho + 1.0))) ** 2
        return theorem_id, flags, endpoint * const, rate
    return factors


@dataclass(frozen=True)
class Theorem:
    """One theorem ID of the registry.

    factors is the elementwise (lam, n, rho, m_rho) form of an operator
    bound, used for rho scans, and None for the remainder bounds, which take
    no M_rho.  lam_ok(lam) is the lambda domain and lam_text the error naming
    it; family is the node family of the operator bounds (None for the
    remainder).
    """

    factors: Callable | None
    kind: str
    family: str | None
    lam_ok: Callable = lambda lam: True
    lam_text: str = ""

    def bound(self, param, n: int, rho: float, arg) -> BoundBreakdown:
        """The bound at one rho as a BoundBreakdown; arg is M_rho for the
        operator bounds and the split index m for the remainder bounds."""
        if self.factors is None:
            return remainder_bound(param, n, rho, arg)
        _check_bound_args(n, rho, arg)
        return _minimum(self.factors, as_param(param).lam, n,
                        np.array([rho], float), np.array([arg], float))[1]


THEOREMS = {
    "T31i": Theorem(
        None, "remainder", None, lambda lam: lam > 1.0,
        "the T31i branch requires lambda > 1 (its admissibility condition "
        f"{_M_CONDITION_TEXT} only arises there)",
    ),
    "T31ii": Theorem(
        None, "remainder", None, lambda lam: -0.5 < lam < 1.0,
        "the T31ii branch requires -1/2 < lambda < 1",
    ),
    "T41": Theorem(_gauss_interp, "interp", GAUSS),
    "T41i": Theorem(
        _gauss_interp, "interp", GAUSS, lambda lam: lam > 0.0,
        "T41i requires lambda > 0",
    ),
    "T41ii": Theorem(
        _gauss_interp, "interp", GAUSS, lambda lam: lam < 0.0,
        "T41ii requires -1/2 < lambda < 0",
    ),
    "T42": Theorem(_gauss_diff, "diff", GAUSS),
    "T43a": Theorem(_lobatto(_gauss_interp, "T43a"), "interp", GAUSS_LOBATTO),
    "T43b": Theorem(_lobatto(_gauss_diff, "T43b"), "diff", GAUSS_LOBATTO),
}


def lookup_theorem(theorem_id: str, lam: float) -> Theorem:
    """The registry entry of theorem_id; ValueError if the id is unknown or
    lam lies outside its lambda domain."""
    if theorem_id not in THEOREMS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    theorem = THEOREMS[theorem_id]
    if not theorem.lam_ok(lam):
        raise ValueError(theorem.lam_text)
    return theorem


def quad_bound(param, interp_breakdown: BoundBreakdown) -> BoundBreakdown:
    """Weighted-integral error bound: total mass factor h_0 times an
    interpolation bound (Gauss or Lobatto)."""
    p = as_param(param)
    theorem = THEOREMS.get(interp_breakdown.theorem_id)
    if theorem is None or theorem.kind != "interp":
        raise ValueError("quad_bound needs an interpolation breakdown, "
                         f"got {interp_breakdown.theorem_id}")
    h0 = total_mass(p)
    params = dict(interp_breakdown.parameters)
    params["h0"] = h0
    return BoundBreakdown(
        theorem_id="Quad",
        constant_factor=h0 * interp_breakdown.constant_factor,
        rate_factor=interp_breakdown.rate_factor,
        total=h0 * interp_breakdown.constant_factor * interp_breakdown.rate_factor,
        parameters=params,
        flags=list(interp_breakdown.flags),
    )


def rho_scan_grid(rho_min: float, rho_max: float, count: int) -> np.ndarray:
    """count equally spaced rho values strictly inside (rho_min, rho_max).

    The grid lives on [rho_min + h, rho_max - h] with h = (rho_max -
    rho_min)/count, so a singularity sitting exactly on either endpoint's
    ellipse is never sampled and rho_min = 1 is allowed.
    """
    if not (1.0 <= rho_min < rho_max):
        raise ValueError("need 1 <= rho_min < rho_max")
    if count < 2:
        raise ValueError("count must be >= 2")
    h = (rho_max - rho_min) / count
    return np.linspace(rho_min + h, rho_max - h, count)


def scan_sups(u, rhos, samples: int = ELLIPSE_SAMPLES):
    """Boundary sups of |u| for each rho; non-finite entries become NaN.

    u must be real on [-1, 1], u(conj z) = conj u(z), so |u| takes the same
    value at the conjugate angles theta_j and theta_{samples-j}.  u is
    evaluated only at theta_j = 2 pi j / samples for j = 0..samples//2, and
    the sup still covers all `samples` angles, for even and odd counts.  The
    points z = a cos theta + i b sin theta, a, b = (rho +- 1/rho)/2, come from
    real arithmetic, and u is called on blocks of several ellipses at once,
    raveled to 1-D.

    A u with a `peak_angle` attribute theta* in [0, pi] declares that on
    every ellipse |u| is largest at theta* and falls as theta moves away
    from it on [0, pi]; scan_sups does not check this.  u is then evaluated
    only at the one or two sampled angles next to theta*, j =
    floor(theta* samples / 2 pi) and ceil(...) within 0..samples//2, which
    hold the sample max.  Those points are the same floats as on the full
    path, so the sups are too.  A theta* outside [0, pi] is a ValueError.

    Returns (sups, any_skipped).  The sups depend on u and rho only, so
    callers scanning many degrees should compute them once.  Raises
    PoleOnContourError when every rho has a non-finite sample; a pole merely
    near a contour gives a huge finite sup instead, which is the caller's
    concern.
    """
    rhos = np.asarray(rhos, dtype=float)
    if not np.all(rhos > 1.0):
        raise ValueError("rho must be > 1")
    if samples < 4:
        raise ValueError("samples must be >= 4")
    first, last = 0, samples // 2
    peak = getattr(u, "peak_angle", None)
    if peak is not None:
        if not 0.0 <= peak <= math.pi:
            raise ValueError(f"peak_angle must lie in [0, pi], got {peak}")
        at = peak * samples / (2.0 * math.pi)
        first, last = min(math.floor(at), last), min(math.ceil(at), last)
    theta = 2.0 * np.pi * np.arange(first, last + 1) / samples
    cos, sin = np.cos(theta), np.sin(theta)
    rows = max(1, _SCAN_POINTS // len(theta))
    sups = np.empty(len(rhos))
    for start in range(0, len(rhos), rows):
        r = rhos[start:start + rows, None]
        z = np.empty((len(r), len(theta)), dtype=complex)
        np.multiply(0.5 * (r + 1.0 / r), cos, out=z.real)
        np.multiply(0.5 * (r - 1.0 / r), sin, out=z.imag)
        z = z.ravel()
        vals = np.abs(np.broadcast_to(u(z), z.shape)).reshape(len(r), len(theta))
        sups[start:start + rows] = np.max(vals, axis=1)
    sups[~np.isfinite(sups)] = np.nan
    skipped = bool(np.any(np.isnan(sups)))
    if skipped and np.all(np.isnan(sups)):
        raise PoleOnContourError("every scanned rho had a non-finite boundary max")
    return sups, skipped


def minimize_bound_on_grid(
    param, n: int, which: str, rhos, sups, skipped: bool = False
) -> tuple[float, BoundBreakdown]:
    """Pick the rho from the precomputed (rhos, sups) grid minimizing a bound.

    The bound is evaluated on the whole grid at once, non-finite sups count
    as +inf, and the first minimum wins; the returned breakdown is that grid
    point's, equal to the single-rho bound there.
    """
    p = as_param(param)
    theorem = lookup_theorem(which, p.lam)
    if theorem.factors is None:
        raise ValueError(f"{which} takes no M_rho, so it has no rho scan")
    rhos = np.asarray(rhos, dtype=float)
    sups = np.asarray(sups, dtype=float)
    finite = np.isfinite(sups)
    if not np.any(finite):
        raise PoleOnContourError("every scanned rho had a non-finite boundary max")
    _check_bound_args(n, float(np.min(rhos[finite])), float(np.min(sups[finite])))
    i, best = _minimum(theorem.factors, p.lam, n, rhos, sups)
    if skipped:
        best = replace(best, flags=best.flags + [FLAG_SKIPPED_RHO])
    return float(rhos[i]), best

