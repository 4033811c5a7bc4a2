"""Experiment harness: node dumps, tightness studies, bound-versus-error runs.

Measured errors escalate whenever the double path returns a value below
1e-8 or below FLOOR_MULTIPLE times its own rounding floor, eps times the
largest sum of |term| that forms one computed value (the products D_jk u(x_k)
of a derivative, l_j(x) u(x_j) of an interpolant, w_j u(x_j) of a weighted
sum, together with the exact integral it is compared with): node-differencing
noise grows like n^2 * eps, so beyond n ~ 45 a double measurement would sit
orders of magnitude above the true error while the certified bound keeps
shrinking.  Interpolation and differentiation errors escalate to Hermite's
formula in double precision (operators.hermite_*_error), which has no such
floor; quadrature errors, measured against the exact integral of w u
(operators.weighted_integral), escalate to 35-digit mpmath (highprec).  The
expansion error needs no escalation: operators.exact_expansion_error has no
floor.

highprec, and with it mpmath, is imported at the first quadrature
escalation; the study functions take mpmath's exp on mpmath scalars without
importing mpmath themselves.
"""

import cmath
import io
import json
import math
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

from .bounds import (
    ELLIPSE_SAMPLES,
    THEOREMS,
    e_n_metrics,
    lookup_theorem,
    minimize_bound_on_grid,
    quad_bound,
    rho_scan_grid,
    scan_sups,
)
from .nodes import (
    GAUSS,
    GAUSS_LOBATTO,
    _lagrange_matrix,
    gauss_lobatto_nodes,
    gauss_nodes,
)
from .operators import (
    GRID_SIZE,
    diff_matrix,
    exact_expansion_error,
    hermite_diff_error,
    hermite_interp_error,
    weighted_integral,
)
from .special import GegenbauerParam, as_param

__all__ = [
    "ConfigError",
    "DominanceError",
    "ExperimentConfig",
    "ExperimentRecord",
    "TEST_FUNCTIONS",
    "CUSTOM_RATIONAL",
    "DEFAULT_FIG2_GRID",
    "ELLIPSE_SAMPLES",
    "RHO_SUP_UNIT_POLES",
    "TestFunction",
    "make_rational",
    "resolve_function",
    "measure_diff_error",
    "measure_interp_error",
    "measure_quad_error",
    "measure_expansion_error",
    "scan_function",
    "certify",
    "fit_log_slope",
    "run_nodes",
    "fig2_n_values",
    "run_fig2",
    "run_fig3",
    "run_bounds",
    "run_expansion_decay",
    "format_csv",
    "format_rows",
    "row_dicts",
]


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


class DominanceError(RuntimeError):
    """A measured error exceeded 1.25x its certified bound (CLI exit code 3)."""


# poles at +-i reach the ellipse boundary when (rho - 1/rho)/2 = 1; every
# rho scan ends there, or earlier at the function's own rho_sup
RHO_SUP_UNIT_POLES = 1.0 + math.sqrt(2.0)
# radii in every rho scan
RHO_COUNT = 2000

MP_ESCALATE_BELOW = 1e-8
# a float64 error also escalates below this many times its own rounding
# floor: near lam = -1/2 the quad mass h_0 is huge, and at large lam and n
# the diff and interp sums cancel, so that floor can lie far above
# MP_ESCALATE_BELOW
FLOOR_MULTIPLE = 64
DOMINANCE_SLACK = 1.25
SLOPE_TARGET = -math.log(1.0 + math.sqrt(2.0))
SLOPE_WINDOW = (20, 60)
KINDS = ("diff", "interp", "quad")

DEFAULT_FIG2_GRID = ((1.5, 1.8), (0.5, 1.4), (3.2, 2.0), (-0.3, 2.0))


@dataclass(frozen=True)
class TestFunction:
    """A built-in study function with hard-coded analytic derivative.

    The callables are polymorphic: they accept numpy arrays (real or complex)
    and mpmath scalars alike.  poles lists the principal parts of u, each
    (a, (c_1,)) or (a, (c_1, c_2)) for the terms c_k / (z - a)^k: poles of
    order at most 2, the residues the exact-error kernels take.  u is
    analytic everywhere else.  Every built-in u has a peak_angle attribute
    (bounds.scan_sups): the angle in [0, pi] at which |u| is largest on
    every Bernstein ellipse.  Declaring it asserts that |u| falls as the
    angle moves away from it, which scan_sups does not check; it lives on u
    because scan_sups takes only the callable.
    """

    name: str
    u: object
    du: object
    poles: tuple

    @property
    def rho_sup(self) -> float | None:
        """Supremum of admissible ellipse radii: the radius of the Bernstein
        ellipse through the nearest pole (None when u is entire)."""
        radii = []
        for a, _ in self.poles:
            w = cmath.sqrt(a * a - 1)
            radii.append(max(abs(a + w), abs(a - w)))
        return min(radii, default=None)


def _exp(x):
    # an mpmath scalar means mpmath is already loaded
    mp = sys.modules.get("mpmath")
    if mp is not None and isinstance(x, (mp.mpf, mp.mpc)):
        return mp.exp(x)
    return np.exp(x)


# |e^z| = e^(a cos theta) on the ellipse: largest at the right vertex
_exp.peak_angle = 0.0


# the function id of make_rational, whose pole height comes from the config
CUSTOM_RATIONAL = "custom-rational"
# its pole height s when the config sets none
POLE_IMAG = 0.8
# the smallest pole height s: there 1/(x^2 + s^2) peaks at 1e200 and its
# derivative near 6.5e299; lower, they and the second-kind ratios overflow
MIN_POLE_IMAG = 1e-100


def make_rational(pole_imag: float, order: int = 1) -> TestFunction:
    """1/(x^2 + s^2)^order, order 1 or 2, with poles at +-is; admissible
    rho < s + sqrt(s^2+1).

    u.peak_angle = pi/2: on every ellipse z = a cos theta + i b sin theta,
    |u| is largest at z = ib and falls as theta moves away from pi/2.  With
    t = cos 2 theta, |z^2 + s^2|^2 = (c + A t)^2 + B^2 (1 - t^2), where
    c = 1/2 + s^2, A = (rho^2 + rho^-2)/4 and B = (rho^2 - rho^-2)/4.  Since
    A^2 - B^2 = 1/4, its t-derivative is 2 c A + t/2 >= 0 on [-1, 1], so
    |z^2 + s^2| is least at t = -1, theta = pi/2.
    """
    if order not in (1, 2):
        raise ValueError(f"make_rational takes order 1 or 2, got {order!r}")
    s2 = pole_imag * pole_imag
    a = 1j * pole_imag
    # the principal part at a; at -a the 1/(z + a) term flips sign
    c = (-0.5j / pole_imag,) if order == 1 else (-0.25j / pole_imag ** 3, -0.25 / s2)
    # not ** order: numpy takes y ** 1 of a complex array by its slow general power
    u = (lambda x: 1 / (x * x + s2)) if order == 1 else (lambda x: 1 / (x * x + s2) ** 2)
    u.peak_angle = math.pi / 2
    return TestFunction(
        name=f"{CUSTOM_RATIONAL}(s={pole_imag:g})" + ("^2" if order == 2 else ""),
        u=u,
        du=lambda x: -2 * order * x / (x * x + s2) ** (order + 1),
        poles=((a, c), (-a, (-c[0], *c[1:]))),
    )


TEST_FUNCTIONS = {
    "runge1": replace(make_rational(1.0), name="runge1"),
    "runge2": replace(make_rational(1.0, 2), name="runge2"),
    "exp": TestFunction("exp", _exp, _exp, ()),
}


def resolve_function(function_id: str, pole_imag: float = POLE_IMAG) -> TestFunction:
    if function_id in TEST_FUNCTIONS:
        return TEST_FUNCTIONS[function_id]
    if function_id == CUSTOM_RATIONAL:
        if not (math.isfinite(pole_imag) and pole_imag >= MIN_POLE_IMAG):
            raise ConfigError(f"{CUSTOM_RATIONAL} needs a finite pole height of at "
                              f"least {MIN_POLE_IMAG:g}, got {pole_imag}")
        return make_rational(pole_imag)
    raise ConfigError(f"unknown function id {function_id!r}")


def _is_real(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_pair(v):
    return isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_real, v))


def _as_tuple(key, value, is_item, what):
    """value as a tuple if it is a list or tuple of items passing is_item,
    else ConfigError naming key."""
    if not isinstance(value, (list, tuple)) or not all(map(is_item, value)):
        raise ConfigError(f"{key} must be a list of {what}, got {value!r}")
    return tuple(value)


@dataclass
class ExperimentConfig:
    """Study configuration; JSON-loadable, with CLI flag overrides.  List
    fields are checked and stored as tuples."""

    lambda_list: tuple = (0.5, 1.5)
    n_list: tuple = tuple(range(8, 68, 4))
    function_id: str = "runge1"
    node_family: str = GAUSS
    fig2_grid: tuple = DEFAULT_FIG2_GRID
    rational_pole_imag: float = POLE_IMAG

    def __post_init__(self):
        self.lambda_list = _as_tuple("lambda_list", self.lambda_list, _is_real, "numbers")
        self.n_list = _as_tuple("n_list", self.n_list, _is_int, "integers")
        self.fig2_grid = tuple(map(tuple, _as_tuple(
            "fig2_grid", self.fig2_grid, _is_pair, "[lambda, rho] pairs")))
        if not _is_real(self.rational_pole_imag):
            raise ConfigError(f"rational_pole_imag must be a number, "
                              f"got {self.rational_pole_imag!r}")
        if not isinstance(self.function_id, str):
            raise ConfigError(f"function_id must be a string, got {self.function_id!r}")
        if not self.lambda_list:
            raise ConfigError("lambda_list must be nonempty")
        for lam in self.lambda_list:
            try:
                GegenbauerParam(lam)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if not self.n_list:
            raise ConfigError("n_list must be nonempty")
        if list(self.n_list) != sorted(self.n_list):
            raise ConfigError("n_list must be ascending")
        if self.node_family not in (GAUSS, GAUSS_LOBATTO):
            raise ConfigError(f"unknown node family {self.node_family!r}")
        resolve_function(self.function_id, self.rational_pole_imag)

    @classmethod
    def from_json(cls, path: str, keys, **overrides) -> "ExperimentConfig":
        """The config of the JSON object at path, which may set only the
        fields named in keys; overrides that are not None win over it."""
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {data!r}")
        unknown = sorted(set(data) - set(keys))
        if unknown:
            raise ConfigError(f"config keys {unknown} not accepted; "
                              f"accepted keys: {', '.join(keys)}")
        data.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**data)


@dataclass(frozen=True)
class ExperimentRecord:
    """One (lambda, n, family) row; backend is "float64", "hermite" or "mpmath"."""

    lam: float
    n: int
    family: str
    measured_error: float
    backend: str
    bound_total: float
    rho_star: float
    flags: tuple

    def __post_init__(self):
        if self.measured_error < 0:
            raise ValueError("measured_error must be >= 0")
        if not (math.isfinite(self.bound_total) and math.isfinite(self.rho_star)):
            raise ValueError("bound fields must be finite")

    @property
    def exceeds_bound(self) -> bool:
        """True for a dominance violation: measured > DOMINANCE_SLACK x bound."""
        return self.measured_error > DOMINANCE_SLACK * self.bound_total


def _node_set(param, n, family):
    if family == GAUSS:
        return gauss_nodes(param, n)
    if family == GAUSS_LOBATTO:
        return gauss_lobatto_nodes(param, n)
    raise ConfigError(f"unknown node family {family!r}")


def _escalate(err, abs_sum, exact, backend):
    """(err, "float64") if the double measurement err is at least
    MP_ESCALATE_BELOW and FLOOR_MULTIPLE times its rounding floor
    eps * abs_sum, else (exact(), backend)."""
    floor = np.finfo(float).eps * abs_sum
    if err >= max(MP_ESCALATE_BELOW, FLOOR_MULTIPLE * floor):
        return err, "float64"
    return exact(), backend


def measure_diff_error(param, n, family, fn: TestFunction):
    """Max node-differencing error; (value, backend), escalating to Hermite's
    formula below the floor of max_j sum_k |D_jk u(x_k)|."""
    ns = _node_set(param, n, family)
    vals = fn.u(ns.nodes)
    d = diff_matrix(ns).entries
    err = float(np.max(np.abs(d @ vals - fn.du(ns.nodes))))
    return _escalate(
        err, float(np.max(np.abs(d) @ np.abs(vals))),
        lambda: float(np.max(np.abs(hermite_diff_error(ns, fn.u, fn.poles)))), "hermite",
    )


def measure_interp_error(param, n, family, fn: TestFunction):
    """Max interpolation error on the uniform grid; escalates to Hermite's
    formula below the floor of max_x sum_j |l_j(x) u(x_j)|, from the same
    Lagrange basis matrix as the interpolant."""
    ns = _node_set(param, n, family)
    xs = np.linspace(-1.0, 1.0, GRID_SIZE)
    vals = fn.u(ns.nodes)
    basis = _lagrange_matrix(ns.nodes, ns.bary_weights, xs)
    err = float(np.max(np.abs(vals @ basis - fn.u(xs))))
    return _escalate(
        err, float(np.max(np.abs(vals) @ np.abs(basis, out=basis))),
        lambda: float(np.max(np.abs(hermite_interp_error(ns, fn.u, fn.poles, xs)))),
        "hermite",
    )


def measure_quad_error(param, n, family, fn: TestFunction):
    """|weighted integral of (u - interpolant)|; escalates to mpmath.

    The error is |I - sum_j w_j u(x_j)|, with the exact integral I of w u
    from Cauchy's formula (operators.weighted_integral), so it carries only
    the rounding of the rule's sum.  It escalates below the floor of
    |I| + sum_j |w_j u(x_j)|.
    """
    p = as_param(param)
    ns = _node_set(p, n, family)
    vals = fn.u(ns.nodes)
    ref = weighted_integral(p, fn.u, fn.poles)
    err = abs(ref - float(np.dot(ns.quad_weights, vals)))
    abs_sum = abs(ref) + float(np.abs(ns.quad_weights) @ np.abs(vals))

    def exact():
        from . import highprec

        return highprec.quad_error_mp(p, n, family, fn.u)

    return _escalate(err, abs_sum, exact, "mpmath")


def measure_expansion_error(param, fn: TestFunction, n) -> float:
    """Truncated-expansion error, max over the uniform grid, from the
    second-kind-function kernel."""
    xs = np.linspace(-1.0, 1.0, GRID_SIZE)
    return float(np.max(np.abs(exact_expansion_error(param, fn.u, fn.poles, n, xs))))


def scan_function(fn: TestFunction):
    """Boundary sups of fn on RHO_COUNT radii inside (1, hi), hi the smaller
    of RHO_SUP_UNIT_POLES and fn.rho_sup: (rhos, sups, skipped) for certify.
    ConfigError when hi rounds to 1, as it does for pole heights below about
    1.1e-16."""
    hi = min(RHO_SUP_UNIT_POLES, fn.rho_sup or math.inf)
    if not hi > 1.0:
        raise ConfigError(f"{fn.name} has no Bernstein ellipse to scan: pole heights "
                          "below about 1.1e-16 give a radius that rounds to 1")
    rhos = rho_scan_grid(1.0, hi, RHO_COUNT)
    return (rhos, *scan_sups(fn.u, rhos, ELLIPSE_SAMPLES))


def certify(fn: TestFunction, lam, n, family, kinds, scan):
    """{kind: ExperimentRecord} of fn on the (lam, n, family) rule for each
    kind in kinds, a subset of KINDS: the measured error and the bound of the
    first THEOREMS entry of the kind's operator and family, minimised over
    scan (from scan_function), once per operator; quad takes the
    interpolation minimum times h_0."""
    measures = {"diff": measure_diff_error, "interp": measure_interp_error,
                "quad": measure_quad_error}
    records, minima = {}, {}
    for kind in kinds:
        measured, backend = measures[kind](lam, n, family, fn)
        operator = "diff" if kind == "diff" else "interp"
        if operator not in minima:
            which = next(tid for tid, t in THEOREMS.items()
                         if t.kind == operator and t.family == family)
            minima[operator] = minimize_bound_on_grid(lam, n, which, *scan)
        rho_star, bd = minima[operator]
        if kind == "quad":
            bd = quad_bound(lam, bd)
        records[kind] = ExperimentRecord(
            lam=float(lam), n=int(n), family=family, measured_error=measured,
            backend=backend, bound_total=bd.total, rho_star=rho_star,
            flags=tuple(bd.flags) + (f"measured with {backend}",),
        )
    return records


def fit_log_slope(ns, errors):
    """Least-squares slope of (n, ln error); needs two or more points."""
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(ns) < 2:
        raise ValueError("need at least two points to fit a slope")
    design = np.vstack([np.ones_like(ns), ns]).T
    coef, *_ = np.linalg.lstsq(design, np.log(errors), rcond=None)
    return float(coef[1])


def _fmt(x) -> str:
    return format(float(x), ".17g")


def format_csv(header, rows) -> str:
    """Render rows as CSV with every numeric field at 17 significant digits."""
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, str):
                cells.append(cell)
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            else:
                cells.append(_fmt(cell))
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def row_dicts(header, rows) -> list:
    """The rows as JSON-ready dicts keyed by header."""
    return [
        {
            key: (int(cell) if isinstance(cell, (int, np.integer))
                  else cell if isinstance(cell, str) else float(cell))
            for key, cell in zip(header, row)
        }
        for row in rows
    ]


def format_rows(header, rows, fmt: str) -> str:
    """CSV or JSON rendering of the same tabular rows."""
    if fmt == "csv":
        return format_csv(header, rows)
    if fmt == "json":
        return json.dumps(row_dicts(header, rows), indent=2, sort_keys=True) + "\n"
    raise ConfigError(f"unknown format {fmt!r}")


NODES_HEADER = ("j", "node", "quad_weight", "bary_weight")
FIG2_HEADER = ("lambda", "rho", "n", "E_n", "n_pow_minus09", "n_pow_minus1")
FIG3_HEADER = (
    "lambda", "n", "family", "measured_error", "bound_total", "rho_star", "flags",
)
DECAY_HEADER = ("n", "error", "fitted_ratio")


def run_nodes(config: ExperimentConfig):
    """Node/weight tables: one (meta, rows) block per (lambda, n) pair."""
    blocks = []
    for lam in config.lambda_list:
        for n in config.n_list:
            ns = _node_set(lam, n, config.node_family)
            rows = [
                (j, ns.nodes[j], ns.quad_weights[j], ns.bary_weights[j])
                for j in range(n + 1)
            ]
            meta = {"lambda": lam, "n": n, "family": config.node_family}
            blocks.append((meta, rows))
    return blocks


def fig2_n_values() -> list:
    """20 log-spaced degrees on [1e3, 1e4]."""
    return sorted(set(int(round(v)) for v in np.logspace(3, 4, 20)))


def run_fig2(config: ExperimentConfig):
    """Tightness rows (lambda, rho, n, E_n, n^-0.9, n^-1) for the config grid;
    lambda = 1 raises ValueError (e_n_metrics' normalization degenerates)."""
    ns = fig2_n_values()
    rows = []
    for lam, rho in config.fig2_grid:
        for n, e in zip(ns, e_n_metrics(lam, ns, rho)):
            rows.append((lam, rho, n, e, n ** -0.9, 1.0 / n))
    return rows


def run_fig3(config: ExperimentConfig):
    """Bound-versus-error study for node differencing on both families.

    Returns (records, summary).  summary carries the per-series log-slope
    fitted over SLOPE_WINDOW against the pole-pair target and the dominance
    status; any record with measured > 1.25x bound marks the run as violating.
    """
    fn = resolve_function(config.function_id, config.rational_pole_imag)
    scan = scan_function(fn)
    records, fits = [], []
    for lam in config.lambda_list:
        for family in (GAUSS, GAUSS_LOBATTO):
            series = [certify(fn, lam, n, family, ("diff",), scan)["diff"]
                      for n in config.n_list]
            records.extend(series)
            window = [r for r in series if SLOPE_WINDOW[0] <= r.n <= SLOPE_WINDOW[1]]
            slope = (
                fit_log_slope([r.n for r in window], [r.measured_error for r in window])
                if len(window) >= 2 else None
            )
            fits.append({
                "lambda": float(lam),
                "family": family,
                "function": fn.name,
                "fitted_log_slope": slope,
                "slope_target": SLOPE_TARGET,
                "slope_within_5pct": (
                    abs(slope - SLOPE_TARGET) <= 0.05 * abs(SLOPE_TARGET)
                    if slope is not None else None
                ),
            })
    dominance_ok = not any(r.exceeds_bound for r in records)
    return records, {"series": fits, "dominance_ok": dominance_ok,
                     "slope_target": SLOPE_TARGET}


def run_bounds(param, n, rho, m_rho, theorem_id, m="auto"):
    """A single itemized bound as a JSON-ready dict."""
    p = as_param(param)
    try:
        theorem = lookup_theorem(theorem_id, p.lam)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return theorem.bound(p, n, rho, m if theorem.factors is None else m_rho).as_dict()


def run_expansion_decay(param, function_id, n_list, pole_imag: float = POLE_IMAG):
    """Decay study rows (n, truncated-expansion error, fitted geometric ratio)."""
    fn = resolve_function(function_id, pole_imag)
    p = as_param(param)
    errs = [measure_expansion_error(p, fn, n) for n in n_list]
    if len(n_list) >= 2 and all(e > 0 for e in errs):
        ratio = math.exp(fit_log_slope(n_list, errs))
    else:
        ratio = float("nan")
    return [(int(n), e, ratio) for n, e in zip(n_list, errs)]
