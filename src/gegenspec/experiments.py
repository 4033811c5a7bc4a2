"""Experiment harness: node dumps, tightness studies, bound-versus-error runs.

Measured errors escalate to the arbitrary-precision path whenever the double
path returns a value too close to its own rounding floor (threshold 1e-8):
node-differencing noise grows like n^2 * eps, so beyond n ~ 45 a double
measurement would sit orders of magnitude above the true error while the
certified bound keeps shrinking.
"""

import io
import json
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from . import highprec
from .bounds import (
    THEOREMS,
    EllipseSpec,
    e_n_metric,
    lookup_theorem,
    minimize_bound_on_grid,
    quad_bound,
    rho_scan_grid,
    scan_sups,
)
from .nodes import GAUSS, GAUSS_LOBATTO, gauss_lobatto_nodes, gauss_nodes
from .operators import (
    GRID_SIZE,
    differentiate_at_nodes,
    interpolate,
    truncated_expansion_error,
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
    "run_fig2",
    "run_fig3",
    "run_bounds",
    "run_expansion_decay",
    "format_csv",
    "format_rows",
]


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


class DominanceError(RuntimeError):
    """A measured error exceeded 1.25x its certified bound (CLI exit code 3)."""


# poles at +-i reach the ellipse boundary when (rho - 1/rho)/2 = 1
RHO_SUP_UNIT_POLES = 1.0 + math.sqrt(2.0)

MP_ESCALATE_BELOW = 1e-8
DOMINANCE_SLACK = 1.25
SLOPE_TARGET = -math.log(1.0 + math.sqrt(2.0))
SLOPE_WINDOW = (20, 60)
KINDS = ("diff", "interp", "quad")

DEFAULT_FIG2_GRID = ((1.5, 1.8), (0.5, 1.4), (3.2, 2.0), (-0.3, 2.0))


def _is_mp(x):
    return isinstance(x, (mp.mpf, mp.mpc))


@dataclass(frozen=True)
class TestFunction:
    """A built-in study function with hard-coded analytic derivative.

    The callables are polymorphic: they accept numpy arrays (real or complex)
    and mpmath scalars alike.  rho_sup is the supremum of admissible ellipse
    radii (None when the function is entire).
    """

    name: str
    u: object
    du: object
    rho_sup: float | None


def _runge1(x):
    return 1 / (1 + x * x)


def _runge1_d(x):
    return -2 * x / (1 + x * x) ** 2


def _runge2(x):
    return 1 / (1 + x * x) ** 2


def _runge2_d(x):
    return -4 * x / (1 + x * x) ** 3


def _exp(x):
    return mp.exp(x) if _is_mp(x) else np.exp(x)


# the function id of make_rational, whose pole height comes from the config
CUSTOM_RATIONAL = "custom-rational"


def make_rational(pole_imag: float) -> TestFunction:
    """1/(x^2 + s^2) with poles at +-is; admissible rho < s + sqrt(s^2+1)."""
    s2 = pole_imag * pole_imag
    return TestFunction(
        name=f"{CUSTOM_RATIONAL}(s={pole_imag:g})",
        u=lambda x: 1 / (x * x + s2),
        du=lambda x: -2 * x / (x * x + s2) ** 2,
        rho_sup=pole_imag + math.sqrt(s2 + 1.0),
    )


TEST_FUNCTIONS = {
    "runge1": TestFunction("runge1", _runge1, _runge1_d, RHO_SUP_UNIT_POLES),
    "runge2": TestFunction("runge2", _runge2, _runge2_d, RHO_SUP_UNIT_POLES),
    "exp": TestFunction("exp", _exp, _exp, None),
}


def resolve_function(function_id: str, pole_imag: float = 0.8) -> TestFunction:
    if function_id in TEST_FUNCTIONS:
        return TEST_FUNCTIONS[function_id]
    if function_id == CUSTOM_RATIONAL:
        if not pole_imag > 0:
            raise ConfigError(f"{CUSTOM_RATIONAL} needs a positive pole height")
        return make_rational(pole_imag)
    raise ConfigError(f"unknown function id {function_id!r}")


@dataclass
class ExperimentConfig:
    """Study configuration; JSON-loadable, with CLI flag overrides."""

    lambda_list: tuple = (0.5, 1.5)
    n_list: tuple = tuple(range(8, 68, 4))
    rho_scan: tuple = (1.0, RHO_SUP_UNIT_POLES, 2000)
    ellipse_samples: int = 2048
    function_id: str = "runge1"
    node_family: str = GAUSS
    output_path: str | None = None
    format: str = "csv"
    fig2_grid: tuple = DEFAULT_FIG2_GRID
    fig2_n_count: int = 20
    rational_pole_imag: float = 0.8

    def __post_init__(self):
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
        lo, hi, count = self.rho_scan
        if not (1.0 < hi and lo >= 1.0 and lo < hi):
            raise ConfigError("rho_scan must satisfy 1 <= min < max")
        if int(count) < 2:
            raise ConfigError("rho_scan count must be >= 2")
        if self.node_family not in (GAUSS, GAUSS_LOBATTO):
            raise ConfigError(f"unknown node family {self.node_family!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if self.ellipse_samples < 4:
            raise ConfigError("ellipse_samples must be >= 4")
        resolve_function(self.function_id, self.rational_pole_imag)

    @classmethod
    def from_json(cls, path: str, **overrides) -> "ExperimentConfig":
        with open(path) as fh:
            data = json.load(fh)
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data.update({k: v for k, v in overrides.items() if v is not None})
        for key in ("lambda_list", "n_list", "rho_scan"):
            if key in data:
                data[key] = tuple(data[key])
        if "fig2_grid" in data:
            data["fig2_grid"] = tuple(tuple(p) for p in data["fig2_grid"])
        return cls(**data)


@dataclass(frozen=True)
class ExperimentRecord:
    """One (lambda, n, family) row; backend is "float64" or "mpmath"."""

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


def _escalate(err, exact):
    """(err, "float64") if the double measurement err is at least
    MP_ESCALATE_BELOW, else (exact(), "mpmath")."""
    if err >= MP_ESCALATE_BELOW:
        return err, "float64"
    return exact(), "mpmath"


def measure_diff_error(param, n, family, fn: TestFunction):
    """Max node-differencing error; (value, backend) with mpmath escalation."""
    ns = _node_set(param, n, family)
    vals = fn.u(ns.nodes)
    err = float(np.max(np.abs(differentiate_at_nodes(ns, vals) - fn.du(ns.nodes))))
    return _escalate(
        err, lambda: highprec.diff_error_mp(param, n, family, fn.u, fn.du)
    )


def measure_interp_error(param, n, family, fn: TestFunction):
    """Max interpolation error on the uniform grid; escalates to mpmath."""
    ns = _node_set(param, n, family)
    xs = np.linspace(-1.0, 1.0, GRID_SIZE)
    err = float(np.max(np.abs(interpolate(ns, fn.u(ns.nodes), xs) - fn.u(xs))))
    return _escalate(err, lambda: highprec.interp_error_mp(param, n, family, fn.u))


def measure_quad_error(param, n, family, fn: TestFunction):
    """|weighted integral of (u - interpolant)|; escalates to mpmath."""
    p = as_param(param)
    ns = _node_set(p, n, family)
    ref_rule = gauss_nodes(p, max(4 * (n + 1), 128))
    ref = float(np.dot(ref_rule.quad_weights, fn.u(ref_rule.nodes)))
    err = abs(ref - float(np.dot(ns.quad_weights, fn.u(ns.nodes))))
    return _escalate(err, lambda: highprec.quad_error_mp(p, n, family, fn.u))


def measure_expansion_error(param, fn: TestFunction, n):
    """Truncated-expansion max-grid error; escalates to mpmath."""
    err = truncated_expansion_error(param, fn.u, n)
    return _escalate(err, lambda: highprec.expansion_error_mp(param, fn.u, n))


def scan_function(fn: TestFunction, rho_scan, samples: int):
    """Boundary sups of fn over the rho grid of rho_scan = (lo, hi, count),
    with hi clipped to fn.rho_sup: (rhos, sups, skipped) for certify."""
    lo, hi, count = rho_scan
    if fn.rho_sup is not None:
        hi = min(hi, fn.rho_sup)
    rhos = rho_scan_grid(lo, hi, int(count))
    return (rhos, *scan_sups(fn.u, rhos, samples))


def certify(fn: TestFunction, lam, n, family, kinds, scan):
    """{kind: ExperimentRecord} of fn on the (lam, n, family) rule for each
    kind in kinds, a subset of KINDS: the measured error and the bound of the
    first THEOREMS entry of the kind's operator and family, minimised over
    scan (from scan_function); quad takes the interpolation bound times h_0."""
    measures = {"diff": measure_diff_error, "interp": measure_interp_error,
                "quad": measure_quad_error}
    records = {}
    for kind in kinds:
        measured, backend = measures[kind](lam, n, family, fn)
        operator = "diff" if kind == "diff" else "interp"
        which = next(tid for tid, t in THEOREMS.items()
                     if t.kind == operator and t.family == family)
        rho_star, bd = minimize_bound_on_grid(lam, n, which, *scan)
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


def format_rows(header, rows, fmt: str) -> str:
    """CSV or JSON rendering of the same tabular rows."""
    if fmt == "csv":
        return format_csv(header, rows)
    if fmt == "json":
        out = [
            {
                key: (int(cell) if isinstance(cell, (int, np.integer))
                      else cell if isinstance(cell, str) else float(cell))
                for key, cell in zip(header, row)
            }
            for row in rows
        ]
        return json.dumps(out, indent=2, sort_keys=True) + "\n"
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


def fig2_n_values(count: int = 20) -> list:
    """Log-spaced degrees on [1e3, 1e4]."""
    return sorted(set(int(round(v)) for v in np.logspace(3, 4, count)))


def run_fig2(config: ExperimentConfig):
    """Tightness rows (lambda, rho, n, E_n, n^-0.9, n^-1) for the config grid."""
    for lam, _ in config.fig2_grid:
        if float(lam) == 1.0:
            raise ConfigError(
                "lambda = 1 has a degenerate normalization (A = 0) and cannot "
                "appear in the tightness study"
            )
    ns = fig2_n_values(config.fig2_n_count)
    rows = []
    for lam, rho in config.fig2_grid:
        for n in ns:
            e = e_n_metric(lam, n, EllipseSpec(rho, config.ellipse_samples))
            rows.append((lam, rho, n, e, n ** -0.9, 1.0 / n))
    return rows


def run_fig3(config: ExperimentConfig):
    """Bound-versus-error study for node differencing on both families.

    Returns (records, summary).  summary carries the per-series log-slope
    fitted over SLOPE_WINDOW against the pole-pair target and the dominance
    status; any record with measured > 1.25x bound marks the run as violating.
    """
    fn = resolve_function(config.function_id, config.rational_pole_imag)
    scan = scan_function(fn, config.rho_scan, config.ellipse_samples)
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
    if theorem.kind == "remainder":
        return theorem.bound(p, n, rho, m).as_dict()
    return theorem.bound(p, n, rho, m_rho).as_dict()


def run_expansion_decay(param, function_id, n_list, pole_imag: float = 0.8):
    """Decay study rows (n, truncated-expansion error, fitted geometric ratio)."""
    fn = resolve_function(function_id, pole_imag)
    p = as_param(param)
    errs = []
    for n in n_list:
        err, _ = measure_expansion_error(p, fn, n)
        errs.append(err)
    if len(n_list) >= 2 and all(e > 0 for e in errs):
        ratio = math.exp(fit_log_slope(n_list, errs))
    else:
        ratio = float("nan")
    return [(int(n), e, ratio) for n, e in zip(n_list, errs)]
