"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [criterion N] PASS/FAIL line (run with -s to stream
them).  Criterion 6 is split: 6a is the bound-dominance half, 6b the
fitted-rate half.

Two tests are expected to fail, both for the same structural reason: the
true error carries an algebraic prefactor n^alpha on top of the geometric
factor, and a straight line fitted to (n, ln error) over a finite window
absorbs it as roughly alpha/n-bar of extra slope.  For 6b (window n in
[20, 60]) that exceeds the 5 percent allowance whenever alpha > ~1.6, which
holds for 7 of the 8 series (alpha between ~1.4 and ~4.4 depending on
family, index and pole order).  For criterion 8 the lam = 3/2 half sits at
~6.2 percent against the 5 percent allowance (the lam = 1/2 half passes).
The failures are a property of the target value, not of the measurement:
the fits below run on errors resolved far beyond the double floor.
"""

import math
import time

import numpy as np
import pytest

from gegenspec.bounds import remainder_bound, remainder_exact
from gegenspec.experiments import (
    KINDS,
    SLOPE_TARGET,
    SLOPE_WINDOW,
    TEST_FUNCTIONS,
    ExperimentConfig,
    certify,
    fit_log_slope,
    measure_expansion_error,
    run_fig2,
    scan_function,
)
from gegenspec.nodes import GAUSS, GAUSS_LOBATTO, gauss_lobatto_nodes, gauss_nodes
from gegenspec.operators import diff_matrix
from gegenspec.poly import eval_recurrence, normalized_on_ellipse, value_at_one
from gegenspec.special import g_coeff_sequence, total_mass

LAM_GRID = (-0.3, 0.5, 1.5, 3.2)
STUDY_LAMBDAS = (0.5, 1.5)
STUDY_NS = tuple(range(8, 68, 4))
STUDY_FUNCTIONS = ("runge1", "runge2")
FAMILIES = (GAUSS, GAUSS_LOBATTO)


def report(num, ok, detail=""):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}".rstrip(), flush=True)


def test_criterion_01_representation_equivalence():
    worst = 0.0
    theta = 2.0 * np.pi * np.arange(64) / 64
    for lam in (-0.3, 0.5, 1.0, 1.5, 3.2):
        g = g_coeff_sequence(lam, 60)
        for rho in (1.1, 1.5, 2.5):
            w = rho * np.exp(1j * theta)
            z = 0.5 * (w + 1.0 / w)
            for n in range(61):
                # the w-series sum_k g_k g_{n-k} w^(n-2k) in normalized form
                a = g[n] * w ** n * normalized_on_ellipse(lam, n, w)
                b = eval_recurrence(lam, n, z)
                worst = max(worst, float(np.max(np.abs(a - b) / np.abs(b))))
    ok = worst <= 1e-10
    report(1, ok, f"max relative discrepancy {worst:.3e} (tol 1e-10)")
    assert ok


def test_criterion_02_classical_identities():
    # Legendre by an independent Bonnet recurrence, n <= 100
    xs = np.linspace(-1.0, 1.0, 81)
    p_prev, p = np.ones_like(xs), xs.copy()
    worst_leg = float(np.max(np.abs(eval_recurrence(0.5, 0, xs) - p_prev)))
    worst_leg = max(worst_leg, float(np.max(np.abs(eval_recurrence(0.5, 1, xs) - p))))
    for n in range(2, 101):
        p_prev, p = p, ((2 * n - 1) * xs * p - (n - 1) * p_prev) / n
        worst_leg = max(worst_leg, float(np.max(np.abs(eval_recurrence(0.5, n, xs) - p))))
    # second kind via the sine quotient, n <= 60
    theta = np.linspace(0.2, np.pi - 0.2, 61)
    xc = np.cos(theta)
    worst_u = 0.0
    for n in range(61):
        expected = np.sin((n + 1) * theta) / np.sin(theta)
        worst_u = max(worst_u, float(np.max(np.abs(eval_recurrence(1.0, n, xc) - expected))))
    # scaled small-index limit, lam = 1e-8, n <= 30
    lam = 1e-8
    xg = np.linspace(-0.99, 0.99, 41)
    worst_c = 0.0
    for n in range(1, 31):
        expected = (2.0 / n) * np.cos(n * np.arccos(xg))
        worst_c = max(worst_c, float(np.max(np.abs(eval_recurrence(lam, n, xg) / lam - expected))))
    # endpoint closed form, relative
    worst_e = 0.0
    for lam2 in LAM_GRID:
        for n in (0, 1, 7, 33, 100):
            ref = eval_recurrence(lam2, n, 1.0)
            worst_e = max(worst_e, abs(value_at_one(lam2, n) - ref) / abs(ref))
    ok = worst_leg <= 1e-12 and worst_u <= 1e-11 and worst_c <= 1e-6 and worst_e <= 1e-12
    report(2, ok,
           f"legendre {worst_leg:.2e} (1e-12), second-kind {worst_u:.2e} (1e-11), "
           f"scaled-limit {worst_c:.2e} (1e-6), endpoint {worst_e:.2e} (1e-12)")
    assert ok


def _monomial_integral(lam, m):
    if m % 2 == 1:
        return 0.0
    s = m // 2
    return math.exp(math.lgamma(s + 0.5) + math.lgamma(lam + 0.5) - math.lgamma(s + lam + 1.0))


def test_criterion_03_quadrature_exactness():
    worst_rel = 0.0
    worst_mass = 0.0
    for lam in LAM_GRID:
        mass = total_mass(lam)
        for n in range(65):
            rules = [(gauss_nodes(lam, n), 2 * n + 1)]
            if n >= 1:
                rules.append((gauss_lobatto_nodes(lam, n), 2 * n - 1))
            for ns, top in rules:
                worst_mass = max(
                    worst_mass, abs(np.sum(ns.quad_weights) - mass) / mass
                )
                powers = np.arange(0, top + 1, 2)
                vals = ns.quad_weights @ np.power.outer(ns.nodes, powers)
                for m, got in zip(powers, vals):
                    ref = _monomial_integral(lam, int(m))
                    worst_rel = max(worst_rel, abs(got - ref) / ref)
    ok = worst_rel <= 1e-11 and worst_mass <= 1e-12
    report(3, ok, f"monomial rel {worst_rel:.2e} (1e-11), mass rel {worst_mass:.2e} (1e-12)")
    assert ok


def test_criterion_04_remainder_dominance():
    checked = 0
    violations = 0
    for lam in LAM_GRID:
        for n in (3, 10, 50, 200):
            for rho in (1.2, 1.5, 2.5):
                r = remainder_exact(lam, n, rho)
                for m in range(1, n + 1):
                    try:
                        bd = remainder_bound(lam, n, rho, m)
                    except ValueError:
                        continue
                    checked += 1
                    if r > bd.total * (1 + 1e-12):
                        violations += 1
    ok = violations == 0 and checked > 0
    report(4, ok, f"{checked} admissible (lam, n, rho, m) combos, {violations} violations")
    assert ok


def test_criterion_05_tightness_window():
    start = time.monotonic()
    rows = run_fig2(ExperimentConfig())
    elapsed = time.monotonic() - start
    bad = [
        (lam, rho, n)
        for lam, rho, n, e, upper, lower in rows
        if not (e <= upper and e >= 0.1 * lower)
    ]
    ok = not bad
    report(5, ok, f"{len(rows)} rows inside [0.1/n, n^-0.9], {elapsed:.1f}s"
                  + (f"; outside: {bad}" if bad else ""))
    assert ok


@pytest.fixture(scope="module")
def study():
    """Certified rows {kind: ExperimentRecord} for the full study grid."""
    data = {}
    for fn_id in STUDY_FUNCTIONS:
        fn = TEST_FUNCTIONS[fn_id]
        scan = scan_function(fn)
        for lam in STUDY_LAMBDAS:
            for family in FAMILIES:
                data[(fn_id, lam, family)] = [
                    certify(fn, lam, n, family, KINDS, scan) for n in STUDY_NS
                ]
    return data


def test_criterion_06a_differencing_dominance(study):
    bad = [(key, row["diff"].n) for key, rows in study.items() for row in rows
           if row["diff"].exceeds_bound]
    ok = not bad
    report("6a", ok, f"{sum(len(r) for r in study.values())} records, "
                     f"violations: {bad if bad else 'none'}")
    assert ok


def test_criterion_06b_differencing_log_slope(study):
    deviations = []
    for key, rows in study.items():
        diffs = [row["diff"] for row in rows]
        pts = [r for r in diffs if SLOPE_WINDOW[0] <= r.n <= SLOPE_WINDOW[1]]
        slope = fit_log_slope([p.n for p in pts], [p.measured_error for p in pts])
        dev = abs(slope - SLOPE_TARGET) / abs(SLOPE_TARGET)
        deviations.append((key, slope, dev))
    lines = ", ".join(
        f"{k[0]}/{k[1]}/{k[2]}: {s:.4f} ({100 * d:.1f}%)" for k, s, d in deviations
    )
    ok = all(d <= 0.05 for _, _, d in deviations)
    report("6b", ok, f"target {SLOPE_TARGET:.4f} +-5%; fitted: {lines}")
    assert ok, (
        "fitted log-slopes deviate beyond 5%: the algebraic prefactor of the "
        "true error shifts any finite-n line fit; see module docstring"
    )


def test_criterion_07_interpolation_and_quadrature_dominance(study):
    bad = [(key, row[kind].n, kind) for key, rows in study.items() for row in rows
           for kind in ("interp", "quad") if row[kind].exceeds_bound]
    ok = not bad
    report(7, ok, f"violations: {bad if bad else 'none'}")
    assert ok


def test_criterion_08_expansion_decay():
    target = 1.0 / (1.0 + math.sqrt(2.0))
    ns = tuple(range(8, 44, 4))
    results = []
    for lam in STUDY_LAMBDAS:
        fn = TEST_FUNCTIONS["runge1"]
        errs = [measure_expansion_error(lam, fn, n)[0] for n in ns]
        ratio = math.exp(fit_log_slope(ns, errs))
        results.append((lam, ratio, abs(ratio - target) / target))
    ok = all(dev <= 0.05 for _, _, dev in results)
    report(8, ok, "; ".join(
        f"lam={lam}: ratio {r:.4f} vs {target:.4f} ({100 * d:.1f}%)"
        for lam, r, d in results
    ))
    assert ok


def test_criterion_09_diff_matrix_sanity():
    worst_row = 0.0
    worst_mono = 0.0
    for lam in LAM_GRID:
        for n in (1, 2, 4, 8, 16, 32, 48, 64):
            ns = gauss_nodes(lam, n)
            D = diff_matrix(ns).entries
            scale = np.maximum(np.sum(np.abs(D), axis=1), 1.0)
            worst_row = max(worst_row, float(np.max(np.abs(np.sum(D, axis=1)) / scale)))
            for m in range(1, n + 1):
                expected = m * ns.nodes ** (m - 1)
                got = D @ ns.nodes ** m
                worst_mono = max(
                    worst_mono,
                    float(np.max(np.abs(got - expected)) / np.max(np.abs(expected))),
                )
    ok = worst_row <= 1e-12 and worst_mono <= 1e-9
    report(9, ok, f"row-sum rel {worst_row:.2e} (1e-12), monomial rel {worst_mono:.2e} (1e-9)")
    assert ok
