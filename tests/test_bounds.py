import dataclasses
import math
import time

import numpy as np
import pytest

from gegenspec.bounds import (
    ELLIPSE_SAMPLES,
    THEOREMS,
    BoundBreakdown,
    PoleOnContourError,
    e_n_metrics,
    ellipse_points,
    minimize_bound_on_grid,
    quad_bound,
    remainder_bound,
    remainder_exact,
    rho_scan_grid,
    scan_sups,
)
from gegenspec.experiments import TEST_FUNCTIONS, make_rational, scan_function
from gegenspec.poly import normalized_on_ellipse

RUNGE = lambda z: 1.0 / (1.0 + z * z)
RHO_SUP = 1.0 + math.sqrt(2.0)

# real on [-1, 1] but not even: |u| differs between z and -z
SHIFTED = lambda z: 1.0 / ((z - 0.3) ** 2 + 0.04)
# |u| peaks at theta = pi, the last angle the half-ellipse scan evaluates
EXP_LEFT = lambda z: np.exp(-3.0 * z)


def full_circle_sups(u, rhos, samples):
    """Sample max of |u| over all `samples` angles of each ellipse, from
    w = rho e^{i theta} and z = (w + 1/w)/2."""
    unit = np.exp(1j * (2.0 * np.pi * np.arange(samples) / samples))
    rhos = np.asarray(rhos)
    out = np.empty(len(rhos))
    for start in range(0, len(rhos), 64):
        w = rhos[start:start + 64, None] * unit
        out[start:start + 64] = np.max(np.abs(u(0.5 * (w + 1.0 / w))), axis=1)
    return out


REMAINDER_LATTICE = [
    (lam, n, rho)
    for lam in (-0.3, 0.5, 1.5, 3.2)
    for n in (3, 10, 50, 200)
    for rho in (1.2, 1.5, 2.5)
]


class TestEllipseGeometry:
    def test_spec_validation(self):
        for rho in (1.0, 0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and > 1"):
                ellipse_points(rho)
        w, z = ellipse_points(1.5)
        assert w.shape == z.shape == (ELLIPSE_SAMPLES,)

    def test_real_axis_point(self):
        w, z = ellipse_points(1.5)
        assert z[0] == pytest.approx((1.5 + 2.0 / 3.0) / 2.0, rel=1e-15)

    def test_imaginary_axis_point(self):
        w, z = ellipse_points(1.5)
        assert z[ELLIPSE_SAMPLES // 4] == pytest.approx(1j * (1.5 - 2.0 / 3.0) / 2.0,
                                                       abs=1e-15)

    def test_on_ellipse_equation(self):
        for rho in (1.1, 1.5, 2.5):
            a, b = 0.5 * (rho + 1.0 / rho), 0.5 * (rho - 1.0 / rho)
            _, z = ellipse_points(rho)
            resid = (z.real / a) ** 2 + (z.imag / b) ** 2 - 1.0
            assert np.max(np.abs(resid)) < 1e-12

    def test_foci_constraint(self):
        # the samples lie on the ellipse with foci +-1: the distances to the
        # foci sum to the major axis rho + 1/rho
        for rho in (1.05, 1.4, 3.0):
            _, z = ellipse_points(rho)
            dist = np.abs(z - 1.0) + np.abs(z + 1.0)
            np.testing.assert_allclose(dist, rho + 1.0 / rho, rtol=1e-13)


def sup_at(u, rho, samples):
    """scan_sups at a single rho."""
    sups, _ = scan_sups(u, [rho], samples)
    return sups[0]


class TestSupOnEllipse:
    def test_constant(self):
        assert sup_at(lambda z: np.ones_like(z), 1.4, 32) == 1.0

    def test_identity_max_on_real_axis(self):
        assert sup_at(lambda z: z, 2.0, 64) == pytest.approx(1.25, rel=1e-13)

    def test_runge_blows_up_near_critical_radius(self):
        small = sup_at(RUNGE, 1.5, 256)
        close = sup_at(RUNGE, 2.41, 256)
        assert close > 50 * small

    def test_near_pole_large_but_finite(self):
        # rounding keeps the runge pole off the sampled contour, so the sup
        # is huge but finite rather than an error
        val = sup_at(RUNGE, RHO_SUP, 4)
        assert math.isfinite(val) and val > 1e10

    def test_exact_pole_reported(self):
        rho = 1.7
        _, z = ellipse_points(rho)
        pole = complex(z[0])  # theta = 0: the same point in every sampling
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(PoleOnContourError):
                sup_at(lambda zz: 1.0 / (zz - pole), rho, 8)


def _remainder_loop(lam, n, rho):
    """Reference remainder_exact: head and tail summed term by term."""
    q, total, g, ratio, qk, k = rho ** -2.0, 0.0, 1.0, 1.0, 1.0, 0
    while True:
        k += 1
        g *= (k - 1.0 + lam) / k
        qk *= q
        if k <= n:
            ratio *= (n - k + 1.0) / (n - k + lam)   # g_{n-k}/g_n
            total += abs(1.0 - ratio) * abs(g) * qk
            continue
        total += abs(g) * qk
        if abs(g) * qk < 1e-17 * total:
            return total


class TestRemainderExact:
    def test_matches_loop_reference(self):
        # the head's array sum reorders about n roundings: 1e-14 is ~45 ulps
        for lam, n, rho in REMAINDER_LATTICE:
            assert remainder_exact(lam, n, rho) == pytest.approx(
                _remainder_loop(lam, n, rho), rel=1e-14)

    def test_lam_one_geometric(self):
        for n, rho in ((4, 1.5), (11, 2.0)):
            expected = rho ** (-2.0 * n) / (rho * rho - 1.0)
            assert remainder_exact(1.0, n, rho) == pytest.approx(expected, rel=1e-13)

    def test_vanishes_for_large_rho(self):
        assert remainder_exact(0.5, 10, 1e6) < 1e-11

    def test_underflowed_sum_stops(self):
        # lam = 1 has no head and rho^(-2n) underflows, so the sum is 0
        assert remainder_exact(1.0, 200, 1e6) == 0.0
        for rho in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                remainder_exact(0.5, 10, rho)

    def test_positive(self):
        for lam, n, rho in REMAINDER_LATTICE:
            assert remainder_exact(lam, n, rho) > 0.0

    def test_rho_near_one(self):
        # the tail converges within its step guard: the loop's own float
        assert remainder_exact(0.5, 8, 1.0001) == 69.13068071599535
        assert remainder_exact(0.5, 8, 1.001) == 20.787602810491556
        # it cannot: rejected before the loop instead of after 1e8 steps
        for lam in (0.5, 1.5, 3.2):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=r"rho=1\.0000001 .*100000000"):
                remainder_exact(lam, 8, 1.0 + 1e-7)
            assert time.perf_counter() - start < 1.0


class TestRemainderBound:
    def test_low_branch_dominates_exact(self):
        r = remainder_exact(0.5, 10, 1.5)
        bd = remainder_bound(0.5, 10, 1.5, 3)
        assert bd.theorem_id == "T31ii"
        assert bd.total >= r

    def test_high_branch_dominates_exact(self):
        r = remainder_exact(3.2, 50, 1.5)
        bd = remainder_bound(3.2, 50, 1.5)
        assert bd.theorem_id == "T31i"
        assert bd.total >= r

    @pytest.mark.parametrize("lam,n,rho", REMAINDER_LATTICE)
    def test_dominance_for_every_admissible_m(self, lam, n, rho):
        r = remainder_exact(lam, n, rho)
        for m in range(1, n + 1):
            try:
                bd = remainder_bound(lam, n, rho, m)
            except ValueError:
                continue  # m outside the admissibility condition
            assert r <= bd.total * (1 + 1e-12)

    def test_auto_picks_minimum(self):
        lam, n, rho = 0.5, 30, 1.4
        best = remainder_bound(lam, n, rho).total
        totals = [remainder_bound(lam, n, rho, m).total for m in range(1, n + 1)]
        assert best == pytest.approx(min(totals), rel=1e-14)

    def test_vanishes_with_n_at_sqrt_split(self):
        lam, rho = 0.5, 1.5
        vals = [
            remainder_bound(lam, n, rho, int(math.isqrt(n))).total
            for n in (16, 64, 256, 1024)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.1 * vals[0]

    def test_condition_violation_named(self):
        # tiny rho makes the admissibility condition demand a large m
        with pytest.raises(ValueError, match="admissibility"):
            remainder_bound(3.2, 50, 1.01, 1)

    def test_lam_one_rejected(self):
        with pytest.raises(ValueError):
            remainder_bound(1.0, 10, 1.5)

    def test_low_branch_needs_n3(self):
        with pytest.raises(ValueError):
            remainder_bound(0.5, 2, 1.5, 1)

    def test_breakdown_consistency(self):
        bd = remainder_bound(0.5, 12, 1.5, 4)
        assert bd.total == pytest.approx(bd.constant_factor * bd.rate_factor, rel=1e-12)
        assert bd.total == pytest.approx(sum(bd.terms.values()), rel=1e-12)


class TestTriangleConsistency:
    @pytest.mark.parametrize("lam,n,rho", REMAINDER_LATTICE)
    def test_normalized_within_remainder(self, lam, n, rho):
        w, _ = ellipse_points(rho)
        lim = np.abs((1.0 - w ** -2.0) ** (-lam))
        got = np.abs(normalized_on_ellipse(lam, n, w))
        gap = np.max(np.abs(lim - got))
        r = remainder_exact(lam, n, rho)
        assert gap <= r + 1e-12 * (1.0 + lim.max())

    def test_modulus_window(self):
        for rho in (1.1, 1.5, 2.5):
            w, _ = ellipse_points(rho)
            mod = np.abs(1.0 - w ** -2.0)
            assert np.all(mod >= (1.0 - rho ** -2.0) * (1 - 1e-14))
            assert np.all(mod <= (1.0 + rho ** -2.0) * (1 + 1e-14))


class TestEnMetric:
    def test_lam_one_degenerate(self):
        with pytest.raises(ValueError):
            e_n_metrics(1.0, (100,), 1.4)

    def test_figure_window_sample(self):
        ns = (1000, 3162, 10000)
        for n, e in zip(ns, e_n_metrics(0.5, ns, 1.4)):
            assert 0.1 / n <= e <= n ** -0.9

    def test_bounded_by_remainder_over_normalization(self):
        lam, rho, n = 1.5, 2.0, 500
        [e] = e_n_metrics(lam, (n,), rho)
        a_norm = abs(1.0 - lam) * abs((1.0 - rho ** -2.0) ** (-lam) - 1.0)
        assert e <= remainder_exact(lam, n, rho) / a_norm * (1 + 1e-12)


class TestTheoremBounds:
    def test_gauss_interp_ratio_form(self):
        lam, rho = 0.5, 2.2
        b40 = THEOREMS["T41"].bound(lam, 40, rho, 1.0)
        b41 = THEOREMS["T41"].bound(lam, 41, rho, 1.0)
        assert b40.total > 0
        assert b41.total / b40.total == pytest.approx(
            (41.0 / 40.0) ** lam / rho, rel=1e-12
        )
        assert b40.flags == ["c set to 1"]

    def test_gauss_interp_negative_lam_rate(self):
        bd1 = THEOREMS["T41"].bound(-0.3, 60, 1.8, 1.0)
        bd2 = THEOREMS["T41"].bound(-0.3, 61, 1.8, 1.0)
        assert "uses calibrated D_lambda" in bd1.flags
        assert bd2.total / bd1.total == pytest.approx(1.0 / 1.8, rel=1e-12)

    def test_gauss_diff_value_and_ratio(self):
        lam, rho, n = 0.5, 2.0, 30
        bd = THEOREMS["T42"].bound(lam, n, rho, 1.0)
        lam_const = (
            2.0
            * math.gamma(lam + 1.0)
            / math.gamma(2.0 * lam + 2.0)
            * math.sqrt(rho ** 2 + rho ** -2)
            * (1.0 + rho ** -2) ** lam
            / (rho - 1.0) ** 2
        )
        assert bd.total == pytest.approx(lam_const * 30 ** 2.5 / 2.0 ** 30, rel=1e-12)
        bd2 = THEOREMS["T42"].bound(lam, n + 2, rho, 1.0)
        assert bd2.total / bd.total == pytest.approx(
            rho ** -2.0 * (1.0 + 2.0 / n) ** (lam + 2.0), rel=1e-12
        )

    def test_lobatto_interp_assembly(self):
        lam, n, rho = 0.5, 20, 2.0
        bd = THEOREMS["T43a"].bound(lam, n, rho, 1.0)
        expected = (
            4.0
            * math.sqrt(rho ** 2 + rho ** -2)
            * (1.0 + rho ** -2) ** (lam + 1.0)
            / ((1.0 - 1.0 / rho) ** 2 * (rho - 1.0 / rho) ** 2)
            * math.gamma(lam + 1.0)
            / math.gamma(2.0 * lam + 2.0)
            * n ** (lam + 1.0)
            / rho ** n
        )
        assert bd.total == pytest.approx(expected, rel=1e-12)

    def test_lobatto_vs_gauss_rate_grows_like_n(self):
        lam, rho = 0.5, 2.0
        lobatto, gauss = THEOREMS["T43a"].bound, THEOREMS["T41"].bound
        r20 = lobatto(lam, 20, rho, 1.0).total / gauss(lam, 20, rho, 1.0).total
        r40 = lobatto(lam, 40, rho, 1.0).total / gauss(lam, 40, rho, 1.0).total
        assert r40 / r20 == pytest.approx(2.0, rel=1e-12)

    def test_lobatto_diff_exponent(self):
        lam, rho, n = 1.5, 1.9, 24
        bd = THEOREMS["T43b"].bound(lam, n, rho, 1.0)
        bd2 = THEOREMS["T43b"].bound(lam, 2 * n, rho, 1.0)
        assert bd2.total / bd.total == pytest.approx(
            2.0 ** (lam + 3.0) * rho ** (-n), rel=1e-11
        )

    def test_product_invariant(self):
        for bd in (
            THEOREMS["T41"].bound(0.5, 12, 1.7, 2.0),
            THEOREMS["T41"].bound(-0.3, 12, 1.7, 2.0),
            THEOREMS["T42"].bound(1.5, 12, 1.7, 2.0),
            THEOREMS["T43a"].bound(1.5, 12, 1.7, 2.0),
            THEOREMS["T43b"].bound(0.5, 12, 1.7, 2.0),
        ):
            assert bd.total == pytest.approx(
                bd.constant_factor * bd.rate_factor, rel=1e-12
            )


class TestQuadBound:
    def test_legendre_factor_two(self):
        bd = THEOREMS["T41"].bound(0.5, 10, 2.0, 1.0)
        qb = quad_bound(0.5, bd)
        assert qb.total / bd.total == pytest.approx(2.0, rel=1e-13)
        assert qb.theorem_id == "Quad"

    def test_lam_three_halves_factor(self):
        bd = THEOREMS["T43a"].bound(1.5, 10, 2.0, 1.0)
        qb = quad_bound(1.5, bd)
        assert qb.total / bd.total == pytest.approx(4.0 / 3.0, rel=1e-13)

    def test_rejects_non_interp_input(self):
        with pytest.raises(ValueError):
            quad_bound(0.5, THEOREMS["T42"].bound(0.5, 10, 2.0, 1.0))


def scan_and_minimize(param, n, u, rho_min, rho_max, count, which, samples):
    """Scan the rho grid and minimise the bound over it."""
    rhos = rho_scan_grid(rho_min, rho_max, count)
    return minimize_bound_on_grid(param, n, which, rhos, *scan_sups(u, rhos, samples))


class TestBestBoundOverRho:
    def test_minimizer_near_critical_radius(self):
        rho_star, bd = scan_and_minimize(
            0.5, 40, RUNGE, 1.0, RHO_SUP, 400, "T42", samples=512
        )
        assert 2.2 < rho_star < RHO_SUP
        assert bd.total > 0

    def test_entire_function_prefers_larger_radius(self):
        _, small = scan_and_minimize(0.5, 20, np.exp, 1.0, 3.0, 100, "T42", samples=256)
        _, large = scan_and_minimize(0.5, 20, np.exp, 1.0, 6.0, 100, "T42", samples=256)
        assert large.total < small.total

    def test_grid_avoids_endpoints(self):
        # a pole exactly on the rho_max ellipse is never sampled
        rho_star, bd = scan_and_minimize(
            0.5, 16, RUNGE, 1.0, RHO_SUP, 100, "T41i", samples=512
        )
        assert rho_star < RHO_SUP

    def test_branch_validation(self):
        with pytest.raises(ValueError):
            scan_and_minimize(0.5, 10, RUNGE, 1.0, 2.0, 50, "T41ii", samples=64)
        with pytest.raises(ValueError):
            scan_and_minimize(-0.3, 10, RUNGE, 1.0, 2.0, 50, "T41i", samples=64)
        with pytest.raises(ValueError):
            scan_and_minimize(0.5, 10, RUNGE, 1.0, 2.0, 50, "T99", samples=64)

    def test_skipped_rho_flagged(self):
        # plant a pole exactly on one scanned boundary sample
        rhos = rho_scan_grid(1.0, 3.0, 200)
        _, z = ellipse_points(float(rhos[120]))
        pole = complex(z[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            rho_star, bd = scan_and_minimize(
                0.5, 12, lambda zz: 1.0 / (zz - pole), 1.0, 3.0, 200, "T42",
                samples=4,
            )
        assert "skipped rho values with non-finite max" in bd.flags
        assert rho_star != float(rhos[120])


def _oracle_minimize(lam, n, which, rhos, sups):
    """Brute-force reference for minimize_bound_on_grid: one single-rho bound
    per finite sup, and a strict < so the first minimum wins."""
    bound = THEOREMS[which].bound
    best = best_rho = None
    for rho, m_rho in zip(rhos, sups):
        if not math.isfinite(m_rho):
            continue
        bd = bound(lam, n, float(rho), float(m_rho))
        if best is None or bd.total < best.total:
            best, best_rho = bd, float(rho)
    return best_rho, best


def _runge1_grid():
    return scan_function(TEST_FUNCTIONS["runge1"])


def _rational_grid():
    return scan_function(make_rational(0.07))


def _runge1_nan_grid():
    rhos, sups, _ = _runge1_grid()
    sups = sups.copy()
    sups[::7] = np.nan
    # also knock out the minimizer of every theorem so the masking decides
    for which, lam in GRID_CASES:
        for n in (8, 64):
            i = int(np.argmin([
                THEOREMS[which].bound(lam, n, float(r), float(s)).total
                if math.isfinite(s) else np.inf
                for r, s in zip(rhos, sups)
            ]))
            sups[i] = np.nan
    return rhos, sups, True


GRID_CASES = [("T41i", lam) for lam in (0.5, 1.5, 3.2)] + [("T41ii", -0.3)] + [
    (which, lam)
    for which in ("T42", "T43a", "T43b")
    for lam in (-0.3, 0.5, 1.5, 3.2)
]
GRIDS = {
    "runge1": _runge1_grid,
    "rational-0.07": _rational_grid,
    "runge1-nan-rows": _runge1_nan_grid,
}


@pytest.fixture(scope="module", params=sorted(GRIDS))
def scanned_grid(request):
    return request.param, GRIDS[request.param]()


class TestGridMinimizationOracle:
    @pytest.mark.parametrize("n", (8, 64))
    @pytest.mark.parametrize("which,lam", GRID_CASES)
    def test_matches_scalar_loop(self, scanned_grid, which, lam, n):
        name, (rhos, sups, skipped) = scanned_grid
        assert skipped == (name == "runge1-nan-rows")
        rho_star, bd = minimize_bound_on_grid(lam, n, which, rhos, sups, skipped)
        oracle_rho, oracle = _oracle_minimize(lam, n, which, rhos, sups)
        assert rho_star == oracle_rho
        assert bd.total == pytest.approx(oracle.total, rel=1e-14, abs=0.0)
        assert bd.theorem_id == oracle.theorem_id
        assert bd.parameters == oracle.parameters
        assert ("skipped rho values with non-finite max" in bd.flags) == skipped

    def test_remainder_ids_have_no_scan(self):
        rhos, sups, _ = _rational_grid()
        with pytest.raises(ValueError):
            minimize_bound_on_grid(0.5, 10, "T31ii", rhos, sups)

    def test_all_nan_sups_rejected(self):
        rhos = rho_scan_grid(1.0, 2.0, 10)
        with pytest.raises(PoleOnContourError):
            minimize_bound_on_grid(0.5, 10, "T42", rhos, np.full(10, np.nan), True)


OPERATOR_CASES = [
    (which, lam)
    for which, theorem in THEOREMS.items() if theorem.factors is not None
    for lam in (-0.3, 0.5, 1.5, 3.2) if theorem.lam_ok(lam)
]


@pytest.fixture(scope="module")
def runge1_grid():
    return _runge1_grid()


class TestRegistryBound:
    @pytest.mark.parametrize("n", (1, 8, 64))
    @pytest.mark.parametrize("which,lam", OPERATOR_CASES)
    def test_operator_bound_is_factors_at_one_rho(self, runge1_grid, which, lam, n):
        # the single-rho breakdown and the grid scan agree bit for bit
        theorem = THEOREMS[which]
        rhos, sups, _ = runge1_grid
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, const, rate = theorem.factors(lam, n, rhos, sups)
        for i, (rho, m_rho) in enumerate(zip(rhos, sups)):
            bd = theorem.bound(lam, n, float(rho), float(m_rho))
            assert bd.constant_factor == const[i]
            assert bd.rate_factor == rate[i]
            assert bd.total == const[i] * rate[i]

    @pytest.mark.parametrize("which,lam", [("T41i", 0.5), ("T41ii", -0.3), ("T43b", 1.5)])
    def test_one_factor_evaluation_per_call(self, runge1_grid, which, lam, monkeypatch):
        theorem = THEOREMS[which]
        calls = []

        def factors(*args):
            calls.append(args)
            return theorem.factors(*args)

        monkeypatch.setitem(THEOREMS, which, dataclasses.replace(theorem, factors=factors))
        rho_star, bd = minimize_bound_on_grid(lam, 16, which, *runge1_grid)
        assert len(calls) == 1 and len(calls[0][2]) == len(runge1_grid[0])
        # the single-rho bound is the one-point case of the same evaluation
        assert THEOREMS[which].bound(lam, 16, rho_star, bd.parameters["M_rho"]) == bd
        assert len(calls) == 2 and len(calls[1][2]) == 1

    @pytest.mark.parametrize("m", ("auto", 3))
    @pytest.mark.parametrize("which,lam", [("T31i", 1.5), ("T31i", 3.2),
                                           ("T31ii", -0.3), ("T31ii", 0.5)])
    def test_remainder_bound_is_remainder_bound(self, which, lam, m):
        got = THEOREMS[which].bound(lam, 10, 1.5, m)
        assert got.as_dict() == remainder_bound(lam, 10, 1.5, m).as_dict()


class TestScanSups:
    @pytest.mark.parametrize("samples", (2048, 100, 3 * 2 ** 14))
    def test_matches_per_rho_sup(self, samples):
        # 37 rhos is not a multiple of any block size the scan picks
        rhos = rho_scan_grid(1.0, 2.3, 37)
        if samples > 2048:
            rhos = rhos[:3]
        sups, skipped = scan_sups(RUNGE, rhos, samples)
        assert not skipped
        theta = 2.0 * np.pi * np.arange(samples) / samples
        for rho, got in zip(rhos, sups):
            w = rho * np.exp(1j * theta)
            assert got == np.max(np.abs(RUNGE(0.5 * (w + 1.0 / w))))

    @pytest.mark.parametrize("fn", [
        *TEST_FUNCTIONS.values(), *(make_rational(s) for s in (0.05, 0.07, 0.1)),
    ], ids=["runge1", "runge2", "exp", "rational-0.05", "rational-0.07", "rational-0.1"])
    def test_study_functions_match_full_circle(self, fn):
        # the half-ellipse scan equals the sample max over every angle
        rhos, sups, skipped = scan_function(fn)
        assert not skipped
        np.testing.assert_array_equal(sups, full_circle_sups(fn.u, rhos, ELLIPSE_SAMPLES))

    @pytest.mark.parametrize("samples", (2048, 101, 7))
    @pytest.mark.parametrize("u", (RUNGE, SHIFTED, EXP_LEFT),
                             ids=("runge", "shifted", "exp-left"))
    def test_odd_counts_and_non_even_functions(self, u, samples):
        # poles of SHIFTED sit on the ellipse of radius ~1.23
        rhos = rho_scan_grid(1.0, 1.15, 37)
        sups, skipped = scan_sups(u, rhos, samples)
        assert not skipped
        np.testing.assert_allclose(sups, full_circle_sups(u, rhos, samples), rtol=1e-13, atol=0)

    def test_infinite_sample_marks_row(self):
        rhos = rho_scan_grid(1.0, 3.0, 40)
        _, z = ellipse_points(float(rhos[7]))
        pole = complex(z[0])
        with np.errstate(divide="ignore"):
            sups, skipped = scan_sups(lambda zz: 1.0 / np.abs(zz - pole), rhos, 16)
        assert skipped
        assert np.isnan(sups[7])
        assert np.all(np.isfinite(np.delete(sups, 7)))

    def test_pole_on_sampled_contour_gives_nan(self):
        rhos = rho_scan_grid(1.0, 3.0, 40)
        _, z = ellipse_points(float(rhos[25]))
        pole = complex(z[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            sups, skipped = scan_sups(lambda zz: 1.0 / (zz - pole), rhos, 8)
        assert skipped
        assert np.isnan(sups[25])
        assert np.all(np.isfinite(np.delete(sups, 25)))

    def test_all_nan_raises(self):
        rhos = rho_scan_grid(1.0, 2.0, 20)
        with pytest.raises(PoleOnContourError):
            scan_sups(lambda z: np.full(z.shape, np.nan), rhos, 16)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            scan_sups(RUNGE, [1.5, 1.0], 16)
        with pytest.raises(ValueError):
            scan_sups(RUNGE, [1.5], 3)


class TestBreakdownSerialization:
    def test_round_trip_dict(self):
        bd = THEOREMS["T41"].bound(0.5, 8, 1.5, 1.0)
        d = bd.as_dict()
        assert set(d) == {
            "theorem_id", "constant_factor", "rate_factor", "total",
            "parameters", "flags",
        }
        rebuilt = BoundBreakdown(**{**d, "parameters": d["parameters"]})
        assert rebuilt.total == bd.total

    def test_terms_included_for_remainder(self):
        d = remainder_bound(0.5, 10, 1.5, 2).as_dict()
        assert "terms" in d and set(d["terms"]) == {"head", "geometric_tail", "endgame"}
