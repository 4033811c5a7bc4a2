import math

import numpy as np
import pytest

import mp_oracle
from gegenspec.bounds import minimize_bound_on_grid, rho_scan_grid, scan_sups
from gegenspec.experiments import TEST_FUNCTIONS, make_rational, measure_expansion_error
from gegenspec.nodes import gauss_lobatto_nodes, gauss_nodes
from gegenspec.operators import (
    GRID_SIZE,
    diff_matrix,
    differentiate_at_nodes,
    exact_expansion_error,
    expansion_coeffs,
    hermite_diff_error,
    hermite_interp_error,
    interpolate,
    truncated_expansion_error,
)
from gegenspec.poly import eval_recurrence

LAM_GRID = (-0.3, 0.5, 1.5, 3.2)
RUNGE = lambda x: 1.0 / (1.0 + x * x)
RUNGE_D = lambda x: -2.0 * x / (1.0 + x * x) ** 2


class TestInterpolate:
    def test_constants_reproduced(self):
        ns = gauss_nodes(0.5, 6)
        xs = np.linspace(-1, 1, 11)
        np.testing.assert_allclose(
            interpolate(ns, np.ones(7), xs), np.ones(11), rtol=1e-14
        )

    def test_cubic_reproduced(self):
        ns = gauss_nodes(0.5, 4)
        got = interpolate(ns, ns.nodes ** 3, 0.37)
        assert got == pytest.approx(0.37 ** 3, rel=1e-13)

    def test_node_hit_exact(self):
        for ns in (gauss_nodes(0.5, 5), gauss_lobatto_nodes(1.5, 5)):
            vals = RUNGE(ns.nodes)
            for j in (0, 2, 5):
                assert interpolate(ns, vals, float(ns.nodes[j])) == vals[j]
            # an array target that mixes node hits with points between nodes
            xs = np.array([-0.99, ns.nodes[0], 0.1, ns.nodes[2], ns.nodes[5], 0.95])
            got = interpolate(ns, vals, xs)
            assert np.array_equal(got[[1, 3, 4]], vals[[0, 2, 5]])
            misses = [interpolate(ns, vals, float(x)) for x in xs[[0, 2, 5]]]
            np.testing.assert_allclose(got[[0, 2, 5]], misses, rtol=1e-14)

    def test_runge_error_within_best_bound(self):
        ns = gauss_nodes(0.5, 20)
        got = interpolate(ns, RUNGE(ns.nodes), 0.5)
        rhos = rho_scan_grid(1.0, 1 + math.sqrt(2), 200)
        _, bd = minimize_bound_on_grid(0.5, 20, "T41i", rhos, *scan_sups(RUNGE, rhos, 512))
        assert abs(got - RUNGE(0.5)) <= bd.total

    @pytest.mark.parametrize("lam", LAM_GRID)
    @pytest.mark.parametrize("family", ["gauss", "lobatto"])
    def test_polynomial_projection(self, lam, family):
        rng = np.random.default_rng(42)
        n = 13
        ns = gauss_nodes(lam, n) if family == "gauss" else gauss_lobatto_nodes(lam, n)
        coef = rng.standard_normal(n + 1)
        poly = np.polynomial.Polynomial(coef)
        xs = rng.uniform(-1.0, 1.0, 200)
        got = interpolate(ns, poly(ns.nodes), xs)
        np.testing.assert_allclose(got, poly(xs), rtol=1e-10, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            interpolate(gauss_nodes(0.5, 3), np.ones(3), 0.0)


class TestDiffMatrix:
    def test_central_difference_row(self):
        ns = gauss_lobatto_nodes(0.5, 2)
        D = diff_matrix(ns).entries
        np.testing.assert_allclose(D[1], [-0.5, 0.0, 0.5], atol=1e-15)

    def test_constants_annihilated(self):
        for lam in LAM_GRID:
            D = diff_matrix(gauss_nodes(lam, 16)).entries
            np.testing.assert_allclose(D @ np.ones(17), 0.0, atol=1e-12)

    def test_quintic_on_gauss(self):
        ns = gauss_nodes(0.5, 8)
        got = differentiate_at_nodes(ns, ns.nodes ** 5)
        np.testing.assert_allclose(got, 5 * ns.nodes ** 4, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("lam", LAM_GRID)
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 40, 64])
    def test_row_sums_zero(self, lam, n):
        # zero relative to the row magnitude: the float row-sum check itself
        # rounds at eps * sum|D_jk|, so an absolute reading is unmeasurable
        D = diff_matrix(gauss_nodes(lam, n)).entries
        scale = np.maximum(np.sum(np.abs(D), axis=1), 1.0)
        assert np.max(np.abs(np.sum(D, axis=1)) / scale) < 1e-12

    @pytest.mark.parametrize("lam", (0.5, 1.5))
    @pytest.mark.parametrize("n", [4, 16, 40, 64])
    def test_monomial_exactness(self, lam, n):
        ns = gauss_nodes(lam, n)
        D = diff_matrix(ns).entries
        for m in range(1, n + 1):
            got = D @ ns.nodes ** m
            expected = m * ns.nodes ** (m - 1)
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(got - expected)) <= 1e-9 * scale


class TestDifferentiateAtNodes:
    def test_linear_gives_constant(self):
        for lam in (0.5, 1.5, -0.3):
            ns = gauss_nodes(lam, 6)
            got = differentiate_at_nodes(ns, 2 * lam * ns.nodes)
            np.testing.assert_allclose(got, 2 * lam, rtol=1e-12)

    def test_runge_error_decays_exponentially(self):
        errs = []
        for n in (8, 16, 24):
            ns = gauss_nodes(0.5, n)
            got = differentiate_at_nodes(ns, RUNGE(ns.nodes))
            errs.append(np.max(np.abs(got - RUNGE_D(ns.nodes))))
        assert errs[1] < 1e-2 * errs[0]
        assert errs[2] < 1e-2 * errs[1]

    def test_entire_function_tiny_error(self):
        ns = gauss_lobatto_nodes(1.5, 16)
        got = differentiate_at_nodes(ns, np.exp(ns.nodes))
        assert np.max(np.abs(got - np.exp(ns.nodes))) < 1e-9


class TestExpansionCoeffs:
    def test_member_gives_unit_vector(self):
        for lam in LAM_GRID:
            c = expansion_coeffs(lam, lambda x: eval_recurrence(lam, 3, x), 6)
            expected = np.zeros(7)
            expected[3] = 1.0
            np.testing.assert_allclose(c, expected, atol=1e-12)

    @pytest.mark.parametrize("lam", (0.5, 1.5))
    def test_unit_vectors_through_n(self, lam):
        n = 12
        for m in range(n + 1):
            c = expansion_coeffs(lam, lambda x: eval_recurrence(lam, m, x), n)
            expected = np.zeros(n + 1)
            expected[m] = 1.0
            np.testing.assert_allclose(c, expected, atol=1e-11)

    def test_odd_function_kills_even_coeffs(self):
        c = expansion_coeffs(0.5, lambda x: x ** 3 - 0.2 * x, 9)
        np.testing.assert_allclose(c[::2], 0.0, atol=1e-13)

    def test_runge_geometric_decay(self):
        c = np.abs(expansion_coeffs(0.5, RUNGE, 24))
        # singularities at +-i put the decay ratio near 1/(1+sqrt(2)) per degree
        ratios = (c[2:24:2] / c[0:22:2]) ** 0.5
        target = 1.0 / (1.0 + math.sqrt(2.0))
        assert np.all(np.abs(ratios[3:] - target) < 0.05)


class TestTruncatedExpansionError:
    def test_polynomial_exact(self):
        err = truncated_expansion_error(0.5, lambda x: x ** 4 - 0.3 * x, 6)
        assert err <= 1e-10

    def test_geometric_decay_for_runge(self):
        e10 = truncated_expansion_error(0.5, RUNGE, 10)
        e20 = truncated_expansion_error(0.5, RUNGE, 20)
        ratio = (e20 / e10) ** 0.1
        assert abs(ratio - 1.0 / (1.0 + math.sqrt(2.0))) < 0.05

    def test_kink_decays_algebraically(self):
        e20 = truncated_expansion_error(0.5, np.abs, 20)
        e40 = truncated_expansion_error(0.5, np.abs, 40)
        # two octaves gain far less than any geometric rate would give
        assert e40 > 0.05 * e20


# every 50th point of the measurement grid, the ends and the middle included
GRID_SUBSET = np.linspace(-1.0, 1.0, GRID_SIZE)[::50]


class TestExactExpansionError:
    """The second-kind-function kernel against the expansion evaluated at 50
    digits, the coefficients included."""

    @pytest.mark.parametrize("fn", [TEST_FUNCTIONS["runge1"], TEST_FUNCTIONS["runge2"],
                                    TEST_FUNCTIONS["exp"], make_rational(0.05),
                                    make_rational(3.0)], ids=lambda fn: fn.name)
    @pytest.mark.parametrize("lam", LAM_GRID)
    def test_matches_mp_oracle(self, fn, lam):
        for n in (0, 1, 2, 5, 12, 24):
            got = exact_expansion_error(lam, fn.u, fn.poles, n, GRID_SUBSET)
            ref = np.array(mp_oracle.expansion_error_mp_plain(lam, fn.u, n, GRID_SUBSET, 50))
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), n

    def test_pole_rate_at_large_degree(self):
        # (e_{n+100} / e_n)^(1/100) tends to 1/rho for the poles at +-i,
        # rho = 1 + sqrt(2); e_700 is about 6e-268
        fn = TEST_FUNCTIONS["runge1"]
        errs = [measure_expansion_error(0.5, fn, n) for n in (400, 500, 600, 700)]
        assert all(math.isfinite(e) for e in errs)
        for e, e_next in zip(errs, errs[1:]):
            assert (e_next / e) ** 0.01 == pytest.approx(1 / (1 + math.sqrt(2)), abs=1e-3)

    def test_entire_function_keeps_decaying(self):
        # e^x: the error near 2^-n / (n + 1)! reaches 6e-256 at n = 128
        errs = [measure_expansion_error(0.5, TEST_FUNCTIONS["exp"], n)
                for n in range(8, 136, 8)]
        assert all(0.0 < e_next < e for e, e_next in zip(errs, errs[1:]))
        assert errs[-1] < 1e-250

    def test_float64_operator_agrees_above_its_floor(self):
        for fn in (TEST_FUNCTIONS["runge2"], make_rational(0.3)):
            for n in (4, 10, 16):
                err = measure_expansion_error(1.5, fn, n)
                assert truncated_expansion_error(1.5, fn.u, n) == pytest.approx(err, rel=1e-6)

    def test_rejects_bad_input(self):
        fn = TEST_FUNCTIONS["runge1"]
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            exact_expansion_error(0.5, fn.u, fn.poles, 4, np.array([1.5]))
        with pytest.raises(ValueError, match="order"):
            exact_expansion_error(0.5, RUNGE, ((1j, (0, 0, 1)),), 4, GRID_SUBSET)


# the exact errors share one contour, |z| = max(n + 1, 2) = 5 at n = 4 with no poles
@pytest.mark.parametrize("error", [
    lambda u: exact_expansion_error(0.5, u, (), 4, GRID_SUBSET),
    lambda u: hermite_interp_error(gauss_nodes(0.5, 4), u, (), GRID_SUBSET),
    lambda u: hermite_diff_error(gauss_lobatto_nodes(1.5, 4), u, ()),
], ids=["expansion", "hermite-interp", "hermite-diff"])
def test_u_not_finite_on_contour(error):
    with pytest.raises(ValueError, match=r"u is not finite on the contour \|z\| = 5$"):
        error(lambda z: np.full_like(z, np.inf))


# 1/(z - 2i)^3: every exact kernel takes residues of poles of order 1 and 2 only
@pytest.mark.parametrize("error", [
    lambda u, poles: exact_expansion_error(0.5, u, poles, 4, GRID_SUBSET),
    lambda u, poles: hermite_interp_error(gauss_nodes(0.5, 4), u, poles, GRID_SUBSET),
    lambda u, poles: hermite_diff_error(gauss_lobatto_nodes(1.5, 4), u, poles),
], ids=["expansion", "hermite-interp", "hermite-diff"])
def test_pole_of_order_three_rejected(error):
    with pytest.raises(ValueError, match="order above 2"):
        error(lambda z: 1.0 / (z - 2j) ** 3, ((2j, (0.0, 0.0, 1.0)),))
