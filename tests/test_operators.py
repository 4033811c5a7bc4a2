import math

import numpy as np
import pytest

from gegenspec.bounds import minimize_bound_on_grid, rho_scan_grid, scan_sups
from gegenspec.nodes import gauss_lobatto_nodes, gauss_nodes
from gegenspec.operators import (
    diff_matrix,
    differentiate_at_nodes,
    expansion_coeffs,
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
        ns = gauss_lobatto_nodes(1.5, 5)
        vals = RUNGE(ns.nodes)
        for j in (0, 2, 5):
            assert interpolate(ns, vals, float(ns.nodes[j])) == vals[j]

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
