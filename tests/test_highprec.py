import numpy as np
import pytest

import mp_oracle
from gegenspec import highprec
from gegenspec.experiments import TEST_FUNCTIONS
from gegenspec.nodes import GAUSS, GAUSS_LOBATTO, gauss_lobatto_nodes, gauss_nodes
from gegenspec.operators import (
    GRID_SIZE,
    differentiate_at_nodes,
    exact_expansion_error,
    truncated_expansion_error,
)

RUNGE = lambda x: 1 / (1 + x * x)
RUNGE_D = lambda x: -2 * x / (1 + x * x) ** 2


class TestNodesAgree:
    @pytest.mark.parametrize("lam", (-0.3, 0.5, 1.5))
    def test_gauss_nodes_match_double(self, lam):
        xs_mp = highprec.gauss_nodes_mp(lam, 12)
        xs = gauss_nodes(lam, 12).nodes
        np.testing.assert_allclose([float(x) for x in xs_mp], xs, atol=2e-15)

    def test_lobatto_nodes_match_double(self):
        xs_mp = highprec.lobatto_nodes_mp(0.5, 9)
        xs = gauss_lobatto_nodes(0.5, 9).nodes
        np.testing.assert_allclose([float(x) for x in xs_mp], xs, atol=2e-15)


class TestErrorsAgreeWithDouble:
    def test_diff_error(self):
        ns = gauss_nodes(0.5, 18)
        dbl = np.max(np.abs(differentiate_at_nodes(ns, RUNGE(ns.nodes)) - RUNGE_D(ns.nodes)))
        ref = mp_oracle.diff_error_mp(0.5, 18, GAUSS, RUNGE, RUNGE_D)
        assert dbl == pytest.approx(ref, rel=1e-6)

    def test_interp_error(self):
        from gegenspec.operators import interpolate

        ns = gauss_lobatto_nodes(1.5, 14)
        xs = np.linspace(-1, 1, 2001)
        dbl = np.max(np.abs(interpolate(ns, RUNGE(ns.nodes), xs) - RUNGE(xs)))
        ref = mp_oracle.interp_error_mp(1.5, 14, GAUSS_LOBATTO, RUNGE)
        assert dbl == pytest.approx(ref, rel=1e-6)

    def test_quad_error(self):
        import math

        # lam = 1/2: plain integral of runge over [-1,1] is pi/2
        ns = gauss_nodes(0.5, 8)
        dbl = abs(math.pi / 2.0 - float(np.dot(ns.quad_weights, RUNGE(ns.nodes))))
        ref = highprec.quad_error_mp(0.5, 8, GAUSS, RUNGE)
        assert dbl == pytest.approx(ref, rel=1e-6)

    def test_expansion_error(self):
        fn = TEST_FUNCTIONS["runge1"]
        dbl = truncated_expansion_error(0.5, fn.u, 10)
        xs = np.linspace(-1, 1, GRID_SIZE)
        ref = np.max(np.abs(exact_expansion_error(0.5, fn.u, fn.poles, 10, xs)))
        assert dbl == pytest.approx(ref, rel=1e-6)


class TestBeyondDoubleFloor:
    def test_diff_error_below_noise(self):
        # at n = 64 the double floor sits near 1e-12; the true error is
        # twelve orders below and still resolved
        err = mp_oracle.diff_error_mp(0.5, 64, GAUSS, RUNGE, RUNGE_D)
        assert 0.0 < err < 1e-18

    def test_errors_keep_decaying(self):
        errs = [
            mp_oracle.diff_error_mp(0.5, n, GAUSS, RUNGE, RUNGE_D)
            for n in (40, 48, 56)
        ]
        assert errs[1] < 1e-2 * errs[0]
        assert errs[2] < 1e-2 * errs[1]


# The library's node and quadrature paths build the recurrence coefficients
# once, stop Newton at a fixed point, refine only the upper half of the nodes
# and run their hot loops on raw libmp values; mp_oracle keeps the plain
# versions.  The values must be the same mpf.

BIT_LAMS = (-0.3, 0.5, 1.5, 2.5)


class TestBitIdentity:
    @pytest.mark.parametrize("lam", BIT_LAMS)
    def test_gauss_nodes_mp(self, lam):
        for n in range(1, 65):
            ref = list(mp_oracle.gauss_nodes_mp_plain(lam, n))
            assert highprec.gauss_nodes_mp(lam, n) == ref

    @pytest.mark.parametrize("lam", BIT_LAMS)
    def test_lobatto_nodes_mp(self, lam):
        # lam + 1 = 1.5 and 2.5 reuse the plain Gauss nodes cached above
        for n in range(1, 65):
            ref = mp_oracle.lobatto_nodes_mp_plain(lam, n)
            assert highprec.lobatto_nodes_mp(lam, n) == ref

    @pytest.mark.parametrize("family", (GAUSS, GAUSS_LOBATTO))
    @pytest.mark.parametrize("lam", (0.5, 1.5))
    def test_quad_error_mp(self, lam, family):
        # at n = 48 the 35-digit value is rounding noise, which only the
        # same roundings reproduce
        u = TEST_FUNCTIONS["runge1"].u
        for n in (12, 48):
            got = highprec.quad_error_mp(lam, n, family, u)
            assert got == mp_oracle.quad_error_mp_plain(lam, n, family, u)
