"""Hermite's formula for the interpolation and differentiation errors against
the independent mpmath oracle, and its behaviour at large n."""

import numpy as np
import pytest

import mp_oracle
from gegenspec import experiments as ex
from gegenspec import operators
from gegenspec.nodes import GAUSS, GAUSS_LOBATTO, gauss_lobatto_nodes, gauss_nodes
from gegenspec.operators import (
    GRID_SIZE,
    differentiate_at_nodes,
    hermite_diff_error,
    hermite_interp_error,
    interpolate,
)

BUILD = {GAUSS: gauss_nodes, GAUSS_LOBATTO: gauss_lobatto_nodes}
GRID = np.linspace(-1.0, 1.0, GRID_SIZE)
# every 20th grid point, the ends and the midpoint included
POINTS = GRID[::20]
RTOL = 1e-10
# at 35 digits the oracle's own rounding reaches ~1e-10 of the n = 64 errors
# (~1e-25); at 50 digits it agrees with Hermite's formula to ~3e-14
ORACLE_DPS = 50

FUNCTIONS = {
    "runge1": ex.TEST_FUNCTIONS["runge1"],
    "runge2": ex.TEST_FUNCTIONS["runge2"],
    "rational-0.3": ex.make_rational(0.3),
}
CELLS = [
    pytest.param(name, lam, family, n, id=f"{name}-{lam}-{family}-{n}")
    for name in FUNCTIONS for lam in (0.5, 1.5)
    for family in (GAUSS, GAUSS_LOBATTO) for n in (24, 64)
] + [
    # 32 and 33 factors in omega: one full block of the rescaled product,
    # then one factor spilled into a second; the double pole takes c_2
    pytest.param("runge2", 1.5, family, n, id=f"runge2-1.5-{family}-{n}")
    for family in (GAUSS, GAUSS_LOBATTO) for n in (31, 32)
]


def _assert_interp_matches(fn, lam, family, n, dps=ORACLE_DPS):
    got = hermite_interp_error(BUILD[family](lam, n), fn.u, fn.poles, POINTS)
    want = np.array(mp_oracle.interp_remainder_mp(lam, n, family, fn.u, POINTS, dps))
    scale = np.max(np.abs(want))
    assert scale > 0
    worst = float(np.max(np.abs(got - want))) / scale
    assert worst <= RTOL, worst


def _assert_diff_matches(fn, lam, family, n, dps=ORACLE_DPS):
    got = float(np.max(np.abs(hermite_diff_error(BUILD[family](lam, n), fn.u, fn.poles))))
    want = mp_oracle.diff_error_mp(lam, n, family, fn.u, fn.du, dps)
    assert got == pytest.approx(want, rel=RTOL)


@pytest.mark.parametrize("name,lam,family,n", CELLS)
def test_interp_matches_oracle(name, lam, family, n):
    _assert_interp_matches(FUNCTIONS[name], lam, family, n)


@pytest.mark.parametrize("name,lam,family,n", CELLS)
def test_diff_matches_oracle(name, lam, family, n):
    _assert_diff_matches(FUNCTIONS[name], lam, family, n)


def test_escalated_measurements_match_oracle():
    # rows past the double floor report the Hermite value over the full grid
    fn = ex.TEST_FUNCTIONS["runge1"]
    err, backend = ex.measure_interp_error(0.5, 44, GAUSS_LOBATTO, fn)
    assert backend == "hermite"
    assert err == pytest.approx(
        mp_oracle.interp_error_mp(0.5, 44, GAUSS_LOBATTO, fn.u, ORACLE_DPS), rel=RTOL)
    err, backend = ex.measure_diff_error(1.5, 56, GAUSS, fn)
    assert backend == "hermite"
    assert err == pytest.approx(
        mp_oracle.diff_error_mp(1.5, 56, GAUSS, fn.u, fn.du, ORACLE_DPS), rel=RTOL)


@pytest.mark.parametrize("family", (GAUSS, GAUSS_LOBATTO))
def test_exp_matches_80_digit_oracle(family):
    # entire u: the whole divided difference comes from the contour term;
    # the errors (~1e-59) lie far below a 35-digit evaluation's noise
    fn = ex.TEST_FUNCTIONS["exp"]
    _assert_interp_matches(fn, 0.5, family, 40, dps=80)
    _assert_diff_matches(fn, 0.5, family, 40, dps=80)


@pytest.mark.parametrize("lam,family,n,rtol", [
    pytest.param(0.5, GAUSS, 1000, 1e-8, id="0.5-gauss"),
    pytest.param(1.5, GAUSS_LOBATTO, 1000, 1e-8, id="1.5-gauss-lobatto"),
    # omega is about 2^-2000, below the double range unless rescaled; the
    # double measurement's own rounding floor is 2.2e-7 of its interp error
    # here, and the two differ by 8.9e-7
    pytest.param(0.5, GAUSS, 2000, 1e-5, id="0.5-gauss-2000"),
])
def test_large_n_rational_matches_double(lam, family, n, rtol):
    # poles at +-0.01i: at n = 1000 the error is far above the double noise,
    # while omega(x) / omega(a) as a plain product of factors would overflow
    fn = ex.make_rational(0.01)
    ns = BUILD[family](lam, n)
    interp_dbl, backend = ex.measure_interp_error(lam, n, family, fn)
    assert backend == "float64"
    got = np.max(np.abs(hermite_interp_error(ns, fn.u, fn.poles, GRID)))
    assert got == pytest.approx(interp_dbl, rel=rtol)
    diff_dbl, backend = ex.measure_diff_error(lam, n, family, fn)
    assert backend == "float64"
    got = np.max(np.abs(hermite_diff_error(ns, fn.u, fn.poles)))
    assert got == pytest.approx(diff_dbl, rel=rtol)


def test_large_n_exp_is_finite():
    # the true errors underflow double precision; the result must not be NaN
    fn = ex.TEST_FUNCTIONS["exp"]
    ns = gauss_nodes(0.5, 200)
    for values in (hermite_interp_error(ns, fn.u, fn.poles, GRID),
                   hermite_diff_error(ns, fn.u, fn.poles)):
        err = float(np.max(np.abs(values)))
        assert np.isfinite(err) and err >= 0.0


def test_zero_at_nodes():
    fn = ex.TEST_FUNCTIONS["runge2"]
    ns = gauss_lobatto_nodes(1.5, 10)
    values = hermite_interp_error(ns, fn.u, fn.poles, ns.nodes)
    assert np.array_equal(values, np.zeros(11))
    # next to the centre node 0.0 the error is linear in x; at 1e-307 the
    # factor x - 0.0 takes its block of omega to a subnormal, and the error
    # (about 7e-325) rounds to 0
    near = np.array([1e-100, 1e-200, 1e-280, 1e-307])
    values = hermite_interp_error(ns, fn.u, fn.poles, near)
    assert np.allclose(values[:3] / near[:3], values[0] / near[0], rtol=1e-10, atol=0.0)
    assert values[3] == 0.0


@pytest.mark.parametrize("pole", [-1.5, -1.5 + 0j], ids=["float", "complex"])
def test_real_pole_matches_double(pole):
    # a real pole left of every node: log(a - x_j) needs a complex a
    def u(z):
        return 1.0 / (z + 1.5)

    ns = gauss_nodes(0.5, 12)
    poles = ((pole, (1.0,)),)
    want = u(POINTS) - interpolate(ns, u(ns.nodes), POINTS)
    got = hermite_interp_error(ns, u, poles, POINTS)
    assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))
    want = -u(ns.nodes) ** 2 - differentiate_at_nodes(ns, u(ns.nodes))
    got = hermite_diff_error(ns, u, poles)
    assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


def whole_matrix_product(x, nodes, radius=None, at_nodes=False):
    """operators._product with the whole factor matrix formed first and its
    rows then multiplied _BLOCK at a time: the oracle for the block-at-a-time
    form."""
    factors = x[None, :] - nodes[:, None]
    if at_nodes:
        np.fill_diagonal(factors, 1.0)
    if radius is not None:
        factors = factors / radius
    m, expo = np.ones(x.shape, dtype=factors.dtype), 0
    for start in range(0, len(factors), operators._BLOCK):
        m, expo = operators._rescale(
            m * np.prod(factors[start:start + operators._BLOCK], axis=0), expo)
    return m, expo


@pytest.mark.parametrize("family", (GAUSS, GAUSS_LOBATTO))
@pytest.mark.parametrize("n", (1, 31, 32, 33, 200))
def test_block_product_matches_whole_matrix(monkeypatch, family, n):
    # omega(x_p) on the grid, omega'(x_j) at the nodes and omega(z) / R^(n+1)
    # on the contour, each formed one block of _BLOCK factors at a time
    fn = ex.TEST_FUNCTIONS["runge2"]
    ns = BUILD[family](1.5, n)
    got = (hermite_interp_error(ns, fn.u, fn.poles, GRID), hermite_diff_error(ns, fn.u, fn.poles))
    monkeypatch.setattr(operators, "_product", whole_matrix_product)
    want = (hermite_interp_error(ns, fn.u, fn.poles, GRID), hermite_diff_error(ns, fn.u, fn.poles))
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
