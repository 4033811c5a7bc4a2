import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp

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
# and run their hot loops on integer mantissas; mp_oracle keeps the plain
# versions.  The values must be the same mpf.

BIT_LAMS = (-0.3, 0.5, 1.5, 2.5)


class TestBitIdentity:
    @pytest.mark.slow
    @pytest.mark.parametrize("lam", BIT_LAMS)
    def test_gauss_nodes_mp(self, lam):
        for n in range(1, 65):
            ref = list(mp_oracle.gauss_nodes_mp_plain(lam, n))
            assert highprec.gauss_nodes_mp(lam, n) == ref

    @pytest.mark.slow
    @pytest.mark.parametrize("lam", BIT_LAMS)
    def test_lobatto_nodes_mp(self, lam):
        # lam + 1 = 1.5 and 2.5 reuse the plain Gauss nodes cached above
        for n in range(1, 65):
            ref = mp_oracle.lobatto_nodes_mp_plain(lam, n)
            assert highprec.lobatto_nodes_mp(lam, n) == ref

    @pytest.mark.slow
    @pytest.mark.parametrize("family", (GAUSS, GAUSS_LOBATTO))
    @pytest.mark.parametrize("lam", (0.5, 1.5))
    def test_quad_error_mp(self, lam, family):
        # from n = 48 the 35-digit value is rounding noise, which only the
        # same roundings reproduce (runge2, lam = 1.5, Lobatto, n = 64 gives
        # 4.4903386981523874e-37)
        for name in ("runge1", "runge2"):
            u = TEST_FUNCTIONS[name].u
            for n in (12, 48, 64):
                got = highprec.quad_error_mp(lam, n, family, u)
                assert got == mp_oracle.quad_error_mp_plain(lam, n, family, u), (name, n)


# The integer kernel: every operation on (man, exp) pairs, rounded half to
# even, must give the normalised tuple of libmp's own correctly rounded
# operation.

KERNEL_PRECS = (53, 120, 140)
KERNEL_OPS = (
    (lambda a, b, prec: highprec._sub(a, (-b[0], b[1]), prec), libmp.mpf_add),
    (highprec._sub, libmp.mpf_sub),
    (highprec._mul, libmp.mpf_mul),
    (highprec._div, libmp.mpf_div),
)


def kernel_agrees(a, b, prec):
    x, y = libmp.from_man_exp(*a), libmp.from_man_exp(*b)
    for op, ref in KERNEL_OPS:
        if op is highprec._div and not b[0]:
            continue
        got = libmp.from_man_exp(*op(a, b, prec))
        assert got == ref(x, y, prec, libmp.round_nearest), (ref.__name__, a, b, prec)


def kernel_cases(prec):
    """Zeros, exact half-ulp ties, round-ups that carry to 2^prec, both
    signs, small integer divisors and exponent gaps up to 2000 bits."""
    top = 1 << prec
    cases = [
        ((0, 0), (3, -7)), ((5, 11), (0, -40)), ((0, 5), (0, -5)),
        ((top // 2 + 1, 1), (1, 0)),        # sum 2^prec + 3: a tie, rounds up
        ((top // 2 + 2, 1), (1, 0)),        # sum 2^prec + 5: a tie, rounds down
        ((top + 1, 0), (1, 0)),             # product 2^prec + 1: a tie
        ((top - 1, 0), (1, -1)),            # rounds up and carries to 2^prec
        ((top - 1, 0), (top - 1, 0)),
        ((1, 0), (3, 0)), ((top - 1, -prec), (7, 0)),
    ]
    for gap in (1, prec - 1, prec, prec + 1, prec + 3, 101, 500, 2000):
        cases += [((top - 1, 0), (1, -gap)), ((top // 2 + 1, 3), (-5, 3 - gap)),
                  ((top - 3, -gap), (top - 5, 0))]
    for m in range(1, 41):
        cases += [((top - 1 - 2 * m, 0), (m, 0)), ((-(top // 3), 2), (m, 0))]
    return cases


@pytest.mark.parametrize("prec", KERNEL_PRECS)
def test_kernel_edge_cases(prec):
    for a, b in kernel_cases(prec):
        for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            kernel_agrees((sa * a[0], a[1]), (sb * b[0], b[1]), prec)
            kernel_agrees((sb * b[0], b[1]), (sa * a[0], a[1]), prec)


@pytest.mark.parametrize("lam", (-0.3, 2.5))
def test_sweep_matches_mpf_code(lam):
    # a quick run of the Newton sweeps; TestBitIdentity's slow node cases
    # cover n = 1..64 (mp_oracle caches the plain nodes, so it shares them)
    for n in (4, 17, 30):
        assert highprec.gauss_nodes_mp(lam, n) == list(mp_oracle.gauss_nodes_mp_plain(lam, n))


@pytest.mark.parametrize("family", (GAUSS, GAUSS_LOBATTO))
@pytest.mark.parametrize("lam", (-0.3, 1.5))
def test_interpolant_matches_mpf_code(lam, family):
    # the barycentric loop that mp.quad runs, at mp.quad's 140 bits, against
    # mp_oracle's mpf operator code: between the nodes, near 0 and +-1, and
    # on the nodes, where both return u_j
    u = TEST_FUNCTIONS["runge2"].u
    with mp.workdps(highprec.DPS):
        xs, b, uv = highprec._interpolation_data(lam, 20, family, u)
        triples = highprec._node_triples(xs, b, uv)
        with mp.workprec(140):
            points = [mp.mpf(k) / 97 - 1 for k in range(1, 194)] + xs + [
                s * (1 - mp.mpf(10) ** -k) for s in (-1, 1) for k in (20, 38)] + [
                s * mp.mpf(10) ** -k for s in (-1, 1) for k in (3, 30, 80)]
            for x in points:
                got = highprec._interpolant(triples, x)
                assert got._mpf_ == mp_oracle.interpolant_mp_plain(xs, b, uv, x)._mpf_, x


MANTISSAS = st.one_of(
    st.integers(min_value=-(1 << 300), max_value=1 << 300),
    st.integers(min_value=1, max_value=300).map(lambda k: (1 << k) - 1),
    st.integers(min_value=-64, max_value=64),
)
PAIRS = st.tuples(MANTISSAS, st.integers(min_value=-2000, max_value=2000))


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(a=PAIRS, b=PAIRS, prec=st.sampled_from(KERNEL_PRECS))
def test_kernel_matches_libmp(a, b, prec):
    kernel_agrees(a, b, prec)
