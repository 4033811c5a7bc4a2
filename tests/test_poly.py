import math

import numpy as np
import pytest

from gegenspec.nodes import gauss_nodes
from gegenspec.poly import (
    eval_recurrence,
    eval_with_derivative,
    calibrated_sup_scale,
    normalized_on_ellipse,
    recurrence_table,
    second_kind_q0,
    second_kind_sweep,
    second_kind_table,
)
from gegenspec.special import g_coeff_sequence, h_norm, value_at_one
from gegenspec.bounds import remainder_exact

LAM_GRID = (-0.3, 0.5, 1.0, 1.5, 3.2)


def legendre_oracle(n, x):
    """Independent Legendre recurrence (Bonnet form)."""
    p_prev, p = np.ones_like(x), np.array(x, dtype=float)
    if n == 0:
        return p_prev
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p


class TestRecurrence:
    def test_degree_one(self):
        for lam in (-0.3, 0.7, 2.0):
            assert eval_recurrence(lam, 1, 0.3) == pytest.approx(0.6 * lam, rel=1e-15)

    def test_parity(self):
        xs = np.linspace(0.05, 0.95, 10)
        for lam in LAM_GRID:
            for n in (3, 6, 11):
                left = eval_recurrence(lam, n, -xs)
                right = (-1.0) ** n * eval_recurrence(lam, n, xs)
                np.testing.assert_allclose(left, right, rtol=1e-13, atol=1e-14)

    def test_legendre_value(self):
        assert eval_recurrence(0.5, 4, 0.5) == pytest.approx(-0.2890625, abs=1e-15)

    def test_legendre_identity_to_n100(self):
        xs = np.linspace(-1.0, 1.0, 41)
        table = recurrence_table(0.5, 100, xs)
        for n in range(101):
            np.testing.assert_allclose(
                table[n], legendre_oracle(n, xs), rtol=0, atol=1e-12
            )

    def test_second_kind_identity(self):
        # lam = 1 gives sin((n+1) theta)/sin(theta) at x = cos(theta)
        theta = np.linspace(0.15, np.pi - 0.15, 37)
        xs = np.cos(theta)
        for n in range(61):
            expected = np.sin((n + 1) * theta) / np.sin(theta)
            got = eval_recurrence(1.0, n, xs)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-11 * (n + 1))

    def test_chebyshev_scaled_limit(self):
        lam = 1e-8
        xs = np.linspace(-0.99, 0.99, 33)
        for n in range(1, 31):
            got = eval_recurrence(lam, n, xs) / lam
            expected = (2.0 / n) * np.cos(n * np.arccos(xs))
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-6)

    def test_max_bound_on_interval(self):
        xs = np.linspace(-1.0, 1.0, 501)
        for lam in (0.5, 1.5, 3.2):
            for n in (4, 17, 40):
                vals = np.abs(eval_recurrence(lam, n, xs))
                assert np.max(vals) <= value_at_one(lam, n) * (1 + 1e-13)

    def test_leading_coefficient(self):
        # C_n(x)/x^n -> 2^n g_n; averaging the evaluations at x and ix on
        # |x| = 1e4 cancels the next Laurent term, leaving O(x^-4)
        x = 1e4
        for lam in (-0.3, 0.5, 1.5, 3.2):
            g = g_coeff_sequence(lam, 20)
            for n in range(1, 21):
                r1 = eval_recurrence(lam, n, x) / x ** n
                r2 = eval_recurrence(lam, n, 1j * x) / (1j * x) ** n
                lead = 0.5 * (r1 + r2)
                expected = 2.0 ** n * g[n]
                assert abs(lead - expected) <= 1e-8 * abs(expected)

    def test_nevai_style_bound(self):
        # (1-x^2)^lam C_n(x)^2 <= (2 e (2 + sqrt(2) lam)/pi) h_n for lam > 0
        xs = np.linspace(-1.0, 1.0, 2001)
        for lam in (0.5, 1.5, 3.2):
            table = recurrence_table(lam, 100, xs)
            cap = 2.0 * math.e * (2.0 + math.sqrt(2.0) * lam) / math.pi
            for n in range(101):
                lhs = np.max((1.0 - xs * xs) ** lam * table[n] ** 2)
                assert lhs <= cap * h_norm(lam, n) * (1 + 1e-12)


def derivative(lam, n, x):
    """C_n' at x, the second value of eval_with_derivative."""
    return eval_with_derivative(lam, n, x)[1]


class TestDerivative:
    def test_legendre_one(self):
        assert derivative(0.5, 1, 0.9) == pytest.approx(1.0, rel=1e-15)

    def test_even_poly_odd_derivative(self):
        assert derivative(1.5, 2, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_legendre_three(self):
        # L_3 = (5x^3 - 3x)/2, L_3' = (15 x^2 - 3)/2
        assert derivative(0.5, 3, 0.2) == pytest.approx(-1.2, rel=1e-14)

    def test_requires_positive_degree(self):
        with pytest.raises(ValueError):
            derivative(0.5, 0, 0.3)

    def test_finite_difference_consistency(self):
        h = 1e-6
        xs = np.linspace(-0.9, 0.9, 19)
        for lam in (-0.3, 0.5, 1.5):
            for n in (2, 5, 12):
                fd = (eval_recurrence(lam, n, xs + h) - eval_recurrence(lam, n, xs - h)) / (2 * h)
                got = derivative(lam, n, xs)
                np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-6)


def recurrence_out_of_place(lam, n, x):
    """The forward recurrence as one out-of-place expression per degree."""
    c_prev = np.ones_like(x)
    if n == 0:
        return c_prev
    c = 2.0 * lam * x
    for m in range(2, n + 1):
        c_prev, c = c, (2.0 * (m + lam - 1.0) * x * c - (m + 2.0 * lam - 2.0) * c_prev) / m
    return c


class TestInPlaceSweep:
    """The in-place sweep shared by the recurrence routes gives the bits of
    the out-of-place recurrence at real points (complex products may round
    differently with the array layout, so complex points are checked by the
    tolerance tests above)."""

    @pytest.mark.parametrize("lam", LAM_GRID)
    def test_matches_out_of_place(self, lam):
        xs = np.concatenate([np.linspace(-1.0, 1.0, 41), [-1.7, 2.3]])
        table = recurrence_table(lam, 60, xs)
        for n in range(61):
            ref = recurrence_out_of_place(lam, n, xs)
            assert np.array_equal(eval_recurrence(lam, n, xs), ref)
            assert np.array_equal(table[n], ref)
            if n >= 1:
                c, dc = eval_with_derivative(lam, n, xs)
                d_ref = 2.0 * lam * recurrence_out_of_place(lam + 1.0, n - 1, xs)
                assert np.array_equal(c, ref) and np.array_equal(dc, d_ref)

    def test_scalar_and_shape(self):
        c, dc = eval_with_derivative(1.5, 7, 0.3)
        assert np.ndim(c) == 0 and np.ndim(dc) == 0
        assert c == eval_recurrence(1.5, 7, 0.3)
        assert dc == 2.0 * 1.5 * eval_recurrence(2.5, 6, 0.3)
        grid = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        assert eval_recurrence(0.5, 9, grid).shape == (3, 4)
        assert np.array_equal(eval_with_derivative(0.5, 9, grid)[1],
                              2.0 * 0.5 * eval_recurrence(1.5, 8, grid))

    def test_with_derivative_needs_positive_degree(self):
        with pytest.raises(ValueError):
            eval_with_derivative(0.5, 0, 0.3)


class TestWSeries:
    """C_n(z) = sum_k g_k g_{n-k} w^(n-2k), evaluated as g_n w^n times
    normalized_on_ellipse."""

    def test_second_kind_geometric(self):
        # lam = 1: all g_k = 1, so the series is sum w^(n-2k)
        w = 1.5
        n = 5
        expected = sum(w ** (n - 2 * k) for k in range(n + 1))
        got = w ** n * normalized_on_ellipse(1.0, n, w)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_matches_recurrence(self):
        theta = 2 * np.pi * np.arange(64) / 64
        for lam in LAM_GRID:
            g = g_coeff_sequence(lam, 60)
            for rho in (1.1, 1.5, 2.5):
                w = rho * np.exp(1j * theta)
                z = 0.5 * (w + 1.0 / w)
                for n in (0, 1, 8, 31, 60):
                    a = g[n] * w ** n * normalized_on_ellipse(lam, n, w)
                    b = eval_recurrence(lam, n, z)
                    assert np.max(np.abs(a - b) / np.abs(b)) < 1e-10


class TestNormalizedOnEllipse:
    def test_degree_zero_is_one(self):
        for w in (1.7 + 0.4j, 2 + 1j):
            assert normalized_on_ellipse(0.5, 0, w) == pytest.approx(1.0)

    def test_unit_disk_rejected(self):
        for w in (1.0, 0.9, np.exp(0.3j)):
            with pytest.raises(ValueError):
                normalized_on_ellipse(0.5, 3, w)

    def test_lam_one_geometric_limit(self):
        rho = 1.5
        got = normalized_on_ellipse(1.0, 4000, rho + 0j)
        assert got.real == pytest.approx(1.0 / (1.0 - rho ** -2), rel=1e-12)

    def test_within_exact_remainder_of_limit(self):
        lam, n, w = 0.5, 200, 1.2
        lim = (1.0 - w ** -2.0) ** (-lam)
        got = normalized_on_ellipse(lam, n, w + 0j)
        assert abs(got - lim) <= remainder_exact(lam, n, w) * (1 + 1e-12)

    def test_agrees_with_direct_ratio(self):
        # against the recurrence's C_n(z) / (g_n w^n) while that is still
        # computable
        theta = 2 * np.pi * np.arange(16) / 16
        for lam in (-0.3, 0.5, 1.5, 3.2):
            for rho in (1.2, 2.0):
                w = rho * np.exp(1j * theta)
                z = 0.5 * (w + 1.0 / w)
                for n in (1, 7, 40):
                    g_n = g_coeff_sequence(lam, n)[n]
                    direct = eval_recurrence(lam, n, z) / (g_n * w ** n)
                    got = normalized_on_ellipse(lam, n, w)
                    np.testing.assert_allclose(got, direct, rtol=1e-11)

    @staticmethod
    def term_by_term(lam, n, w):
        """The series summed coefficient by coefficient, cut where the cap
        exp|log g_n| (lgamma differences, Gamma(|lam|) for |Gamma(lam)|)
        times the tail qmag^(k+1)/(1-qmag) falls below 1e-17 of the sum."""
        w = np.asarray(w, dtype=complex)
        qmag = float(np.max(np.abs(w))) ** -2.0
        log_abs_gn = (math.lgamma(n + lam) - math.lgamma(n + 1.0) - math.lgamma(abs(lam))
                      if n >= 1 else 0.0)
        coeff_cap = math.exp(abs(log_abs_gn))
        coeffs, ratio, g, mag_k, acc_abs = [], 1.0, 1.0, 1.0, 0.0
        for k in range(n + 1):
            c = ratio * g
            coeffs.append(c)
            acc_abs += abs(c) * mag_k
            if k < n:
                if coeff_cap * mag_k * qmag / (1.0 - qmag) < 1e-17 * max(acc_abs, 1.0):
                    break
                ratio *= (n - k) / (n - k - 1.0 + lam)
                g *= (k + lam) / (k + 1.0)
                mag_k *= qmag
        q = w ** -2.0
        total = np.zeros_like(q)
        for c in reversed(coeffs):
            total = total * q + c
        return total

    @pytest.mark.parametrize("lam", [-0.49, -0.3, 1e-8, 0.123, 0.5, 1.0, 3.2, 20.0, 60.0])
    def test_bitwise_the_term_by_term_sum(self, lam):
        w = np.exp(2j * np.pi * np.arange(33) / 33)
        for n in (0, 1, 2, 5, 17, 100, 1000, 4000):
            for rho in (1.0001, 1.2, 2.0, 10.0):
                got = normalized_on_ellipse(lam, n, rho * w)
                assert np.array_equal(got, self.term_by_term(lam, n, rho * w))

    def test_coefficient_overflow_raises(self):
        with pytest.raises(ValueError, match="overflow at lambda=300.0, n=2000"):
            normalized_on_ellipse(300.0, 2000, 1.2 + 0j)

    def test_limit_identity_trend(self):
        # discrepancy to (1-w^-2)^-lam shrinks monotonically as n doubles
        theta = 2 * np.pi * np.arange(32) / 32
        for lam in (-0.3, 0.5, 1.5, 3.2):
            for rho in (1.3, 2.0):
                w = rho * np.exp(1j * theta)
                lim = (1.0 - w ** -2.0) ** (-lam)
                gaps = []
                for n in (64, 128, 256, 512, 1024):
                    gaps.append(np.max(np.abs(normalized_on_ellipse(lam, n, w) - lim)))
                assert all(b < a for a, b in zip(gaps, gaps[1:]))


def second_kind_mp(lam, n, z, dps=50):
    """[(Q_l, Q_l')] for l = 0..n at 50 digits: Q_0 = (h_0 / z) 2F1(1, 1/2;
    lam + 1; 1 / z^2) and its derivative, then the forward recurrence and
    its derivative, which lose about |w|^(2l) of the digits."""
    import mpmath as mp

    with mp.workdps(dps):
        lam, z = mp.mpf(lam), mp.mpc(z)
        h0 = mp.sqrt(mp.pi) * mp.gamma(lam + 0.5) / mp.gamma(lam + 1)
        q0 = lambda t: h0 / t * mp.hyp2f1(1, 0.5, lam + 1, 1 / t ** 2)
        q = [q0(z), 2 * lam * (z * q0(z) - h0)]
        dq = [mp.diff(q0, z)]
        dq.append(2 * lam * (q[0] + z * dq[0]))
        for l in range(2, n + 1):
            a, b = 2 * (l + lam - 1), l + 2 * lam - 2
            q.append((a * z * q[-1] - b * q[-2]) / l)
            dq.append((a * (q[-2] + z * dq[-1]) - b * dq[-2]) / l)
        return [complex(v) for v in q[:n + 1]], [complex(v) for v in dq[:n + 1]]


class TestSecondKind:
    """Q_l(z) = integral of w(y) C_l(y) / (z - y) dy from the backward sweep."""

    @pytest.mark.parametrize("lam", (-0.49, -0.3, 0.5, 1.5, 3.2))
    def test_matches_closed_form_and_forward_recurrence(self, lam):
        zs = np.array([1j, 0.3 + 0.05j, 2 + 0.5j, -0.9 + 0.01j])
        q, dq = second_kind_table(lam, 20, zs)
        for k, z in enumerate(zs):
            q_ref, dq_ref = second_kind_mp(lam, 20, z)
            np.testing.assert_allclose(q[:, k], q_ref, rtol=1e-13)
            np.testing.assert_allclose(dq[:, k], dq_ref, rtol=1e-13)

    def test_legendre_log(self):
        # lam = 1/2: Q_0(z) = log((z + 1) / (z - 1)), Q_0' = -2 / (z^2 - 1)
        q, dq = second_kind_table(0.5, 3, 2.0)
        assert q.shape == (4,)
        assert q[0] == pytest.approx(math.log(3.0), rel=1e-15)
        assert dq[0] == pytest.approx(-2.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("lam", (-0.3, 0.5, 3.2))
    def test_sweep_from_rule_size_is_gauss_cauchy_transform(self, lam):
        # started at N, the sweep gives sum_j w_j C_l(y_j) / (z - y_j) over
        # the N-point Gauss rule, to the rounding of that sum
        big, zs = 12, np.array([1j, 0.2 + 0.1j, 5.0 - 3.0j])
        rule = gauss_nodes(lam, big - 1)
        terms = recurrence_table(lam, big - 1, rule.nodes) * rule.quad_weights
        cauchy = 1.0 / (zs[None, :] - rule.nodes[:, None])
        ratios = {l: r for l, r, _ in second_kind_sweep(lam, big, zs)}
        f = np.cumprod([ratios[l] for l in range(big)], axis=0)
        assert np.all(np.abs(f - terms @ cauchy) <= 1e-13 * (np.abs(terms) @ np.abs(cauchy)))

    @pytest.mark.parametrize("z", (0.5, -1.0, 0.5 + 1e-9j))
    def test_points_on_or_near_the_interval_rejected(self, z):
        with pytest.raises(ValueError, match="too close"):
            second_kind_table(0.5, 4, z)


class TestSecondKindQ0:
    """Q_0 and Q_0' in closed form: the w-series and its Pfaff form."""

    # z = +-is on both sides of the cut, s from 1e-3 to 10, and |z| = 2
    POINTS = np.concatenate([1j * np.logspace(-3, 1, 13), -1j * np.logspace(-3, 1, 13),
                             2.0 * np.exp(2j * np.pi * np.arange(16) / 16)])

    # lam = 1e-3 is left out: the sweep forms b_2 = (2 + 2 lam) - 2, which
    # leaves its Q_0' up to 7e-11 off there (the oracle test covers it).  The
    # sweep's Q_0' is also 1.4e-12 off -2 / (z^2 - 1) at lam = 1/2, z = 1e-3 i,
    # hence 3e-12; the oracle test holds Q_0' to 1e-12.
    @pytest.mark.parametrize("lam", (-0.49, -0.3, 0.5, 1.0, 1.5, 3.2, 7.7))
    def test_matches_the_miller_sweep(self, lam):
        q, dq = second_kind_q0(lam, self.POINTS)
        q_ref, dq_ref = second_kind_table(lam, 0, self.POINTS)
        np.testing.assert_allclose(q, q_ref[0], rtol=1e-13)
        np.testing.assert_allclose(dq, dq_ref[0], rtol=3e-12)

    # both series: +-is and the circle take Pfaff's form, the points near
    # +-1 and beyond sqrt(3)/2 near the cut the w-series
    @pytest.mark.parametrize("lam", (-0.49, 1e-3, 0.5, 3.2, 7.7))
    def test_matches_hypergeometric_oracle(self, lam):
        zs = np.array([1e-3j, -0.05j, 1j, 2.0, -1.0 + 1.0j, 1.01, -1.2 + 0.01j,
                       0.95 + 0.01j, 0.5 - 0.01j])
        q, dq = second_kind_q0(lam, zs)
        for k, z in enumerate(zs):
            (q_ref,), (dq_ref,) = second_kind_mp(lam, 0, z, dps=30)
            assert abs(q[k] - q_ref) <= 1e-13 * abs(q_ref), z
            assert abs(dq[k] - dq_ref) <= 1e-12 * abs(dq_ref), z

    def test_closed_forms(self):
        zs = np.array([0.3j, 2.0, -1.5 + 0.2j, 1e-3j, 0.9 - 0.05j])
        w = zs + np.sqrt(zs - 1.0) * np.sqrt(zs + 1.0)
        q, _ = second_kind_q0(1.0, zs)
        np.testing.assert_allclose(q, np.pi / w, rtol=1e-15)
        q, dq = second_kind_q0(0.5, zs)
        np.testing.assert_allclose(q, np.log((zs + 1.0) / (zs - 1.0)), rtol=1e-15)
        np.testing.assert_allclose(dq, -2.0 / (zs * zs - 1.0), rtol=1e-15)

    def test_scalar(self):
        q, dq = second_kind_q0(0.5, 2.0)
        assert q == pytest.approx(math.log(3.0), rel=1e-15)
        assert dq == pytest.approx(-2.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("z", (0.5, -1.0, 0.95 + 1e-6j, 1.0 + 1e-10))
    def test_points_on_or_near_the_interval_rejected(self, z):
        with pytest.raises(ValueError, match="z"):
            second_kind_q0(0.5, np.array([2.0, z]))


class TestValueAtOne:
    def test_legendre_endpoint(self):
        assert value_at_one(0.5, 9) == pytest.approx(1.0, rel=1e-14)

    def test_second_kind_endpoint(self):
        assert value_at_one(1.0, 4) == pytest.approx(5.0, rel=1e-13)

    def test_degree_zero(self):
        assert value_at_one(-0.3, 0) == 1.0

    def test_explicit_gamma_ratio(self):
        # Gamma(7)/(3! Gamma(4)) = 20 at lam = 2, n = 3
        assert value_at_one(2.0, 3) == pytest.approx(20.0, rel=1e-13)

    def test_matches_recurrence(self):
        for lam in LAM_GRID:
            for n in (1, 2, 9, 35):
                assert value_at_one(lam, n) == pytest.approx(
                    eval_recurrence(lam, n, 1.0), rel=1e-12
                )


class TestMaxAbsBound:
    """max |C_n| on [-1, 1]: C_n(1) for lam > 0, the calibrated D n^(lam-1)
    for lam < 0."""

    def test_legendre_is_one(self):
        xs = np.linspace(-1.0, 1.0, 2001)
        observed = np.max(np.abs(eval_recurrence(0.5, 50, xs)))
        assert observed == pytest.approx(value_at_one(0.5, 50), rel=1e-13)
        assert value_at_one(0.5, 50) == pytest.approx(1.0, rel=1e-13)

    def test_positive_lam_endpoint(self):
        xs = np.linspace(-1.0, 1.0, 2001)
        observed = np.max(np.abs(eval_recurrence(2.0, 3, xs)))
        assert observed == pytest.approx(value_at_one(2.0, 3), rel=1e-13)
        assert value_at_one(2.0, 3) == pytest.approx(20.0, rel=1e-13)

    def test_calibrated_negative_lam(self):
        lam, n = -0.3, 100
        bound = calibrated_sup_scale(lam) * n ** (lam - 1.0)
        xs = np.linspace(-1.0, 1.0, 2001)
        observed = np.max(np.abs(eval_recurrence(lam, n, xs)))
        assert observed <= bound * (1 + 1e-12)

    def test_covers_interval_for_negative_lam(self):
        xs = np.linspace(-1.0, 1.0, 1501)
        for n in (10, 60, 150):
            vals = np.max(np.abs(eval_recurrence(-0.3, n, xs)))
            assert vals <= calibrated_sup_scale(-0.3) * n ** (-1.3) * (1 + 1e-12)
