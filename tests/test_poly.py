import math

import numpy as np
import pytest

from gegenspec.poly import (
    eval_derivative,
    eval_recurrence,
    calibrated_sup_scale,
    eval_w_series,
    normalized_on_ellipse,
    recurrence_table,
    value_at_one,
)
from gegenspec.special import g_coeff_sequence, h_norm
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


class TestDerivative:
    def test_legendre_one(self):
        assert eval_derivative(0.5, 1, 0.9) == pytest.approx(1.0, rel=1e-15)

    def test_even_poly_odd_derivative(self):
        assert eval_derivative(1.5, 2, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_legendre_three(self):
        # L_3 = (5x^3 - 3x)/2, L_3' = (15 x^2 - 3)/2
        assert eval_derivative(0.5, 3, 0.2) == pytest.approx(-1.2, rel=1e-14)

    def test_requires_positive_degree(self):
        with pytest.raises(ValueError):
            eval_derivative(0.5, 0, 0.3)

    def test_finite_difference_consistency(self):
        h = 1e-6
        xs = np.linspace(-0.9, 0.9, 19)
        for lam in (-0.3, 0.5, 1.5):
            for n in (2, 5, 12):
                fd = (eval_recurrence(lam, n, xs + h) - eval_recurrence(lam, n, xs - h)) / (2 * h)
                got = eval_derivative(lam, n, xs)
                np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-6)


class TestWSeries:
    def test_unit_disk_rejected(self):
        with pytest.raises(ValueError):
            eval_w_series(0.5, 3, 0.9)
        with pytest.raises(ValueError):
            eval_w_series(0.5, 3, np.exp(0.3j))

    def test_degree_zero(self):
        assert eval_w_series(0.5, 0, 2 + 1j) == pytest.approx(1.0)

    def test_second_kind_geometric(self):
        # lam = 1: all g_k = 1, so the series is sum w^(n-2k)
        w = 1.5
        n = 5
        expected = sum(w ** (n - 2 * k) for k in range(n + 1))
        assert eval_w_series(1.0, n, w) == pytest.approx(expected, rel=1e-14)

    def test_matches_recurrence(self):
        theta = 2 * np.pi * np.arange(64) / 64
        for lam in LAM_GRID:
            for rho in (1.1, 1.5, 2.5):
                w = rho * np.exp(1j * theta)
                z = 0.5 * (w + 1.0 / w)
                for n in (0, 1, 8, 31, 60):
                    a = eval_w_series(lam, n, w)
                    b = eval_recurrence(lam, n, z)
                    assert np.max(np.abs(a - b) / np.abs(b)) < 1e-10


class TestNormalizedOnEllipse:
    def test_degree_zero_is_one(self):
        assert normalized_on_ellipse(0.5, 0, 1.7 + 0.4j) == pytest.approx(1.0)

    def test_unit_disk_rejected(self):
        with pytest.raises(ValueError):
            normalized_on_ellipse(0.5, 3, 1.0)

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
        # against eval_w_series / (g_n w^n) while that is still computable
        theta = 2 * np.pi * np.arange(16) / 16
        for lam in (-0.3, 0.5, 1.5, 3.2):
            for rho in (1.2, 2.0):
                w = rho * np.exp(1j * theta)
                for n in (1, 7, 40):
                    g_n = g_coeff_sequence(lam, n)[n]
                    direct = eval_w_series(lam, n, w) / (g_n * w ** n)
                    got = normalized_on_ellipse(lam, n, w)
                    np.testing.assert_allclose(got, direct, rtol=1e-11)

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
