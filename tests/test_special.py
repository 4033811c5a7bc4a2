import math

import numpy as np
import pytest

from gegenspec.special import (
    GegenbauerParam,
    d_coeff_sequence,
    g_coeff_sequence,
    h_norm,
    total_mass,
    value_at_one,
)

LAM_GRID = (-0.3, 0.5, 1.5, 3.2)


class TestGegenbauerParam:
    def test_accepts_valid(self):
        for lam in (-0.49, -1e-6, 1e-8, 0.5, 1.0, 7.25):
            assert GegenbauerParam(lam).lam == lam

    # 1e-17 ... 5e-324: 1 + lam == 1, so every recurrence sees the degenerate lam = 0;
    # 1e-12 ... -1e-9 lie below LAM_MIN, where the rules lose accuracy (at
    # 1.2e-16 and -6e-17 a Gauss node falls outside [-1, 1])
    @pytest.mark.parametrize("lam", [0.0, -0.5, -1.0, float("nan"),
                                     1e-17, 1.1e-16, -5e-17, 5e-324,
                                     1e-12, 1.2e-16, -6e-17, -1e-9])
    def test_rejects_invalid(self, lam):
        with pytest.raises(ValueError, match=f"^lambda .*, got {lam}$"):
            GegenbauerParam(lam)


class TestGCoeff:
    def test_lam_one_all_ones(self):
        assert np.all(g_coeff_sequence(1.0, 7) == 1.0)

    def test_legendre_closed_form(self):
        # lam = 1/2: (2k)! / (k!^2 2^(2k)), i.e. 1, 1/2, 3/8, 5/16
        np.testing.assert_allclose(
            g_coeff_sequence(0.5, 3), [1.0, 0.5, 0.375, 0.3125], rtol=1e-15
        )

    def test_negative_lam_sign(self):
        # the only sign flip is at k = 1
        g = g_coeff_sequence(-0.25, 30)
        assert g[0] == 1.0 and np.all(g[1:] < 0.0)

    def test_sequence_matches_scalar(self):
        # each entry against the scalar Gamma ratio Gamma(k+lam)/(k! Gamma(lam))
        for lam in LAM_GRID:
            seq = g_coeff_sequence(lam, 30)
            for k in (0, 1, 7, 30):
                direct = math.gamma(k + lam) / (math.factorial(k) * math.gamma(lam))
                assert seq[k] == pytest.approx(direct, rel=1e-13)

    @pytest.mark.parametrize("lam", LAM_GRID)
    def test_stirling_asymptotics(self, lam):
        # Gamma(lam) g_k / (k+lam)^(lam-1) inside the two-sided Stirling window,
        # valid for k >= 1 with k + lam >= 1
        glam = math.gamma(lam)
        kmin = max(1, math.ceil(1.0 - lam))
        seq = g_coeff_sequence(lam, 500)
        for k in range(kmin, 501):
            mid = (1.0 + lam / k) ** (k + 0.5) * math.exp(-lam)
            val = glam * seq[k] / (k + lam) ** (lam - 1.0)
            c1 = math.exp(-1.0 / (12.0 * k))
            c2 = math.exp(1.0 / (12.0 * (k + lam)))
            assert c1 * mid * (1 - 1e-13) <= val <= c2 * mid * (1 + 1e-13)

    @pytest.mark.parametrize("lam", [-0.3, -0.1, 0.25, 0.5, 0.9])
    def test_magnitude_strictly_decreasing_low_lam(self, lam):
        seq = np.abs(g_coeff_sequence(lam, 501))
        assert np.all(seq[1:] < seq[:-1])

    @pytest.mark.parametrize("lam", [-0.3, 0.5, 0.9])
    def test_product_bound(self, lam):
        # |d_{n,k} g_k| < 1 for 1 <= k <= n-1, n >= 3
        g = np.abs(g_coeff_sequence(lam, 200))
        for n in range(3, 201, 7):
            d = np.abs(d_coeff_sequence(lam, n))
            assert np.all(d[: n - 1] * g[1:n] < 1.0)


class TestDCoeff:
    def test_lam_one_zero(self):
        assert np.all(d_coeff_sequence(1.0, 10) == 0.0)

    def test_monotone_increasing_above_one(self):
        for lam in (1.5, 3.2):
            d = d_coeff_sequence(lam, 10)
            assert np.all(d > 0.0) and np.all(d < 1.0)
            assert np.all(np.diff(d) > 0.0)

    def test_negated_monotone_below_one(self):
        d = d_coeff_sequence(0.5, 12)
        neg = -d[:11]
        assert np.all(neg > 0.0)
        assert np.all(np.diff(neg) > 0.0)

    def test_range_errors(self):
        for n in (0, -1):
            with pytest.raises(ValueError):
                d_coeff_sequence(0.5, n)

    @pytest.mark.parametrize("lam", [-0.49, -0.3, 1e-8, 0.123, 0.5, 1.0, 3.2, 60.0])
    def test_bitwise_the_term_by_term_loop(self, lam):
        for n in (1, 2, 3, 17, 100, 4000):
            d = np.empty(n)
            r = 1.0
            for k in range(1, n + 1):
                r *= (n - k + 1) / (n - k + lam)
                d[k - 1] = 1.0 - r
            assert np.array_equal(d_coeff_sequence(lam, n), d)


class TestHNorm:
    def test_constant_legendre(self):
        # integral of 1 over [-1,1]
        assert h_norm(0.5, 0) == pytest.approx(2.0, rel=1e-14)

    def test_constant_lam_three_halves(self):
        # integral of (1-x^2) over [-1,1]
        assert h_norm(1.5, 0) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_legendre_norm(self):
        # 2/(2n+1) at n = 5
        assert h_norm(0.5, 5) == pytest.approx(2.0 / 11.0, rel=1e-13)

    @pytest.mark.parametrize("lam", LAM_GRID)
    def test_positive_and_finite(self, lam):
        for n in (0, 1, 5, 50, 300):
            v = h_norm(lam, n)
            assert v > 0.0 and math.isfinite(v)

    def test_h0_is_total_mass_bitwise(self):
        for lam in np.linspace(-0.49, 12.0, 511):
            assert h_norm(lam, 0) == total_mass(lam)

    @pytest.mark.parametrize("lam", [-0.49, -0.3, 0.123, 0.5, 1.5, 3.2, 7.7])
    def test_h_n_and_endpoint_value_against_mpmath(self, lam):
        import mpmath as mp

        with mp.workdps(40):
            lm = mp.mpf(lam)
            h0 = mp.sqrt(mp.pi) * mp.gamma(lm + 0.5) / mp.gamma(lm + 1)
            for n in [*range(30), 64, 100, 600, 1000, 4000, 20000]:
                c = mp.gamma(n + 2 * lm) / (mp.factorial(n) * mp.gamma(2 * lm))
                h = h0 * lm / (n + lm) * c
                assert abs(value_at_one(lam, n) - c) <= 2e-14 * abs(c)
                assert abs(h_norm(lam, n) - h) <= 2e-14 * h

    def test_total_mass_is_h0_ratio(self):
        # weight integral equals sqrt(pi) Gamma(lam+1/2) / Gamma(lam+1)
        from scipy.integrate import quad

        for lam in (0.5, 1.5, 3.2):
            ref, _ = quad(lambda x: (1 - x * x) ** (lam - 0.5), -1, 1)
            assert total_mass(lam) == pytest.approx(ref, rel=1e-10)
