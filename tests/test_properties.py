"""Property-based checks over randomly drawn family parameters and degrees.

Every draw is derandomized and no example database is kept, so a run
repeats exactly.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gegenspec.nodes import closed_form_gauss_rule, gauss_lobatto_nodes, gauss_rule

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)

LAMS = st.floats(min_value=-0.49, max_value=8.0).filter(lambda lam: abs(lam) >= 1e-3)
NS = st.integers(min_value=1, max_value=60)

# Relative error allowed in the integral of an even monomial.  Over these
# tests' own draws the worst was 1.2e-12 for Lobatto (lam = 6.77, n = 60,
# x^118), 1.1e-12 for gauss_rule (lam = 7.53, n = 59, x^118) and 1.4e-13
# for closed_form_gauss_rule; over 3000 uniform draws of the same domain it
# was 1.6e-12 (Lobatto, lam = 7.86, n = 60, x^118).
MOMENT_RTOL = 1e-11


def even_moment(lam, k):
    """Integral of x^(2k) (1-x^2)^(lam-1/2) over [-1, 1]:
    Gamma(k+1/2) Gamma(lam+1/2) / Gamma(k+lam+1)."""
    return math.exp(math.lgamma(k + 0.5) + math.lgamma(lam + 0.5) - math.lgamma(k + lam + 1.0))


def assert_even_moments(x, w, lam, kmax):
    for k in range(kmax + 1):
        want = even_moment(lam, k)
        got = float(np.dot(w, x ** (2 * k)))
        assert abs(got - want) <= MOMENT_RTOL * want, k


@SETTINGS
@given(lam=LAMS, n=NS)
def test_gauss_rules_integrate_even_monomials_through_2n_plus_1(lam, n):
    for rule in (gauss_rule, closed_form_gauss_rule):
        assert_even_moments(*rule(lam, n), lam, n)


@SETTINGS
@given(lam=LAMS, n=NS)
def test_lobatto_rule_integrates_even_monomials_through_2n_minus_1(lam, n):
    ns = gauss_lobatto_nodes(lam, n)
    assert_even_moments(ns.nodes, ns.quad_weights, lam, n - 1)
