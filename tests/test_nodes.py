import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import mp_oracle
from gegenspec.nodes import (
    GAUSS,
    GAUSS_LOBATTO,
    _jacobi_offdiag,
    _lagrange_matrix,
    barycentric_weights,
    closed_form_gauss_rule,
    gauss_lobatto_nodes,
    gauss_nodes,
    gauss_rule,
)
from gegenspec.operators import diff_matrix
from gegenspec.poly import eval_recurrence, eval_with_derivative
from gegenspec.special import total_mass

LAM_GRID = (-0.3, 0.5, 1.5, 3.2)


def weighted_monomial_integral(lam, m):
    """Closed form of int_-1^1 x^m (1-x^2)^(lam-1/2) dx via the Beta function."""
    if m % 2 == 1:
        return 0.0
    s = m // 2
    return math.exp(
        math.lgamma(s + 0.5) + math.lgamma(lam + 0.5) - math.lgamma(s + lam + 1.0)
    )


class TestGaussNodes:
    def test_two_point_legendre(self):
        ns = gauss_nodes(0.5, 1)
        np.testing.assert_allclose(
            ns.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15
        )
        np.testing.assert_allclose(ns.quad_weights, [1.0, 1.0], rtol=1e-14)

    def test_single_node(self):
        ns = gauss_nodes(3.2, 0)
        assert ns.nodes[0] == 0.0
        assert ns.quad_weights[0] == pytest.approx(total_mass(3.2), rel=1e-14)

    def test_lam_three_halves_pair(self):
        ns = gauss_nodes(1.5, 1)
        np.testing.assert_allclose(
            ns.nodes, [-1 / math.sqrt(5), 1 / math.sqrt(5)], atol=1e-15
        )

    @pytest.mark.parametrize("lam", LAM_GRID)
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 32, 128])
    def test_symmetry_and_ordering(self, lam, n):
        ns = gauss_nodes(lam, n)
        assert np.all(np.diff(ns.nodes) > 0)
        assert np.array_equal(ns.nodes, -ns.nodes[::-1])
        assert np.all(ns.nodes > -1.0) and np.all(ns.nodes < 1.0)

    @pytest.mark.parametrize("lam", LAM_GRID)
    def test_rule_nodes_exactly_antisymmetric(self, lam):
        # highprec.gauss_nodes_mp refines only the upper half of these starts
        # and negates it, which is exact only if the starts are
        for n in [*range(100), 255]:
            x = gauss_rule(lam, n)[0]
            assert np.array_equal(x, -x[::-1]), n

    @pytest.mark.parametrize("lam", LAM_GRID)
    @pytest.mark.parametrize("n", [1, 5, 24, 128])
    def test_newton_residual_certificate(self, lam, n):
        ns = gauss_nodes(lam, n)
        resid = np.abs(eval_recurrence(lam, n + 1, ns.nodes))
        slope = np.abs(eval_with_derivative(lam, n + 1, ns.nodes)[1])
        gaps = np.diff(ns.nodes)
        spacing = np.minimum(
            np.concatenate([[gaps[0]], gaps]), np.concatenate([gaps, [gaps[-1]]])
        ) if n >= 1 else np.array([2.0])
        assert np.all(resid <= 1e-12 * slope * spacing)

    @pytest.mark.parametrize("lam", LAM_GRID)
    def test_interlacing(self, lam):
        for n in (1, 4, 9, 20):
            outer = gauss_nodes(lam, n + 1).nodes
            inner = gauss_nodes(lam, n).nodes
            assert np.all(outer[:-1] < inner) and np.all(inner < outer[1:])

    @pytest.mark.parametrize("lam", LAM_GRID)
    def test_weights_positive_and_mass(self, lam):
        for n in (0, 3, 16, 64):
            ns = gauss_nodes(lam, n)
            assert np.all(ns.quad_weights > 0)
            assert np.sum(ns.quad_weights) == pytest.approx(
                total_mass(lam), rel=1e-12
            )

    @pytest.mark.parametrize("lam", LAM_GRID)
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 64])
    def test_exactness_through_2n_plus_1(self, lam, n):
        ns = gauss_nodes(lam, n)
        for m in range(2 * n + 2):
            got = float(np.dot(ns.quad_weights, ns.nodes ** m))
            ref = weighted_monomial_integral(lam, m)
            if ref == 0.0:
                assert abs(got) < 1e-13 * total_mass(lam)
            else:
                assert got == pytest.approx(ref, rel=1e-11)


# lam near -1/2 (end nodes within (lam + 1/2)/n^2 of +-1), near 0 (where the
# Jacobi matrix's j = 1 entry cancels) and large (where the eigenvector
# weights of the end nodes lose every digit at n = 1000)
ORACLE_LAMS = (-0.4999, -0.49, -0.3, 1e-8, 0.5, 1.5, 3.2, 7.7, 20.0)


def assert_weights_match_oracle(lam, n):
    x, w = closed_form_gauss_rule(lam, n)
    for j in sorted({0, 1, 2, 5, n // 4, n // 2} & set(range(n + 1))):
        _, want = mp_oracle.gauss_node_weight_mp(lam, n, x[j])
        assert abs(w[j] / float(want) - 1.0) <= 1e-10, (n, j)


class TestClosedFormGaussRule:
    @pytest.mark.parametrize("lam", ORACLE_LAMS)
    def test_weights_match_50_digit_oracle(self, lam):
        for n in (1, 2, 9, 64, 300):
            assert_weights_match_oracle(lam, n)

    @pytest.mark.parametrize("lam", [0.5, 7.7])
    def test_weights_carried_to_the_node(self, lam):
        # at n = 1000 the factor that carries each weight from its start to
        # the Newton-corrected node moves the end weights by 1.3e-10 (lam 0.5)
        # and 2.6e-10 (lam 7.7); below n ~ 1000 it stays under 1e-10
        assert_weights_match_oracle(lam, 1000)

    @pytest.mark.parametrize("lam", ORACLE_LAMS)
    def test_nodes_symmetry_and_mass(self, lam):
        mass = total_mass(lam)
        for n in (*range(40), 127, 300, 1000):
            x, w = closed_form_gauss_rule(lam, n)
            assert np.max(np.abs(x - gauss_rule(lam, n)[0])) <= 2.3e-16, n
            assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1]), n
            assert abs(np.sum(w) / mass - 1.0) <= 1e-13, n

    @pytest.mark.parametrize("lam", LAM_GRID)
    def test_small_rules_in_closed_form(self, lam):
        mass = total_mass(lam)
        assert [a.tolist() for a in closed_form_gauss_rule(lam, 0)] == [[0.0], [mass]]
        x, w = closed_form_gauss_rule(lam, 1)
        r = 1.0 / math.sqrt(2.0 * (1.0 + lam))
        np.testing.assert_allclose(x, [-r, r], rtol=1e-15)
        np.testing.assert_allclose(w, [mass / 2, mass / 2], rtol=1e-15)
        x, w = closed_form_gauss_rule(lam, 2)
        r = math.sqrt(1.5 / (2.0 + lam))
        np.testing.assert_allclose(x, [-r, 0.0, r], rtol=1e-15)
        end = mass * (2.0 + lam) / (6.0 * (1.0 + lam))
        np.testing.assert_allclose(w, [end, mass - 2.0 * end, end], rtol=1e-14)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            closed_form_gauss_rule(0.5, -1)


class TestLobattoNodes:
    def test_three_point(self):
        ns = gauss_lobatto_nodes(0.7, 2)
        np.testing.assert_allclose(ns.nodes, [-1.0, 0.0, 1.0], atol=1e-15)

    def test_four_point_legendre(self):
        ns = gauss_lobatto_nodes(0.5, 3)
        np.testing.assert_allclose(
            ns.nodes, [-1.0, -1 / math.sqrt(5), 1 / math.sqrt(5), 1.0], atol=1e-14
        )

    def test_endpoints_only(self):
        ns = gauss_lobatto_nodes(0.5, 1)
        np.testing.assert_allclose(ns.nodes, [-1.0, 1.0], atol=0)
        assert np.sum(ns.quad_weights) == pytest.approx(total_mass(0.5), rel=1e-13)

    def test_classical_legendre_weights(self):
        ns = gauss_lobatto_nodes(0.5, 2)
        np.testing.assert_allclose(
            ns.quad_weights, [1 / 3, 4 / 3, 1 / 3], rtol=1e-13
        )

    @pytest.mark.parametrize("lam,n,message", [
        (0.5, 0, "at least the two endpoints"),
        # interpolatory weights -1.6e-50 at both ends
        (200.0, 50, r"lambda = 200.0, n = 50 .* \(smallest -1.6e-50\)"),
    ])
    def test_rejected(self, lam, n, message):
        with pytest.raises(ValueError, match=message):
            gauss_lobatto_nodes(lam, n)

    def test_endpoints_exact(self):
        for lam in LAM_GRID:
            ns = gauss_lobatto_nodes(lam, 9)
            assert ns.nodes[0] == -1.0 and ns.nodes[-1] == 1.0

    def test_interior_are_shifted_family_zeros(self):
        lam, n = 1.5, 8
        ns = gauss_lobatto_nodes(lam, n)
        resid = np.abs(eval_recurrence(lam + 1.0, n - 1, ns.nodes[1:-1]))
        scale = np.abs(eval_with_derivative(lam + 1.0, n - 1, ns.nodes[1:-1])[1])
        assert np.all(resid <= 1e-12 * scale)

    @pytest.mark.parametrize("lam", LAM_GRID)
    def test_weights_positive(self, lam):
        for n in (1, 2, 5, 16, 64):
            ns = gauss_lobatto_nodes(lam, n)
            assert np.all(ns.quad_weights > 0)

    @pytest.mark.parametrize("lam", LAM_GRID)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 34, 55, 64])
    def test_exactness_through_2n_minus_1(self, lam, n):
        ns = gauss_lobatto_nodes(lam, n)
        for m in range(2 * n):
            got = float(np.dot(ns.quad_weights, ns.nodes ** m))
            ref = weighted_monomial_integral(lam, m)
            if ref == 0.0:
                assert abs(got) < 1e-13 * total_mass(lam)
            else:
                assert got == pytest.approx(ref, rel=1e-11)

    def test_family_labels(self):
        assert gauss_nodes(0.5, 2).family == GAUSS
        assert gauss_lobatto_nodes(0.5, 2).family == GAUSS_LOBATTO


class TestInterpolatoryWeights:
    def test_two_point_gauss(self):
        np.testing.assert_allclose(gauss_nodes(0.5, 1).quad_weights, [1.0, 1.0], rtol=1e-14)

    def test_three_point_lobatto(self):
        np.testing.assert_allclose(gauss_lobatto_nodes(0.5, 2).quad_weights,
                                   [1 / 3, 4 / 3, 1 / 3], rtol=1e-13)

    def test_single_node_total_mass(self):
        for lam in LAM_GRID:
            w = gauss_nodes(lam, 0).quad_weights
            assert w[0] == pytest.approx(total_mass(lam), rel=1e-13)

    def test_matches_eigenvector_weights(self):
        # independent route to the Gauss weights
        for lam in LAM_GRID:
            ns = gauss_nodes(lam, 12)
            w = interpolatory_weights_out_of_place(ns.nodes, lam)
            np.testing.assert_allclose(w, ns.quad_weights, rtol=1e-11)


class TestBarycentricWeights:
    def test_two_nodes(self):
        b = barycentric_weights(np.array([-1.0, 1.0]))
        np.testing.assert_allclose(b, [-1.0, 1.0], rtol=1e-15)

    def test_three_nodes_pattern(self):
        b = barycentric_weights(np.array([-1.0, 0.0, 1.0]))
        np.testing.assert_allclose(b / b[0], [1.0, -2.0, 1.0], rtol=1e-14)

    def test_alternating_signs_on_gauss(self):
        b = barycentric_weights(gauss_nodes(0.5, 4).nodes)
        assert np.all(b[:-1] * b[1:] < 0)

    def test_rescaled_to_unit_max(self):
        b = barycentric_weights(gauss_nodes(1.5, 17).nodes)
        assert np.max(np.abs(b)) == pytest.approx(1.0, rel=1e-15)

    def test_direct_product_formula(self):
        x = np.array([-0.9, -0.2, 0.3, 0.8])
        b = barycentric_weights(x)
        direct = np.array(
            [1.0 / np.prod([x[j] - x[k] for k in range(4) if k != j]) for j in range(4)]
        )
        np.testing.assert_allclose(b / b[0], direct / direct[0], rtol=1e-13)

    def test_no_underflow_for_large_sets(self):
        b = barycentric_weights(gauss_nodes(0.5, 400).nodes)
        assert np.all(np.isfinite(b)) and np.max(np.abs(b)) == pytest.approx(1.0)

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            barycentric_weights(np.array([0.2, 0.2]))

    @pytest.mark.parametrize("x", ([0.0, np.nan], [-np.inf, 0.0, 1.0]))
    def test_non_finite_rejected(self, x):
        with pytest.raises(ValueError, match="finite"):
            barycentric_weights(np.array(x))


class TestNodeSetValidation:
    def test_descending_rejected(self):
        from gegenspec.nodes import NodeSet

        with pytest.raises(ValueError):
            NodeSet(GAUSS, None, 1, np.array([1.0, -1.0]), np.ones(2), np.ones(2))

    def test_non_finite_rejected(self):
        from gegenspec.nodes import NodeSet

        with pytest.raises(ValueError, match="finite"):
            NodeSet(GAUSS, None, 1, np.array([np.nan, np.nan]), np.ones(2), np.ones(2))

    def test_immutable_arrays(self):
        ns = gauss_nodes(0.5, 3)
        with pytest.raises(ValueError):
            ns.nodes[0] = 0.0


# The O(n^2) kernels write into their difference matrix in place.  These are
# the out-of-place versions they replaced; the same operations in the same
# order must give the same bits.

def barycentric_weights_out_of_place(x):
    diff = x[:, None] - x[None, :]
    absd = np.abs(diff)
    np.fill_diagonal(absd, 1.0)
    logb = -np.sum(np.log(absd), axis=1)
    signs = np.where((np.sum(diff < 0, axis=1) % 2) == 0, 1.0, -1.0)
    return signs * np.exp(logb - np.max(logb))


def lagrange_matrix_out_of_place(x, b, y):
    diff = y[None, :] - x[:, None]
    hit_rows, hit_cols = np.nonzero(diff == 0.0)
    diff[hit_rows, hit_cols] = 1.0
    terms = b[:, None] / diff
    L = terms / np.sum(terms, axis=0, keepdims=True)
    if hit_rows.size:
        L[:, hit_cols] = 0.0
        L[hit_rows, hit_cols] = 1.0
    return L


def interpolatory_weights_out_of_place(x, lam):
    """Integral of each Lagrange basis of the nodes x (degree n) against the
    lam weight, by the n+2 point Gauss rule."""
    y, wq = gauss_rule(lam, len(x))
    return lagrange_matrix_out_of_place(x, barycentric_weights_out_of_place(x), y) @ wq


def diff_matrix_out_of_place(ns):
    x, b = ns.nodes, ns.bary_weights
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    D = (b[None, :] / b[:, None]) / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -np.sum(D, axis=1))
    return D


def gauss_rule_two_call_polish(lam, n):
    """gauss_rule with each Newton step from separate eval_recurrence calls
    for C_{n+1} and C_{n+1}' = 2 lam C_n of the family lam + 1."""
    count = n + 1
    if count == 1:
        return np.array([0.0]), np.array([total_mass(lam)])
    x, vecs = eigh_tridiagonal(np.zeros(count), _jacobi_offdiag(lam, count))
    w = total_mass(lam) * vecs[0] ** 2
    for _ in range(2):
        dc = 2.0 * lam * eval_recurrence(lam + 1.0, n, x)
        x = x - eval_recurrence(lam, n + 1, x) / dc
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


@pytest.mark.parametrize("lam", LAM_GRID)
def test_one_sweep_polish_matches_two_calls(lam):
    for n in (*range(100), 255, 1023):
        x, w = gauss_rule(lam, n)
        x_ref, w_ref = gauss_rule_two_call_polish(lam, n)
        assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)


@pytest.mark.parametrize("n", (1, 2, 5, 64, 300))
@pytest.mark.parametrize("lam", LAM_GRID)
class TestBitIdentity:
    def test_gauss_rule_is_gauss_nodes(self, lam, n):
        x, w = gauss_rule(lam, n)
        ns = gauss_nodes(lam, n)
        assert np.array_equal(x, ns.nodes) and np.array_equal(w, ns.quad_weights)

    def test_lobatto_weights_match_public_routes(self, lam, n):
        ns = gauss_lobatto_nodes(lam, n)
        assert np.array_equal(ns.bary_weights, barycentric_weights(ns.nodes))
        assert np.array_equal(ns.quad_weights, interpolatory_weights_out_of_place(ns.nodes, lam))

    def test_in_place_kernels_match_out_of_place(self, lam, n):
        for ns in (gauss_nodes(lam, n), gauss_lobatto_nodes(lam, n)):
            x, b = ns.nodes, ns.bary_weights
            assert np.array_equal(b, barycentric_weights_out_of_place(x))
            assert np.array_equal(diff_matrix(ns).entries, diff_matrix_out_of_place(ns))
            y, _ = gauss_rule(lam, n + 1)
            # the second target set hits two nodes exactly; the third lies
            # outside [x_0, x_n], copies every 7th interior node and puts
            # -0.0 against the centre node 0.0 of the odd sets
            if len(x) % 2:
                assert x[n // 2] == 0.0
            outside = np.concatenate([[1.5], x[1:-1:7], [-0.0, -1.5]])
            for targets in (y, np.concatenate([y, x[:1], x[-1:]]), outside):
                assert np.array_equal(_lagrange_matrix(x, b, targets),
                                      lagrange_matrix_out_of_place(x, b, targets))
            shuffled = x[np.random.default_rng(n).permutation(n + 1)]
            assert np.array_equal(barycentric_weights(shuffled),
                                  barycentric_weights_out_of_place(shuffled))
            with pytest.raises(ValueError, match="distinct"):
                barycentric_weights(np.concatenate([shuffled, shuffled[:1]]))
