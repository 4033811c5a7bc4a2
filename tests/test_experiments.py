import json
import math

import numpy as np
import pytest

import mp_oracle
from gegenspec import experiments as ex
from gegenspec import highprec
from gegenspec.bounds import (
    e_n_metrics,
    ellipse_points,
    minimize_bound_on_grid,
    quad_bound,
    rho_scan_grid,
    scan_sups,
)
from gegenspec.nodes import (
    GAUSS,
    GAUSS_LOBATTO,
    gauss_lobatto_nodes,
    gauss_nodes,
    gauss_rule,
)

FIG3_KEYS = ("lambda_list", "n_list", "function_id", "rational_pole_imag")


class TestConfig:
    def test_defaults_valid(self):
        cfg = ex.ExperimentConfig()
        assert cfg.lambda_list == (0.5, 1.5)
        assert cfg.n_list == tuple(range(8, 68, 4))

    def test_rejects_bad_lambda(self):
        with pytest.raises(ex.ConfigError):
            ex.ExperimentConfig(lambda_list=(0.0,))
        with pytest.raises(ex.ConfigError):
            ex.ExperimentConfig(lambda_list=(-0.6,))

    def test_rejects_unsorted_n(self):
        with pytest.raises(ex.ConfigError):
            ex.ExperimentConfig(n_list=(16, 8))

    def test_rejects_unknown_function(self):
        with pytest.raises(ex.ConfigError):
            ex.ExperimentConfig(function_id="nope")

    def test_rejects_unknown_family(self):
        with pytest.raises(ex.ConfigError):
            ex.ExperimentConfig(node_family="chebyshev")

    def test_lists_stored_as_tuples(self):
        cfg = ex.ExperimentConfig(lambda_list=[0.5], n_list=[4], fig2_grid=[[0.5, 1.4]])
        assert (cfg.lambda_list, cfg.n_list, cfg.fig2_grid) == ((0.5,), (4,), ((0.5, 1.4),))

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "lambda_list": [0.5],
            "n_list": [8, 12],
            "function_id": "runge2",
        }))
        cfg = ex.ExperimentConfig.from_json(str(path), FIG3_KEYS)
        assert cfg.lambda_list == (0.5,) and cfg.function_id == "runge2"
        assert cfg.n_list == (8, 12)

    def test_json_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"lambda": 0.5}))
        with pytest.raises(ex.ConfigError, match="'lambda'"):
            ex.ExperimentConfig.from_json(str(path), FIG3_KEYS)

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"function_id": "runge1"}))
        cfg = ex.ExperimentConfig.from_json(str(path), FIG3_KEYS, function_id="exp")
        assert cfg.function_id == "exp"


class TestFunctions:
    def test_registry(self):
        assert set(ex.TEST_FUNCTIONS) == {"runge1", "runge2", "exp"}
        fn = ex.TEST_FUNCTIONS["runge1"]
        assert fn.u(0.0) == 1.0 and fn.rho_sup == pytest.approx(1 + math.sqrt(2))

    def test_analytic_derivatives(self):
        xs = np.linspace(-0.9, 0.9, 7)
        h = 1e-6
        for name in ("runge1", "runge2", "exp"):
            fn = ex.TEST_FUNCTIONS[name]
            fd = (fn.u(xs + h) - fn.u(xs - h)) / (2 * h)
            np.testing.assert_allclose(fn.du(xs), fd, rtol=1e-6, atol=1e-8)

    def test_runge1_is_the_unit_rational(self):
        # runge1 is make_rational(1.0), with the values of 1/(1+x^2) bit for bit
        fn = ex.TEST_FUNCTIONS["runge1"]
        x = np.array([0.0, -0.0, 0.3, -0.7, 1.0, 2.5, 1e200, 1e-300])
        z = np.array([0j, complex(0.0, -0.0), 0.3 + 0.2j, -0.7 + 1.9j, 1e-300j, 1e200j])
        for pts in (x, z):
            with np.errstate(all="ignore"):
                assert fn.u(pts).tobytes() == (1 / (1 + pts * pts)).tobytes()
                assert fn.du(pts).tobytes() == (-2 * pts / (1 + pts * pts) ** 2).tobytes()
        assert fn.poles == ((1j, (-0.5j,)), (-1j, (0.5j,)))
        assert fn.rho_sup == ex.make_rational(1.0).rho_sup

    def test_runge2_is_the_squared_unit_rational(self):
        # runge2 is make_rational(1.0, 2), with the values of 1/(1+x^2)^2 bit for bit
        fn = ex.TEST_FUNCTIONS["runge2"]
        x = np.array([0.0, -0.0, 0.3, -0.7, 1.0, 2.5, 1e200, 1e-300])
        z = np.array([0j, complex(0.0, -0.0), 0.3 + 0.2j, -0.7 + 1.9j, 1e-300j, 1e200j])
        for pts in (x, z):
            with np.errstate(all="ignore"):
                assert fn.u(pts).tobytes() == (1 / (1 + pts * pts) ** 2).tobytes()
                assert fn.du(pts).tobytes() == (-4 * pts / (1 + pts * pts) ** 3).tobytes()
        assert fn.poles == ((1j, (-0.25j, -0.25)), (-1j, (0.25j, -0.25)))
        assert fn.rho_sup == ex.TEST_FUNCTIONS["runge1"].rho_sup

    @pytest.mark.parametrize("order", [0, 3, 1.5])
    def test_rational_order_is_one_or_two(self, order):
        with pytest.raises(ValueError, match="order 1 or 2"):
            ex.make_rational(0.5, order)

    def test_custom_rational(self):
        fn = ex.resolve_function("custom-rational", pole_imag=0.5)
        assert fn.u(0.0) == pytest.approx(4.0)
        assert fn.rho_sup == pytest.approx(0.5 + math.sqrt(1.25))

    @pytest.mark.parametrize("fn", [
        ex.TEST_FUNCTIONS["runge1"], ex.TEST_FUNCTIONS["runge2"],
        ex.make_rational(0.05), ex.make_rational(0.8), ex.make_rational(3.0),
    ], ids=lambda fn: fn.name)
    def test_poles_are_the_principal_parts(self, fn):
        # a rational u vanishing at infinity is the sum of its principal parts
        z = np.array([0.3 + 0.2j, -0.7 + 1.9j, 2.5 - 0.4j, -0.1 - 4.0j, 1e-3 + 0.5j])
        total = sum(c / (z - a) ** k for a, cs in fn.poles
                    for k, c in enumerate(cs, start=1))
        np.testing.assert_allclose(total, fn.u(z), rtol=1e-13)

    @pytest.mark.parametrize("fn", [*ex.TEST_FUNCTIONS.values(), ex.make_rational(0.07)],
                             ids=["runge1", "runge2", "exp", "rational-0.07"])
    def test_modulus_is_conjugate_symmetric(self, fn):
        # bounds.scan_sups relies on this: without a peak_angle it evaluates
        # the upper half of each ellipse, and a declared peak_angle names the
        # peak on [0, pi] only
        for rho in (1.01, 1.5, 2.3, 4.0):
            _, z = ellipse_points(rho)
            assert np.array_equal(np.abs(fn.u(np.conj(z))), np.abs(fn.u(z)))

    @pytest.mark.parametrize("fn", [*ex.TEST_FUNCTIONS.values(), ex.make_rational(0.07)],
                             ids=["runge1", "runge2", "exp", "rational-0.07"])
    def test_declared_peak_is_the_peak(self, fn):
        # scan_sups evaluates u only next to peak_angle and trusts it
        theta = np.linspace(0.0, math.pi, 20001)
        step = theta[1]
        radii = [rho for rho in (1.01, 1.5, 2.3, 4.0) if fn.rho_sup is None or rho < fn.rho_sup]
        assert radii
        for rho in radii:
            a, b = 0.5 * (rho + 1.0 / rho), 0.5 * (rho - 1.0 / rho)
            mod = np.abs(fn.u(a * np.cos(theta) + 1j * b * np.sin(theta)))
            assert abs(theta[np.argmax(mod)] - fn.u.peak_angle) <= step, rho

    def test_entire_function_has_no_poles(self):
        fn = ex.TEST_FUNCTIONS["exp"]
        assert fn.poles == () and fn.rho_sup is None

    def test_mp_compatible(self):
        import mpmath as mp

        for name in ("runge1", "runge2", "exp"):
            fn = ex.TEST_FUNCTIONS[name]
            v = fn.u(mp.mpf("0.3"))
            assert float(v) == pytest.approx(float(fn.u(0.3)))


class TestRecord:
    def test_invariants(self):
        with pytest.raises(ValueError):
            ex.ExperimentRecord(0.5, 8, GAUSS, -1.0, "float64", 1.0, 2.0, ())
        with pytest.raises(ValueError):
            ex.ExperimentRecord(0.5, 8, GAUSS, 1.0, "float64", math.inf, 2.0, ())


class TestMeasurement:
    def test_escalation_kicks_in(self, monkeypatch):
        # every operator kind shares one escalation step; the exact path
        # (Hermite's formula for diff and interp, mpmath for quad) is
        # replaced by a sentinel so both branches run without the exact work
        fn = ex.TEST_FUNCTIONS["runge1"]
        sentinel = 1.25e-30
        exact = {"diff": (ex, "hermite_diff_error", "hermite"),
                 "interp": (ex, "hermite_interp_error", "hermite"),
                 "quad": (highprec, "quad_error_mp", "mpmath")}
        for kind, (module, name, backend) in exact.items():
            calls = []
            # the Hermite functions return signed values, measured as their max |.|
            value = np.array([-sentinel, 0.5 * sentinel]) if backend == "hermite" else sentinel
            monkeypatch.setattr(
                module, name, lambda *args: calls.append(args) or value,
            )
            measure = getattr(ex, f"measure_{kind}_error")
            err_small, backend_small = measure(0.5, 4, GAUSS, fn)
            assert backend_small == "float64", kind
            assert ex.MP_ESCALATE_BELOW <= err_small < 1.0, kind
            assert calls == [], kind
            assert measure(0.5, 56, GAUSS, fn) == (sentinel, backend), kind
            assert len(calls) == 1, kind

    @pytest.mark.parametrize("n,exact", [(16, 2.5486901289845867e-07),
                                         (64, 5.392740385427109e-26)])
    def test_quad_escalates_near_its_rounding_floor(self, n, exact):
        # at lam = -0.4999999999 the mass h_0 is 1e10, so the float64 pass
        # returns 2^-20, one rounding of the integral (about 5e9), at every
        # n: above MP_ESCALATE_BELOW, yet far below 64 eps (|I| + sum |w_j u(x_j)|)
        err, backend = ex.measure_quad_error(
            -0.4999999999, n, GAUSS, ex.TEST_FUNCTIONS["runge1"])
        assert backend == "mpmath"
        assert err == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("kind,family,exact", [
        ("diff", GAUSS_LOBATTO, 1.3125575718996327e-17),
        ("interp", GAUSS, 9.396506247625748e-19),
    ])
    def test_diff_and_interp_escalate_near_their_rounding_floor(self, kind, family, exact):
        # at lam = 8, n = 64 the float64 pass returns its rounding (about
        # 1e-7), above MP_ESCALATE_BELOW yet within 64 eps of its largest
        # sum of |term|
        err, backend = getattr(ex, f"measure_{kind}_error")(
            8.0, 64, family, ex.TEST_FUNCTIONS["runge1"])
        assert backend == "hermite"
        assert err == pytest.approx(exact, rel=1e-6)

    # the integral is exact, so the float64 pass is the error of the rule
    # itself even where the rule misses the peak of u; a Gauss reference rule
    # of max(4(n + 1), 128) points read 3.3% low at s = 0.01 and 21% at 0.001
    @pytest.mark.parametrize("s", (0.01, 0.001, 1e-6))
    @pytest.mark.parametrize("lam,n", ((0.5, 48), (3.2, 96)))
    def test_quad_error_is_exact_at_small_pole_heights(self, s, lam, n):
        fn = ex.make_rational(s)
        got, backend = ex.measure_quad_error(lam, n, GAUSS, fn)
        assert backend == "float64"
        want = mp_oracle.quad_rule_error_mp(lam, n, GAUSS, fn.u, (s,))
        assert abs(got - want) <= 1e-10 * want

    def test_quad_pole_too_close_to_the_interval_raises(self):
        # poles 1e-6 off the cut at 0.95: neither series of Q_0 converges
        a = 0.95 + 1e-6j
        res = 1.0 / (a - a.conjugate())
        fn = ex.TestFunction("near-cut", lambda x: 1.0 / ((x - a) * (x - a.conjugate())),
                             None, ((a, (res,)), (a.conjugate(), (-res,))))
        with pytest.raises(ValueError, match="too close"):
            ex.measure_quad_error(0.5, 48, GAUSS, fn)

    def test_quad_measurement_legendre(self):
        fn = ex.TEST_FUNCTIONS["runge1"]
        err, backend = ex.measure_quad_error(0.5, 8, GAUSS, fn)
        # reference pi/2 is the exact weighted integral here
        ns = gauss_nodes(0.5, 8)
        direct = abs(math.pi / 2 - float(np.dot(ns.quad_weights, fn.u(ns.nodes))))
        assert err == pytest.approx(direct, rel=1e-6)

    # the three certify-shallow cells at two pole heights, and the runge rows
    # of the study grid at small n
    @pytest.mark.parametrize("fn,lam,family,n", [
        *[(ex.make_rational(s), lam, family, n) for s in (0.05, 0.1)
          for lam, family, n in ((0.5, GAUSS, 48), (1.5, GAUSS_LOBATTO, 64),
                                 (3.2, GAUSS, 96))],
        *[(ex.TEST_FUNCTIONS[name], lam, family, n) for name in ("runge1", "runge2")
          for lam in (0.5, 1.5) for family in (GAUSS, GAUSS_LOBATTO) for n in (8, 16)],
    ], ids=lambda v: v.name if isinstance(v, ex.TestFunction) else None)
    def test_quad_first_pass_matches_eigenvector_reference(
            self, monkeypatch, fn, lam, family, n):
        # the float64 pass, never escalated, against the same measurement
        # with gauss_rule's rule of the same size as the reference
        monkeypatch.setattr(ex, "MP_ESCALATE_BELOW", 0.0)
        got, backend = ex.measure_quad_error(lam, n, family, fn)
        assert backend == "float64"
        x, w = gauss_rule(lam, max(4 * (n + 1), 128))
        ns = gauss_nodes(lam, n) if family == GAUSS else gauss_lobatto_nodes(lam, n)
        rule_sum = float(np.dot(ns.quad_weights, fn.u(ns.nodes)))
        want = abs(float(np.dot(w, fn.u(x))) - rule_sum)
        assert abs(got - want) <= 1e-6 * want + 2.2e-16 * n * n


class TestCertify:
    def test_matches_explicit_sequence(self):
        # float64 cells of 1/(x^2 + 0.07^2), with the theorem IDs written out
        which = {("diff", GAUSS): "T42", ("diff", GAUSS_LOBATTO): "T43b",
                 ("interp", GAUSS): "T41i", ("interp", GAUSS_LOBATTO): "T43a"}
        fn = ex.resolve_function(ex.CUSTOM_RATIONAL, 0.07)
        scan = ex.scan_function(fn)
        for lam, family, n in ((0.5, GAUSS, 48), (1.5, GAUSS_LOBATTO, 64), (3.2, GAUSS, 96)):
            got = ex.certify(fn, lam, n, family, ex.KINDS, scan)
            assert list(got) == list(ex.KINDS)
            for kind in ex.KINDS:
                err, backend = getattr(ex, f"measure_{kind}_error")(lam, n, family, fn)
                theorem = which["diff" if kind == "diff" else "interp", family]
                rho_star, bd = minimize_bound_on_grid(lam, n, theorem, *scan)
                if kind == "quad":
                    bd = quad_bound(lam, bd)
                flags = tuple(bd.flags) + ("measured with float64",)
                want = ex.ExperimentRecord(lam, n, family, err, "float64", bd.total,
                                           rho_star, flags)
                assert got[kind] == want, (lam, family, n, kind)

    def test_each_bound_minimised_once_per_row(self, monkeypatch):
        # quad reuses the interpolation minimum, scaled by h_0
        calls = []

        def counted(*args):
            calls.append(args[2])
            return minimize_bound_on_grid(*args)

        monkeypatch.setattr(ex, "minimize_bound_on_grid", counted)
        fn = ex.TEST_FUNCTIONS["runge1"]
        got = ex.certify(fn, 0.5, 12, GAUSS, ("diff", "interp", "quad"), ex.scan_function(fn))
        assert calls == ["T42", "T41"]
        assert got["quad"].rho_star == got["interp"].rho_star
        assert got["quad"].bound_total == quad_bound(
            0.5, minimize_bound_on_grid(0.5, 12, "T41", *ex.scan_function(fn))[1]).total

    def test_scan_function_clips_to_rho_sup(self):
        # 2000 radii inside (1, min(1 + sqrt 2, rho_sup)), 2048 samples each
        assert ex.TEST_FUNCTIONS["exp"].rho_sup is None
        for fn in (*ex.TEST_FUNCTIONS.values(), ex.make_rational(0.8),
                   ex.make_rational(0.05)):
            hi = min(1.0 + math.sqrt(2.0), fn.rho_sup or math.inf)
            rhos, sups, skipped = ex.scan_function(fn)
            want_rhos = rho_scan_grid(1.0, hi, 2000)
            want_sups, want_skipped = scan_sups(fn.u, want_rhos, 2048)
            assert np.array_equal(rhos, want_rhos), fn.name
            assert np.array_equal(sups, want_sups), fn.name
            assert skipped is want_skipped is False


class TestSlopeFit:
    def test_recovers_planted_slope(self):
        ns = np.arange(10, 60, 4)
        errs = 3.0 * np.exp(-0.7 * ns)
        assert ex.fit_log_slope(ns, errs) == pytest.approx(-0.7, rel=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            ex.fit_log_slope([5], [1.0])


class TestCsv:
    def test_seventeen_digits(self):
        text = ex.format_csv(("a", "b"), [(1.0 / 3.0, "x")])
        assert text.splitlines()[1].split(",")[0] == "0.33333333333333331"

    def test_integers_stay_integers(self):
        text = ex.format_csv(("n", "v"), [(12, 0.5)])
        assert text.splitlines()[1] == "12,0.5"

    def test_deterministic(self):
        rows = ex.run_fig2(ex.ExperimentConfig())
        a = ex.format_csv(ex.FIG2_HEADER, rows)
        rows2 = ex.run_fig2(ex.ExperimentConfig())
        b = ex.format_csv(ex.FIG2_HEADER, rows2)
        assert a == b


class TestRunners:
    def test_run_nodes_shapes(self):
        cfg = ex.ExperimentConfig(lambda_list=(0.5,), n_list=(2,),
                                  node_family=GAUSS_LOBATTO)
        blocks = ex.run_nodes(cfg)
        assert len(blocks) == 1
        meta, rows = blocks[0]
        assert meta == {"lambda": 0.5, "n": 2, "family": GAUSS_LOBATTO}
        assert [r[0] for r in rows] == [0, 1, 2]
        assert rows[1][1] == pytest.approx(0.0, abs=1e-15)

    def test_fig2_rejects_lam_one(self):
        cfg = ex.ExperimentConfig(fig2_grid=((1.0, 1.4),))
        with pytest.raises(ValueError, match="degenerate"):
            ex.run_fig2(cfg)

    def test_fig2_rows_are_e_n_metric(self):
        # run_fig2 builds the (lam, rho) work once for all degrees; each
        # value must be the single-degree metric's, bit for bit
        for lam, rho, n, e, _, _ in ex.run_fig2(ex.ExperimentConfig()):
            assert [e] == e_n_metrics(lam, (n,), rho)

    def test_fig2_rows_within_envelopes(self):
        cfg = ex.ExperimentConfig()
        for lam, rho, n, e, upper, lower in ex.run_fig2(cfg):
            assert e <= upper
            assert e >= 0.1 * lower

    def test_fig3_mini_run(self):
        cfg = ex.ExperimentConfig(lambda_list=(0.5,), n_list=(8, 16, 24))
        records, summary = ex.run_fig3(cfg)
        assert len(records) == 6
        assert summary["dominance_ok"]
        for r in records:
            assert r.measured_error <= ex.DOMINANCE_SLACK * r.bound_total
            assert 1.0 < r.rho_star < ex.RHO_SUP_UNIT_POLES
            assert "c set to 1" in r.flags

    def test_fig3_runge2_similar_rate(self):
        slopes = []
        for function_id in ("runge1", "runge2"):
            cfg = ex.ExperimentConfig(
                lambda_list=(0.5,), n_list=tuple(range(20, 44, 4)),
                function_id=function_id,
            )
            _, summary = ex.run_fig3(cfg)
            assert summary["series"][0]["family"] == GAUSS
            slopes.append(summary["series"][0]["fitted_log_slope"])
        a, b = slopes
        assert abs(a - b) < 0.1 * abs(a)

    def test_run_bounds_flags(self):
        d = ex.run_bounds(0.5, 10, 2.0, 1.0, "T42")
        assert d["flags"] == ["c set to 1"]
        d = ex.run_bounds(-0.3, 10, 2.0, 1.0, "T41ii")
        assert "uses calibrated D_lambda" in d["flags"]

    def test_run_bounds_rejects_wrong_branch(self):
        with pytest.raises(ex.ConfigError, match="admissibility"):
            ex.run_bounds(0.5, 10, 2.0, 1.0, "T31i")
        with pytest.raises(ex.ConfigError):
            ex.run_bounds(0.5, 10, 2.0, 1.0, "T41ii")
        with pytest.raises(ex.ConfigError):
            ex.run_bounds(0.5, 10, 2.0, 1.0, "T99")

    def test_expansion_decay_runge(self):
        rows = ex.run_expansion_decay(0.5, "runge1", tuple(range(8, 32, 4)))
        ratios = {r[2] for r in rows}
        assert len(ratios) == 1
        ratio = ratios.pop()
        assert abs(ratio - 1 / (1 + math.sqrt(2))) < 0.05

    def test_expansion_decay_polynomial_floor(self):
        rows = ex.run_expansion_decay(0.5, "exp", (8, 12, 16))
        # entire function: superexponential decay, ratio far below runge rate
        assert rows[0][2] < 0.1

    def test_expansion_decay_entire_below_any_fixed_precision(self):
        # e^x at the default degrees: the errors fall from 3e-8 to 4.8e-110,
        # far below the rounding floor of any fixed working precision
        rows = ex.run_expansion_decay(0.5, "exp", range(8, 68, 4))
        errs = [r[1] for r in rows]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-100
        assert rows[0][2] < 0.05
