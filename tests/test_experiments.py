import json
import math

import numpy as np
import pytest

from gegenspec import experiments as ex
from gegenspec import highprec
from gegenspec.bounds import minimize_bound_on_grid, quad_bound, rho_scan_grid, scan_sups
from gegenspec.nodes import GAUSS, GAUSS_LOBATTO


class TestConfig:
    def test_defaults_valid(self):
        cfg = ex.ExperimentConfig()
        assert cfg.lambda_list == (0.5, 1.5)
        assert cfg.rho_scan[1] == pytest.approx(1 + math.sqrt(2))

    def test_rejects_bad_lambda(self):
        with pytest.raises(ex.ConfigError):
            ex.ExperimentConfig(lambda_list=(0.0,))
        with pytest.raises(ex.ConfigError):
            ex.ExperimentConfig(lambda_list=(-0.6,))

    def test_rejects_unsorted_n(self):
        with pytest.raises(ex.ConfigError):
            ex.ExperimentConfig(n_list=(16, 8))

    def test_rejects_bad_scan(self):
        with pytest.raises(ex.ConfigError):
            ex.ExperimentConfig(rho_scan=(0.5, 2.0, 100))
        with pytest.raises(ex.ConfigError):
            ex.ExperimentConfig(rho_scan=(1.5, 1.2, 100))

    def test_rejects_unknown_function(self):
        with pytest.raises(ex.ConfigError):
            ex.ExperimentConfig(function_id="nope")

    def test_rejects_unknown_family(self):
        with pytest.raises(ex.ConfigError):
            ex.ExperimentConfig(node_family="chebyshev")

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "lambda_list": [0.5],
            "n_list": [8, 12],
            "rho_scan": [1.0, 2.4, 50],
            "ellipse_samples": 256,
            "function_id": "runge2",
        }))
        cfg = ex.ExperimentConfig.from_json(str(path))
        assert cfg.lambda_list == (0.5,) and cfg.function_id == "runge2"

    def test_json_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"lambda": 0.5}))
        with pytest.raises(ex.ConfigError):
            ex.ExperimentConfig.from_json(str(path))

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"function_id": "runge1"}))
        cfg = ex.ExperimentConfig.from_json(str(path), function_id="exp")
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

    def test_custom_rational(self):
        fn = ex.resolve_function("custom-rational", pole_imag=0.5)
        assert fn.u(0.0) == pytest.approx(4.0)
        assert fn.rho_sup == pytest.approx(0.5 + math.sqrt(1.25))

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
        # every kind shares one escalation step; the mpmath call is replaced
        # by a sentinel so both branches run without mpmath work
        fn = ex.TEST_FUNCTIONS["runge1"]
        sentinel = 1.25e-30
        for kind in ("diff", "interp", "quad", "expansion"):
            calls = []
            monkeypatch.setattr(
                highprec, f"{kind}_error_mp",
                lambda *args: calls.append(args) or sentinel,
            )
            measure = getattr(ex, f"measure_{kind}_error")

            def run(n):
                if kind == "expansion":
                    return measure(0.5, fn, n)
                return measure(0.5, n, GAUSS, fn)

            err_small, backend_small = run(4)
            assert backend_small == "float64", kind
            assert ex.MP_ESCALATE_BELOW <= err_small < 1.0, kind
            assert calls == [], kind
            assert run(56) == (sentinel, "mpmath"), kind
            assert len(calls) == 1, kind

    def test_quad_measurement_legendre(self):
        fn = ex.TEST_FUNCTIONS["runge1"]
        err, backend = ex.measure_quad_error(0.5, 8, GAUSS, fn)
        # reference pi/2 is the exact weighted integral here
        from gegenspec.nodes import gauss_nodes

        ns = gauss_nodes(0.5, 8)
        direct = abs(math.pi / 2 - float(np.dot(ns.quad_weights, fn.u(ns.nodes))))
        assert err == pytest.approx(direct, rel=1e-6)


class TestCertify:
    def test_matches_explicit_sequence(self):
        # float64 cells of 1/(x^2 + 0.07^2), with the theorem IDs written out
        which = {("diff", GAUSS): "T42", ("diff", GAUSS_LOBATTO): "T43b",
                 ("interp", GAUSS): "T41i", ("interp", GAUSS_LOBATTO): "T43a"}
        fn = ex.resolve_function(ex.CUSTOM_RATIONAL, 0.07)
        scan = ex.scan_function(fn, (1.0, ex.RHO_SUP_UNIT_POLES, 2000), 2048)
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

    def test_scan_function_clips_to_rho_sup(self):
        rational, entire = ex.make_rational(0.07), ex.TEST_FUNCTIONS["exp"]
        assert entire.rho_sup is None
        for fn, hi in ((rational, rational.rho_sup), (entire, 3.0)):
            rhos, sups, skipped = ex.scan_function(fn, (1.0, 3.0, 50), 64)
            np.testing.assert_array_equal(rhos, rho_scan_grid(1.0, hi, 50))
            np.testing.assert_array_equal(sups, scan_sups(fn.u, rhos, 64)[0])
            assert not skipped


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
        rows = ex.run_fig2(ex.ExperimentConfig(fig2_n_count=4, ellipse_samples=128))
        a = ex.format_csv(ex.FIG2_HEADER, rows)
        rows2 = ex.run_fig2(ex.ExperimentConfig(fig2_n_count=4, ellipse_samples=128))
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
        cfg = ex.ExperimentConfig(fig2_grid=((1.0, 1.4),), fig2_n_count=3)
        with pytest.raises(ex.ConfigError):
            ex.run_fig2(cfg)

    def test_fig2_rows_within_envelopes(self):
        cfg = ex.ExperimentConfig(fig2_n_count=5, ellipse_samples=512)
        for lam, rho, n, e, upper, lower in ex.run_fig2(cfg):
            assert e <= upper
            assert e >= 0.1 * lower

    def test_fig3_mini_run(self):
        cfg = ex.ExperimentConfig(
            lambda_list=(0.5,), n_list=(8, 16, 24),
            rho_scan=(1.0, ex.RHO_SUP_UNIT_POLES, 100), ellipse_samples=256,
        )
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
                rho_scan=(1.0, ex.RHO_SUP_UNIT_POLES, 100), ellipse_samples=256,
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
