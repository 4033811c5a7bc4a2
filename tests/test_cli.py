import argparse
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from gegenspec import cli
from gegenspec.bounds import THEOREMS
from gegenspec.experiments import (
    CUSTOM_RATIONAL,
    TEST_FUNCTIONS,
    ExperimentConfig,
    ExperimentRecord,
    resolve_function,
)
from gegenspec.nodes import GAUSS, GAUSS_LOBATTO


RHO_SUP_S03 = 0.3 + math.sqrt(1.09)


def run_cli(argv):
    return cli.main(argv)


class TestNodesCommand:
    def test_two_point_gauss_csv(self, capsys):
        code = run_cli(["nodes", "--lambda", "0.5", "--n", "1", "--family", "gauss"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "j,node,quad_weight,bary_weight"
        assert lines[1].startswith("0,-0.57735026918962")
        assert lines[2].startswith("1,0.57735026918962")

    def test_lobatto_weights(self, capsys):
        run_cli(["nodes", "--lambda", "0.5", "--n", "2",
                 "--family", "gauss-lobatto"])
        out = capsys.readouterr().out
        cells = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert float(cells[0][2]) == pytest.approx(1 / 3, rel=1e-12)
        assert float(cells[1][2]) == pytest.approx(4 / 3, rel=1e-12)

    def test_single_node_total_mass(self, capsys):
        run_cli(["nodes", "--lambda", "1.5", "--n", "0", "--family", "gauss"])
        out = capsys.readouterr().out
        row = out.strip().splitlines()[1].split(",")
        assert float(row[1]) == 0.0
        assert float(row[2]) == pytest.approx(4 / 3, rel=1e-12)

    def test_multi_table_files(self, tmp_path):
        out = tmp_path / "nodes.csv"
        code = run_cli(["nodes", "--lambda", "0.5", "--n", "1", "--n", "2",
                        "--family", "gauss", "--out", str(out)])
        assert code == 0
        assert (tmp_path / "nodes_gauss_lam0.5_n1.csv").exists()
        assert (tmp_path / "nodes_gauss_lam0.5_n2.csv").exists()

    @pytest.mark.parametrize("ext", ("csv", "json"))
    def test_multi_table_file_names(self, ext, tmp_path):
        # the whole ".<ext>" suffix is stripped before the table tag goes on
        code = run_cli(["nodes", "--lambda", "0.5", "--n", "2", "--n", "3",
                        "--family", "gauss", "--format", ext,
                        "--out", str(tmp_path / f"t.{ext}")])
        assert code == 0
        names = [f"t_gauss_lam0.5_n{n}.{ext}" for n in (2, 3)]
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        for n, name in zip((2, 3), names):
            text = (tmp_path / name).read_text()
            if ext == "json":
                rows = json.loads(text)
            else:
                header, *lines = text.strip().splitlines()
                assert header == "j,node,quad_weight,bary_weight"
                rows = [dict(zip(header.split(","), map(float, line.split(","))))
                        for line in lines]
            assert len(rows) == n + 1
            assert sum(r["quad_weight"] for r in rows) == pytest.approx(2.0, rel=1e-13)

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            run_cli(["nodes", "--lambda", "1.5", "--n", "16",
                     "--family", "gauss", "--out", str(out)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, capsys):
        code = run_cli(["nodes", "--lambda", "0.5", "--n", "1",
                        "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        assert rows[0]["node"] == pytest.approx(-1 / math.sqrt(3), rel=1e-14)
        assert set(rows[0]) == {"j", "node", "quad_weight", "bary_weight"}

    def test_json_format_two_tables(self, capsys):
        code = run_cli(["nodes", "--lambda", "0.5", "--n", "1", "--n", "2",
                        "--format", "json"])
        assert code == 0
        tables = json.loads(capsys.readouterr().out)
        assert [(t["family"], t["lambda"], t["n"]) for t in tables] == [
            ("gauss", 0.5, 1), ("gauss", 0.5, 2)]
        assert [len(t["rows"]) for t in tables] == [2, 3]
        assert tables[1]["rows"][1]["node"] == pytest.approx(0.0, abs=1e-15)


class TestBoundsCommand:
    def test_json_breakdown(self, capsys):
        code = run_cli(["bounds", "--lambda", "0.5", "--n", "10", "--rho", "2",
                        "--m-rho", "1", "--theorem", "T42"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["flags"] == ["c set to 1"]
        assert math.isfinite(out["total"]) and out["total"] > 0

    def test_calibrated_flag(self, capsys):
        run_cli(["bounds", "--lambda", "-0.3", "--n", "10", "--rho", "2",
                 "--theorem", "T41ii"])
        out = json.loads(capsys.readouterr().out)
        assert "uses calibrated D_lambda" in out["flags"]

    def test_wrong_branch_exits_2(self, capsys):
        code = run_cli(["bounds", "--lambda", "0.5", "--n", "10", "--rho", "2",
                        "--theorem", "T31i"])
        assert code == 2
        assert "admissibility" in capsys.readouterr().err

    # lambda-domain messages of the restricted ids, as the CLI printed them
    # before the registry existed
    DOMAIN_ERRORS = {
        "T31i": "error: the T31i branch requires lambda > 1 (its admissibility "
                "condition m + 2 >= (lambda - 1) (1/(2 ln rho) - 1) only arises there)\n",
        "T31ii": "error: the T31ii branch requires -1/2 < lambda < 1\n",
        "T41i": "error: T41i requires lambda > 0\n",
        "T41ii": "error: T41ii requires -1/2 < lambda < 0\n",
    }

    @pytest.mark.parametrize("theorem_id", list(THEOREMS))
    def test_every_registry_id(self, theorem_id, capsys):
        theorem = THEOREMS[theorem_id]
        lams = (-0.3, 0.5, 3.2)
        args = ["--n", "10", "--rho", "1.5", "--theorem", theorem_id]
        inside = [lam for lam in lams if theorem.lam_ok(lam)]
        outside = [lam for lam in lams if not theorem.lam_ok(lam)]
        assert inside
        for lam in inside:
            code = run_cli(["bounds", "--lambda", str(lam)] + args)
            out = json.loads(capsys.readouterr().out)
            assert code == 0
            assert out["theorem_id"].startswith(theorem_id)
            assert math.isfinite(out["total"]) and out["total"] > 0
        assert bool(outside) == (theorem_id in self.DOMAIN_ERRORS)
        for lam in outside:
            code = run_cli(["bounds", "--lambda", str(lam)] + args)
            assert code == 2
            assert capsys.readouterr().err == self.DOMAIN_ERRORS[theorem_id]

    @pytest.mark.parametrize("theorem_id,lam,flag", [
        ("T41", "0.5", ["--m", "3"]), ("T42", "0.5", ["--m", "auto"]),
        ("T43b", "1.5", ["--m", "2"]), ("T31i", "3.2", ["--m-rho", "2"]),
        ("T31ii", "0.5", ["--m-rho", "1"]),
    ])
    def test_flag_of_the_other_kind_exits_2(self, theorem_id, lam, flag, capsys):
        code = run_cli(["bounds", "--lambda", lam, "--n", "5", "--rho", "1.5",
                        "--theorem", theorem_id, *flag])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: {flag[0]} does not apply to theorem {theorem_id}\n"

    def test_m_rho_defaults_to_one(self, capsys):
        run_cli(["bounds", "--lambda", "0.5", "--n", "10", "--rho", "2", "--theorem", "T42"])
        default = capsys.readouterr().out
        run_cli(["bounds", "--lambda", "0.5", "--n", "10", "--rho", "2", "--m-rho", "1",
                 "--theorem", "T42"])
        assert capsys.readouterr().out == default
        assert json.loads(default)["parameters"]["M_rho"] == 1.0

    def test_remainder_bound_with_m(self, capsys):
        code = run_cli(["bounds", "--lambda", "0.5", "--n", "10", "--rho", "1.5",
                        "--theorem", "T31ii", "--m", "3"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["parameters"]["m"] == 3
        assert set(out["terms"]) == {"head", "geometric_tail", "endgame"}


class TestFig2Command:
    def test_rows_and_header(self, tmp_path):
        out = tmp_path / "fig2.csv"
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"fig2_grid": [[0.5, 1.4]]}))
        code = run_cli(["fig2", "--config", str(cfgp), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "lambda,rho,n,E_n,n_pow_minus09,n_pow_minus1"
        assert len(lines) == 21

    def test_lam_one_exits_2(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"fig2_grid": [[1.0, 1.4]]}))
        code = run_cli(["fig2", "--config", str(cfgp)])
        assert code == 2
        assert "degenerate" in capsys.readouterr().err

    def test_large_lambda_coefficient_cap(self, tmp_path, capsys):
        # the cap exp|log g_n| alone overflows here; E_1000 against a 40-digit sum
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"fig2_grid": [[140.0, 2.0]]}))
        assert run_cli(["fig2", "--config", str(cfgp), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["n"] == 1000
        assert rows[0]["E_n"] == pytest.approx(7.1696725342029e-3, rel=1e-13)

    @pytest.mark.parametrize("lam, rho, message", [
        (400.0, 1.05, "normalization A overflows at lambda=400.0, rho=1.05"),
        (300.0, 1.2, "overflow at lambda=300.0, n=1129"),
    ])
    def test_overflow_exits_2(self, lam, rho, message, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"fig2_grid": [[lam, rho]]}))
        assert run_cli(["fig2", "--config", str(cfgp)]) == 2
        assert message in capsys.readouterr().err


class TestFig3Command:
    def test_small_run_csv_and_summary(self, tmp_path):
        out = tmp_path / "fig3.csv"
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"lambda_list": [0.5], "n_list": [8, 12]}))
        code = run_cli(["fig3", "--config", str(cfgp), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "lambda,n,family,measured_error,bound_total,rho_star,flags"
        assert len(lines) == 5  # 2 n values x 2 families
        summary = json.loads((tmp_path / "fig3.csv.summary.json").read_text())
        assert summary["dominance_ok"] is True

    def test_large_lambda_rounding_escalates(self, tmp_path):
        # at lam = 8 the float64 differencing rounding (2e-8 to 5e-7) lies
        # within 64 eps of its sums; Hermite's errors sit far below the bounds
        out = tmp_path / "fig3.csv"
        code = run_cli(["fig3", "--lambda", "8", "--n", "48", "--n", "56", "--n", "64",
                        "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 6
        assert all(row.endswith("measured with hermite") for row in rows)

    def test_dominance_violation_exits_3(self, monkeypatch, capsys):
        def fake_run(config):
            ok = ExperimentRecord(0.5, 4, "gauss", 1e-3, "float64", 1e-2, 2.0, ())
            bad = ExperimentRecord(0.5, 8, "gauss", 0.375, "float64", 1e-6, 2.0, ())
            return [ok, bad], {"series": [], "dominance_ok": False, "slope_target": -0.88}

        monkeypatch.setattr(cli, "run_fig3", fake_run)
        code = run_cli(["fig3", "--lambda", "0.5", "--n", "8"])
        assert code == 3
        assert capsys.readouterr().err == (
            "dominance violation: lambda=0.5 n=8 gauss: measured error "
            "3.750000e-01 > 1.25 x bound 1.000000e-06\n"
        )


    def test_pole_height_from_config(self, tmp_path):
        # 1/(x^2 + 0.3^2) is analytic only inside rho < 0.3 + sqrt(1.09)
        out, cfgp = tmp_path / "fig3.csv", tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"rational_pole_imag": 0.3}))
        code = run_cli(["fig3", "--config", str(cfgp), "--function", CUSTOM_RATIONAL,
                        "--lambda", "0.5", "--n", "8", "--n", "16", "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 4
        assert all(1.0 < float(row.split(",")[5]) < RHO_SUP_S03 for row in rows)


class TestExpansionDecayCommand:
    def test_rows(self, capsys):
        code = run_cli(["expansion-decay", "--lambda", "0.5",
                        "--n", "8", "--n", "12", "--n", "16",
                        "--function", "runge1"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,error,fitted_ratio"
        assert len(lines) == 4
        ratio = float(lines[1].split(",")[2])
        assert 0.3 < ratio < 0.55


    def test_pole_height_from_config(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"rational_pole_imag": 0.3}))
        code = run_cli(["expansion-decay", "--config", str(cfgp), "--function",
                        CUSTOM_RATIONAL, "--lambda", "0.5", "--n", "8", "--n", "16"])
        assert code == 0
        ratio = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[2])
        assert ratio == pytest.approx(1 / RHO_SUP_S03, rel=0.1)

    def test_pole_height_below_supported_exits_2(self, tmp_path, capsys):
        # s^2 underflows at s = 1e-200, so u(0) would be inf
        code = run_cli(["expansion-decay", "--config",
                        write_config(tmp_path, {"rational_pole_imag": 1e-200}),
                        "--function", CUSTOM_RATIONAL, "--lambda", "0.5", "--n", "8"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "at least 1e-100" in err

    def test_pole_near_interval_gives_finite_rows(self, tmp_path, capsys):
        code = run_cli(["expansion-decay", "--config",
                        write_config(tmp_path, {"rational_pole_imag": 1e-3}),
                        "--function", CUSTOM_RATIONAL, "--lambda", "0.5", "--lambda", "3.2",
                        "--n", "0", "--n", "8", "--n", "64"])
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 6
        assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))


# the study flags each subcommand reads, written out; any other exits 2
READ_FLAGS = {"nodes": "--lambda --n --family", "fig2": "",
              "fig3": "--lambda --n --function",
              "expansion-decay": "--lambda --n --function"}
FLAG_VALUES = {"--lambda": "7", "--n": "3", "--rho-min": "1.1", "--rho-max": "2",
               "--rho-count": "10", "--family": "gauss", "--function": "exp"}
UNREAD_FLAGS = [(command, flag) for command, read in READ_FLAGS.items()
                for flag in FLAG_VALUES if flag not in read.split()]


class TestParserChoices:
    def test_choices_come_from_the_tables(self):
        subs = next(
            a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        choices = {
            name: {a.dest: a.choices for a in sub._actions if a.choices}
            for name, sub in subs.choices.items()
        }
        functions = (*TEST_FUNCTIONS, CUSTOM_RATIONAL)
        assert (choices["fig3"]["function_id"] == choices["expansion-decay"]["function_id"]
                == functions)
        assert choices["nodes"]["node_family"] == (GAUSS, GAUSS_LOBATTO)
        assert tuple(choices["bounds"]["theorem"]) == tuple(THEOREMS)
        for function_id in choices["fig3"]["function_id"]:
            resolve_function(function_id)

    @pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
    def test_unread_flag_exits_2(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli([command, flag, FLAG_VALUES[flag]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {FLAG_VALUES[flag]}" in capsys.readouterr().err


# the ExperimentConfig fields each subcommand reads, written out
CONFIG_READS = {
    "nodes": {"lambda_list", "n_list", "node_family"},
    "fig2": {"fig2_grid"},
    "fig3": {"lambda_list", "n_list", "function_id", "rational_pole_imag"},
    "expansion-decay": {"lambda_list", "n_list", "function_id", "rational_pole_imag"},
}
# a small non-default value of every field
CONFIG_VALUES = {
    "lambda_list": [1.5], "n_list": [4, 6],
    "function_id": CUSTOM_RATIONAL, "node_family": GAUSS_LOBATTO,
    "fig2_grid": [[0.5, 1.4]], "rational_pole_imag": 0.5,
}
# keys of earlier config files, now constants, plain --out / --format, or
# (rho_scan) derived from the function
RETIRED_KEYS = {"ellipse_samples": 2048, "fig2_n_count": 20,
                "output_path": "x.csv", "format": "csv", "rho_scan": [1.0, 2.0, 20]}
UNREAD_KEYS = [(command, key) for command, read in CONFIG_READS.items()
               for key in (*CONFIG_VALUES, *RETIRED_KEYS) if key not in read]


def write_config(tmp_path, data):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestConfigKeys:
    def test_every_field_is_read(self):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert fields == set(CONFIG_VALUES)
        assert set().union(*CONFIG_READS.values()) == fields

    @pytest.mark.parametrize("command", list(CONFIG_READS))
    def test_read_fields_are_accepted(self, command, tmp_path, monkeypatch):
        loaded, load = [], cli._load_config
        monkeypatch.setattr(cli, "_load_config",
                            lambda args: loaded.append(load(args)) or loaded[-1])
        values = {key: CONFIG_VALUES[key] for key in CONFIG_READS[command]}
        code = run_cli([command, "--config", write_config(tmp_path, values),
                        "--out", str(tmp_path / "out.csv")])
        assert code == 0
        assert loaded == [ExperimentConfig(**values)]

    @pytest.mark.parametrize("command,key", UNREAD_KEYS)
    def test_unread_key_exits_2(self, command, key, tmp_path, capsys):
        values = {k: CONFIG_VALUES[k] for k in CONFIG_READS[command]}
        values[key] = {**CONFIG_VALUES, **RETIRED_KEYS}[key]
        code = run_cli([command, "--config", write_config(tmp_path, values)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(key) in err

    @pytest.mark.parametrize("command,data,key", [
        ("fig3", {"n_list": 5}, "n_list"),
        ("nodes", {"n_list": [4.5]}, "n_list"),
        ("nodes", {"lambda_list": "0.5"}, "lambda_list"),
        ("fig3", {"rho_scan": [1.0, 2.0, 2.5]}, "rho_scan"),  # retired: any value
        ("fig2", {"fig2_grid": [[0.5]]}, "fig2_grid"),
        ("fig3", {"rational_pole_imag": "0.3"}, "rational_pole_imag"),
        ("fig3", {"function_id": ["runge1"]}, "function_id"),
        ("nodes", ["n_list"], "JSON object"),
    ])
    def test_malformed_value_exits_2(self, command, data, key, tmp_path, capsys):
        code = run_cli([command, "--config", write_config(tmp_path, data)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err


BOUNDS = ["bounds", "--lambda", "0.5", "--n", "10"]
# non-finite numbers in each input route; each is a config error, not a result
NON_FINITE = [
    pytest.param([*BOUNDS, "--rho", "inf", "--theorem", "T42"], None, "rho", id="T42-rho"),
    pytest.param([*BOUNDS, "--rho", "2", "--m-rho", "nan", "--theorem", "T42"], None,
                 "M_rho", id="T42-m-rho"),
    pytest.param([*BOUNDS, "--rho", "2", "--m-rho", "inf", "--theorem", "T41"], None,
                 "M_rho", id="T41-m-rho"),
    pytest.param([*BOUNDS, "--rho", "inf", "--theorem", "T31ii"], None, "rho",
                 id="T31ii-rho"),
    pytest.param(["fig2"], {"fig2_grid": [[0.5, math.inf]]}, "rho", id="fig2-rho"),
    pytest.param(["fig3"], {"function_id": CUSTOM_RATIONAL, "rational_pole_imag": math.inf},
                 "pole height", id="fig3-pole"),
    pytest.param(["expansion-decay"],
                 {"function_id": CUSTOM_RATIONAL, "rational_pole_imag": math.inf},
                 "pole height", id="expansion-decay-pole"),
    # finite inputs whose bound overflows: an error naming the theorem and inputs
    pytest.param([*BOUNDS, "--rho", "1e200", "--theorem", "T42"], None,
                 "T42 bound is not finite at rho=1e+200, M_rho=1", id="T42-rho-overflow"),
    pytest.param([*BOUNDS, "--rho", "2", "--m-rho", "1e308", "--theorem", "T42"], None,
                 "T42 bound is not finite at rho=2, M_rho=1e+308",
                 id="T42-m-rho-overflow"),
]


class TestErrorPaths:
    @pytest.mark.parametrize("argv,config,name", NON_FINITE)
    def test_non_finite_input_exits_2(self, argv, config, name, tmp_path, capsys):
        if config is not None:
            argv = [*argv, "--config", write_config(tmp_path, config)]
        code = run_cli(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err and name in err

    def test_invalid_lambda_exits_2(self, capsys):
        code = run_cli(["nodes", "--lambda", "0", "--n", "4"])
        assert code == 2

    @pytest.mark.parametrize("argv,config,names", [
        (["fig3"], {"function_id": CUSTOM_RATIONAL, "rational_pole_imag": 1e-20},
         ["custom-rational(s=1e-20)", "1.1e-16"]),
        (["nodes", "--lambda", "1e-17", "--n", "4", "--family", "gauss"], None,
         ["lambda", "1e-17"]),
        (["nodes", "--lambda=1.2e-16", "--n", "4", "--family", "gauss"], None,
         ["lambda", "1.2e-16", "1e-08"]),
        (["nodes", "--lambda", "200", "--n", "50", "--family", "gauss-lobatto"], None,
         ["lambda = 200.0", "n = 50", "-1.6e-50"]),
    ], ids=["fig3-pole-rounds-to-interval", "lambda-zero-in-double", "lambda-below-minimum",
         "lobatto-negative-weight"])
    def test_edge_input_exits_2(self, argv, config, names, tmp_path, capsys):
        if config is not None:
            argv = [*argv, "--config", write_config(tmp_path, config)]
        code = run_cli(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(name in err for name in names)

    def test_unwritable_path_exits_4(self, capsys):
        code = run_cli(["nodes", "--lambda", "0.5", "--n", "1",
                        "--out", "/nonexistent-dir/x.csv"])
        assert code == 4

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["frobnicate"])
        assert exc.value.code == 2


class TestModuleEntryPoint:
    def test_python_m_runs_main(self, capsys):
        argv = ["bounds", "--lambda", "0.5", "--n", "10", "--rho", "2",
                "--m-rho", "1", "--theorem", "T42"]
        assert run_cli(argv) == 0
        want = capsys.readouterr().out
        src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "gegenspec", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == want
