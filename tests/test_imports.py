"""Start-up cost: each heavy library loads at its first caller, not at import.

`import gegenspec` loads numpy only.  scipy.linalg loads at the first
eigensolve (nodes.gauss_rule / closed_form_gauss_rule), mpmath and highprec at
the first 35-digit quadrature escalation; a quadrature measurement that does
not escalate loads neither.  Each case runs in a fresh
interpreter and reports which of the three modules it left loaded.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
HEAVY = ("scipy.linalg", "mpmath", "gegenspec.highprec")

# prints the loaded heavy modules last on stderr, however the body exits
PRELUDE = f"""
import atexit, json, sys
atexit.register(lambda: print("LOADED " + json.dumps(
    [m for m in {HEAVY!r} if m in sys.modules]), file=sys.stderr))
"""


def run_fresh(body):
    """(returncode, stdout, loaded heavy modules) of body in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PRELUDE + body], capture_output=True,
                          text=True, env=env, timeout=120, cwd=ROOT)
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("LOADED "), proc.stderr
    return proc.returncode, proc.stdout, set(json.loads(last[len("LOADED "):]))


def run_cli(argv):
    return run_fresh(
        "import runpy\n"
        f"sys.argv = ['gegenspec', *{argv!r}]\n"
        "runpy.run_module('gegenspec', run_name='__main__')\n"
    )


def test_import_loads_none_of_the_heavy_modules():
    code, _, loaded = run_fresh("import gegenspec\n")
    assert code == 0
    assert loaded == set()


@pytest.mark.parametrize("argv", [
    ["fig2"],
    ["bounds", "--lambda", "0.5", "--n", "16", "--rho", "1.4", "--theorem", "T41"],
    ["expansion-decay", "--n", "8", "--n", "16"],
    ["--help"],
], ids=lambda argv: argv[0])
def test_closed_form_commands_load_neither_library(argv):
    code, out, loaded = run_cli(argv)
    assert code == 0
    assert out
    assert loaded == set()


@pytest.mark.parametrize("argv", [
    ["nodes", "--n", "16"],
    ["fig3", "--n", "8"],
], ids=lambda argv: argv[0])
def test_node_commands_load_scipy_linalg_only(argv):
    code, out, loaded = run_cli(argv)
    assert code == 0
    assert out
    assert loaded == {"scipy.linalg"}


@pytest.mark.parametrize("argv", [
    ["nodes", "--lambda=1e-12", "--n", "4"],
    ["fig3", "--n", "0"],
], ids=lambda argv: argv[0])
def test_config_errors_load_neither_library(argv):
    code, _, loaded = run_cli(argv)
    assert code == 2
    assert loaded == set()


def test_quad_measurement_without_escalation_loads_scipy_linalg_only():
    code, out, loaded = run_fresh(
        "from gegenspec.experiments import make_rational, measure_quad_error\n"
        "print(measure_quad_error(0.5, 48, 'gauss', make_rational(0.1))[1])\n"
    )
    assert code == 0
    assert out.strip() == "float64"
    assert loaded == {"scipy.linalg"}


def test_quad_escalation_loads_mpmath():
    code, out, loaded = run_fresh(
        "from gegenspec.experiments import TEST_FUNCTIONS, measure_quad_error\n"
        "print(repr(measure_quad_error(0.5, 56, 'gauss', TEST_FUNCTIONS['runge1'])))\n"
    )
    assert code == 0
    # the 35-digit value at n = 56 is rounding noise, reproduced bit for bit
    assert out.strip() == "(8.909970946246787e-38, 'mpmath')"
    assert loaded == set(HEAVY)
