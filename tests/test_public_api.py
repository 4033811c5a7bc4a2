import importlib

import pytest

import gegenspec

MODULES = ("special", "poly", "nodes", "operators", "bounds", "experiments", "highprec")

# unused helpers, scalar twins and replaced shortcuts; they must stay gone
REMOVED = (
    "ln_gamma",
    "g_coeff",
    "d_coeff",
    "upper_incomplete_gamma_int",
    "max_abs_bound",
    "sup_on_ellipse",
    "ellipse_axes",
    "interval_distance",
    "perimeter_estimate",
    "best_bound_over_rho",
    "EllipseSpec",
    "eval_w_series",
    "interp_error_mp",     # the mpmath oracle lives in tests/mp_oracle.py
    "diff_error_mp",
    "e_n_metric",          # e_n_metrics with a one-degree tuple
    "interp_bound_gauss",  # the operator bounds are THEOREMS[id].bound
    "diff_bound_gauss",
    "interp_bound_lobatto",
    "diff_bound_lobatto",
    "expansion_error_mp",  # operators.exact_expansion_error is the one path
    "quad_weights_interpolatory",  # gauss_lobatto_nodes integrates the Lagrange basis
    "eval_derivative",     # the second value of eval_with_derivative
    "_breakdown",          # a single-rho bound is the one-point grid of the scan
    "_runge1",             # runge1 is make_rational(1.0)
    "_runge1_d",
    "_runge2",             # runge2 is make_rational(1.0, 2)
    "_runge2_d",
    "_lobatto_common",     # the Lobatto bounds are the lam+1 Gauss bounds times F
    "_lobatto_interp",
    "_lobatto_diff",
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"gegenspec.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_listed_in_all(name):
    # the benchmark tracer wraps each callable defined in the module whose
    # name has no leading underscore; __all__ names the same set
    module = importlib.import_module(f"gegenspec.{name}")
    public = [
        n for n, obj in vars(module).items()
        if not n.startswith("_") and not isinstance(obj, type) and callable(obj)
        and getattr(obj, "__module__", None) == module.__name__
    ]
    assert [n for n in public if n not in module.__all__] == []


def test_package_all_resolves():
    assert len(set(gegenspec.__all__)) == len(gegenspec.__all__)
    assert [n for n in gegenspec.__all__ if not hasattr(gegenspec, n)] == []


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    assert name not in gegenspec.__all__
    with pytest.raises(ImportError):
        exec(f"from gegenspec import {name}", {})
    for module_name in MODULES:
        assert not hasattr(importlib.import_module(f"gegenspec.{module_name}"), name)
