"""Tests of the benchmark's tracer, workload generator and correctness gate."""

import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

EXACT_COUNTS = (
    "nodes.points", "nodes.repeat_frac", "nodes.sets_built", "bounds.sup_samples",
    "bounds.grid_points", "operators.matrix_entries", "experiments.escalated_frac",
    "highprec.calls", "trace.spans",
)

# a few cheap ops covering every op kind, one of which escalates to mpmath
SMALL_OPS = [
    wl.Op("quad", "runge1", 0.5, wl.GAUSS, 20),
    wl.Op("diff", "runge2", 1.5, wl.LOBATTO, 8),
    wl.Op("interp", "runge1", 1.5, wl.GAUSS, 12),
    wl.Op("certify", s=0.1),
    wl.Op("fig2"),
    wl.Op("nodes", lam=3.2, family=wl.LOBATTO, n=256),
]


def _module(name, source, **globs):
    mod = types.ModuleType(name)
    mod.__dict__.update(globs)
    exec(source, mod.__dict__)
    sys.modules[name] = mod
    return mod


@pytest.fixture
def fake_package():
    def spin(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    pkg = _module("fakepkg", "")
    low = _module("fakepkg.low", "def leaf():\n    spin(0.002)\n", spin=spin)
    high = _module(
        "fakepkg.high",
        "def top():\n    spin(0.001)\n    mid()\n    leaf()\n"
        "def mid():\n    leaf()\n    spin(0.001)\n    leaf()\n",
        spin=spin, leaf=low.leaf,     # a from-import copy of low.leaf
    )
    yield pkg, low, high
    for name in ("fakepkg", "fakepkg.low", "fakepkg.high"):
        sys.modules.pop(name)


def test_self_times_of_nested_calls_sum_to_parent(fake_package):
    _, low, high = fake_package
    tracer = tr.Tracer({"low": low, "high": high}, "fakepkg")
    with tracer:
        with tracer.op(0):
            high.top()
    spans = tracer.spans
    assert [s.name for s in spans].count("fakepkg.low.leaf") == 3
    selfs = tr.self_times(spans)
    assert all(x >= 0 for x in selfs)
    assert sum(selfs) == pytest.approx(spans[0].duration, abs=1e-12)
    by_layer = {}
    for s, own in zip(spans, selfs):
        by_layer[s.layer] = by_layer.get(s.layer, 0.0) + own
    assert by_layer["low"] >= 3 * 0.002
    assert by_layer["high"] >= 2 * 0.001


def test_every_binding_site_is_wrapped_and_restored():
    layers = tr.gegenspec_layers()
    modules = {name: m for name, m in sys.modules.items()
               if name == "gegenspec" or name.startswith("gegenspec.")}
    before = {name: dict(vars(m)) for name, m in modules.items()}
    gauss_nodes = layers["nodes"].gauss_nodes
    tracer = tr.Tracer(layers, "gegenspec")
    with tracer:
        assert layers["nodes"].gauss_nodes is not gauss_nodes
        assert layers["experiments"].gauss_nodes is layers["nodes"].gauss_nodes
        assert layers["operators"].gauss_nodes is layers["nodes"].gauss_nodes
        assert layers["highprec"]._nodes.gauss_nodes is layers["nodes"].gauss_nodes
    assert layers["nodes"].gauss_nodes is gauss_nodes
    for name, m in modules.items():
        for attr, value in before[name].items():
            assert vars(m)[attr] is value, f"{name}.{attr} not restored"


@pytest.fixture(scope="module")
def passes():
    """One untraced and two traced passes over SMALL_OPS."""
    refs = {}
    for workload in wl.WORKLOADS:
        refs.update(wl.load_refs(workload))

    def one_pass(tracer=None):
        runner = wl.Runner()
        out = []
        for i, op in enumerate(SMALL_OPS):
            if tracer is None:
                raw = runner.execute(op)
            else:
                with tracer.op(i):
                    raw = runner.execute(op)
            summary = wl.summarize(op, raw)
            assert wl.check(op, summary, refs) == [], op.key
            out.append(summary)
        return out

    untraced = one_pass()
    traced = []
    for _ in range(2):
        tracer = tr.Tracer(tr.gegenspec_layers(), "gegenspec", tr.GEGENSPEC_PROBES)
        with tracer:
            summaries = one_pass(tracer)
        traced.append((summaries, tr.layer_metrics(tracer.spans)))
    return untraced, traced


def test_traced_and_untraced_outputs_are_identical(passes):
    untraced, traced = passes
    assert traced[0][0] == untraced
    assert traced[1][0] == untraced


def test_exact_counts_repeat(passes):
    _, traced = passes
    first, second = traced[0][1], traced[1][1]
    assert {k: first[k] for k in EXACT_COUNTS} == {k: second[k] for k in EXACT_COUNTS}
    assert first["highprec.calls"] > 0
    assert 0 < first["experiments.escalated_frac"] < 1
    assert first["bounds.sup_samples"] == 3 * wl.RHO_COUNT * wl.SAMPLES
    assert first["nodes.repeat_frac"] > 0


def test_same_seed_gives_same_ops():
    for workload in wl.WORKLOADS:
        assert wl.cycle_ops(workload, 5, 0) == wl.cycle_ops(workload, 5, 0)
        assert wl.cycle_ops(workload, 5, 0) != wl.cycle_ops(workload, 6, 0)
        keys = {op.key for op in wl.universe(workload)}
        assert {op.key for op in wl.cycle_ops(workload, 5, 3)} <= keys


def test_gate_rejects_perturbed_outputs():
    refs = wl.load_refs("study-deep")
    op = wl.Op("diff", "runge1", 0.5, wl.GAUSS, 40)
    good = dict(refs[op.key])
    assert wl.check(op, good, refs) == []
    for field, factor in (("error", 1.001), ("bound", 1 + 1e-8), ("rho_star", 1 + 1e-9)):
        assert wl.check(op, {**good, field: good[field] * factor}, refs), field
    assert wl.check(op, {**good, "error": float("nan")}, refs)
    breach = {**good, "error": 2 * good["bound"]}
    assert wl.check(op, breach, {op.key: breach})  # matches its reference, breaks dominance

    refs = wl.load_refs("nodes-large")
    op = wl.Op("nodes", lam=0.5, family=wl.GAUSS, n=1024)
    good = refs[op.key]
    assert wl.check(op, good, refs) == []
    shifted = {**good, "nodes": [good["nodes"][0] + 1e-12] + good["nodes"][1:]}
    assert wl.check(op, shifted, refs)
    assert wl.check(op, {**good, "row_sum_rel": 1e-9}, refs)


def test_backend_changes_are_counted():
    refs = wl.load_refs("certify-shallow")
    op = wl.Op("certify", s=0.1)
    good = refs[op.key]
    measurements = 3 * len(wl.CERTIFY_CELLS)
    assert all(cell[f"{kind}_backend"] == "float64"
               for cell in good["cells"] for kind in wl.STUDY_KINDS)
    assert wl.backend_changes(op, good, refs) == (0, measurements)
    escalated = {"cells": [{**good["cells"][0], "quad_backend": "mpmath"},
                           *good["cells"][1:]]}
    assert wl.backend_changes(op, escalated, refs) == (1, measurements)
    assert wl.check(op, escalated, refs) == []  # a change of backend is no failure
