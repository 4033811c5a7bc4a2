"""Outside-in tracer: times calls into a package's public functions.

The tracer replaces each public function of the chosen layer modules with a
timing wrapper at every module-level binding site: the defining module's
attribute and every ``from .x import y`` copy held by another loaded module
of the package.  References kept inside containers (for example a dispatch
dict built at import time) are not rebound, so calls through them are timed
as part of their caller.  Spans stay in memory; ``uninstall`` puts every
original back.

The second half of the file defines the gegenspec layers, the call facts
recorded for the counted metrics, and the per-layer metric summary.
"""

import functools
import gzip
import inspect
import json
import sys
import time
from dataclasses import dataclass

_perf = time.perf_counter


@dataclass
class Span:
    """One timed call: op id, qualified name, layer, interval, parent index."""

    op: int
    name: str
    layer: str
    start: float
    end: float
    parent: int
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def public_functions(module):
    """Public callables defined in ``module`` (classes excluded)."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            out[name] = obj
    return out


class Tracer:
    """Wraps the public functions of ``layers`` (layer name -> module).

    ``probes`` maps a qualified function name to ``probe(bound_args, result)``
    whose return value is stored as the span's ``info``; ``package`` is the
    module-name prefix whose loaded modules are searched for binding sites.
    """

    def __init__(self, layers: dict, package: str, probes: dict | None = None):
        self.layers = layers
        self.package = package
        self.probes = probes or {}
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------
    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, module in self.layers.items():
            for name, fn in public_functions(module).items():
                qual = f"{module.__name__}.{name}"
                wrappers[id(fn)] = (fn, self._wrap(fn, qual, layer))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == self.package or mod_name.startswith(self.package + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ----------------------------------------------------
    def _wrap(self, fn, qual, layer):
        probe = self.probes.get(qual)
        signature = inspect.signature(fn) if probe else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                spans[idx] = Span(self._op, qual, layer, start, end, parent)
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                spans[idx].info = probe(bound.arguments, result)
            return result

        return traced

    def op(self, op_id: int):
        """Context manager for one op: a root span named ``op``."""
        return _OpSpan(self, op_id)

    def write(self, path):
        """Spans as gzipped JSON lines: a header naming the fields, then one
        array per span."""
        fields = ["op", "name", "layer", "start", "end", "parent", "info"]
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": fields}) + "\n")
            for s in self.spans:
                fh.write(json.dumps([getattr(s, f) for f in fields]) + "\n")


class _OpSpan:
    def __init__(self, tracer, op_id):
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        t = self.tracer
        t._op = self.op_id
        self.idx = len(t.spans)
        t.spans.append(None)
        t._stack.append(self.idx)
        self.start = _perf()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        end = _perf()
        t._stack.pop()
        t.spans[self.idx] = Span(self.op_id, "op", "op", self.start, end, -1)
        t._op = -1


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


# ---------------------------------------------------------------------------
# gegenspec layers and the per-layer metrics of the benchmark

LAYER_NAMES = (
    "special", "poly", "nodes", "operators", "bounds", "experiments", "highprec",
)


def gegenspec_layers() -> dict:
    import importlib

    return {
        name: importlib.import_module(f"gegenspec.{name}") for name in LAYER_NAMES
    }


def _lam(param) -> float:
    return float(getattr(param, "lam", param))


def _node_probe(family):
    return lambda a, result: [family, _lam(a["param"]), int(a["n"])]


def _backend_probe(a, result):
    return result[1]


GEGENSPEC_PROBES = {
    "gegenspec.nodes.gauss_nodes": _node_probe("gauss"),
    "gegenspec.nodes.gauss_lobatto_nodes": _node_probe("gauss-lobatto"),
    "gegenspec.bounds.scan_sups": lambda a, r: len(a["rhos"]) * int(a["samples"]),
    "gegenspec.bounds.minimize_bound_on_grid": lambda a, r: len(a["rhos"]),
    "gegenspec.operators.diff_matrix": lambda a, r: (a["node_set"].n + 1) ** 2,
    "gegenspec.operators.interpolate":
        lambda a, r: (a["node_set"].n + 1) * int(getattr(a["x"], "size", 1)),
    "gegenspec.experiments.measure_diff_error": _backend_probe,
    "gegenspec.experiments.measure_interp_error": _backend_probe,
    "gegenspec.experiments.measure_quad_error": _backend_probe,
}

# unit of every per-layer metric layer_metrics returns
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYER_NAMES},
    "highprec.calls": "count",
    "experiments.escalated_frac": "fraction",
    "bounds.scan_s": "s",
    "bounds.minimize_s": "s",
    "bounds.sup_samples": "count",
    "bounds.grid_points": "count",
    "nodes.sets_built": "count",
    "nodes.points": "count",
    "nodes.repeat_frac": "fraction",
    "operators.matrix_entries": "count",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
    "trace.overhead_frac": "fraction",
}


def layer_metrics(spans) -> dict:
    """Per-layer self times and counts over the traced spans.

    Times are sums over the traced pass.  ``trace.unattributed_s`` is the
    part of the op spans that no layer span covers.  ``trace.overhead_frac``
    is left to the caller, which times the untraced passes.
    """
    selfs = self_times(spans)
    m = {f"{layer}.self_s": 0.0 for layer in LAYER_NAMES}
    m["trace.unattributed_s"] = 0.0
    counts = dict.fromkeys(
        ("highprec.calls", "bounds.sup_samples", "bounds.grid_points",
         "nodes.sets_built", "nodes.points", "operators.matrix_entries"), 0)
    m["bounds.scan_s"] = 0.0
    m["bounds.minimize_s"] = 0.0
    measured = escalated = repeats = 0
    seen = set()
    for s, own in zip(spans, selfs):
        if s.layer == "op":
            m["trace.unattributed_s"] += own
            continue
        m[f"{s.layer}.self_s"] += own
        if s.layer == "highprec":
            counts["highprec.calls"] += 1
        if s.info is None:
            continue
        name = s.name.removeprefix("gegenspec.")
        if name == "bounds.scan_sups":
            m["bounds.scan_s"] += s.duration
            counts["bounds.sup_samples"] += s.info
        elif name == "bounds.minimize_bound_on_grid":
            m["bounds.minimize_s"] += s.duration
            counts["bounds.grid_points"] += s.info
        elif name.startswith("nodes."):
            key = tuple(s.info)
            counts["nodes.sets_built"] += 1
            counts["nodes.points"] += key[2] + 1
            repeats += key in seen
            seen.add(key)
        elif name.startswith("operators."):
            counts["operators.matrix_entries"] += s.info
        elif name.startswith("experiments.measure_"):
            measured += 1
            escalated += s.info == "mpmath"
    m.update(counts)
    m["experiments.escalated_frac"] = escalated / measured if measured else 0.0
    m["nodes.repeat_frac"] = (
        repeats / counts["nodes.sets_built"] if counts["nodes.sets_built"] else 0.0
    )
    m["trace.spans"] = len(spans)
    return m
