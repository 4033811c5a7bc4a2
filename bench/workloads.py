"""Seeded workloads of the gegenspec benchmark: generation, execution, checks.

Each workload is a stream of cycles.  A cycle is a fixed mix of strata (the
shape of the work) with seeded draws inside each stratum (the inputs), in a
seeded order; cycle ``i`` of seed ``s`` is the same list on every run.
Every op calls the library through module attributes at call time, so the
tracer's rebinding takes effect.

References live in ``refs/<workload>.json`` and hold the outputs of every op
the generators can produce; ``make_refs.py`` rebuilds them.
"""

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gegenspec import bounds, experiments, nodes, operators

WORKLOADS = ("study-deep", "certify-shallow", "nodes-large")
REFS_DIR = Path(__file__).resolve().parent / "refs"

GAUSS, LOBATTO = nodes.GAUSS, nodes.GAUSS_LOBATTO
RHO_MAX = 1.0 + math.sqrt(2.0)   # poles at +-i, the study's scan limit
RHO_COUNT = 2000
SAMPLES = 2048
GRID_SIZE = 2001

# study-deep: the acceptance-study grid; fig3's default rows are its runge1 diff part
STUDY_FUNCTIONS = ("runge1", "runge2")
STUDY_LAMBDAS = (0.5, 1.5)
STUDY_KINDS = ("diff", "interp", "quad")
STUDY_NS = tuple(range(8, 68, 4))
STUDY_BANDS = tuple(STUDY_NS[i:i + 3] for i in range(0, len(STUDY_NS), 3))

# certify-shallow: pole heights and cells chosen so no measurement escalates
CERTIFY_POLES = (0.05, 0.06, 0.07, 0.08, 0.09, 0.10)
CERTIFY_CELLS = ((0.5, GAUSS, 48), (1.5, LOBATTO, 64), (3.2, GAUSS, 96))
CERTIFY_PER_CYCLE = 12

# nodes-large: (n, ops per family per cycle)
NODES_LAMBDAS = (-0.3, 0.5, 1.5, 3.2)
NODES_MIX = ((256, 16), (1024, 4), (4000, 1))
NODE_SAMPLE_POINTS = 9

# check tolerances
MEASURED_RTOL = 1e-6       # loose: a different exact error oracle must still pass
MEASURED_FLOOR = 2.2e-16   # times n^2: double rounding noise of a float64 reference
BOUND_RTOL = 1e-10
RHO_RTOL = 1e-12
FIG2_RTOL = 1e-9
NODE_ATOL = 1e-13
WEIGHT_RTOL = 1e-10
BARY_RTOL = 1e-9
MASS_RTOL = 1e-12
ROW_SUM_RTOL = 1e-12
INTERP_SLACK = 10.0        # interpolation error may grow to 10x the reference's
DOMINANCE_SLACK = 1.25


@dataclass(frozen=True)
class Op:
    """One benchmark operation; ``kind`` selects what the other fields mean."""

    kind: str
    fn_id: str | None = None
    lam: float | None = None
    family: str | None = None
    n: int | None = None
    s: float | None = None

    @property
    def key(self) -> str:
        if self.kind in STUDY_KINDS:
            return f"{self.fn_id} lam={self.lam!r} {self.family} n={self.n} {self.kind}"
        if self.kind == "certify":
            return f"certify s={self.s!r}"
        if self.kind == "nodes":
            return f"{self.family} lam={self.lam!r} n={self.n}"
        return self.kind


# -- generation ---------------------------------------------------------------

def _study_cycle(rng, index, seed):
    """One op per (kind, n band): 15 ops spanning float64 and mpmath rows.

    The n inside each band rotates with the cycle index, so each round of
    three cycles holds every (kind, n) cell of the grid once.  The seed
    orders the 8 (function, lam, family) combinations and gives each kind a
    starting offset; along the degrees of a kind the combinations then take
    turns.  Cost depends mostly on (kind, n), so the mix of a round is
    nearly the same for every seed while the inputs differ.
    """
    layout = random.Random(f"study-deep/{seed}")
    combos = list(itertools.product(STUDY_FUNCTIONS, STUDY_LAMBDAS, (GAUSS, LOBATTO)))
    layout.shuffle(combos)
    offsets = [layout.randrange(len(combos)) for _ in STUDY_KINDS]
    rounds = index // len(STUDY_BANDS[0])
    ops = []
    for k, kind in enumerate(STUDY_KINDS):
        for b, band in enumerate(STUDY_BANDS):
            n = band[(index + k + b) % len(band)]
            fn_id, lam, family = combos[
                (STUDY_NS.index(n) + offsets[k] + rounds) % len(combos)
            ]
            ops.append(Op(kind, fn_id, lam, family, n))
    return ops


def _certify_cycle(rng, index, seed):
    ops = [Op("certify", s=rng.choice(CERTIFY_POLES)) for _ in range(CERTIFY_PER_CYCLE)]
    return ops + [Op("fig2")]


def _nodes_cycle(rng, index, seed):
    return [
        Op("nodes", lam=rng.choice(NODES_LAMBDAS), family=family, n=n)
        for n, per_family in NODES_MIX
        for family in (GAUSS, LOBATTO)
        for _ in range(per_family)
    ]


# a timed run ends only after a whole number of rounds of this many cycles
ROUND_CYCLES = {"study-deep": len(STUDY_BANDS[0]), "certify-shallow": 1, "nodes-large": 1}

_GENERATORS = {
    "study-deep": _study_cycle,
    "certify-shallow": _certify_cycle,
    "nodes-large": _nodes_cycle,
}


def cycle_ops(workload: str, seed: int, index: int) -> list:
    """Cycle ``index`` of the workload for ``seed``: same arguments, same list."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    ops = _GENERATORS[workload](rng, index, seed)
    rng.shuffle(ops)
    return ops


def universe(workload: str) -> list:
    """Every op the generator can produce (the reference set)."""
    if workload == "study-deep":
        return [
            Op(kind, fn_id, lam, family, n)
            for fn_id in STUDY_FUNCTIONS for lam in STUDY_LAMBDAS
            for family in (GAUSS, LOBATTO) for n in STUDY_NS for kind in STUDY_KINDS
        ]
    if workload == "certify-shallow":
        return [Op("certify", s=s) for s in CERTIFY_POLES] + [Op("fig2")]
    return [
        Op("nodes", lam=lam, family=family, n=n)
        for n, _ in NODES_MIX for family in (GAUSS, LOBATTO) for lam in NODES_LAMBDAS
    ]


# -- execution ----------------------------------------------------------------

def _which(kind: str, family: str) -> str:
    if kind == "diff":
        return "T42" if family == GAUSS else "T43b"
    return "T41i" if family == GAUSS else "T43a"


def _scan(fn):
    rhos = bounds.rho_scan_grid(1.0, min(RHO_MAX, fn.rho_sup), RHO_COUNT)
    sups, skipped = bounds.scan_sups(fn.u, rhos, SAMPLES)
    return rhos, sups, skipped


class Runner:
    """Executes ops.  Holds the state a study shares across its rows: the
    boundary-sup scan of each study function, computed by the first op that
    needs it, as the acceptance study and ``fig3`` compute it once per run."""

    def __init__(self):
        self._scans = {}
        self._grid = np.linspace(-1.0, 1.0, GRID_SIZE)

    def execute(self, op: Op):
        if op.kind in STUDY_KINDS:
            return self._study(op)
        return getattr(self, "_" + op.kind)(op)

    def _study(self, op):
        fn = experiments.resolve_function(op.fn_id)
        if op.fn_id not in self._scans:
            self._scans[op.fn_id] = _scan(fn)
        rhos, sups, skipped = self._scans[op.fn_id]
        measure = getattr(experiments, f"measure_{op.kind}_error")
        error, backend = measure(op.lam, op.n, op.family, fn)
        rho_star, bd = bounds.minimize_bound_on_grid(
            op.lam, op.n, _which(op.kind, op.family), rhos, sups, skipped
        )
        if op.kind == "quad":
            bd = bounds.quad_bound(op.lam, bd)
        return {"error": error, "backend": backend, "bound": bd.total,
                "rho_star": rho_star}

    def _certify(self, op):
        fn = experiments.resolve_function("custom-rational", op.s)
        rhos, sups, skipped = _scan(fn)
        cells = []
        for lam, family, n in CERTIFY_CELLS:
            cell = {}
            for kind in ("diff", "interp"):
                rho_star, bd = bounds.minimize_bound_on_grid(
                    lam, n, _which(kind, family), rhos, sups, skipped
                )
                cell[f"{kind}_rho_star"] = rho_star
                cell[f"{kind}_bound"] = bd.total
            cell["quad_bound"] = bounds.quad_bound(lam, bd).total  # interp breakdown
            for kind in STUDY_KINDS:
                measure = getattr(experiments, f"measure_{kind}_error")
                cell[f"{kind}_error"], cell[f"{kind}_backend"] = measure(
                    lam, n, family, fn
                )
            cells.append(cell)
        return {"cells": cells}

    def _fig2(self, op):
        rows = experiments.run_fig2(experiments.ExperimentConfig())
        return {"rows": [[n, e] for _, _, n, e, _, _ in rows]}

    def _nodes(self, op):
        build = nodes.gauss_nodes if op.family == GAUSS else nodes.gauss_lobatto_nodes
        ns = build(op.lam, op.n)
        dm = operators.diff_matrix(ns)
        values = operators.interpolate(ns, np.exp(ns.nodes), self._grid)
        return {"node_set": ns, "diff": dm.entries, "interp": values}


def summarize(op: Op, raw: dict) -> dict:
    """Plain-number digest of an op's outputs, the form references store."""
    if op.kind != "nodes":
        return raw
    ns, D = raw["node_set"], raw["diff"]
    idx = np.round(np.linspace(0, op.n, NODE_SAMPLE_POINTS)).astype(int)
    lam = op.lam
    mass = math.exp(0.5 * math.log(math.pi) + math.lgamma(lam + 0.5)
                    - math.lgamma(lam + 1.0))
    row_scale = np.maximum(np.sum(np.abs(D), axis=1), 1.0)
    grid = np.linspace(-1.0, 1.0, GRID_SIZE)
    return {
        "nodes": ns.nodes[idx].tolist(),
        "weights": ns.quad_weights[idx].tolist(),
        "bary": ns.bary_weights[idx].tolist(),
        "mass_rel": abs(float(np.sum(ns.quad_weights)) - mass) / mass,
        "row_sum_rel": float(np.max(np.abs(np.sum(D, axis=1)) / row_scale)),
        "interp_error": float(np.max(np.abs(raw["interp"] - np.exp(grid)))),
    }


# -- checks -------------------------------------------------------------------

def _rel(got, want):
    return abs(got - want) / abs(want) if want else abs(got)


def _finite(summary):
    stack = [summary]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, float) and not math.isfinite(item):
            return False
    return True


def _check_measurement(out, label, got, ref, ref_backend, bound, n):
    tol = MEASURED_RTOL * abs(ref)
    if ref_backend == "float64":   # the reference carries double rounding noise
        tol += MEASURED_FLOOR * n * n
    if abs(got - ref) > tol:
        out.append(f"{label} error {got:.6e} vs reference {ref:.6e} (tol {tol:.1e})")
    if got > DOMINANCE_SLACK * bound:
        out.append(f"{label} error {got:.6e} > {DOMINANCE_SLACK} x bound {bound:.6e}")


def _check_close(out, label, got, want, rtol):
    if _rel(got, want) > rtol:
        out.append(f"{label} {got!r} vs reference {want!r} "
                   f"(rel {_rel(got, want):.1e} > {rtol:.0e})")


def check(op: Op, summary: dict, refs: dict) -> list:
    """Problems found in one op's summary; an empty list means it passed."""
    if not _finite(summary):
        return ["non-finite output"]
    ref = refs.get(op.key)
    if ref is None:
        return [f"no reference for {op.key}"]
    out = []
    if op.kind in STUDY_KINDS:
        _check_close(out, "bound", summary["bound"], ref["bound"], BOUND_RTOL)
        _check_close(out, "rho*", summary["rho_star"], ref["rho_star"], RHO_RTOL)
        _check_measurement(out, op.kind, summary["error"], ref["error"],
                           ref["backend"], summary["bound"], op.n)
    elif op.kind == "certify":
        for (lam, family, n), got, want in zip(CERTIFY_CELLS, summary["cells"], ref["cells"]):
            cell = f"lam={lam} {family} n={n}"
            for kind in STUDY_KINDS:
                _check_close(out, f"{cell} {kind} bound", got[f"{kind}_bound"],
                             want[f"{kind}_bound"], BOUND_RTOL)
                if kind != "quad":
                    _check_close(out, f"{cell} {kind} rho*", got[f"{kind}_rho_star"],
                                 want[f"{kind}_rho_star"], RHO_RTOL)
                _check_measurement(out, f"{cell} {kind}", got[f"{kind}_error"],
                                   want[f"{kind}_error"], want[f"{kind}_backend"],
                                   got[f"{kind}_bound"], n)
    elif op.kind == "fig2":
        if len(summary["rows"]) != len(ref["rows"]):
            return [f"fig2 has {len(summary['rows'])} rows, reference {len(ref['rows'])}"]
        for (n, e), (n_ref, e_ref) in zip(summary["rows"], ref["rows"]):
            if n != n_ref:
                out.append(f"fig2 degree {n} vs reference {n_ref}")
            _check_close(out, f"fig2 E_{n}", e, e_ref, FIG2_RTOL)
            if not 0.1 / n <= e <= n ** -0.9:
                out.append(f"fig2 E_{n} = {e:.6e} outside [0.1/n, n^-0.9]")
    else:
        worst = max(abs(a - b) for a, b in zip(summary["nodes"], ref["nodes"]))
        if worst > NODE_ATOL:
            out.append(f"node values differ by {worst:.1e} (tol {NODE_ATOL:.0e})")
        for name, tol in (("weights", WEIGHT_RTOL), ("bary", BARY_RTOL)):
            worst = max(_rel(a, b) for a, b in zip(summary[name], ref[name]))
            if worst > tol:
                out.append(f"{name} differ by rel {worst:.1e} (tol {tol:.0e})")
        if summary["mass_rel"] > MASS_RTOL:
            out.append(f"weights sum off total mass by rel {summary['mass_rel']:.1e}")
        if summary["row_sum_rel"] > ROW_SUM_RTOL:
            out.append(f"diff-matrix row sums rel {summary['row_sum_rel']:.1e}")
        limit = INTERP_SLACK * ref["interp_error"] + NODE_ATOL
        if summary["interp_error"] > limit:
            out.append(f"interpolation error {summary['interp_error']:.3e} > {limit:.3e}")
    return out


def backend_changes(op: Op, summary: dict, refs: dict) -> tuple:
    """(error measurements whose backend differs from the reference's, all
    error measurements) in one op.  Not a failure: a change of backend with
    correct values passes, but it changes what the workload measures."""
    ref = refs.get(op.key)
    if ref is None:
        return 0, 0
    if op.kind in STUDY_KINDS:
        return int(summary["backend"] != ref["backend"]), 1
    if op.kind == "certify":
        pairs = [(got[f"{kind}_backend"], want[f"{kind}_backend"])
                 for got, want in zip(summary["cells"], ref["cells"])
                 for kind in STUDY_KINDS]
        return sum(a != b for a, b in pairs), len(pairs)
    return 0, 0


def load_refs(workload: str) -> dict:
    with open(REFS_DIR / f"{workload}.json") as fh:
        return json.load(fh)["entries"]
