"""Rebuild the benchmark's reference outputs from the library as it stands.

    PYTHONPATH=src python3 bench/make_refs.py [workload ...]

The references record what the library computes for every op a workload can
produce.  Rebuild them only for a change meant to alter those outputs, and
say so in that change.  Every entry also goes through the benchmark's checks
(dominance, total mass, row sums); problems are printed and give exit code 1.
"""

import argparse
import json
import multiprocessing
import sys

import mpmath
import numpy
import scipy

import workloads as wl

JOBS = 2   # worker processes; a nodes-large worker peaks near 600 MB

_runner = None


def _entry(op):
    global _runner
    if _runner is None:
        _runner = wl.Runner()
    return op.key, wl.summarize(op, _runner.execute(op))


def build(workload: str) -> dict:
    ops = wl.universe(workload)
    with multiprocessing.get_context("spawn").Pool(JOBS) as pool:
        entries = dict(pool.map(_entry, ops, chunksize=1))
    bad = [(op.key, p) for op in ops for p in wl.check(op, entries[op.key], entries)]
    for key, problem in bad:
        print(f"{workload}: {key}: {problem}", file=sys.stderr)
    return {
        "workload": workload,
        "versions": {
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
        },
        "entries": entries,
    }, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(wl.WORKLOADS))
    args = parser.parse_args(argv)
    wl.REFS_DIR.mkdir(exist_ok=True)
    failed = False
    for workload in args.workloads:
        data, bad = build(workload)
        failed |= bool(bad)
        with open(wl.REFS_DIR / f"{workload}.json", "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(data['entries'])} entries, {len(bad)} problems")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
