"""gegenspec benchmark: one seeded, closed-loop workload with one client.

    python3 bench/run.py --workload study-deep --seed 1 --seconds 30 --trace 0

Run it from the repository root; it measures the library under ``src/``.
With ``--trace 0`` it prints the end-to-end metrics (set-up time,
throughput, median and p90 op latency, peak memory); with ``--trace 1`` the
per-layer metrics of a traced pass.  Every op's outputs are checked against
the stored references; the last stdout line is one JSON object, and the exit
code is 1 when any op failed.  See bench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from scipy.special import betainc

from tracer import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("study-deep", "certify-shallow", "nodes-large")
SETUP_PROBES = 6        # extra fresh-process set-ups; the timed worker adds one
THREAD_CAP = 1          # one client, one core: BLAS/OpenMP pools capped at 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 170
OUT_DIR = ".bench_out"


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.update({name: str(THREAD_CAP) for name in THREAD_VARS})
    return env


def _worker(root, args, mode, extra=()):
    """Start a fresh worker; return (seconds until READY, result dict or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_env(root), stdout=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "READY":
            raise RuntimeError(f"worker did not get ready: {line.strip()!r}")
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with {proc.returncode}")
    if mode == "setup":
        return ready, None
    last = out.strip().splitlines()[-1]
    if not last.startswith("RESULT "):
        raise RuntimeError(f"worker ({mode}) printed no result")
    return ready, json.loads(last[len("RESULT "):])


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics.  On a few dozen latencies from a mix of op kinds it is
    much steadier than the single order statistic nearest q."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    edges = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(xs, edges, edges[1:]))


def _git(root: Path, *args) -> str:
    # the ceiling keeps git from taking a repository above root for ours
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    return subprocess.run(["git", *args], cwd=root, env=env, capture_output=True,
                          text=True, check=True, timeout=30).stdout


def _git_state(root: Path) -> dict:
    try:
        return {"git_sha": _git(root, "rev-parse", "HEAD").strip(),
                "git_dirty": bool(_git(root, "status", "--porcelain").strip())}
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": "unknown", "git_dirty": None}


def _record(root, args, result, ops, extra):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **_git_state(root), "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)), "thread_cap": THREAD_CAP,
        "ops": ops, **result["versions"], **extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gegenspec" / "__init__.py").is_file():
        print("error: run from the repository root; src/gegenspec is missing",
              file=sys.stderr)
        return 2
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"

    if args.trace:
        spans = out_dir / f"spans_{stem}.jsonl.gz"
        _, result = _worker(root, args, "trace", ("--spans", str(spans)))
        attempted, failures = result["attempted"], result["failures"]
        metrics = result["metrics"]
        units = PER_LAYER_UNITS
        ops = result["ops"]
        print(f"{args.workload} seed {args.seed}: traced cycle 0 ({ops} ops); "
              f"passes untraced/traced/untraced {result['passes_s'][0]:.3f}/"
              f"{result['passes_s'][1]:.3f}/{result['passes_s'][2]:.3f} s; "
              f"spans in {spans}")
        for name, value in metrics.items():
            print(f"  {name:<28} {value:14.6g} {units[name]}")
        record = _record(root, args, result, ops, {"passes_s": result["passes_s"]})
    else:
        setups = [_worker(root, args, "setup")[0] for _ in range(SETUP_PROBES)]
        ready, result = _worker(root, args, "timed")
        setups.append(ready)
        lat = result["latencies"]
        attempted, failures = len(lat), result["failures"]
        measured = sum(lat)
        p90 = quantile(lat, 0.9)
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(lat) / measured,
            "op_p50_ms": 1e3 * quantile(lat, 0.5),
            "op_p90_ms": 1e3 * p90,
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                 "op_p90_ms": "ms", "peak_rss_mb": "MB"}
        notes = {
            "setup_s": f"median of {len(setups)} fresh-process set-ups",
            "ops_per_s": f"{len(lat)} ops in {result['cycles']} cycles, "
                         f"{measured:.3f} s measured",
            "op_p50_ms": f"{len(lat)} samples, Harrell-Davis",
            "op_p90_ms": f"{len(lat)} samples, {sum(x > p90 for x in lat)} beyond, "
                         "Harrell-Davis",
            "peak_rss_mb": "timed worker process",
        }
        changed, measurements = result["backend_changes"]
        print(f"{args.workload} seed {args.seed}: {attempted} ops attempted, "
              f"{len(failures)} failed; {changed} of {measurements} error "
              "measurements ran on another backend than their reference"
              + (" (stopped mid-cycle at the wall-time limit)"
                 if result["stopped_early"] else ""))
        for name, value in metrics.items():
            print(f"  {name:<16} {value:12.6g} {units[name]:<6} ({notes[name]})")
        print(f"  {'failed_ops_frac':<16} {len(failures) / attempted:12.6g} "
              f"{'':<6} ({len(failures)} of {attempted} ops)")
        record = _record(root, args, result, attempted,
                         {"setup_samples_s": setups, "cycles": result["cycles"],
                          "latencies_s": lat,
                          "backend_changes": {"changed": changed,
                                              "measurements": measurements}})

    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    record.update(metrics=metrics, failed=len(failures), failures=failures)
    with open(out_dir / f"record_{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("  record: " + ", ".join(
        f"{k}={record[k]}" for k in ("git_sha", "git_dirty", "nproc", "thread_cap",
                                     "python", "numpy", "scipy", "mpmath",
                                     "mpmath_backend", "seed", "ops")))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
