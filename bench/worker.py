"""One benchmark process: import, generate the workload, say READY, then run.

    python3 bench/worker.py --workload W --seed N --seconds S --mode M

Modes: ``setup`` exits right after READY (a set-up probe); ``timed`` runs
whole rounds of cycles, untraced, for about S measured seconds; ``trace`` runs cycle
0 untraced, traced and untraced again.  The last stdout line is
``RESULT <json>``.  ``run.py`` starts this script and reads its output.
"""

import argparse
import json
import os
import resource
import sys
import time

import gegenspec
import tracer as tr
import workloads as wl

WALL_LIMIT_S = 120.0   # stop mid-cycle past this, so a run always ends in time


def _run_op(runner, op, refs, tracer=None, op_id=0):
    """(latency_s, summary or None, problems) for one op."""
    raw = None
    start = time.perf_counter()
    try:
        if tracer is None:
            raw = runner.execute(op)
        else:
            with tracer.op(op_id):
                raw = runner.execute(op)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        latency = time.perf_counter() - start
        return latency, None, [f"raised {type(exc).__name__}: {exc}"]
    latency = time.perf_counter() - start
    try:
        summary = wl.summarize(op, raw)
        return latency, summary, wl.check(op, summary, refs)
    except Exception as exc:
        return latency, None, [f"check raised {type(exc).__name__}: {exc}"]


def _failure(op, problems):
    return f"{op.key}: " + "; ".join(problems)


def run_timed(workload, seed, seconds, refs, first):
    runner = wl.Runner()
    latencies, failures = [], []
    changed = measurements = 0
    wall0 = time.perf_counter()
    cycles, ops = 0, first
    stopped_early = False
    while True:
        for op in ops:
            latency, summary, problems = _run_op(runner, op, refs)
            latencies.append(latency)
            if summary is not None:
                c, m = wl.backend_changes(op, summary, refs)
                changed, measurements = changed + c, measurements + m
            if problems:
                failures.append(_failure(op, problems))
            if time.perf_counter() - wall0 > WALL_LIMIT_S:
                stopped_early = True
                break
        cycles += 1
        measured = sum(latencies)
        rounds, partial = divmod(cycles, wl.ROUND_CYCLES[workload])
        if stopped_early or (
            not partial and measured + 0.5 * measured / rounds >= seconds
        ):
            break
        ops = wl.cycle_ops(workload, seed, cycles)
    return {"latencies": latencies, "failures": failures, "cycles": cycles,
            "stopped_early": stopped_early,
            "backend_changes": [changed, measurements]}


def run_trace(refs, ops, spans_path):
    def one_pass(tracer=None):
        runner = wl.Runner()
        wall, summaries, problems = 0.0, [], []
        for i, op in enumerate(ops):
            latency, summary, found = _run_op(runner, op, refs, tracer, i)
            wall += latency
            summaries.append(summary)
            problems.append(found)
        return wall, summaries, problems

    u1, u1_out, u1_bad = one_pass()
    tracer = tr.Tracer(tr.gegenspec_layers(), "gegenspec", tr.GEGENSPEC_PROBES)
    with tracer:
        t, t_out, t_bad = one_pass(tracer)
    u2, u2_out, u2_bad = one_pass()
    for a, b, c, found in zip(u1_out, t_out, u2_out, t_bad):
        if None not in (a, b, c) and not a == b == c:
            found.append("traced and untraced outputs differ")
    failures = [_failure(op, found) for bad in (u1_bad, t_bad, u2_bad)
                for op, found in zip(ops, bad) if found]
    metrics = tr.layer_metrics(tracer.spans)
    untraced = 0.5 * (u1 + u2)
    metrics["trace.overhead_frac"] = (t - untraced) / untraced
    tracer.write(spans_path)
    return {"metrics": metrics, "failures": failures, "passes_s": [u1, t, u2],
            "ops": len(ops), "attempted": 3 * len(ops)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--spans", help="trace mode: where to write the spans")
    args = parser.parse_args(argv)

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(gegenspec.__file__).startswith(src + os.sep):
        print(f"gegenspec imported from {gegenspec.__file__}, not {src}", file=sys.stderr)
        return 2
    refs = wl.load_refs(args.workload)
    first = wl.cycle_ops(args.workload, args.seed, 0)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "timed":
        result = run_timed(args.workload, args.seed, args.seconds, refs, first)
    else:
        result = run_trace(refs, first, args.spans)
    import mpmath
    import numpy
    import scipy

    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["versions"] = {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
