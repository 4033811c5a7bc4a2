"""Command-line front end.

Subcommands: nodes, fig2, fig3, bounds, expansion-decay.  Exit codes:
0 success, 2 invalid configuration, 3 dominance violation, 4 I/O error.
"""

import argparse
import json
import sys

from .bounds import THEOREMS
from .experiments import (
    CUSTOM_RATIONAL,
    DECAY_HEADER,
    DOMINANCE_SLACK,
    FIG2_HEADER,
    FIG3_HEADER,
    NODES_HEADER,
    TEST_FUNCTIONS,
    ConfigError,
    DominanceError,
    ExperimentConfig,
    format_rows,
    run_bounds,
    run_expansion_decay,
    run_fig2,
    run_fig3,
    run_nodes,
)
from .nodes import GAUSS, GAUSS_LOBATTO

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMINANCE = 3
EXIT_IO = 4


# the study flags; each subcommand below takes only those it reads
_STUDY_FLAGS = {
    "--lambda": dict(dest="lambda_", type=float, action="append",
                     help="family index (repeatable)"),
    "--n": dict(type=int, action="append", help="degree (repeatable)"),
    "--rho-min": dict(type=float), "--rho-max": dict(type=float),
    "--rho-count": dict(type=int),
    "--family": dict(choices=(GAUSS, GAUSS_LOBATTO)),
    "--function": dict(choices=(*TEST_FUNCTIONS, CUSTOM_RATIONAL)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gegenspec",
        description="Gauss-type node tables, error measurements and "
                    "certified exponential-accuracy bounds",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, blurb, flags in (
        ("nodes", "dump node/weight tables", ("--lambda", "--n", "--family")),
        ("fig2", "large-n tightness study of the normalized boundary series", ()),
        ("fig3", "node-differencing error versus scanned bound",
         ("--lambda", "--n", "--rho-min", "--rho-max", "--rho-count", "--function")),
        ("expansion-decay", "truncated-expansion decay study",
         ("--lambda", "--n", "--function")),
    ):
        sub = subs.add_parser(name, help=blurb)
        sub.add_argument("--config", help="JSON file matching ExperimentConfig")
        for flag in flags:
            sub.add_argument(flag, **_STUDY_FLAGS[flag])
        sub.add_argument("--out", help="output path (default: stdout)")
        sub.add_argument("--format", choices=("csv", "json"))
    b = subs.add_parser("bounds", help="print one itemized bound as JSON")
    b.add_argument("--lambda", dest="lambda_", type=float, required=True)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--rho", type=float, required=True)
    b.add_argument("--m-rho", type=float, default=1.0,
                   help="sup of |u| on the ellipse boundary (default 1)")
    b.add_argument("--theorem", required=True, choices=tuple(THEOREMS))
    b.add_argument("--m", default="auto",
                   help="tail split index for T31 bounds (default auto)")
    b.add_argument("--out")
    return parser


def _load_config(args) -> ExperimentConfig:
    flags = vars(args)
    overrides = {
        "lambda_list": tuple(flags["lambda_"]) if flags.get("lambda_") else None,
        "n_list": tuple(flags["n"]) if flags.get("n") else None,
        "node_family": flags.get("family"),
        "function_id": flags.get("function"),
        "output_path": args.out,
        "format": args.format,
    }
    rho = [flags.get(key) for key in ("rho_min", "rho_max", "rho_count")]
    if rho != [None, None, None]:
        base = ExperimentConfig.__dataclass_fields__["rho_scan"].default
        overrides["rho_scan"] = tuple(b if v is None else v for v, b in zip(rho, base))
    if args.config:
        return ExperimentConfig.from_json(args.config, **overrides)
    return ExperimentConfig(**{k: v for k, v in overrides.items() if v is not None})


def _emit(text: str, path) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_nodes(args) -> int:
    config = _load_config(args)
    blocks = run_nodes(config)
    ext = config.format
    if config.output_path and len(blocks) > 1:
        root = config.output_path
        stem = root[:-4] if root.endswith(f".{ext}") else root
        for meta, rows in blocks:
            path = f"{stem}_{meta['family']}_lam{meta['lambda']:g}_n{meta['n']}.{ext}"
            _emit(format_rows(NODES_HEADER, rows, ext), path)
        return EXIT_OK
    pieces = []
    for meta, rows in blocks:
        if len(blocks) > 1 and ext == "csv":
            pieces.append(
                f"# family={meta['family']} lambda={meta['lambda']:g} n={meta['n']}\n"
            )
        pieces.append(format_rows(NODES_HEADER, rows, ext))
    _emit("".join(pieces), config.output_path)
    return EXIT_OK


def _cmd_fig2(args) -> int:
    config = _load_config(args)
    rows = run_fig2(config)
    _emit(format_rows(FIG2_HEADER, rows, config.format), config.output_path)
    sys.stderr.write(
        "note: the lower envelope factor 0.1/n is a harness guard for the "
        "observed behavior, not a certified bound\n"
    )
    return EXIT_OK


def _cmd_fig3(args) -> int:
    config = _load_config(args)
    records, summary = run_fig3(config)
    rows = [
        (r.lam, r.n, r.family, r.measured_error, r.bound_total, r.rho_star,
         ";".join(r.flags))
        for r in records
    ]
    table_text = format_rows(FIG3_HEADER, rows, config.format)
    summary_text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    if config.output_path:
        _emit(table_text, config.output_path)
        _emit(summary_text, config.output_path + ".summary.json")
    else:
        sys.stdout.write(table_text)
        sys.stdout.write(summary_text)
    if not summary["dominance_ok"]:
        raise DominanceError("; ".join(
            f"lambda={r.lam:g} n={r.n} {r.family}: measured error "
            f"{r.measured_error:.6e} > {DOMINANCE_SLACK} x bound {r.bound_total:.6e}"
            for r in records if r.exceeds_bound
        ))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    m = args.m
    if m != "auto":
        m = int(m)
    result = run_bounds(args.lambda_, args.n, args.rho, args.m_rho,
                        args.theorem, m)
    _emit(json.dumps(result, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def _cmd_expansion_decay(args) -> int:
    config = _load_config(args)
    rows = []
    for lam in config.lambda_list:
        rows.extend(
            run_expansion_decay(lam, config.function_id, config.n_list,
                                pole_imag=config.rational_pole_imag)
        )
    _emit(format_rows(DECAY_HEADER, rows, config.format), config.output_path)
    return EXIT_OK


_COMMANDS = {
    "nodes": _cmd_nodes,
    "fig2": _cmd_fig2,
    "fig3": _cmd_fig3,
    "bounds": _cmd_bounds,
    "expansion-decay": _cmd_expansion_decay,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except DominanceError as exc:
        sys.stderr.write(f"dominance violation: {exc}\n")
        return EXIT_DOMINANCE
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
