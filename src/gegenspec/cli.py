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
    row_dicts,
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


# the flags that set each ExperimentConfig field; each flag's dest is its field
_FIELD_FLAGS = {
    "lambda_list": {"--lambda": dict(type=float, action="append",
                                     help="family index (repeatable)")},
    "n_list": {"--n": dict(type=int, action="append", help="degree (repeatable)")},
    "node_family": {"--family": dict(choices=(GAUSS, GAUSS_LOBATTO))},
    "function_id": {"--function": dict(choices=(*TEST_FUNCTIONS, CUSTOM_RATIONAL))},
}

# each study subcommand and the ExperimentConfig fields it reads: its flags
# and the keys its --config file may set both come from this table
STUDIES = {
    "nodes": ("dump node/weight tables", ("lambda_list", "n_list", "node_family")),
    "fig2": ("large-n tightness study of the normalized boundary series",
             ("fig2_grid",)),
    "fig3": ("node-differencing error versus scanned bound",
             ("lambda_list", "n_list", "function_id", "rational_pole_imag")),
    "expansion-decay": ("truncated-expansion decay study",
                        ("lambda_list", "n_list", "function_id", "rational_pole_imag")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gegenspec",
        description="Gauss-type node tables, error measurements and "
                    "certified exponential-accuracy bounds",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (blurb, fields) in STUDIES.items():
        sub = subs.add_parser(name, help=blurb)
        sub.add_argument("--config", help="JSON file setting some of: " + ", ".join(fields))
        for field in fields:
            for flag, spec in _FIELD_FLAGS.get(field, {}).items():
                sub.add_argument(flag, dest=field, **spec)
        sub.add_argument("--out", help="output path (default: stdout)")
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
    b = subs.add_parser("bounds", help="print one itemized bound as JSON")
    b.add_argument("--lambda", dest="lambda_", type=float, required=True)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--rho", type=float, required=True)
    b.add_argument("--m-rho", type=float,
                   help="sup of |u| on the ellipse boundary, for the operator "
                        "bounds (default 1)")
    b.add_argument("--theorem", required=True, choices=tuple(THEOREMS))
    b.add_argument("--m", help="tail split index for T31 bounds (default auto)")
    b.add_argument("--out")
    return parser


def _load_config(args) -> ExperimentConfig:
    keys = STUDIES[args.command][1]
    overrides = {key: getattr(args, key, None) for key in keys}
    if args.config:
        return ExperimentConfig.from_json(args.config, keys, **overrides)
    return ExperimentConfig(**{k: v for k, v in overrides.items() if v is not None})


def _emit(text: str, path) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_nodes(args) -> int:
    blocks = run_nodes(_load_config(args))
    ext = args.format
    if args.out and len(blocks) > 1:
        stem = args.out.removesuffix(f".{ext}")
        for meta, rows in blocks:
            path = f"{stem}_{meta['family']}_lam{meta['lambda']:g}_n{meta['n']}.{ext}"
            _emit(format_rows(NODES_HEADER, rows, ext), path)
    elif len(blocks) == 1:
        _emit(format_rows(NODES_HEADER, blocks[0][1], ext), args.out)
    elif ext == "json":
        tables = [{**meta, "rows": row_dicts(NODES_HEADER, rows)} for meta, rows in blocks]
        _emit(json.dumps(tables, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit("".join(
            f"# family={meta['family']} lambda={meta['lambda']:g} n={meta['n']}\n"
            + format_rows(NODES_HEADER, rows, ext) for meta, rows in blocks
        ), args.out)
    return EXIT_OK


def _cmd_fig2(args) -> int:
    rows = run_fig2(_load_config(args))
    _emit(format_rows(FIG2_HEADER, rows, args.format), args.out)
    sys.stderr.write(
        "note: the lower envelope factor 0.1/n is a harness guard for the "
        "observed behavior, not a certified bound\n"
    )
    return EXIT_OK


def _cmd_fig3(args) -> int:
    records, summary = run_fig3(_load_config(args))
    rows = [
        (r.lam, r.n, r.family, r.measured_error, r.bound_total, r.rho_star,
         ";".join(r.flags))
        for r in records
    ]
    table_text = format_rows(FIG3_HEADER, rows, args.format)
    summary_text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    if args.out:
        _emit(table_text, args.out)
        _emit(summary_text, args.out + ".summary.json")
    else:
        _emit(table_text + summary_text, None)
    if not summary["dominance_ok"]:
        raise DominanceError("; ".join(
            f"lambda={r.lam:g} n={r.n} {r.family}: measured error "
            f"{r.measured_error:.6e} > {DOMINANCE_SLACK} x bound {r.bound_total:.6e}"
            for r in records if r.exceeds_bound
        ))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    remainder = THEOREMS[args.theorem].factors is None
    flag, value = ("--m-rho", args.m_rho) if remainder else ("--m", args.m)
    if value is not None:
        raise ConfigError(f"{flag} does not apply to theorem {args.theorem}")
    m = "auto" if args.m in (None, "auto") else int(args.m)
    m_rho = 1.0 if args.m_rho is None else args.m_rho
    result = run_bounds(args.lambda_, args.n, args.rho, m_rho, args.theorem, m)
    _emit(json.dumps(result, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def _cmd_expansion_decay(args) -> int:
    config = _load_config(args)
    rows = [row for lam in config.lambda_list
            for row in run_expansion_decay(lam, config.function_id, config.n_list,
                                           pole_imag=config.rational_pole_imag)]
    _emit(format_rows(DECAY_HEADER, rows, args.format), args.out)
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
    except ValueError as exc:
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
