"""Command line entry points: run, report, validate-samplers.

Exit codes: 0 experiment ran and passed its band, 1 ran but failed the band,
2 configuration error, 3 numerical or sampling failure (the error types
:func:`main` names). Any other exception is a bug and is not caught.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, config_from_json
from .estimators import InsufficientSamplesError
from .experiments import run_experiment, summary_line
from .polytopes import UnboundedBodyError
from .records import load_records, render_report


def _add_overrides(parser: argparse.ArgumentParser):
    parser.add_argument("config", help="path to a JSON experiment config")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--shards", type=int, help="override the shard count")
    parser.add_argument("--samples", dest="n_samples", metavar="SAMPLES", type=int,
                        help="override n_samples")
    parser.add_argument("--field", choices=["complex", "real"],
                        help="override the matrix field")
    parser.add_argument("--shape", help="override the system shape, e.g. 2x3")
    parser.add_argument("--output", dest="output_path", metavar="OUTPUT",
                        help="override the output directory")


def _cmd_run(args, force_experiment: str | None = None) -> int:
    # every option besides the subcommand and the config path overrides the
    # config field named by its dest
    overrides = {key: value for key, value in vars(args).items()
                 if key not in ("command", "config") and value is not None}
    cfg = config_from_json(args.config, overrides)
    if force_experiment and cfg.experiment != force_experiment:
        raise ConfigError("experiment",
                          f"this command runs {force_experiment!r} configs, "
                          f"got {cfg.experiment!r}")
    record = run_experiment(cfg)
    print(summary_line(record))
    return 0 if record.passed else 1


def _cmd_report(args) -> int:
    root = Path(args.results_dir)
    if not root.is_dir():
        print(f"report error: {root} is not a directory", file=sys.stderr)
        return 2
    records, errors = load_records(root)
    md, csv_text = render_report(records, errors)
    (root / "summary.md").write_text(md)
    (root / "summary.csv").write_text(csv_text)
    print(md, end="")
    for name, msg in errors:
        print(f"unreadable record {name}: {msg}", file=sys.stderr)
    if errors and not records:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statebody",
        description="Monte Carlo geometry of quantum state bodies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a JSON config")
    _add_overrides(run_p)

    rep_p = sub.add_parser("report", help="summarize a directory of records")
    rep_p.add_argument("results_dir", help="directory containing *.json records")

    val_p = sub.add_parser("validate-samplers",
                           help="run the sampler distribution battery")
    _add_overrides(val_p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate-samplers":
            return _cmd_run(args, force_experiment="sampler-validate")
        return _cmd_report(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InsufficientSamplesError, UnboundedBodyError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
