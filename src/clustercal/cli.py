"""Command-line front end: argv, config overrides and exit codes.

``train``, ``embed``, ``cluster`` and ``report`` call
``harness.run_experiment(cfg, last)`` with the stage their run ends at
(``model``, ``embedding``, ``clustering``, ``evaluate``). It runs the stages
from the config, so commands run independently and repeated runs are
byte-identical, and writes the files of that run (README, "Command line"),
none when a stage fails. ``select`` picks the best variant from the
``eval_report.json`` in the output directory when its config hash matches
the config, running ``report`` first when there is none, when it cannot be
read, or when it came from another config; it writes ``selection.json`` and
prints the selected row.

Exit codes: 0 success, 1 validation or data error, 2 runtime error (the
message names the failing stage). The whole config is checked before the
first stage runs, so a bad value exits 1 and runs nothing. Of the input
files, a bad data CSV exits 1; a bad score or embedding file exits 2 and
names the stage that read it, ``model`` or ``embedding``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .data import DataError
from .harness import (
    ConfigError, EvalReport, ExperimentConfig, _persist_selection, _read_json, run_experiment,
)

# command -> (the stage its run ends at, help); select has a path of its own
COMMANDS = {
    "train": ("model", "fit or ingest the base model; write scores and splits"),
    "embed": ("embedding", "build the sample embedding matrix"),
    "cluster": ("clustering", "fit the cluster model and diagnostics"),
    "select": (None, "pick the best variant from the report"),
    "report": ("evaluate", "run the full pipeline end to end"),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="clustercal",
        description="Clustered calibration experiments: train, cluster, calibrate, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
    return parser


def _cmd_select(cfg):
    path = os.path.join(cfg.out, "eval_report.json")
    try:
        report = _read_json(EvalReport, path)
    except (FileNotFoundError, ValueError):    # none, or one this version cannot read
        report = None
    if report is None or report.provenance.get("config_hash") != cfg.config_hash():
        report = run_experiment(cfg)
    print(json.dumps(_persist_selection(cfg.out, report)["row"], sort_keys=True))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {k: v for k, v in (("seed", args.seed), ("out", args.out)) if v is not None}
    try:
        cfg = ExperimentConfig.from_json_file(args.config, **overrides)
        if cfg.out is None:                 # the config's check refuses ""
            raise ConfigError("an output directory is required (--out or config 'out')")
    except (OSError, ValueError) as exc:     # a bad config, or a file it cannot read
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "select":
            _cmd_select(cfg)
        else:
            run_experiment(cfg, COMMANDS[args.command][0])
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
