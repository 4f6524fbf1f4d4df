"""Command-line front end.

Every command runs the pipeline's stages (``harness.STAGES``) from the
config, so commands can run independently and repeated runs are
byte-identical. Nothing is written when a stage fails.

- ``train`` runs up to the model and writes ``ensemble.json`` (GBT models
  only), ``splits.json`` and ``scores.csv``;
- ``embed`` runs up to the embedding and writes ``embedding.csv``;
- ``cluster`` runs up to the clustering and writes ``clusters.json``,
  ``clusters.csv`` and ``diagnostics.json``;
- ``report`` runs every stage and writes the full artifact set plus
  ``selection.json``;
- ``select`` picks the best variant from the ``eval_report.json`` in the
  output directory when its config hash matches the config (running
  ``report`` first when there is none, when it cannot be read, or when it
  came from another config),
  writes ``selection.json`` and prints the selected row.

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
    ConfigError, EvalReport, ExperimentConfig,
    _read_json, _write_clusters, _write_csv, _write_json,
    run_experiment, run_stages, select_model,
)


def _write_train(out, r):
    if r.ens is not None:
        _write_json(os.path.join(out, "ensemble.json"), r.ens)
    _write_json(os.path.join(out, "splits.json"), r.splits)
    _write_csv(os.path.join(out, "scores.csv"),
               ("sample_id", "margin", "probability"),
               [r.ds.sample_ids, r.scores.margins.tolist(), r.scores.probabilities.tolist()])


def _write_embed(out, r):
    _write_csv(os.path.join(out, "embedding.csv"),
               ("sample_id",) + tuple(f"e{j}" for j in range(r.E.shape[1])),
               [r.ds.sample_ids] + r.E.T.tolist())


def _write_cluster(out, r):
    _write_clusters(out, r)
    _write_json(os.path.join(out, "diagnostics.json"),
                {**vars(r.diag), "elbow_curve": r.elbow_curve})


# command -> (last stage it runs, writer of its files)
PREFIX_COMMANDS = {
    "train": ("model", _write_train),
    "embed": ("embedding", _write_embed),
    "cluster": ("clustering", _write_cluster),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="clustercal",
        description="Clustered calibration experiments: train, cluster, calibrate, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in [
        ("train", "fit or ingest the base model; write scores and splits"),
        ("embed", "build the sample embedding matrix"),
        ("cluster", "fit the cluster model and diagnostics"),
        ("select", "pick the best variant from the report"),
        ("report", "run the full pipeline end to end"),
    ]:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
    return parser


def _cmd_report(cfg):
    report = run_experiment(cfg)
    _write_json(os.path.join(cfg.out, "selection.json"), select_model(report, "CECE"))


def _cmd_select(cfg):
    path = os.path.join(cfg.out, "eval_report.json")
    try:
        report = _read_json(EvalReport, path)
    except (FileNotFoundError, ValueError):    # none, or one this version cannot read
        report = None
    if report is None or report.provenance.get("config_hash") != cfg.config_hash():
        report = run_experiment(cfg)
    selection = select_model(report)
    _write_json(os.path.join(cfg.out, "selection.json"), selection)
    print(json.dumps(selection["row"], sort_keys=True))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {k: v for k, v in (("seed", args.seed), ("out", args.out)) if v is not None}
    try:
        cfg = ExperimentConfig.from_json_file(args.config, **overrides)
        if cfg.out is None:
            raise ConfigError("an output directory is required (--out or config 'out')")
    except (OSError, ValueError) as exc:     # a bad config, or a file it cannot read
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command in PREFIX_COMMANDS:
            last, write = PREFIX_COMMANDS[args.command]
            r = run_stages(cfg, last)
            os.makedirs(cfg.out, exist_ok=True)
            write(cfg.out, r)
        elif args.command == "report":
            _cmd_report(cfg)
        else:
            _cmd_select(cfg)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
