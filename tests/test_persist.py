"""Every artifact the column-wise CSV writer produces is byte-identical to the
per-cell writer it replaced.

The oracle below is that earlier writer: each row is a list of cells, an int
or a string is written with ``str`` and anything else with
``repr(float(v))``; the JSON files go through the same ``json.dump`` call.
`test_golden.py` compares floats to a relative 1e-12 and accepts ``1`` where
the golden file has ``1.0``, so it cannot see a cell change its type; this
test compares bytes, on one `RunState` of the golden config.
"""

import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from clustercal import harness
from clustercal.calibrators import Calibrator
from clustercal.cli import PREFIX_COMMANDS
from clustercal.ensemble import ClusteredCalibrator
from clustercal.harness import (
    METRIC_COLUMNS, ExperimentConfig, _jsonable, _write_csv, run_stages, select_model,
)
from clustercal.representation import ClusterModel

GOLDEN = Path(__file__).parent / "golden"


# oracle ------------------------------------------------------------------

def oracle_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            fh.write(",".join(str(v) if isinstance(v, (int, str)) else repr(float(v))
                              for v in r) + "\n")


def oracle_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def oracle_clusters(out, r):
    oracle_json(os.path.join(out, "clusters.json"), _jsonable(r.cm))
    oracle_csv(os.path.join(out, "clusters.csv"),
               ("cluster_id", "size", "positive_rate", "centroid_norm"),
               [[row["cluster"], row["size"], row["positive_rate"],
                 float(np.linalg.norm(r.cm.centroids[row["cluster"]]))]
                for row in r.diag.table])


def oracle_train(out, r):
    if r.ens is not None:
        oracle_json(os.path.join(out, "ensemble.json"), _jsonable(r.ens))
    oracle_json(os.path.join(out, "splits.json"),
                {"train": r.splits.train.tolist(),
                 "calibration": r.splits.calibration.tolist(),
                 "test": r.splits.test.tolist(), "seed": r.splits.seed})
    oracle_csv(os.path.join(out, "scores.csv"),
               ("sample_id", "margin", "probability"),
               [[sid, m, p] for sid, m, p in
                zip(r.ds.sample_ids, r.scores.margins, r.scores.probabilities)])


def oracle_embed(out, r):
    oracle_csv(os.path.join(out, "embedding.csv"),
               ("sample_id",) + tuple(f"e{j}" for j in range(r.E.shape[1])),
               [[sid] + list(row) for sid, row in zip(r.ds.sample_ids, r.E)])


def oracle_cluster(out, r):
    oracle_clusters(out, r)
    oracle_json(os.path.join(out, "diagnostics.json"),
                {"size_variance": r.diag.size_variance,
                 "label_rate_variance": r.diag.label_rate_variance,
                 "homogeneity_fraction": r.diag.homogeneity_fraction,
                 "elbow_curve": r.elbow_curve,
                 "table": r.diag.table})


def oracle_report(out, r):
    oracle_json(os.path.join(out, "eval_report.json"), _jsonable(r.report))
    if r.ens is not None:
        oracle_json(os.path.join(out, "ensemble.json"), _jsonable(r.ens))
    oracle_clusters(out, r)
    for method, ccl in r.ccl.items():
        oracle_json(os.path.join(out, f"ccl_{method}.json"), _jsonable(ccl))
    for method, cal in r.unified.items():
        oracle_json(os.path.join(out, f"unified_{method}.json"), _jsonable(cal))
    oracle_csv(os.path.join(out, "metrics.csv"),
               ("variant", "method") + METRIC_COLUMNS,
               [[row["variant"], row["method"]] + [row[c] for c in METRIC_COLUMNS]
                for row in r.report.rows])
    te_idx = r.splits.test
    te_ids = [r.ds.sample_ids[i] for i in te_idx]
    y_te = r.ds.labels[te_idx]
    rej_rows = []
    for variant, p in sorted(r.calibrated.items()):
        oracle_csv(os.path.join(out, f"calibrated_scores_{variant}.csv"),
                   ("sample_id", "probability", "label"),
                   [[sid, pi, int(yi)] for sid, pi, yi in zip(te_ids, p, y_te)])
        oracle_csv(os.path.join(out, f"bins_{variant}.csv"),
                   ("bin", "count", "obs_rate", "mean_pred"),
                   [[b["bin"], b["count"], b["obs_rate"], b["mean_pred"]]
                    for b in r.bins[variant].as_rows()])
        curve = r.rejection[variant]
        for t, acc_n, err, rej in zip(curve.thresholds, curve.accepted,
                                      curve.error_rate, curve.rejection_rate):
            rej_rows.append([variant, t, int(acc_n), err, rej])
    oracle_csv(os.path.join(out, "rejection.csv"),
               ("variant", "threshold", "accepted", "error_rate", "rejection_rate"),
               rej_rows)
    oracle_json(os.path.join(out, "selection.json"), select_model(r.report, "CECE"))


def write_report(out, r):
    """What `clustercal report` writes: `_persist` plus `selection.json`."""
    harness._persist(dataclasses.replace(r, cfg=dataclasses.replace(r.cfg, out=str(out))))
    harness._write_json(os.path.join(out, "selection.json"), select_model(r.report, "CECE"))


ORACLES = {"train": oracle_train, "embed": oracle_embed, "cluster": oracle_cluster,
           "report": oracle_report}
WRITERS = dict({c: write for c, (_, write) in PREFIX_COMMANDS.items()}, report=write_report)


# golden run --------------------------------------------------------------

@pytest.fixture(scope="module")
def state():
    return run_stages(ExperimentConfig.from_json_file(str(GOLDEN / "report_config.json")))


@pytest.mark.parametrize("command", sorted(ORACLES))
def test_artifacts_match_oracle_byte_for_byte(state, tmp_path, command):
    got, want = tmp_path / "got", tmp_path / "want"
    got.mkdir()
    want.mkdir()
    WRITERS[command](got, state)
    ORACLES[command](want, state)
    names = sorted(os.listdir(want))
    assert names == sorted(p.name for p in (GOLDEN / command).iterdir())
    assert sorted(os.listdir(got)) == names
    differ = [n for n in names if (got / n).read_bytes() != (want / n).read_bytes()]
    assert differ == []


# edge cells --------------------------------------------------------------

def write_both(tmp_path, header, columns, rows):
    _write_csv(tmp_path / "got.csv", header, columns)
    oracle_csv(tmp_path / "want.csv", header, rows)
    return (tmp_path / "got.csv").read_text(), (tmp_path / "want.csv").read_text()


def test_zero_rows_write_the_header_only(tmp_path):
    got, want = write_both(tmp_path, ("a", "b"), [[], []], [])
    assert got == want == "a,b\n"


def test_edge_floats_match_repr(tmp_path):
    values = np.array([-0.0, 0.0, 1e-05, 1e16, 0.1, 1.0, 2.5e-300, math.nan, math.inf, -math.inf])
    ids = [f"s{i}" for i in range(len(values))]
    got, want = write_both(tmp_path, ("id", "p"), [ids, values.tolist()], list(zip(ids, values)))
    assert got == want
    assert got.splitlines()[1:5] == ["s0,-0.0", "s1,0.0", "s2,1e-05", "s3,1e+16"]
    assert got.splitlines()[-3:] == ["s7,nan", "s8,inf", "s9,-inf"]


def test_int_and_float_columns_keep_their_type(tmp_path):
    counts = np.array([0, 1, 3], dtype=np.int64)
    got, want = write_both(tmp_path, ("n", "x"), [counts.tolist(), counts.astype(float).tolist()],
                           [[int(c), c] for c in counts])
    assert got == want == "n,x\n0,0.0\n1,1.0\n3,3.0\n"


@pytest.mark.parametrize("columns", [[[1, 2], [0.5]], [[1, 2]], [[1], [2], [3]], []])
def test_rejects_columns_that_do_not_fit_the_header(tmp_path, columns):
    with pytest.raises(ValueError, match="columns of one length"):
        _write_csv(tmp_path / "x.csv", ("a", "b"), columns)


# the JSON rule -----------------------------------------------------------

# each artifact type -> the keys its JSON file holds: the fields `==` compares
WRITTEN_FIELDS = {
    "TreeEnsemble": {"trees", "base_score", "n_features", "params", "train_loss"},
    "Tree": {"feature", "threshold", "left", "right", "value", "cover"},
    "GBTParams": {"n_trees", "max_depth", "learning_rate", "min_child_weight", "lambda_l2"},
    "ClusterModel": {"method", "k", "centroids", "sizes", "positives", "seed", "inertia"},
    "Calibrator": {"method", "params", "diagnostics"},
    "ClusteredCalibrator": {"cluster_model", "method", "calibrators", "fallback",
                            "min_fit_size", "cluster_meta"},
    "EvalReport": {"rows", "cluster_diagnostics", "improved_fractions", "provenance"},
    "SplitIndices": {"train", "calibration", "test", "seed"},
}


def test_each_artifact_type_writes_the_fields_eq_compares(state):
    objs = [state.ens, state.ens.trees[0], state.ens.params, state.cm, state.unified["platt"],
            state.ccl["platt"], state.report, state.splits]
    assert sorted(type(o).__name__ for o in objs) == sorted(WRITTEN_FIELDS)
    for o in objs:
        compared = {f.name for f in dataclasses.fields(o) if f.compare}
        assert set(_jsonable(o)) == WRITTEN_FIELDS[type(o).__name__] == compared, type(o)
    assert state.ens.train_margins is not None and "train_margins" not in _jsonable(state.ens)


def test_json_values_are_plain_and_keys_strings(state):
    ccl = _jsonable(state.ccl["platt"])
    assert set(ccl["calibrators"]) <= {str(c) for c in range(state.cm.k)}
    assert isinstance(ccl["cluster_model"]["centroids"], list)
    assert _jsonable({2: (np.arange(2), [np.ones(1)])}) == {"2": [[0, 1], [[1.0]]]}


def test_cluster_keys_are_written_in_string_order(tmp_path):
    k = 12
    cm = ClusterModel("kmeans", k, np.zeros((k, 2)), np.ones(k, dtype=np.int64),
                      np.zeros(k, dtype=np.int64))
    const = Calibrator("constant", {"p0": 0.5})
    ccl = ClusteredCalibrator(cm, "platt", {c: const for c in range(k)}, const, 10,
                              {c: {"n": 1} for c in range(k)})
    harness._write_json(tmp_path / "ccl.json", ccl)
    with open(tmp_path / "ccl.json", encoding="utf-8") as fh:
        written = json.load(fh)
    order = ["0", "1", "10", "11", "2", "3", "4", "5", "6", "7", "8", "9"]
    assert list(written["calibrators"]) == list(written["cluster_meta"]) == order
    assert _jsonable(ClusteredCalibrator.from_dict(written)) == written
