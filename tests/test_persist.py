"""Every artifact the column-wise CSV writer produces is byte-identical to the
per-cell writer it replaced.

The oracle below is that earlier writer: each row is a list of cells, an int
or a string is written with ``str`` and anything else with
``repr(float(v))``; the JSON files go through the same ``json.dump`` call.
`test_golden.py` compares floats to a relative 1e-12 and accepts ``1`` where
the golden file has ``1.0``, so it cannot see a cell change its type; this
test compares bytes, on one `RunState` of the golden config.

The JSON tests below check the one rule that writes every JSON artifact,
and the one reader, `_read_json`, that reads each golden JSON artifact back
to the same bytes.
"""

import dataclasses
import json
import math
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from clustercal import harness
from clustercal.calibrators import Calibrator
from clustercal.cli import COMMANDS, main
from clustercal.ensemble import ClusteredCalibrator
from clustercal.gbt import TreeEnsemble
from clustercal.harness import (
    METRIC_COLUMNS, ConfigError, EvalReport, ExperimentConfig, _jsonable, _read_json, _section,
    _write_csv, _write_json, _write_stacked, run_experiment, run_stages, select_model,
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
    variants = sorted(r.calibrated)
    oracle_csv(os.path.join(out, "calibrated_scores.csv"),
               ("sample_id", "label") + tuple(variants),
               [[r.ds.sample_ids[i], int(r.ds.labels[i])] + [r.calibrated[v][k] for v in variants]
                for k, i in enumerate(r.splits.test)])
    bin_rows, rej_rows = [], []
    for variant in variants:
        for b in r.bins[variant].as_rows():
            bin_rows.append([variant, b["bin"], b["count"], b["obs_rate"], b["mean_pred"]])
        curve = r.rejection[variant]
        for t, acc_n, err, rej in zip(curve.thresholds, curve.accepted,
                                      curve.error_rate, curve.rejection_rate):
            rej_rows.append([variant, t, int(acc_n), err, rej])
    oracle_csv(os.path.join(out, "bins.csv"),
               ("variant", "bin", "count", "obs_rate", "mean_pred"), bin_rows)
    oracle_csv(os.path.join(out, "rejection.csv"),
               ("variant", "threshold", "accepted", "error_rate", "rejection_rate"),
               rej_rows)
    oracle_json(os.path.join(out, "selection.json"), select_model(r.report, "CECE"))


def persist(r, out, last):
    """What a run of ``r``'s config that ends at stage ``last`` writes into ``out``."""
    harness._persist(dataclasses.replace(r, cfg=dataclasses.replace(r.cfg, out=str(out))), last)


ORACLES = {"train": oracle_train, "embed": oracle_embed, "cluster": oracle_cluster,
           "report": oracle_report}


# golden run --------------------------------------------------------------

@pytest.fixture(scope="module")
def state():
    return run_stages(ExperimentConfig.from_json_file(str(GOLDEN / "report_config.json")))


@pytest.mark.parametrize("command", sorted(ORACLES))
def test_artifacts_match_oracle_byte_for_byte(state, tmp_path, command):
    got, want = tmp_path / "got", tmp_path / "want"
    got.mkdir()
    want.mkdir()
    persist(state, got, COMMANDS[command][0])
    ORACLES[command](want, state)
    names = sorted(os.listdir(want))
    assert names == sorted(p.name for p in (GOLDEN / command).iterdir())
    assert sorted(os.listdir(got)) == names
    differ = [n for n in names if (got / n).read_bytes() != (want / n).read_bytes()]
    assert differ == []


@pytest.mark.parametrize("command", sorted(ORACLES))
def test_the_library_writes_what_the_command_writes(tmp_path, command):
    config = str(GOLDEN / "report_config.json")
    assert main([command, "--config", config, "--out", str(tmp_path / "cli")]) == 0
    run_experiment(ExperimentConfig.from_json_file(config, out=str(tmp_path / "lib")),
                   COMMANDS[command][0])
    names = sorted(os.listdir(tmp_path / "cli"))
    assert sorted(os.listdir(tmp_path / "lib")) == names
    differ = [n for n in names
              if (tmp_path / "lib" / n).read_bytes() != (tmp_path / "cli" / n).read_bytes()]
    assert differ == []


def test_a_library_run_writes_the_report_set_with_its_selection(tmp_path):
    report = run_experiment(ExperimentConfig.from_json_file(str(GOLDEN / "report_config.json"),
                                                            out=str(tmp_path)))
    assert sorted(os.listdir(tmp_path)) == sorted(p.name for p in (GOLDEN / "report").iterdir())
    assert json.loads((tmp_path / "selection.json").read_text()) == json.loads(
        json.dumps(select_model(report, "CECE")))


@pytest.mark.parametrize("last", ["data", "calibrate", "report"])
def test_a_run_must_end_at_a_stage_that_writes(tmp_path, last):
    cfg = ExperimentConfig.from_json_file(str(GOLDEN / "report_config.json"), out=str(tmp_path))
    with pytest.raises(ValueError, match=rf"last must be one of \['model', 'embedding', "
                                         rf"'clustering', 'evaluate'\], not '{last}'"):
        run_experiment(cfg, last)
    assert os.listdir(tmp_path) == []


def test_small_blocks_write_the_same_report(state, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "CSV_BLOCK_ROWS", 7)      # 80 test rows: 12 blocks
    persist(state, tmp_path / "got", "evaluate")
    (tmp_path / "want").mkdir()
    oracle_report(tmp_path / "want", state)
    names = sorted(os.listdir(tmp_path / "want"))
    assert sorted(os.listdir(tmp_path / "got")) == names
    assert [n for n in names if (tmp_path / "got" / n).read_bytes()
            != (tmp_path / "want" / n).read_bytes()] == []


def test_the_report_peak_does_not_grow_with_test_rows_times_variants(state, tmp_path):
    # each added test row may cost its id's list slot and its label, but no
    # Python float per variant (the golden run has 12 variants)
    def peak(reps):
        r = dataclasses.replace(
            state, splits=dataclasses.replace(state.splits, test=np.tile(state.splits.test, reps)),
            calibrated={v: np.tile(p, reps) for v, p in state.calibrated.items()})
        tracemalloc.start()
        try:
            persist(r, tmp_path / str(reps), "evaluate")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    added = 250 * len(state.splits.test)
    assert (peak(251) - peak(1)) / added < 64


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


# the kinds of column `_write_csv` takes
COLUMN_KINDS = {"array": np.asarray, "list": lambda c: np.asarray(c).tolist(),
                "tuple": lambda c: tuple(np.asarray(c).tolist())}


@pytest.mark.parametrize("kind", sorted(COLUMN_KINDS))
@pytest.mark.parametrize("block", [1, 3, 4, 7])
def test_arrays_lists_and_tuples_write_the_same_bytes_across_blocks(tmp_path, monkeypatch,
                                                                    kind, block):
    monkeypatch.setattr(harness, "CSV_BLOCK_ROWS", block)
    ids = [f"s{i}" for i in range(7)]
    counts = np.arange(7, dtype=np.int64)
    x = np.array([-0.0, 0.1, 1e-05, 1e16, math.nan, math.inf, 2.5e-300])
    columns = [COLUMN_KINDS[kind](c) for c in (ids, counts, x)]
    got, want = write_both(tmp_path, ("id", "n", "x"), columns, zip(ids, counts.tolist(), x))
    assert got == want


@pytest.mark.parametrize("columns", [[[1, 2], [0.5]], [[1, 2]], [[1], [2], [3]], []])
def test_rejects_columns_that_do_not_fit_the_header(tmp_path, columns):
    with pytest.raises(ValueError, match="columns of one length"):
        _write_csv(tmp_path / "x.csv", ("a", "b"), columns)


def test_stacked_tables_put_the_variant_in_front(tmp_path):
    _write_stacked(tmp_path / "x.csv", ("n", "x"),
                   {"b": (np.array([0, 1]), np.array([0.5, 1.0])), "a": ([2], [np.nan])})
    assert (tmp_path / "x.csv").read_text() == "variant,n,x\nb,0,0.5\nb,1,1.0\na,2,nan\n"


@pytest.mark.parametrize("tables", [
    {"a": ([1, 2], [0.5]), "b": ([3], [0.5, 0.25])},    # equal in total, not per variant
    {"a": ([1], [0.5]), "b": ([2],)},
])
def test_stacked_tables_reject_columns_that_do_not_fit(tmp_path, tables):
    with pytest.raises(ValueError, match="x.csv"):
        _write_stacked(tmp_path / "x.csv", ("n", "x"), tables)
    assert not (tmp_path / "x.csv").exists()


# the JSON rule -----------------------------------------------------------

# each artifact type -> the keys its JSON file holds: the fields `==` compares
WRITTEN_FIELDS = {
    "TreeEnsemble": {"trees", "base_score", "n_features", "params", "train_loss"},
    "Tree": {"feature", "threshold", "left", "right", "value", "cover"},
    "GBTParams": {"n_trees", "max_depth", "learning_rate", "min_child_weight", "lambda_l2"},
    "ClusterModel": {"method", "centroids", "sizes", "seed", "inertia"},
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
        assert _jsonable(_section(type(o), "o", _jsonable(o))) == _jsonable(o), type(o)
    assert state.ens.train_margins is not None and "train_margins" not in _jsonable(state.ens)


def test_json_values_are_plain_and_keys_strings(state):
    ccl = _jsonable(state.ccl["platt"])
    assert set(ccl["calibrators"]) <= {str(c) for c in range(state.cm.k)}
    assert isinstance(ccl["cluster_model"]["centroids"], list)
    assert _jsonable({2: (np.arange(2), [np.ones(1)])}) == {"2": [[0, 1], [[1.0]]]}


def test_cluster_keys_are_written_in_string_order(tmp_path):
    k = 12
    cm = ClusterModel("kmeans", np.zeros((k, 2)), np.ones(k, dtype=np.int64))
    const = Calibrator("constant", {"p0": 0.5})
    ccl = ClusteredCalibrator(cm, "platt", {c: const for c in range(k)}, const, 10,
                              {c: {"n": 1} for c in range(k)})
    harness._write_json(tmp_path / "ccl.json", ccl)
    with open(tmp_path / "ccl.json", encoding="utf-8") as fh:
        written = json.load(fh)
    order = ["0", "1", "10", "11", "2", "3", "4", "5", "6", "7", "8", "9"]
    assert list(written["calibrators"]) == list(written["cluster_meta"]) == order
    assert _jsonable(harness._read_json(ClusteredCalibrator, tmp_path / "ccl.json")) == written


# the reader --------------------------------------------------------------

# file name prefix -> the type `_read_json` reads it as
READ_AS = {"ensemble.json": TreeEnsemble, "clusters.json": ClusterModel,
           "eval_report.json": EvalReport, "ccl_": ClusteredCalibrator, "unified_": Calibrator}
GOLDEN_JSON = [(p, cls) for p in sorted(GOLDEN.glob("*/*.json"))
               for prefix, cls in READ_AS.items() if p.name.startswith(prefix)]


def test_every_artifact_type_has_golden_files():
    assert len(GOLDEN_JSON) == 16
    assert {cls for _, cls in GOLDEN_JSON} == set(READ_AS.values())


@pytest.mark.parametrize("path, cls", GOLDEN_JSON,
                         ids=[f"{p.parent.name}/{p.name}" for p, _ in GOLDEN_JSON])
def test_golden_json_reads_back_and_rewrites_byte_for_byte(tmp_path, path, cls):
    obj = _read_json(cls, path)
    assert type(obj) is cls
    _write_json(tmp_path / path.name, obj)
    assert (tmp_path / path.name).read_bytes() == path.read_bytes()


def test_read_back_arrays_take_their_dtype_from_the_json():
    ens = _read_json(TreeEnsemble, GOLDEN / "report" / "ensemble.json")
    want = {"feature": "int64", "left": "int64", "right": "int64",
            "threshold": "float64", "value": "float64", "cover": "float64"}
    for tree in ens.trees:
        assert {f: getattr(tree, f).dtype.name for f in want} == want
    assert ens.train_margins is None
    cm = _read_json(ClusterModel, GOLDEN / "report" / "clusters.json")
    assert [a.dtype.name for a in (cm.sizes, cm.centroids)] == ["int64", "float64"]
    hist = _read_json(Calibrator, GOLDEN / "report" / "unified_histogram.json")
    assert [hist.params[k].dtype.name for k in ("edges", "outputs")] == ["float64"] * 2
    binned = _read_json(Calibrator, GOLDEN / "report" / "unified_platt_bin.json")
    assert {type(b) for b in binned.params["bins"]} == {Calibrator}


def write_golden_without(tmp_path, name, drop=(), **extra):
    d = json.loads((GOLDEN / "report" / name).read_text())
    d = {**{k: v for k, v in d.items() if k not in drop}, **extra}
    (tmp_path / name).write_text(json.dumps(d))
    return tmp_path / name


def test_an_unknown_artifact_key_is_named(tmp_path):
    path = write_golden_without(tmp_path, "ensemble.json", extra_key=1)
    with pytest.raises(ConfigError, match=r"unknown .*ensemble.json keys: \['extra_key'\]"):
        _read_json(TreeEnsemble, path)


@pytest.mark.parametrize("feature, left, right, node", [
    ([0, -1, -1], [0, -1, -1], [2, -1, -1], 0),                      # node 0 is its own child
    ([0, 0, -1, -1, -1], [1, 0, -1, -1, -1], [4, 3, -1, -1, -1], 1),  # node 1's child is 0
])
def test_a_tree_with_a_cycle_is_named(tmp_path, feature, left, right, node):
    # predict would go round the cycle for ever
    d = json.loads((GOLDEN / "report" / "ensemble.json").read_text())
    n = len(feature)
    d["trees"][0].update(feature=feature, threshold=[0.0] * n, left=left, right=right,
                         value=[0.0] * n, cover=[1.0] * n)
    path = write_golden_without(tmp_path, "ensemble.json", **d)
    with pytest.raises(ConfigError, match=rf"ensemble.json.trees\[0\]: node {node} is neither "):
        _read_json(TreeEnsemble, path)


def test_a_missing_artifact_key_is_named(tmp_path):
    path = write_golden_without(tmp_path, "ccl_platt.json", drop=("calibrators",))
    with pytest.raises(ConfigError, match=r"ccl_platt.json needs keys: \['calibrators'\]"):
        _read_json(ClusteredCalibrator, path)


@pytest.mark.parametrize("key", ["x", "01", "-0", " 1", "1.0"])
def test_a_cluster_id_that_is_not_an_int_is_named(tmp_path, key):
    d = json.loads((GOLDEN / "report" / "ccl_platt.json").read_text())
    d["calibrators"][key] = d["calibrators"].pop("0")
    path = write_golden_without(tmp_path, "ccl_platt.json", **d)
    with pytest.raises(ConfigError, match=rf"ccl_platt.json.calibrators keys must be ints, not '{key}'"):
        _read_json(ClusteredCalibrator, path)


# an edit of the golden ccl_platt.json -> the message `_read_json` gives for it
CCL_EDITS = {
    "calibrator_id_99": (lambda d: d["calibrators"].update({"99": d["calibrators"]["0"]}),
                         r"calibrators has cluster ids outside \[0, 4\): \[99\]"),
    "meta_id_42": (lambda d: d["cluster_meta"].update({"42": d["cluster_meta"]["0"]}),
                   r"cluster_meta has cluster ids outside \[0, 4\): \[42\]"),
    "fallback_with_calibrator": (
        lambda d: d["cluster_meta"]["1"].update(used_fallback=True),
        r"cluster 1 has a calibrator of its own, but its used_fallback is True"),
    "fitted_without_calibrator": (
        lambda d: d["calibrators"].pop("1"),
        r"cluster 1 lacks a calibrator of its own, but its used_fallback is False"),
}


@pytest.mark.parametrize("edit", sorted(CCL_EDITS))
def test_cluster_ids_at_odds_with_the_model_or_the_meta_are_named(tmp_path, edit):
    d = json.loads((GOLDEN / "report" / "ccl_platt.json").read_text())
    change, message = CCL_EDITS[edit]
    change(d)
    path = write_golden_without(tmp_path, "ccl_platt.json", **d)
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: {message}$"):
        _read_json(ClusteredCalibrator, path)


def test_a_fallback_cluster_reads_back_without_a_calibrator(tmp_path):
    d = json.loads((GOLDEN / "report" / "ccl_platt.json").read_text())
    for edit in ("fallback_with_calibrator", "fitted_without_calibrator"):
        CCL_EDITS[edit][0](d)
    ccl = _read_json(ClusteredCalibrator, write_golden_without(tmp_path, "ccl_platt.json", **d))
    assert ccl.resolve(1) is ccl.fallback


@pytest.mark.parametrize("edit,message", [
    pytest.param({"extra": 1}, r"unknown params.bins\[1\] keys: \['extra'\]", id="extra"),
    pytest.param({"params": None}, r"params.bins\[1\] needs keys: \['params'\]", id="missing"),
])
def test_a_bad_platt_bin_bin_is_named(tmp_path, edit, message):
    d = json.loads((GOLDEN / "report" / "unified_platt_bin.json").read_text())
    b = d["params"]["bins"][1]
    b.update(edit)
    d["params"]["bins"][1] = {k: v for k, v in b.items() if v is not None}
    path = write_golden_without(tmp_path, "unified_platt_bin.json", **d)
    with pytest.raises(ConfigError, match=r"unified_platt_bin.json: " + message):
        _read_json(Calibrator, path)


# golden unified_<method>.json, edit -> the key and the message `_read_json` gives for it
CALIBRATOR_EDITS = {
    "bogus-method": ("platt", lambda d: d.update(method="bogus"),
                     r"\.method must be one of \['platt', .*\], not 'bogus'"),
    "extra-param": ("platt", lambda d: d["params"].update(Z=1.0),
                    r": unknown params keys: \['Z'\]"),
    "missing-param": ("platt", lambda d: d["params"].pop("B"), r": params needs keys: \['B'\]"),
    "string-param": ("platt", lambda d: d["params"].update(A="x"),
                     r": params.A must be a number, not 'x'"),
    "bool-param": ("temperature", lambda d: d["params"].update(T=True),
                   r": params.T must be a number, not True"),
    "huge-param": ("platt", lambda d: d["params"].update(A=10**400),
                   r": params.A must fit a float, not an int of 1329 bits"),
    "nan-param": ("beta", lambda d: d["params"].update(c=math.nan),
                  r": params.c must be finite, not nan"),
    "nan-output": ("histogram", lambda d: d["params"]["outputs"].__setitem__(1, math.nan),
                   r": params.outputs: values must be finite"),
    "bool-output": ("histogram", lambda d: d["params"]["outputs"].__setitem__(1, True),
                    r": params.outputs must be a 1-D list of numbers"),
    "nested-values": ("isotonic", lambda d: d["params"].update(values=[[0.5]]),
                      r": params.values must be a 1-D list of numbers"),
    "bin-nan-param": ("platt_bin", lambda d: d["params"]["bins"][1]["params"].update(A=math.nan),
                      r": params.bins\[1\]: params.A must be finite, not nan"),
    "bin-not-an-object": ("platt_bin", lambda d: d["params"]["bins"].__setitem__(1, 3),
                          r": params.bins\[1\] must be a JSON object, not 3"),
}


@pytest.mark.parametrize("edit", sorted(CALIBRATOR_EDITS))
def test_a_bad_calibrator_file_is_named(tmp_path, edit):
    method, change, message = CALIBRATOR_EDITS[edit]
    name = f"unified_{method}.json"
    d = json.loads((GOLDEN / "report" / name).read_text())
    change(d)
    path = write_golden_without(tmp_path, name, **d)
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}{message}$"):
        _read_json(Calibrator, path)


def test_a_bad_calibrator_inside_an_ensemble_file_is_named(tmp_path):
    d = json.loads((GOLDEN / "report" / "ccl_platt.json").read_text())
    d["fallback"]["params"]["B"] = math.inf
    path = write_golden_without(tmp_path, "ccl_platt.json", **d)
    with pytest.raises(ConfigError, match=r"ccl_platt.json.fallback: params.B must be finite"):
        _read_json(ClusteredCalibrator, path)


def test_keys_with_defaults_may_be_absent(tmp_path):
    ens = _read_json(TreeEnsemble, write_golden_without(tmp_path, "ensemble.json",
                                                        drop=("train_loss",)))
    cm = _read_json(ClusterModel, write_golden_without(tmp_path, "clusters.json",
                                                       drop=("seed", "inertia")))
    ccl = _read_json(ClusteredCalibrator, write_golden_without(
        tmp_path, "ccl_platt.json", drop=("cluster_meta",)))
    cal = _read_json(Calibrator, write_golden_without(tmp_path, "unified_platt.json",
                                                      drop=("diagnostics",)))
    assert (ens.train_loss, cm.seed, cm.inertia, ccl.cluster_meta, cal.diagnostics) == (
        (), 0, 0.0, {}, {})


def test_a_split_feature_beyond_n_features_is_named(tmp_path):
    # predict would index past the feature matrix's last column
    d = json.loads((GOLDEN / "report" / "ensemble.json").read_text())
    d["trees"][1]["feature"][0] = 99
    path = write_golden_without(tmp_path, "ensemble.json", **d)
    with pytest.raises(ConfigError, match=r"ensemble.json: tree 1, node 0: split feature 99 "
                                          r"is not below n_features 3$"):
        _read_json(TreeEnsemble, path)


@pytest.mark.parametrize("edit", [{"sizes": [75, 138, 6]}, {"sizes": [75, 138, 6, 101, 1]},
                                  {"sizes": []}])
def test_a_cluster_model_whose_counts_disagree_is_named(tmp_path, edit):
    path = write_golden_without(tmp_path, "clusters.json", **edit)
    with pytest.raises(ConfigError, match=r"clusters.json: there are 4 centroids, but \d sizes"):
        _read_json(ClusterModel, path)


def test_a_cluster_file_from_before_k_and_positives_were_dropped_is_named(tmp_path):
    # such a file wrote k beside its centroids and positives that were never counted
    path = write_golden_without(tmp_path, "clusters.json", k=4, positives=[0] * 4)
    with pytest.raises(ConfigError, match=r"unknown .*clusters.json keys: \['k', 'positives'\]"):
        _read_json(ClusterModel, path)


@pytest.mark.parametrize("name, edit, message", [
    ("ensemble.json", lambda d: d["trees"][0]["threshold"].__setitem__(0, math.nan),
     r"trees\[0\].threshold: values must be finite"),
    ("clusters.json", lambda d: d["centroids"][2].__setitem__(1, math.inf),
     r"centroids: values must be finite"),
    ("clusters.json", lambda d: d["centroids"][1].pop(), r"centroids must be a rectangular"),
    ("clusters.json", lambda d: d.update(sizes=["a", "b", "c", "d"]),
     r"sizes must be a rectangular"),
    ("clusters.json", lambda d: d.update(sizes=[75, True, 6, 101]), r"sizes must be a rectangular"),
], ids=["nan-threshold", "inf-centroid", "ragged-centroids", "string-sizes", "bool-size"])
def test_an_array_must_be_rectangular_numeric_and_finite(tmp_path, name, edit, message):
    # a NaN threshold would send every row right at its split without a word
    d = json.loads((GOLDEN / "report" / name).read_text())
    edit(d)
    path = write_golden_without(tmp_path, name, **d)
    with pytest.raises(ConfigError, match=rf"{name}\.{message}"):
        _read_json(TreeEnsemble if name == "ensemble.json" else ClusterModel, path)
