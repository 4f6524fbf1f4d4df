"""Command-line interface behavior and exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from clustercal import harness
from clustercal.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CONFIG = GOLDEN / "report_config.json"

CONFIG = {
    "data": {"synthetic": {
        "n_subpops": 3, "samples_per_subpop": 200, "d": 2,
        "base_rates": [0.2, 0.5, 0.8], "miscal_offsets": [2.0, -2.0, 1.0],
        "noise": 1.0, "seed": 0}},
    "model": {"synthetic_scores": {}},
    "embedding": {"kind": "raw"},
    "clustering": {"method": "kmeans", "k": 3},
    "methods": ["platt"],
    "seed": 0,
}


def _without_embedding(cfg):
    cfg = dict(cfg, model={"synthetic_scores": {}})
    del cfg["embedding"]    # the default embedding, SHAP, needs a GBT model
    return cfg


def _synthetic_with(**change):
    return lambda cfg: {**cfg, "data": {"synthetic": {**cfg["data"]["synthetic"], **change}}}


# change to the golden config (a dict to merge, or a function of the config)
# -> the key its error names. Each is rejected before any stage runs.
BAD_CONFIGS = [
    ({"data": {"synthetic": None}}, "data.synthetic"),
    ({"data": {"csv": {"path": str(GOLDEN / "train" / "scores.csv"), "label_column": "y",
                       "sep": ";"}}}, "data.csv keys: ['sep']"),
    ({"data": {"csv": {"path": str(GOLDEN / "train" / "scores.csv")}}}, "label_column"),
    ({"model": {"gbt": None}}, "model.gbt"),
    ({"model": {"external_scores": None}}, "model.external_scores"),
    ({"model": {"gbt": {"bogus": 1}}}, "model.gbt keys: ['bogus']"),
    ({"model": {"gbt": {"n_trees": "2"}}}, "model.gbt.n_trees"),
    # json.load parses NaN and +-Infinity into floats
    ({"model": {"gbt": {"min_child_weight": math.nan}}}, "model.gbt.min_child_weight"),
    ({"model": {"gbt": {"learning_rate": math.nan}}}, "model.gbt.learning_rate"),
    ({"model": {"gbt": {"lambda_l2": math.inf}}}, "model.gbt.lambda_l2"),
    ({"split_ratios": [math.nan, 0.2, 0.2]}, "split_ratios"),
    (_synthetic_with(noise=math.nan), "data.synthetic.noise"),
    (_synthetic_with(miscal_offsets=[math.nan, -1.0, 0.5, -1.5]), "data.synthetic.miscal_offsets"),
    ({"clustering": {"k": "eight"}}, "clustering.k"),
    ({"clustering": {"elbow": [2, 6]}}, "clustering.elbow"),
    ({"embedding": {"kind": "bogus"}}, "embedding.kind"),
    ({"embedding": {"kind": "topk", "opts": {"topk_fraction": 2}}}, "topk_fraction"),
    (_without_embedding, "embedding.kind"),
    ({"ccl_opts": {"min_fit_size": "ten"}}, "ccl_opts.min_fit_size"),
    ({"ccl_opts": {"fit_opts": {"bogus": 1}}}, "ccl_opts keys: ['fit_opts']"),
    ({"metric_opts": {"n_bins": 0}}, "metric_opts.n_bins"),
    ({"metric_opts": {"scheme": "bogus"}}, "metric_opts.scheme"),
    ({"metric_opts": {"cece_base": "bogus"}}, "metric_opts.cece_base"),
    ({"rejection_thresholds": [1.5]}, "rejection_thresholds"),
    ({"seed": "x"}, "seed"),
    ({"stratify": "no"}, "stratify"),
    ({"methods": ["platt", "platt"]}, "methods repeat: ['platt']"),
    (lambda cfg: [1], "config must be a JSON object"),
    ({"ccl_opts": {"min_fit_size": -5}}, "ccl_opts.min_fit_size must be >= 0"),
    ({"clustering": {"method": "kmeans", "k": 4, "min_cluster_size": -3}},
     "clustering.min_cluster_size must be >= 0"),
    ({"rejection_thresholds": []}, "rejection_thresholds: values must be aligned"),
]


def write_config(tmp_path, extra=None, name="cfg.json"):
    cfg = json.loads(json.dumps(CONFIG))
    if extra:
        cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestExitCodes:
    def test_success(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_validation_error_on_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"bogus_key": 1})
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [{"clustering": None}, {"metric_opts": None},
                                       {"ccl_opts": None}, {"embedding": {"opts": None}}])
    def test_validation_error_names_a_section_that_is_not_an_object(self, tmp_path, capsys,
                                                                    extra):
        cfg = write_config(tmp_path, extra)
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        name = "embedding.opts" if "embedding" in extra else next(iter(extra))
        assert capsys.readouterr().err == f"error: {name} must be a JSON object, not NoneType\n"

    @pytest.mark.parametrize("methods", ["platt", {"platt": 1}, ["platt", 3]])
    def test_validation_error_on_methods_that_are_not_a_list_of_names(self, tmp_path, capsys,
                                                                     methods):
        cfg = write_config(tmp_path, {"methods": methods})
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: methods must be a list of method names\n"

    def test_validation_error_on_missing_config(self, tmp_path):
        assert main(["report", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "out")]) == 1

    def test_validation_error_on_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["report", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("unreadable", ["directory", "not_utf8"])
    def test_unreadable_config_exits_1_without_a_traceback(self, tmp_path, unreadable):
        path = tmp_path / "cfg.json"
        if unreadable == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"seed": 0, "note": "caf\xe9"}')
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "clustercal.cli", "report",
                               "--config", str(path), "--out", str(out)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr, proc.stderr
        assert not out.exists()

    def test_missing_out_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["report", "--config", cfg]) == 1
        assert "output directory" in capsys.readouterr().err

    def test_runtime_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"clustering": {"method": "kmeans", "k": 100000}})
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "runtime error:" in capsys.readouterr().err

    def test_failed_run_writes_nothing(self, tmp_path, capsys):
        # data, model and embedding run before the clustering stage fails
        cfg = write_config(tmp_path, {"clustering": {"method": "kmeans", "k": 100000}})
        out = tmp_path / "out"
        assert main(["report", "--config", cfg, "--out", str(out)]) == 2
        assert "stage 'clustering' failed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("column", ["margin", "probability"])
    def test_blank_external_score_exits_2_at_the_model_stage(self, tmp_path, capsys, column):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "train")]) == 0
        lines = (tmp_path / "train" / "scores.csv").read_text().splitlines()
        cells = lines[100].split(",")
        cells[lines[0].split(",").index(column)] = ""
        lines[100] = ",".join(cells)
        scores = tmp_path / "scores.csv"
        scores.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, {"model": {"external_scores": str(scores)}}, "ext.json")
        out = tmp_path / "out"
        assert main(["report", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "stage 'model' failed" in err, err
        assert f"row 101, column {column!r}: unparseable cell ''" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_external_embedding_exits_2_at_the_embedding_stage(self, tmp_path,
                                                                          capsys, bad):
        vectors = tmp_path / "vectors.csv"
        rows = [f"{i % 7}.0,{i % 5}.0" for i in range(600)]
        rows[250] = f"1.0,{bad}"
        vectors.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, {"embedding": {"kind": "external", "path": str(vectors)}})
        out = tmp_path / "out"
        assert main(["embed", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "stage 'embedding' failed: non-finite embedding values" in err, err
        assert not out.exists()

    def test_external_embedding_ids_must_match_the_data(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["embed", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        lines = (tmp_path / "a" / "embedding.csv").read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        vectors = tmp_path / "swapped.csv"
        vectors.write_text("\n".join(lines) + "\n")
        ext = write_config(tmp_path, {"embedding": {"kind": "external", "path": str(vectors)}},
                           "ext.json")
        out = tmp_path / "out"
        assert main(["embed", "--config", ext, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"stage 'embedding' failed: {vectors}: sample ids do not match the dataset" in err
        assert not out.exists()

    @pytest.mark.parametrize("change, key", BAD_CONFIGS,
                             ids=[key for _, key in BAD_CONFIGS])
    def test_bad_value_exits_1_before_any_stage(self, tmp_path, capsys, monkeypatch,
                                                change, key):
        def stage_ran(*args, **kwargs):
            raise AssertionError("a stage ran")
        monkeypatch.setattr(harness, "gen_synthetic_full", stage_ran)
        monkeypatch.setattr(harness, "load_csv", stage_ran)
        golden = json.loads(GOLDEN_CONFIG.read_text())
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(change(golden) if callable(change) else {**golden, **change}))
        out = tmp_path / "out"
        assert main(["report", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err, err
        assert not out.exists()

    def test_seed_override_replaces_the_config_seed_before_the_check(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**CONFIG, "seed": "x"}))
        assert main(["report", "--config", str(path), "--seed", "2",
                     "--out", str(tmp_path / "out")]) == 0

    def test_csv_without_label_column_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("a,b\n1,2\n3,4\n")
        cfg = write_config(tmp_path, {"data": {"csv": {"path": str(data),
                                                         "label_column": "y"}},
                                      "model": {"gbt": {}}})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "missing label column" in capsys.readouterr().err

    @pytest.mark.parametrize("id_column, message", [
        ("nope", "missing id column 'nope'"), ("y", "id column 'y' is the label column")])
    def test_bad_id_column_is_data_error(self, tmp_path, capsys, id_column, message):
        data = tmp_path / "data.csv"
        data.write_text("id,a,y\nr0,1,0\nr1,2,1\n")
        cfg = write_config(tmp_path, {"data": {"csv": {"path": str(data), "label_column": "y",
                                                         "id_column": id_column}},
                                      "model": {"gbt": {}}})
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {data}: {message}\n"
        assert not out.exists()

    def test_sample_id_with_a_comma_exits_1_and_writes_nothing(self, tmp_path, capsys):
        # scores.csv would write the id raw, so its row would have four cells
        lines = ["id,a,b,y"] + [f"p{i},{i % 7},{i % 3},{i % 2}" for i in range(40)]
        lines[6] = '"p5,v",5,2,1'
        data = tmp_path / "data.csv"
        data.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, {"data": {"csv": {"path": str(data), "label_column": "y",
                                                         "id_column": "id"}},
                                      "model": {"gbt": {"n_trees": 2, "max_depth": 2}}})
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "row 7, column 'id': sample id 'p5,v'" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("make, reason", [
        (lambda p: p.mkdir(), "Is a directory"),
        (lambda p: p.write_bytes(b"a,y\n\xe9,1\n"), "can't decode"),
    ], ids=["directory", "not-utf8"])
    def test_unreadable_data_csv_exits_1_and_writes_nothing(self, tmp_path, capsys, make, reason):
        data = tmp_path / "data.csv"
        make(data)
        cfg = write_config(tmp_path, {"data": {"csv": {"path": str(data), "label_column": "y"}},
                                      "model": {"gbt": {}}})
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}: cannot read the file") and reason in err, err
        assert not out.exists()

    # input file -> (config change, given its path; exit code; the stage the message names)
    INPUT_FILES = {
        "data": (lambda p: {"data": {"csv": {"path": p, "label_column": "y"}},
                            "model": {"gbt": {}}}, "y,a\n0,1\n1,2,9\n", 1, None),
        "scores": (lambda p: {"model": {"external_scores": p}},
                   "sample_id,margin\n0,0.5\n1,0.5,9\n", 2, "model"),
        "embedding": (lambda p: {"embedding": {"kind": "external", "path": p}},
                      "1.0,2.0\n1.0,2.0\n1.0,2.0,9\n", 2, "embedding"),
    }

    @pytest.mark.parametrize("kind", INPUT_FILES)
    def test_bad_input_file_keeps_its_exit_code(self, tmp_path, capsys, kind):
        change, text, code, stage = self.INPUT_FILES[kind]
        path = tmp_path / "input.csv"
        path.write_text(text)
        cfg = write_config(tmp_path, change(str(path)))
        out = tmp_path / "out"
        assert main(["report", "--config", cfg, "--out", str(out)]) == code
        message = f"{path}: row 3 has 3 cells, expected 2\n"
        if stage is None:
            assert capsys.readouterr().err == f"error: {message}"
        else:
            assert capsys.readouterr().err == f"runtime error: stage {stage!r} failed: {message}"
        assert not out.exists()


class TestArtifacts:
    def test_report_writes_full_set(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["report", "--config", cfg, "--out", str(out)]) == 0
        for name in ("eval_report.json", "metrics.csv", "clusters.json", "clusters.csv",
                     "rejection.csv", "selection.json", "unified_platt.json",
                     "ccl_platt.json", "calibrated_scores_base.csv",
                     "calibrated_scores_platt_unified.csv",
                     "calibrated_scores_platt_ccl.csv", "bins_platt_ccl.csv"):
            assert (out / name).exists(), name

    def test_train_writes_scores_and_splits(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "scores.csv").exists()
        splits = json.loads((out / "splits.json").read_text())
        n = sum(len(splits[k]) for k in ("train", "calibration", "test"))
        assert n == 600

    def test_train_with_gbt_writes_ensemble(self, tmp_path):
        cfg = write_config(tmp_path, {"model": {"gbt": {"n_trees": 3, "max_depth": 2}}})
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        ens = json.loads((out / "ensemble.json").read_text())
        assert len(ens["trees"]) == 3

    def test_embed_and_cluster(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["embed", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "embedding.csv").exists()
        assert main(["cluster", "--config", cfg, "--out", str(out)]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert {"size_variance", "label_rate_variance",
                "homogeneity_fraction"} <= set(diag)

    def test_embed_output_reads_back_as_an_external_embedding(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["embed", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["cluster", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        written = tmp_path / "a" / "embedding.csv"
        ext = write_config(tmp_path, {"embedding": {"kind": "external", "path": str(written)}},
                           "ext.json")
        assert main(["embed", "--config", ext, "--out", str(tmp_path / "b")]) == 0
        assert main(["cluster", "--config", ext, "--out", str(tmp_path / "b")]) == 0
        for name in ("embedding.csv", "clusters.json", "diagnostics.json"):
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()

    def test_select_reuses_existing_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["report", "--config", cfg, "--out", str(out)]) == 0
        stamp = (out / "eval_report.json").stat().st_mtime_ns
        assert main(["select", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "eval_report.json").stat().st_mtime_ns == stamp
        selection = json.loads((out / "selection.json").read_text())
        assert selection["selected"] in {r for r in
                                         ("base", "platt_unified", "platt_ccl")}
        assert capsys.readouterr().out.strip()

    def test_select_ignores_a_report_from_another_config(self, tmp_path):
        cfg = write_config(tmp_path)
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["report", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
        assert main(["select", "--config", cfg, "--seed", "9", "--out", str(out)]) == 0
        assert main(["report", "--config", cfg, "--seed", "9", "--out", str(fresh)]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert report["provenance"]["seed"] == 9
        assert (out / "selection.json").read_text() == (fresh / "selection.json").read_text()

    @pytest.mark.parametrize("edit", ["extra_key", "not_json"])
    def test_select_reruns_on_an_unreadable_report(self, tmp_path, edit):
        cfg = write_config(tmp_path)
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["report", "--config", cfg, "--out", str(out)]) == 0
        path = out / "eval_report.json"
        if edit == "extra_key":
            path.write_text(json.dumps({**json.loads(path.read_text()), "schema": 2}))
        else:
            path.write_text("{")
        assert main(["select", "--config", cfg, "--out", str(out)]) == 0
        assert main(["report", "--config", cfg, "--out", str(fresh)]) == 0
        for name in ("eval_report.json", "selection.json"):
            assert (out / name).read_text() == (fresh / name).read_text()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["report", "--config", cfg, "--out", str(a)]) == 0
        assert main(["report", "--config", cfg, "--seed", "9", "--out", str(b)]) == 0
        assert (a / "eval_report.json").read_text() != (b / "eval_report.json").read_text()


class TestDeterminism:
    @pytest.mark.parametrize("command", ["train", "embed", "cluster", "report"])
    def test_byte_identical_reruns(self, tmp_path, command):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([command, "--config", cfg, "--out", str(a)]) == 0
        assert main([command, "--config", cfg, "--out", str(b)]) == 0
        names = sorted(os.listdir(a))
        assert names == sorted(os.listdir(b))
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
