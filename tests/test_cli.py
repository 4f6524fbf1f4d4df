"""Command-line interface behavior and exit codes."""

import json
import os

import pytest

from clustercal.cli import main

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

    def test_missing_out_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["report", "--config", cfg]) == 1
        assert "output directory" in capsys.readouterr().err

    def test_runtime_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"clustering": {"method": "kmeans", "k": 100000}})
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "runtime error:" in capsys.readouterr().err

    def test_failed_run_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"rejection_thresholds": [1.5]})
        out = tmp_path / "out"
        assert main(["report", "--config", cfg, "--out", str(out)]) == 2
        assert "stage 'evaluate' failed" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_without_label_column_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("a,b\n1,2\n3,4\n")
        cfg = write_config(tmp_path, {"data": {"csv": {"path": str(data),
                                                         "label_column": "y"}},
                                      "model": {"gbt": {}}})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "missing label column" in capsys.readouterr().err


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
