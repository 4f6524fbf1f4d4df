"""Experiment orchestration, significance testing and model selection."""

import dataclasses
import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clustercal.harness import (
    ConfigError, EvalReport, ExperimentConfig, METRIC_COLUMNS, StageError, _jsonable, _read_json,
    paired_resample_test, rejection_selection, run_experiment, run_stages, select_model,
)
from clustercal.ensemble import DEFAULT_MIN_FIT_SIZE, improved_sample_fraction
from clustercal.gbt import GBTParams
from clustercal.metrics import ada_ece, auc, cece, ece, mce, scalar_metrics

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_CONFIG = ROOT / "tests" / "golden" / "report_config.json"
_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def synth_dict(seed=0, methods=("platt", "temperature"), **overrides):
    d = {
        "data": {"synthetic": {
            "n_subpops": 3, "samples_per_subpop": 300, "d": 2,
            "base_rates": [0.2, 0.5, 0.8], "miscal_offsets": [2.0, -2.0, 1.0],
            "noise": 1.0, "seed": seed}},
        "model": {"synthetic_scores": {}},
        "embedding": {"kind": "raw"},
        "clustering": {"method": "kmeans", "k": 3},
        "methods": list(methods),
        "seed": seed,
    }
    d.update(overrides)
    return d


def synth_config(out=None, seed=0, methods=("platt", "temperature"), **overrides):
    return ExperimentConfig.from_dict(synth_dict(seed, methods, out=out, **overrides))


# top-level key -> a valid value other than synth_dict's (or the default)
OTHER_VALUES = {
    "data": {"synthetic": {"n_subpops": 1, "samples_per_subpop": 50, "base_rates": [0.5],
                           "miscal_offsets": [0.0]}},
    "model": {"gbt": {"n_trees": 2}},
    "split_ratios": [0.5, 0.25, 0.25],
    "stratify": False,
    "embedding": {"kind": "raw", "opts": {"standardize": False}},
    "clustering": {"method": "agglomerative", "k": 3},
    "methods": ["platt"],
    "metric_opts": {"n_bins": 5},
    "ccl_opts": {"min_fit_size": 5},
    "rejection_thresholds": [0.5],
    "seed": 1,
    "out": "/tmp/x",
}


class TestConfig:
    @pytest.mark.parametrize("section", ["data", "model", "embedding", "embedding.opts",
                                         "clustering", "metric_opts", "ccl_opts"])
    @pytest.mark.parametrize("value", [None, [], "kmeans", 3])
    def test_section_that_is_not_an_object_rejected(self, section, value):
        d = synth_dict()
        if section == "embedding.opts":
            d["embedding"]["opts"] = value
        else:
            d[section] = value
        with pytest.raises(ConfigError, match=rf"^{section} must be a JSON object"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("value", [None, [1], "x"])
    def test_config_that_is_not_an_object_rejected(self, value):
        with pytest.raises(ConfigError, match="^config must be a JSON object"):
            ExperimentConfig.from_dict(value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"data": {"synthetic": {}}, "modle": {}})

    def test_needs_exactly_one_data_source(self):
        with pytest.raises(ConfigError, match="data source"):
            ExperimentConfig.from_dict({"data": {}})

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError, match="unknown calibration methods"):
            synth_config(methods=("platt", "venn_abers"))

    def test_repeated_methods_rejected(self):
        with pytest.raises(ConfigError, match=r"^methods repeat: \['platt'\]$"):
            synth_config(methods=("platt", "beta", "platt"))

    def test_methods_string_rejected(self):
        # a string is not iterated letter by letter
        with pytest.raises(ConfigError, match="methods must be a list of method names"):
            ExperimentConfig.from_dict({**synth_dict(), "methods": "platt"})

    def test_unknown_clustering_rejected(self):
        with pytest.raises(ConfigError, match="clustering"):
            synth_config(clustering={"method": "dbscan"})

    def test_unknown_ccl_opts_key_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown ccl_opts keys: \['raw_constant'\]"):
            synth_config(ccl_opts={"min_fit_size": 10, "raw_constant": True})

    def test_unknown_metric_opts_key_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown metric_opts keys: \['n_bin'\]"):
            synth_config(metric_opts={"n_bin": 15, "scheme": "equal_width"})

    def test_unknown_clustering_key_rejected(self):
        # "K" would be ignored and the default elbow grid would pick k
        with pytest.raises(ConfigError, match=r"unknown clustering keys: \['K'\]"):
            synth_config(clustering={"method": "kmeans", "K": 4})

    def test_unknown_embedding_key_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown embedding keys: \['opt'\]"):
            synth_config(embedding={"kind": "raw", "opt": {"standardize": False}})

    def test_unknown_embedding_opts_key_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown embedding.opts keys: \['standardise'\]"):
            synth_config(embedding={"kind": "raw", "opts": {"standardise": False}})

    def test_missing_csv_rejected(self):
        with pytest.raises(ConfigError, match="not found"):
            ExperimentConfig.from_dict(
                {"data": {"csv": {"path": "/nonexistent.csv", "label_column": "y"}}})

    @pytest.mark.parametrize("key, value, message", [
        ("clustering", {"k": "eight"}, "clustering.k must be an int, not 'eight'"),
        ("clustering", {"k": 0}, "clustering.k must be positive, not 0"),
        ("clustering", {"k": True}, "clustering.k must be an int, not True"),
        ("clustering", {"method": "dbscan"}, "clustering.method must be one of "
                                             "['kmeans', 'agglomerative'], not 'dbscan'"),
        ("clustering", {"elbow": [1, 6, 1]}, "clustering.elbow: elbow grid must be"),
        ("model", {"gbt": {"learning_rate": -1.0}}, "model.gbt: learning_rate must be positive"),
        ("model", {"external_scores": 3}, "model.external_scores must be a string, not 3"),
        ("data", {"synthetic": {"n_subpops": 1}}, "data.synthetic needs keys: "
                                                  "['samples_per_subpop']"),
        ("data", {"synthetic": {"n_subpops": 1, "samples_per_subpop": 9, "base_rates": [1.5],
                                "miscal_offsets": [0.0]}},
         "data.synthetic: base rates must be in (0, 1)"),
        ("data", {"synthetic": {"n_subpops": 1, "samples_per_subpop": 9,
                                "base_rates": ["a"]}},
         "data.synthetic.base_rates must be a list of floats"),
        ("split_ratios", [0.5, 0.5, 0.5], "split_ratios: ratios sum to 1.5, expected 1"),
        ("embedding", {"kind": "external"}, "embedding.kind 'external' needs embedding.path"),
        ("embedding", {"kind": "external", "path": "/nonexistent.csv"},
         "embedding.path: file not found: /nonexistent.csv"),
        ("model", {"external_scores": "/nonexistent.csv"},
         "model.external_scores: file not found: /nonexistent.csv"),
        ("embedding", {"opts": {"standardize": 1}}, "embedding.opts.standardize must be a "
                                                    "boolean, not 1"),
        ("rejection_thresholds", [0.5, float("nan")], "rejection_thresholds: values must be "
                                                      "finite"),
        ("model", {"synthetic_scores": {"x": 1}}, "unknown model.synthetic_scores keys: ['x']"),
        ("out", 3, "out must be a string, not 3"),
        ("model", {"gbt": {"min_child_weight": float("nan")}},
         "model.gbt.min_child_weight must be finite, not nan"),
        ("model", {"gbt": {"learning_rate": float("-inf")}},
         "model.gbt.learning_rate must be finite, not -inf"),
        ("split_ratios", [0.6, float("nan"), 0.2], "split_ratios: values must be finite"),
        ("clustering", {"elbow": [2, 3, 1]}, "clustering.elbow: elbow grid must be (k_min >= 2, "
                                             "k_max, step >= 1) with at least 3 grid points"),
        ("clustering", {"elbow": [5, 3, 1]}, "clustering.elbow: elbow grid must be"),
        ("ccl_opts", {"min_fit_size": -5}, "ccl_opts.min_fit_size must be >= 0, not -5"),
        ("clustering", {"k": 3, "min_cluster_size": -3},
         "clustering.min_cluster_size must be >= 0, not -3"),
        ("rejection_thresholds", [], "rejection_thresholds: values must be aligned, non-empty "
                                     "1-D arrays"),
        ("out", "", "an output directory is required"),
    ])
    def test_bad_value_names_its_key(self, key, value, message):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict(synth_dict(**{key: value}))
        assert str(info.value).startswith(message)

    def test_an_elbow_grid_past_any_data_size_is_valid(self):
        # k_max stops at the number of rows; a grid this long has no len()
        cfg = synth_config(clustering={"method": "kmeans", "elbow": [5, 10**400, 5]})
        assert cfg.clustering.elbow == (5, 10**400, 5)

    def test_absent_sections_take_their_defaults(self):
        cfg = ExperimentConfig.from_dict({"data": synth_dict()["data"]})
        assert (cfg.model.gbt, cfg.embedding.kind) == (GBTParams(), "shap")
        assert (cfg.clustering.method, cfg.clustering.k) == ("kmeans", 10)
        assert cfg.ccl_opts.min_fit_size == DEFAULT_MIN_FIT_SIZE
        # a given clustering section without k picks k on the elbow grid
        assert synth_config(clustering={"method": "kmeans"}).clustering.elbow == (5, 100, 5)

    def test_sections_are_frozen(self):
        cfg = synth_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.clustering.k = 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 1

    def test_config_hash_stable_and_seed_sensitive(self):
        a, b = synth_config(seed=1), synth_config(seed=1)
        assert a.config_hash() == b.config_hash()
        assert synth_config(seed=2).config_hash() != a.config_hash()
        # the output directory is not part of the hashed payload
        assert a.config_hash() == synth_config(seed=1, out="/tmp/x").config_hash()

    def test_config_hash_covers_every_field_but_out(self):
        d = synth_dict()
        base = ExperimentConfig.from_dict(d).config_hash()
        assert sorted(OTHER_VALUES) == sorted(f.name for f in dataclasses.fields(ExperimentConfig)
                                              if f.init)
        for key, value in OTHER_VALUES.items():
            changed = ExperimentConfig.from_dict({**d, key: value}).config_hash()
            assert (changed == base) == (key == "out"), key

    def test_config_hash_pins(self):
        # the hash covers the parsed config, its defaults filled in, but out
        golden = ExperimentConfig.from_json_file(str(GOLDEN_CONFIG))
        assert golden.config_hash() == (
            "cae4efb11b4b70a966b3b27c0d627d46b36ab3989eb6a02b373bcc198ed4af3f")
        for name, digest in HASHES.items():
            assert ExperimentConfig.from_dict(workloads.config(name, 0)).config_hash() == digest
        # a config that gives only its data hashes every top-level default
        minimal = {"data": {"synthetic": {"n_subpops": 2, "samples_per_subpop": 50}}}
        assert ExperimentConfig.from_dict(minimal).config_hash() == (
            "e3064538d70ce88108616d83efd8a89b6e450c546b364fb3bcabb618bcdd48b2")

    # each list: edits of the golden config (None drops the key) that parse to one config
    @pytest.mark.parametrize("spellings", [
        [{"clustering": None}, {"clustering": {"k": 10}},
         {"clustering": {"method": "kmeans", "k": 10, "elbow": [5, 100, 5],
                         "min_cluster_size": 0}}],
        [{}, {"metric_opts": {"n_bins": 10}}],
        [{}, {"model": {"gbt": {"n_trees": 6, "max_depth": 3, "lambda_l2": 1}}},
         {"model": {"gbt": {"n_trees": 6, "max_depth": 3, "lambda_l2": 1.0}}}],
    ], ids=["clustering", "metric_opts", "int-for-float"])
    def test_equal_parsed_configs_hash_equal(self, spellings):
        golden = json.loads(GOLDEN_CONFIG.read_text())
        cfgs = [ExperimentConfig.from_dict({k: v for k, v in {**golden, **s}.items()
                                            if v is not None}) for s in spellings]
        assert all(cfg == cfgs[0] for cfg in cfgs)
        assert {cfg.config_hash() for cfg in cfgs} == {cfgs[0].config_hash()}

    def test_a_replaced_config_runs_and_hashes_as_parsed(self):
        cfg = dataclasses.replace(synth_config(), seed=4)
        report = run_experiment(cfg)
        parsed = ExperimentConfig.from_dict(synth_dict(), seed=4)
        assert report.provenance == {"config_hash": parsed.config_hash(), "seed": 4}


# config_hash of each perfbench workload's input 0
HASHES = {
    "shap_d4": "722a540e951cf2d9d0d05a442d08c5a07df8b5d63cf56eb9d47012fd57a34898",
    "shap_d8": "68ef1e09e87eb847bad6d36bba98e6d9bbf8b007d42b37bd1e4371614c924079",
    "gbt_raw": "98b760fa74803d32fe54c81bff3d7f78bf47a889f94fa2c40a9107c9b70c1bcf",
    "elbow_k": "13982bcf072f9636e7499a034fd88acf820fa7f1cae9be6650c044c0222c2701",
}


def _vectors_file(tmp_path):
    path = tmp_path / "vectors.csv"
    path.write_text("0.0,1.0\n1.0,0.0\n")
    return {"embedding": {"kind": "external", "path": str(path)}}


def _scores_file(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("sample_id,margin\na,0.5\nb,-0.5\n")
    return {"model": {"external_scores": str(path)}}


# stage -> config overrides, given a scratch directory, that pass the config
# checks and make the stage fail
STAGE_FAILURES = {
    "clustering": lambda tmp_path: {"clustering": {"method": "kmeans", "k": 10_000}},
    "embedding": _vectors_file,
    "model": _scores_file,
}


class TestRunExperiment:
    def test_report_structure(self):
        report = run_experiment(synth_config())
        variants = [r["variant"] for r in report.rows]
        assert variants == ["base", "platt_unified", "platt_ccl",
                            "temperature_unified", "temperature_ccl"]
        for row in report.rows:
            for col in METRIC_COLUMNS:
                assert np.isfinite(row[col])
        assert set(report.improved_fractions) == {"platt", "temperature"}
        assert report.cluster_diagnostics["k"] == 3
        assert report.provenance["config_hash"]

    def test_nonparametric_methods_have_no_ccl_row(self):
        report = run_experiment(synth_config(methods=("platt", "isotonic")))
        variants = [r["variant"] for r in report.rows]
        assert "isotonic_unified" in variants
        assert "isotonic_ccl" not in variants

    def test_deterministic_artifacts(self, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        run_experiment(synth_config(out=out_a))
        run_experiment(synth_config(out=out_b))
        names = sorted(os.listdir(out_a))
        assert names == sorted(os.listdir(out_b))
        for name in names:
            with open(os.path.join(out_a, name), "rb") as fa, \
                 open(os.path.join(out_b, name), "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_report_self_consistency_from_csv(self, tmp_path):
        out = str(tmp_path / "run")
        report = run_experiment(synth_config(out=out))
        clusters = {}
        with open(os.path.join(out, "eval_report.json")) as fh:
            persisted = json.load(fh)
        assert persisted["rows"] == json.loads(json.dumps(_jsonable(report)))["rows"]
        table = np.genfromtxt(os.path.join(out, "calibrated_scores.csv"), delimiter=",",
                              names=True, ndmin=1)
        y = table["label"].astype(int)
        for row in report.rows:
            p = table[row["variant"]]
            assert ece(p, y, 10)[0] == pytest.approx(row["ECE"], abs=1e-12)
            assert auc(p, y) == pytest.approx(row["AUC"], abs=1e-12)

    @pytest.mark.parametrize("metric_opts", [
        None, {"n_bins": 7, "scheme": "equal_mass", "cece_base": "adaece"}])
    def test_rows_equal_the_public_metrics_one_by_one(self, metric_opts):
        d = json.loads(GOLDEN_CONFIG.read_text())
        if metric_opts:
            d["metric_opts"] = metric_opts
        cfg = ExperimentConfig.from_dict(d)
        met = cfg.metric_opts
        r = run_stages(cfg)
        y_te = r.ds.labels[r.splits.test]
        assert [row["variant"] for row in r.report.rows] == list(r.calibrated)
        for row in r.report.rows:
            p = r.calibrated[row["variant"]]
            want = {"CECE": cece(p, y_te, r.te_clusters, met.cece_base)[0],
                    "ECE": ece(p, y_te, met.n_bins, met.scheme)[0],
                    "MCE": mce(p, y_te, met.n_bins, met.scheme)[0],
                    "AdaECE": ada_ece(p, y_te, min(met.n_bins, len(p)))[0],
                    "AUC": auc(p, y_te), **scalar_metrics(p, y_te)}
            assert {c: row[c] for c in METRIC_COLUMNS} == want
            bins = r.bins[row["variant"]]
            want_bins = ece(p, y_te, met.n_bins, met.scheme)[1]
            for field in ("counts", "obs_rate", "mean_pred"):
                assert getattr(bins, field).tolist() == getattr(want_bins, field).tolist()

    def test_improved_fractions_use_the_report_bins(self):
        r = run_stages(synth_config(methods=("platt", "beta"), metric_opts={"n_bins": 5}))
        y_te = r.ds.labels[r.splits.test]

        def improved(m, n_bins):
            return improved_sample_fraction(r.calibrated[f"{m}_ccl"], r.calibrated[f"{m}_unified"],
                                            r.te_clusters, y_te, n_bins)
        assert r.report.improved_fractions == {m: improved(m, 5) for m in ("platt", "beta")}
        assert improved("platt", 5) != improved("platt", 10)  # so the bin count shows

    def test_improved_fractions_use_the_report_scheme(self):
        r = run_stages(synth_config(methods=("platt", "beta"),
                                    metric_opts={"n_bins": 5, "scheme": "equal_mass"}))
        y_te = r.ds.labels[r.splits.test]

        def improved(m, scheme):
            return improved_sample_fraction(r.calibrated[f"{m}_ccl"], r.calibrated[f"{m}_unified"],
                                            r.te_clusters, y_te, 5, scheme)
        assert r.report.improved_fractions == {
            m: improved(m, "equal_mass") for m in ("platt", "beta")}
        assert improved("platt", "equal_mass") != improved("platt", "equal_width")

    def test_ensembles_reuse_the_unified_calibrator_as_fallback(self):
        methods = ("platt", "temperature", "beta", "dirichlet2", "isotonic")
        r = run_stages(synth_config(methods=methods), "calibrate")
        assert sorted(r.ccl) == sorted(methods[:4])
        for method, ccl in r.ccl.items():
            assert ccl.fallback is r.unified[method]

    def test_elbow_path(self):
        cfg = synth_config(clustering={"method": "kmeans", "elbow": [2, 6, 1]},
                           methods=("platt",))
        report = run_experiment(cfg)
        assert report.cluster_diagnostics["elbow_curve"] is not None
        assert report.cluster_diagnostics["k"] >= 2

    def test_elbow_path_reuses_the_chosen_model(self, monkeypatch):
        import clustercal.harness as harness

        def refit(*args, **kwargs):
            raise AssertionError("the elbow's chosen k was fitted again")
        monkeypatch.setattr(harness, "fit_kmeans", refit)
        cfg = synth_config(clustering={"method": "kmeans", "elbow": [2, 6, 1]},
                           methods=("platt",))
        report = run_experiment(cfg)
        assert report.cluster_diagnostics["k"] >= 2

    @pytest.mark.parametrize("stage", STAGE_FAILURES)
    def test_stage_error_names_stage(self, stage, tmp_path):
        cfg = synth_config(**STAGE_FAILURES[stage](tmp_path))
        with pytest.raises(StageError, match=f"stage '{stage}' failed"):
            run_experiment(cfg)


class TestPairedResampleTest:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.p = rng.uniform(0.05, 0.95, 300)
        self.y = (rng.uniform(size=300) < self.p).astype(int)

    def test_identical_scores_degenerate(self):
        res = paired_resample_test(self.p, self.p, self.y, "ece", seed=1)
        assert res.t_stat == 0.0
        assert res.p_one_sided == 1.0
        assert res.p_two_sided == 1.0

    def test_swap_symmetry(self):
        b = np.clip(self.p + 0.05, 0.01, 0.99)
        r1 = paired_resample_test(self.p, b, self.y, "ece", seed=2)
        r2 = paired_resample_test(b, self.p, self.y, "ece", seed=2)
        assert r1.t_stat == pytest.approx(-r2.t_stat, abs=1e-12)
        assert r1.p_two_sided == pytest.approx(r2.p_two_sided, abs=1e-12)

    def test_detects_clear_improvement(self):
        worse = np.full_like(self.p, 0.5)  # uninformative model
        res = paired_resample_test(self.p, worse, self.y, "brier", seed=3)
        assert res.p_one_sided < 1e-3  # H1: metric(a) < metric(b)

    def test_resamples_on_undefined_metric(self):
        # tiny fraction makes single-class AUC subsamples likely
        y = np.r_[np.ones(5, dtype=int), np.zeros(295, dtype=int)]
        res = paired_resample_test(self.p, np.clip(self.p + 0.01, 0.01, 0.99),
                                   y, "auc", fraction=0.02, seed=4)
        assert res.resampled_iterations > 0
        assert np.isfinite(res.t_stat)

    def test_validation(self):
        with pytest.raises(ValueError):
            paired_resample_test(self.p, self.p[:-1], self.y[:-1], "ece")
        with pytest.raises(ConfigError):
            paired_resample_test(self.p, self.p, self.y, "ece", fraction=0.0)
        with pytest.raises(ConfigError):
            paired_resample_test(self.p, self.p, self.y, "ece", iterations=1)
        with pytest.raises(ConfigError):
            paired_resample_test(self.p, self.p, self.y, "f1")

    def test_rejects_nan_scores(self):
        a = self.p.copy()
        a[7] = np.nan
        with pytest.raises(ValueError, match="scores_a must be finite"):
            paired_resample_test(a, self.p, self.y, "ece")

    @pytest.mark.parametrize("bad", [1.5, -0.1, np.inf])
    def test_rejects_probabilities_outside_unit_interval(self, bad):
        b = self.p.copy()
        b[3] = bad
        with pytest.raises(ValueError, match="scores_b must be finite"):
            paired_resample_test(self.p, b, self.y, "ece")

    @pytest.mark.parametrize("metric", ["ece", "auc"])
    def test_rejects_non_binary_labels(self, metric):
        y = self.y * 2
        with pytest.raises(ValueError, match="y must hold 0/1 labels"):
            paired_resample_test(self.p, self.p, y, metric)


def fake_report(rows):
    full = []
    for r in rows:
        row = {c: 0.0 for c in METRIC_COLUMNS}
        row.update(r)
        row.setdefault("method", row["variant"])
        full.append(row)
    return EvalReport(full, {}, {}, {})


class TestSelectModel:
    def test_argmin_with_tie_rules(self):
        report = fake_report([
            {"variant": "a", "CECE": 0.2, "ECE": 0.1, "AUC": 0.9},
            {"variant": "b", "CECE": 0.1, "ECE": 0.2, "AUC": 0.8},
            {"variant": "c", "CECE": 0.1, "ECE": 0.3, "AUC": 0.85},
        ])
        out = select_model(report)
        assert out["selected"] == "c"  # CECE tie broken by higher AUC
        assert out["ece_selected"] == "a"
        assert out["ece_disagrees"]

    def test_name_tiebreak(self):
        report = fake_report([
            {"variant": "zeta", "CECE": 0.1, "AUC": 0.8},
            {"variant": "alpha", "CECE": 0.1, "AUC": 0.8},
        ])
        assert select_model(report)["selected"] == "alpha"

    def test_violations_logged(self):
        report = fake_report([
            {"variant": "low_cece", "CECE": 0.1, "AUC": 0.7},
            {"variant": "high_cece", "CECE": 0.3, "AUC": 0.9},
        ])
        out = select_model(report)
        assert out["selected"] == "low_cece"
        assert out["auc_ordering_violations"] == ["high_cece"]

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            select_model(fake_report([{"variant": "only", "CECE": 0.1}]))
        with pytest.raises(ValueError):
            select_model(fake_report([{"variant": "a"}, {"variant": "b"}]), "F1")

    @pytest.mark.parametrize("column", ["CECE", "AUC", "ECE"])
    def test_non_finite_value_is_rejected_in_any_row_order(self, column):
        rows = [{"variant": "a", column: float("nan")}, {"variant": "b"}]
        for ordered in (rows, rows[::-1]):
            with pytest.raises(ValueError, match=f"variant 'a': {column} is nan"):
                select_model(fake_report(ordered))

    @pytest.mark.parametrize("criterion", ["AUC", "ACC", "F1"])
    def test_criterion_must_be_lower_is_better(self, criterion):
        # minimizing AUC or ACC on the golden report would pick its least discriminating rows
        report = _read_json(EvalReport, ROOT / "tests" / "golden" / "report" / "eval_report.json")
        with pytest.raises(ValueError) as exc:
            select_model(report, criterion)
        assert str(exc.value) == ("criterion must be one of ['CECE', 'ECE', 'MCE', 'AdaECE', "
                                  f"'CE', 'MSE_brier', 'RMSE'], not {criterion!r}")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)),
        min_size=2, max_size=8))
    def test_selected_minimizes_criterion(self, vals):
        rows = [{"variant": f"v{i}", "CECE": c, "AUC": a}
                for i, (c, a) in enumerate(vals)]
        out = select_model(fake_report(rows))
        best = min(r["CECE"] for r in rows)
        assert out["row"]["CECE"] == best


class TestRejectionSelection:
    def test_winners_per_threshold(self):
        y = np.array([0, 0, 1, 1])
        models = {"good": np.array([0.1, 0.2, 0.8, 0.9]),
                  "bad": np.array([0.9, 0.8, 0.2, 0.1])}
        rows = rejection_selection(models, y, [1.0])
        assert rows[0]["winners"] == ["good"]
        assert rows[0]["errors"]["bad"] == 1.0

    def test_needs_two_models(self):
        with pytest.raises(ValueError):
            rejection_selection({"only": np.array([0.5])}, np.array([1]))
