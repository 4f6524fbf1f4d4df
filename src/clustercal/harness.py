"""End-to-end experiment orchestration: unified vs clustered calibration
comparison tables, paired resampling significance tests, cluster-metric
model selection, rejection sweeps, and deterministic artifact output."""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import t as student_t

from . import calibrators as cal_mod
from .calibrators import Calibrator, FitData, PARAMETRIC_METHODS
from .data import Dataset, SyntheticSpec, gen_synthetic_full, load_csv, split
from .ensemble import ClusteredCalibrator, improved_sample_fraction, train_clustered
from .gbt import GBTParams, TreeEnsemble, fit_gbt, predict
from .metrics import ada_ece, auc, cece, ece, mce, rejection_curve, scalar_metrics
from .representation import (
    EmbeddingMatrix, build_embedding, assign, diagnostics,
    fit_agglomerative, fit_kmeans, select_k_elbow,
)
from .scores import ScoreSet, load_external_scores

__all__ = [
    "ExperimentConfig",
    "EvalReport",
    "PairedTestResult",
    "run_experiment",
    "paired_resample_test",
    "select_model",
    "rejection_selection",
]

METRIC_COLUMNS = ("CECE", "ECE", "MCE", "AdaECE", "AUC", "ACC", "CE", "MSE_brier", "RMSE")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class StageError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


@dataclass
class ExperimentConfig:
    data: dict                      # {"csv": {...}} or {"synthetic": {...}}
    model: dict = field(default_factory=lambda: {"gbt": {}})
    split_ratios: tuple = (0.6, 0.2, 0.2)
    stratify: bool = True
    embedding: dict = field(default_factory=lambda: {"kind": "shap", "opts": {}})
    clustering: dict = field(default_factory=lambda: {"method": "kmeans", "k": 10})
    methods: tuple = PARAMETRIC_METHODS
    metric_opts: dict = field(default_factory=dict)   # n_bins, scheme, cece_base
    ccl_opts: dict = field(default_factory=dict)      # min_fit_size, fit_opts
    rejection_thresholds: tuple = tuple(round(0.1 * i, 1) for i in range(10))
    seed: int = 0
    out: str | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**d)
        cfg.validate()
        return cfg

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def validate(self) -> None:
        if sum(k in self.data for k in ("csv", "synthetic")) != 1:
            raise ConfigError("config needs exactly one data source: csv or synthetic")
        if "csv" in self.data and not os.path.exists(self.data["csv"]["path"]):
            raise ConfigError(f"data file not found: {self.data['csv']['path']}")
        if not self.methods:
            raise ConfigError("methods list must be non-empty")
        bad = [m for m in self.methods if m not in cal_mod.ALL_METHODS]
        if bad:
            raise ConfigError(f"unknown calibration methods: {bad}")
        src = sum(k in self.model for k in ("gbt", "external_scores", "synthetic_scores"))
        if src != 1:
            raise ConfigError("model needs exactly one of gbt / external_scores / synthetic_scores")
        if "synthetic_scores" in self.model and "synthetic" not in self.data:
            raise ConfigError("synthetic_scores requires a synthetic data source")
        if self.clustering.get("method", "kmeans") not in ("kmeans", "agglomerative"):
            raise ConfigError(f"unknown clustering method {self.clustering.get('method')!r}")

    def canonical(self) -> dict:
        return {
            "data": self.data, "model": self.model,
            "split_ratios": list(self.split_ratios), "stratify": self.stratify,
            "embedding": self.embedding, "clustering": self.clustering,
            "methods": list(self.methods), "metric_opts": self.metric_opts,
            "ccl_opts": self.ccl_opts,
            "rejection_thresholds": list(self.rejection_thresholds),
            "seed": self.seed,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass
class EvalReport:
    rows: list                      # per-variant metric dicts
    cluster_diagnostics: dict
    improved_fractions: dict        # method -> fraction
    provenance: dict

    def to_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cluster_diagnostics": self.cluster_diagnostics,
            "improved_fractions": self.improved_fractions,
            "provenance": self.provenance,
        }

    def row(self, variant: str) -> dict:
        for r in self.rows:
            if r["variant"] == variant:
                return r
        raise KeyError(variant)


@dataclass
class PairedTestResult:
    metric: str
    differences: np.ndarray
    t_stat: float
    dof: int
    p_one_sided: float
    p_two_sided: float
    resampled_iterations: int = 0


# pipeline stages ---------------------------------------------------------

def _stage(name):
    def deco(fn):
        def wrapped(*a, **kw):
            try:
                return fn(*a, **kw)
            except (ConfigError, StageError):
                raise
            except Exception as exc:
                raise StageError(f"stage {name!r} failed: {exc}") from exc
        return wrapped
    return deco


@_stage("data")
def _load_data(cfg: ExperimentConfig):
    if "csv" in cfg.data:
        spec = dict(cfg.data["csv"])
        path = spec.pop("path")
        return load_csv(path, **spec), None, None
    ds, margins, sub = gen_synthetic_full(SyntheticSpec(**cfg.data["synthetic"]))
    return ds, margins, sub


@_stage("model")
def _fit_model(cfg: ExperimentConfig, ds: Dataset, tr_idx, synth_margins):
    if "gbt" in cfg.model:
        ens = fit_gbt(Dataset(ds.features[tr_idx], ds.labels[tr_idx],
                              ds.feature_names, tuple(ds.sample_ids[i] for i in tr_idx)),
                      GBTParams(**cfg.model["gbt"]))
        return ens, predict(ens, ds.features)
    if "external_scores" in cfg.model:
        return None, load_external_scores(cfg.model["external_scores"],
                                          expected_ids=ds.sample_ids)
    return None, ScoreSet.from_margins(synth_margins, source="external")


@_stage("embedding")
def _embed(cfg: ExperimentConfig, ens, ds: Dataset):
    kind = cfg.embedding.get("kind", "shap" if ens is not None else "raw")
    opts = dict(cfg.embedding.get("opts", {}))
    if kind == "external":
        opts["vectors"] = np.loadtxt(cfg.embedding["path"], delimiter=",", ndmin=2)
    return build_embedding(kind, ens, ds, opts)


@_stage("clustering")
def _cluster(cfg: ExperimentConfig, E: EmbeddingMatrix, fit_idx):
    sub = EmbeddingMatrix(E.kind, E.vectors[fit_idx])
    method = cfg.clustering.get("method", "kmeans")
    k = cfg.clustering.get("k")
    if k is None:
        grid = tuple(cfg.clustering.get("elbow", (5, 100, 5)))
        return select_k_elbow(sub, grid, cfg.seed,
                              cfg.clustering.get("min_cluster_size", 0), method)
    cm = (fit_kmeans(sub, int(k), cfg.seed) if method == "kmeans"
          else fit_agglomerative(sub, int(k)))
    return cm, None


def _eval_variant(p, y, cluster_labels, mopts) -> dict:
    n_bins = int(mopts.get("n_bins", 10))
    scheme = mopts.get("scheme", "equal_width")
    base = mopts.get("cece_base", "ece")
    out = {}
    out["CECE"] = cece(p, y, cluster_labels, base)[0]
    out["ECE"] = ece(p, y, n_bins, scheme)[0]
    out["MCE"] = mce(p, y, n_bins, scheme)[0]
    out["AdaECE"] = ada_ece(p, y, min(n_bins, len(p)))[0]
    out["AUC"] = auc(p, y)[0]
    out.update(scalar_metrics(p, y))
    return out


def run_experiment(cfg: ExperimentConfig) -> EvalReport:
    """Full pipeline: split, model, embed, cluster, calibrate, evaluate.

    Deterministic given config and seed. When ``cfg.out`` is set, all
    artifacts are persisted there; nothing is written on failure.
    """
    cfg.validate()
    ds, synth_margins, _ = _load_data(cfg)
    splits = split(ds, cfg.split_ratios, cfg.seed, cfg.stratify)
    ens, scores = _fit_model(cfg, ds, splits.train, synth_margins)
    E = _embed(cfg, ens, ds)
    fit_idx = np.sort(np.concatenate([splits.train, splits.calibration]))
    cm, elbow_curve = _cluster(cfg, E, fit_idx)

    cal_idx, te_idx = splits.calibration, splits.test
    y = ds.labels
    cal_scores, te_scores = scores.take(cal_idx), scores.take(te_idx)
    cal_E = E.vectors[cal_idx]
    te_E = E.vectors[te_idx]
    te_clusters = assign(cm, te_E)
    cal_data = FitData.from_scores(cal_scores, y[cal_idx])

    mopts = cfg.metric_opts
    rows = [dict(method="base", variant="base",
                 **_eval_variant(scores.probabilities[te_idx], y[te_idx], te_clusters, mopts))]
    calibrated = {"base": scores.probabilities[te_idx]}
    unified_models: dict[str, Calibrator] = {}
    ccl_models: dict[str, ClusteredCalibrator] = {}
    improved = {}
    try:
        for method in cfg.methods:
            uni = cal_mod.fit(method, cal_data, cfg.ccl_opts.get("fit_opts"))
            unified_models[method] = uni
            p_uni = uni.apply(te_scores)
            calibrated[f"{method}_unified"] = p_uni
            rows.append(dict(method=method, variant=f"{method}_unified",
                             **_eval_variant(p_uni, y[te_idx], te_clusters, mopts)))
            if method in PARAMETRIC_METHODS:
                ccl = train_clustered(cal_scores, EmbeddingMatrix(E.kind, cal_E),
                                      cm, method, y[cal_idx], cfg.ccl_opts)
                ccl_models[method] = ccl
                p_ccl, labels_ccl = ccl.infer(te_scores, te_E)
                assert (labels_ccl == te_clusters).all()
                calibrated[f"{method}_ccl"] = p_ccl
                rows.append(dict(method=method, variant=f"{method}_ccl",
                                 **_eval_variant(p_ccl, y[te_idx], te_clusters, mopts)))
                improved[method] = improved_sample_fraction(
                    ccl, uni, te_scores, EmbeddingMatrix(E.kind, te_E), y[te_idx])
    except (ConfigError, StageError):
        raise
    except Exception as exc:
        raise StageError(f"stage 'calibrate' failed: {exc}") from exc

    diag = diagnostics(cm, assign(cm, E.vectors[fit_idx]), y[fit_idx])
    report = EvalReport(
        rows=rows,
        cluster_diagnostics={
            "size_variance": diag.size_variance,
            "label_rate_variance": diag.label_rate_variance,
            "homogeneity_fraction": diag.homogeneity_fraction,
            "k": cm.k,
            "elbow_curve": elbow_curve,
        },
        improved_fractions=improved,
        provenance={"config_hash": cfg.config_hash(), "seed": cfg.seed},
    )
    if cfg.out:
        _persist(cfg, report, ds, splits, ens, cm, diag, scores,
                 calibrated, unified_models, ccl_models, te_idx, y)
    return report


# persistence -------------------------------------------------------------

def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            fh.write(",".join(str(v) if isinstance(v, (int, str)) else _fmt(v)
                              for v in r) + "\n")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _persist(cfg, report, ds, splits, ens, cm, diag, scores,
             calibrated, unified_models, ccl_models, te_idx, y):
    out = cfg.out
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "eval_report.json"), report.to_dict())
    _write_json(os.path.join(out, "clusters.json"), cm.to_dict())
    if ens is not None:
        _write_json(os.path.join(out, "ensemble.json"), ens.to_dict())
    for method, ccl in ccl_models.items():
        _write_json(os.path.join(out, f"ccl_{method}.json"), ccl.to_dict())
    for method, cal in unified_models.items():
        _write_json(os.path.join(out, f"unified_{method}.json"), cal.to_dict())

    _write_csv(os.path.join(out, "metrics.csv"),
               ("variant", "method") + METRIC_COLUMNS,
               [[r["variant"], r["method"]] + [r[c] for c in METRIC_COLUMNS]
                for r in report.rows])
    _write_csv(os.path.join(out, "clusters.csv"),
               ("cluster_id", "size", "positive_rate", "centroid_norm"),
               [[row["cluster"], row["size"], row["positive_rate"],
                 float(np.linalg.norm(cm.centroids[row["cluster"]]))]
                for row in diag.table])

    te_ids = [ds.sample_ids[i] for i in te_idx]
    rej_rows = []
    for variant, p in sorted(calibrated.items()):
        _write_csv(os.path.join(out, f"calibrated_scores_{variant}.csv"),
                   ("sample_id", "probability", "label"),
                   [[sid, pi, int(yi)] for sid, pi, yi in zip(te_ids, p, y[te_idx])])
        mopts = cfg.metric_opts
        _, stats = ece(p, y[te_idx], int(mopts.get("n_bins", 10)),
                       mopts.get("scheme", "equal_width"))
        _write_csv(os.path.join(out, f"bins_{variant}.csv"),
                   ("bin", "count", "obs_rate", "mean_pred"),
                   [[b["bin"], b["count"], b["obs_rate"], b["mean_pred"]]
                    for b in stats.as_rows()])
        curve = rejection_curve(p, y[te_idx], np.asarray(cfg.rejection_thresholds))
        for t, acc_n, err, rej in zip(curve.thresholds, curve.accepted,
                                      curve.error_rate, curve.rejection_rate):
            rej_rows.append([variant, t, int(acc_n), err, rej])
    _write_csv(os.path.join(out, "rejection.csv"),
               ("variant", "threshold", "accepted", "error_rate", "rejection_rate"),
               rej_rows)


# analysis ----------------------------------------------------------------

def paired_resample_test(scores_a, scores_b, y, metric="ece", fraction: float = 0.3,
                         iterations: int = 30, seed: int = 0,
                         n_bins: int = 10) -> PairedTestResult:
    """Paired t-test over repeated metric evaluations on common subsamples.

    Each iteration draws floor(fraction*N) test indices without replacement
    (seeded per iteration), evaluates the metric for both score sets on the
    same subsample, and records the difference a - b. Iterations where the
    metric is undefined (e.g. single-class AUC) are redrawn with an offset
    seed and counted. Note: subsamples overlap, so the independence
    assumption behind the t-test is only approximate.
    """
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    y = np.asarray(y)
    if not (a.shape == b.shape == y.shape):
        raise ValueError("inputs must be aligned")
    if not 0 < fraction <= 1:
        raise ConfigError("fraction must be in (0, 1]")
    if iterations < 2:
        raise ConfigError("need at least 2 iterations")
    if metric not in ("ece", "adaece", "auc", "brier"):
        raise ConfigError(f"unknown test metric {metric!r}")

    def metric_fn(p, yy):
        if metric == "ece":
            return ece(p, yy, n_bins)[0]
        if metric == "adaece":
            return ada_ece(p, yy, min(n_bins, len(p)))[0]
        if metric == "auc":
            return auc(p, yy)[0]
        if metric == "brier":
            return scalar_metrics(p, yy)["MSE_brier"]
        raise ConfigError(f"unknown test metric {metric!r}")

    m = max(1, int(math.floor(fraction * len(y))))
    diffs = np.empty(iterations)
    resampled = 0
    for i in range(iterations):
        offset = 0
        while True:
            rng = np.random.default_rng(seed + i + offset * 1_000_003)
            idx = rng.choice(len(y), size=m, replace=False)
            try:
                diffs[i] = metric_fn(a[idx], y[idx]) - metric_fn(b[idx], y[idx])
                break
            except ValueError:
                offset += 1
                resampled += 1
                if offset > 100:
                    raise StageError(f"metric {metric!r} undefined on all resamples")
    sd = float(np.std(diffs, ddof=1))
    dof = iterations - 1
    if sd == 0.0:
        t_stat = 0.0
        p_one, p_two = (1.0, 1.0)
    else:
        t_stat = float(np.mean(diffs) / (sd / math.sqrt(iterations)))
        p_one = float(student_t.cdf(t_stat, dof))       # H1: mean(a - b) < 0
        p_two = float(2 * student_t.sf(abs(t_stat), dof))
    return PairedTestResult(metric, diffs, t_stat, dof, p_one, p_two, resampled)


def select_model(report: EvalReport, criterion: str = "CECE") -> dict:
    """Pick the report row minimizing the criterion.

    Ties break by higher AUC, then variant name. The result notes when the
    ECE winner differs from the criterion winner, and flags pairs where the
    lower-criterion row does not also have the higher AUC.
    """
    if len(report.rows) < 2:
        raise ValueError("need at least 2 rows to select between")
    if criterion not in METRIC_COLUMNS:
        raise ValueError(f"unknown criterion {criterion!r}")

    def key(row):
        return (row[criterion], -row["AUC"], row["variant"])

    winner = min(report.rows, key=key)
    ece_winner = min(report.rows, key=lambda r: (r["ECE"], -r["AUC"], r["variant"]))
    violations = [
        r["variant"] for r in report.rows
        if r["variant"] != winner["variant"]
        and winner[criterion] < r[criterion] and winner["AUC"] < r["AUC"]
    ]
    return {
        "selected": winner["variant"],
        "criterion": criterion,
        "row": winner,
        "ece_selected": ece_winner["variant"],
        "ece_disagrees": ece_winner["variant"] != winner["variant"],
        "auc_ordering_violations": violations,
    }


def rejection_selection(models: dict, y, thresholds=None) -> list:
    """Per-threshold accepted-set error for each calibrated score set.

    ``models`` maps variant name to test probabilities. Returns rows of
    {threshold, errors: {variant: err}, winners: [lowest-error variants]}.
    """
    if len(models) < 2:
        raise ValueError("need at least 2 models to compare")
    if thresholds is None:
        thresholds = np.arange(0.0, 0.91, 0.1)
    curves = {name: rejection_curve(p, y, thresholds) for name, p in models.items()}
    rows = []
    for i, t in enumerate(np.asarray(thresholds, dtype=np.float64)):
        errors = {name: float(c.error_rate[i]) for name, c in curves.items()}
        best = min(errors.values())
        winners = sorted(n for n, e in errors.items() if e == best)
        rows.append({"threshold": float(t), "errors": errors, "winners": winners})
    return rows
