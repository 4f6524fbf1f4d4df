"""End-to-end experiment orchestration: unified vs clustered calibration
comparison tables, paired resampling significance tests, cluster-metric
model selection, rejection sweeps, and deterministic artifact output."""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy.stats import t as student_t

from . import calibrators as cal_mod
from .calibrators import FitData, PARAMETRIC_METHODS
from .data import (
    DataError, Dataset, SplitIndices, SyntheticSpec, gen_synthetic_full, load_csv, split,
)
from .ensemble import improved_sample_fraction, train_clustered
from .gbt import GBTParams, TreeEnsemble, fit_gbt, predict
from .metrics import (
    _labels, _probabilities, ada_ece, auc, cece, ece, mce, rejection_curve, scalar_metrics,
)
from .representation import (
    ClusterDiagnostics, ClusterModel, EmbeddingMatrix, build_embedding, assign, diagnostics,
    fit_agglomerative, fit_kmeans, select_k_elbow,
)
from .scores import ScoreSet, load_external_scores

__all__ = [
    "ExperimentConfig",
    "EvalReport",
    "PairedTestResult",
    "RunState",
    "STAGES",
    "run_stages",
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
        for name, section, allowed in (
                ("data", self.data, None),
                ("model", self.model, None),
                ("metric_opts", self.metric_opts, {"n_bins", "scheme", "cece_base"}),
                ("ccl_opts", self.ccl_opts, {"min_fit_size", "fit_opts"}),
                ("clustering", self.clustering, {"method", "k", "elbow", "min_cluster_size"}),
                ("embedding", self.embedding, {"kind", "opts", "path"})):
            _check_section(name, section, allowed)
        _check_section("embedding.opts", self.embedding.get("opts", {}),
                       {"standardize", "topk_fraction"})
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
        """Every field but ``out``, the part of the config that shapes the results."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out"}

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _check_section(name: str, section, allowed) -> None:
    """``section`` must be a dict whose keys lie in ``allowed`` (any keys when None)."""
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object, not {type(section).__name__}")
    unknown = set() if allowed is None else set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")


@dataclass
class EvalReport:
    rows: list                      # per-variant metric dicts
    cluster_diagnostics: dict
    improved_fractions: dict        # method -> fraction
    provenance: dict

    def to_dict(self) -> dict:
        return asdict(self)

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

@dataclass
class RunState:
    """Everything the stages have computed so far; each stage fills its fields."""

    cfg: ExperimentConfig
    ds: Dataset | None = None
    synth_margins: np.ndarray | None = None       # synthetic data only
    splits: SplitIndices | None = None
    ens: TreeEnsemble | None = None               # GBT model only
    scores: ScoreSet | None = None
    E: EmbeddingMatrix | None = None
    cm: ClusterModel | None = None
    elbow_curve: list | None = None
    diag: ClusterDiagnostics | None = None
    te_clusters: np.ndarray | None = None
    calibrated: dict = field(default_factory=dict)    # variant -> test probabilities
    unified: dict = field(default_factory=dict)       # method -> Calibrator
    ccl: dict = field(default_factory=dict)           # method -> ClusteredCalibrator
    bins: dict = field(default_factory=dict)          # variant -> BinStats
    rejection: dict = field(default_factory=dict)     # variant -> RejectionCurve
    report: EvalReport | None = None


def _data(r: RunState):
    cfg = r.cfg
    if "csv" in cfg.data:
        spec = dict(cfg.data["csv"])
        r.ds = load_csv(spec.pop("path"), **spec)
    else:
        r.ds, r.synth_margins, _ = gen_synthetic_full(SyntheticSpec(**cfg.data["synthetic"]))
    r.splits = split(r.ds, cfg.split_ratios, cfg.seed, cfg.stratify)


def _model(r: RunState):
    cfg, ds, tr_idx = r.cfg, r.ds, r.splits.train
    if "gbt" in cfg.model:
        r.ens = fit_gbt(Dataset(ds.features[tr_idx], ds.labels[tr_idx], ds.feature_names,
                                tuple(ds.sample_ids[i] for i in tr_idx)),
                        GBTParams(**cfg.model["gbt"]))
        r.scores = predict(r.ens, ds.features)
    elif "external_scores" in cfg.model:
        r.scores = load_external_scores(cfg.model["external_scores"],
                                        expected_ids=ds.sample_ids)
    else:
        r.scores = ScoreSet.from_margins(r.synth_margins)


def _embedding(r: RunState):
    cfg = r.cfg
    kind = cfg.embedding.get("kind", "shap" if r.ens is not None else "raw")
    opts = dict(cfg.embedding.get("opts", {}))
    if kind == "external":
        opts["vectors"] = np.loadtxt(cfg.embedding["path"], delimiter=",", ndmin=2)
    r.E = build_embedding(kind, r.ens, r.ds, opts)


def _clustering(r: RunState):
    cfg = r.cfg
    fit_idx = np.sort(np.concatenate([r.splits.train, r.splits.calibration]))
    sub = EmbeddingMatrix(r.E.kind, r.E.vectors[fit_idx])
    method = cfg.clustering.get("method", "kmeans")
    k = cfg.clustering.get("k")
    if k is None:
        grid = tuple(cfg.clustering.get("elbow", (5, 100, 5)))
        r.cm, r.elbow_curve = select_k_elbow(
            sub, grid, cfg.seed, cfg.clustering.get("min_cluster_size", 0), method)
    elif method == "kmeans":
        r.cm = fit_kmeans(sub, int(k), cfg.seed)
    else:
        r.cm = fit_agglomerative(sub, int(k))
    r.diag = diagnostics(r.cm, assign(r.cm, sub), r.ds.labels[fit_idx])


def _calibrate(r: RunState):
    cfg, y = r.cfg, r.ds.labels
    cal_idx, te_idx = r.splits.calibration, r.splits.test
    te_scores = r.scores.take(te_idx)
    te_E = EmbeddingMatrix(r.E.kind, r.E.vectors[te_idx])
    cal_clusters = assign(r.cm, r.E.vectors[cal_idx])
    r.te_clusters = assign(r.cm, te_E)
    cal_data = FitData.from_scores(r.scores.take(cal_idx), y[cal_idx])
    r.calibrated["base"] = r.scores.probabilities[te_idx]
    for method in cfg.methods:
        uni = r.unified[method] = cal_mod.fit(method, cal_data, cfg.ccl_opts.get("fit_opts"))
        r.calibrated[f"{method}_unified"] = uni.apply(te_scores)
        if method in PARAMETRIC_METHODS:
            ccl = r.ccl[method] = train_clustered(cal_data, cal_clusters, r.cm, method, uni,
                                                  cfg.ccl_opts)
            r.calibrated[f"{method}_ccl"] = ccl.infer(te_scores, te_E)[0]


def _eval_variant(p, y, cluster_labels, n_bins, scheme, base):
    """One report row's metrics, and the ECE bins they were computed from."""
    out = {}
    out["CECE"] = cece(p, y, cluster_labels, base)[0]
    out["ECE"], bins = ece(p, y, n_bins, scheme)
    out["MCE"] = mce(p, y, n_bins, scheme)[0]
    out["AdaECE"] = ada_ece(p, y, min(n_bins, len(p)))[0]
    out["AUC"] = auc(p, y)[0]
    out.update(scalar_metrics(p, y))
    return out, bins


def _evaluate(r: RunState):
    cfg, y_te = r.cfg, r.ds.labels[r.splits.test]
    thresholds = np.asarray(cfg.rejection_thresholds)
    n_bins = int(cfg.metric_opts.get("n_bins", 10))
    scheme = cfg.metric_opts.get("scheme", "equal_width")
    base = cfg.metric_opts.get("cece_base", "ece")
    rows = []
    for variant, p in r.calibrated.items():
        metrics, r.bins[variant] = _eval_variant(p, y_te, r.te_clusters, n_bins, scheme, base)
        # variants are "base", "<method>_unified" and "<method>_ccl"
        rows.append(dict(method=variant.rsplit("_", 1)[0], variant=variant, **metrics))
        r.rejection[variant] = rejection_curve(p, y_te, thresholds)
    r.report = EvalReport(
        rows=rows,
        cluster_diagnostics={
            "size_variance": r.diag.size_variance,
            "label_rate_variance": r.diag.label_rate_variance,
            "homogeneity_fraction": r.diag.homogeneity_fraction,
            "k": r.cm.k,
            "elbow_curve": r.elbow_curve,
        },
        improved_fractions={
            m: improved_sample_fraction(r.calibrated[f"{m}_ccl"], r.calibrated[f"{m}_unified"],
                                        r.te_clusters, y_te, n_bins, scheme)
            for m in r.ccl},
        provenance={"config_hash": cfg.config_hash(), "seed": cfg.seed},
    )


STAGES = (
    ("data", _data),
    ("model", _model),
    ("embedding", _embedding),
    ("clustering", _clustering),
    ("calibrate", _calibrate),
    ("evaluate", _evaluate),
)


def run_stages(cfg: ExperimentConfig, last: str = "evaluate") -> RunState:
    """Run the stages in order up to and including ``last``; write nothing.

    A ``ConfigError`` or ``DataError`` passes through unchanged; any other
    exception becomes a ``StageError`` that names the failing stage.
    """
    if last not in dict(STAGES):
        raise ValueError(f"unknown stage {last!r}")
    cfg.validate()
    r = RunState(cfg)
    for name, stage in STAGES:
        try:
            stage(r)
        except (ConfigError, DataError):
            raise
        except Exception as exc:
            raise StageError(f"stage {name!r} failed: {exc}") from exc
        if name == last:
            break
    return r


def run_experiment(cfg: ExperimentConfig) -> EvalReport:
    """Full pipeline: split, model, embed, cluster, calibrate, evaluate.

    Deterministic given config and seed. When ``cfg.out`` is set, all
    artifacts are persisted there; nothing is written on failure.
    """
    r = run_stages(cfg)
    if cfg.out:
        _persist(r)
    return r.report


# persistence -------------------------------------------------------------

def _write_csv(path, header, columns):
    """Write a CSV file from ``header`` and one list per column.

    Every column holds Python scalars (``ndarray.tolist()``, ids, or ints
    cast beforehand) and has one entry per row. Each cell is written with
    ``str``: a float as its shortest round-trip ``repr`` (``0.1``, ``1.0``,
    ``-0.0``, ``1e-05``, ``nan``), an int without a decimal point, so a
    count column must be passed as ints. Rows are streamed, not joined into
    one string.
    """
    if len(columns) != len(header) or len({len(c) for c in columns}) > 1:
        raise ValueError(f"{path}: need {len(header)} columns of one length")
    row = ",".join(["{}"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(row.format, *columns))


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_clusters(out: str, r: RunState):
    """clusters.json (the cluster model) and clusters.csv (per-cluster table)."""
    _write_json(os.path.join(out, "clusters.json"), r.cm.to_dict())
    table = r.diag.table
    ids = [row["cluster"] for row in table]
    _write_csv(os.path.join(out, "clusters.csv"),
               ("cluster_id", "size", "positive_rate", "centroid_norm"),
               [ids, [row["size"] for row in table], [row["positive_rate"] for row in table],
                [float(np.linalg.norm(r.cm.centroids[j])) for j in ids]])


def _persist(r: RunState):
    out = r.cfg.out
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "eval_report.json"), r.report.to_dict())
    if r.ens is not None:
        _write_json(os.path.join(out, "ensemble.json"), r.ens.to_dict())
    _write_clusters(out, r)
    for method, ccl in r.ccl.items():
        _write_json(os.path.join(out, f"ccl_{method}.json"), ccl.to_dict())
    for method, cal in r.unified.items():
        _write_json(os.path.join(out, f"unified_{method}.json"), cal.to_dict())
    header = ("variant", "method") + METRIC_COLUMNS
    _write_csv(os.path.join(out, "metrics.csv"), header,
               [[row[c] for row in r.report.rows] for c in header])

    te_idx = r.splits.test
    te_ids = [r.ds.sample_ids[i] for i in te_idx]
    y_te = r.ds.labels[te_idx].tolist()
    variants = sorted(r.calibrated)
    for variant in variants:
        _write_csv(os.path.join(out, f"calibrated_scores_{variant}.csv"),
                   ("sample_id", "probability", "label"),
                   [te_ids, r.calibrated[variant].tolist(), y_te])
        bins = r.bins[variant]
        _write_csv(os.path.join(out, f"bins_{variant}.csv"),
                   ("bin", "count", "obs_rate", "mean_pred"),
                   [list(range(len(bins.counts))), bins.counts.tolist(),
                    bins.obs_rate.tolist(), bins.mean_pred.tolist()])
    curves = [r.rejection[v] for v in variants]
    _write_csv(os.path.join(out, "rejection.csv"),
               ("variant", "threshold", "accepted", "error_rate", "rejection_rate"),
               [[v for v, c in zip(variants, curves) for _ in c.thresholds]]
               + [np.concatenate([getattr(c, f) for c in curves]).tolist()
                  for f in ("thresholds", "accepted", "error_rate", "rejection_rate")])


# analysis ----------------------------------------------------------------

# name -> metric(p, y, n_bins) of paired_resample_test
_TEST_METRICS = {
    "ece": lambda p, y, m: ece(p, y, m)[0],
    "adaece": lambda p, y, m: ada_ece(p, y, min(m, len(p)))[0],
    "auc": lambda p, y, m: auc(p, y)[0],
    "brier": lambda p, y, m: scalar_metrics(p, y)["MSE_brier"],
}


def paired_resample_test(scores_a, scores_b, y, metric="ece", fraction: float = 0.3,
                         iterations: int = 30, seed: int = 0,
                         n_bins: int = 10) -> PairedTestResult:
    """Paired t-test over repeated metric evaluations on common subsamples.

    Each iteration draws floor(fraction*N) test indices without replacement
    (seeded per iteration), evaluates the metric for both score sets on the
    same subsample, and records the difference a - b. For AUC, a subsample
    with a single class is redrawn with an offset seed and counted. Note:
    subsamples overlap, so the independence assumption behind the t-test is
    only approximate.

    ``scores_a`` and ``scores_b`` must be finite probabilities in [0, 1] and
    ``y`` 0/1 labels; anything else raises ``ValueError``.
    """
    a = _probabilities(scores_a, "scores_a")
    b = _probabilities(scores_b, "scores_b")
    y = _labels(y, "y")
    if not (a.shape == b.shape == y.shape):
        raise ValueError("inputs must be aligned")
    if not 0 < fraction <= 1:
        raise ConfigError("fraction must be in (0, 1]")
    if iterations < 2:
        raise ConfigError("need at least 2 iterations")
    metric_fn = _TEST_METRICS.get(metric)
    if metric_fn is None:
        raise ConfigError(f"unknown test metric {metric!r}")

    m = max(1, int(math.floor(fraction * len(y))))
    diffs = np.empty(iterations)
    resampled = 0
    for i in range(iterations):
        for offset in range(101):
            rng = np.random.default_rng(seed + i + offset * 1_000_003)
            idx = rng.choice(len(y), size=m, replace=False)
            if metric != "auc" or 0 < np.count_nonzero(y[idx]) < m:
                break
            resampled += 1
        else:
            raise StageError(f"metric {metric!r} undefined on all resamples")
        diffs[i] = metric_fn(a[idx], y[idx], n_bins) - metric_fn(b[idx], y[idx], n_bins)
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
    for row in report.rows:
        for c in (criterion, "ECE", "AUC"):
            if not math.isfinite(row[c]):
                raise ValueError(f"variant {row['variant']!r}: {c} is {row[c]!r}, not finite")

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
    curves = {name: rejection_curve(p, y, thresholds) for name, p in models.items()}
    rows = []
    for i, t in enumerate(next(iter(curves.values())).thresholds):
        errors = {name: float(c.error_rate[i]) for name, c in curves.items()}
        best = min(errors.values())
        winners = sorted(n for n, e in errors.items() if e == best)
        rows.append({"threshold": float(t), "errors": errors, "winners": winners})
    return rows
