"""End-to-end experiment orchestration: unified vs clustered calibration
comparison tables, paired resampling significance tests, cluster-metric
model selection, rejection sweeps, and deterministic artifact output."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from types import UnionType
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np

from . import calibrators as cal_mod
from .calibrators import PARAMETRIC_METHODS
from .data import (
    CsvSpec, DataError, Dataset, SplitIndices, SyntheticSpec, _ratios, gen_synthetic_full,
    load_csv, load_external_scores, load_vectors, split,
)
from .ensemble import DEFAULT_MIN_FIT_SIZE, improved_sample_fraction, train_clustered
from .gbt import GBTParams, TreeEnsemble, fit_gbt, predict
from .metrics import (
    BASES, REJECTION_THRESHOLDS, SCHEMES, _aligned, _labels, _probabilities, ada_ece, auc, cece,
    ece, mce, rejection_curve, scalar_metrics,
)
from .representation import (
    EMBEDDING_KINDS, ENSEMBLE_KINDS, ClusterDiagnostics, ClusterModel, EmbeddingOpts,
    _elbow_grid, assign, build_embedding, diagnostics, fit_agglomerative, fit_kmeans,
    select_k_elbow,
)
from .scores import ScoreSet

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
# the criteria select_model may minimize
LOWER_IS_BETTER = tuple(c for c in METRIC_COLUMNS if c not in ("AUC", "ACC"))


class ConfigError(ValueError):
    """Invalid experiment configuration, or a JSON artifact ``_read_json``
    cannot read back as its type."""


class StageError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


# config sections: one frozen dataclass per JSON object, whose fields are the
# keys it accepts. A field whose default is None is absent unless given; only
# an annotation that admits None accepts a JSON null. The same parser reads
# the JSON artifacts back (`_read_json`).

@dataclass(frozen=True)
class DataSpec:                             # exactly one source
    csv: CsvSpec = None
    synthetic: SyntheticSpec = None


@dataclass(frozen=True)
class SyntheticScores:                      # the synthetic generator's margins; no keys
    pass


@dataclass(frozen=True)
class ModelSpec:                            # exactly one source of scores
    gbt: GBTParams = None
    external_scores: str = None             # a score CSV
    synthetic_scores: SyntheticScores = None


@dataclass(frozen=True)
class EmbeddingSpec:
    kind: Literal[EMBEDDING_KINDS] = "shap"
    opts: EmbeddingOpts = EmbeddingOpts()
    path: str | None = None                 # the CSV of an "external" embedding


@dataclass(frozen=True)
class ClusteringSpec:
    method: Literal["kmeans", "agglomerative"] = "kmeans"
    k: int | None = None                    # None: pick k on the elbow grid
    elbow: tuple[int, ...] = (5, 100, 5)
    min_cluster_size: int = 0


@dataclass(frozen=True)
class MetricSpec:
    n_bins: int = 10
    scheme: Literal[SCHEMES] = "equal_width"
    cece_base: Literal[BASES] = "ece"


@dataclass(frozen=True)
class CclSpec:
    min_fit_size: int = DEFAULT_MIN_FIT_SIZE


# The top-level keys a config may leave out, as JSON; config_hash covers them.
DEFAULTS = {
    "model": {"gbt": {}},
    "split_ratios": (0.6, 0.2, 0.2),
    "stratify": True,
    "embedding": {"kind": EmbeddingSpec.kind, "opts": {}},
    "clustering": {"method": ClusteringSpec.method, "k": 10},
    "methods": PARAMETRIC_METHODS,
    "metric_opts": {},
    "ccl_opts": {},
    "rejection_thresholds": REJECTION_THRESHOLDS,
    "seed": 0,
    "out": None,
}

_NOUNS = {bool: "a boolean", int: "an int", float: "a number", str: "a string",
          dict: "a JSON object", list: "a list", np.ndarray: "a list of numbers"}
_type_hints = functools.cache(get_type_hints)      # evaluating annotations is slow


def _object(name: str, value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, not {type(value).__name__}")
    return value


def _is(tp, v) -> bool:
    """Whether JSON value ``v`` has scalar type ``tp``; a bool is no number."""
    return isinstance(v, bool) == (tp is bool) and isinstance(v, (int, float) if tp is float else tp)


def _finite(v) -> bool:
    """False for the NaN and +-Infinity that json.load parses."""
    return not isinstance(v, float) or math.isfinite(v)


def _int_key(key: str, k: str) -> int:
    """JSON object key ``k`` as the int whose ``str`` it is."""
    try:
        if str(int(k)) == k:
            return int(k)
    except ValueError:
        pass
    raise ConfigError(f"{key} keys must be ints, not {k!r}")


def _value(key: str, tp, v, meta):
    """``v`` as a value of annotation ``tp``; a list becomes a tuple, or an
    array whose dtype follows its JSON numbers (``1`` int64, ``1.0`` float64)."""
    origin, args = get_origin(tp), get_args(tp)
    if is_dataclass(tp):
        return _section(tp, key, v)
    if origin is UnionType:                 # `X | None`
        return None if v is None else _value(key, args[0], v, meta)
    if origin is Literal:
        if v in args:
            return v
        raise ConfigError(f"{key} must be one of {list(args)}, not {v!r}")
    if origin is tuple:
        if isinstance(v, (list, tuple)) and is_dataclass(args[0]):      # tuple[Tree, ...]
            return tuple(_section(args[0], f"{key}[{i}]", x) for i, x in enumerate(v))
        if isinstance(v, (list, tuple)) and all(_is(args[0], x) for x in v):
            if not all(map(_finite, v)):
                raise ConfigError(f"{key}: values must be finite")
            return tuple(v)
        raise ConfigError(f"{key} must be a list of {meta.get('items', args[0].__name__ + 's')}")
    if origin is dict and isinstance(v, dict):      # dict[int, X]: JSON keys are strings
        return {_int_key(key, k): _value(f"{key}.{k}", args[1], x, meta) for k, x in v.items()}
    if tp is np.ndarray and isinstance(v, list):
        return np.asarray(v)
    if not _is(origin or tp, v):
        raise ConfigError(f"{key} must be {_NOUNS[origin or tp]}, not {v!r}")
    if not _finite(v):
        raise ConfigError(f"{key} must be finite, not {v!r}")
    return v


def _section(cls, key: str, value):
    """The JSON object ``value`` at dotted ``key`` ("" at the top of a config)
    as a ``cls``, whose fields are its keys and types. A ValueError (a
    DataError too) from ``cls`` itself becomes a ConfigError naming the section."""
    name = key or "config"
    value, hints = _object(name, value), _type_hints(cls)
    known = {f.name: f for f in fields(cls) if f.init}
    unknown = set(value) - set(known)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    missing = [k for k, f in known.items()
               if f.default is MISSING and f.default_factory is MISSING and k not in value]
    if missing:
        raise ConfigError(f"{name} needs keys: {missing}")
    kwargs = {k: _value(f"{key}.{k}" if key else k, hints[k], v, known[k].metadata)
              for k, v in value.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment config, checked whole by ``from_dict`` before any stage runs."""

    data: DataSpec
    model: ModelSpec
    split_ratios: tuple[float, ...]
    stratify: bool
    embedding: EmbeddingSpec
    clustering: ClusteringSpec
    methods: tuple[str, ...] = field(metadata={"items": "method names"})
    metric_opts: MetricSpec
    ccl_opts: CclSpec
    rejection_thresholds: tuple[float, ...]
    seed: int
    out: str | None
    # the config as given, with DEFAULTS for absent keys: what config_hash covers
    payload: dict = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_dict(cls, d: dict, **overrides) -> "ExperimentConfig":
        """Parse and check ``d`` with ``overrides`` (such as ``seed`` or ``out``) applied."""
        payload = {**DEFAULTS, **_object("config", d), **overrides}
        cfg = _section(cls, "", payload)
        object.__setattr__(cfg, "payload", payload)
        cfg.validate()
        return cfg

    @classmethod
    def from_json_file(cls, path: str, **overrides) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh), **overrides)

    def validate(self) -> None:
        """The range rules and the rules between sections; the types hold already."""
        data, model, emb, clu = self.data, self.model, self.embedding, self.clustering
        if (data.csv is None) == (data.synthetic is None):
            raise ConfigError("config needs exactly one data source: csv or synthetic")
        if data.csv is not None and not os.path.exists(data.csv.path):
            raise ConfigError(f"data file not found: {data.csv.path}")
        for key, path in (("model.external_scores", model.external_scores),
                          ("embedding.path", emb.path)):
            if path is not None and not os.path.exists(path):
                raise ConfigError(f"{key}: file not found: {path}")
        if sum(v is not None for v in vars(model).values()) != 1:
            raise ConfigError("model needs exactly one of gbt / external_scores / synthetic_scores")
        if model.synthetic_scores is not None and data.synthetic is None:
            raise ConfigError("synthetic_scores requires a synthetic data source")
        if emb.kind in ENSEMBLE_KINDS and model.gbt is None:
            raise ConfigError(f"embedding.kind {emb.kind!r} needs a gbt model")
        if emb.kind == "external" and emb.path is None:
            raise ConfigError("embedding.kind 'external' needs embedding.path")
        for key, value, least in (("clustering.k", clu.k, 1),
                                  ("metric_opts.n_bins", self.metric_opts.n_bins, 1),
                                  ("clustering.min_cluster_size", clu.min_cluster_size, 0),
                                  ("ccl_opts.min_fit_size", self.ccl_opts.min_fit_size, 0)):
            if value is not None and value < least:
                raise ConfigError(f"{key} must be {'positive' if least else '>= 0'}, not {value}")
        # the rules the library applies to these values when it uses them
        for key, rule in (("split_ratios", lambda: _ratios(self.split_ratios)),
                          ("clustering.elbow", lambda: _elbow_grid(clu.elbow)),
                          ("rejection_thresholds",    # rejection_curve's thresholds rule
                           lambda: _probabilities(_aligned(values=self.rejection_thresholds)[0],
                                                  "values"))):
            try:
                rule()
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
        if not self.methods:
            raise ConfigError("methods list must be non-empty")
        bad = [m for m in self.methods if m not in cal_mod.ALL_METHODS]
        if bad:
            raise ConfigError(f"unknown calibration methods: {bad}")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ConfigError(f"methods repeat: {repeated}")

    def config_hash(self) -> str:
        """SHA-256 of every top-level key but ``out``, the part that shapes the results."""
        payload = {k: v for k, v in self.payload.items() if k != "out"}
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass
class EvalReport:
    rows: list                      # per-variant metric dicts
    cluster_diagnostics: dict
    improved_fractions: dict        # method -> fraction
    provenance: dict


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
    E: np.ndarray | None = None                   # (N, m) embedding of every row
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
    if cfg.data.csv is not None:
        r.ds = load_csv(cfg.data.csv)
    else:
        r.ds, r.synth_margins, _ = gen_synthetic_full(cfg.data.synthetic)
    r.splits = split(r.ds, cfg.split_ratios, cfg.seed, cfg.stratify)


def _model(r: RunState):
    model, ds, tr_idx = r.cfg.model, r.ds, r.splits.train
    if model.gbt is not None:
        r.ens = fit_gbt(Dataset(ds.features[tr_idx], ds.labels[tr_idx], ds.feature_names,
                                tuple(ds.sample_ids[i] for i in tr_idx)), model.gbt)
        # the fit's margins score the training rows; predict scores the others
        held_out = np.concatenate([r.splits.calibration, r.splits.test])
        margins = np.empty(len(ds.labels))
        margins[tr_idx] = r.ens.train_margins
        margins[held_out] = predict(r.ens, ds.features[held_out]).margins
        r.scores = ScoreSet.from_margins(margins)
    elif model.external_scores is not None:
        r.scores = load_external_scores(model.external_scores, expected_ids=ds.sample_ids)
    else:
        r.scores = ScoreSet.from_margins(r.synth_margins)


def _embedding(r: RunState):
    emb = r.cfg.embedding
    vectors = load_vectors(emb.path, r.ds.sample_ids) if emb.kind == "external" else None
    r.E = build_embedding(emb.kind, r.ens, r.ds, emb.opts, vectors)


def _clustering(r: RunState):
    clu, seed = r.cfg.clustering, r.cfg.seed
    fit_idx = np.sort(np.concatenate([r.splits.train, r.splits.calibration]))
    sub = r.E[fit_idx]
    if clu.k is None:
        r.cm, r.elbow_curve = select_k_elbow(sub, clu.elbow, seed, clu.min_cluster_size,
                                             clu.method)
    elif clu.method == "kmeans":
        r.cm = fit_kmeans(sub, clu.k, seed)
    else:
        r.cm = fit_agglomerative(sub, clu.k)
    r.diag = diagnostics(r.cm, assign(r.cm, sub), r.ds.labels[fit_idx])


def _calibrate(r: RunState):
    cfg, y = r.cfg, r.ds.labels
    cal_idx, te_idx = r.splits.calibration, r.splits.test
    te_scores = r.scores.take(te_idx)
    te_E = r.E[te_idx]
    cal_clusters = assign(r.cm, r.E[cal_idx])
    r.te_clusters = assign(r.cm, te_E)
    cal_scores, cal_y = r.scores.take(cal_idx), y[cal_idx]
    r.calibrated["base"] = r.scores.probabilities[te_idx]
    for method in cfg.methods:
        uni = r.unified[method] = cal_mod.fit(method, cal_scores, cal_y)
        r.calibrated[f"{method}_unified"] = uni.apply(te_scores)
        if method in PARAMETRIC_METHODS:
            ccl = r.ccl[method] = train_clustered(cal_scores, cal_y, cal_clusters, r.cm, method,
                                                  uni, cfg.ccl_opts.min_fit_size)
            r.calibrated[f"{method}_ccl"] = ccl.infer(te_scores, te_E)[0]


def _eval_variant(p, y, cluster_labels, met: MetricSpec):
    """One report row's metrics, and the ECE bins they were computed from."""
    out = {}
    out["CECE"] = cece(p, y, cluster_labels, met.cece_base)[0]
    out["ECE"], bins = ece(p, y, met.n_bins, met.scheme)
    out["MCE"] = mce(p, y, met.n_bins, met.scheme)[0]
    out["AdaECE"] = ada_ece(p, y, min(met.n_bins, len(p)))[0]
    out["AUC"] = auc(p, y)
    out.update(scalar_metrics(p, y))
    return out, bins


def _evaluate(r: RunState):
    cfg, met, y_te = r.cfg, r.cfg.metric_opts, r.ds.labels[r.splits.test]
    thresholds = np.asarray(cfg.rejection_thresholds)
    rows = []
    for variant, p in r.calibrated.items():
        metrics, r.bins[variant] = _eval_variant(p, y_te, r.te_clusters, met)
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
                                        r.te_clusters, y_te, met.n_bins, met.scheme)
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

    A ``DataError`` from the data stage passes through unchanged; any other
    exception becomes a ``StageError`` that names the failing stage.
    """
    if last not in dict(STAGES):
        raise ValueError(f"unknown stage {last!r}")
    r = RunState(cfg)
    for name, stage in STAGES:
        try:
            stage(r)
        except Exception as exc:
            if name == "data" and isinstance(exc, DataError):
                raise
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


def _jsonable(o):
    """``o`` as JSON values: the one rule of every JSON artifact.

    A dataclass becomes the fields ``==`` compares, an array, tuple or list a
    list, and a dict keeps its values with its keys as strings, so that
    ``sort_keys`` orders them as strings ("10" before "2"). Anything else
    passes as it is. ``_read_json`` reads each file back.
    """
    if is_dataclass(o):
        return {f.name: _jsonable(getattr(o, f.name)) for f in fields(o) if f.compare}
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, (list, tuple)):
        return [_jsonable(v) for v in o]
    if isinstance(o, dict):
        return {str(k): _jsonable(v) for k, v in o.items()}
    return o


def _write_json(path, payload):
    """Write ``_jsonable(payload)`` as sorted, indented JSON."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonable(payload), fh, sort_keys=True, indent=1)
        fh.write("\n")


def _read_json(cls, path):
    """The JSON artifact at ``path`` as a ``cls``, read by the config's parser."""
    with open(path, encoding="utf-8") as fh:
        return _section(cls, str(path), json.load(fh))


def _write_clusters(out: str, r: RunState):
    """clusters.json (the cluster model) and clusters.csv (per-cluster table)."""
    _write_json(os.path.join(out, "clusters.json"), r.cm)
    table = r.diag.table
    ids = [row["cluster"] for row in table]
    _write_csv(os.path.join(out, "clusters.csv"),
               ("cluster_id", "size", "positive_rate", "centroid_norm"),
               [ids, [row["size"] for row in table], [row["positive_rate"] for row in table],
                [float(np.linalg.norm(r.cm.centroids[j])) for j in ids]])


def _persist(r: RunState):
    out = r.cfg.out
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "eval_report.json"), r.report)
    if r.ens is not None:
        _write_json(os.path.join(out, "ensemble.json"), r.ens)
    _write_clusters(out, r)
    for method, ccl in r.ccl.items():
        _write_json(os.path.join(out, f"ccl_{method}.json"), ccl)
    for method, cal in r.unified.items():
        _write_json(os.path.join(out, f"unified_{method}.json"), cal)
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
    "auc": lambda p, y, m: auc(p, y),
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

    The first call that computes a p-value imports ``scipy.stats``, which
    takes about 1.3 s.
    """
    a, b, y = _aligned(scores_a=scores_a, scores_b=scores_b, y=y)
    a, b, y = _probabilities(a, "scores_a"), _probabilities(b, "scores_b"), _labels(y, "y")
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
        from scipy.stats import t as student_t   # ~1.3 s to import; only this test needs it

        t_stat = float(np.mean(diffs) / (sd / math.sqrt(iterations)))
        p_one = float(student_t.cdf(t_stat, dof))       # H1: mean(a - b) < 0
        p_two = float(2 * student_t.sf(abs(t_stat), dof))
    return PairedTestResult(metric, diffs, t_stat, dof, p_one, p_two, resampled)


def select_model(report: EvalReport, criterion: str = "CECE") -> dict:
    """Pick the report row minimizing the criterion, one of ``LOWER_IS_BETTER``.

    Ties break by higher AUC, then variant name. The result notes when the
    ECE winner differs from the criterion winner, and flags pairs where the
    lower-criterion row does not also have the higher AUC.
    """
    if len(report.rows) < 2:
        raise ValueError("need at least 2 rows to select between")
    if criterion not in LOWER_IS_BETTER:
        raise ValueError(f"criterion must be one of {list(LOWER_IS_BETTER)}, not {criterion!r}")
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
