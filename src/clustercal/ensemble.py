"""Clustered calibration: one calibrator per embedding cluster.

Training fits the base method independently on each cluster's held-out
scores, with a constant for label-homogeneous clusters. Clusters too small
to fit use the fallback: the global calibrator that the caller has already
fitted on the same rows, so no calibrator is fitted twice. Inference assigns
clusters by embedding and applies each row's cluster calibrator, in one pass
per calibration method present.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import calibrators as cal_mod, metrics
from .calibrators import Calibrator, PARAM_KEYS, PARAMETRIC_METHODS, _constant, _laplace_rate
from .metrics import _aligned, _cluster_ids, _cluster_eces, _labels, _probabilities
from .representation import ClusterModel, assign
from .scores import ScoreSet

__all__ = ["ClusteredCalibrator", "train_clustered", "improved_sample_fraction"]

DEFAULT_MIN_FIT_SIZE = 30

ece = metrics.ece   # nothing here calls it; perfbench/spans.py patches this name


@dataclass
class ClusteredCalibrator:
    """Per-cluster calibrator ensemble with a shared global fallback."""

    cluster_model: ClusterModel
    method: str
    calibrators: dict[int, Calibrator]      # only the clusters with their own calibrator
    fallback: Calibrator                    # every other cluster's
    min_fit_size: int
    cluster_meta: dict[int, dict] = field(default_factory=dict)

    def __post_init__(self):
        k = self.cluster_model.k
        for name, ids in (("calibrators", self.calibrators), ("cluster_meta", self.cluster_meta)):
            outside = sorted(c for c in ids if not 0 <= c < k)
            if outside:
                raise ValueError(f"{name} has cluster ids outside [0, {k}): {outside}")
        for c, info in self.cluster_meta.items():
            if (c in self.calibrators) == bool(info.get("used_fallback")):
                raise ValueError(f"cluster {c} {'has' if c in self.calibrators else 'lacks'} "
                                 f"a calibrator of its own, but its used_fallback is "
                                 f"{info.get('used_fallback')}")

    def resolve(self, cluster_id: int) -> Calibrator:
        return self.calibrators.get(int(cluster_id), self.fallback)

    def infer(self, scores: ScoreSet, V):
        """Calibrated probabilities plus the cluster labels of the embedding
        rows V: one row per score, each checked by ``assign``."""
        labels = assign(self.cluster_model, V)
        if len(labels) != len(scores):
            raise ValueError(f"embedding has {len(labels)} rows, expected one per score "
                             f"({len(scores)})")
        cals = [self.resolve(c) for c in range(self.cluster_model.k)]
        return cal_mod._apply_each(cals, labels, scores), labels


def train_clustered(scores: ScoreSet, y, clusters, cm: ClusterModel, method: str,
                    fallback: Calibrator,
                    min_fit_size: int = DEFAULT_MIN_FIT_SIZE) -> ClusteredCalibrator:
    """Fit the per-cluster calibration ensemble on the calibration split.

    ``y`` are the 0/1 labels of the rows of ``scores``, ``clusters`` their
    cluster ids under ``cm``, and ``fallback`` the global calibrator already
    fitted on ``scores`` and ``y``.
    Homogeneous clusters get a Laplace-smoothed constant; clusters below
    ``min_fit_size`` use the fallback. Every per-cluster fit is compared
    against the fallback's parameters on that cluster and the lower-NLL fit
    is kept, so on each fitted cluster the ensemble does no worse than the
    global calibrator on the data it was fitted on. A homogeneous cluster's
    constant is not compared, and the fallback can have the lower NLL there.

    The rows are sorted by cluster once (stably), so each cluster is a slice
    of one array. Temperature fits all clusters in one golden-section
    search, and the NLL comparison takes one pass over the fitted rows for
    the fallback and one for the clusters' own fits.
    """
    if method not in PARAMETRIC_METHODS:
        raise ValueError(
            f"clustered calibration requires a parametric base method, got {method!r}")
    if min_fit_size < 0:
        raise ValueError(f"min_fit_size must be >= 0, not {min_fit_size}")
    _, y, clusters = _aligned(scores=scores.probabilities, labels=y, clusters=clusters)
    y, clusters = _labels(y, "labels"), _cluster_ids(clusters, cm.k)
    expected = "constant" if (y == y[0]).all() else method  # what fit(method, scores, y) returns
    if fallback.method != expected:
        raise ValueError(f"fallback is a {fallback.method!r} calibrator, expected {expected!r}")

    sizes = np.bincount(clusters, minlength=cm.k)
    positives = np.bincount(clusters, weights=y, minlength=cm.k)
    # stably sorted by cluster, cluster c is rows [bounds[c], bounds[c + 1])
    order = np.argsort(clusters, kind="stable")
    m, p, y = scores.margins[order], scores.probabilities[order], y[order]
    bounds = np.r_[0, np.cumsum(sizes)].tolist()

    calibrators: dict[int, Calibrator] = {}
    meta: dict[int, dict] = {}
    fitted = []
    for c in range(cm.k):
        n_c = int(sizes[c])
        info = {"size": n_c, "positive_rate": float(positives[c] / n_c) if n_c else 0.0,
                "used_fallback": False, "used_constant": False}
        if n_c == 0:
            info["used_fallback"] = True
        elif positives[c] in (0, n_c):
            calibrators[c] = _constant(_laplace_rate(y[bounds[c]:bounds[c + 1]]),
                                       note="homogeneous")
            info["used_constant"] = True
        elif n_c < min_fit_size:
            info["used_fallback"] = True
        else:
            fitted.append(c)
        meta[c] = info
    if fitted:
        calibrators.update(_fit_clusters(ScoreSet(m, p), y, bounds, fitted, method, fallback))
    return ClusteredCalibrator(cm, method, calibrators, fallback, min_fit_size, meta)


def _fit_clusters(scores: ScoreSet, y, bounds, fitted, method: str,
                  fallback: Calibrator) -> dict[int, Calibrator]:
    """The calibrators of the ``fitted`` clusters, each slice [bounds[c], bounds[c + 1])
    of the cluster-sorted ``scores`` and labels ``y``: a ``method`` fit, or the
    fallback's params where those have the lower NLL on the cluster. Temperature
    fits all the clusters together; a Newton method fits each on its own."""
    sizes = np.diff(bounds)
    if sizes[fitted].sum() < len(y):    # keep the fitted clusters' rows only
        rows = np.repeat(np.isin(np.arange(len(sizes)), fitted), sizes)
        scores, y = scores.take(rows), y[rows]
    bounds = np.r_[0, np.cumsum(sizes[fitted])].tolist()
    with np.errstate(over="ignore"):
        if method == "temperature":
            cals = cal_mod._fit_temperatures(scores.margins, y, bounds)
        else:
            init = (fallback.params["A"], fallback.params["B"]) if method == "platt" else None
            cals = [cal_mod.fit(method, scores.take(slice(lo, hi)), y[lo:hi], init)
                    for lo, hi in zip(bounds[:-1], bounds[1:])]
        yf = y.astype(np.float64)
        own = {k: np.repeat([cal.params[k] for cal in cals], np.diff(bounds))
               for k in PARAM_KEYS[method]}
        fallback_nll = cal_mod._calibrated_nlls(fallback.method, fallback.params, scores, yf,
                                                bounds)
        own_nll = cal_mod._calibrated_nlls(method, own, scores, yf, bounds)
    return {c: Calibrator(fallback.method, dict(fallback.params),
                          dict(fallback.diagnostics, refit="kept_global")) if f < o else cal
            for c, cal, f, o in zip(fitted, cals, fallback_nll, own_nll)}


def improved_sample_fraction(p_cluster, p_unified, labels, y, n_bins: int = 10,
                             scheme: str = "equal_width") -> float:
    """Fraction of samples in clusters whose within-cluster ECE (binned by
    ``scheme``) is strictly lower under the clustered probabilities
    ``p_cluster`` than under the unified ones ``p_unified``; ``labels`` are
    the cluster ids and ``y`` the 0/1 labels, all aligned, non-empty and 1-D."""
    p_cluster, p_unified, labels, y = _aligned(p_cluster=p_cluster, p_unified=p_unified,
                                               labels=labels, y=y)
    labels, y = _cluster_ids(labels), _labels(y, "y")
    p_cluster, p_unified = _probabilities(p_cluster, "p_cluster"), _probabilities(p_unified,
                                                                                  "p_unified")
    e_ccl, sizes = _cluster_eces(p_cluster, y, labels, n_bins, scheme)
    e_uni, _ = _cluster_eces(p_unified, y, labels, n_bins, scheme)
    return int(sizes[e_ccl < e_uni].sum()) / len(y)
