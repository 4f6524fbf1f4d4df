"""Clustered calibration: one calibrator per embedding cluster.

Training fits the base method independently on each cluster's held-out
scores, with a constant for label-homogeneous clusters. Clusters too small
to fit use the fallback: the global calibrator that the caller has already
fitted on the same rows, so no calibrator is fitted twice. Inference assigns
clusters by embedding and applies the resolved per-cluster calibrator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import calibrators as cal_mod, metrics
from .calibrators import Calibrator, PARAMETRIC_METHODS, _constant, _laplace_rate
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
        return cal_mod._apply_by_group(labels, self.resolve, scores), labels


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
    is kept, so the ensemble can never do worse than the global calibrator
    on the data it was fitted on.
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

    calibrators: dict[int, Calibrator] = {}
    meta: dict[int, dict] = {}
    for c in range(cm.k):
        mask = clusters == c
        n_c = int(mask.sum())
        info = {"size": n_c, "positive_rate": float(y[mask].mean()) if n_c else 0.0,
                "used_fallback": False, "used_constant": False}
        if n_c == 0:
            info["used_fallback"] = True
        elif (y[mask] == y[mask][0]).all():
            calibrators[c] = _constant(_laplace_rate(y[mask]), note="homogeneous")
            info["used_constant"] = True
        elif n_c < min_fit_size:
            info["used_fallback"] = True
        else:
            sub, y_sub = scores.take(mask), y[mask]
            init = (fallback.params["A"], fallback.params["B"]) if method == "platt" else None
            cal = cal_mod.fit(method, sub, y_sub, init)
            if fallback.nll(sub, y_sub) < cal.nll(sub, y_sub):
                cal = Calibrator(fallback.method, dict(fallback.params),
                                 dict(fallback.diagnostics, refit="kept_global"))
            calibrators[c] = cal
        meta[c] = info
    return ClusteredCalibrator(cm, method, calibrators, fallback, min_fit_size, meta)


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
