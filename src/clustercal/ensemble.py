"""Clustered calibration: one calibrator per embedding cluster.

Training fits the base method independently on each cluster's held-out
scores, with a constant for label-homogeneous clusters. Clusters too small
to fit use the fallback: the global calibrator that the caller has already
fitted on the same rows, so no calibrator is fitted twice. Inference assigns
clusters by embedding and applies the resolved per-cluster calibrator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import calibrators as cal_mod
from .calibrators import Calibrator, FitData, PARAMETRIC_METHODS, _constant, _laplace_rate
from .metrics import ece
from .representation import ClusterModel, assign
from .scores import ScoreSet

__all__ = ["ClusteredCalibrator", "train_clustered", "improved_sample_fraction"]

DEFAULT_MIN_FIT_SIZE = 30


@dataclass
class ClusteredCalibrator:
    """Per-cluster calibrator ensemble with a shared global fallback."""

    cluster_model: ClusterModel
    method: str
    calibrators: dict[int, Calibrator]
    fallback: Calibrator
    min_fit_size: int
    cluster_meta: dict[int, dict] = field(default_factory=dict)

    def resolve(self, cluster_id: int) -> Calibrator:
        return self.calibrators.get(int(cluster_id), self.fallback)

    def infer(self, scores: ScoreSet, V):
        """Calibrated probabilities plus the cluster labels of the embedding rows V."""
        labels = assign(self.cluster_model, V)
        return cal_mod._apply_by_group(labels, self.resolve, scores), labels

    # serialization: harness._jsonable writes the fields == compares
    @classmethod
    def from_dict(cls, d: dict) -> "ClusteredCalibrator":
        return cls(
            ClusterModel.from_dict(d["cluster_model"]),
            d["method"],
            {int(c): Calibrator.from_dict(v) for c, v in d["calibrators"].items()},
            Calibrator.from_dict(d["fallback"]),
            int(d["min_fit_size"]),
            {int(c): m for c, m in d.get("cluster_meta", {}).items()},
        )


def train_clustered(data: FitData, labels, cm: ClusterModel, method: str, fallback: Calibrator,
                    min_fit_size: int = DEFAULT_MIN_FIT_SIZE) -> ClusteredCalibrator:
    """Fit the per-cluster calibration ensemble on the calibration split.

    ``labels`` are the cluster ids of ``data``'s rows under ``cm``, and
    ``fallback`` is the global calibrator already fitted on ``data``.
    Homogeneous clusters get a Laplace-smoothed constant; clusters below
    ``min_fit_size`` use the fallback. Every per-cluster fit is compared
    against the fallback's parameters on that cluster and the lower-NLL fit
    is kept, so the ensemble can never do worse than the global calibrator
    on the data it was fitted on.
    """
    if method not in PARAMETRIC_METHODS:
        raise ValueError(
            f"clustered calibration requires a parametric base method, got {method!r}")
    labels = np.asarray(labels)
    if labels.shape != (len(data),):
        raise ValueError("fit data and cluster ids must be aligned")
    if not ((labels >= 0) & (labels < cm.k)).all():
        raise ValueError(f"cluster ids must lie in [0, {cm.k})")
    y = data.labels
    expected = "constant" if (y == y[0]).all() else method  # what fit(method, data) returns
    if fallback.method != expected:
        raise ValueError(f"fallback is a {fallback.method!r} calibrator, expected {expected!r}")

    calibrators: dict[int, Calibrator] = {}
    meta: dict[int, dict] = {}
    for c in range(cm.k):
        mask = labels == c
        n_c = int(mask.sum())
        info = {"size": n_c, "positive_rate": float(y[mask].mean()) if n_c else 0.0,
                "used_fallback": False, "used_constant": False}
        if n_c == 0:
            info["used_fallback"] = True
            calibrators[c] = fallback
        elif (y[mask] == y[mask][0]).all():
            calibrators[c] = _constant(_laplace_rate(y[mask]), note="homogeneous")
            info["used_constant"] = True
        elif n_c < min_fit_size:
            info["used_fallback"] = True
            calibrators[c] = fallback
        else:
            sub = FitData(data.margins[mask], data.probabilities[mask], y[mask])
            init = (fallback.params["A"], fallback.params["B"]) if method == "platt" else None
            cal = cal_mod.fit(method, sub, init)
            if fallback.nll(sub) < cal.nll(sub):
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
    the cluster ids."""
    p_cluster, p_unified, labels, y = map(np.asarray, (p_cluster, p_unified, labels, y))
    improved = 0
    for c in np.unique(labels):
        mask = labels == c
        m = min(n_bins, int(mask.sum()))
        e_ccl, _ = ece(p_cluster[mask], y[mask], m, scheme)
        e_uni, _ = ece(p_unified[mask], y[mask], m, scheme)
        if e_ccl < e_uni:
            improved += int(mask.sum())
    return improved / len(y)
