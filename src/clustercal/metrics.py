"""Calibration and discrimination metrics: binned calibration errors
(equal-width, equal-mass, and cluster-binned), ROC-AUC, scalar scores,
reliability-diagram data and rejection curves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

__all__ = [
    "BinStats",
    "RocCurve",
    "RejectionCurve",
    "ece",
    "mce",
    "ada_ece",
    "cece",
    "auc",
    "scalar_metrics",
    "reliability_data",
    "rejection_curve",
]

CE_EPS = 1e-12
# ACC and the rejection error count a sample as predicted positive at p >= this.
DECISION_THRESHOLD = 0.5


@dataclass(frozen=True)
class BinStats:
    """Per-bin sample count, observed positive rate and mean prediction."""

    counts: np.ndarray      # (M,) int
    obs_rate: np.ndarray    # (M,) float, 0 for empty bins
    mean_pred: np.ndarray   # (M,) float, 0 for empty bins

    def as_rows(self):
        return [
            {"bin": int(i), "count": int(c), "obs_rate": float(a), "mean_pred": float(p)}
            for i, (c, a, p) in enumerate(zip(self.counts, self.obs_rate, self.mean_pred))
        ]


@dataclass(frozen=True)
class RocCurve:
    """ROC points over all thresholds; ties share a single diagonal segment."""

    fpr: np.ndarray
    tpr: np.ndarray


@dataclass(frozen=True)
class RejectionCurve:
    thresholds: np.ndarray
    accepted: np.ndarray       # counts
    error_rate: np.ndarray     # misclassification rate among accepted
    rejection_rate: np.ndarray


def _labels(y, name: str) -> np.ndarray:
    """The label rule of every boundary: each entry of ``y`` is 0 or 1."""
    y = np.asarray(y)
    if not ((y == 0) | (y == 1)).all():  # also false for NaN
        raise ValueError(f"{name} must hold 0/1 labels")
    return y


def _probabilities(p, name: str) -> np.ndarray:
    """The probability rule of every boundary: each entry of ``p`` is finite, in [0, 1]."""
    p = np.asarray(p, dtype=np.float64)
    if not ((p >= 0) & (p <= 1)).all():  # also false for NaN
        raise ValueError(f"{name} must be finite, with no value outside [0, 1]")
    return p


def _check_lengths(p, y):
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y)
    if p.shape != y.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {y.shape}")
    if p.size == 0:
        raise ValueError("empty input")
    return p, _labels(y, "y")


def _check_probs(p, y):
    """_check_lengths plus the probability rule."""
    p, y = _check_lengths(p, y)
    return _probabilities(p, "probabilities"), y


def _bin_ids(p, m, scheme):
    n = len(p)
    if scheme == "equal_width":
        # bin i covers ((i-1)/M, i/M]; p == 0 falls in the first bin
        ids = np.clip(np.ceil(p * m).astype(np.int64) - 1, 0, m - 1)
    elif scheme == "equal_mass":
        order = np.argsort(p, kind="stable")
        ids = np.empty(n, dtype=np.int64)
        for i, chunk in enumerate(np.array_split(order, m)):
            ids[chunk] = i
    else:
        raise ValueError(f"unknown binning scheme {scheme!r}")
    return ids


def _stats_from_ids(p, y, ids, m) -> BinStats:
    counts = np.bincount(ids, minlength=m)
    sums_y = np.bincount(ids, weights=y, minlength=m)
    sums_p = np.bincount(ids, weights=p, minlength=m)
    safe = np.maximum(counts, 1)
    return BinStats(counts, sums_y / safe, sums_p / safe)


def _binned(p, y, m, scheme):
    p, y = _check_probs(p, y)
    if m < 1:
        raise ValueError("need at least one bin")
    return _stats_from_ids(p, y, _bin_ids(p, m, scheme), m)


def _gap(stats: BinStats, n: int, base: str) -> float:
    """The binned error of ``stats`` over ``n`` samples: ``"ece"`` is the
    count-weighted mean absolute gap, ``"mce"`` the largest absolute gap over
    non-empty bins, ``"adaece"`` the root count-weighted squared gap."""
    gaps = stats.obs_rate - stats.mean_pred
    if base == "ece":
        return float(np.sum(stats.counts * np.abs(gaps)) / n)
    if base == "mce":
        return float(np.abs(gaps)[stats.counts > 0].max(initial=0.0))
    if base == "adaece":
        return float(np.sqrt(np.sum(stats.counts * gaps ** 2) / n))
    raise ValueError(f"unknown base metric {base!r}")


def ece(p, y, m: int = 10, scheme: str = "equal_width"):
    """Expected calibration error: count-weighted mean absolute bin gap."""
    stats = _binned(p, y, m, scheme)
    return _gap(stats, len(p), "ece"), stats


def mce(p, y, m: int = 10, scheme: str = "equal_width"):
    """Maximum calibration error over non-empty bins."""
    stats = _binned(p, y, m, scheme)
    return _gap(stats, len(p), "mce"), stats


def ada_ece(p, y, m: int = 10):
    """Adaptive ECE: root count-weighted squared bin gap over equal-mass bins."""
    stats = _binned(p, y, m, "equal_mass")
    if m > len(p):
        raise ValueError("more bins than samples")
    return _gap(stats, len(p), "adaece"), stats


def cece(p, y, cluster_labels, base: str = "ece"):
    """Cluster-binned calibration error.

    Applies the arithmetic of the chosen base metric over bins defined by
    cluster membership, which is invariant to recalibration of ``p``.
    """
    p, y = _check_probs(p, y)
    ids = np.asarray(cluster_labels, dtype=np.int64)
    if ids.shape != p.shape:
        raise ValueError("cluster labels length mismatch")
    stats = _stats_from_ids(p, y, ids, int(ids.max()) + 1)
    return _gap(stats, len(p), base), stats


def auc(scores, y):
    """ROC-AUC via the Mann-Whitney statistic (ties count half)."""
    s, y = _check_lengths(scores, y)
    pos = y == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes")
    ranks = rankdata(s, method="average")
    val = (ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)

    order = np.argsort(-s, kind="stable")
    sorted_s = s[order]
    tp = np.cumsum(y[order] == 1)
    fp = np.cumsum(y[order] == 0)
    # keep only the last point of each tie block
    last = np.r_[sorted_s[1:] != sorted_s[:-1], True]
    tpr = np.r_[0.0, tp[last] / n_pos]
    fpr = np.r_[0.0, fp[last] / n_neg]
    return float(val), RocCurve(fpr, tpr)


def scalar_metrics(p, y):
    """Accuracy, cross-entropy, Brier score and its root."""
    p, y = _check_probs(p, y)
    pc = np.clip(p, CE_EPS, 1 - CE_EPS)
    acc = float(np.mean((p >= DECISION_THRESHOLD).astype(np.int64) == y))
    cross = float(-np.mean(y * np.log(pc) + (1 - y) * np.log(1 - pc)))
    brier = float(np.mean((y - p) ** 2))
    return {"ACC": acc, "CE": cross, "MSE_brier": brier, "RMSE": float(np.sqrt(brier))}


def reliability_data(p, y, m: int = 10, scheme: str = "equal_width"):
    """Plot-ready reliability diagram rows (one per bin)."""
    stats = _binned(p, y, m, scheme)
    rows = stats.as_rows()
    if scheme == "equal_width":
        for r in rows:
            r["bin_center"] = (r["bin"] + 0.5) / m
    return rows, stats


def rejection_curve(p, y, thresholds=None) -> RejectionCurve:
    """Accept samples whose uncertainty ``2*min(p, 1-p)`` is at most ``t``.

    Error is the misclassification rate at ``DECISION_THRESHOLD`` among
    accepted samples; an empty accepted set reports error 0 with count 0.
    """
    p, y = _check_probs(p, y)
    if thresholds is None:
        thresholds = np.arange(0.0, 0.91, 0.1)
    t = np.asarray(thresholds, dtype=np.float64)
    if ((t < 0) | (t > 1)).any():
        raise ValueError("thresholds must lie in [0, 1]")
    u = 2.0 * np.minimum(p, 1.0 - p)
    wrong = (p >= DECISION_THRESHOLD).astype(np.int64) != y
    accepted = np.empty(len(t), dtype=np.int64)
    err = np.empty(len(t))
    for i, ti in enumerate(t):
        mask = u <= ti
        accepted[i] = mask.sum()
        err[i] = float(wrong[mask].mean()) if accepted[i] else 0.0
    return RejectionCurve(t, accepted, err, 1.0 - accepted / len(p))
