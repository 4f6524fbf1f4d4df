"""Calibration and discrimination metrics: binned calibration errors
(equal-width, equal-mass, and cluster-binned), AUC, scalar scores,
reliability-diagram data and rejection curves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BinStats",
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
SCHEMES = ("equal_width", "equal_mass")     # probability binnings of ece and mce
BASES = ("ece", "mce", "adaece")            # the error arithmetics of _gap and cece
REJECTION_THRESHOLDS = tuple(round(0.1 * i, 1) for i in range(10))   # 0.0, 0.1, ..., 0.9


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


def _aligned(**arrays) -> list:
    """The shape rule of every boundary: the named arrays are 1-D, non-empty
    and of one length. Returns them as arrays, in the order given."""
    out = [np.asarray(a) for a in arrays.values()]
    shape = out[0].shape
    if len(shape) != 1 or not shape[0] or {a.shape for a in out} != {shape}:
        names = " and ".join(", ".join(arrays).rsplit(", ", 1))
        raise ValueError(f"{names} must be aligned, non-empty 1-D arrays")
    return out


def _matrix(X, name: str, rows=None, columns=None) -> np.ndarray:
    """The matrix rule of every 2-D boundary: ``X`` is a 2-D array of finite
    values with at least one row, and exactly ``rows`` rows and ``columns``
    columns when those are given. Returns it as float64, without copying a
    float64 array."""
    X = np.asarray(X, dtype=np.float64)
    if (X.ndim != 2 or not len(X) or rows not in (None, len(X))
            or columns not in (None, X.shape[1])):
        raise ValueError(f"{name} must be 2-D, of shape ({'N >= 1' if rows is None else rows}, "
                         f"{'m' if columns is None else columns}), not {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError(f"non-finite {name} values")
    return X


def _cluster_ids(ids, k=None) -> np.ndarray:
    """The cluster-id rule of every boundary, after the shape rule: ``ids``
    have an integer dtype and lie in [0, k), or >= 0 if ``k`` is None."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu" or ids.min() < 0 or (k is not None and ids.max() >= k):
        span = ">= 0" if k is None else f"in [0, {k})"
        raise ValueError(f"cluster ids must be integers {span}")
    return ids.astype(np.intp, copy=False)


def _checked(p, y):
    """``p`` and ``y`` after the shape, label and probability rules."""
    p, y = _aligned(p=p, y=y)
    y, p = _labels(y, "y"), _probabilities(p, "probabilities")
    return p, y


def _blocks(j, n, m):
    """The block that ``np.array_split`` puts position ``j`` of ``n`` in when
    it cuts them into ``m`` blocks: the first ``n % m`` blocks hold one
    position more. Elementwise over arrays."""
    q, r = np.divmod(n, m)
    head = r * (q + 1)                  # positions in the larger blocks
    return np.where(j < head, j // (q + 1), r + (j - head) // np.maximum(q, 1))


def _bin_ids(p, m, scheme, order=None):
    """Each probability's bin among ``m`` bins of ``scheme``. ``order`` is
    ``p``'s stable argsort, when the caller has it already."""
    if scheme == "equal_width":
        # bin i covers ((i-1)/M, i/M]; p == 0 falls in the first bin, and p <= 1
        # keeps p * M <= M, so only the lower end needs a bound
        return np.maximum(np.ceil(p * m).astype(np.int64) - 1, 0)
    if scheme == "equal_mass":
        if order is None:
            order = np.argsort(p, kind="stable")
        ids = np.empty(len(p), dtype=np.int64)
        ids[order] = _blocks(np.arange(len(p)), len(p), m)
        return ids
    raise ValueError(f"unknown binning scheme {scheme!r}")


def _stats_from_ids(p, y, ids, m) -> BinStats:
    counts = np.bincount(ids, minlength=m)
    sums_y = np.bincount(ids, weights=y, minlength=m)
    sums_p = np.bincount(ids, weights=p, minlength=m)
    safe = np.maximum(counts, 1)
    return BinStats(counts, sums_y / safe, sums_p / safe)


def _binned(p, y, m, scheme, order=None):
    """The ``m`` bins of checked ``p`` and ``y``; ``order`` as for ``_bin_ids``."""
    if m < 1:
        raise ValueError("need at least one bin")
    return _stats_from_ids(p, y, _bin_ids(p, m, scheme, order), m)


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
    p, y = _checked(p, y)
    stats = _binned(p, y, m, scheme)
    return _gap(stats, len(p), "ece"), stats


def mce(p, y, m: int = 10, scheme: str = "equal_width"):
    """Maximum calibration error over non-empty bins."""
    p, y = _checked(p, y)
    stats = _binned(p, y, m, scheme)
    return _gap(stats, len(p), "mce"), stats


def ada_ece(p, y, m: int = 10):
    """Adaptive ECE: root count-weighted squared bin gap over equal-mass bins."""
    p, y = _checked(p, y)
    if m > len(p):
        raise ValueError("more bins than samples")
    stats = _binned(p, y, m, "equal_mass")
    return _gap(stats, len(p), "adaece"), stats


def cece(p, y, cluster_labels, base: str = "ece"):
    """Cluster-binned calibration error.

    Applies the arithmetic of the chosen base metric over bins defined by
    cluster membership, which is invariant to recalibration of ``p``.
    """
    p, y, ids = _aligned(p=p, y=y, cluster_labels=cluster_labels)
    y, p, ids = _labels(y, "y"), _probabilities(p, "probabilities"), _cluster_ids(ids)
    stats = _stats_from_ids(p, y, ids, int(ids.max()) + 1)
    return _gap(stats, len(p), base), stats


def _cluster_eces(p, y, ids, m: int, scheme: str):
    """The ECE within each used cluster of checked ``p``, ``y`` and cluster
    ``ids``, with ``min(m, size)`` bins of ``scheme`` per cluster, and the
    used clusters' sizes.

    Each value equals ``ece`` on that cluster's rows: every cluster's bins
    get ids of their own, so one ``bincount`` adds each bin's rows in the
    order the cluster's own call would, and each cluster's weighted gaps
    are summed as one contiguous slice.
    """
    if m < 1:
        raise ValueError("need at least one bin")
    sizes = np.bincount(ids)
    bins = np.minimum(m, sizes)                 # 0 for an unused id
    ends = np.cumsum(bins)
    starts = ends - bins
    if scheme == "equal_mass":
        order = np.lexsort((p, ids))            # stable: by cluster, then p
        c = ids[order]
        within = np.empty(len(p), dtype=np.int64)
        within[order] = _blocks(np.arange(len(p)) - (np.cumsum(sizes) - sizes)[c],
                                sizes[c], bins[c])
    else:
        within = _bin_ids(p, bins[ids], scheme)
    stats = _stats_from_ids(p, y, starts[ids] + within, int(ends[-1]))
    weighted = stats.counts * np.abs(stats.obs_rate - stats.mean_pred)
    used = sizes > 0
    # np.add.reduce is np.sum without its dispatch; each slice keeps its own summation order
    bounds = zip(starts[used].tolist(), ends[used].tolist())
    sums = [np.add.reduce(weighted[a:b]) for a, b in bounds]
    return np.array(sums) / sizes[used], sizes[used]


def _average_ranks(s: np.ndarray, order=None) -> np.ndarray:
    """1-based ranks of ``s``, tied values sharing their group's mean rank;
    ``order`` is ``s``'s stable argsort, when the caller has it already.

    The ranks are half-integers, so they are exact and equal
    ``scipy.stats.rankdata(s, method="average")``.
    """
    if order is None:
        order = np.argsort(s, kind="stable")
    ordered = s[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], len(s))
    ranks = np.empty(len(s))
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks


def _auc(ranks, y) -> float:
    """The Mann-Whitney AUC of scores with average ``ranks`` and labels ``y``."""
    pos = y == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes")
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def auc(scores, y) -> float:
    """ROC-AUC via the Mann-Whitney statistic (ties count half).

    Scores may be any real numbers, ±inf included; a NaN score raises
    ``ValueError``.
    """
    s, y = _aligned(scores=scores, y=y)
    s, y = np.asarray(s, dtype=np.float64), _labels(y, "y")
    if np.isnan(s).any():
        raise ValueError("scores must not be NaN")
    return _auc(_average_ranks(s), y)


def _scalars(p, y) -> dict:
    pc = np.clip(p, CE_EPS, 1 - CE_EPS)
    acc = float(np.mean((p >= DECISION_THRESHOLD).astype(np.int64) == y))
    cross = float(-np.mean(y * np.log(pc) + (1 - y) * np.log(1 - pc)))
    brier = float(np.mean((y - p) ** 2))
    return {"ACC": acc, "CE": cross, "MSE_brier": brier, "RMSE": float(np.sqrt(brier))}


def scalar_metrics(p, y):
    """Accuracy, cross-entropy, Brier score and its root."""
    return _scalars(*_checked(p, y))


def _variant_metrics(p, y, cluster_labels, m: int, scheme: str, cece_base: str):
    """One report row of probabilities ``p`` against labels ``y`` and cluster
    ids ``cluster_labels``, and the ECE bins it was computed from.

    The inputs are checked once, as ``cece`` checks them. The row's values
    equal, in order, ``cece(p, y, cluster_labels, cece_base)``,
    ``ece(p, y, m, scheme)``, ``mce(p, y, m, scheme)``,
    ``ada_ece(p, y, min(m, len(p)))``, ``auc(p, y)`` and
    ``scalar_metrics(p, y)``: ECE and MCE share one binning, and AdaECE's
    bins and AUC's ranks one stable sort of ``p``.
    """
    p, y, ids = _aligned(p=p, y=y, cluster_labels=cluster_labels)
    y, p, ids = _labels(y, "y"), _probabilities(p, "probabilities"), _cluster_ids(ids)
    n = len(p)
    row = {"CECE": _gap(_stats_from_ids(p, y, ids, int(ids.max()) + 1), n, cece_base)}
    order = np.argsort(p, kind="stable")
    bins = _binned(p, y, m, scheme, order)
    row["ECE"], row["MCE"] = _gap(bins, n, "ece"), _gap(bins, n, "mce")
    row["AdaECE"] = _gap(_binned(p, y, min(m, n), "equal_mass", order), n, "adaece")
    row["AUC"] = _auc(_average_ranks(p, order), y)
    row.update(_scalars(p, y))
    return row, bins


def reliability_data(p, y, m: int = 10, scheme: str = "equal_width"):
    """Plot-ready reliability diagram rows (one per bin)."""
    stats = _binned(*_checked(p, y), m, scheme)
    rows = stats.as_rows()
    if scheme == "equal_width":
        for r in rows:
            r["bin_center"] = (r["bin"] + 0.5) / m
    return rows, stats


def rejection_curve(p, y, thresholds=None) -> RejectionCurve:
    """Accept samples whose uncertainty ``2*min(p, 1-p)`` is at most ``t``, for
    each ``t`` of ``thresholds`` (default ``REJECTION_THRESHOLDS``).

    Error is the misclassification rate at ``DECISION_THRESHOLD`` among
    accepted samples; an empty accepted set reports error 0 with count 0.
    """
    p, y = _checked(p, y)
    t = REJECTION_THRESHOLDS if thresholds is None else thresholds
    t = _probabilities(_aligned(thresholds=t)[0], "thresholds")
    u = 2.0 * np.minimum(p, 1.0 - p)
    wrong = (p >= DECISION_THRESHOLD).astype(np.int64) != y
    order = np.argsort(u)
    accepted = np.searchsorted(u[order], t, side="right")        # rows with u <= t
    wrong_count = np.concatenate(([0], np.cumsum(wrong[order])))[accepted]
    # exact integer counts, so each rate is the float wrong[u <= t].mean() gives
    err = np.divide(wrong_count, accepted, out=np.zeros(len(t)), where=accepted > 0)
    return RejectionCurve(t, accepted, err, 1.0 - accepted / len(p))
