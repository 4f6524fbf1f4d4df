"""Per-sample embeddings (SHAP, leaf one-hot, raw, top-k features, external)
and clustering over them: k-means, Ward agglomerative, elbow selection for k,
and cluster diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .gbt import TreeEnsemble, leaf_indices
from .treeshap import shap_values

__all__ = [
    "EmbeddingOpts",
    "ClusterModel",
    "ClusterDiagnostics",
    "build_embedding",
    "fit_kmeans",
    "fit_agglomerative",
    "select_k_elbow",
    "assign",
    "diagnostics",
]

EMBEDDING_KINDS = ("shap", "leaf", "raw", "topk", "external")
ENSEMBLE_KINDS = ("shap", "leaf", "topk")    # the kinds built from a fitted ensemble
KMEANS_MAX_ITER = 300


def _embedding(V) -> np.ndarray:
    """The embedding rule of every boundary: ``V`` is a 2-D (N, m) array of
    finite values, returned as float64."""
    V = np.asarray(V, dtype=np.float64)
    if V.ndim != 2:
        raise ValueError("embedding must be 2-D")
    if not np.isfinite(V).all():
        raise ValueError("non-finite embedding values")
    return V


def _standardize(V):
    mean = V.mean(axis=0)
    std = V.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return (V - mean) / std


def topk_feature_indices(ens: TreeEnsemble, fraction: float) -> np.ndarray:
    """Indices of the top-ceil(fraction * d) features by total split gain.

    Gain proxy: sum over split nodes of cover-weighted usage. Ties break by
    lower feature index.
    """
    gains = np.zeros(ens.n_features)
    for tree in ens.trees:
        for j in range(tree.n_nodes):
            f = tree.feature[j]
            if f >= 0:
                gains[f] += tree.cover[j]
    if gains.max() <= 0:
        raise ValueError("model has no splits; top-k embedding undefined")
    k = int(np.ceil(fraction * ens.n_features))
    order = np.lexsort((np.arange(len(gains)), -gains))
    return np.sort(order[:k])


@dataclass(frozen=True)
class EmbeddingOpts:
    """``standardize`` (None: raw and top-k features yes, SHAP vectors, which
    share the margin's scale, no) and the share of features by split gain
    that a top-k embedding keeps."""

    standardize: bool | None = None
    topk_fraction: float = 0.15

    def __post_init__(self):
        if not 0 < self.topk_fraction <= 1:
            raise ValueError(f"topk_fraction must be in (0, 1], not {self.topk_fraction!r}")


def build_embedding(kind: str, ens: TreeEnsemble | None, ds: Dataset,
                    opts: EmbeddingOpts = EmbeddingOpts(), vectors=None) -> np.ndarray:
    """Build the requested per-sample representation, an (N, m) array that
    obeys ``_embedding``; ``vectors`` are the rows of an ``"external"`` one."""
    if kind in ENSEMBLE_KINDS and ens is None:
        raise ValueError(f"{kind} embedding requires a fitted ensemble")
    if kind == "shap":
        phi, _ = shap_values(ens, ds.features)
        V = _standardize(phi) if opts.standardize else phi
    elif kind == "leaf":
        leaves = leaf_indices(ens, ds.features)
        blocks = []
        for t, tree in enumerate(ens.trees):
            leaf_ids = np.flatnonzero(tree.feature < 0)
            onehot = (leaves[:, t][:, None] == leaf_ids[None, :]).astype(np.float64)
            blocks.append(onehot)
        V = np.hstack(blocks) if blocks else np.zeros((ds.n, 0))
    elif kind in ("raw", "topk"):
        if kind == "topk":
            V = ds.features[:, topk_feature_indices(ens, opts.topk_fraction)]
        else:
            V = ds.features
        V = _standardize(V) if opts.standardize is not False else np.array(V)
    elif kind == "external":
        V = vectors
    else:
        raise ValueError(f"unknown embedding kind {kind!r}")
    V = _embedding(V)
    if kind == "external" and len(V) != ds.n:
        raise ValueError("external embedding row count mismatch")
    return V


@dataclass(frozen=True)
class ClusterModel:
    method: str                 # kmeans | agglomerative
    k: int
    centroids: np.ndarray       # (k, m)
    sizes: np.ndarray           # training cluster sizes
    positives: np.ndarray       # training positive counts (0 when labels unknown)
    seed: int = 0
    inertia: float = 0.0

    @classmethod
    def from_dict(cls, d: dict) -> "ClusterModel":
        return cls(d["method"], int(d["k"]), np.asarray(d["centroids"], dtype=np.float64),
                   np.asarray(d["sizes"], dtype=np.int64),
                   np.asarray(d["positives"], dtype=np.int64),
                   int(d.get("seed", 0)), float(d.get("inertia", 0.0)))


@dataclass(frozen=True)
class ClusterDiagnostics:
    size_variance: float
    label_rate_variance: float
    homogeneity_fraction: float
    table: list = field(default_factory=list)  # per-cluster {cluster, size, positive_rate}


def _dists(V, C):
    # squared Euclidean distances (N, k), built in place in one (N, k) buffer
    vv = (V * V).sum(axis=1)
    cc = (C * C).sum(axis=1)
    d = (2.0 * V) @ C.T
    np.subtract(vv[:, None], d, out=d)
    d += cc
    np.maximum(d, 0.0, out=d)
    return d


def _assign_nearest(V, C):
    d = _dists(V, C)
    return d.argmin(axis=1), d


def _centroids(VT, labels, sizes):
    # per-cluster means from the column-major embedding VT (m, N): one bincount
    # per column adds each cluster's rows in row order, as a masked mean would
    C = np.empty((len(sizes), len(VT)))
    for c, col in enumerate(VT):
        C[:, c] = np.bincount(labels, weights=col, minlength=len(sizes))
    C /= sizes[:, None]
    return C


def _inertia(V, C, labels):
    # in one (N, m) buffer, so the peak stays that of the fit
    resid = C[labels]
    np.subtract(V, resid, out=resid)
    return float(np.square(resid, out=resid).sum())


def _kmeans_pp_init(V, k, rng):
    n = len(V)
    centroids = np.empty((k, V.shape[1]))
    centroids[0] = V[int(rng.integers(n))]
    closest = ((V - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centroids[j] = V[int(rng.integers(n))]
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(closest), r))
            centroids[j] = V[min(idx, n - 1)]
        closest = np.minimum(closest, ((V - centroids[j]) ** 2).sum(axis=1))
    return centroids


def fit_kmeans(V, k: int, seed: int = 0, init=None) -> ClusterModel:
    """Lloyd's algorithm from a k-means++ start, at most ``KMEANS_MAX_ITER``
    steps; deterministic given seed.

    ``init`` (k, m), when given, replaces the k-means++ draw from ``seed``.
    Each step sums every cluster's rows in row order with one ``bincount``
    per embedding column. An empty cluster, taken in increasing id order, is
    re-seeded at the point farthest from its centroid (lowest index on ties)
    among points whose cluster keeps at least one member, so every returned
    size is at least 1.
    """
    V = _embedding(V)
    if k < 1 or k > len(V):
        raise ValueError(f"k={k} out of range for {len(V)} samples")
    if init is None:
        C = _kmeans_pp_init(V, k, np.random.default_rng(seed))
    elif np.shape(init) == (k, V.shape[1]):
        C = init
    else:
        raise ValueError(f"init must have shape {(k, V.shape[1])}, not {np.shape(init)}")
    VT = np.ascontiguousarray(V.T)  # bincount reads each column contiguously
    labels = np.full(len(V), -1)
    for _ in range(KMEANS_MAX_ITER):
        new_labels, d = _assign_nearest(V, C)
        sizes = np.bincount(new_labels, minlength=k)
        for j in np.flatnonzero(sizes == 0):
            far = np.where(sizes[new_labels] > 1, d[np.arange(len(V)), new_labels], -1.0)
            idx = int(np.argmax(far))
            sizes[new_labels[idx]] -= 1
            sizes[j] = 1
            new_labels[idx] = j
        C = _centroids(VT, new_labels, sizes)
        converged = (new_labels == labels).all()
        labels = new_labels
        if converged:
            break
    return ClusterModel("kmeans", k, C, sizes, np.zeros(k, dtype=np.int64), seed,
                        _inertia(V, C, labels))


def _ward(V):
    """The Ward linkage of V's rows, or None for a single row."""
    from scipy.cluster.hierarchy import linkage   # ~0.6 s to import; only Ward needs it

    return linkage(V, method="ward") if len(V) > 1 else None


def fit_agglomerative(V, k: int) -> ClusterModel:
    """Ward-linkage hierarchy cut at k clusters; centroids summarize each
    cluster so new points assign by nearest centroid."""
    V = _embedding(V)
    return _cut_ward(V, k, _ward(V))


def _cut_ward(V, k: int, Z) -> ClusterModel:
    """The agglomerative model of V from its Ward linkage ``Z`` cut at k clusters."""
    if k < 1 or k > len(V):
        raise ValueError(f"k={k} out of range for {len(V)} samples")
    if Z is None:
        labels = np.zeros(1, dtype=np.int64)
    else:
        from scipy.cluster.hierarchy import fcluster

        raw = fcluster(Z, t=k, criterion="maxclust")
        # relabel clusters by first appearance for determinism
        labels = np.empty(len(V), dtype=np.int64)
        seen = {}
        for i, c in enumerate(raw):
            labels[i] = seen.setdefault(int(c), len(seen))
    k_eff = int(labels.max()) + 1
    sizes = np.bincount(labels, minlength=k_eff)
    C = _centroids(np.ascontiguousarray(V.T), labels, sizes)
    return ClusterModel("agglomerative", k_eff, C, sizes,
                        np.zeros(k_eff, dtype=np.int64), 0, _inertia(V, C, labels))


def _elbow_grid(k_range) -> tuple:
    """``k_range`` as (k_min, k_max, step), when k_min >= 2 and step >= 1."""
    if len(k_range) != 3 or k_range[0] < 2 or k_range[2] < 1:
        raise ValueError(f"elbow grid must be (k_min >= 2, k_max, step >= 1), not {k_range!r}")
    return tuple(k_range)


def select_k_elbow(V, k_range, seed: int = 0,
                   min_cluster_size: int = 0, method: str = "kmeans"):
    """Pick k on the grid ``k_range`` = (k_min, k_max, step) at the largest
    discrete curvature of the inertia curve.

    Returns (model, curve): the model fitted at the chosen k, and a list of
    (k, inertia) pairs. With ``min_cluster_size`` set, grid points whose
    smallest cluster violates the floor are dropped before the curvature scan.
    """
    V = _embedding(V)
    k_min, k_max, step = _elbow_grid(k_range)
    ks = [k for k in range(k_min, min(k_max, len(V)) + 1, step)]
    # the grid shares its start: k-means++ draws centroid j from the same
    # generator state whatever k is, and Ward's hierarchy does not depend on k
    if method == "kmeans":
        init = _kmeans_pp_init(V, ks[-1], np.random.default_rng(seed)) if ks else None
        models = {k: fit_kmeans(V, k, seed, init[:k]) for k in ks}
    else:
        Z = _ward(V)
        models = {k: _cut_ward(V, k, Z) for k in ks}
    if min_cluster_size > 0:
        ks = [k for k in ks if models[k].sizes.min() >= min_cluster_size] or ks
    if len(ks) < 3:
        raise ValueError("elbow selection needs at least 3 grid points")
    inertias = np.array([models[k].inertia for k in ks])
    curvature = inertias[:-2] - 2 * inertias[1:-1] + inertias[2:]
    best = int(np.argmax(curvature)) + 1
    curve = list(zip(ks, inertias.tolist()))
    return models[ks[best]], curve


def assign(cm: ClusterModel, V) -> np.ndarray:
    """Nearest-centroid cluster ids of V's rows; ties break to the lowest cluster id."""
    V = _embedding(V)
    if V.shape[1] != cm.centroids.shape[1]:
        raise ValueError("embedding dimension does not match cluster model")
    labels, _ = _assign_nearest(V, cm.centroids)
    return labels


def diagnostics(cm: ClusterModel, labels, y) -> ClusterDiagnostics:
    """Cluster size/label-rate variance and fully-homogeneous fraction."""
    labels = np.asarray(labels)
    y = np.asarray(y)
    if labels.shape != y.shape:
        raise ValueError("labels and y must be aligned")
    k = cm.k
    if k < 1:
        raise ValueError("empty cluster set")
    sizes = np.bincount(labels, minlength=k)
    pos = np.bincount(labels, weights=y, minlength=k)
    rates = np.divide(pos, sizes, out=np.zeros(k), where=sizes > 0)
    occupied = sizes > 0
    homog = ((rates == 0) | (rates == 1)) & occupied
    table = [
        {"cluster": int(j), "size": int(sizes[j]), "positive_rate": float(rates[j])}
        for j in range(k)
    ]
    return ClusterDiagnostics(
        size_variance=float(np.var(sizes)),
        label_rate_variance=float(np.var(rates[occupied])),
        homogeneity_fraction=float(homog.sum() / k),
        table=table,
    )
