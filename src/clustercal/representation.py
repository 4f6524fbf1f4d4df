"""Per-sample embeddings (SHAP, leaf one-hot, raw, top-k features, external)
and clustering over them: k-means, Ward agglomerative, elbow selection for k,
and cluster diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage

from .data import Dataset
from .gbt import TreeEnsemble, leaf_indices
from .treeshap import shap_values

__all__ = [
    "EmbeddingMatrix",
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
KMEANS_MAX_ITER = 300


@dataclass(frozen=True)
class EmbeddingMatrix:
    kind: str
    vectors: np.ndarray                   # (N, m)

    def __post_init__(self):
        V = np.asarray(self.vectors, dtype=np.float64)
        object.__setattr__(self, "vectors", V)
        if V.ndim != 2:
            raise ValueError("embedding must be 2-D")
        if not np.isfinite(V).all():
            raise ValueError("non-finite embedding values")
        if self.kind not in EMBEDDING_KINDS:
            raise ValueError(f"unknown embedding kind {self.kind!r}")

    @property
    def m(self) -> int:
        return self.vectors.shape[1]


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


def build_embedding(kind: str, ens: TreeEnsemble | None, ds: Dataset,
                    opts: dict | None = None) -> EmbeddingMatrix:
    """Build the requested per-sample representation.

    SHAP vectors are left unstandardized (they share the margin's scale);
    raw and top-k features are standardized by default.
    """
    opts = opts or {}
    if kind in ("shap", "leaf", "topk") and ens is None:
        raise ValueError(f"{kind} embedding requires a fitted ensemble")
    if kind == "shap":
        phi, _ = shap_values(ens, ds.features)
        if opts.get("standardize", False):
            phi = _standardize(phi)
        return EmbeddingMatrix(kind, phi)
    if kind == "leaf":
        leaves = leaf_indices(ens, ds.features)
        blocks = []
        for t, tree in enumerate(ens.trees):
            leaf_ids = np.flatnonzero(tree.feature < 0)
            onehot = (leaves[:, t][:, None] == leaf_ids[None, :]).astype(np.float64)
            blocks.append(onehot)
        V = np.hstack(blocks) if blocks else np.zeros((ds.n, 0))
        return EmbeddingMatrix(kind, V)
    if kind in ("raw", "topk"):
        if kind == "topk":
            fraction = opts.get("topk_fraction", 0.15)
            if not 0 < fraction <= 1:
                raise ValueError("topk_fraction must be in (0, 1]")
            cols = topk_feature_indices(ens, fraction)
            V = ds.features[:, cols]
        else:
            V = ds.features
        if opts.get("standardize", True):
            return EmbeddingMatrix(kind, _standardize(V))
        return EmbeddingMatrix(kind, np.array(V))
    if kind == "external":
        V = np.asarray(opts["vectors"], dtype=np.float64)
        if len(V) != ds.n:
            raise ValueError("external embedding row count mismatch")
        return EmbeddingMatrix(kind, V)
    raise ValueError(f"unknown embedding kind {kind!r}")


@dataclass(frozen=True)
class ClusterModel:
    method: str                 # kmeans | agglomerative
    k: int
    centroids: np.ndarray       # (k, m)
    sizes: np.ndarray           # training cluster sizes
    positives: np.ndarray       # training positive counts (0 when labels unknown)
    seed: int = 0
    inertia: float = 0.0

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "k": self.k,
            "centroids": self.centroids.tolist(),
            "sizes": self.sizes.tolist(),
            "positives": self.positives.tolist(),
            "seed": self.seed,
            "inertia": self.inertia,
        }

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


def fit_kmeans(E: EmbeddingMatrix, k: int, seed: int = 0) -> ClusterModel:
    """Lloyd's algorithm from a k-means++ start, at most ``KMEANS_MAX_ITER``
    steps; deterministic given seed.

    Each step sums every cluster's rows in row order with one ``bincount``
    per embedding column. An empty cluster, taken in increasing id order, is
    re-seeded at the point farthest from its centroid (lowest index on ties)
    among points whose cluster keeps at least one member, so every returned
    size is at least 1.
    """
    V = E.vectors
    if k < 1 or k > len(V):
        raise ValueError(f"k={k} out of range for {len(V)} samples")
    rng = np.random.default_rng(seed)
    C = _kmeans_pp_init(V, k, rng)
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


def fit_agglomerative(E: EmbeddingMatrix, k: int) -> ClusterModel:
    """Ward-linkage hierarchy cut at k clusters; centroids summarize each
    cluster so new points assign by nearest centroid."""
    V = E.vectors
    if k < 1 or k > len(V):
        raise ValueError(f"k={k} out of range for {len(V)} samples")
    if len(V) == 1:
        labels = np.zeros(1, dtype=np.int64)
    else:
        Z = linkage(V, method="ward")
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


def select_k_elbow(E: EmbeddingMatrix, k_range=(5, 100, 5), seed: int = 0,
                   min_cluster_size: int = 0, method: str = "kmeans"):
    """Pick k at the largest discrete curvature of the inertia curve.

    Returns (model, curve): the model fitted at the chosen k, and a list of
    (k, inertia) pairs. With ``min_cluster_size`` set, grid points whose
    smallest cluster violates the floor are dropped before the curvature scan.
    """
    k_min, k_max, step = k_range
    if k_min < 2:
        raise ValueError("k_min must be >= 2")
    ks = [k for k in range(k_min, min(k_max, len(E.vectors)) + 1, step)]
    models = {}
    for k in ks:
        models[k] = (fit_kmeans(E, k, seed) if method == "kmeans"
                     else fit_agglomerative(E, k))
    if min_cluster_size > 0:
        ks = [k for k in ks if models[k].sizes.min() >= min_cluster_size] or ks
    if len(ks) < 3:
        raise ValueError("elbow selection needs at least 3 grid points")
    inertias = np.array([models[k].inertia for k in ks])
    curvature = inertias[:-2] - 2 * inertias[1:-1] + inertias[2:]
    best = int(np.argmax(curvature)) + 1
    curve = list(zip(ks, inertias.tolist()))
    return models[ks[best]], curve


def assign(cm: ClusterModel, E: EmbeddingMatrix | np.ndarray) -> np.ndarray:
    """Nearest-centroid cluster ids; ties break to the lowest cluster id."""
    V = E.vectors if isinstance(E, EmbeddingMatrix) else np.asarray(E, dtype=np.float64)
    if V.shape[1] != cm.centroids.shape[1]:
        raise ValueError("embedding dimension does not match cluster model")
    if not np.isfinite(V).all():
        raise ValueError("embedding rows must be finite")
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
