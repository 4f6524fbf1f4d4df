"""Per-sample embeddings (SHAP, leaf one-hot, raw, top-k features, external)
and clustering over them: k-means, Ward agglomerative, elbow selection for k,
and cluster diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .gbt import TreeEnsemble, leaf_indices
from .metrics import _aligned, _cluster_ids, _labels, _matrix
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
CLUSTER_METHODS = ("kmeans", "agglomerative")
KMEANS_MAX_ITER = 300


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


def _standardize_rule(kind: str, opts: EmbeddingOpts) -> None:
    """``opts.standardize`` must not ask to standardize a leaf one-hot or an
    external embedding, which ``build_embedding`` returns as they are."""
    if opts.standardize and kind in ("leaf", "external"):
        raise ValueError(f"the {kind} embedding is never standardized, so "
                         "standardize must be false or null")


def build_embedding(kind: str, ens: TreeEnsemble | None, ds: Dataset,
                    opts: EmbeddingOpts = EmbeddingOpts(), vectors=None) -> np.ndarray:
    """Build the requested per-sample representation, an (N, m) array with
    one row per sample that obeys ``metrics._matrix``; ``vectors`` are the
    rows of an ``"external"`` one."""
    if kind in ENSEMBLE_KINDS and ens is None:
        raise ValueError(f"{kind} embedding requires a fitted ensemble")
    _standardize_rule(kind, opts)
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
    return _matrix(V, "embedding", rows=ds.n)


@dataclass(frozen=True)
class ClusterModel:
    """k clusters, one per centroid. ``sizes`` and ``inertia`` describe the
    fit's training partition: Lloyd's last assignment for k-means, the Ward
    cut for agglomerative. Every later stage assigns rows, the training rows
    too, to their nearest centroid (``assign``); a Ward cluster may hold rows
    nearer another centroid, so its size can differ from ``assign``'s count.
    """

    method: str                 # kmeans | agglomerative
    centroids: np.ndarray       # (k, m)
    sizes: np.ndarray           # training cluster sizes
    seed: int = 0
    inertia: float = 0.0

    def __post_init__(self):
        if len(self.sizes) != len(self.centroids):
            raise ValueError(f"there are {len(self.centroids)} centroids, "
                             f"but {len(self.sizes)} sizes")

    @property
    def k(self) -> int:
        return len(self.centroids)


@dataclass(frozen=True)
class ClusterDiagnostics:
    size_variance: float
    label_rate_variance: float
    homogeneity_fraction: float
    table: list = field(default_factory=list)  # per-cluster {cluster, size, positive_rate}


def _reach(V, C, n):
    """The squared norms of V's rows, and the largest norm of a row or of a
    centroid in ``C`` (None: none yet). A squared distance between them, and
    each partial sum computing it, is at most (1 + gamma) 4 reach^2 <= 8 reach^2,
    and an inertia adds ``n`` of them: ValueError unless 8 n reach^2 is finite."""
    with np.errstate(over="ignore"):        # an overflow reads inf and fails below
        vv = (V * V).sum(axis=1)
        reach = np.sqrt(max(vv.max(), 0.0 if C is None else (C * C).sum(axis=1).max()))
    if not reach <= np.sqrt(np.finfo(np.float64).max / (8 * n)):
        # the norms again, without squaring, so the message names a finite value
        largest = max(np.hypot.reduce(W, axis=1).max() for W in (V, C) if W is not None)
        raise ValueError("embedding values too large: squared distances between "
                         f"its rows could overflow (largest norm {largest:.3g})")
    return vv, reach


def _dists(V, C):
    # squared Euclidean distances (N, k), built in place in one (N, k) buffer;
    # ValueError if they could overflow
    vv, _ = _reach(V, C, 1)
    cc = (C * C).sum(axis=1)
    d = (2.0 * V) @ C.T
    np.subtract(vv[:, None], d, out=d)
    d += cc
    np.maximum(d, 0.0, out=d)
    return d


def _assign_nearest(X, B):
    d = X @ B.T     # rows [v, ||v||^2, 1] . centroids [-2c, 1, ||c||^2], unclamped
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
        np.minimum(closest, ((V - centroids[j]) ** 2).sum(axis=1), out=closest)
    return centroids


def _own_and_next(d, labels):
    """Each row's squared distance in ``d`` to its labelled centroid, and to
    the nearest other one (inf when k is 1); overwrites ``d``."""
    flat = np.arange(0, d.size, d.shape[1])       # through flat indices: take is faster
    own = d.take(flat + labels)
    np.put(d, flat + labels, np.inf)
    return own, d.take(flat + d.argmin(axis=1))   # argmin is faster than min on short rows


def fit_kmeans(V, k: int, seed: int = 0, init=None) -> ClusterModel:
    """Lloyd's algorithm from a k-means++ start, at most ``KMEANS_MAX_ITER``
    steps; deterministic given seed.

    ``init`` (k, m), when given, replaces the k-means++ draw from ``seed``.
    Each step sums every cluster's rows in row order with one ``bincount``
    per embedding column. An empty cluster, taken in increasing id order, is
    re-seeded at the point farthest from its centroid (lowest index on ties)
    among points whose cluster keeps at least one member, so every returned
    size is at least 1.

    Each step recomputes only the rows whose nearest centroid may have
    changed (Hamerly's bounds), and the labels, centroids and inertia are
    bit-identical to those of ``_dists`` on every row at every step.
    ValueError if squared distances could overflow (``_reach``).
    """
    V = _matrix(V, "embedding")
    n, m = V.shape
    if k < 1 or k > n:
        raise ValueError(f"k={k} out of range for {n} samples")
    # AT: the rows augmented to [v, ||v||^2, 1], feature-major, so that
    # bincount reads AT[:m] column by column
    AT = np.ones((m + 2, n))
    AT[:m] = V.T
    C = None if init is None else _matrix(init, "init", rows=k, columns=m)
    AT[m], reach = _reach(V, C, n)      # k-means++ draws rows, whose norms are in AT[m]
    if C is None:
        C = _kmeans_pp_init(V, k, np.random.default_rng(seed))
    # Rounding bound of a step. With u = 2^-53 and gamma_j = j u / (1 - j u),
    # the m-term sums ||v||^2 and ||c||^2 are off by at most gamma_m times
    # themselves, and the augmented product [v, ||v||^2, 1].[-2c, 1, ||c||^2]
    # adds m rounded products and two exact ones, so it is off by at most
    # gamma_{m+2} times 2 ||v|| ||c|| + ||v||^2 + ||c||^2, whatever BLAS
    # kernel computed it. Every computed squared distance, clamped at 0 or
    # not, is therefore within eps = gamma_{2m+2} (||v|| + ||c||)^2 of the
    # exact one, and so is _dists' (gamma_{m+3} <= gamma_{2m+2}). Every
    # centroid is a row, an init centroid or a mean of rows, so ||c|| <= reach,
    # and eps_i = s_i^2 with s_i = sqrt(gamma_{2m+2}) (||v_i|| + reach).
    n_terms = 2 * m + 2
    unit = np.finfo(np.float64).eps / 2
    s = np.sqrt(n_terms * unit / (1 - n_terms * unit)) * (np.sqrt(AT[m]) + reach)
    # Hamerly's bounds: upper_i, set to the square root of row i's computed
    # squared distance to its centroid, is within s_i of the exact distance
    # (|sqrt(a) - sqrt(b)| <= sqrt(|a - b|)), and so is lower_i, set from the
    # nearest other centroid. After each update upper_i grows by its own
    # centroid's shift and lower_i shrinks by the largest shift. While
    # lower_i - upper_i > margin_i = 4 s_i, the exact distances to the other
    # centroids exceed the one to its own by more than sqrt(2) s_i, so their
    # squares by more than 2 eps_i, and any rounding keeps the row's label;
    # the (2 - sqrt(2)) s_i left over covers the rounding of the bounds
    # themselves. Only gap = lower - upper - margin is kept, and the rows with
    # gap <= 0 are recomputed.
    margin, tie = 4.0 * s, 4.0 * s * s
    B = np.ones((k, m + 2))
    labels = np.full(n, -1)
    gap = np.full(n, -np.inf)       # the first step computes every row
    for _ in range(KMEANS_MAX_ITER):
        rows = np.flatnonzero(~(gap > 0))     # a NaN gap is recomputed too
        np.multiply(C, -2.0, out=B[:, :m])
        B[:, m + 1] = (C * C).sum(axis=1)
        near, d = _assign_nearest((AT if len(rows) == n else AT.take(rows, axis=1)).T, B)
        own, nxt = _own_and_next(d, near)
        new_labels = labels.copy()
        new_labels[rows] = near
        sizes = np.bincount(new_labels, minlength=k)
        # Both this step's and _dists' distances are within eps_i of the
        # exact ones, so a label picked here by more than 4 eps_i is _dists'
        # too. A near tie, or an empty cluster, whose re-seed reads every
        # row, takes every row's distances from _dists.
        if not (sizes.all() and (nxt - own > tie[rows]).all()):
            rows, d = slice(None), _dists(V, C)
            new_labels = d.argmin(axis=1)
            own, nxt = _own_and_next(d, new_labels)
            sizes = np.bincount(new_labels, minlength=k)
        # the clamp keeps the bound; an augmented distance can be just below 0
        gap[rows] = np.sqrt(np.maximum(nxt, 0.0)) - np.sqrt(np.maximum(own, 0.0)) - margin[rows]
        for j in np.flatnonzero(sizes == 0):    # only in a step that computed every row
            idx = int(np.argmax(np.where(sizes[new_labels] > 1, own, -1.0)))
            sizes[new_labels[idx]] -= 1
            sizes[j] = 1
            new_labels[idx] = j
            gap[idx] = -np.inf       # its bounds were for its old centroid
        prev = C
        C = _centroids(AT[:m], new_labels, sizes)
        moved = np.sqrt(np.square(C - prev).sum(axis=1))
        gap -= moved[new_labels] + moved.max()
        converged = (new_labels == labels).all()
        labels = new_labels
        if converged:
            break
    return ClusterModel("kmeans", C, sizes, seed, _inertia(V, C, labels))


def _ward(V):
    """The Ward linkage of V's rows, or None for a single row; ValueError if
    squared distances could overflow (``_reach``)."""
    from scipy.cluster.hierarchy import linkage   # ~0.6 s to import; only Ward needs it

    _reach(V, None, len(V))
    return linkage(V, method="ward") if len(V) > 1 else None


def fit_agglomerative(V, k: int) -> ClusterModel:
    """Ward-linkage hierarchy cut at k clusters; centroids summarize each
    cluster so new points assign by nearest centroid."""
    V = _matrix(V, "embedding")
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
    sizes = np.bincount(labels)
    C = _centroids(np.ascontiguousarray(V.T), labels, sizes)
    return ClusterModel("agglomerative", C, sizes, 0, _inertia(V, C, labels))


def _elbow_grid(k_range) -> tuple:
    """``k_range`` as (k_min, k_max, step), when k_min >= 2, step >= 1 and the
    grid holds at least 3 points."""
    # the grid has (k_max - k_min) // step + 1 points; len(range) fails past 2^63
    if (len(k_range) != 3 or k_range[0] < 2 or k_range[2] < 1
            or (k_range[1] - k_range[0]) // k_range[2] < 2):
        raise ValueError("elbow grid must be (k_min >= 2, k_max, step >= 1) with at least "
                         f"3 grid points, not {k_range!r}")
    return tuple(k_range)


def select_k_elbow(V, k_range, seed: int = 0,
                   min_cluster_size: int = 0, method: str = "kmeans"):
    """Pick k on the grid ``k_range`` = (k_min, k_max, step) at the largest
    discrete curvature of the inertia curve.

    Returns (model, curve): the model fitted at the chosen k, and a list of
    (k, inertia) pairs. With ``min_cluster_size`` set, grid points whose
    smallest cluster violates the floor are dropped before the curvature scan.
    """
    V = _matrix(V, "embedding")
    if method not in CLUSTER_METHODS:
        raise ValueError(f"method must be one of {CLUSTER_METHODS}, not {method!r}")
    k_min, k_max, step = _elbow_grid(k_range)
    if min_cluster_size < 0:
        raise ValueError(f"min_cluster_size must be >= 0, not {min_cluster_size}")
    ks = [k for k in range(k_min, min(k_max, len(V)) + 1, step)]
    # the grid shares its start: k-means++ draws centroid j from the same
    # generator state whatever k is, and Ward's hierarchy does not depend on k
    if method == "kmeans":
        _reach(V, None, len(V))
        init = _kmeans_pp_init(V, ks[-1], np.random.default_rng(seed)) if ks else None
        models = {k: fit_kmeans(V, k, seed, init[:k]) for k in ks}
    else:
        Z = _ward(V)
        models = {k: _cut_ward(V, k, Z) for k in ks}
    ks = [k for k in ks if models[k].sizes.min() >= min_cluster_size] or ks
    if len(ks) < 3:
        raise ValueError("elbow selection needs at least 3 grid points")
    inertias = np.array([models[k].inertia for k in ks])
    curvature = inertias[:-2] - 2 * inertias[1:-1] + inertias[2:]
    best = int(np.argmax(curvature)) + 1
    curve = list(zip(ks, inertias.tolist()))
    return models[ks[best]], curve


def assign(cm: ClusterModel, V) -> np.ndarray:
    """Nearest-centroid cluster ids of V's rows, which obey ``metrics._matrix``
    with one column per centroid coordinate; ties break to the lowest cluster id.
    ValueError if squared distances could overflow (``_dists``)."""
    V = _matrix(V, "embedding", columns=cm.centroids.shape[1])
    return _dists(V, cm.centroids).argmin(axis=1)


def diagnostics(cm: ClusterModel, labels, y) -> ClusterDiagnostics:
    """Cluster size/label-rate variance and fully-homogeneous fraction of the
    rows with cluster ids ``labels`` in [0, cm.k) and 0/1 labels ``y``."""
    labels, y = _aligned(labels=labels, y=y)
    y, labels, k = _labels(y, "y"), _cluster_ids(labels, cm.k), cm.k
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
