"""Gradient-boosted regression trees for binary classification.

Second-order logistic-loss boosting with exact greedy splits, L2 leaf
regularization and midpoint thresholds. The fitted ensemble exposes
margins, probabilities, leaf indices and serialization; SHAP attributions
live in :mod:`clustercal.treeshap`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .scores import ScoreSet, sigmoid

__all__ = ["Tree", "TreeEnsemble", "GBTParams", "fit_gbt", "predict", "leaf_indices"]

GAIN_EPS = 1e-12
# Cap on the (features x rows) cells one split-scan block holds; a node with
# more cells is scanned in several feature blocks.
SCAN_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class Tree:
    """Flat node arrays; node 0 is the root, feature == -1 marks leaves."""

    feature: np.ndarray    # (n_nodes,) int
    threshold: np.ndarray  # (n_nodes,) float
    left: np.ndarray       # (n_nodes,) int, -1 for leaves
    right: np.ndarray      # (n_nodes,) int
    value: np.ndarray      # (n_nodes,) float, leaf contribution to the margin
    cover: np.ndarray      # (n_nodes,) float, training samples reaching the node

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id reached by each row."""
        node = np.zeros(len(X), dtype=np.int64)
        while True:
            f = self.feature[node]
            internal = f >= 0
            if not internal.any():
                return node
            xv = X[np.arange(len(X)), np.maximum(f, 0)]
            nxt = np.where(xv <= self.threshold[node], self.left[node], self.right[node])
            node = np.where(internal, nxt, node)

    def expected_value(self) -> float:
        """Cover-weighted mean leaf value."""
        def rec(j):
            if self.feature[j] < 0:
                return self.value[j]
            l, r = self.left[j], self.right[j]
            return (self.cover[l] * rec(l) + self.cover[r] * rec(r)) / self.cover[j]
        return float(rec(0))


@dataclass(frozen=True)
class GBTParams:
    n_trees: int = 200
    max_depth: int = 6
    learning_rate: float = 0.1
    min_child_weight: float = 1.0
    lambda_l2: float = 1.0

    def __post_init__(self):
        if self.n_trees < 0 or self.max_depth < 1:
            raise ValueError("n_trees must be >= 0 and max_depth >= 1")
        if not all(map(math.isfinite, (self.learning_rate, self.min_child_weight, self.lambda_l2))):
            raise ValueError("learning_rate and regularizers must be finite")
        if self.learning_rate <= 0 or self.min_child_weight < 0 or self.lambda_l2 < 0:
            raise ValueError("learning_rate must be positive, regularizers non-negative")


@dataclass(frozen=True)
class TreeEnsemble:
    trees: tuple[Tree, ...]
    base_score: float
    n_features: int
    params: GBTParams = field(default_factory=GBTParams)
    train_loss: tuple[float, ...] = ()
    # the training rows' margins as the fit left them; None after from_dict.
    # Not part of the model: repr, == and so the written JSON leave it out
    train_margins: np.ndarray | None = field(default=None, repr=False, compare=False)

    def margins(self, X: np.ndarray) -> np.ndarray:
        X = self._check(X)
        out = np.full(len(X), self.base_score)
        for tree in self.trees:
            out += tree.value[tree.apply(X)]
        return out

    def _check(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} feature columns, got {X.shape}")
        # a NaN fails every `<=` and would silently go right at each split
        if not np.isfinite(X).all():
            raise ValueError("features must be finite")
        return X

    # serialization: harness._jsonable writes the fields == compares
    @classmethod
    def from_dict(cls, d: dict) -> "TreeEnsemble":
        trees = tuple(
            Tree(
                np.asarray(t["feature"], dtype=np.int64),
                np.asarray(t["threshold"], dtype=np.float64),
                np.asarray(t["left"], dtype=np.int64),
                np.asarray(t["right"], dtype=np.int64),
                np.asarray(t["value"], dtype=np.float64),
                np.asarray(t["cover"], dtype=np.float64),
            )
            for t in d["trees"]
        )
        return cls(trees, float(d["base_score"]), int(d["n_features"]),
                   GBTParams(**d["params"]), tuple(d.get("train_loss", ())))


def _best_split(X, order, gh, G, H, lam, min_child_weight):
    """Exact greedy split of one node; midpoint thresholds.

    ``order`` is the node's (d, n) presorted block: row j lists the node's
    rows sorted by feature j. ``gh`` packs each row's gradient and hessian as
    ``g + 1j * h``, so one gather and one cumsum give both prefix sums; complex
    addition adds the parts separately, so each sum is the float the two real
    cumsums give. Features are scanned in blocks of at most about
    ``SCAN_BLOCK_CELLS`` (features x rows) cells. Ties resolve to the lowest
    feature index, then the lowest threshold.
    Returns (gain, feature, threshold) or None.
    """
    d, n = order.shape
    parent = G * G / (H + lam)
    step = max(1, SCAN_BLOCK_CELLS // n)
    best = None
    for j0 in range(0, d, step):
        rows = order[j0:j0 + step]
        feats = np.arange(j0, j0 + len(rows))
        xs = X[rows, feats[:, None]]
        ghc = np.cumsum(gh[rows], axis=1)[:, :-1]
        # contiguous copies: the arithmetic below is slower on strided views
        gc, hc = ghc.real.copy(), ghc.imag.copy()
        del ghc
        valid = xs[:, :-1] < xs[:, 1:]
        valid &= hc >= min_child_weight
        # in place, in the operation order of
        # 0.5 * (gc**2 / (hc + lam) + (G - gc)**2 / (H - hc + lam) - parent)
        # so every gain is bit-identical to that expression
        right_h = np.subtract(H, hc)
        valid &= right_h >= min_child_weight
        right_h += lam
        gains = np.square(gc)
        hc += lam
        gains /= hc
        right_g = np.subtract(G, gc, out=gc)
        np.square(right_g, out=right_g)
        right_g /= right_h
        gains += right_g
        gains -= parent
        gains *= 0.5
        invalid = np.logical_not(valid, out=valid)
        np.copyto(gains, -np.inf, where=invalid)
        pos = gains.argmax(axis=1)  # first max = lowest threshold
        top = gains[np.arange(len(rows)), pos]
        top[~(top > GAIN_EPS)] = -np.inf  # also drops NaN
        k = int(top.argmax())  # first max = lowest feature
        if top[k] > GAIN_EPS and (best is None or top[k] > best[0]):
            best = (float(top[k]), int(feats[k]), float((xs[k, pos[k]] + xs[k, pos[k] + 1]) / 2))
    return best


def _partition(order, keep):
    """Stable partition: each row of ``order`` restricted to the rows flagged in ``keep``."""
    return np.compress(keep[order].ravel(), order).reshape(len(order), -1)


def _build_tree(X, order, g, h, gh, params: GBTParams, margin) -> Tree:
    """Grow one tree; ``order`` is the fit's (d, N) presorted row order and
    ``gh`` the packed ``g + 1j * h`` that the split scan reads.

    Each node is built from its rows and their presorted order, which is
    None for a node that cannot split (at ``max_depth`` or with fewer than
    2 rows): no scan reads it, so it is not partitioned. Each leaf adds its
    value to its rows' entries of ``margin``: one add per row, the same
    float ``margin += tree.value[tree.apply(X)]`` would add.
    """
    feature, threshold, left, right, value, cover = [], [], [], [], [], []
    child = np.zeros(len(X), dtype=bool)  # per-row flag: goes to the child being built

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        cover.append(0.0)
        return len(feature) - 1

    def build(idx, order, depth):
        j = new_node()
        cover[j] = float(len(idx))
        G, H = g[idx].sum(), h[idx].sum()
        split = None
        if order is not None:
            split = _best_split(X, order, gh, G, H, params.lambda_l2,
                                params.min_child_weight)
        if split is None:
            value[j] = float(-G / (H + params.lambda_l2) * params.learning_rate)
            margin[idx] += value[j]
            return j
        _, f, t = split
        feature[j] = f
        threshold[j] = t
        mask = X[idx, f] <= t
        # only this node's entries of `child` are read; the left subtree
        # overwrites them, so they are set again for the right child
        kids = []
        for keep in (mask, ~mask):
            rows = idx[keep]
            child[idx] = keep
            scan = depth + 1 < params.max_depth and len(rows) >= 2
            kids.append(build(rows, _partition(order, child) if scan else None, depth + 1))
        left[j], right[j] = kids
        return j

    build(np.arange(len(X)), order, 0)  # fit_gbt's checks let the root split: 2+ rows
    # `build` refers to itself through its closure; drop that cycle so the
    # node lists and `child` are freed now, not at the next cyclic collection
    del build
    return Tree(np.asarray(feature, dtype=np.int64), np.asarray(threshold),
                np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64),
                np.asarray(value), np.asarray(cover))


def fit_gbt(train: Dataset, params: GBTParams = GBTParams()) -> TreeEnsemble:
    """Train a boosted-tree binary classifier on the training split.

    Training is deterministic: exact greedy boosting draws no random numbers.
    Each feature is sorted once per fit; every node scans the presorted
    order of its rows, so no node sorts. The returned ensemble carries the
    training rows' margins, which equal ``margins(train.features)`` bit for bit.
    """
    X, y = train.features, train.labels.astype(np.float64)
    if (y == y[0]).all():
        raise ValueError("training set has a single class")
    if X.shape[1] == 0:
        raise ValueError("no usable features")
    order = np.argsort(X, axis=0, kind="stable").T.copy()
    rate = float(y.mean())
    base = math.log(rate / (1 - rate))
    margin = np.full(len(y), base)
    gh = np.empty(len(y), dtype=np.complex128)  # per fit: each tree refills it
    trees, losses = [], []
    losses.append(_logloss(margin, y))
    for _ in range(params.n_trees):
        with np.errstate(over="ignore"):  # a margin below -709.78 gives p = 0.0
            p = sigmoid(margin)
        g = p - y
        h = p * (1 - p)
        gh.real, gh.imag = g, h
        trees.append(_build_tree(X, order, g, h, gh, params, margin))
        losses.append(_logloss(margin, y))
    return TreeEnsemble(tuple(trees), base, X.shape[1], params, tuple(losses), margin)


def _logloss(margin, y) -> float:
    # numerically stable mean logistic loss
    return float(np.mean(np.logaddexp(0.0, margin) - y * margin))


def predict(ens: TreeEnsemble, X) -> ScoreSet:
    """Margins and logistic probabilities for each row of X."""
    return ScoreSet.from_margins(ens.margins(np.asarray(X, dtype=np.float64)))


def leaf_indices(ens: TreeEnsemble, X) -> np.ndarray:
    """(N, n_trees) matrix of reached leaf node ids."""
    X = ens._check(np.asarray(X, dtype=np.float64))
    if not ens.trees:
        return np.zeros((len(X), 0), dtype=np.int64)
    return np.column_stack([t.apply(X) for t in ens.trees])
