"""Brute-force Shapley values: the independent oracle for TreeSHAP.

Enumerates every feature subset of each tree, so it is exponential in the
number of features a tree splits on; only usable for small trees.
"""

import math
from itertools import combinations

import numpy as np

from clustercal.gbt import Tree, TreeEnsemble
from clustercal.treeshap import expected_value


def _exp_value_subset(tree: Tree, x, subset: frozenset, node: int = 0) -> float:
    """Conditional expectation: follow x on subset features, cover-average otherwise."""
    if tree.feature[node] < 0:
        return float(tree.value[node])
    f = tree.feature[node]
    l, r = tree.left[node], tree.right[node]
    if f in subset:
        child = l if x[f] <= tree.threshold[node] else r
        return _exp_value_subset(tree, x, subset, child)
    wl, wr = tree.cover[l], tree.cover[r]
    return (wl * _exp_value_subset(tree, x, subset, l)
            + wr * _exp_value_subset(tree, x, subset, r)) / tree.cover[node]


def brute_force_shap(ens: TreeEnsemble, X) -> tuple[np.ndarray, float]:
    """Exact Shapley values by enumerating all feature subsets per tree."""
    X = ens._check(np.asarray(X, dtype=np.float64))
    phi = np.zeros((len(X), ens.n_features))
    for tree in ens.trees:
        feats = sorted({int(f) for f in tree.feature if f >= 0})
        m = len(feats)
        if m == 0:
            continue
        for s in range(len(X)):
            x = X[s]
            cache = {}

            def ev(sub):
                if sub not in cache:
                    cache[sub] = _exp_value_subset(tree, x, sub)
                return cache[sub]

            for f in feats:
                others = [g for g in feats if g != f]
                total = 0.0
                for k in range(m):
                    weight = math.factorial(k) * math.factorial(m - k - 1) / math.factorial(m)
                    for sub in combinations(others, k):
                        fs = frozenset(sub)
                        total += weight * (ev(fs | {f}) - ev(fs))
                phi[s, f] += total
    return phi, expected_value(ens)
