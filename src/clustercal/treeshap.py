"""Exact path-dependent SHAP attributions for tree ensembles.

Implements exact path-dependent TreeSHAP with cover-weighted expectations
(Lundberg et al. 2020), evaluated one root-to-leaf path at a time as in
Fast TreeSHAP v2 (Yang 2021) so that numpy carries the work;
``shap_values`` returns per-feature attributions whose sum plus the base
value reproduces each margin exactly. A leaf's attributions depend on a row
only through which of its path features the row satisfies, so they are
tabulated by that pattern; the tables of all leaves with the same path
length in a chunk of leaves are built by one batched EXTEND/UNWIND.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .gbt import TreeEnsemble, Tree

__all__ = ["shap_values", "expected_value"]

# Cap on the pattern-table cells (leaves x 2**m patterns x m) built at once;
# more leaves are tabulated in several chunks.
TABLE_BLOCK_CELLS = 1 << 16


def _attributions(z, o, values):
    """Attributions of L paths of length m to their elements at B patterns.

    ``z`` (L, m) holds the paths' zero fractions, ``values`` (L,) their leaf
    values and ``o`` (m, B) the one fractions (each 0 or 1) shared by every
    path. Each path starts with a dummy element (zero and one fraction 1) and
    is EXTENDed by every element; UNWINDing an element gives the sum of the
    permutation weights of the path without it. Returns (L, m, B). The work
    arrays are element-major, so each step acts on whole (L, B) blocks.
    """
    L, m = z.shape
    l = m + 1
    zt = z.T[:, :, None]  # (m, L, 1)
    ot = o[:, None, :]    # (m, 1, B)
    w = np.zeros((l, L, o.shape[1]))
    w[0] = 1.0
    for k in range(1, l):
        i = np.arange(k)[:, None, None]
        one = ot[k - 1] * w[:k] * (i + 1) / (k + 1)
        w[:k] = zt[k - 1] * w[:k] * (k - i) / (k + 1)
        w[1:k + 1] += one
    nxt = w[l - 1]  # the same for every element until its first UNWIND step
    total_one = np.zeros((m,) + w.shape[1:])
    total_zero = np.zeros((m,) + w.shape[1:])
    for j in range(l - 2, -1, -1):
        tmp = nxt * l / (j + 1)
        total_one += tmp
        nxt = w[j] - tmp * zt * (l - 1 - j) / l
        total_zero += w[j] * l / (zt * (l - 1 - j))
    sums = np.where(ot != 0, total_one, total_zero)
    return (sums * (ot - zt) * values[:, None]).transpose(1, 0, 2)


def _leaf_paths(tree: Tree):
    """Each leaf's value and its root-to-leaf path with repeated features merged.

    Yields ``(value, feats, z, conds)``: the path's distinct features, the
    product of each one's cover ratios, and per feature the (internal node,
    goes-left) conditions a sample must meet for its one fraction to be 1.
    """
    if np.any(tree.cover <= 0):
        raise ValueError("tree has a node with non-positive cover")
    stack = [(0, ())]
    while stack:
        node, path = stack.pop()
        if tree.feature[node] >= 0:
            for child, left in ((int(tree.left[node]), True), (int(tree.right[node]), False)):
                stack.append((child, path + ((node, child, left),)))
            continue
        if not path:
            continue
        merged = {}
        for parent, child, left in path:
            f = int(tree.feature[parent])
            z, conds = merged.get(f, (1.0, ()))
            merged[f] = (z * tree.cover[child] / tree.cover[parent], conds + ((parent, left),))
        yield (tree.value[node], list(merged), np.array([z for z, _ in merged.values()]),
               [conds for _, conds in merged.values()])


def _patterns(m):
    """(m, 2**m): column p holds the bits of p, element e's one fraction in bit e."""
    return (np.arange(2 ** m) >> np.arange(m)[:, None]) & 1


def _pattern_tables(chunk, n):
    """Each leaf's (m, 2**m) attributions by one-fraction pattern, or None
    for a leaf computed per row (2**m > n).

    ``chunk`` holds ``(tree, value, feats, z, conds)`` leaves. The tabulated
    leaves with the same path length m share one batched :func:`_attributions`
    call.
    """
    by_m = {}
    for pos, (_, _, _, z, _) in enumerate(chunk):
        if 2 ** len(z) <= n:
            by_m.setdefault(len(z), []).append(pos)
    tables = [None] * len(chunk)
    for m, group in by_m.items():
        batch = _attributions(np.array([chunk[p][3] for p in group]), _patterns(m),
                              np.array([chunk[p][1] for p in group]))
        for p, table in zip(group, batch):
            tables[p] = table
    return tables


def _chunks(leaves, n):
    """Consecutive runs of ``leaves`` whose pattern tables total at most
    ``TABLE_BLOCK_CELLS`` cells; a leaf computed per row (2**m > n) holds
    no table."""
    chunk, cells = [], 0
    for leaf in leaves:
        m = len(leaf[3])  # the leaf's z
        size = m << m if 2 ** m <= n else 0
        if chunk and cells + size > TABLE_BLOCK_CELLS:
            yield chunk
            chunk, cells = [], 0
        chunk.append(leaf)
        cells += size
    if chunk:
        yield chunk


def expected_value(ens: TreeEnsemble) -> float:
    """Cover-weighted ensemble mean: the SHAP base value."""
    return ens.base_score + sum(t.expected_value() for t in ens.trees)


def shap_values(ens: TreeEnsemble, X):
    """Per-sample, per-feature margin attributions and the base value.

    base + sum_j phi[i, j] equals margin(x_i) for every sample.

    Exact path-dependent TreeSHAP, reorganised per leaf: a leaf's attributions
    depend on a sample only through which of its m path features the sample
    satisfies. With 2**m patterns at most the row count, they are tabulated
    and gathered by each row's pattern; otherwise they are computed for the
    rows directly. The leaves are taken in consecutive chunks whose tables
    total at most ``TABLE_BLOCK_CELLS`` cells, and the tables of a chunk's
    leaves with the same m come from one batched EXTEND/UNWIND. Attributions
    are then added leaf by leaf in tree order and, within a tree, in
    ``_leaf_paths`` order, so every float sum is the same as with one table
    per leaf.
    """
    X = ens._check(X)
    n = len(X)
    leaves = ((tree,) + leaf for tree in ens.trees for leaf in _leaf_paths(tree))
    phi = np.zeros((ens.n_features, n))  # feature-major: each leaf adds to whole rows
    current, goes = None, {}
    for chunk in _chunks(leaves, n):
        for (tree, value, feats, z, conds), table in zip(chunk, _pattern_tables(chunk, n)):
            if tree is not current:
                current, goes = tree, {}
                for j in np.flatnonzero(tree.feature >= 0):
                    left = X[:, tree.feature[j]] <= tree.threshold[j]
                    goes[int(j), True], goes[int(j), False] = left, ~left
            ones = np.array([reduce(np.logical_and, (goes[c] for c in fc)) for fc in conds])
            if table is not None:  # rows look their pattern up
                row = (1 << np.arange(len(feats))) @ ones
            else:  # one pattern per row
                table, row = _attributions(z[None], ones, np.array([value]))[0], slice(None)
            for e, f in enumerate(feats):
                phi[f] += table[e][row]
    return np.ascontiguousarray(phi.T), expected_value(ens)
