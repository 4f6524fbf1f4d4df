"""Tree attribution correctness against brute-force Shapley values and the
per-leaf table algorithm."""

import tracemalloc
from functools import reduce

import numpy as np
import pytest

from randtrees import random_ensemble
from shap_oracle import brute_force_shap
from clustercal import treeshap
from clustercal.data import Dataset
from clustercal.gbt import GBTParams, Tree, TreeEnsemble, fit_gbt
from clustercal.treeshap import expected_value, shap_values


class TestOracle:
    def test_matches_brute_force_on_random_trees(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            ens = random_ensemble(rng, n_trees=1, n_features=4, max_depth=3)
            X = rng.normal(size=(3, 4))
            phi, base = shap_values(ens, X)
            phi_b, base_b = brute_force_shap(ens, X)
            np.testing.assert_allclose(phi, phi_b, atol=1e-9)
            assert base == pytest.approx(base_b, abs=1e-9)

    def test_matches_brute_force_multi_tree(self):
        rng = np.random.default_rng(1)
        ens = random_ensemble(rng, n_trees=3, n_features=3, max_depth=2)
        X = rng.normal(size=(5, 3))
        phi, base = shap_values(ens, X)
        phi_b, base_b = brute_force_shap(ens, X)
        np.testing.assert_allclose(phi, phi_b, atol=1e-9)
        assert base == pytest.approx(base_b, abs=1e-9)

    def test_matches_brute_force_on_deep_trees_either_side_of_table_switch(self):
        # depth-6 paths over 3 features repeat features; 1 row computes
        # per row, 64 rows tabulate every one-fraction pattern
        rng = np.random.default_rng(4)
        for n_rows in (1, 64):
            for _ in range(10):
                ens = random_ensemble(rng, n_trees=2, n_features=3, max_depth=6)
                X = rng.normal(size=(n_rows, 3))
                phi, base = shap_values(ens, X)
                phi_b, base_b = brute_force_shap(ens, X)
                np.testing.assert_allclose(phi, phi_b, atol=1e-9)
                assert base == pytest.approx(base_b, abs=1e-9)

    def test_local_accuracy_on_fitted_model(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(150, 5))
        y = (X[:, 0] - X[:, 3] > 0).astype(int)
        ds = Dataset(X, y, tuple(f"f{j}" for j in range(5)),
                     tuple(str(i) for i in range(150)))
        ens = fit_gbt(ds, GBTParams(n_trees=10, max_depth=4))
        phi, base = shap_values(ens, X)
        np.testing.assert_allclose(phi.sum(axis=1) + base, ens.margins(X), atol=1e-9)

    def test_expected_value_is_cover_weighted_mean(self):
        rng = np.random.default_rng(3)
        ens = random_ensemble(rng, n_trees=2)
        assert expected_value(ens) == pytest.approx(
            ens.base_score + sum(t.expected_value() for t in ens.trees))


class TestBackends:
    def test_non_positive_cover_raises(self):
        stump = Tree(np.array([0, -1, -1]), np.array([0.0, 0.0, 0.0]),
                     np.array([1, -1, -1]), np.array([2, -1, -1]),
                     np.array([0.0, -1.0, 1.0]), np.array([2.0, 0.0, 2.0]))
        with pytest.raises(ValueError, match="non-positive cover"):
            shap_values(TreeEnsemble((stump,), 0.0, 1), np.zeros((2, 1)))

    def test_stump_ensemble(self):
        # no splits at all: every attribution is zero
        rng = np.random.default_rng(5)
        ens = random_ensemble(rng, n_trees=0)
        phi, base = shap_values(ens, rng.normal(size=(4, 4)))
        np.testing.assert_allclose(phi, 0.0)
        assert base == pytest.approx(ens.base_score)


def _unwound_sums_one_leaf(z, o):
    # EXTEND/UNWIND of one path of zero fractions z (m,) at one fractions o (B, m)
    B, m = o.shape
    l = m + 1
    w = np.zeros((B, l))
    w[:, 0] = 1.0
    for k in range(1, l):
        i = np.arange(k)
        one = o[:, k - 1:k] * w[:, :k] * (i + 1) / (k + 1)
        w[:, :k] = z[k - 1] * w[:, :k] * (k - i) / (k + 1)
        w[:, 1:k + 1] += one
    nxt = np.repeat(w[:, l - 1:], m, axis=1)
    total_one = np.zeros((B, m))
    total_zero = np.zeros((B, m))
    for j in range(l - 2, -1, -1):
        tmp = nxt * l / (j + 1)
        total_one += tmp
        nxt = w[:, j:j + 1] - tmp * z * (l - 1 - j) / l
        total_zero += w[:, j:j + 1] * l / (z * (l - 1 - j))
    return np.where(o != 0, total_one, total_zero)


def per_leaf_shap(ens, X):
    """Reference: one EXTEND/UNWIND and one table per leaf, added as they come."""
    n = len(X)
    phi = np.zeros((ens.n_features, n))
    for tree in ens.trees:
        goes = {}
        for j in np.flatnonzero(tree.feature >= 0):
            left = X[:, tree.feature[j]] <= tree.threshold[j]
            goes[int(j), True], goes[int(j), False] = left, ~left
        for value, feats, z, conds in treeshap._leaf_paths(tree):
            ones = [reduce(np.logical_and, (goes[c] for c in fc)) for fc in conds]
            m = len(feats)
            if 2 ** m <= n:
                o = (np.arange(2 ** m)[:, None] >> np.arange(m)) & 1
                row = sum(mask * (1 << e) for e, mask in enumerate(ones))
            else:
                o, row = np.column_stack(ones), np.arange(n)
            table = _unwound_sums_one_leaf(z, o) * (o - z) * value
            for e, f in enumerate(feats):
                phi[f] += table[row, e]
    return phi.T


class TestBatchedTables:
    """Batched pattern tables give the per-leaf algorithm's floats exactly."""

    @staticmethod
    def _check_random_ensembles(seed):
        rng = np.random.default_rng(seed)
        for depth in range(1, 9):
            for n_rows in (1, 64, 300):
                # 3 features on paths up to 8 long repeat features
                ens = random_ensemble(rng, n_trees=3, n_features=3, max_depth=depth)
                X = rng.normal(size=(n_rows, 3))
                phi, _ = shap_values(ens, X)
                assert np.array_equal(phi, per_leaf_shap(ens, X)), (depth, n_rows)

    def test_bit_identical_to_per_leaf_reference(self):
        self._check_random_ensembles(11)

    def test_bit_identical_with_one_leaf_per_chunk(self, monkeypatch):
        monkeypatch.setattr(treeshap, "TABLE_BLOCK_CELLS", 1)
        self._check_random_ensembles(12)

    def test_bit_identical_on_fitted_model(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(300, 6))
        y = (X[:, 0] * X[:, 1] + X[:, 2] > 0).astype(int)
        ds = Dataset(X, y, tuple(f"f{j}" for j in range(6)),
                     tuple(str(i) for i in range(300)))
        ens = fit_gbt(ds, GBTParams(n_trees=20, max_depth=6))
        phi, _ = shap_values(ens, X)
        assert np.array_equal(phi, per_leaf_shap(ens, X))

    def test_peak_memory_does_not_grow_with_trees(self, monkeypatch):
        # a small cap, so that both ensembles fill many chunks
        monkeypatch.setattr(treeshap, "TABLE_BLOCK_CELLS", 1 << 12)
        rng = np.random.default_rng(14)
        ens = random_ensemble(rng, n_trees=80, n_features=8, max_depth=6)
        half = TreeEnsemble(ens.trees[:40], ens.base_score, ens.n_features)
        X = rng.normal(size=(500, 8))
        peaks = []
        for e in (half, ens):
            tracemalloc.start()
            shap_values(e, X)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks
