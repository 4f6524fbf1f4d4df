"""Boosted-tree training, splitting rules and serialization."""

import math
from pathlib import Path

import numpy as np
import pytest

from clustercal import gbt
from clustercal.data import Dataset
from clustercal.gbt import (
    GAIN_EPS, SCAN_BLOCK_CELLS, GBTParams, Tree, TreeEnsemble, _logloss, fit_gbt,
    leaf_indices, predict,
)
from clustercal.harness import ExperimentConfig, run_stages
from clustercal.scores import logit, sigmoid

GOLDEN_CONFIG = Path(__file__).parent / "golden" / "report_config.json"


def toy_dataset(n=200, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + 0.5 * X[:, 1] + rng.normal(scale=0.3, size=n) > 0).astype(int)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    return Dataset(X, y, tuple(f"f{j}" for j in range(d)), tuple(str(i) for i in range(n)))


class TestFit:
    def test_base_score_is_logit_of_rate(self):
        ds = toy_dataset()
        ens = fit_gbt(ds, GBTParams(n_trees=0))
        assert ens.base_score == pytest.approx(float(logit(ds.labels.mean())))

    def test_train_loss_decreases(self):
        ds = toy_dataset()
        ens = fit_gbt(ds, GBTParams(n_trees=20, max_depth=3))
        losses = np.array(ens.train_loss)
        assert len(losses) == 21
        assert (np.diff(losses) <= 1e-10).all()

    def test_learns_separable_data(self):
        ds = toy_dataset(n=400)
        ens = fit_gbt(ds, GBTParams(n_trees=40, max_depth=3))
        p = predict(ens, ds.features).probabilities
        acc = ((p >= 0.5).astype(int) == ds.labels).mean()
        assert acc > 0.9

    def test_deterministic(self):
        ds = toy_dataset()
        a = fit_gbt(ds, GBTParams(n_trees=5, max_depth=3))
        b = fit_gbt(ds, GBTParams(n_trees=5, max_depth=3))
        assert a.to_json() == b.to_json()

    def test_max_depth_respected(self):
        ds = toy_dataset()
        ens = fit_gbt(ds, GBTParams(n_trees=5, max_depth=2))
        assert max(t.depth() for t in ens.trees) <= 2

    def test_single_class_error(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        ds = Dataset(X, np.ones(10, dtype=int), ("f0", "f1"),
                     tuple(str(i) for i in range(10)))
        with pytest.raises(ValueError, match="single class"):
            fit_gbt(ds)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GBTParams(n_trees=-1)
        with pytest.raises(ValueError):
            GBTParams(learning_rate=0.0)


class TestTreeStructure:
    def test_cover_accounting(self):
        ds = toy_dataset()
        ens = fit_gbt(ds, GBTParams(n_trees=3, max_depth=4))
        for tree in ens.trees:
            assert tree.cover[0] == ds.n
            for j in range(tree.n_nodes):
                if tree.feature[j] >= 0:
                    assert tree.cover[j] == pytest.approx(
                        tree.cover[tree.left[j]] + tree.cover[tree.right[j]])

    def test_split_tie_breaks_to_lowest_feature(self):
        # two identical columns: the split must use feature 0
        rng = np.random.default_rng(1)
        x = rng.normal(size=50)
        X = np.column_stack([x, x])
        y = (x > 0).astype(int)
        ds = Dataset(X, y, ("f0", "f1"), tuple(str(i) for i in range(50)))
        ens = fit_gbt(ds, GBTParams(n_trees=1, max_depth=1))
        assert ens.trees[0].feature[0] == 0

    def test_midpoint_thresholds(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        ds = Dataset(X, y, ("f0",), ("a", "b", "c", "d"))
        ens = fit_gbt(ds, GBTParams(n_trees=1, max_depth=1, min_child_weight=0.0))
        assert ens.trees[0].threshold[0] == pytest.approx(1.5)

    def test_min_child_weight_blocks_splits(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        ds = Dataset(X, y, ("f0",), ("a", "b", "c", "d"))
        # hessians are ~0.25 per sample; a floor of 10 forbids any split
        ens = fit_gbt(ds, GBTParams(n_trees=1, max_depth=3, min_child_weight=10.0))
        assert (ens.trees[0].feature == -1).all()

    def test_apply_routing(self):
        tree = Tree(np.array([0, -1, -1]), np.array([0.5, 0.0, 0.0]),
                    np.array([1, -1, -1]), np.array([2, -1, -1]),
                    np.array([0.0, -1.0, 1.0]), np.array([4.0, 2.0, 2.0]))
        leaves = tree.apply(np.array([[0.4], [0.5], [0.6]]))
        assert leaves.tolist() == [1, 1, 2]  # x <= threshold goes left

    def test_expected_value_is_cover_weighted(self):
        tree = Tree(np.array([0, -1, -1]), np.array([0.5, 0.0, 0.0]),
                    np.array([1, -1, -1]), np.array([2, -1, -1]),
                    np.array([0.0, -1.0, 1.0]), np.array([4.0, 3.0, 1.0]))
        assert tree.expected_value() == pytest.approx((3 * -1 + 1 * 1) / 4)


class TestPredictAndSerialize:
    def test_predict_matches_margins(self):
        ds = toy_dataset()
        ens = fit_gbt(ds, GBTParams(n_trees=5, max_depth=3))
        s = predict(ens, ds.features)
        np.testing.assert_allclose(s.margins, ens.margins(ds.features))

    def test_leaf_indices_shape(self):
        ds = toy_dataset()
        ens = fit_gbt(ds, GBTParams(n_trees=4, max_depth=2))
        leaves = leaf_indices(ens, ds.features)
        assert leaves.shape == (ds.n, 4)
        for t, tree in enumerate(ens.trees):
            assert (tree.feature[leaves[:, t]] == -1).all()

    def test_serialization_roundtrip(self):
        ds = toy_dataset()
        ens = fit_gbt(ds, GBTParams(n_trees=4, max_depth=3))
        back = TreeEnsemble.from_json(ens.to_json())
        np.testing.assert_allclose(back.margins(ds.features), ens.margins(ds.features))
        assert back.params == ens.params

    def test_feature_count_checked(self):
        ds = toy_dataset(d=3)
        ens = fit_gbt(ds, GBTParams(n_trees=1, max_depth=1))
        with pytest.raises(ValueError, match="feature columns"):
            ens.margins(np.zeros((2, 5)))


# Reference split search: every node argsorts every feature of its rows. It
# is the straightforward form of the exact greedy search that fit_gbt runs on
# presorted columns, and the oracle for it.

def _ref_best_split(X, idx, g, h, lam, min_child_weight):
    G, H = g[idx].sum(), h[idx].sum()
    parent = G * G / (H + lam)
    best = None
    for j in range(X.shape[1]):
        xs = X[idx, j]
        order = np.argsort(xs, kind="stable")
        xs_s = xs[order]
        if xs_s[0] == xs_s[-1]:
            continue
        gc = np.cumsum(g[idx][order])[:-1]
        hc = np.cumsum(h[idx][order])[:-1]
        valid = xs_s[:-1] < xs_s[1:]
        valid &= (hc >= min_child_weight) & (H - hc >= min_child_weight)
        if not valid.any():
            continue
        gains = 0.5 * (gc**2 / (hc + lam) + (G - gc) ** 2 / (H - hc + lam) - parent)
        gains[~valid] = -np.inf
        pos = int(np.argmax(gains))
        if gains[pos] > GAIN_EPS and (best is None or gains[pos] > best[0]):
            best = (float(gains[pos]), j, float((xs_s[pos] + xs_s[pos + 1]) / 2))
    return best


def _ref_build_tree(X, g, h, params):
    nodes = []

    def build(idx, depth):
        j = len(nodes)
        nodes.append([-1, 0.0, -1, -1, 0.0, float(len(idx))])
        split = None
        if depth < params.max_depth and len(idx) >= 2:
            split = _ref_best_split(X, idx, g, h, params.lambda_l2, params.min_child_weight)
        if split is None:
            G, H = g[idx].sum(), h[idx].sum()
            nodes[j][4] = float(-G / (H + params.lambda_l2) * params.learning_rate)
            return j
        _, f, t = split
        nodes[j][0], nodes[j][1] = f, t
        mask = X[idx, f] <= t
        nodes[j][2] = build(idx[mask], depth + 1)
        nodes[j][3] = build(idx[~mask], depth + 1)
        return j

    build(np.arange(len(X)), 0)
    cols = list(zip(*nodes))
    return Tree(np.asarray(cols[0], dtype=np.int64), np.asarray(cols[1]),
                np.asarray(cols[2], dtype=np.int64), np.asarray(cols[3], dtype=np.int64),
                np.asarray(cols[4]), np.asarray(cols[5]))


def _ref_fit(ds, params):
    X, y = ds.features, ds.labels.astype(np.float64)
    rate = float(y.mean())
    margin = np.full(len(y), math.log(rate / (1 - rate)))
    trees, losses = [], [_logloss(margin, y)]
    for _ in range(params.n_trees):
        p = sigmoid(margin)
        tree = _ref_build_tree(X, p - y, p * (1 - p), params)
        trees.append(tree)
        margin += tree.value[tree.apply(X)]
        losses.append(_logloss(margin, y))
    return trees, losses


def tied_dataset(n, d, seed):
    """Integer-valued (heavily tied) features, one real column, one constant column."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 6, size=(n, d)).astype(np.float64)
    X[:, 1] = rng.normal(size=n)
    X[:, 2] = 3.0
    y = (X[:, 0] + X[:, 1] + rng.normal(scale=1.5, size=n) > 2.5).astype(int)
    y[:2] = (0, 1)
    return Dataset(X, y, tuple(f"f{j}" for j in range(d)), tuple(str(i) for i in range(n)))


class TestPresortedSplitSearch:
    """fit_gbt builds bit-identical trees to the per-node argsort reference."""

    def assert_same_fit(self, ds, params):
        ens = fit_gbt(ds, params)
        trees, losses = _ref_fit(ds, params)
        assert len(ens.trees) == len(trees)
        for got, want in zip(ens.trees, trees):
            for name in ("feature", "threshold", "left", "right", "value", "cover"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert np.asarray(ens.train_loss).tobytes() == np.asarray(losses).tobytes()

    @pytest.mark.parametrize("min_child_weight", [0.0, 1.0])
    @pytest.mark.parametrize("lambda_l2", [0.0, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_node_argsort(self, seed, min_child_weight, lambda_l2):
        ds = tied_dataset(150 + 50 * seed, 5, seed)
        params = GBTParams(n_trees=4, max_depth=2 + 2 * seed, learning_rate=0.5,
                           min_child_weight=min_child_weight, lambda_l2=lambda_l2)
        self.assert_same_fit(ds, params)

    def test_matches_when_a_node_spans_several_feature_blocks(self):
        n, d = 3000, 30
        assert n * d > SCAN_BLOCK_CELLS  # the root is scanned in two feature blocks
        ds = tied_dataset(n, d, 7)
        # the last two columns copy the first two, so the root's tie between
        # feature 0 (or 1) and its copy spans two feature blocks
        X = ds.features.copy()
        X[:, -2:] = X[:, :2]
        ds = Dataset(X, ds.labels, ds.feature_names, ds.sample_ids)
        ens = fit_gbt(ds, GBTParams(n_trees=1, max_depth=1))
        assert ens.trees[0].feature[0] in (0, 1)
        self.assert_same_fit(ds, GBTParams(n_trees=2, max_depth=3, min_child_weight=0.0))


class TestFitMargins:
    """The fit adds each leaf's value to the margins of the rows the build put
    there; that equals the `tree.apply` path bit for bit."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """The margins of every `_logloss` call of a fit, in order."""
        seen, real = [], gbt._logloss

        def record(margin, y):
            seen.append(margin.copy())
            return real(margin, y)
        monkeypatch.setattr(gbt, "_logloss", record)
        return seen

    @staticmethod
    def assert_matches_apply_path(ens, seen, X, y):
        y = np.asarray(y, dtype=np.float64)
        margin = np.full(len(X), ens.base_score)
        losses = [_logloss(margin, y)]
        for tree in ens.trees:
            margin += tree.value[tree.apply(X)]
            losses.append(_logloss(margin, y))
        assert len(seen) == len(ens.trees) + 1
        assert seen[-1].tobytes() == margin.tobytes() == ens.margins(X).tobytes()
        assert np.asarray(ens.train_loss).tobytes() == np.asarray(losses).tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_data(self, seen, seed):
        ds = toy_dataset(n=300 + 100 * seed, d=4, seed=seed)
        ens = fit_gbt(ds, GBTParams(n_trees=6, max_depth=2 + seed, learning_rate=0.3))
        self.assert_matches_apply_path(ens, seen, ds.features, ds.labels)

    def test_tied_features(self, seen):
        ds = tied_dataset(400, 5, 3)
        ens = fit_gbt(ds, GBTParams(n_trees=5, max_depth=4, min_child_weight=0.0))
        self.assert_matches_apply_path(ens, seen, ds.features, ds.labels)

    def test_golden_config(self, seen):
        r = run_stages(ExperimentConfig.from_json_file(str(GOLDEN_CONFIG)), "model")
        tr = r.splits.train
        self.assert_matches_apply_path(r.ens, seen, r.ds.features[tr], r.ds.labels[tr])
