"""Boosted-tree training, splitting rules and serialization."""

import dataclasses
import gc
import hashlib
import importlib.util
import inspect
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from clustercal import gbt, harness
from clustercal.data import Dataset
from clustercal.gbt import (
    GAIN_EPS, SCAN_BLOCK_CELLS, GBTParams, Tree, TreeEnsemble, _logloss, fit_gbt,
    leaf_indices, predict,
)
from clustercal.cli import main
from clustercal.harness import ExperimentConfig, _jsonable, _section, run_stages
from clustercal.scores import logit, sigmoid
from clustercal.treeshap import shap_values

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_CONFIG = ROOT / "tests" / "golden" / "report_config.json"
_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


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
        assert json.dumps(_jsonable(a), sort_keys=True) == json.dumps(_jsonable(b), sort_keys=True)

    def test_max_depth_respected(self):
        ds = toy_dataset()
        ens = fit_gbt(ds, GBTParams(n_trees=5, max_depth=2))
        assert max(_node_depth(t, j) for t in ens.trees for j in range(t.n_nodes)) <= 2

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

    @pytest.mark.parametrize("name", ["learning_rate", "min_child_weight", "lambda_l2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_params_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match="must be finite"):
            GBTParams(**{name: value})


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

    # case -> node arrays (feature, left, right) and the first node at fault
    BAD_STRUCTURES = {
        "child is the node": ([0, -1, -1], [0, -1, -1], [2, -1, -1], 0),
        "child is an ancestor": ([0, 1, -1, -1, -1], [1, 0, -1, -1, -1], [4, 3, -1, -1, -1], 1),
        "child out of range": ([0, -1, -1], [1, -1, -1], [3, -1, -1], 0),
        "negative child": ([0, -1, -1], [-1, -1, -1], [2, -1, -1], 0),
        "leaf with a child": ([0, -1, -1], [1, 2, -1], [2, -1, -1], 1),
        "feature below -1": ([0, -2, -1], [1, -1, -1], [2, -1, -1], 1),
    }

    @pytest.mark.parametrize("case", BAD_STRUCTURES)
    def test_structure_checked(self, case):
        *arrays, node = self.BAD_STRUCTURES[case]
        feature, left, right = map(np.array, arrays)
        n = len(feature)
        with pytest.raises(ValueError, match=f"^node {node} is neither a leaf"):
            Tree(feature, np.zeros(n), left, right, np.zeros(n), np.ones(n))

    def test_node_arrays_checked(self):
        with pytest.raises(ValueError, match="^feature, threshold, left, right, value and "
                                             "cover must be aligned, non-empty 1-D arrays$"):
            Tree(np.array([0, -1, -1]), np.zeros(3), np.array([1, -1, -1]),
                 np.array([2, -1, -1]), np.zeros(2), np.ones(3))

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
        back = _section(TreeEnsemble, "ensemble",
                        json.loads(json.dumps(_jsonable(ens), sort_keys=True)))
        np.testing.assert_allclose(back.margins(ds.features), ens.margins(ds.features))
        assert back.params == ens.params

    def test_feature_count_checked(self):
        ds = toy_dataset(d=3)
        ens = fit_gbt(ds, GBTParams(n_trees=1, max_depth=1))
        with pytest.raises(ValueError, match=re.escape(
                "feature matrix must be 2-D, of shape (N >= 1, 3), not (2, 5)")):
            ens.margins(np.zeros((2, 5)))

    @pytest.mark.parametrize("entry", [
        lambda ens, X: predict(ens, X),
        lambda ens, X: ens.margins(X),
        lambda ens, X: leaf_indices(ens, X),
        lambda ens, X: shap_values(ens, X),
    ], ids=["predict", "margins", "leaf_indices", "shap_values"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, entry, value):
        ds = toy_dataset(d=3)
        ens = fit_gbt(ds, GBTParams(n_trees=2, max_depth=2))
        X = ds.features[:5].copy()
        entry(ens, X)
        X[3, 1] = value
        with pytest.raises(ValueError, match="non-finite feature matrix values"):
            entry(ens, X)


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
        assert n * d > SCAN_BLOCK_CELLS  # the root is scanned in three feature blocks
        ds = tied_dataset(n, d, 7)
        # the last two columns copy the first two, so the root's tie between
        # feature 0 (or 1) and its copy spans two feature blocks
        X = ds.features.copy()
        X[:, -2:] = X[:, :2]
        ds = Dataset(X, ds.labels, ds.feature_names, ds.sample_ids)
        ens = fit_gbt(ds, GBTParams(n_trees=1, max_depth=1))
        assert ens.trees[0].feature[0] in (0, 1)
        self.assert_same_fit(ds, GBTParams(n_trees=2, max_depth=3, min_child_weight=0.0))

    @pytest.mark.parametrize("cells", [1, 64])
    def test_matches_with_small_scan_blocks(self, monkeypatch, cells):
        # 1: one feature per block; 64: nodes of up to 32 rows scan several
        # features per block, larger ones one
        monkeypatch.setattr(gbt, "SCAN_BLOCK_CELLS", cells)
        for seed in (0, 1):
            ds = tied_dataset(200, 5, seed)
            self.assert_same_fit(ds, GBTParams(n_trees=3, max_depth=5, learning_rate=0.5,
                                               min_child_weight=0.0, lambda_l2=seed))

    @staticmethod
    def scanned_blocks(monkeypatch):
        """Each feature block every `_best_split` call of a fit scans, as
        that block's `tie_free` flags."""
        blocks, real = [], gbt._best_split

        def record(*args, **kwargs):
            a = inspect.signature(real).bind(*args, **kwargs).arguments
            order, tie_free = a["order"], a["tie_free"]
            step = max(1, gbt.SCAN_BLOCK_CELLS // order.shape[1])
            blocks.extend(tie_free[j0:j0 + step] for j0 in range(0, len(order), step))
            return real(*args, **kwargs)
        monkeypatch.setattr(gbt, "_best_split", record)
        return blocks

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_on_continuous_features(self, monkeypatch, seed):
        ds = toy_dataset(n=400, d=6, seed=seed)
        blocks = self.scanned_blocks(monkeypatch)
        self.assert_same_fit(ds, GBTParams(n_trees=4, max_depth=4, learning_rate=0.5,
                                           min_child_weight=0.0, lambda_l2=seed))
        assert blocks and all(b.all() for b in blocks)   # no scan gathers values

    def test_matches_with_adjacent_floats(self, monkeypatch):
        # x and the next float up are different values: a valid split lies
        # between them, and the column counts as tie-free
        rng = np.random.default_rng(4)
        x = rng.normal(size=150)
        X = np.column_stack([np.concatenate([x, np.nextafter(x, np.inf)]),
                             rng.normal(size=300)])
        y = np.repeat([0, 1], 150)
        y[rng.choice(300, 60, replace=False)] ^= 1
        ds = Dataset(X, y, ("f0", "f1"), tuple(str(i) for i in range(300)))
        blocks = self.scanned_blocks(monkeypatch)
        self.assert_same_fit(ds, GBTParams(n_trees=3, max_depth=6, min_child_weight=0.0))
        assert all(b.all() for b in blocks)

    def test_matches_with_signed_zeros(self, monkeypatch):
        # -0.0 < 0.0 is false: no split may fall between them, so the column
        # counts as tied
        rng = np.random.default_rng(5)
        col = rng.normal(size=300)
        col[:40], col[40:80] = -0.0, 0.0
        X = np.column_stack([rng.normal(size=300), col])
        y = (col + rng.normal(scale=0.5, size=300) > 0).astype(int)
        y[40:80] = 1 - y[:40]   # rows at -0.0 and 0.0 disagree: a split there would gain
        ds = Dataset(X, y, ("f0", "f1"), tuple(str(i) for i in range(300)))
        blocks = self.scanned_blocks(monkeypatch)
        for cells in (1, SCAN_BLOCK_CELLS):
            monkeypatch.setattr(gbt, "SCAN_BLOCK_CELLS", cells)
            self.assert_same_fit(ds, GBTParams(n_trees=3, max_depth=4, min_child_weight=0.0))
        assert {tuple(b) for b in blocks} >= {(True,), (False,), (True, False)}

    def test_matches_with_mixed_scan_blocks(self, monkeypatch):
        # columns 0, 1 and 3 continuous, 2, 4 and 5 integer-valued: the
        # root's blocks of two are tie-free, mixed and tied, and smaller
        # nodes scan larger blocks
        rng = np.random.default_rng(6)
        n = 240
        X = rng.normal(size=(n, 6))
        X[:, [2, 4, 5]] = rng.integers(0, 4, size=(n, 3))
        y = (X[:, 0] + X[:, 2] + rng.normal(scale=1.5, size=n) > 1.5).astype(int)
        ds = Dataset(X, y, tuple(f"f{j}" for j in range(6)), tuple(str(i) for i in range(n)))
        monkeypatch.setattr(gbt, "SCAN_BLOCK_CELLS", 2 * n)
        blocks = self.scanned_blocks(monkeypatch)
        self.assert_same_fit(ds, GBTParams(n_trees=3, max_depth=5, learning_rate=0.5,
                                           min_child_weight=0.0))
        kinds = {"tie-free" if b.all() else "tied" if not b.any() else "mixed" for b in blocks}
        assert kinds == {"tie-free", "tied", "mixed"}

    @pytest.mark.parametrize("max_depth", [1, 2, 4])
    def test_partitions_only_nodes_that_scan(self, monkeypatch, max_depth):
        ds = tied_dataset(200, 4, 3)
        params = GBTParams(n_trees=3, max_depth=max_depth, min_child_weight=0.0)
        calls = []
        real = gbt._partition

        def counted(order, keep):
            calls.append(1)
            return real(order, keep)

        monkeypatch.setattr(gbt, "_partition", counted)
        ens = fit_gbt(ds, params)
        # every scanned node but the root is a child below max_depth with 2+ rows
        scanned = sum(1 for t in ens.trees for j in range(1, t.n_nodes)
                      if _node_depth(t, j) < max_depth and t.cover[j] >= 2)
        assert len(calls) == scanned
        self.assert_same_fit(ds, params)


# SHA-256 of the ensemble.json that `train` writes for each perfbench
# workload's input 0. perfbench's gate compares the pipeline's metrics, not
# its trees, so these pin the trees of a benchmark-size fit byte for byte.
ENSEMBLE_SHA256 = {
    "shap_d4": "04f241ddf27b089df51e3cb1f0d7f652dcae16d6a9edd7309103e99e61b32740",
    "shap_d8": "03edba10e477fcd8ac04b41bc90006955f5e4012f3f42e91f6a2ac455884ce55",
    "gbt_raw": "1b2326147bb4fc84522157e2793a97be4883a873060e47bf7c0c20099d2b8854",
}


@pytest.mark.parametrize("name", sorted(ENSEMBLE_SHA256))
def test_workload_ensembles_are_pinned(tmp_path, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(workloads.config(name, 0)))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    written = (tmp_path / "out" / "ensemble.json").read_bytes()
    assert hashlib.sha256(written).hexdigest() == ENSEMBLE_SHA256[name]


def _node_depth(tree, j):
    parent = {int(c): p for p in range(tree.n_nodes)
              for c in (tree.left[p], tree.right[p]) if c >= 0}
    depth = 0
    while j:
        j, depth = parent[j], depth + 1
    return depth


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


class TestTrainMargins:
    """The fit carries its training rows' margins; the model stage scores only
    the other rows with `predict`."""

    def test_fit_carries_the_apply_path_margins(self):
        ds = tied_dataset(300, 4, 5)
        ens = fit_gbt(ds, GBTParams(n_trees=5, max_depth=3))
        assert ens.train_margins.tobytes() == ens.margins(ds.features).tobytes()
        back = _section(TreeEnsemble, "ensemble", _jsonable(ens))
        assert back.train_margins is None
        assert "train_margins" not in _jsonable(ens) and "train_margins" not in repr(ens)
        assert dataclasses.replace(ens, train_margins=None) == ens

    def test_model_stage_scores_match_predict_on_every_row(self, monkeypatch):
        calls = []
        real = gbt.predict

        def counted(ens, X):
            calls.append(len(X))
            return real(ens, X)
        monkeypatch.setattr(harness, "predict", counted)
        r = run_stages(ExperimentConfig.from_json_file(str(GOLDEN_CONFIG)), "model")
        assert calls == [len(r.splits.calibration) + len(r.splits.test)]
        want = real(r.ens, r.ds.features)
        assert r.scores.margins.tobytes() == want.margins.tobytes()
        assert r.scores.probabilities.tobytes() == want.probabilities.tobytes()


class TestFitMemory:
    """The memory a tree's build allocates is freed when the build returns."""

    @pytest.fixture
    def gc_off(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_fit_leaves_no_reference_cycles(self, gc_off):
        fit_gbt(toy_dataset(n=1000, d=4), GBTParams(n_trees=30, max_depth=4))
        assert gc.collect() == 0

    def test_peak_memory_does_not_grow_with_trees(self, gc_off):
        # stumps: every tree scans the same root, so each tree's own peak is
        # the same and only memory a tree leaves behind can add to it
        ds = toy_dataset(n=4000, d=4)

        def peak(n_trees):
            tracemalloc.start()
            try:
                fit_gbt(ds, GBTParams(n_trees=n_trees, max_depth=1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # 30 more 3-node trees hold about 25 KiB; one (4000,) array left per
        # tree would add 30 x 4000 bytes or more
        assert peak(40) - peak(10) < 64 * 1024
