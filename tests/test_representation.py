"""Embeddings, clustering and cluster diagnostics."""

import numpy as np
import pytest
from scipy.cluster.hierarchy import fcluster, linkage

from clustercal.calibrators import Calibrator
from clustercal.data import Dataset, SyntheticSpec, gen_synthetic_full
from clustercal.ensemble import ClusteredCalibrator
from clustercal.gbt import GBTParams, fit_gbt
from clustercal.harness import _jsonable
from clustercal.representation import (
    ClusterModel, EmbeddingOpts, _dists, _kmeans_pp_init, assign, build_embedding,
    diagnostics, fit_agglomerative, fit_kmeans, select_k_elbow, topk_feature_indices,
)
from clustercal.scores import ScoreSet


def fitted_model(n=200, d=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    ds = Dataset(X, y, tuple(f"f{j}" for j in range(d)), tuple(str(i) for i in range(n)))
    return ds, fit_gbt(ds, GBTParams(n_trees=6, max_depth=3))


def blobs(k=3, n_per=60, d=2, seed=0, spread=1.0, sep=12.0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=sep, size=(k, d))
    V = np.concatenate([c + rng.normal(scale=spread, size=(n_per, d)) for c in centers])
    truth = np.repeat(np.arange(k), n_per)
    return V, truth


def cluster_agreement(a, b):
    """Fraction of sample pairs on which two labelings agree about co-membership."""
    same_a = a[:, None] == a[None, :]
    same_b = b[:, None] == b[None, :]
    return float((same_a == same_b).mean())


class TestEmbeddings:
    def test_shap_embedding(self):
        ds, ens = fitted_model()
        E = build_embedding("shap", ens, ds)
        assert E.shape == (ds.n, ds.d)
        # attributions reconstruct the margin around the base value
        from clustercal.treeshap import expected_value
        np.testing.assert_allclose(E.sum(axis=1) + expected_value(ens),
                                   ens.margins(ds.features), atol=1e-9)

    def test_leaf_embedding_is_one_hot(self):
        ds, ens = fitted_model()
        E = build_embedding("leaf", ens, ds)
        assert set(np.unique(E)) <= {0.0, 1.0}
        # exactly one active leaf per tree per sample
        np.testing.assert_array_equal(E.sum(axis=1), len(ens.trees))

    def test_raw_standardized(self):
        ds, ens = fitted_model()
        E = build_embedding("raw", None, ds)
        np.testing.assert_allclose(E.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(E.std(axis=0), 1.0, atol=1e-9)

    def test_topk_selects_informative_features(self):
        ds, ens = fitted_model()
        cols = topk_feature_indices(ens, 0.5)
        assert len(cols) == 2
        assert 0 in cols or 1 in cols  # labels depend only on features 0 and 1
        E = build_embedding("topk", ens, ds, EmbeddingOpts(topk_fraction=0.5))
        assert E.shape == (ds.n, 2)

    def test_external_embedding(self):
        ds, _ = fitted_model()
        V = np.ones((ds.n, 3))
        E = build_embedding("external", None, ds, vectors=V)
        assert E.shape == (ds.n, 3)
        with pytest.raises(ValueError, match="row count"):
            build_embedding("external", None, ds, vectors=V[:-1])

    def test_validation(self):
        ds, _ = fitted_model()
        with pytest.raises(ValueError, match="requires a fitted ensemble"):
            build_embedding("shap", None, ds)
        with pytest.raises(ValueError, match="unknown embedding"):
            build_embedding("pca", None, ds)


# every boundary that takes an embedding applies one rule: 2-D and finite
_CM2 = ClusterModel("kmeans", 2, np.array([[0.0, 0.0], [1.0, 1.0]]),
                    np.array([2, 2]), np.array([0, 0]))


def _infer(V):
    ccl = ClusteredCalibrator(_CM2, "platt", {}, Calibrator("constant", {"p0": 0.5}), 30)
    return ccl.infer(ScoreSet.from_margins(np.zeros(len(V))), V)


EMBEDDING_BOUNDARIES = {
    "fit_kmeans": lambda V: fit_kmeans(V, 2),
    "fit_agglomerative": lambda V: fit_agglomerative(V, 2),
    "select_k_elbow": lambda V: select_k_elbow(V, (2, 4, 1)),
    "assign": lambda V: assign(_CM2, V),
    "infer": _infer,
    "build_embedding": lambda V: build_embedding(
        "external", None, Dataset(np.zeros((len(V), 1)), np.zeros(len(V), dtype=int), ("x",),
                                  tuple(map(str, range(len(V))))), vectors=V),
}
BAD_EMBEDDINGS = {
    "nan": (np.nan, "non-finite embedding values"),
    "inf": (np.inf, "non-finite embedding values"),
    "-inf": (-np.inf, "non-finite embedding values"),
    "1-D": (None, "embedding must be 2-D"),
}


class TestEmbeddingRule:
    @pytest.mark.parametrize("case", BAD_EMBEDDINGS)
    @pytest.mark.parametrize("boundary", EMBEDDING_BOUNDARIES)
    def test_rejects_bad_embedding(self, boundary, case):
        bad, message = BAD_EMBEDDINGS[case]
        V = np.arange(8.0).reshape(4, 2)
        if bad is None:
            V = V[:, 0]
        else:
            V[2, 1] = bad
        with pytest.raises(ValueError, match=message):
            EMBEDDING_BOUNDARIES[boundary](V)

    @pytest.mark.parametrize("boundary", EMBEDDING_BOUNDARIES)
    def test_accepts_a_finite_2d_list(self, boundary):
        EMBEDDING_BOUNDARIES[boundary]([[0.0, 0.0], [0.0, 1.0], [5.0, 5.0], [5.0, 6.0]])

    def test_build_embedding_returns_float64(self):
        ds, _ = fitted_model()
        E = build_embedding("external", None, ds, vectors=np.ones((ds.n, 2), dtype=np.int64))
        assert type(E) is np.ndarray and E.dtype == np.float64


class TestKmeans:
    def test_recovers_separated_blobs(self):
        E, truth = blobs(3)
        cm = fit_kmeans(E, 3, 0)
        labels = assign(cm, E)
        assert cluster_agreement(labels, truth) == 1.0
        assert cm.sizes.sum() == len(E)

    def test_deterministic(self):
        E, _ = blobs(4, seed=1)
        a = fit_kmeans(E, 4, 5)
        b = fit_kmeans(E, 4, 5)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_inertia_decreases_with_k(self):
        E, _ = blobs(3, seed=2)
        inertias = [fit_kmeans(E, k, 0).inertia for k in (1, 3, 9)]
        assert inertias[0] > inertias[1] >= inertias[2]

    def test_k_validation(self):
        E, _ = blobs(2, n_per=5)
        with pytest.raises(ValueError):
            fit_kmeans(E, 0, 0)
        with pytest.raises(ValueError):
            fit_kmeans(E, 11, 0)

    def test_k_equals_n(self):
        E, _ = blobs(1, n_per=6)
        cm = fit_kmeans(E, 6, 0)
        assert sorted(assign(cm, E).tolist()) == list(range(6))

    def test_assign_nearest_centroid(self):
        cm = ClusterModel("kmeans", 2, np.array([[0.0], [10.0]]),
                          np.array([1, 1]), np.array([0, 0]))
        labels = assign(cm, np.array([[1.0], [9.0], [5.0]]))
        assert labels.tolist() == [0, 1, 0]  # exact tie goes to the lower id

    def test_dimension_mismatch(self):
        cm = ClusterModel("kmeans", 1, np.zeros((1, 2)), np.array([1]), np.array([0]))
        with pytest.raises(ValueError, match="dimension"):
            assign(cm, np.zeros((3, 5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_assign_rejects_non_finite_rows(self, bad):
        cm = ClusterModel("kmeans", 2, np.array([[0.0], [10.0]]),
                          np.array([1, 1]), np.array([0, 0]))
        with pytest.raises(ValueError, match="finite"):
            assign(cm, np.array([[1.0], [bad]]))

    def test_serialization_roundtrip(self):
        E, _ = blobs(3, seed=3)
        cm = fit_kmeans(E, 3, 0)
        back = ClusterModel.from_dict(_jsonable(cm))
        np.testing.assert_array_equal(back.centroids, cm.centroids)
        np.testing.assert_array_equal(assign(back, E), assign(cm, E))


def _ref_dists(V, C):
    d = (V * V).sum(axis=1)[:, None] - 2.0 * V @ C.T + (C * C).sum(axis=1)[None, :]
    return np.maximum(d, 0.0)


def _ref_fit_kmeans(V, k, seed, max_iter=300):
    """Lloyd's algorithm with a masked mean per cluster: the reference the
    bincount update must match bit for bit while no cluster empties."""
    C = _kmeans_pp_init(V, k, np.random.default_rng(seed))
    labels = np.full(len(V), -1)
    emptied = False
    for _ in range(max_iter):
        d = _ref_dists(V, C)
        new_labels = d.argmin(axis=1)
        for j in range(k):
            mask = new_labels == j
            if mask.any():
                C[j] = V[mask].mean(axis=0)
            else:
                emptied = True
                idx = int(np.argmax(d[np.arange(len(V)), new_labels]))
                C[j] = V[idx]
                new_labels[idx] = j
        inertia = float(((V - C[new_labels]) ** 2).sum())
        done = (new_labels == labels).all()
        labels = new_labels
        if done:
            break
    return C, np.bincount(labels, minlength=k), inertia, emptied


def _oracle_embeddings():
    rng = np.random.default_rng(11)
    narrow = np.concatenate([c + rng.normal(size=(60, 4))
                             for c in rng.normal(scale=3.0, size=(5, 4))])
    wide = rng.normal(size=(240, 128)) + np.repeat(rng.normal(size=(4, 128)), 60, axis=0)
    # leaf-style one-hot: 12 "trees" of 9 leaves each, many tied distances
    onehot = np.zeros((240, 108))
    leaves = rng.integers(0, 9, size=(240, 12))
    onehot[np.arange(240)[:, None], np.arange(12) * 9 + leaves] = 1.0
    return {"narrow": narrow, "wide": wide, "onehot": onehot}


ORACLE_EMBEDDINGS = _oracle_embeddings()
ORACLE_CASES = [(name, k) for name in sorted(ORACLE_EMBEDDINGS) for k in (1, 2, 5, 8, 20)]


class TestKmeansOracle:
    # k=37 runs on the first 40 narrow rows: k near N
    @pytest.mark.parametrize("name,k", ORACLE_CASES + [("narrow40", 37)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_masked_mean_lloyd(self, name, k, seed):
        V = ORACLE_EMBEDDINGS["narrow"][:40] if name == "narrow40" else ORACLE_EMBEDDINGS[name]
        C, sizes, inertia, emptied = _ref_fit_kmeans(V, k, seed)
        assert not emptied
        cm = fit_kmeans(V, k, seed)
        np.testing.assert_array_equal(cm.centroids, C)
        np.testing.assert_array_equal(cm.sizes, sizes)
        assert cm.inertia == inertia

    @pytest.mark.parametrize("name", sorted(ORACLE_EMBEDDINGS))
    def test_agglomerative_centroids_match_masked_mean(self, name):
        V = ORACLE_EMBEDDINGS[name]
        raw = fcluster(linkage(V, method="ward"), t=6, criterion="maxclust")
        values, first = np.unique(raw, return_index=True)
        rank = np.empty(len(values), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(values))  # ids by first appearance
        labels = rank[np.searchsorted(values, raw)]
        C = np.vstack([V[labels == j].mean(axis=0) for j in range(len(values))])
        cm = fit_agglomerative(V, 6)
        np.testing.assert_array_equal(cm.centroids, C)
        assert cm.inertia == float(((V - C[labels]) ** 2).sum())

    def test_distances_match_reference_expression(self):
        V = ORACLE_EMBEDDINGS["wide"]
        C = V[::7][:40]
        np.testing.assert_array_equal(_dists(V, C), _ref_dists(V, C))


class TestKmeansEmptyClusters:
    @staticmethod
    def duplicates():
        # 5 distinct points, the first repeated 16 times: k-means++ places
        # several centroids on the repeated point, so clusters empty
        rng = np.random.default_rng(0)
        distinct = rng.normal(size=(5, 3))
        return np.concatenate([np.repeat(distinct[:1], 16, axis=0), distinct[1:]])

    @pytest.mark.parametrize("k", [6, 8, 10])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_cluster_keeps_a_member(self, k, seed):
        V = self.duplicates()
        cm = fit_kmeans(V, k, seed)
        assert cm.sizes.min() >= 1
        assert cm.sizes.sum() == len(V)
        assert np.isfinite(cm.centroids).all()
        # centroids are the means of clusters of these sizes: sum ||v||^2 - sum n_j ||c_j||^2
        explained = cm.sizes @ (cm.centroids ** 2).sum(axis=1)
        assert (V ** 2).sum() - explained == pytest.approx(cm.inertia, abs=1e-9)
        again = fit_kmeans(V, k, seed)
        np.testing.assert_array_equal(again.centroids, cm.centroids)
        np.testing.assert_array_equal(again.sizes, cm.sizes)
        assert again.inertia == cm.inertia


class TestAgglomerative:
    def test_recovers_separated_blobs(self):
        E, truth = blobs(3, seed=4)
        cm = fit_agglomerative(E, 3)
        assert cluster_agreement(assign(cm, E), truth) == 1.0

    def test_first_appearance_relabeling(self):
        E, _ = blobs(2, seed=5)
        cm = fit_agglomerative(E, 2)
        labels = assign(cm, E)
        assert labels[0] == 0  # the first sample's cluster is always id 0

    def test_single_point(self):
        cm = fit_agglomerative(np.zeros((1, 2)), 1)
        assert cm.k == 1


class TestElbow:
    def test_picks_true_k(self):
        E, _ = blobs(4, n_per=40, seed=6)
        cm, curve = select_k_elbow(E, (2, 8, 1), seed=0)
        assert cm.k == 4
        assert [c[0] for c in curve] == list(range(2, 9))
        np.testing.assert_array_equal(cm.centroids, fit_kmeans(E, 4, 0).centroids)

    def test_kmeans_pp_draws_are_prefixes(self):
        # centroid j comes from the same generator state whatever k is, so
        # the elbow can draw once for its largest k
        E, _ = blobs(4, n_per=30, seed=8)
        init = _kmeans_pp_init(E, 20, np.random.default_rng(3))
        for k in (2, 7, 20):
            np.testing.assert_array_equal(
                init[:k], _kmeans_pp_init(E, k, np.random.default_rng(3)))
            a, b = fit_kmeans(E, k, 3), fit_kmeans(E, k, 3, init[:k])
            np.testing.assert_array_equal(a.centroids, b.centroids)
            np.testing.assert_array_equal(a.sizes, b.sizes)
            assert a.inertia == b.inertia

    def test_init_shape_checked(self):
        E, _ = blobs(2, n_per=10)
        with pytest.raises(ValueError, match="init must have shape"):
            fit_kmeans(E, 3, init=np.zeros((2, 2)))

    @pytest.mark.parametrize("method", ["kmeans", "agglomerative"])
    def test_grid_models_match_single_fits(self, method):
        E, _ = blobs(4, n_per=30, seed=9)
        cm, curve = select_k_elbow(E, (2, 11, 3), seed=5, method=method)
        fits = {k: fit_kmeans(E, k, 5) if method == "kmeans" else fit_agglomerative(E, k)
                for k in (2, 5, 8, 11)}
        assert curve == [(k, m.inertia) for k, m in fits.items()]
        want = fits[cm.k]
        np.testing.assert_array_equal(cm.centroids, want.centroids)
        np.testing.assert_array_equal(cm.sizes, want.sizes)

    def test_needs_three_grid_points(self):
        E, _ = blobs(2, n_per=10)
        with pytest.raises(ValueError, match="3 grid points"):
            select_k_elbow(E, (2, 3, 1))

    def test_min_cluster_size_filters(self):
        E, _ = blobs(3, n_per=40, seed=7)
        cm, _ = select_k_elbow(E, (2, 8, 1), seed=0, min_cluster_size=9)
        assert cm.sizes.min() >= 9

    def test_min_cluster_size_can_exhaust_grid(self):
        E, _ = blobs(3, n_per=40, seed=7)
        with pytest.raises(ValueError, match="3 grid points"):
            select_k_elbow(E, (2, 8, 1), seed=0, min_cluster_size=30)


class TestDiagnostics:
    def test_hand_values(self):
        cm = ClusterModel("kmeans", 3, np.zeros((3, 1)),
                          np.array([2, 2, 0]), np.array([0, 0, 0]))
        labels = np.array([0, 0, 1, 1])
        y = np.array([1, 1, 0, 1])
        diag = diagnostics(cm, labels, y)
        assert diag.size_variance == pytest.approx(np.var([2, 2, 0]))
        assert diag.label_rate_variance == pytest.approx(np.var([1.0, 0.5]))
        assert diag.homogeneity_fraction == pytest.approx(1 / 3)
        assert diag.table[0] == {"cluster": 0, "size": 2, "positive_rate": 1.0}

    def test_alignment_checked(self):
        cm = ClusterModel("kmeans", 1, np.zeros((1, 1)), np.array([1]), np.array([0]))
        with pytest.raises(ValueError, match="aligned"):
            diagnostics(cm, np.array([0, 0]), np.array([1]))
