"""Embeddings, clustering and cluster diagnostics."""

import re

import numpy as np
import pytest
from scipy.cluster.hierarchy import fcluster, linkage

from clustercal.calibrators import Calibrator
from clustercal.data import Dataset, SyntheticSpec, gen_synthetic_full
from clustercal.ensemble import ClusteredCalibrator
from clustercal.gbt import GBTParams, fit_gbt
from clustercal.harness import _jsonable, _section
import clustercal.representation as rep
from clustercal.representation import (
    KMEANS_MAX_ITER, ClusterModel, EmbeddingOpts, _centroids, _dists, _inertia, _kmeans_pp_init,
    assign, build_embedding, diagnostics, fit_agglomerative, fit_kmeans, select_k_elbow,
    topk_feature_indices,
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
        with pytest.raises(ValueError, match=re.escape(
                f"embedding must be 2-D, of shape ({ds.n}, m), not ({ds.n - 1}, 3)")):
            build_embedding("external", None, ds, vectors=V[:-1])

    def test_validation(self):
        ds, _ = fitted_model()
        with pytest.raises(ValueError, match="requires a fitted ensemble"):
            build_embedding("shap", None, ds)
        with pytest.raises(ValueError, match="unknown embedding"):
            build_embedding("pca", None, ds)

    @pytest.mark.parametrize("kind", ["leaf", "external"])
    def test_a_kind_that_is_never_standardized_rejects_standardize_true(self, kind):
        ds, ens = fitted_model()
        V = np.arange(ds.n * 2.0).reshape(ds.n, 2)
        plain = build_embedding(kind, ens, ds, vectors=V)
        for standardize in (None, False):
            E = build_embedding(kind, ens, ds, EmbeddingOpts(standardize), V)
            assert E.tobytes() == plain.tobytes()
        with pytest.raises(ValueError, match=rf"^the {kind} embedding is never standardized, "
                                             r"so standardize must be false or null$"):
            build_embedding(kind, ens, ds, EmbeddingOpts(standardize=True), V)


# every boundary that takes an embedding applies one rule: 2-D and finite
_CM2 = ClusterModel("kmeans", np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([2, 2]))


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
        cm = ClusterModel("kmeans", np.array([[0.0], [10.0]]), np.array([1, 1]))
        labels = assign(cm, np.array([[1.0], [9.0], [5.0]]))
        assert labels.tolist() == [0, 1, 0]  # exact tie goes to the lower id

    def test_dimension_mismatch(self):
        cm = ClusterModel("kmeans", np.zeros((1, 2)), np.array([1]))
        with pytest.raises(ValueError, match=re.escape(
                "embedding must be 2-D, of shape (N >= 1, 2), not (3, 5)")):
            assign(cm, np.zeros((3, 5)))

    @staticmethod
    def two_blobs():
        # 60 rows in two blobs 5 apart
        rng = np.random.default_rng(0)
        return np.concatenate([rng.normal(size=(30, 2)), rng.normal(size=(30, 2)) + 5])

    def test_rejects_embeddings_whose_squared_distances_could_overflow(self):
        # finite rows, but their squared distances overflow: without the check
        # the fit warned, returned sizes [49, 11] and an inertia of inf
        V = self.two_blobs()
        np.testing.assert_array_equal(fit_kmeans(V, 2, 0).sizes, [30, 30])
        cm = fit_kmeans(V * 1e150, 2, 0)
        np.testing.assert_array_equal(cm.sizes, [30, 30])
        np.testing.assert_array_equal(assign(cm, V * 1e150), assign(fit_kmeans(V, 2, 0), V))
        message = "embedding values too large: squared distances between its rows could overflow"
        for fit in (lambda W: fit_kmeans(W, 2, 0), lambda W: select_k_elbow(W, (2, 6, 2)),
                    lambda W: fit_kmeans(V, 2, 0, init=W[[0, 59]]), lambda W: assign(cm, W)):
            for scale in (1e154, 1e200):
                with pytest.raises(ValueError, match=message):
                    fit(V * scale)

    def test_overflow_message_names_the_largest_norm(self):
        # its square overflows, so a norm taken from the squared norms read inf
        big = np.array([[3e154, 4e154], [0.0, 0.0]])
        small = np.array([[3.0, 4.0], [0.0, 0.0]])
        cm = fit_kmeans(small, 2, 0)
        message = re.escape("could overflow (largest norm 5e+154)")
        for fit in (lambda: fit_kmeans(big, 2, 0), lambda: fit_kmeans(small, 2, 0, init=big),
                    lambda: assign(cm, big), lambda: fit_agglomerative(big, 2),
                    lambda: fit_kmeans(np.array([[-5e154], [0.0]]), 2, 0)):
            with pytest.raises(ValueError, match=message):
                fit()

    def test_overflow_threshold_counts_the_inertia_rows(self):
        # 8 n reach^2 must be finite: at reach 2^506, n must be below 2^9
        for n, ok in ((400, True), (600, False)):
            V = np.zeros((n, 1))
            V[0, 0] = 2.0 ** 506
            if ok:
                assert fit_kmeans(V, 1, 0).sizes.tolist() == [n]
            else:
                with pytest.raises(ValueError, match="could overflow"):
                    fit_kmeans(V, 1, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_assign_rejects_non_finite_rows(self, bad):
        cm = ClusterModel("kmeans", np.array([[0.0], [10.0]]), np.array([1, 1]))
        with pytest.raises(ValueError, match="finite"):
            assign(cm, np.array([[1.0], [bad]]))

    def test_serialization_roundtrip(self):
        E, _ = blobs(3, seed=3)
        cm = fit_kmeans(E, 3, 0)
        back = _section(ClusterModel, "clusters", _jsonable(cm))
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


def _lloyd_oracle(V, k, seed, init=None):
    """The unpruned Lloyd loop: every row's distances at every step, the
    bincount update and the empty-cluster re-seed. Returns the centroids,
    sizes, inertia, step count and whether a cluster emptied."""
    C = _kmeans_pp_init(V, k, np.random.default_rng(seed)) if init is None else init
    VT = np.ascontiguousarray(V.T)
    labels = np.full(len(V), -1)
    emptied = False
    for step in range(1, KMEANS_MAX_ITER + 1):
        d = _dists(V, C)
        new_labels = d.argmin(axis=1)
        sizes = np.bincount(new_labels, minlength=k)
        for j in np.flatnonzero(sizes == 0):
            emptied = True
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
    return C, sizes, _inertia(V, C, labels), step, emptied


def _leaf_onehot(n, trees, leaves, seed):
    """A leaf-style embedding: one active leaf of ``leaves`` per tree, the
    leaf drawn near one of four prototype rows."""
    rng = np.random.default_rng(seed)
    proto = rng.integers(0, leaves, size=(4, trees))[rng.integers(0, 4, n)]
    pick = np.where(rng.random((n, trees)) < 0.7, rng.integers(0, leaves, size=(n, trees)), proto)
    V = np.zeros((n, trees * leaves))
    V[np.arange(n)[:, None], np.arange(trees) * leaves + pick] = 1.0
    return V


def _pruning_embeddings():
    rng = np.random.default_rng(5)
    return {**ORACLE_EMBEDDINGS,
            "leaf1080": _leaf_onehot(300, 120, 9, seed=6),      # 1,080 columns
            "grid": rng.integers(0, 3, size=(200, 6)).astype(float),  # many exact ties
            "duplicates": TestKmeansEmptyClusters.duplicates()}


PRUNING_EMBEDDINGS = _pruning_embeddings()
PRUNING_CASES = [(name, k) for name in sorted(PRUNING_EMBEDDINGS) if name != "duplicates"
                 for k in (1, 2, 5, 8, 20)]


def _ref_kmeans_pp_init(V, k, rng):
    """k-means++ with a fresh ``((V - c) ** 2).sum(axis=1)`` per draw: the
    reference the buffered draws must match bit for bit."""
    n = len(V)
    centroids = np.empty((k, V.shape[1]))
    centroids[0] = V[int(rng.integers(n))]
    closest = ((V - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centroids[j] = V[int(rng.integers(n))]
        else:
            idx = int(np.searchsorted(np.cumsum(closest), rng.random() * total))
            centroids[j] = V[min(idx, n - 1)]
        closest = np.minimum(closest, ((V - centroids[j]) ** 2).sum(axis=1))
    return centroids


class TestKmeansPlusPlus:
    @staticmethod
    def draws(init, V, k, seed, monkeypatch):
        """The centroids, and the cumulative squared distances each draw
        searched: a change in their last bit rarely moves a draw."""
        searched, real = [], np.searchsorted

        def record(a, v, *args, **kwargs):
            searched.append(a.tobytes())
            return real(a, v, *args, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(np, "searchsorted", record)
            C = init(V, k, np.random.default_rng(seed))
        return C.tobytes(), searched

    # "fortran": a column-major copy of the wide embedding, whose row sums
    # add in another order than a row-major buffer's
    @pytest.mark.parametrize("name", ["narrow", "wide", "leaf1080", "grid", "fortran"])
    @pytest.mark.parametrize("k", [1, 8, 40])
    def test_draws_match_the_unbuffered_expression(self, monkeypatch, name, k):
        V = (np.asfortranarray(PRUNING_EMBEDDINGS["wide"]) if name == "fortran"
             else PRUNING_EMBEDDINGS[name])
        for seed in (0, 1):
            got = self.draws(_kmeans_pp_init, V, k, seed, monkeypatch)
            assert got == self.draws(_ref_kmeans_pp_init, V, k, seed, monkeypatch)


def _rows_per_step(monkeypatch):
    """Record the row count of every ``_assign_nearest`` call."""
    rows, inner = [], rep._assign_nearest

    def counted(V, C):
        rows.append(len(V))
        return inner(V, C)
    monkeypatch.setattr(rep, "_assign_nearest", counted)
    return rows


def _assert_same_fit(cm, want):
    C, sizes, inertia = want[:3]
    assert cm.centroids.tobytes() == C.tobytes()
    np.testing.assert_array_equal(cm.sizes, sizes)
    assert cm.inertia == inertia


def _rounds_up(monkeypatch, when):
    """Make each Lloyd step whose rows ``when`` picks round its even distance
    columns one ulp up; record each step's and each ``_dists`` call's row count."""
    calls, dists = [], rep._dists

    def step(X, B):
        calls.append(("step", len(X)))
        d = X @ B.T
        if when(X):
            d[:, ::2] = np.nextafter(d[:, ::2], np.inf)
        return d.argmin(axis=1), d

    def exact(V, C):
        calls.append(("dists", len(V)))
        return dists(V, C)
    monkeypatch.setattr(rep, "_assign_nearest", step)
    monkeypatch.setattr(rep, "_dists", exact)
    return calls


class TestKmeansPruning:
    """Each Lloyd step recomputes only the rows whose label may change, and
    fits bit-identical to the unpruned loop, with one distance call per step."""

    @pytest.mark.parametrize("name,k", PRUNING_CASES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_unpruned_loop(self, monkeypatch, name, k, seed):
        V = PRUNING_EMBEDDINGS[name]
        want = _lloyd_oracle(V, k, seed)
        rows = _rows_per_step(monkeypatch)
        _assert_same_fit(fit_kmeans(V, k, seed), want)
        assert len(rows) == want[3]
        assert rows[0] == len(V)

    @pytest.mark.parametrize("k", [6, 8, 10])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_unpruned_loop_when_clusters_empty(self, k, seed):
        V = PRUNING_EMBEDDINGS["duplicates"]
        want = _lloyd_oracle(V, k, seed)
        assert want[4]
        _assert_same_fit(fit_kmeans(V, k, seed), want)

    @pytest.mark.parametrize("name,k", [("narrow", 8), ("grid", 8), ("onehot", 5), ("leaf1080", 5)])
    def test_later_steps_compute_fewer_rows(self, monkeypatch, name, k):
        V = PRUNING_EMBEDDINGS[name]
        rows = _rows_per_step(monkeypatch)
        fit_kmeans(V, k, 0)
        assert len(rows) > 2
        assert sum(rows) < len(rows) * len(V)

    # Clusters around (0, 0) and (4, 0); (2, 1) is exactly between them and
    # stays in cluster 0, whose mean (-2, -1) keeps at (0, 0).
    TIE_ROWS = np.array([[-1, 0], [0, 0], [1, 0], [2, 1], [-2, -1], [3, 0], [4, 0], [5, 0]],
                        dtype=np.float64)
    TIE_INIT = np.array([[0.0, 0.0], [4.0, 0.0]])

    def test_a_tie_in_a_subset_rounded_differently_keeps_the_full_label(self, monkeypatch):
        # A BLAS kernel chosen by the row count may round a subset's distances
        # unlike the full array's. Here a subset's even columns round one ulp
        # up, which turns an exact tie with column 1 the other way.
        V, init = self.TIE_ROWS, self.TIE_INIT
        want = _lloyd_oracle(V, 2, 0, init)
        np.testing.assert_array_equal(want[1], [5, 3])
        steps = _rounds_up(monkeypatch, lambda X: len(X) < len(V))
        _assert_same_fit(fit_kmeans(V, 2, 0, init), want)
        # each step falls back to _dists: the first on the exact tie, the
        # second, which computes only the tied row, on the rounded one
        assert steps == [("step", 8), ("dists", 8), ("step", 1), ("dists", 8)]

    def test_a_tie_in_the_first_step_falls_back_to_exact_distances(self, monkeypatch):
        # Every step's even columns rounded one ulp up: the first step, which
        # computes every row, labels (2, 1) 1, not 0, by one ulp, so it must
        # take its labels from _dists as the others do.
        V, init = self.TIE_ROWS, self.TIE_INIT
        want = _lloyd_oracle(V, 2, 0, init)
        steps = _rounds_up(monkeypatch, lambda X: True)
        _assert_same_fit(fit_kmeans(V, 2, 0, init), want)
        assert steps == [("step", 8), ("dists", 8), ("step", 1), ("dists", 8)]

    def test_elbow_grid_matches_unpruned_loop(self):
        # the elbow's shape: one k-means++ draw for the largest k, whose
        # prefixes start the fits of the smaller ones
        V, _ = blobs(8, n_per=50, d=4, seed=9, sep=4.0)
        init = _kmeans_pp_init(V, 40, np.random.default_rng(3))
        for k in range(4, 41, 4):
            _assert_same_fit(fit_kmeans(V, k, 3, init[:k]), _lloyd_oracle(V, k, 3, init[:k]))

    def test_a_row_on_its_centroid_far_from_the_origin(self, monkeypatch):
        # rows 1e6 +- 1; k-means++ starts each centroid on a row, and a row on
        # its centroid has a one-matmul squared distance that cancels to about
        # 0 and here rounds below it, which the square root must not see
        rng = np.random.default_rng(4)
        V = 1e6 + rng.uniform(-1, 1, size=(60, 3))
        own, inner = [], rep._assign_nearest

        def record(X, B):
            near, d = inner(X, B)
            own.append(d[np.arange(len(d)), near].min())
            return near, d
        monkeypatch.setattr(rep, "_assign_nearest", record)
        for k, seed in ((8, 1), (20, 2), (60, 0)):
            _assert_same_fit(fit_kmeans(V, k, seed), _lloyd_oracle(V, k, seed))
        assert min(own) < 0

    # "far": rows 1e6 +- 1, where the sums of squared norms cancel the most
    BOUND_CASES = ["narrow", "wide", "onehot", "leaf1080", "far"]

    @staticmethod
    def bound_case(name, n_terms):
        """An embedding, 8 centroids (5 rows and 3 means of rows), the exact
        squared distances between them and the bound gamma_n (||v|| + reach)^2
        of n = ``n_terms(m)`` terms."""
        rng = np.random.default_rng(0)
        V = (1e6 + rng.uniform(-1, 1, size=(200, 4)) if name == "far"
             else PRUNING_EMBEDDINGS[name])
        C = np.vstack([V[rng.choice(len(V), 10, replace=False)[:5]],
                       [V[rng.choice(len(V), 12, replace=False)].mean(axis=0) for _ in range(3)]])
        Vl, Cl = V.astype(np.longdouble), C.astype(np.longdouble)
        exact = ((Vl[:, None, :] - Cl[None, :, :]) ** 2).sum(axis=2)
        norms = np.sqrt((V * V).sum(axis=1))
        reach = max(norms.max(), np.sqrt((C * C).sum(axis=1)).max())
        n = n_terms(V.shape[1])
        u = np.finfo(np.float64).eps / 2
        return V, C, exact, (n * u / (1 - n * u) * (norms + reach) ** 2)[:, None], rng

    @pytest.mark.parametrize("name", BOUND_CASES)
    def test_subset_distances_are_within_the_rounding_bound(self, name):
        # The bound of _dists: every computed squared distance is within
        # gamma_{m+3} (||v|| + reach)^2 of the exact one, for every subset
        # size the loop can pass (1 row takes numpy's gemv path)
        V, C, exact, eps, rng = self.bound_case(name, lambda m: m + 3)
        assert (np.abs(_dists(V, C) - exact) <= eps).all()
        for size in range(1, len(V) + 1):
            idx = np.sort(rng.choice(len(V), size, replace=False))
            assert (np.abs(_dists(V[idx], C) - exact[idx]) <= eps[idx]).all(), size

    @pytest.mark.parametrize("name", BOUND_CASES)
    def test_step_distances_are_within_the_rounding_bound(self, monkeypatch, name):
        # The bound the pruning margin is built on: every squared distance a
        # Lloyd step computes from one matmul of the augmented rows and
        # centroids is within gamma_{2m+2} (||v|| + reach)^2 of the exact one,
        # for the rows as fit_kmeans lays them out and every subset size
        V, C, exact, eps, rng = self.bound_case(name, lambda m: 2 * m + 2)
        seen, inner = [], rep._assign_nearest

        def first_step(X, B):
            seen.append((X, B.copy()))     # B is rewritten each step
            return inner(X, B)
        monkeypatch.setattr(rep, "_assign_nearest", first_step)
        fit_kmeans(V, len(C), 0, C)
        X, B = seen[0]
        assert len(X) == len(V)
        assert (np.abs(X @ B.T - exact) <= eps).all()
        for size in range(1, len(V) + 1):
            idx = np.sort(rng.choice(len(V), size, replace=False))
            assert (np.abs(X.T.take(idx, axis=1).T @ B.T - exact[idx]) <= eps[idx]).all(), size


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

    @pytest.mark.parametrize("fit", [
        lambda W: fit_agglomerative(W, 2),
        lambda W: select_k_elbow(W, (2, 4, 1), method="agglomerative")[0],
    ], ids=["fit", "elbow"])
    def test_rejects_what_k_means_rejects(self, fit):
        # two clusters of two rows 1 apart: an inertia of 1 at k = 2; scaled
        # by 1e153, scipy's linkage fitted it and by 1e154 raised its own error
        V = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        cm = fit(V * 1e152)
        assert cm.k == 2 and cm.inertia == pytest.approx(1e304, rel=1e-15)
        for scale in (1e153, 1e154):
            with pytest.raises(ValueError, match="^embedding values too large: squared "
                                                 "distances between its rows could overflow"):
                fit(V * scale)

    def test_sizes_count_the_ward_cut_not_the_nearest_centroids(self):
        # the Ward cut leaves some rows nearer another cluster's centroid, so
        # assign, which every later stage uses, moves them
        E, _ = blobs(2, n_per=100, seed=5)
        cm = fit_agglomerative(E, 6)
        assert cm.k == 6 and cm.sizes.tolist() == [22, 61, 17, 42, 43, 15]
        assert np.bincount(assign(cm, E), minlength=6).tolist() == [23, 57, 20, 41, 42, 17]


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
        with pytest.raises(ValueError, match=re.escape(
                "init must be 2-D, of shape (3, 2), not (2, 2)")):
            fit_kmeans(E, 3, init=np.zeros((2, 2)))

    @pytest.mark.parametrize("method", ["dbscan", "Kmeans", None])
    def test_unknown_method_rejected(self, method):
        E, _ = blobs(2, n_per=10)
        with pytest.raises(ValueError, match=re.escape(
                f"method must be one of ('kmeans', 'agglomerative'), not {method!r}")):
            select_k_elbow(E, (2, 4, 1), method=method)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_init_values_checked(self, bad):
        E, _ = blobs(2, n_per=10)
        init = E[:3].copy()
        init[1, 0] = bad
        with pytest.raises(ValueError, match="^non-finite init values$"):
            fit_kmeans(E, 3, init=init)

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

    def test_min_cluster_size_may_not_be_negative(self):
        E, _ = blobs(3, n_per=40, seed=7)
        with pytest.raises(ValueError, match="^min_cluster_size must be >= 0, not -3$"):
            select_k_elbow(E, (2, 6, 1), 0, -3)

    def test_min_cluster_size_can_exhaust_grid(self):
        E, _ = blobs(3, n_per=40, seed=7)
        with pytest.raises(ValueError, match="3 grid points"):
            select_k_elbow(E, (2, 8, 1), seed=0, min_cluster_size=30)


class TestDiagnostics:
    def test_hand_values(self):
        cm = ClusterModel("kmeans", np.zeros((3, 1)), np.array([2, 2, 0]))
        labels = np.array([0, 0, 1, 1])
        y = np.array([1, 1, 0, 1])
        diag = diagnostics(cm, labels, y)
        assert diag.size_variance == pytest.approx(np.var([2, 2, 0]))
        assert diag.label_rate_variance == pytest.approx(np.var([1.0, 0.5]))
        assert diag.homogeneity_fraction == pytest.approx(1 / 3)
        assert diag.table[0] == {"cluster": 0, "size": 2, "positive_rate": 1.0}

    def test_alignment_checked(self):
        cm = ClusterModel("kmeans", np.zeros((1, 1)), np.array([1]))
        with pytest.raises(ValueError, match="aligned"):
            diagnostics(cm, np.array([0, 0]), np.array([1]))

    @pytest.mark.parametrize("labels, y, match", [
        ([0, 1, 0, 1, 0], [0, 2, 0, 1, 0], "^y must hold 0/1 labels$"),
        ([0, 1, 2, 1, 0], [0, 1, 0, 1, 0], r"^cluster ids must be integers in \[0, 2\)$"),
        ([0, 1, -1, 1, 0], [0, 1, 0, 1, 0], r"^cluster ids must be integers in \[0, 2\)$"),
        ([], [], "aligned, non-empty"),
        ([[0, 1]], [[0, 1]], "aligned, non-empty"),
    ])
    def test_rejects_bad_input(self, labels, y, match):
        cm = ClusterModel("kmeans", np.zeros((2, 1)), np.array([3, 2]))
        with pytest.raises(ValueError, match=match):
            diagnostics(cm, np.array(labels), np.array(y))
