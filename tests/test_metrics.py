"""Calibration and discrimination metric oracles and properties."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata

from clustercal import harness
from clustercal.calibrators import fit, nll_of_probs, pav
from clustercal.data import DataError, Dataset, load_external_scores
from clustercal.ensemble import ClusteredCalibrator, improved_sample_fraction, train_clustered
from clustercal.gbt import GBTParams, fit_gbt, leaf_indices, predict
from clustercal.harness import paired_resample_test
from clustercal.metrics import (
    REJECTION_THRESHOLDS, _average_ranks, _bin_ids, _matrix, ada_ece, auc, cece, ece, mce,
    reliability_data, rejection_curve, scalar_metrics,
)
from clustercal.representation import (
    ClusterModel, assign, build_embedding, diagnostics, fit_agglomerative, fit_kmeans,
    select_k_elbow,
)
from clustercal.treeshap import shap_values
from clustercal.scores import ScoreSet, logit

HAND_P = np.array([0.2, 0.3, 0.7, 0.9])
HAND_Y = np.array([0, 1, 1, 1])


def brute_auc(s, y):
    s = np.asarray(s, dtype=float)
    y = np.asarray(y)
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y == 0)
    total = 0.0
    for i in pos:
        for j in neg:
            if s[i] > s[j]:
                total += 1.0
            elif s[i] == s[j]:
                total += 0.5
    return total / (len(pos) * len(neg))


def ref_gap(stats, n, base):
    """The separate ECE, MCE and AdaECE expressions that one kernel replaced."""
    if base == "ece":
        return float(np.sum(stats.counts * np.abs(stats.obs_rate - stats.mean_pred)) / n)
    if base == "mce":
        return float(np.abs(stats.obs_rate - stats.mean_pred)[stats.counts > 0].max(initial=0.0))
    return float(np.sqrt(np.sum(stats.counts * (stats.obs_rate - stats.mean_pred) ** 2) / n))


class TestHandFixture:
    def test_ece(self):
        val, stats = ece(HAND_P, HAND_Y, 2)
        assert val == pytest.approx(0.225, abs=1e-9)
        assert stats.counts.tolist() == [2, 2]

    def test_mce(self):
        assert mce(HAND_P, HAND_Y, 2)[0] == pytest.approx(0.25, abs=1e-9)

    def test_ada_ece(self):
        assert ada_ece(HAND_P, HAND_Y, 2)[0] == pytest.approx(
            np.sqrt((2 * 0.25**2 + 2 * 0.2**2) / 4), abs=1e-9)

    def test_cece_with_bin_clusters(self):
        labels = np.array([0, 0, 1, 1])
        assert cece(HAND_P, HAND_Y, labels)[0] == pytest.approx(0.225, abs=1e-9)

    def test_auc(self):
        assert auc(HAND_P, HAND_Y) == pytest.approx(brute_auc(HAND_P, HAND_Y), abs=1e-12)


class TestEce:
    def test_equal_width_boundaries(self):
        # bin i covers ((i-1)/M, i/M]; p == 0 lands in the first bin
        _, stats = ece(np.array([0.0, 0.1, 0.100001, 1.0]), np.array([0, 0, 1, 1]), 10)
        assert stats.counts[0] == 2
        assert stats.counts[1] == 1
        assert stats.counts[9] == 1

    def test_equal_width_ids_stay_in_range_at_the_edges(self):
        # p in [0, 1] keeps ceil(p * M) in [0, M], so the ids need no upper clip
        for m in range(1, 61):
            p = np.r_[0.0, -0.0, np.nextafter(0.0, 1.0), 1.0, np.nextafter(1.0, 0.0),
                      np.arange(m + 1) / m]
            want = np.clip(np.ceil(p * m).astype(np.int64) - 1, 0, m - 1)
            assert _bin_ids(p, m, "equal_width").tolist() == want.tolist()

    def test_zero_for_bin_constant_prediction(self):
        p = np.full(100, 0.35)
        y = np.r_[np.ones(35, dtype=int), np.zeros(65, dtype=int)]
        assert ece(p, y, 10)[0] == pytest.approx(0.0, abs=1e-12)

    def test_mce_at_least_ece(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.uniform(size=40)
            y = rng.integers(0, 2, size=40)
            assert mce(p, y, 10)[0] >= ece(p, y, 10)[0] - 1e-12

    def test_equal_mass_sizes(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(size=47)
        _, stats = ece(p, rng.integers(0, 2, size=47), 10, "equal_mass")
        assert stats.counts.sum() == 47
        assert stats.counts.max() - stats.counts.min() <= 1

    def test_errors(self):
        with pytest.raises(ValueError):
            ece(np.array([0.5]), np.array([0, 1]), 10)
        with pytest.raises(ValueError):
            ece(np.array([0.5]), np.array([1]), 0)
        with pytest.raises(ValueError):
            ece(np.array([0.5]), np.array([1]), 2, "quantile")

    def test_equal_mass_ids_are_array_splits_blocks(self):
        rng = np.random.default_rng(9)
        for n in range(1, 61):
            p = np.round(rng.uniform(size=n) * 4) / 4      # ties keep their row order
            order = np.argsort(p, kind="stable")
            for m in range(1, n + 1):
                want = np.empty(n, dtype=np.int64)
                for i, chunk in enumerate(np.array_split(order, m)):
                    want[chunk] = i
                assert _bin_ids(p, m, "equal_mass").tolist() == want.tolist()

    def test_ada_ece_more_bins_than_samples(self):
        with pytest.raises(ValueError):
            ada_ece(np.array([0.5]), np.array([1]), 2)


class TestInputBoundary:
    def test_probability_above_one(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ece([1.7, 0.5], [0, 1])

    def test_label_outside_zero_one(self):
        with pytest.raises(ValueError, match="labels"):
            ece([0.3, 0.5], [0, 2])
        with pytest.raises(ValueError, match="labels"):
            auc([0.3, 0.5], [0, 2])

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            ece([], [])

    @pytest.mark.parametrize("metric", [
        lambda p, y: ece(p, y), lambda p, y: mce(p, y), lambda p, y: ada_ece(p, y, 2),
        lambda p, y: cece(p, y, [0, 1]), lambda p, y: scalar_metrics(p, y),
        lambda p, y: reliability_data(p, y), lambda p, y: rejection_curve(p, y),
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
    def test_probability_metrics_reject_bad_p(self, metric, bad):
        with pytest.raises(ValueError, match="probabilities"):
            metric([bad, 0.5], [0, 1])

    def test_auc_accepts_arbitrary_scores(self):
        assert auc([-3.0, 7.5], [0, 1]) == 1.0

    @pytest.mark.parametrize("scores", [[np.nan, 0.5], [0.2, np.nan, np.inf, 0.4]])
    def test_auc_rejects_nan_scores(self, scores):
        y = [0, 1, 0, 1][:len(scores)]
        with pytest.raises(ValueError, match="NaN"):
            auc(scores, y)


# arrays every boundary of TestSharedInputRules accepts
RULE_P = np.array([0.2, 0.7, 0.4, 0.9])
RULE_Y = np.array([0, 1, 0, 1])
RULE_IDS = np.array([0, 1, 1, 0])
RULE_SCORES = ScoreSet.from_probabilities(RULE_P)
RULE_CM = ClusterModel("kmeans", np.zeros((2, 1)), np.array([2, 2]))


def rule_train(y, clusters):
    """train_clustered on RULE_SCORES, with a fallback fitted on RULE_Y."""
    return train_clustered(RULE_SCORES, y, clusters, RULE_CM, "platt",
                           fit("platt", RULE_SCORES, RULE_Y))


class TestSharedInputRules:
    """Every boundary applies the one label, probability, shape and cluster-id
    rule; the message names the argument (or the file) that broke it."""

    P = np.array([0.2, 0.7, 0.4, 0.9])
    Y = np.array([0.0, 1.0, 0.0, 1.0])
    # boundary -> (call on probabilities and labels, name of the labels, of the probabilities)
    BOUNDARIES = {
        "ece": (lambda p, y: ece(p, y), "y", "probabilities"),
        "nll_of_probs": (lambda p, y: nll_of_probs(p, y), "y", "p"),
        "paired_resample_test": (lambda p, y: paired_resample_test(p, np.full(len(p), 0.5), y),
                                 "y", "scores_a"),
        "improved_sample_fraction[p_cluster]": (
            lambda p, y: improved_sample_fraction(p, np.full(len(p), 0.5), RULE_IDS, y),
            "y", "p_cluster"),
        "improved_sample_fraction[p_unified]": (
            lambda p, y: improved_sample_fraction(np.full(len(p), 0.5), p, RULE_IDS, y),
            "y", "p_unified"),
    }
    # score CSV layouts with a probability column: boundary -> (header, row)
    CSV_LAYOUTS = {
        "load_external_scores[probability]": ("sample_id,probability", "{i},{p!r}"),
        "load_external_scores[margin,probability]": ("sample_id,margin,probability",
                                                     "{i},0.0,{p!r}"),
    }

    @pytest.mark.parametrize("bad", [2.0, 0.5, -1.0, np.nan])
    @pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
    def test_bad_label(self, boundary, bad):
        call, name, _ = self.BOUNDARIES[boundary]
        y = self.Y.copy()
        y[1] = bad
        with pytest.raises(ValueError, match=rf"^{name} must hold 0/1 labels$"):
            call(self.P, y)

    @pytest.mark.parametrize("bad", [1.5, -0.3, np.nan, np.inf])
    @pytest.mark.parametrize("boundary", sorted(BOUNDARIES) + sorted(CSV_LAYOUTS))
    def test_bad_probability(self, boundary, bad, tmp_path):
        p = self.P.copy()
        p[2] = bad
        if boundary in self.CSV_LAYOUTS:
            header, row = self.CSV_LAYOUTS[boundary]
            path = tmp_path / "scores.csv"
            path.write_text("\n".join([header] + [row.format(i=i, p=x)
                                                  for i, x in enumerate(p.tolist())]) + "\n")
            call, name = (lambda p, y: load_external_scores(str(path))), f"{path}: probabilities"
        else:
            call, _, name = self.BOUNDARIES[boundary]
        with pytest.raises(ValueError) as exc:
            call(p, self.Y)
        assert str(exc.value) == f"{name} must be finite, with no value outside [0, 1]"

    # boundary -> (call on its arrays, the arrays, the names its message gives
    # them); every array is 1-D, of length 4, and accepted as given
    SHAPED = {
        "ece": (ece, (RULE_P, RULE_Y), "p and y"),
        "scalar_metrics": (scalar_metrics, (RULE_P, RULE_Y), "p and y"),
        "cece": (cece, (RULE_P, RULE_Y, RULE_IDS), "p, y and cluster_labels"),
        "auc": (auc, (RULE_P, RULE_Y), "scores and y"),
        "rejection_curve": (rejection_curve, (RULE_P, RULE_Y), "p and y"),
        "rejection_curve[thresholds]": (lambda t: rejection_curve(RULE_P, RULE_Y, t),
                                        (np.array([0.2, 0.5, 0.8, 0.9]),), "thresholds"),
        "nll_of_probs": (nll_of_probs, (RULE_P, RULE_Y), "p and y"),
        "fit": (lambda y: fit("platt", RULE_SCORES, y), (RULE_Y,), "scores and labels"),
        "pav": (pav, (RULE_P, np.ones(4)), "values and weights"),
        "train_clustered": (rule_train, (RULE_Y, RULE_IDS), "scores, labels and clusters"),
        "improved_sample_fraction": (improved_sample_fraction, (RULE_P, RULE_P, RULE_IDS, RULE_Y),
                                     "p_cluster, p_unified, labels and y"),
        "diagnostics": (lambda ids, y: diagnostics(RULE_CM, ids, y), (RULE_IDS, RULE_Y),
                        "labels and y"),
        "paired_resample_test": (paired_resample_test, (RULE_P, RULE_P, RULE_Y),
                                 "scores_a, scores_b and y"),
        "ScoreSet": (ScoreSet, (logit(RULE_P), RULE_P), "margins and probabilities"),
    }
    # shape case -> the arrays of a boundary, reshaped
    SHAPES = {
        "2d": lambda arrays: [np.stack([a, a]) for a in arrays],
        "0d": lambda arrays: [a[0] for a in arrays],
        "misaligned": lambda arrays: [*arrays[:-1], arrays[-1][:-1]],
        "empty": lambda arrays: [a[:0] for a in arrays],
    }

    @pytest.mark.parametrize("boundary, shape", [  # one threshold array cannot be misaligned
        (b, s) for b, s in itertools.product(SHAPED, SHAPES)
        if (b, s) != ("rejection_curve[thresholds]", "misaligned")])
    def test_bad_shape(self, boundary, shape):
        call, arrays, names = self.SHAPED[boundary]
        with pytest.raises(ValueError) as exc:
            call(*self.SHAPES[shape](arrays))
        assert str(exc.value) == f"{names} must be aligned, non-empty 1-D arrays"

    # boundary -> (call on cluster ids, the k it checks them against, if any)
    WITH_IDS = {
        "cece": (lambda ids: cece(RULE_P, RULE_Y, ids), None),
        "improved_sample_fraction": (
            lambda ids: improved_sample_fraction(RULE_P, RULE_P, ids, RULE_Y), None),
        "train_clustered": (lambda ids: rule_train(RULE_Y, ids), RULE_CM.k),
        "diagnostics": (lambda ids: diagnostics(RULE_CM, ids, RULE_Y), RULE_CM.k),
    }
    BAD_IDS = {
        "float": [0.7, 0.2, 1.5, 1.9],
        "negative": [0, -1, 0, 1],
        "k_or_more": [0, 2, 0, 1],
        "bool": [True, False, True, False],
    }

    @pytest.mark.parametrize("boundary, case", [
        (b, c) for (b, (_, k)), c in itertools.product(WITH_IDS.items(), BAD_IDS)
        if k is not None or c != "k_or_more"])
    def test_bad_cluster_ids(self, boundary, case):
        call, k = self.WITH_IDS[boundary]
        with pytest.raises(ValueError) as exc:
            call(np.array(self.BAD_IDS[case]))
        span = ">= 0" if k is None else f"in [0, {k})"
        assert str(exc.value) == f"cluster ids must be integers {span}"


def _rule_dataset(X):
    return Dataset(X, RULE_Y, ("a", "b"), tuple("wxyz"))


RULE_X = np.array([[0.0, 1.0], [0.5, -1.0], [2.0, 0.0], [3.0, 2.5]])
RULE_ENS = fit_gbt(_rule_dataset(RULE_X), GBTParams(n_trees=2, max_depth=2))
RULE_CM2 = ClusterModel("kmeans", RULE_X[:2], np.array([2, 2]))
RULE_CCL = ClusteredCalibrator(RULE_CM2, "platt", {}, fit("platt", RULE_SCORES, RULE_Y), 30)


class TestMatrixRule:
    """Every 2-D boundary applies the one matrix rule, ``_matrix``: a 2-D
    array of finite values with at least one row, and the rows and columns
    the boundary fixes; the message names the matrix and its expected shape.
    Each boundary's finiteness check is tested where the boundary is."""

    # boundary -> (call on a matrix, the name its message gives it, the rows
    # and columns it fixes); each accepts RULE_X, or RULE_X[:2] for the init
    BOUNDARIES = {
        "Dataset": (_rule_dataset, "feature matrix", 4, 2),
        "predict": (lambda X: predict(RULE_ENS, X), "feature matrix", None, 2),
        "margins": (RULE_ENS.margins, "feature matrix", None, 2),
        "leaf_indices": (lambda X: leaf_indices(RULE_ENS, X), "feature matrix", None, 2),
        "shap_values": (lambda X: shap_values(RULE_ENS, X), "feature matrix", None, 2),
        "build_embedding": (lambda X: build_embedding("external", None, _rule_dataset(RULE_X),
                                                      vectors=X), "embedding", 4, None),
        "fit_kmeans": (lambda X: fit_kmeans(X, 1), "embedding", None, None),
        "fit_kmeans[init]": (lambda X: fit_kmeans(RULE_X, 2, init=X), "init", 2, 2),
        "fit_agglomerative": (lambda X: fit_agglomerative(X, 1), "embedding", None, None),
        "select_k_elbow": (lambda X: select_k_elbow(X, (2, 4, 1)), "embedding", None, None),
        "assign": (lambda X: assign(RULE_CM2, X), "embedding", None, 2),
        "infer": (lambda X: RULE_CCL.infer(RULE_SCORES, X), "embedding", None, 2),
    }
    # case -> the accepted matrix, changed; the row and column cases apply
    # only where the boundary fixes that count
    CASES = {
        "1-D": lambda X: X[:, 0],
        "3-D": lambda X: X[None],
        "no rows": lambda X: X[:0],
        "a row more": lambda X: np.vstack([X, X[:1]]),
        "a column more": lambda X: np.hstack([X, X[:, :1]]),
    }

    @pytest.mark.parametrize("boundary, case", [
        (b, c) for (b, (_, _, rows, columns)), c in itertools.product(BOUNDARIES.items(), CASES)
        if (rows or c != "a row more") and (columns or c != "a column more")])
    def test_bad_matrix(self, boundary, case):
        call, name, rows, columns = self.BOUNDARIES[boundary]
        bad = self.CASES[case](RULE_X[:2] if name == "init" else RULE_X)
        with pytest.raises(ValueError) as exc:
            call(bad)
        assert str(exc.value) == (f"{name} must be 2-D, of shape ({rows or 'N >= 1'}, "
                                  f"{columns or 'm'}), not {bad.shape}")
        assert isinstance(exc.value, DataError) == (boundary == "Dataset")

    # test_representation.py's TestEmbeddingRule passes lists to the others
    @pytest.mark.parametrize("boundary", [b for b, v in BOUNDARIES.items() if v[1] != "embedding"])
    def test_accepts_a_list_of_rows(self, boundary):
        call, name, _, _ = self.BOUNDARIES[boundary]
        call((RULE_X[:2] if name == "init" else RULE_X).tolist())

    def test_returns_float64_without_copying_it(self):
        assert _matrix(RULE_X, "x") is RULE_X
        ints = _matrix([[1, 2], [3, 4]], "x", rows=2, columns=2)
        assert ints.dtype == np.float64 and ints.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_a_matrix_may_have_no_columns(self):
        assert _matrix(np.zeros((3, 0)), "x").shape == (3, 0)
        assert _matrix(np.zeros((3, 0)), "x", rows=3, columns=0).shape == (3, 0)


class TestCece:
    def test_invariant_bins_under_recalibration(self):
        # cluster bins ignore p, so a recalibrated p changes only the gaps
        rng = np.random.default_rng(2)
        p = rng.uniform(0.05, 0.95, size=60)
        y = rng.integers(0, 2, size=60)
        labels = rng.integers(0, 4, size=60)
        _, s1 = cece(p, y, labels)
        _, s2 = cece(np.clip(p + 0.01, 0, 1), y, labels)
        assert s1.counts.tolist() == s2.counts.tolist()
        np.testing.assert_allclose(s1.obs_rate, s2.obs_rate)

    def test_single_cluster_is_global_gap(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(size=30)
        y = rng.integers(0, 2, size=30)
        val, _ = cece(p, y, np.zeros(30, dtype=int))
        assert val == pytest.approx(abs(y.mean() - p.mean()), abs=1e-12)

    def test_base_variants(self):
        p = np.array([0.2, 0.8, 0.4, 0.6])
        y = np.array([1, 1, 0, 1])
        labels = np.array([0, 0, 1, 1])
        gaps = np.array([1.0 - 0.5, 0.5 - 0.5])  # per-cluster obs - pred
        assert cece(p, y, labels, "ece")[0] == pytest.approx(
            (2 * abs(gaps[0]) + 2 * abs(gaps[1])) / 4)
        assert cece(p, y, labels, "mce")[0] == pytest.approx(np.abs(gaps).max())
        assert cece(p, y, labels, "adaece")[0] == pytest.approx(
            np.sqrt((2 * gaps**2).sum() / 4))
        with pytest.raises(ValueError):
            cece(p, y, labels, "rmse")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cece(np.array([0.5, 0.5]), np.array([0, 1]), np.array([0]))

    @pytest.mark.parametrize("m", [1, 3, 10, 25])
    def test_equals_binned_metrics_on_their_own_bins(self, m):
        # one error kernel over the same bins gives the same floats, which are
        # those of the per-metric expressions it replaced
        rng = np.random.default_rng(m)
        for ties in (False, True):
            p = rng.uniform(size=60)
            if ties:
                p = np.round(p * 8) / 8
            p[0] = 1.0  # the top bin is occupied, so cece sees all m bins
            y = rng.integers(0, 2, size=60)
            for scheme in ("equal_width", "equal_mass"):
                ids = _bin_ids(p, m, scheme)
                assert ids.max() == m - 1
                val, stats = ece(p, y, m, scheme)
                assert cece(p, y, ids, "ece")[0] == val == ref_gap(stats, 60, "ece")
                val, stats = mce(p, y, m, scheme)
                assert cece(p, y, ids, "mce")[0] == val == ref_gap(stats, 60, "mce")
            ids = _bin_ids(p, m, "equal_mass")
            val, stats = ada_ece(p, y, m)
            assert cece(p, y, ids, "adaece")[0] == val == ref_gap(stats, 60, "adaece")


class TestAuc:
    def test_brute_force_random(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(5, 60))
            s = rng.choice([-np.inf, 0.1, 0.3, 0.5, 0.7, 0.9, np.inf], size=n)  # force ties
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            assert auc(s, y) == pytest.approx(brute_auc(s, y), abs=1e-12)

    def test_perfect_and_random(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
        assert auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=40),
           st.integers(0, 10_000))
    def test_monotone_transform_invariance(self, s, seed):
        # quantize so the affine map cannot collapse distinct values in float
        s = np.round(np.asarray(s), 6)
        y = np.random.default_rng(seed).integers(0, 2, size=len(s))
        if y.min() == y.max():
            y[0] = 1 - y[0]
        a = auc(s, y)
        b = auc(2.0 * s + 7.0, y)  # strictly increasing map
        assert a == pytest.approx(b, abs=1e-12)

    def test_single_class_error(self):
        with pytest.raises(ValueError, match="both classes"):
            auc([0.1, 0.9], [1, 1])


class TestAverageRanks:
    """The numpy ranks behind ``auc`` equal scipy's ``rankdata(method="average")``."""

    @staticmethod
    def assert_same_bytes(s):
        s = np.asarray(s, dtype=np.float64)
        got, want = _average_ranks(s), rankdata(s, method="average")
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("decimals", [0, 1, 2])
    def test_heavy_ties(self, decimals):
        rng = np.random.default_rng(decimals)
        for _ in range(200):
            self.assert_same_bytes(np.round(rng.normal(size=int(rng.integers(2, 120))), decimals))

    def test_infinities(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            s = np.round(rng.normal(size=int(rng.integers(2, 60))), 1)
            s[rng.random(len(s)) < 0.2] = np.inf
            s[rng.random(len(s)) < 0.2] = -np.inf
            self.assert_same_bytes(s)
        self.assert_same_bytes([np.inf, -np.inf, np.inf, 0.0, -np.inf])

    @pytest.mark.parametrize("s", [[0.3], [-np.inf], [2.0] * 7, [np.inf] * 3, [0.0, -0.0, 0.0]])
    def test_single_and_all_equal(self, s):
        self.assert_same_bytes(s)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=50))
    def test_any_finite_or_infinite_floats(self, s):
        self.assert_same_bytes(s)


class TestScalarMetrics:
    def test_hand_values(self):
        p = np.array([0.8, 0.4])
        y = np.array([1, 1])
        out = scalar_metrics(p, y)
        assert out["ACC"] == pytest.approx(0.5)
        assert out["CE"] == pytest.approx(-(np.log(0.8) + np.log(0.4)) / 2)
        assert out["MSE_brier"] == pytest.approx((0.04 + 0.36) / 2)
        assert out["RMSE"] == pytest.approx(np.sqrt(0.2))


class TestReliability:
    def test_bin_centers(self):
        rows, _ = reliability_data(HAND_P, HAND_Y, 2)
        assert [r["bin_center"] for r in rows] == [0.25, 0.75]


class TestRejection:
    def test_hand_example(self):
        p = np.array([0.05, 0.6, 0.95, 0.45])
        y = np.array([0, 0, 1, 1])
        curve = rejection_curve(p, y, [0.2, 0.85, 1.0])
        # uncertainties: 0.1, 0.8, 0.1, 0.9
        assert curve.accepted.tolist() == [2, 3, 4]
        assert curve.error_rate.tolist() == [0.0, pytest.approx(1 / 3), 0.5]
        np.testing.assert_allclose(curve.rejection_rate, [0.5, 0.25, 0.0])

    def test_empty_accept_is_zero(self):
        curve = rejection_curve(np.array([0.5]), np.array([1]), [0.0])
        assert curve.accepted[0] == 0
        assert curve.error_rate[0] == 0.0

    def test_independent_recompute(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0.01, 0.99, size=200)
        y = rng.integers(0, 2, size=200)
        ts = np.arange(0.0, 0.91, 0.1)
        curve = rejection_curve(p, y, ts)
        u = 2 * np.minimum(p, 1 - p)
        for i, t in enumerate(ts):
            mask = u <= t
            assert curve.accepted[i] == mask.sum()
            if mask.any():
                assert curve.error_rate[i] == pytest.approx(
                    float(((p[mask] >= 0.5).astype(int) != y[mask]).mean()), abs=1e-12)

    @pytest.mark.parametrize("thresholds", [
        np.arange(0.0, 0.91, 0.1),
        [0.5, 0.1, 0.9, 0.1, 0.0, 1.0, 0.5],        # unsorted and repeated
        [0.1, 0.5, 0.2],
    ])
    def test_equals_the_mask_loop(self, thresholds):
        rng = np.random.default_rng(len(thresholds))
        for draw in range(30):
            n = int(rng.integers(1, 80))
            p = rng.uniform(size=n)
            if draw % 2:        # uncertainties exactly at a threshold: u = 2 * 0.05 = 0.1
                p[: n // 2] = rng.choice([0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0], size=n // 2)
            y = rng.integers(0, 2, size=n)
            curve = rejection_curve(p, y, thresholds)
            u = 2.0 * np.minimum(p, 1.0 - p)
            wrong = (p >= 0.5).astype(np.int64) != y
            for i, t in enumerate(np.asarray(thresholds, dtype=np.float64)):
                mask = u <= t
                assert curve.accepted[i] == mask.sum()
                assert curve.error_rate[i] == (float(wrong[mask].mean()) if mask.any() else 0.0)
                assert curve.rejection_rate[i] == 1.0 - mask.sum() / n

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            rejection_curve(np.array([0.5]), np.array([1]), [-0.1])

    @pytest.mark.parametrize("t", [-0.1, 1.5, np.nan, np.inf, -np.inf])
    def test_thresholds_follow_the_probability_rule(self, t):
        with pytest.raises(ValueError, match="^thresholds must be finite, with no value outside"):
            rejection_curve(np.array([0.5]), np.array([1]), [0.5, t])

    def test_default_thresholds_are_the_config_default(self):
        curve = rejection_curve(np.array([0.3, 0.8]), np.array([0, 1]))
        assert curve.thresholds.tolist() == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        assert tuple(curve.thresholds) == REJECTION_THRESHOLDS == (
            harness.ExperimentConfig.rejection_thresholds)
