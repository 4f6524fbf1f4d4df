"""Per-cluster calibration ensemble behavior."""

import json

import numpy as np
import pytest

from clustercal.calibrators import fit
from clustercal.data import SyntheticSpec, gen_synthetic_full, split
from clustercal.ensemble import ClusteredCalibrator, improved_sample_fraction, train_clustered
from clustercal.harness import _jsonable, _section
from clustercal.metrics import _cluster_eces, ece
from clustercal.representation import ClusterModel, assign, fit_kmeans
from clustercal.scores import ScoreSet


def synth_setup(seed=0, offsets=(2.0, -2.0, 1.0), rates=(0.2, 0.5, 0.8), n=500):
    spec = SyntheticSpec(3, n, 2, rates, offsets, noise=1.0, seed=seed)
    ds, margins, _ = gen_synthetic_full(spec)
    sp = split(ds, (0.6, 0.2, 0.2), seed)
    scores = ScoreSet.from_margins(margins)
    E = ds.features
    fit_idx = np.sort(np.concatenate([sp.train, sp.calibration]))
    cm = fit_kmeans(E[fit_idx], 3, seed)
    return ds, sp, scores, E, cm


def train(scores, V, cm, method, y, **kwargs):
    """Assign the rows, fit the global calibrator and train the ensemble on them."""
    return train_clustered(scores, y, assign(cm, V), cm, method, fit(method, scores, y), **kwargs)


class TestTrainClustered:
    def test_requires_parametric_method(self):
        ds, sp, scores, E, cm = synth_setup()
        with pytest.raises(ValueError, match="parametric"):
            train(scores.take(sp.calibration), E[sp.calibration],
                  cm, "isotonic", ds.labels[sp.calibration])

    def test_alignment_checked(self):
        ds, sp, scores, E, cm = synth_setup()
        cal, y = scores.take(sp.calibration), ds.labels[sp.calibration]
        labels = assign(cm, E[sp.calibration])
        with pytest.raises(ValueError, match="aligned"):
            train_clustered(cal, y, labels[:3], cm, "platt", fit("platt", cal, y))

    def test_cluster_ids_must_belong_to_the_model(self):
        ds, sp, scores, E, cm = synth_setup()
        cal, y = scores.take(sp.calibration), ds.labels[sp.calibration]
        labels = assign(cm, E[sp.calibration])
        labels[0] = cm.k
        with pytest.raises(ValueError, match="cluster ids"):
            train_clustered(cal, y, labels, cm, "platt", fit("platt", cal, y))

    def test_fallback_must_be_the_base_method(self):
        ds, sp, scores, E, cm = synth_setup()
        cal, y = scores.take(sp.calibration), ds.labels[sp.calibration]
        labels = assign(cm, E[sp.calibration])
        with pytest.raises(ValueError, match="fallback is a 'beta' calibrator, expected 'platt'"):
            train_clustered(cal, y, labels, cm, "platt", fit("beta", cal, y))

    def test_single_cluster_equals_unified(self):
        ds, sp, scores, E, _ = synth_setup()
        V = E[sp.calibration]
        cm1 = ClusterModel("kmeans", V.mean(axis=0, keepdims=True), np.array([len(V)]))
        ccl = train(scores.take(sp.calibration), V, cm1, "platt", ds.labels[sp.calibration])
        uni = fit("platt", scores.take(sp.calibration), ds.labels[sp.calibration])
        p_ccl, _ = ccl.infer(scores.take(sp.test), E[sp.test])
        p_uni = uni.apply(scores.take(sp.test))
        np.testing.assert_allclose(p_ccl, p_uni, atol=1e-6)

    def test_homogeneous_cluster_gets_laplace_constant(self):
        # cluster 1 is far away and all-positive
        V = np.r_[np.zeros((40, 1)), np.full((8, 1), 50.0)]
        y = np.r_[np.random.default_rng(0).integers(0, 2, 40), np.ones(8, dtype=int)]
        margins = np.random.default_rng(1).normal(size=48)
        cm = ClusterModel("kmeans", np.array([[0.0], [50.0]]), np.array([40, 8]))
        ccl = train(ScoreSet.from_margins(margins), V, cm, "platt", y)
        cal = ccl.resolve(1)
        assert cal.method == "constant"
        assert cal.params["p0"] == pytest.approx(9 / 10)
        assert ccl.cluster_meta[1]["used_constant"]

    def test_small_cluster_uses_fallback(self):
        V = np.r_[np.zeros((60, 1)), np.full((5, 1), 50.0)]
        rng = np.random.default_rng(2)
        y = rng.integers(0, 2, 65)
        y[60:] = [0, 1, 0, 1, 0]  # mixed labels but below the fit floor
        cm = ClusterModel("kmeans", np.array([[0.0], [50.0]]), np.array([60, 5]))
        ccl = train(ScoreSet.from_margins(rng.normal(size=65)), V, cm, "platt", y)
        assert ccl.cluster_meta[1]["used_fallback"]
        assert 1 not in ccl.calibrators and ccl.resolve(1) is ccl.fallback

    def test_min_fit_size_option(self):
        V = np.r_[np.zeros((60, 1)), np.full((5, 1), 50.0)]
        rng = np.random.default_rng(2)
        y = rng.integers(0, 2, 65)
        y[60:] = [0, 1, 0, 1, 0]
        cm = ClusterModel("kmeans", np.array([[0.0], [50.0]]), np.array([60, 5]))
        ccl = train(ScoreSet.from_margins(rng.normal(size=65)), V, cm,
                    "platt", y, min_fit_size=4)
        assert not ccl.cluster_meta[1]["used_fallback"]

    def test_min_fit_size_may_not_be_negative(self):
        ds, sp, scores, E, cm = synth_setup()
        with pytest.raises(ValueError, match="^min_fit_size must be >= 0, not -5$"):
            train(scores.take(sp.calibration), E[sp.calibration], cm, "platt",
                  ds.labels[sp.calibration], min_fit_size=-5)

    @pytest.mark.parametrize("method", ["platt", "temperature", "beta", "dirichlet2"])
    def test_per_cluster_nll_never_worse_than_global(self, method):
        ds, sp, scores, E, cm = synth_setup(seed=4)
        cal_s = scores.take(sp.calibration)
        y_cal = ds.labels[sp.calibration]
        ccl = train(cal_s, E[sp.calibration], cm, method, y_cal)
        labels = assign(cm, E[sp.calibration])
        for c in range(cm.k):
            mask = labels == c
            if not mask.any() or ccl.cluster_meta[c]["used_constant"]:
                continue
            sub, y_sub = cal_s.take(mask), y_cal[mask]
            assert ccl.resolve(c).nll(sub, y_sub) <= ccl.fallback.nll(sub, y_sub) + 1e-8

    def test_a_cluster_fit_worse_than_the_fallback_keeps_the_fallback(self):
        # on this draw the temperature fit on cluster 0 has a higher NLL there
        # than the global fit
        rng = np.random.default_rng(4)
        scores = ScoreSet.from_margins(rng.normal(size=60))
        y = (rng.random(60) < 0.5).astype(int)
        cm = ClusterModel("kmeans", np.zeros((2, 1)), np.array([30, 30]))
        fallback = fit("temperature", scores, y)
        ccl = train_clustered(scores, y, np.repeat([0, 1], 30), cm, "temperature", fallback)
        kept = ccl.resolve(0)
        assert kept.diagnostics["refit"] == "kept_global"
        assert kept is not fallback
        assert (kept.method, kept.params) == (fallback.method, fallback.params)
        assert "refit" not in ccl.resolve(1).diagnostics
        assert not ccl.cluster_meta[0]["used_fallback"]

    def test_a_cluster_without_rows_uses_the_fallback(self):
        rng = np.random.default_rng(6)
        scores = ScoreSet.from_margins(rng.normal(size=60))
        y = rng.integers(0, 2, 60)
        cm = ClusterModel("kmeans", np.zeros((3, 1)), np.array([30, 30, 1]))
        fallback = fit("platt", scores, y)
        ccl = train_clustered(scores, y, np.repeat([0, 2], 30), cm, "platt", fallback)
        assert 1 not in ccl.calibrators and ccl.resolve(1) is fallback
        assert ccl.cluster_meta[1] == {"size": 0, "positive_rate": 0.0,
                                       "used_fallback": True, "used_constant": False}

    def test_infer_needs_one_embedding_row_per_score(self):
        ds, sp, scores, E, cm = synth_setup()
        ccl = train(scores.take(sp.calibration), E[sp.calibration], cm, "platt",
                    ds.labels[sp.calibration])
        with pytest.raises(ValueError, match=r"^embedding has 200 rows, expected one per "
                                             r"score \(150\)$"):
            ccl.infer(scores.take(np.arange(150)), E[:200])

    def test_serialization_roundtrip(self):
        ds, sp, scores, E, cm = synth_setup(seed=5)
        ccl = train(scores.take(sp.calibration), E[sp.calibration],
                    cm, "beta", ds.labels[sp.calibration])
        back = _section(ClusteredCalibrator, "ccl",
                        json.loads(json.dumps(_jsonable(ccl), sort_keys=True)))
        p_a, l_a = ccl.infer(scores.take(sp.test), E[sp.test])
        p_b, l_b = back.infer(scores.take(sp.test), E[sp.test])
        np.testing.assert_allclose(p_a, p_b, atol=1e-12)
        np.testing.assert_array_equal(l_a, l_b)
        assert back.cluster_meta == ccl.cluster_meta


def reference_improved_fraction(p_cluster, p_unified, labels, y, n_bins, scheme):
    """The per-cluster loop of two ``ece`` calls that one grouped binning replaced."""
    improved = 0
    for c in np.unique(labels):
        mask = labels == c
        m = min(n_bins, int(mask.sum()))
        if ece(p_cluster[mask], y[mask], m, scheme)[0] < ece(p_unified[mask], y[mask], m,
                                                               scheme)[0]:
            improved += int(mask.sum())
    return improved / len(y)


class TestImprovedFraction:
    # case -> (rows, the cluster ids a row may take)
    ORACLE_CASES = {
        "many_rows": (400, np.arange(6)),
        "clusters_below_n_bins": (25, np.arange(5)),
        "single_cluster": (40, np.array([0])),
        "unused_ids_between": (60, np.array([1, 4, 9])),
    }

    @pytest.mark.parametrize("scheme", ["equal_width", "equal_mass"])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_equals_the_per_cluster_ece_loop(self, case, scheme):
        n, ids = self.ORACLE_CASES[case]
        rng = np.random.default_rng([len(case), n])
        for draw in range(40):
            labels = rng.choice(ids, size=n)
            y = rng.integers(0, 2, size=n)
            p_unified = rng.uniform(size=n)
            p_cluster = np.clip(p_unified + rng.normal(0, 0.2, size=n), 0, 1)
            if draw % 2:        # ties, and the edges 0 and 1
                p_unified, p_cluster = np.round(p_unified * 6) / 6, np.round(p_cluster * 6) / 6
            n_bins = int(rng.integers(1, 16))
            eces, sizes = _cluster_eces(p_cluster, y, labels, n_bins, scheme)
            assert len(eces) == len(sizes) == len(np.unique(labels))
            for e, size, c in zip(eces, sizes, np.unique(labels)):
                mask = labels == c
                assert size == mask.sum()
                assert e == ece(p_cluster[mask], y[mask], min(n_bins, int(size)), scheme)[0]
            got = improved_sample_fraction(p_cluster, p_unified, labels, y, n_bins, scheme)
            assert got == reference_improved_fraction(p_cluster, p_unified, labels, y,
                                                      n_bins, scheme)

    def test_bins_and_scheme_are_checked(self):
        p, ids, y = np.array([0.2, 0.7]), np.array([0, 1]), np.array([0, 1])
        with pytest.raises(ValueError, match="^need at least one bin$"):
            improved_sample_fraction(p, p, ids, y, 0)
        with pytest.raises(ValueError, match="^unknown binning scheme 'quantile'$"):
            improved_sample_fraction(p, p, ids, y, 10, "quantile")

    def test_hand_example(self):
        # cluster 0: the clustered probabilities are calibrated, the unified ones
        # are not; cluster 1: both are the same, so it is not strictly improved
        labels = np.array([0, 0, 1, 1])
        y = np.array([0, 1, 0, 1])
        p_unified = np.array([0.1, 0.9, 0.1, 0.9])
        p_cluster = np.array([0.5, 0.5, 0.1, 0.9])
        assert improved_sample_fraction(p_cluster, p_unified, labels, y) == 0.5

    @pytest.mark.parametrize("p_cluster, p_unified, labels, y", [
        ([], [], [], []),
        ([0.5, 0.5], [0.5], [0, 0], [0, 1]),
        ([0.5, 0.5], [0.5, 0.5], [0], [0, 1]),
        ([[0.5, 0.5]], [[0.5, 0.5]], [[0, 0]], [[0, 1]]),
    ])
    def test_rejects_misaligned_or_empty_input(self, p_cluster, p_unified, labels, y):
        with pytest.raises(ValueError, match="^p_cluster, p_unified, labels and y must be "
                                             "aligned, non-empty 1-D arrays$"):
            improved_sample_fraction(p_cluster, p_unified, labels, y)

    def test_bounded_and_zero_for_identical_models(self):
        ds, sp, scores, E, _ = synth_setup(seed=6)
        V = E[sp.calibration]
        cm1 = ClusterModel("kmeans", V.mean(axis=0, keepdims=True), np.array([len(V)]))
        ccl = train(scores.take(sp.calibration), V, cm1, "platt", ds.labels[sp.calibration])
        uni = fit("platt", scores.take(sp.calibration), ds.labels[sp.calibration])
        te_s = scores.take(sp.test)
        p_ccl, labels = ccl.infer(te_s, E[sp.test])
        frac = improved_sample_fraction(p_ccl, uni.apply(te_s), labels, ds.labels[sp.test])
        assert frac == 0.0  # strict inequality never holds when models coincide

    def test_high_on_oppositely_miscalibrated_subpops(self):
        ds, sp, scores, E, cm = synth_setup(seed=7)
        ccl = train(scores.take(sp.calibration), E[sp.calibration],
                    cm, "platt", ds.labels[sp.calibration])
        te_s = scores.take(sp.test)
        p_ccl, labels = ccl.infer(te_s, E[sp.test])
        frac = improved_sample_fraction(p_ccl, ccl.fallback.apply(te_s), labels,
                                        ds.labels[sp.test])
        assert 0.0 <= frac <= 1.0
        assert frac >= 0.5
