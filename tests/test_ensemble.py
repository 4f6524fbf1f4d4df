"""Per-cluster calibration ensemble behavior."""

import json

import numpy as np
import pytest

from clustercal.calibrators import FitData, fit
from clustercal.data import SyntheticSpec, gen_synthetic_full, split
from clustercal.ensemble import ClusteredCalibrator, improved_sample_fraction, train_clustered
from clustercal.harness import _jsonable
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
    data = FitData.from_scores(scores, y)
    return train_clustered(data, assign(cm, V), cm, method, fit(method, data), **kwargs)


class TestTrainClustered:
    def test_requires_parametric_method(self):
        ds, sp, scores, E, cm = synth_setup()
        with pytest.raises(ValueError, match="parametric"):
            train(scores.take(sp.calibration), E[sp.calibration],
                  cm, "isotonic", ds.labels[sp.calibration])

    def test_alignment_checked(self):
        ds, sp, scores, E, cm = synth_setup()
        data = FitData.from_scores(scores.take(sp.calibration), ds.labels[sp.calibration])
        labels = assign(cm, E[sp.calibration])
        with pytest.raises(ValueError, match="aligned"):
            train_clustered(data, labels[:3], cm, "platt", fit("platt", data))

    def test_cluster_ids_must_belong_to_the_model(self):
        ds, sp, scores, E, cm = synth_setup()
        data = FitData.from_scores(scores.take(sp.calibration), ds.labels[sp.calibration])
        labels = assign(cm, E[sp.calibration])
        labels[0] = cm.k
        with pytest.raises(ValueError, match="cluster ids"):
            train_clustered(data, labels, cm, "platt", fit("platt", data))

    def test_fallback_must_be_the_base_method(self):
        ds, sp, scores, E, cm = synth_setup()
        data = FitData.from_scores(scores.take(sp.calibration), ds.labels[sp.calibration])
        labels = assign(cm, E[sp.calibration])
        with pytest.raises(ValueError, match="fallback is a 'beta' calibrator, expected 'platt'"):
            train_clustered(data, labels, cm, "platt", fit("beta", data))

    def test_single_cluster_equals_unified(self):
        ds, sp, scores, E, _ = synth_setup()
        V = E[sp.calibration]
        cm1 = ClusterModel("kmeans", 1, V.mean(axis=0, keepdims=True),
                           np.array([len(V)]), np.array([0]))
        ccl = train(scores.take(sp.calibration), V, cm1, "platt", ds.labels[sp.calibration])
        uni = fit("platt", FitData.from_scores(scores.take(sp.calibration),
                                               ds.labels[sp.calibration]))
        p_ccl, _ = ccl.infer(scores.take(sp.test), E[sp.test])
        p_uni = uni.apply(scores.take(sp.test))
        np.testing.assert_allclose(p_ccl, p_uni, atol=1e-6)

    def test_homogeneous_cluster_gets_laplace_constant(self):
        # cluster 1 is far away and all-positive
        V = np.r_[np.zeros((40, 1)), np.full((8, 1), 50.0)]
        y = np.r_[np.random.default_rng(0).integers(0, 2, 40), np.ones(8, dtype=int)]
        margins = np.random.default_rng(1).normal(size=48)
        cm = ClusterModel("kmeans", 2, np.array([[0.0], [50.0]]),
                          np.array([40, 8]), np.array([0, 0]))
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
        cm = ClusterModel("kmeans", 2, np.array([[0.0], [50.0]]),
                          np.array([60, 5]), np.array([0, 0]))
        ccl = train(ScoreSet.from_margins(rng.normal(size=65)), V, cm, "platt", y)
        assert ccl.cluster_meta[1]["used_fallback"]
        assert ccl.resolve(1).params == ccl.fallback.params

    def test_min_fit_size_option(self):
        V = np.r_[np.zeros((60, 1)), np.full((5, 1), 50.0)]
        rng = np.random.default_rng(2)
        y = rng.integers(0, 2, 65)
        y[60:] = [0, 1, 0, 1, 0]
        cm = ClusterModel("kmeans", 2, np.array([[0.0], [50.0]]),
                          np.array([60, 5]), np.array([0, 0]))
        ccl = train(ScoreSet.from_margins(rng.normal(size=65)), V, cm,
                    "platt", y, min_fit_size=4)
        assert not ccl.cluster_meta[1]["used_fallback"]

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
            sub = FitData(cal_s.margins[mask], cal_s.probabilities[mask], y_cal[mask])
            assert ccl.resolve(c).nll(sub) <= ccl.fallback.nll(sub) + 1e-8

    def test_serialization_roundtrip(self):
        ds, sp, scores, E, cm = synth_setup(seed=5)
        ccl = train(scores.take(sp.calibration), E[sp.calibration],
                    cm, "beta", ds.labels[sp.calibration])
        back = ClusteredCalibrator.from_dict(json.loads(json.dumps(_jsonable(ccl), sort_keys=True)))
        p_a, l_a = ccl.infer(scores.take(sp.test), E[sp.test])
        p_b, l_b = back.infer(scores.take(sp.test), E[sp.test])
        np.testing.assert_allclose(p_a, p_b, atol=1e-12)
        np.testing.assert_array_equal(l_a, l_b)
        assert back.cluster_meta == ccl.cluster_meta


class TestImprovedFraction:
    def test_hand_example(self):
        # cluster 0: the clustered probabilities are calibrated, the unified ones
        # are not; cluster 1: both are the same, so it is not strictly improved
        labels = np.array([0, 0, 1, 1])
        y = np.array([0, 1, 0, 1])
        p_unified = np.array([0.1, 0.9, 0.1, 0.9])
        p_cluster = np.array([0.5, 0.5, 0.1, 0.9])
        assert improved_sample_fraction(p_cluster, p_unified, labels, y) == 0.5

    def test_bounded_and_zero_for_identical_models(self):
        ds, sp, scores, E, _ = synth_setup(seed=6)
        V = E[sp.calibration]
        cm1 = ClusterModel("kmeans", 1, V.mean(axis=0, keepdims=True),
                           np.array([len(V)]), np.array([0]))
        ccl = train(scores.take(sp.calibration), V, cm1, "platt", ds.labels[sp.calibration])
        uni = fit("platt", FitData.from_scores(scores.take(sp.calibration),
                                               ds.labels[sp.calibration]))
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
