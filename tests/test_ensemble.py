"""Per-cluster calibration ensemble behavior."""

import json
import math

import numpy as np
import pytest

from clustercal import calibrators as cal_mod
from clustercal.calibrators import APPLY_EPS, PARAMETRIC_METHODS, Calibrator, fit, nll_of_probs
from clustercal.data import SyntheticSpec, gen_synthetic_full, split
from clustercal.ensemble import ClusteredCalibrator, improved_sample_fraction, train_clustered
from clustercal.harness import _jsonable, _section
from clustercal.metrics import _cluster_eces, ece
from clustercal.representation import ClusterModel, assign, fit_kmeans
from clustercal.scores import ScoreSet, sigmoid


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

    def test_a_homogeneous_cluster_keeps_its_constant_unchecked(self):
        # only a fitted cluster is checked against the fallback: three positives
        # at margins 6-7 keep their Laplace constant 0.8, though the platt
        # fallback has a far lower NLL on them
        rng = np.random.default_rng(0)
        m = np.r_[rng.normal(size=100) * 2, rng.uniform(6, 7, size=3)]
        y = np.r_[(rng.random(100) < sigmoid(m[:100])).astype(int), 1, 1, 1]
        scores = ScoreSet.from_margins(m)
        cm = ClusterModel("kmeans", np.zeros((2, 1)), np.array([100, 3]))
        fallback = fit("platt", scores, y)
        ccl = train_clustered(scores, y, np.repeat([0, 1], [100, 3]), cm, "platt", fallback)
        const, sub = ccl.resolve(1), scores.take(np.s_[100:])
        assert (const.method, const.params["p0"]) == ("constant", 0.8)
        assert const.nll(sub, y[100:]) == pytest.approx(-math.log(0.8))
        assert fallback.nll(sub, y[100:]) < 0.01

    def test_saturated_temperature_cluster_warns_of_no_overflow(self):
        # pyproject turns every RuntimeWarning into an error; cluster 1 is
        # separable at margins +-700, so its T is at the 0.01 bound, and
        # sigmoid(m / T) overflows exp in the fits, the NLL check and infer
        rng = np.random.default_rng(1)
        m = np.r_[rng.normal(size=60), rng.choice([-700.0, 700.0], size=40)]
        y = np.r_[(rng.random(60) < sigmoid(m[:60])).astype(int), m[60:] > 0]
        y[:2] = [0, 1]
        clusters = np.repeat([0, 1], [60, 40])
        scores = ScoreSet.from_margins(m)
        cm = ClusterModel("kmeans", np.array([[0.0], [1.0]]), np.array([60, 40]))
        ccl = train_clustered(scores, y, clusters, cm, "temperature",
                              fit("temperature", scores, y))
        assert ccl.resolve(1).params["T"] == pytest.approx(0.01, rel=1e-6)
        p, _ = ccl.infer(scores, cm.centroids[clusters])
        assert (p[60:] == np.where(y[60:], 1 - APPLY_EPS, APPLY_EPS)).all()

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


def _ref_nll(cal, scores, y):
    """``Calibrator.nll`` as it was: the apply of one calibrator to one cluster's rows."""
    clipped = ScoreSet(scores.margins, np.clip(scores.probabilities, APPLY_EPS, 1 - APPLY_EPS))
    return nll_of_probs(cal.apply(clipped), y)


def _ref_train_clustered(scores, y, clusters, cm, method, fallback, min_fit_size=30):
    """The per-cluster loop of masks and fits that ``train_clustered`` replaced."""
    calibrators, meta = {}, {}
    for c in range(cm.k):
        mask = clusters == c
        n_c = int(mask.sum())
        info = {"size": n_c, "positive_rate": float(y[mask].mean()) if n_c else 0.0,
                "used_fallback": False, "used_constant": False}
        if n_c == 0:
            info["used_fallback"] = True
        elif (y[mask] == y[mask][0]).all():
            calibrators[c] = cal_mod._constant(cal_mod._laplace_rate(y[mask]), note="homogeneous")
            info["used_constant"] = True
        elif n_c < min_fit_size:
            info["used_fallback"] = True
        else:
            sub, y_sub = scores.take(mask), y[mask]
            init = (fallback.params["A"], fallback.params["B"]) if method == "platt" else None
            cal = fit(method, sub, y_sub, init)
            if _ref_nll(fallback, sub, y_sub) < _ref_nll(cal, sub, y_sub):
                cal = Calibrator(fallback.method, dict(fallback.params),
                                 dict(fallback.diagnostics, refit="kept_global"))
            calibrators[c] = cal
        meta[c] = info
    return ClusteredCalibrator(cm, method, calibrators, fallback, min_fit_size, meta)


def _random_labeling(rng, k=7):
    """Scores, labels and cluster ids in which cluster 0 is empty, cluster 1
    homogeneous and cluster 2 below the fit floor; the others are fitted, each
    on rows with its own slope and shift of the true logit."""
    sizes = [0, int(rng.integers(1, 12)), int(rng.integers(2, 30))]
    sizes += rng.integers(30, 160, size=k - 3).tolist()
    clusters = rng.permutation(np.repeat(np.arange(k), sizes))
    margins = rng.normal(size=len(clusters)) * rng.uniform(0.2, 4.0)
    slope, shift = rng.normal(size=k), rng.normal(size=k)
    y = (rng.random(len(clusters)) < sigmoid(slope[clusters] * margins
                                             + shift[clusters])).astype(int)
    y[clusters == 1] = rng.integers(0, 2)
    y[np.flatnonzero(clusters == 2)[:2]] = [0, 1]
    return ScoreSet.from_margins(margins), y, clusters


def _twin_labeling(rng):
    """Two clusters of the same rows. Each cluster's fit and the global fit
    have one optimum and differ by rounding, so some clusters keep the global
    params."""
    n = int(rng.integers(30, 200))
    margins = rng.normal(size=n) * rng.uniform(0.2, 3.0)
    y = (rng.random(n) < sigmoid(rng.normal() * margins + rng.normal())).astype(int)
    y[:2] = [0, 1]
    return ScoreSet.from_margins(np.r_[margins, margins]), np.r_[y, y], np.repeat([0, 1], n)


def _json(obj):
    return json.dumps(_jsonable(obj), sort_keys=True)


class TestOneOrderedPass:
    """``train_clustered`` on cluster-sorted rows, with its batched fits and
    NLL checks, and ``infer``'s one pass per method give the bytes of the
    per-cluster loop."""

    @pytest.mark.parametrize("method", PARAMETRIC_METHODS)
    def test_train_and_infer_match_the_per_cluster_loop(self, method):
        rng = np.random.default_rng(PARAMETRIC_METHODS.index(method))
        kept_global = 0
        for i in range(60):
            scores, y, clusters = (_random_labeling if i % 3 == 0 else _twin_labeling)(rng)
            k = clusters.max() + 1
            cm = ClusterModel("kmeans", np.arange(k, dtype=float)[:, None] * 10,
                              np.bincount(clusters, minlength=k))
            fallback = fit(method, scores, y)
            got = train_clustered(scores, y, clusters, cm, method, fallback)
            want = _ref_train_clustered(scores, y, clusters, cm, method, fallback)
            assert _json(got) == _json(want)
            kept_global += sum(cal.diagnostics.get("refit") == "kept_global"
                               for cal in got.calibrators.values())
            if i % 3:
                continue
            meta = got.cluster_meta
            assert meta[0]["used_fallback"] and meta[1]["used_constant"]
            assert meta[2]["used_fallback"] and meta[2]["size"] > 0
            # each row's probability is its cluster's calibrator's, for every
            # kind of cluster
            V = cm.centroids[rng.integers(0, k, size=200)]
            test_scores = ScoreSet.from_margins(rng.normal(size=200) * 4)
            p, labels = got.infer(test_scores, V)
            assert set(labels) == set(range(k))
            want_p = [got.resolve(c).apply(test_scores.take([j]))[0]
                      for j, c in enumerate(labels)]
            assert p.tobytes() == np.array(want_p).tobytes()
        # a platt fit starts from the fallback's params, which it keeps when
        # they are its optimum, so a tie, not a lower fallback NLL, is its rule
        assert kept_global > 0 or method == "platt"


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
