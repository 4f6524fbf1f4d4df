"""Calibration method fits, oracles and serialization."""

import itertools
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize, minimize_scalar

from clustercal import calibrators as cal_mod
from clustercal.calibrators import (
    ALL_METHODS, APPLY_EPS, GRAD_TOL, MAX_ITER, N_BINS, PARAMETRIC_METHODS, T_BOUNDS,
    Calibrator, fit, nll_of_probs, pav,
)
from clustercal.harness import _jsonable, _section
from clustercal.scores import ScoreSet, sigmoid


def logistic_data(n=400, scale=2.0, shift=0.5, seed=0):
    """Scores whose probabilities are systematically miscalibrated, and their labels."""
    rng = np.random.default_rng(seed)
    true_logit = rng.normal(size=n) * 1.5
    y = (rng.uniform(size=n) < sigmoid(true_logit)).astype(int)
    margins = scale * true_logit + shift
    return ScoreSet(margins, sigmoid(margins)), y


def isotonic_oracle(v, w=None):
    """Best non-decreasing L2 fit by exhaustive block-partition search (N <= 8).

    Block means and SSEs are exact rationals: in floats, the SSEs of two
    partitions of tiny values differ by less than their rounding, and the search
    can then keep a pooled fit whose SSE is really higher.
    """
    v = [Fraction(float(x)) for x in v]
    w = [Fraction(1)] * len(v) if w is None else [Fraction(float(x)) for x in w]
    n = len(v)
    best_sse, best_fit = None, None
    for cuts in itertools.product([0, 1], repeat=n - 1):
        edges = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [n]
        blocks = list(zip(edges, edges[1:]))
        means = [sum(w[i] * v[i] for i in range(a, b)) / sum(w[a:b]) for a, b in blocks]
        if any(m2 < m1 for m1, m2 in zip(means, means[1:])):
            continue
        fitted = [m for (a, b), m in zip(blocks, means) for _ in range(a, b)]
        sse = sum(wi * (vi - fi) ** 2 for wi, vi, fi in zip(w, v, fitted))
        if best_sse is None or sse < best_sse:
            best_sse, best_fit = sse, fitted
    return np.array([float(f) for f in best_fit])


class TestPav:
    def test_hand_example(self):
        np.testing.assert_allclose(pav([1.0, 0.0, 1.0]), [0.5, 0.5, 1.0])

    def test_sorted_input_unchanged(self):
        v = [0.1, 0.2, 0.5, 0.9]
        np.testing.assert_allclose(pav(v), v)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=30))
    def test_monotone_and_mean_preserving(self, v):
        out = pav(v)
        assert (np.diff(out) >= -1e-12).all()
        assert np.mean(out) == pytest.approx(np.mean(v), abs=1e-9)

    @pytest.mark.parametrize("values, weights, match", [
        ([3.0, 1.0, 2.0], [1.0, 1.0], "values and weights"),
        ([3.0, 1.0, 2.0], [1.0, -1.0, 1.0], "weights"),
        ([3.0, 1.0, 2.0], [1.0, 0.0, 1.0], "weights"),
        ([3.0, 1.0, 2.0], [1.0, np.inf, 1.0], "weights"),
        ([3.0, 1.0, 2.0], [1.0, np.nan, 1.0], "weights"),
        ([3.0, np.nan, 2.0], None, "values"),
        ([3.0, -np.inf, 2.0], None, "values"),
        ([[3.0, 1.0, 2.0]], None, "values and weights"),
    ])
    def test_rejects_bad_input(self, values, weights, match):
        with pytest.raises(ValueError, match=f"^(pav {match} must be finite|"
                                             f"{match} must be aligned, non-empty 1-D arrays$)"):
            pav(values, weights)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=8),
           st.lists(st.floats(0.1, 5, allow_nan=False), min_size=8, max_size=8))
    def test_matches_exhaustive_oracle(self, v, w):
        w = np.asarray(w[: len(v)])
        np.testing.assert_allclose(pav(v, w), isotonic_oracle(v, w), atol=1e-9)


class TestParametricFits:
    def test_platt_matches_scipy_optimum(self):
        scores, y = logistic_data()

        def nll(w):
            return nll_of_probs(sigmoid(w[0] * scores.margins + w[1]), y)

        cal = fit("platt", scores, y)
        ours = nll([-cal.params["A"], -cal.params["B"]])
        ref = minimize(nll, [1.0, 0.0], method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12}).fun
        assert ours <= ref + 1e-8

    def test_temperature_matches_scipy_optimum(self):
        scores, y = logistic_data(scale=3.0, shift=0.0)

        def nll(log_t):
            return nll_of_probs(sigmoid(scores.margins / np.exp(log_t)), y)

        cal = fit("temperature", scores, y)
        ref = minimize_scalar(nll, bounds=(np.log(0.01), np.log(100.0)),
                              method="bounded", options={"xatol": 1e-12}).fun
        assert nll(np.log(cal.params["T"])) <= ref + 1e-8

    def test_temperature_recovers_scale(self):
        cal = fit("temperature", *logistic_data(n=5000, scale=3.0, shift=0.0, seed=1))
        assert cal.params["T"] == pytest.approx(3.0, rel=0.15)

    def test_dirichlet2_beats_identity(self):
        scores, y = logistic_data()
        cal = fit("dirichlet2", scores, y)
        ident = nll_of_probs(scores.probabilities, y)
        assert cal.nll(scores, y) < ident

    def test_beta_constraints_hold(self):
        for seed in range(25):
            cal = fit("beta", *logistic_data(n=80, scale=float(1 + seed % 5),
                                             shift=float(seed % 3 - 1), seed=seed))
            assert cal.params["a"] >= -1e-12
            assert cal.params["b"] >= -1e-12

    def test_beta_at_most_dirichlet2_when_unconstrained_feasible(self):
        scores, y = logistic_data(seed=2)
        b = fit("beta", scores, y)
        d = fit("dirichlet2", scores, y)
        if not b.diagnostics.get("clamped"):
            assert b.nll(scores, y) == pytest.approx(d.nll(scores, y), abs=1e-6)

    def test_each_parametric_reduces_nll_on_miscalibrated_data(self):
        scores, y = logistic_data(n=1000, scale=1.0, shift=2.0, seed=3)
        ident = nll_of_probs(scores.probabilities, y)
        for method in PARAMETRIC_METHODS:
            assert fit(method, scores, y).nll(scores, y) < ident, method


class TestBinnedFits:
    def test_histogram_equal_mass_laplace(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(size=100)
        y = rng.integers(0, 2, size=100)
        cal = cal_mod._fit_histogram(p, y)
        assert len(cal.params["outputs"]) == N_BINS == 10
        out = cal.apply(ScoreSet.from_probabilities(p))
        # every output is a Laplace-smoothed rate of a 10-sample bin
        assert set(np.round(np.unique(out) * 12, 9)) <= {float(k + 1) for k in range(11)}

    def test_histogram_apply_on_train_matches_bin_rates(self):
        # 20 rows: N_BINS bins of two rows each, in order of p
        p = np.arange(1, 21) / 21
        y = np.array([0, 0, 0, 1, 1, 1] * 3 + [1, 0])
        cal = cal_mod._fit_histogram(p, y)
        out = cal.apply(ScoreSet.from_probabilities(p))
        np.testing.assert_allclose(out, np.repeat((y.reshape(10, 2).sum(axis=1) + 1) / 4, 2))

    def test_isotonic_reproduces_pav_on_train(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(size=30)
        y = rng.integers(0, 2, size=30)
        cal = fit("isotonic", ScoreSet(np.zeros(30), p), y)
        out = cal.apply(ScoreSet.from_probabilities(p))
        order = np.argsort(p, kind="stable")
        np.testing.assert_allclose(out[order],
                                   np.clip(pav(y[order].astype(float)), 1e-6, 1 - 1e-6))

    def test_platt_bin_structure(self):
        scores, y = logistic_data(n=100)
        cal = cal_mod._fit_platt_bin(scores, y)
        assert len(cal.params["bins"]) == N_BINS
        out = cal.apply(scores)
        assert ((out > 0) & (out < 1)).all()


def ref_equal_mass_edges(probs, m):
    """The per-block loop that ``_equal_mass_edges`` replaced."""
    order = np.argsort(probs, kind="stable")
    ids = np.empty(len(probs), dtype=np.int64)
    blocks = np.array_split(order, m)
    edges = np.zeros(m + 1)
    edges[m] = 1.0
    prev_max = None
    for i, blk in enumerate(blocks):
        ids[blk] = i
        if i > 0:
            lo = probs[blk].min() if len(blk) else prev_max
            edges[i] = (prev_max + lo) / 2 if prev_max is not None else 0.0
        prev_max = probs[blk].max() if len(blk) else prev_max
    return ids, edges


def ref_histogram_outputs(ids, y, m):
    """The per-bin mask loop that ``_fit_histogram`` replaced."""
    outputs = np.empty(m)
    for b in range(m):
        mask = ids == b
        n_b, k_b = int(mask.sum()), int(y[mask].sum())
        outputs[b] = (k_b + 1) / (n_b + 2)
    return outputs


def ref_platt_bin_apply(cal, scores):
    """The per-bin apply loop that platt_bin's transform replaced."""
    idx = cal_mod._bin_lookup(np.asarray(cal.params["edges"]), scores.probabilities)
    out = np.empty(len(scores))
    for b, sub in enumerate(cal.params["bins"]):
        mask = idx == b
        if mask.any():
            out[mask] = sub.apply(scores.take(mask))
    return np.clip(out, 1e-6, 1 - 1e-6)


class TestBinningOracle:
    """Equal-mass bins, histogram outputs and platt_bin's apply equal the old
    loops bit for bit."""

    @staticmethod
    def samples():
        rng = np.random.default_rng(7)
        # the fits use min(N_BINS, n) bins: 1, 2, 3, 7 and 10
        for n in (1, 2, 3, 7, 10, 41, 200):
            for ties in (False, True):
                p = rng.uniform(size=n)
                if ties:  # few distinct values, so blocks start inside runs of ties
                    p = np.round(p * 4) / 4
                yield p, rng.integers(0, 2, size=n)

    @classmethod
    def draws(cls):
        for p, y in cls.samples():
            n = len(p)
            for m in sorted({1, 2, 3, 7, n // 2, n - 1, n} & set(range(1, n + 1))):
                yield p, y, m

    def test_ids_and_edges(self):
        for p, _, m in self.draws():
            ids, edges = cal_mod._equal_mass_edges(p, m)
            want_ids, want_edges = ref_equal_mass_edges(p, m)
            np.testing.assert_array_equal(ids, want_ids)
            assert edges.tobytes() == want_edges.tobytes()

    def test_histogram_outputs(self):
        for p, y in self.samples():
            m = min(N_BINS, len(p))
            cal = cal_mod._fit_histogram(p, y)
            want_ids, want_edges = ref_equal_mass_edges(p, m)
            want = ref_histogram_outputs(want_ids, y, m)
            assert cal.params["outputs"].tobytes() == want.tobytes()
            assert cal.params["edges"].tobytes() == want_edges.tobytes()

    def test_platt_bin_apply(self):
        rng = np.random.default_rng(4)
        for n in (1, 4, 40, 120):      # min(N_BINS, n) bins: 1, 4, 10 and 10
            fit_scores, y = logistic_data(n=n, seed=3)
            cal = cal_mod._fit_platt_bin(fit_scores, y)
            # the first 20 draws fall in one bin, so the other bins get no rows
            for margins in (fit_scores.margins, rng.normal(size=300) * 3, np.full(20, -4.0)):
                scores = ScoreSet.from_margins(margins)
                assert cal.apply(scores).tobytes() == ref_platt_bin_apply(cal, scores).tobytes()


class TestDegenerateFits:
    def test_single_class_falls_back_to_laplace_constant(self):
        scores = ScoreSet(np.ones(5), np.full(5, 0.7))
        for method in ("platt", "temperature", "beta", "dirichlet2", "histogram"):
            cal = fit(method, scores, np.ones(5, dtype=int))
            assert cal.method == "constant"
            assert cal.params["p0"] == pytest.approx(6 / 7)

    def test_constant_method(self):
        cal = fit("constant", ScoreSet(np.zeros(3), np.full(3, 0.5)), [1, 0, 1])
        assert cal.params["p0"] == 3 / 5    # Laplace: (2 + 1) / (3 + 2)
        np.testing.assert_allclose(cal.apply(ScoreSet.from_probabilities([0.9])), [0.6])

    def test_default_bins(self):
        # histogram and platt_bin fit N_BINS equal-mass bins; histogram smooths them
        scores, y = logistic_data(n=100)
        hist, pbin = fit("histogram", scores, y), fit("platt_bin", scores, y)
        assert hist.diagnostics == {"n_bins": cal_mod.N_BINS, "laplace": True}
        assert len(pbin.params["bins"]) == cal_mod.N_BINS == 10

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown"):
            fit("bayes", ScoreSet([0.0], [0.5]), [1])

    @pytest.mark.parametrize("method", sorted(set(ALL_METHODS) - {"platt"}))
    def test_init_is_for_platt_only(self, method):
        with pytest.raises(ValueError, match="init warm-starts platt fits only"):
            fit(method, *logistic_data(n=40), (-1.0, 0.0))


class TestCalibratorSurface:
    def test_apply_clips(self):
        cal = Calibrator("constant", {"p0": 0.0})
        out = cal.apply(ScoreSet.from_probabilities([0.5]))
        assert out[0] == 1e-6

    @pytest.mark.filterwarnings("error")
    def test_platt_applies_to_saturated_margins(self):
        cal = Calibrator("platt", {"A": -1.0, "B": 0.0})
        out = cal.apply(ScoreSet(np.array([800.0, 0.0, -800.0]), np.array([0.9, 0.5, 0.1])))
        np.testing.assert_array_equal(out, [1 - 1e-6, 0.5, 1e-6])

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 2.0),
                                      (2.0, -1.0), (-0.0, -0.0)])
    def test_beta_is_dirichlet2_with_negated_w2(self, a, b):
        beta = Calibrator("beta", {"a": a, "b": b, "c": 0.3})
        dirichlet2 = Calibrator("dirichlet2", {"w1": a, "w2": -b, "c": 0.3})
        scores = ScoreSet.from_probabilities(np.linspace(1e-3, 1 - 1e-3, 9))
        np.testing.assert_array_equal(beta.apply(scores), dirichlet2.apply(scores))

    def test_nll_of_probs_hand_value(self):
        assert nll_of_probs([0.8, 0.4], [1, 0]) == pytest.approx(
            -(np.log(0.8) + np.log(0.6)) / 2)

    @pytest.mark.parametrize("p, y", [([0.2, 0.5, 0.9], [1]), ([[0.2, 0.5]], [[1, 0]]),
                                      ([], [])])
    def test_nll_of_probs_needs_aligned_nonempty_1d_input(self, p, y):
        with pytest.raises(ValueError, match="^p and y must be aligned, non-empty 1-D arrays$"):
            nll_of_probs(p, y)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_serialization_roundtrip(self, method):
        scores, y = logistic_data(n=60, seed=7)
        cal = fit(method, scores, y)
        back = _section(Calibrator, "unified",
                        json.loads(json.dumps(_jsonable(cal), sort_keys=True)))
        np.testing.assert_allclose(back.apply(scores), cal.apply(scores), atol=1e-12)


class TestFitDataBoundary:
    """What ``fit`` takes: a ScoreSet, which checks the scores, and aligned 0/1 labels."""

    BAD = {
        "label_2": ([0.0, 1.0, -1.0], [0.5, 0.7, 0.3], [0, 2, 1]),
        "label_half": ([0.0, 1.0, -1.0], [0.5, 0.7, 0.3], [0, 0.5, 1]),
        "label_nan": ([0.0, 1.0, -1.0], [0.5, 0.7, 0.3], [0, np.nan, 1]),
        "label_short": ([0.0, 1.0, -1.0], [0.5, 0.7, 0.3], [0, 1]),
        "label_empty": ([], [], []),
        "label_2d": ([0.0, 1.0, -1.0], [0.5, 0.7, 0.3], [[0, 1, 1]]),
        "margin_nan": ([0.0, np.nan, -1.0], [0.5, 0.7, 0.3], [0, 1, 1]),
        "margin_inf": ([0.0, np.inf, -1.0], [0.5, 0.7, 0.3], [0, 1, 1]),
        "prob_nan": ([0.0, 1.0, -1.0], [0.5, np.nan, 0.3], [0, 1, 1]),
        "prob_above_1": ([0.0, 1.0, -1.0], [0.5, 1.5, 0.3], [0, 1, 1]),
        "prob_below_0": ([0.0, 1.0, -1.0], [0.5, -0.1, 0.3], [0, 1, 1]),
    }

    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("case", sorted(BAD))
    def test_rejects_bad_input_for_every_method(self, method, case):
        m, p, y = self.BAD[case]
        with pytest.raises(ValueError, match="labels|margins|probabilities"):
            fit(method, ScoreSet(np.array(m), np.array(p)), np.array(y))

    def test_accepts_closed_probability_interval_and_bool_labels(self):
        # probabilities of exactly 0 and 1 enter through from_probabilities, which clips them
        scores = ScoreSet.from_probabilities([0.0, 0.5, 1.0, 0.3])
        y = np.array([False, True, True, False])
        for method in ALL_METHODS:
            got, want = fit(method, scores, y), fit(method, scores, y.astype(np.int64))
            assert (json.dumps(_jsonable(got), sort_keys=True)
                    == json.dumps(_jsonable(want), sort_keys=True)), method


# Reference kernels: the calibrator fits as they were before the golden
# section stopped at its 2-cycle, the NLL was computed in place and beta's
# clamp became a zero column of the design matrix. The current kernels must
# give byte-identical calibrators.

def _ref_sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def _ref_nll(p, y, eps=1e-6):
    p = np.clip(np.asarray(p, dtype=np.float64), eps, 1 - eps)
    y = np.asarray(y)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log1p(-p)))


def _ref_newton_logistic(Z, y, w0, frozen=None):
    n = len(y)
    w = np.asarray(w0, dtype=np.float64).copy()
    free = np.ones(len(w), dtype=bool)
    if frozen is not None:
        free[list(frozen)] = False

    def objective(wv):
        return _ref_nll(_ref_sigmoid(Z @ wv), y)

    obj = objective(w)
    it = 0
    gnorm = np.inf
    for it in range(1, MAX_ITER + 1):
        p = _ref_sigmoid(Z @ w)
        g = Z.T @ (p - y) / n
        g[~free] = 0.0
        gnorm = float(np.linalg.norm(g))
        if gnorm <= GRAD_TOL:
            break
        W = p * (1 - p)
        H = (Z.T * W) @ Z / n + 1e-12 * np.eye(len(w))
        Hf = H[np.ix_(free, free)]
        step = np.zeros_like(w)
        try:
            step[free] = np.linalg.solve(Hf, g[free])
        except np.linalg.LinAlgError:
            step[free] = g[free]
        alpha = 1.0
        for _ in range(60):
            cand = w - alpha * step
            cand_obj = objective(cand)
            if cand_obj <= obj - 1e-4 * alpha * float(g @ step):
                break
            alpha *= 0.5
        else:
            break
        if abs(obj - cand_obj) < 1e-16 and gnorm < 1e-6:
            w, obj = cand, cand_obj
            break
        w, obj = cand, cand_obj
    return w, {"final_nll": obj, "iterations": it, "grad_norm": gnorm}


def _ref_fit_temperature(margins, y):
    lo, hi = math.log(T_BOUNDS[0]), math.log(T_BOUNDS[1])

    def objective(log_t):
        return _ref_nll(_ref_sigmoid(margins / math.exp(log_t)), y)

    inv_phi = (math.sqrt(5.0) - 1) / 2
    a, b = lo, hi
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(220):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = objective(d)
    log_t = (a + b) / 2
    t = min(max(math.exp(log_t), T_BOUNDS[0]), T_BOUNDS[1])
    return Calibrator("temperature", {"T": float(t)},
                      {"final_nll": objective(math.log(t)), "iterations": 220})


def _ref_fit_dirichlet2(probs, y, constrained):
    p = np.clip(probs, APPLY_EPS, 1 - APPLY_EPS)
    Z = np.column_stack([np.log(p), np.log1p(-p), np.ones(len(p))])
    w0 = np.array([1.0, -1.0, 0.0])
    w, diag = _ref_newton_logistic(Z, y, w0)
    frozen = []
    if constrained:
        if w[0] < 0:
            frozen.append(0)
        if w[1] > 0:
            frozen.append(1)
        if frozen:
            w0c = w0.copy()
            w0c[frozen] = 0.0
            w, diag = _ref_newton_logistic(Z, y, w0c, frozen=frozen)
            extra = [j for j, bad in ((0, w[0] < 0), (1, w[1] > 0)) if bad and j not in frozen]
            if extra:
                frozen += extra
                w0c[frozen] = 0.0
                w, diag = _ref_newton_logistic(Z, y, w0c, frozen=frozen)
        diag = dict(diag, clamped=sorted(frozen))
        return Calibrator("beta", {"a": float(w[0]), "b": float(-w[1]), "c": float(w[2])}, diag)
    return Calibrator("dirichlet2",
                      {"w1": float(w[0]), "w2": float(w[1]), "c": float(w[2])}, diag)


def _reference_fit(method, scores, y, init=None):
    with mock.patch.object(cal_mod, "_newton_logistic", _ref_newton_logistic), \
            mock.patch.object(cal_mod, "_fit_temperature", _ref_fit_temperature), \
            mock.patch.object(cal_mod, "_fit_dirichlet2", _ref_fit_dirichlet2):
        return fit(method, scores, y, init)


ORACLE_METHODS = ("platt", "temperature", "beta", "dirichlet2", "platt_bin")


def _assert_fits_match_reference(scores, y, methods=ORACLE_METHODS, init=None):
    for method in methods:
        got, want = fit(method, scores, y, init), _reference_fit(method, scores, y, init)
        assert (json.dumps(_jsonable(got), sort_keys=True)
                == json.dumps(_jsonable(want), sort_keys=True)), method


def _random_fit_data(rng):
    n = int(np.exp(rng.uniform(np.log(2), np.log(700))))
    true_logit = rng.normal(size=n) * rng.uniform(0.2, 3.0)
    y = (rng.uniform(size=n) < _ref_sigmoid(true_logit)).astype(int)
    y[0], y[-1] = 0, 1
    margins = rng.uniform(0.1, 8.0) * true_logit + rng.uniform(-3.0, 3.0)
    if rng.uniform() < 0.3:  # probabilities that disagree with the margins
        probs = rng.uniform(size=n)
    else:
        probs = ScoreSet.from_margins(margins).probabilities
    return ScoreSet(margins, probs), y


class TestKernelOracle:
    def test_sigmoid_matches_reference(self):
        x = np.concatenate([np.linspace(-50, 50, 1001), [-800.0, -710.0, -709.0, 40.0, 800.0]])
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(sigmoid(x), _ref_sigmoid(x))
        np.testing.assert_array_equal(sigmoid(np.arange(-5, 6)), _ref_sigmoid(np.arange(-5, 6)))

    def test_nll_of_probs_matches_reference(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 30, 257, 800):
            p = np.concatenate([rng.uniform(size=n), [0.0, 1.0, 1e-9, 1 - 1e-9]])
            y = rng.integers(0, 2, size=len(p))
            assert nll_of_probs(p, y) == _ref_nll(p, y)
            assert nll_of_probs(p, y.astype(float)) == _ref_nll(p, y.astype(float))
            assert nll_of_probs(list(p), list(y)) == _ref_nll(p, y)

    def test_random_fits(self):
        rng = np.random.default_rng(2024)
        for i in range(100):
            # platt_bin's small bins can take 1,000 Newton steps, so fewer of those
            methods = ORACLE_METHODS if i % 10 == 0 else PARAMETRIC_METHODS
            _assert_fits_match_reference(*_random_fit_data(rng), methods)

    @pytest.mark.parametrize("y", [[0, 1], [1, 0]])
    def test_two_rows(self, y):
        m = np.array([-1.3, 0.4])
        _assert_fits_match_reference(ScoreSet(m, sigmoid(m)), y)

    def test_flat_temperature_objective(self):
        y = np.tile([0, 1, 1], 20)
        _assert_fits_match_reference(ScoreSet(np.zeros(60), np.full(60, 0.5)), y)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("big", [40.0, 800.0])
    def test_saturated_margins(self, big):
        rng = np.random.default_rng(int(big))
        m = rng.choice([-big, big, -1.0, 0.5], size=80)
        y = (rng.uniform(size=80) < 0.5).astype(int)
        y[0], y[1] = 0, 1
        _assert_fits_match_reference(ScoreSet.from_margins(m), y)
        # separable: every positive has a saturated positive margin
        y = (m > 0).astype(int)
        _assert_fits_match_reference(ScoreSet.from_margins(m), y)

    def test_platt_warm_starts(self):
        rng = np.random.default_rng(5)
        scores, y = logistic_data(n=150, seed=5)
        for _ in range(10):
            init = (rng.uniform(-5, 1), rng.uniform(-3, 3))
            _assert_fits_match_reference(scores, y, ("platt",), init)

    @pytest.mark.parametrize("seed, first", [(4, 1), (5, 0)])
    def test_beta_freezes_one_coordinate_then_the_other(self, seed, first):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 80))
        m = rng.normal(size=n) * rng.uniform(0.2, 4) + rng.uniform(-2, 2)
        t = rng.normal(size=n) * rng.uniform(0.2, 3) + rng.uniform(-1, 1)
        y = (rng.uniform(size=n) < _ref_sigmoid(t)).astype(int)
        scores = ScoreSet.from_margins(m)
        d = fit("dirichlet2", scores, y).params
        assert [j for j, bad in ((0, d["w1"] < 0), (1, d["w2"] > 0)) if bad] == [first]
        assert fit("beta", scores, y).diagnostics["clamped"] == [0, 1]
        _assert_fits_match_reference(scores, y, ("beta",))
