"""Calibration method fits, oracles and serialization."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize, minimize_scalar

from clustercal.calibrators import (
    ALL_METHODS, PARAMETRIC_METHODS, Calibrator, FitData, fit, nll_of_probs, pav,
)
from clustercal.scores import ScoreSet, sigmoid


def logistic_data(n=400, scale=2.0, shift=0.5, seed=0):
    """Margins whose implied probabilities are systematically miscalibrated."""
    rng = np.random.default_rng(seed)
    true_logit = rng.normal(size=n) * 1.5
    y = (rng.uniform(size=n) < sigmoid(true_logit)).astype(int)
    margins = scale * true_logit + shift
    return FitData(margins, sigmoid(margins), y)


def isotonic_oracle(v, w=None):
    """Best non-decreasing L2 fit by exhaustive block-partition search (N <= 8)."""
    v = np.asarray(v, dtype=float)
    w = np.ones_like(v) if w is None else np.asarray(w, dtype=float)
    n = len(v)
    best_sse, best_fit = np.inf, None
    for cuts in itertools.product([0, 1], repeat=n - 1):
        edges = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [n]
        means = [np.average(v[a:b], weights=w[a:b]) for a, b in zip(edges, edges[1:])]
        if any(m2 < m1 for m1, m2 in zip(means, means[1:])):
            continue
        fitted = np.concatenate([np.full(b - a, m) for (a, b), m
                                 in zip(zip(edges, edges[1:]), means)])
        sse = float((w * (v - fitted) ** 2).sum())
        if sse < best_sse - 1e-15:
            best_sse, best_fit = sse, fitted
    return best_fit


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

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=8),
           st.lists(st.floats(0.1, 5, allow_nan=False), min_size=8, max_size=8))
    def test_matches_exhaustive_oracle(self, v, w):
        w = np.asarray(w[: len(v)])
        np.testing.assert_allclose(pav(v, w), isotonic_oracle(v, w), atol=1e-9)


class TestParametricFits:
    def test_platt_matches_scipy_optimum(self):
        data = logistic_data()

        def nll(w):
            return nll_of_probs(sigmoid(w[0] * data.margins + w[1]), data.labels)

        cal = fit("platt", data)
        ours = nll([-cal.params["A"], -cal.params["B"]])
        ref = minimize(nll, [1.0, 0.0], method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12}).fun
        assert ours <= ref + 1e-8

    def test_temperature_matches_scipy_optimum(self):
        data = logistic_data(scale=3.0, shift=0.0)

        def nll(log_t):
            return nll_of_probs(sigmoid(data.margins / np.exp(log_t)), data.labels)

        cal = fit("temperature", data)
        ref = minimize_scalar(nll, bounds=(np.log(0.01), np.log(100.0)),
                              method="bounded", options={"xatol": 1e-12}).fun
        assert nll(np.log(cal.params["T"])) <= ref + 1e-8

    def test_temperature_recovers_scale(self):
        data = logistic_data(n=5000, scale=3.0, shift=0.0, seed=1)
        cal = fit("temperature", data)
        assert cal.params["T"] == pytest.approx(3.0, rel=0.15)

    def test_dirichlet2_beats_identity(self):
        data = logistic_data()
        cal = fit("dirichlet2", data)
        ident = nll_of_probs(data.probabilities, data.labels)
        assert cal.nll(data) < ident

    def test_beta_constraints_hold(self):
        for seed in range(25):
            data = logistic_data(n=80, scale=float(1 + seed % 5),
                                 shift=float(seed % 3 - 1), seed=seed)
            cal = fit("beta", data)
            assert cal.params["a"] >= -1e-12
            assert cal.params["b"] >= -1e-12

    def test_beta_at_most_dirichlet2_when_unconstrained_feasible(self):
        data = logistic_data(seed=2)
        b = fit("beta", data)
        d = fit("dirichlet2", data)
        if not b.diagnostics.get("clamped"):
            assert b.nll(data) == pytest.approx(d.nll(data), abs=1e-6)

    def test_each_parametric_reduces_nll_on_miscalibrated_data(self):
        data = logistic_data(n=1000, scale=1.0, shift=2.0, seed=3)
        ident = nll_of_probs(data.probabilities, data.labels)
        for method in PARAMETRIC_METHODS:
            assert fit(method, data).nll(data) < ident, method


class TestBinnedFits:
    def test_histogram_equal_mass_laplace(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(size=40)
        y = rng.integers(0, 2, size=40)
        data = FitData(np.zeros(40), p, y)
        cal = fit("histogram", data, {"n_bins": 4})
        assert len(cal.params["outputs"]) == 4
        out = cal.apply(ScoreSet(None, p))
        # every output is a Laplace-smoothed rate of a 10-sample bin
        assert set(np.round(np.unique(out) * 12, 9)) <= {float(k + 1) for k in range(11)}

    def test_histogram_apply_on_train_matches_bin_rates(self):
        p = np.array([0.1, 0.2, 0.6, 0.9])
        y = np.array([0, 1, 1, 1])
        cal = fit("histogram", FitData(np.zeros(4), p, y), {"n_bins": 2, "laplace": False})
        out = cal.apply(ScoreSet(None, p))
        np.testing.assert_allclose(out, [0.5, 0.5, 1 - 1e-6, 1 - 1e-6])

    def test_isotonic_reproduces_pav_on_train(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(size=30)
        y = rng.integers(0, 2, size=30)
        cal = fit("isotonic", FitData(np.zeros(30), p, y))
        out = cal.apply(ScoreSet(None, p))
        order = np.argsort(p, kind="stable")
        np.testing.assert_allclose(out[order],
                                   np.clip(pav(y[order].astype(float)), 1e-6, 1 - 1e-6))

    def test_platt_bin_structure(self):
        data = logistic_data(n=100)
        cal = fit("platt_bin", data, {"n_bins": 5})
        assert len(cal.params["bins"]) == 5
        out = cal.apply(ScoreSet(data.margins, data.probabilities))
        assert ((out > 0) & (out < 1)).all()


class TestDegenerateFits:
    def test_single_class_falls_back_to_laplace_constant(self):
        data = FitData(np.ones(5), np.full(5, 0.7), np.ones(5, dtype=int))
        for method in ("platt", "temperature", "beta", "dirichlet2", "histogram"):
            cal = fit(method, data)
            assert cal.method == "constant"
            assert cal.params["p0"] == pytest.approx(6 / 7)

    def test_constant_method(self):
        cal = fit("constant", FitData([0.0], [0.5], [1]), {"p0": 0.25})
        np.testing.assert_allclose(cal.apply(ScoreSet(None, np.array([0.9]))), [0.25])

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown"):
            fit("bayes", FitData([0.0], [0.5], [1]))


class TestCalibratorSurface:
    def test_apply_clips(self):
        cal = Calibrator("constant", {"p0": 0.0})
        out = cal.apply(ScoreSet(None, np.array([0.5])))
        assert out[0] == 1e-6

    def test_margin_methods_require_margins(self):
        cal = Calibrator("platt", {"A": -1.0, "B": 0.0})
        with pytest.raises(ValueError, match="margins"):
            cal.apply(ScoreSet(None, np.array([0.5])))

    @pytest.mark.filterwarnings("error")
    def test_platt_applies_to_saturated_margins(self):
        cal = Calibrator("platt", {"A": -1.0, "B": 0.0})
        out = cal.apply(ScoreSet(np.array([800.0, 0.0, -800.0]), np.array([0.9, 0.5, 0.1])))
        np.testing.assert_array_equal(out, [1 - 1e-6, 0.5, 1e-6])

    def test_monotone_flags(self):
        assert Calibrator("platt", {"A": -1.0, "B": 0.0}).monotone
        assert not Calibrator("platt", {"A": 1.0, "B": 0.0}).monotone
        assert Calibrator("temperature", {"T": 2.0}).monotone
        assert Calibrator("beta", {"a": 1.0, "b": 1.0, "c": 0.0}).monotone
        assert Calibrator("isotonic", {"breakpoints": np.array([0.1, 0.9]),
                                       "values": np.array([0.2, 0.8])}).monotone
        assert not Calibrator("isotonic", {"breakpoints": np.array([0.1, 0.9]),
                                           "values": np.array([0.5, 0.5])}).monotone

    def test_nll_of_probs_hand_value(self):
        assert nll_of_probs([0.8, 0.4], [1, 0]) == pytest.approx(
            -(np.log(0.8) + np.log(0.6)) / 2)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_serialization_roundtrip(self, method):
        data = logistic_data(n=60, seed=7)
        cal = fit(method, data)
        back = Calibrator.from_json(cal.to_json())
        np.testing.assert_allclose(
            back.apply(ScoreSet(data.margins, data.probabilities)),
            cal.apply(ScoreSet(data.margins, data.probabilities)), atol=1e-12)
