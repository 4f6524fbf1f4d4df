"""Global calibration methods: Platt, temperature, beta/Dirichlet (2-class),
histogram binning, isotonic (PAV), bin-wise Platt and constants.

Every method exposes the same fit/apply/nll surface so the clustered
ensemble can treat them uniformly. Parametric fits minimize mean negative
log-likelihood with Newton steps (or golden section for temperature).
Each fit runs under one ``np.errstate(over="ignore")``, so ``sigmoid`` can
saturate to 0.0 without a warning on every objective evaluation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .metrics import _aligned, _bin_ids, _labels, _probabilities
from .scores import ScoreSet, sigmoid

__all__ = [
    "Calibrator",
    "fit",
    "nll_of_probs",
    "pav",
    "PARAMETRIC_METHODS",
    "ALL_METHODS",
]

APPLY_EPS = 1e-6
GRAD_TOL = 1e-8
MAX_ITER = 1000
T_BOUNDS = (0.01, 100.0)
GOLDEN_ITER = 220
PARAMETRIC_METHODS = ("platt", "temperature", "beta", "dirichlet2")
# method -> the keys of its params; those in ARRAY_PARAMS are float64 arrays,
# "bins" a list of calibrators, and the others numbers
PARAM_KEYS = {"platt": ("A", "B"), "temperature": ("T",), "beta": ("a", "b", "c"),
              "dirichlet2": ("w1", "w2", "c"), "histogram": ("edges", "outputs"),
              "isotonic": ("breakpoints", "values"), "platt_bin": ("edges", "bins"),
              "constant": ("p0",)}
ARRAY_PARAMS = ("edges", "outputs", "breakpoints", "values")
ALL_METHODS = tuple(PARAM_KEYS)
N_BINS = 10     # the equal-mass bins of histogram and platt_bin fits, at most one per row


@dataclass
class Calibrator:
    """A fitted calibrator: its method and params, whose keys are the method's
    ``PARAM_KEYS``. A number must be finite, an array 1-D and finite; params
    read back from JSON, whose arrays are lists and bins dicts, become floats,
    float64 arrays and calibrators. A ValueError names a bad key."""

    method: Literal[ALL_METHODS]
    params: dict
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        keys = PARAM_KEYS.get(self.method)
        if keys is None:
            raise ValueError(f"unknown calibration method {self.method!r}")
        if not isinstance(self.params, dict):
            raise ValueError(f"params must be a JSON object, not {self.params!r}")
        q = self.params = dict(self.params)
        unknown, missing = sorted(set(q) - set(keys)), [k for k in keys if k not in q]
        if unknown:
            raise ValueError(f"unknown params keys: {unknown}")
        if missing:
            raise ValueError(f"params needs keys: {missing}")
        for k in keys:
            if k == "bins":
                if not isinstance(q[k], list):
                    raise ValueError(f"params.bins must be a list, not {q[k]!r}")
                q[k] = [_bin(i, b) for i, b in enumerate(q[k])]
            elif k in ARRAY_PARAMS:
                q[k] = _float_array(f"params.{k}", q[k])
            else:
                q[k] = _number(f"params.{k}", q[k])

    def apply(self, scores: ScoreSet) -> np.ndarray:
        return _apply(self.method, self.params, scores)

    def nll(self, scores: ScoreSet, y) -> float:
        y = _labels(_aligned(p=scores.probabilities, y=y)[1], "y").astype(np.float64)
        return _calibrated_nlls(self.method, self.params, scores, y, (0, len(y)))[0]


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _number(key: str, v) -> float:
    """Param ``v`` as a finite float."""
    if not _is_number(v):
        raise ValueError(f"{key} must be a number, not {v!r}")
    try:
        f = float(v)
    except OverflowError:
        raise ValueError(f"{key} must fit a float, not an int of {v.bit_length()} bits") from None
    if not math.isfinite(f):
        raise ValueError(f"{key} must be finite, not {v!r}")
    return f


def _float_array(key: str, v) -> np.ndarray:
    """Param ``v``, an array or a list of numbers, as a finite 1-D float64 array."""
    ok = (v.dtype.kind in "iuf" if isinstance(v, np.ndarray)
          else isinstance(v, (list, tuple)) and all(map(_is_number, v)))
    a = np.asarray(v, dtype=np.float64) if ok else None
    if a is None or a.ndim != 1:
        raise ValueError(f"{key} must be a 1-D list of numbers")
    if not np.isfinite(a).all():
        raise ValueError(f"{key}: values must be finite")
    return a


def _bin(i: int, b) -> Calibrator:
    """Bin ``i`` of a platt_bin: a calibrator, or its fields read back from JSON."""
    if isinstance(b, Calibrator):
        return b
    if not isinstance(b, dict):
        raise ValueError(f"params.bins[{i}] must be a JSON object, not {b!r}")
    unknown = sorted(set(b) - {"method", "params", "diagnostics"})
    if unknown:
        raise ValueError(f"unknown params.bins[{i}] keys: {unknown}")
    missing = [k for k in ("method", "params") if k not in b]
    if missing:
        raise ValueError(f"params.bins[{i}] needs keys: {missing}")
    try:
        return Calibrator(**b)
    except ValueError as exc:
        raise ValueError(f"params.bins[{i}]: {exc}") from None


def _apply(method: str, q: dict, scores: ScoreSet) -> np.ndarray:
    """``apply`` of a ``method`` calibrator with params ``q``, whose numbers may
    also be per-row arrays: every step of a transform is elementwise, so row i
    gets the bytes of the calibrator with row i's params."""
    with np.errstate(over="ignore"):
        raw = _transform(method, q, scores)
    return np.clip(raw, APPLY_EPS, 1 - APPLY_EPS)


def _transform(method: str, q: dict, scores: ScoreSet) -> np.ndarray:
    if method == "platt":
        return sigmoid(-(q["A"] * scores.margins + q["B"]))
    if method == "temperature":
        return sigmoid(scores.margins / q["T"])
    if method in ("beta", "dirichlet2"):
        # beta's sigmoid(a ln p - b ln(1 - p) + c) is dirichlet2's with (w1, w2) = (a, -b)
        a, b = (q["a"], q["b"]) if method == "beta" else (q["w1"], -q["w2"])
        p = np.clip(scores.probabilities, APPLY_EPS, 1 - APPLY_EPS)
        return sigmoid(a * np.log(p) - b * np.log1p(-p) + q["c"])
    if method == "histogram":
        return q["outputs"][_bin_lookup(q["edges"], scores.probabilities)]
    if method == "isotonic":
        bp, vals = q["breakpoints"], q["values"]
        idx = np.clip(np.searchsorted(bp, scores.probabilities, side="right") - 1, 0, len(vals) - 1)
        return vals[idx]
    if method == "platt_bin":
        return _apply_each(q["bins"], _bin_lookup(q["edges"], scores.probabilities), scores)
    if method == "constant":
        return np.full(len(scores), q["p0"])
    raise ValueError(f"unknown calibration method {method!r}")


def _apply_each(calibrators, groups, scores: ScoreSet) -> np.ndarray:
    """Row i of ``scores`` calibrated by ``calibrators[groups[i]]``, all of them
    calibrators with number params (platt, temperature, beta, dirichlet2 or
    constant). The rows of each method present take one pass, with each param
    gathered per row from the row's calibrator."""
    out = np.empty(len(scores))
    methods = [cal.method for cal in calibrators]
    for method in dict.fromkeys(methods):
        rows = np.array([m == method for m in methods])[groups]
        if not rows.any():
            continue
        g = groups[rows]
        q = {k: np.array([cal.params[k] if cal.method == method else 0.0
                          for cal in calibrators])[g] for k in PARAM_KEYS[method]}
        out[rows] = _apply(method, q, scores if rows.all() else scores.take(rows))
    return out


def _calibrated_nlls(method: str, q: dict, scores: ScoreSet, y, bounds) -> list[float]:
    """``nll`` of a ``method`` calibrator with params ``q`` (numbers or per-row
    arrays) on each slice [bounds[s], bounds[s + 1]) of ``scores`` and their
    float 0/1 labels ``y``, from one pass over the rows."""
    clipped = ScoreSet(scores.margins, np.clip(scores.probabilities, APPLY_EPS, 1 - APPLY_EPS))
    return _mean_nlls(_nll_terms(_apply(method, q, clipped), y, 1.0 - y), bounds)


def nll_of_probs(p, y) -> float:
    """Mean negative log-likelihood of 0/1 labels ``y`` under ``p`` clipped to
    [APPLY_EPS, 1 - APPLY_EPS]; ``p`` and ``y`` are aligned, non-empty 1-D arrays."""
    p, y = _aligned(p=p, y=y)
    p, y = _probabilities(p, "p"), _labels(y, "y").astype(np.float64)
    return _nll(p, y, 1.0 - y)


def _nll(p, y, y1) -> float:
    """``nll_of_probs`` on 1-D float64 ``p`` with float labels ``y`` and ``y1 = 1 - y``.

    The fit objectives convert the labels once per fit and call this directly.
    """
    return _mean_nlls(_nll_terms(p, y, y1), (0, len(p)))[0]


def _nll_terms(p, y, y1) -> np.ndarray:
    """The per-row log-likelihoods y*log(p) + (1-y)*log1p(-p) of ``p`` clipped
    to [APPLY_EPS, 1 - APPLY_EPS], with float labels ``y`` and ``y1 = 1 - y``.

    It computes them in two buffers and leaves ``p`` unchanged.
    """
    q = np.maximum(p, APPLY_EPS)
    np.minimum(q, 1 - APPLY_EPS, out=q)
    a = np.log(q)
    a *= y
    np.negative(q, out=q)
    np.log1p(q, out=q)
    q *= y1
    a += q
    return a


def _mean_nlls(terms, bounds) -> list[float]:
    """Minus the mean of each slice [bounds[s], bounds[s + 1]) of ``terms``: one
    ``np.add.reduce`` per slice, which sums a slice as it sums a separate array."""
    return [float(-(np.add.reduce(terms[lo:hi]) / (hi - lo)))
            for lo, hi in zip(bounds[:-1], bounds[1:])]


# fitting ----------------------------------------------------------------

def fit(method: str, scores: ScoreSet, y, init=None) -> Calibrator:
    """Fit a calibrator of the given method on held-out scores and their 0/1 labels ``y``.

    ``y`` must be a non-empty 1-D array aligned with ``scores``. ``init``,
    Platt's (A, B), warm-starts a platt fit; other methods take none.
    """
    if method not in ALL_METHODS:
        raise ValueError(f"unknown calibration method {method!r}")
    if init is not None and method != "platt":
        raise ValueError(f"init warm-starts platt fits only, not {method!r}")
    y = _labels(_aligned(scores=scores.probabilities, labels=y)[1], "labels").astype(np.int64)
    if method == "constant":
        return _constant(_laplace_rate(y))
    single_class = (y == y[0]).all()
    if single_class and method != "isotonic":
        # degenerate fit data: fall back to a smoothed constant
        return _constant(_laplace_rate(y), note="single_class_fallback")
    with np.errstate(over="ignore"):
        if method == "platt":
            return _fit_platt(scores.margins, y, init)
        if method == "temperature":
            return _fit_temperature(scores.margins, y)
        if method in ("beta", "dirichlet2"):
            return _fit_dirichlet2(scores.probabilities, y, constrained=(method == "beta"))
        if method == "histogram":
            return _fit_histogram(scores.probabilities, y)
        if method == "isotonic":
            return _fit_isotonic(scores.probabilities, y)
        if method == "platt_bin":
            return _fit_platt_bin(scores, y)
    raise AssertionError(method)


def _laplace_rate(y) -> float:
    y = np.asarray(y)
    return (int(y.sum()) + 1) / (len(y) + 2)


def _constant(p0: float, note: str | None = None) -> Calibrator:
    diag = {"note": note} if note else {}
    return Calibrator("constant", {"p0": float(p0)}, diag)


def _newton_logistic(Z, y, w0):
    """Minimize mean logistic NLL of sigmoid(Z @ w) from ``w0``.

    The unclipped probabilities of the accepted line-search candidate are
    sigmoid(Z @ w) for the next iteration, so they are kept for its gradient
    and Hessian instead of being computed again. A coefficient with a zero
    column of ``Z`` has a zero gradient entry and, by the ridge, its own
    1-by-1 Hessian block, so its step is exactly 0 and it keeps its start.
    """
    n = len(y)
    yf = np.asarray(y, dtype=np.float64)
    y1 = 1.0 - yf
    w = np.asarray(w0, dtype=np.float64).copy()
    ridge = 1e-12 * np.eye(len(w))

    p = sigmoid(Z @ w)
    obj = _nll(p, yf, y1)
    it = 0
    gnorm = np.inf
    for it in range(1, MAX_ITER + 1):
        g = Z.T @ (p - yf) / n
        gnorm = float(np.linalg.norm(g))
        if gnorm <= GRAD_TOL:
            break
        W = p * (1 - p)
        H = (Z.T * W) @ Z / n + ridge
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            step = g
        # backtracking line search
        alpha = 1.0
        for _ in range(60):
            cand = w - alpha * step
            cand_p = sigmoid(Z @ cand)
            cand_obj = _nll(cand_p, yf, y1)
            if cand_obj <= obj - 1e-4 * alpha * float(g @ step):
                break
            alpha *= 0.5
        else:
            break
        if abs(obj - cand_obj) < 1e-16 and gnorm < 1e-6:
            w, obj = cand, cand_obj
            break
        w, obj, p = cand, cand_obj, cand_p
    return w, {"final_nll": obj, "iterations": it, "grad_norm": gnorm}


def _fit_platt(margins, y, init=None) -> Calibrator:
    Z = np.column_stack([margins, np.ones_like(margins)])
    w0 = np.array([1.0, 0.0]) if init is None else np.array([-init[0], -init[1]])
    w, diag = _newton_logistic(Z, y, w0)
    return Calibrator("platt", {"A": float(-w[0]), "B": float(-w[1])}, diag)


def _fit_temperature(margins, y) -> Calibrator:
    return _fit_temperatures(margins, y, (0, len(y)))[0]


def _fit_temperatures(margins, y, bounds) -> list[Calibrator]:
    """Temperature fits of the slices [bounds[s], bounds[s + 1]) of ``margins``
    and their 0/1 labels ``y``: golden-section searches for log T over
    ``T_BOUNDS``, ``GOLDEN_ITER`` iterations, all advanced together.

    Each iteration is a deterministic map of a slice's state (a, b, c, d, fc, fd).
    Once a state equals the one two iterations earlier, the states alternate
    for good, so the bracket after the last iteration is the current state or
    the previous one, by the parity of the iterations left. The slice stops
    there (around iteration 80 in practice) with exactly the
    ``GOLDEN_ITER``-iteration result, which is why ``iterations`` reports
    ``GOLDEN_ITER``. Each iteration evaluates the running slices' objectives in
    one pass over their rows, which are gathered again when a slice stops.
    Each T is ``math.exp`` of a slice's log T, as a fit of the slice alone
    takes it.
    """
    lo, hi = math.log(T_BOUNDS[0]), math.log(T_BOUNDS[1])
    bounds = [int(v) for v in bounds]
    n = len(bounds) - 1
    sizes = np.diff(bounds)
    yf = np.asarray(y, dtype=np.float64)
    y1 = 1.0 - yf
    running = every = list(range(n))
    run = (every, margins, yf, y1, sizes, bounds)       # the slices a pass covers

    def objectives(slices, log_ts):
        """The NLL of each of ``slices`` at its log T, from one pass over their rows."""
        nonlocal run
        if run[0] is not slices:
            rows = np.repeat(np.isin(np.arange(n), slices), sizes)
            run = (slices, margins[rows], yf[rows], y1[rows], sizes[slices],
                   [0, *np.cumsum(sizes[slices]).tolist()])
        _, m, yr, y1r, run_sizes, run_bounds = run
        ts = [math.exp(v) for v in log_ts]
        # a lone slice's T stays a number: the same quotients, without the repeat
        t = ts[0] if len(ts) == 1 else np.repeat(ts, run_sizes)
        return _mean_nlls(_nll_terms(sigmoid(m / t), yr, y1r), run_bounds)

    inv_phi = (math.sqrt(5.0) - 1) / 2
    a, b = lo, hi
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    states = [(a, b, c, d, fc, fd)
              for fc, fd in zip(objectives(running, [c] * n), objectives(running, [d] * n))]
    prev, older = [None] * n, [None] * n
    brackets = [None] * n      # each stopped slice's final (a, b)
    for i in range(1, GOLDEN_ITER + 1):
        moves, stopped = [], False   # each running slice's state, but for the new point's value
        for s in running:
            a, b, c, d, fc, fd = states[s]
            if fc <= fd:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                moves.append((a, b, c, d, None, fd))
            else:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                moves.append((a, b, c, d, fc, None))
        f_new = objectives(running, [m[2] if m[4] is None else m[3] for m in moves])
        for s, (a, b, c, d, fc, fd), f in zip(running, moves, f_new):
            state = states[s] = (a, b, c, d, f, fd) if fc is None else (a, b, c, d, fc, f)
            if state == older[s]:
                brackets[s] = prev[s][:2] if (GOLDEN_ITER - i) % 2 else state[:2]
                stopped = True
            older[s], prev[s] = prev[s], state
        if stopped:
            running = [s for s in running if brackets[s] is None]
            if not running:
                break
    for s in running:
        brackets[s] = states[s][:2]
    ts = [min(max(math.exp((a + b) / 2), T_BOUNDS[0]), T_BOUNDS[1]) for a, b in brackets]
    return [Calibrator("temperature", {"T": float(t)}, {"final_nll": f, "iterations": GOLDEN_ITER})
            for t, f in zip(ts, objectives(every, [math.log(t) for t in ts]))]


def _fit_dirichlet2(probs, y, constrained: bool) -> Calibrator:
    p = np.clip(probs, APPLY_EPS, 1 - APPLY_EPS)
    Z = np.column_stack([np.log(p), np.log1p(-p), np.ones(len(p))])
    w0 = np.array([1.0, -1.0, 0.0])  # Platt-equivalent start
    w, diag = _newton_logistic(Z, y, w0)
    if not constrained:
        return Calibrator("dirichlet2",
                          {"w1": float(w[0]), "w2": float(w[1]), "c": float(w[2])}, diag)
    # beta requires a >= 0 (coef on ln p) and b >= 0 (coef on -ln(1-p)). A free
    # coefficient across its bound is frozen at 0 by zeroing its column and its
    # start, and the rest refit from w0; a refit can push the other one across.
    frozen = []
    while crossed := [j for j, bad in ((0, w[0] < 0), (1, w[1] > 0)) if bad and j not in frozen]:
        frozen += crossed
        Z[:, crossed] = 0.0
        w0[crossed] = 0.0
        w, diag = _newton_logistic(Z, y, w0)
    diag = dict(diag, clamped=sorted(frozen))
    return Calibrator("beta", {"a": float(w[0]), "b": float(-w[1]), "c": float(w[2])}, diag)


def _equal_mass_edges(probs, m: int) -> tuple[np.ndarray, np.ndarray]:
    """AdaECE's equal-mass bin ids for ``1 <= m <= len(probs)`` bins, and the
    apply-time edges: 0, the midpoints between adjacent bins, 1."""
    ids = _bin_ids(probs, m, "equal_mass")
    s = np.sort(probs)
    start = np.cumsum(np.bincount(ids, minlength=m))[:-1]
    return ids, np.r_[0.0, (s[start - 1] + s[start]) / 2, 1.0]


def _bin_lookup(edges, probs) -> np.ndarray:
    m = len(edges) - 1
    return np.clip(np.searchsorted(edges[1:m], probs, side="right"), 0, m - 1)


def _fit_histogram(probs, y) -> Calibrator:
    m = min(N_BINS, len(probs))
    ids, edges = _equal_mass_edges(probs, m)
    n_b = np.bincount(ids, minlength=m)
    k_b = np.bincount(ids, weights=y, minlength=m)
    return Calibrator("histogram", {"edges": edges, "outputs": (k_b + 1) / (n_b + 2)},
                      {"n_bins": m, "laplace": True})


def pav(values, weights=None) -> np.ndarray:
    """Weighted pool-adjacent-violators: the L2 non-decreasing fit of finite 1-D
    ``values`` under aligned finite ``weights`` > 0 (default all 1)."""
    v = np.asarray(values, dtype=np.float64)
    v, w = _aligned(values=v, weights=np.ones_like(v) if weights is None else weights)
    w = w.astype(np.float64, copy=False)
    if not np.isfinite(v).all():
        raise ValueError("pav values must be finite")
    if not ((w > 0) & (w < np.inf)).all():  # also false for NaN
        raise ValueError("pav weights must be finite and > 0")
    means, wsum, counts = [], [], []
    for vi, wi in zip(v, w):
        means.append(vi)
        wsum.append(wi)
        counts.append(1)
        while len(means) > 1 and means[-2] >= means[-1]:
            tot = wsum[-2] + wsum[-1]
            means[-2] = (means[-2] * wsum[-2] + means[-1] * wsum[-1]) / tot
            wsum[-2] = tot
            counts[-2] += counts[-1]
            means.pop()
            wsum.pop()
            counts.pop()
    return np.repeat(means, counts)


def _fit_isotonic(probs, y) -> Calibrator:
    order = np.argsort(probs, kind="stable")
    fitted = pav(np.asarray(y, dtype=np.float64)[order])
    return Calibrator("isotonic",
                      {"breakpoints": probs[order], "values": fitted},
                      {"n_blocks": int(len(np.unique(fitted)))})


def _fit_platt_bin(scores: ScoreSet, y) -> Calibrator:
    m = min(N_BINS, len(y))
    ids, edges = _equal_mass_edges(scores.probabilities, m)
    bins = []
    for b in range(m):
        mask = ids == b
        yb = y[mask]
        if (yb == yb[0]).all():
            bins.append(_constant(_laplace_rate(yb)))
        else:
            bins.append(_fit_platt(scores.margins[mask], yb))
    return Calibrator("platt_bin", {"edges": edges, "bins": bins}, {"n_bins": m})
