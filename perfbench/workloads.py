"""Benchmark workloads: each one builds a `clustercal report` config from a seed.

Every workload puts a different layer of the pipeline on the critical path
at the seed commit, so a change to one layer shows up on one workload and is
predicted to leave another unchanged. The seed sets both the synthetic data
seed and the experiment's top-level seed; nothing else varies with it.

Sizes are scaled down from the reference shapes (criterion 10: 48,844 rows,
30 depth-4 trees) so that one pipeline takes 0.5-2.5 s on a 2-core host
without numba and a 20 s window holds several passes over a run's inputs;
rows were kept high enough that each workload's dominant layer stays
dominant. ``smoke=True`` shrinks every workload further, to a size that
runs in well under a second, for checking that every metric is emitted.
"""

from __future__ import annotations

PARAMETRIC = ["platt", "temperature", "beta", "dirichlet2"]
ALL_SEVEN = PARAMETRIC + ["histogram", "isotonic", "platt_bin"]


def _synthetic(n_subpops, per_subpop, d, base_rates, offsets, seed):
    return {"synthetic": {
        "n_subpops": n_subpops, "samples_per_subpop": per_subpop, "d": d,
        "base_rates": base_rates, "miscal_offsets": offsets,
        "noise": 1.0, "seed": seed}}


def _shap_d4(seed, smoke):
    return {
        "data": _synthetic(4, 10 if smoke else 200, 12, [0.15, 0.35, 0.65, 0.85],
                           [0.0, 0.0, 0.0, 0.0], seed),
        "model": {"gbt": {"n_trees": 2 if smoke else 5, "max_depth": 4}},
        "embedding": {"kind": "shap"},
        "clustering": {"method": "kmeans", "k": 8},
        "methods": PARAMETRIC,
        "seed": seed,
    }


def _shap_d8(seed, smoke):
    return {
        "data": _synthetic(4, 10 if smoke else 250, 12, [0.15, 0.35, 0.65, 0.85],
                           [0.8, -0.8, 0.8, -0.8], seed),
        "model": {"gbt": {"n_trees": 1, "max_depth": 8}},
        "embedding": {"kind": "shap"},
        "clustering": {"method": "kmeans", "k": 8},
        "methods": PARAMETRIC,
        "seed": seed,
    }


def _gbt_raw(seed, smoke):
    return {
        "data": _synthetic(4, 50 if smoke else 2500, 12, [0.15, 0.35, 0.65, 0.85],
                           [0.0, 0.0, 0.0, 0.0], seed),
        "model": {"gbt": {"n_trees": 2 if smoke else 30, "max_depth": 4}},
        "embedding": {"kind": "raw"},
        "clustering": {"method": "kmeans", "k": 8},
        "methods": ALL_SEVEN,
        "seed": seed,
    }


def _elbow_k(seed, smoke):
    return {
        "data": _synthetic(8, 40 if smoke else 500, 4,
                           [0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9],
                           [1.5, -1.5, 1.0, -1.0, 1.5, -1.5, 1.0, -1.0], seed),
        "model": {"synthetic_scores": {}},
        "embedding": {"kind": "raw"},
        "clustering": {"method": "kmeans", "elbow": [4, 40, 4]},
        "methods": PARAMETRIC,
        "seed": seed,
    }


# name -> (inputs per run, why it is in the benchmark, config builder)
WORKLOADS = {
    "shap_d4": (
        4,
        "criterion-10 shape (depth-4 trees, SHAP embedding, k=8) at 800 rows and 5 trees: "
        "TreeSHAP on shallow trees dominates",
        _shap_d4),
    "shap_d8": (
        5,
        "one depth-8 tree with 40-50 leaves and up to 8 features per path on 1,000 rows: "
        "TreeSHAP on long paths dominates, the weak spot of a 2^m-table kernel",
        _shap_d8),
    "gbt_raw": (
        4,
        "30 depth-4 trees on 10,000 rows, raw embedding, all seven methods: GBT fit leads "
        "and TreeSHAP is bypassed",
        _gbt_raw),
    "elbow_k": (
        14,
        "synthetic scores, raw embedding, elbow grid 4..40 on 4,000 rows: k-means and "
        "per-cluster calibration dominate, no GBT or TreeSHAP",
        _elbow_k),
}


def sub_seeds(name: str, seed: int) -> list:
    """The seeds of the inputs one run of ``name`` cycles through.

    Several inputs per run average out how much work a single draw of the
    data and the k-means start happens to need; distinct run seeds never
    share an input.
    """
    n_inputs = WORKLOADS[name][0]
    return [int(seed) * 1000 + i for i in range(n_inputs)]


def config(name: str, sub_seed: int, smoke: bool = False) -> dict:
    """The `report` config for one input of workload ``name``."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name][2](int(sub_seed), smoke)


def why(name: str) -> str:
    return WORKLOADS[name][1]


# The layer each workload puts on the critical path at the seed commit, and a
# floor under the share of a traced pipeline it had there (93-95 % for
# TreeSHAP, 74 % for GBT fit and k-means in baseline.json).
DOMINANT = {
    "shap_d4": ("treeshap.shap_s", 0.90),
    "shap_d8": ("treeshap.shap_s", 0.90),
    "gbt_raw": ("gbt.fit_s", 0.50),
    "elbow_k": ("representation.kmeans_s", 0.50),
}
