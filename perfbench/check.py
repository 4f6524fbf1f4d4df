"""Correctness gate for one `report` pipeline's persisted artifacts.

A digest keeps the exact parts of the result (variant list, chosen k, elbow
grid, training cluster sizes) and every metric value. Digests are compared
with a reference recorded from the seed commit: exact parts must be equal,
values equal within ``REL_TOL``/``ABS_TOL``. Inputs without a recorded
reference get the invariant checks only. Pure Python: no numpy.
"""

from __future__ import annotations

import json
import math
import os

METRIC_COLUMNS = ("CECE", "ECE", "MCE", "AdaECE", "AUC", "ACC", "CE", "MSE_brier", "RMSE")
PARAMETRIC = ("platt", "temperature", "beta", "dirichlet2")
REL_TOL = 1e-9
ABS_TOL = 1e-12
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def _load(out_dir, name):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def digest(out_dir: str) -> dict:
    """Exact parts and metric values of the artifacts in ``out_dir``."""
    rep = _load(out_dir, "eval_report.json")
    clusters = _load(out_dir, "clusters.json")
    selection = _load(out_dir, "selection.json")
    diag = rep["cluster_diagnostics"]
    curve = diag["elbow_curve"] or []
    values = [r[c] for r in rep["rows"] for c in METRIC_COLUMNS]
    values += [diag["size_variance"], diag["label_rate_variance"], diag["homogeneity_fraction"]]
    values += [inertia for _, inertia in curve]
    values += [rep["improved_fractions"][m] for m in sorted(rep["improved_fractions"])]
    return {
        "variants": [r["variant"] for r in rep["rows"]],
        "k": diag["k"],
        "elbow_ks": [k for k, _ in curve],
        "sizes": clusters["sizes"],
        "selected": selection["selected"],
        "values": values,
    }


def compare(got: dict, ref: dict) -> list:
    """Mismatches between a digest and its reference (empty when they agree)."""
    bad = [f"{key}: {got[key]!r} != reference {ref[key]!r}"
           for key in ("variants", "k", "elbow_ks", "sizes", "selected")
           if got[key] != ref[key]]
    if len(got["values"]) != len(ref["values"]):
        bad.append(f"{len(got['values'])} metric values, reference has {len(ref['values'])}")
    else:
        for i, (a, b) in enumerate(zip(got["values"], ref["values"])):
            if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                bad.append(f"metric value #{i}: {a!r} != reference {b!r}")
    return bad


def invariants(got: dict, cfg: dict) -> list:
    """Checks that need no reference: shape of the report and value ranges."""
    bad = []
    expected = ["base"]
    for m in cfg["methods"]:
        expected.append(f"{m}_unified")
        if m in PARAMETRIC:
            expected.append(f"{m}_ccl")
    if got["variants"] != expected:
        bad.append(f"variants {got['variants']} != {expected}")
    k_cfg = cfg["clustering"].get("k")
    if k_cfg is not None and got["k"] != k_cfg:
        bad.append(f"k={got['k']} but the config asks for {k_cfg}")
    if k_cfg is None and got["k"] not in got["elbow_ks"]:
        bad.append(f"elbow chose k={got['k']} outside its grid {got['elbow_ks']}")
    syn = cfg["data"]["synthetic"]
    n = syn["n_subpops"] * syn["samples_per_subpop"]
    if len(got["sizes"]) != got["k"] or abs(sum(got["sizes"]) - 0.8 * n) > 2:
        bad.append(f"cluster sizes {got['sizes']} do not cover the 80% fit split of {n} rows")
    if got["selected"] not in got["variants"]:
        bad.append(f"selected variant {got['selected']!r} is not in the report")
    n_rows = len(got["variants"]) * len(METRIC_COLUMNS)
    for i, v in enumerate(got["values"]):
        if not math.isfinite(v):
            bad.append(f"metric value #{i} is {v!r}")
        elif i < n_rows and METRIC_COLUMNS[i % len(METRIC_COLUMNS)] != "CE" and not 0 <= v <= 1:
            bad.append(f"{METRIC_COLUMNS[i % len(METRIC_COLUMNS)]} = {v!r} outside [0, 1]")
    return bad


def load_reference() -> dict:
    """{workload: {sub_seed (str): digest}} recorded from the seed commit."""
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)
