"""Wrapper-based span recorder for the traced benchmark run.

The recorder replaces each layer's entry point, as bound in the module that
calls it, with a wrapper that records a span (name, start, end, parent id).
Spans stay in memory; counts that need the layer's inputs or outputs keep a
reference during the pipeline and are computed afterwards, so no extra work
falls inside a timed span. Nothing in the package itself is modified on disk,
and ``Tracer.installed()`` restores every original binding on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module[:class], attribute, span name). Names are "<layer>.<entry point>".
PATCHES = [
    ("clustercal.cli", "main", "cli.main"),
    ("clustercal.cli", "run_experiment", "harness.run"),
    ("clustercal.harness", "_persist", "harness.persist"),
    ("clustercal.harness", "gen_synthetic_full", "data.gen"),
    ("clustercal.harness", "split", "data.split"),
    ("clustercal.harness", "fit_gbt", "gbt.fit"),
    ("clustercal.harness", "predict", "gbt.predict"),
    ("clustercal.harness", "build_embedding", "representation.embed"),
    ("clustercal.representation", "shap_values", "treeshap.shap"),
    ("clustercal.harness", "select_k_elbow", "representation.elbow"),
    ("clustercal.harness", "fit_kmeans", "representation.kmeans"),
    ("clustercal.representation", "fit_kmeans", "representation.kmeans"),
    ("clustercal.harness", "assign", "representation.assign"),
    ("clustercal.ensemble", "assign", "representation.assign"),
    ("clustercal.calibrators", "fit", "calibrators.fit"),
    ("clustercal.harness", "train_clustered", "ensemble.train"),
    ("clustercal.ensemble:ClusteredCalibrator", "infer", "ensemble.infer"),
    ("clustercal.harness", "improved_sample_fraction", "ensemble.improved"),
] + [("clustercal.harness", fn, "metrics.eval")
     for fn in ("cece", "ece", "mce", "ada_ece", "auc", "scalar_metrics", "rejection_curve")] + [
    ("clustercal.ensemble", "ece", "metrics.eval"),
    ("clustercal.metrics", "ece", "metrics.eval"),   # _persist imports it at call time
]

# Spans whose arguments or results feed a count after the pipeline.
_KEEP = {"gbt.fit", "treeshap.shap", "ensemble.train"}


def _resolve(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans for the pipelines run while ``installed()`` is active."""

    def __init__(self):
        self.spans = []      # [id, name, parent, start, end, kept]
        self._stack = []
        self.lloyd_steps = 0
        self.distance_evals = 0

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        keep = name in _KEEP

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [sid, name, stack[-1][0] if stack else None, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec)
            rec[3] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if keep:
                rec[5] = (args, out)
            return out
        return wrapper

    def _count_assign(self, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(V, C):
            if stack and stack[-1][1] == "representation.kmeans":
                self.lloyd_steps += 1
                self.distance_evals += len(V) * len(C)
            return fn(V, C)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for path, attr, name in PATCHES:
                owner = _resolve(path)
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
            rep = _resolve("clustercal.representation")
            saved.append((rep, "_assign_nearest", rep._assign_nearest))
            rep._assign_nearest = self._count_assign(rep._assign_nearest)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def reset(self):
        self.spans.clear()
        self.lloyd_steps = 0
        self.distance_evals = 0

    def dump(self) -> list:
        """Spans as JSON-ready dicts (without the kept arguments)."""
        return [{"id": s[0], "name": s[1], "parent": s[2], "start": s[3], "end": s[4]}
                for s in self.spans]

    def self_times(self) -> dict:
        """Total self time per span name: duration minus time covered by children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[2] is not None:
                child[s[2]] += s[4] - s[3]
        out = {}
        for s in self.spans:
            out[s[1]] = out.get(s[1], 0.0) + (s[4] - s[3]) - child[s[0]]
        return out

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[1] == name)

    def kept(self, name: str) -> list:
        return [s[5] for s in self.spans if s[1] == name and s[5] is not None]


# counts derived from the fitted objects ------------------------------------

def _node_depths(tree):
    depth = [0] * tree.n_nodes
    for j in range(tree.n_nodes):
        if tree.feature[j] >= 0:
            depth[tree.left[j]] = depth[j] + 1
            depth[tree.right[j]] = depth[j] + 1
    return depth


def split_scan_cells(ens) -> int:
    """Sum of cover x n_features over every node that searched for a split.

    A node searches when it is above the depth limit and holds at least two
    rows; that is every internal node and every leaf that found no split.
    """
    total = 0
    for tree in ens.trees:
        for j, dep in enumerate(_node_depths(tree)):
            if dep < ens.params.max_depth and tree.cover[j] >= 2:
                total += int(tree.cover[j]) * ens.n_features
    return total


def max_path_features(ens) -> int:
    """Largest number of distinct features on any root-to-leaf path."""
    best = 0
    for tree in ens.trees:
        stack = [(0, frozenset())]
        while stack:
            j, feats = stack.pop()
            f = int(tree.feature[j])
            if f < 0:
                best = max(best, len(feats))
            else:
                stack.append((int(tree.left[j]), feats | {f}))
                stack.append((int(tree.right[j]), feats | {f}))
    return best


def layer_metrics(tr: Tracer, scale: float = 1.0) -> dict:
    """Per-layer metrics for one traced pipeline (see BENCHMARK.json per_layer).

    Self times are multiplied by ``scale``, the pipeline's factor to
    reference host speed (see speed.py), so they add up to its scaled wall time.
    """
    st = tr.self_times()
    t = lambda name: st.get(name, 0.0) * scale  # noqa: E731
    m = {
        "data.gen_s": t("data.gen"),
        "data.split_s": t("data.split"),
        "gbt.fit_s": t("gbt.fit"),
        "gbt.predict_s": t("gbt.predict"),
        "treeshap.shap_s": t("treeshap.shap"),
        "representation.embed_self_s": t("representation.embed"),
        "representation.kmeans_s": t("representation.kmeans"),
        "representation.elbow_s": t("representation.elbow"),
        "representation.assign_s": t("representation.assign"),
        "calibrators.fit_s": t("calibrators.fit"),
        "ensemble.train_s": t("ensemble.train"),
        "ensemble.infer_s": t("ensemble.infer"),
        "ensemble.improved_s": t("ensemble.improved"),
        "metrics.eval_s": t("metrics.eval"),
        "harness.persist_s": t("harness.persist"),
        "harness.self_s": t("harness.run"),
        "cli.self_s": t("cli.main"),
    }

    ensembles = [out for _, out in tr.kept("gbt.fit")]
    m["gbt.nodes"] = sum(tree.n_nodes for e in ensembles for tree in e.trees)
    m["gbt.split_scan_cells"] = sum(split_scan_cells(e) for e in ensembles)

    visits, max_m = 0, 0
    for args, _ in tr.kept("treeshap.shap"):
        ens, X = args[0], args[1]
        visits += len(X) * sum(tree.n_nodes for tree in ens.trees)
        max_m = max(max_m, max_path_features(ens))
    m["treeshap.node_visits"] = visits
    m["treeshap.ns_per_node_visit"] = m["treeshap.shap_s"] * 1e9 / visits if visits else 0.0
    m["treeshap.max_path_features"] = max_m

    m["representation.kmeans_fits"] = tr.calls("representation.kmeans")
    m["representation.lloyd_steps"] = tr.lloyd_steps
    m["representation.distance_evals"] = tr.distance_evals
    m["representation.assign_calls"] = tr.calls("representation.assign")
    m["calibrators.fits"] = tr.calls("calibrators.fit")

    fits = fallback = constant = kept_global = 0
    for _, ccl in tr.kept("ensemble.train"):
        for c, info in ccl.cluster_meta.items():
            fallback += info["used_fallback"]
            constant += info["used_constant"]
            if not (info["used_fallback"] or info["used_constant"]):
                fits += 1
                kept_global += ccl.calibrators[c].diagnostics.get("refit") == "kept_global"
    m["ensemble.cluster_fits"] = fits
    m["ensemble.fallback_clusters"] = fallback
    m["ensemble.constant_clusters"] = constant
    m["ensemble.kept_fraction"] = (fits - kept_global) / fits if fits else 1.0
    m["metrics.calls"] = tr.calls("metrics.eval")
    return m
