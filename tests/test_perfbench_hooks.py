"""perfbench's timing hooks stay on the pipeline's call path.

`perfbench/spans.py` times each layer by replacing the module attributes in
its `PATCHES` table with recording wrappers. A hook whose attribute leaves
the call path records nothing, and its layer then reads zero without an
error. These tests run `report` under the tracer and check that every hook
records at least one call, and that the golden run does each piece of work
once. The set-up probe, which loads and checks a config through the
package's API, must run on the golden config.
"""

import importlib.util
import json
from pathlib import Path

import clustercal.cli as cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_CONFIG = ROOT / "tests" / "golden" / "report_config.json"

_spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def traced_report(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    tracer = spans.Tracer()
    with tracer.installed():
        # looked up on the module so that the patched `main` runs
        assert cli.main(["report", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    return tracer


def test_every_hook_records_on_a_fixed_k_run(tmp_path):
    tracer = traced_report(tmp_path, json.loads(GOLDEN_CONFIG.read_text()))
    names = {name for _, _, name in spans.PATCHES} - {"representation.elbow"}
    assert sorted(n for n in names if tracer.calls(n) == 0) == []


def test_elbow_hooks_record(tmp_path):
    cfg = json.loads(GOLDEN_CONFIG.read_text())
    cfg["clustering"] = {"method": "kmeans", "elbow": [2, 6, 2]}
    tracer = traced_report(tmp_path, cfg)
    assert tracer.calls("representation.elbow") >= 1
    assert tracer.calls("representation.kmeans") >= 1
    # one `_assign_nearest` call per Lloyd step, on the rows that step recomputes
    rows = sum(json.loads((tmp_path / "out" / "clusters.json").read_text())["sizes"])
    assert tracer.lloyd_steps > 0
    assert 0 < tracer.distance_evals < tracer.lloyd_steps * rows * 6


def test_golden_run_assigns_and_fits_once(tmp_path):
    tracer = traced_report(tmp_path, json.loads(GOLDEN_CONFIG.read_text()))
    # 4 of the 7 methods are parametric: each gets one ensemble and one infer
    assert tracer.calls("ensemble.train") == 4
    assert tracer.calls("ensemble.infer") == 4
    # one assign per split (clustering rows, calibration, test), plus one per infer
    assert tracer.calls("representation.assign") == 3 + 4
    fitted = {ccl.method: sum(not (info["used_fallback"] or info["used_constant"])
                              for info in ccl.cluster_meta.values())
              for _, ccl in tracer.kept("ensemble.train")}
    assert fitted["temperature"] == 3
    # one global fit per method, which each ensemble reuses as its fallback, and
    # one `fit` per fitted cluster of a Newton method; temperature fits its
    # clusters together, without `fit`
    newton = fitted["platt"] + fitted["beta"] + fitted["dirichlet2"]
    assert tracer.calls("calibrators.fit") == 7 + newton == 16
    # one model fit, one scoring pass and one write of the artifacts per report
    assert tracer.calls("gbt.fit") == 1
    assert tracer.calls("gbt.predict") == 1
    assert tracer.calls("harness.persist") == 1


def test_setup_probe_measures_the_golden_config(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))   # setup_probe imports `speed`
    spec = importlib.util.spec_from_file_location("perfbench_setup_probe",
                                                  ROOT / "perfbench" / "setup_probe.py")
    setup_probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(setup_probe)
    wall, scaled = setup_probe.measure(str(GOLDEN_CONFIG))
    assert wall > 0 and scaled > 0
