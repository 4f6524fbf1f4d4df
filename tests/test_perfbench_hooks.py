"""perfbench's timing hooks stay on the pipeline's call path.

`perfbench/spans.py` times each layer by replacing the module attributes in
its `PATCHES` table with recording wrappers. A hook whose attribute leaves
the call path records nothing, and its layer then reads zero without an
error. These tests run `report` under the tracer and check that every hook
records at least one call.
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
