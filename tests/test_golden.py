"""Golden-artifact regression test for the full `report` pipeline.

`golden/report_config.json` is a small synthetic run (GBT scores, SHAP
embedding, k-means with k=4, all seven calibration methods) whose per-cluster
fits include a homogeneous constant, beta fits clamped on one and on both
coefficients and temperature fits at the upper T bound. `golden/report/`
holds the artifacts it wrote; regenerate them only for an intended change:

    PYTHONPATH=src python -m clustercal.cli report \\
        --config tests/golden/report_config.json --out tests/golden/report

Strings, integers, booleans, list lengths and keys (labels, cluster ids,
variant lists, CSV headers and row counts) must match exactly. Floats must
match to a relative 1e-12, or an absolute 1e-15 for values near zero such as
Newton gradient norms.
"""

import json
import math
import re
from pathlib import Path

import pytest

from clustercal.cli import main

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-12
ABS_TOL = 1e-15
INT_CELL = re.compile(r"-?\d+")


def _float_close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _is_float_cell(cell: str) -> bool:
    # _write_csv writes ints with str() and floats with repr(float)
    if INT_CELL.fullmatch(cell):
        return False
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _assert_json_close(got, want, where):
    assert type(got) is type(want), f"{where}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            _assert_json_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_json_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert _float_close(got, want), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _assert_csv_close(got: str, want: str, where):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert got_lines[0] == want_lines[0], f"{where}: header differs"
    assert len(got_lines) == len(want_lines), f"{where}: row count differs"
    for r, (gl, wl) in enumerate(zip(got_lines[1:], want_lines[1:]), start=1):
        gc, wc = gl.split(","), wl.split(",")
        assert len(gc) == len(wc), f"{where} row {r}: column count differs"
        for c, (g, w) in enumerate(zip(gc, wc)):
            if _is_float_cell(w):
                assert _float_close(float(g), float(w)), f"{where} row {r} col {c}: {g} != {w}"
            else:
                assert g == w, f"{where} row {r} col {c}: {g!r} != {w!r}"


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "report"
    assert main(["report", "--config", str(GOLDEN / "report_config.json"),
                 "--out", str(out)]) == 0
    return out


def test_same_artifact_files(report_dir):
    want = sorted(p.name for p in (GOLDEN / "report").iterdir())
    assert sorted(p.name for p in report_dir.iterdir()) == want
    assert any(n.startswith("ccl_temperature") for n in want)
    assert any(n.startswith("unified_platt_bin") for n in want)


@pytest.mark.parametrize("name", sorted(p.name for p in (GOLDEN / "report").iterdir()))
def test_artifact_matches_golden(report_dir, name):
    got = (report_dir / name).read_text(encoding="utf-8")
    want = (GOLDEN / "report" / name).read_text(encoding="utf-8")
    if name.endswith(".json"):
        _assert_json_close(json.loads(got), json.loads(want), name)
    else:
        _assert_csv_close(got, want, name)
