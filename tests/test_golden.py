"""Golden-artifact regression test for the CLI's `train`, `embed`, `cluster`
and `report` outputs.

`golden/report_config.json` is a small synthetic run (GBT scores, SHAP
embedding, k-means with k=4, all seven calibration methods) whose per-cluster
fits include a homogeneous constant, beta fits clamped on one and on both
coefficients and temperature fits at the upper T bound. `golden/<command>/`
holds the artifacts each command wrote from it; regenerate them only for an
intended change:

    for c in train embed cluster report; do
        PYTHONPATH=src python -m clustercal.cli $c \\
            --config tests/golden/report_config.json --out tests/golden/$c
    done

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
    # _write_csv writes each cell with str() of a Python scalar: an int has
    # no decimal point, a float is its shortest repr (1.0, 1e-05, nan)
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


COMMANDS = ("train", "embed", "cluster", "report")
# report's artifacts keep their bare file names as test ids
CASES = [pytest.param(c, p.name, id=p.name if c == "report" else f"{c}/{p.name}")
         for c in COMMANDS for p in sorted((GOLDEN / c).iterdir())]


@pytest.fixture(scope="module")
def output_dir(tmp_path_factory):
    """Runs each command once, on first use, and returns its output directory."""
    root = tmp_path_factory.mktemp("golden")
    done = {}

    def run(command):
        if command not in done:
            out = root / command
            assert main([command, "--config", str(GOLDEN / "report_config.json"),
                         "--out", str(out)]) == 0
            done[command] = out
        return done[command]
    return run


def test_same_artifact_files(output_dir):
    for command in COMMANDS:
        want = sorted(p.name for p in (GOLDEN / command).iterdir())
        assert sorted(p.name for p in output_dir(command).iterdir()) == want, command
    report = [p.name for p in (GOLDEN / "report").iterdir()]
    assert any(n.startswith("ccl_temperature") for n in report)
    assert any(n.startswith("unified_platt_bin") for n in report)


@pytest.mark.parametrize("command, name", CASES)
def test_artifact_matches_golden(output_dir, command, name):
    got = (output_dir(command) / name).read_text(encoding="utf-8")
    want = (GOLDEN / command / name).read_text(encoding="utf-8")
    if name.endswith(".json"):
        _assert_json_close(json.loads(got), json.loads(want), f"{command}/{name}")
    else:
        _assert_csv_close(got, want, f"{command}/{name}")
