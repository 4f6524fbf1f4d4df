"""Golden-artifact regression test for the CLI's `train`, `embed`, `cluster`
and `report` outputs.

`golden/report_config.json` is a small synthetic run (GBT scores, SHAP
embedding, k-means with k=4, all seven calibration methods) whose per-cluster
fits include a homogeneous constant, beta fits clamped on one and on both
coefficients and temperature fits at the upper T bound. `golden/<command>/`
holds the artifacts each command wrote from it; regenerate them only for an
intended change. Each directory is cleared first, so that a file a command
no longer writes does not stay behind:

    for c in train embed cluster report; do
        rm -rf tests/golden/$c
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


def _variant_view(text: str, name: str) -> str:
    """One variant's part of report's stacked CSVs, named as its own file:
    `calibrated_scores_<v>.csv` is the sample_id, label and `<v>` columns of
    `calibrated_scores.csv`, `bins_<v>.csv` the `<v>` rows of `bins.csv`."""
    lines = text.splitlines()
    if name.startswith("calibrated_scores_"):
        col = lines[0].split(",").index(name[len("calibrated_scores_"):-len(".csv")])
        return "\n".join(",".join(c for i, c in enumerate(line.split(",")) if i in (0, 1, col))
                         for line in lines)
    variant = name[len("bins_"):-len(".csv")]
    rows = [line.split(",", 1)[1] for line in lines[1:] if line.split(",", 1)[0] == variant]
    assert rows, f"{name}: no rows for variant {variant!r}"
    return "\n".join([lines[0].split(",", 1)[1], *rows])


def _read_artifact(directory: Path, name: str) -> str:
    if name.startswith(("calibrated_scores_", "bins_")):
        stacked = "calibrated_scores.csv" if name.startswith("calibrated") else "bins.csv"
        return _variant_view((directory / stacked).read_text(encoding="utf-8"), name)
    return (directory / name).read_text(encoding="utf-8")


COMMANDS = ("train", "embed", "cluster", "report")
VARIANTS = (GOLDEN / "report" / "calibrated_scores.csv").read_text(
    encoding="utf-8").splitlines()[0].split(",")[2:]
# report's artifacts keep their bare file names as test ids; each variant's
# part of the two stacked CSVs is also a case of its own
CASES = ([pytest.param(c, p.name, id=p.name if c == "report" else f"{c}/{p.name}")
          for c in COMMANDS for p in sorted((GOLDEN / c).iterdir())]
         + [pytest.param("report", f"{stem}_{v}.csv", id=f"{stem}_{v}.csv")
            for stem in ("bins", "calibrated_scores") for v in VARIANTS])


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
    got = _read_artifact(output_dir(command), name)
    want = _read_artifact(GOLDEN / command, name)
    if name.endswith(".json"):
        _assert_json_close(json.loads(got), json.loads(want), f"{command}/{name}")
    else:
        _assert_csv_close(got, want, f"{command}/{name}")
