"""scipy stays off the CLI's start-up and `report` paths.

Importing ``scipy.stats`` takes about 1.3 s and ``scipy.cluster.hierarchy``
about 0.6 s, against about 0.1 s for numpy, and every `clustercal` command
starts a fresh interpreter. Only Ward clustering (``fit_agglomerative``) and
``paired_resample_test`` import scipy, inside the functions. The check runs
in a fresh interpreter, so modules this test session has loaded do not hide
an import.
"""

import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_CONFIG = ROOT / "tests" / "golden" / "report_config.json"


def lazy_results():
    """A Ward clustering and a paired test, as JSON-ready values."""
    import numpy as np

    from clustercal.harness import paired_resample_test
    from clustercal.representation import fit_agglomerative

    rng = np.random.default_rng(17)
    cm = fit_agglomerative(rng.normal(size=(60, 3)), 4)
    y = rng.integers(0, 2, size=200)
    a, b = rng.uniform(size=200), rng.uniform(size=200)
    r = paired_resample_test(a, b, y, metric="ece", iterations=8)
    return {"cluster": cm.to_dict(),
            "paired": [r.differences.tolist(), r.t_stat, r.p_one_sided, r.p_two_sided]}


CHILD = textwrap.dedent(inspect.getsource(lazy_results)) + '''
import json
import sys


def scipy_loaded():
    return sorted(m for m in sys.modules if m.startswith("scipy"))


config, out, result = sys.argv[1:]
import clustercal.cli  # noqa: E402

loaded = {"import": scipy_loaded()}
rc = clustercal.cli.main(["report", "--config", config, "--out", out])
loaded["report"] = scipy_loaded()
lazy = lazy_results()
loaded["lazy"] = scipy_loaded()
with open(result, "w") as fh:
    json.dump({"rc": rc, "loaded": loaded, "lazy": lazy}, fh)
'''


def test_cli_and_report_load_no_scipy(tmp_path):
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(GOLDEN_CONFIG), str(tmp_path / "out"), str(result)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(result.read_text())
    assert got["rc"] == 0
    assert got["loaded"]["import"] == [], "import clustercal.cli loaded scipy"
    assert got["loaded"]["report"] == [], "the report command loaded scipy"
    # the lazy paths ran in an interpreter without scipy, and loaded it themselves
    assert {"scipy.stats", "scipy.cluster.hierarchy"} <= set(got["loaded"]["lazy"])
    assert got["lazy"] == json.loads(json.dumps(lazy_results()))
