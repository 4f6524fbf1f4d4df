"""The repo's pytest settings report a failing property test instead of
stopping the run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_property_test_is_reported(tmp_path):
    # hypothesis's report imports a module that warns DeprecationWarning,
    # which the error filters turned into an INTERNALERROR that ended the run
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output
    assert "Falsifying example: test_fails(" in output, output
