"""The README's quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_quick_start"})
    out = capsys.readouterr().out
    assert re.search(r"^CECE: \d", out, re.M) and re.search(r"^ECE: +\d", out, re.M)
