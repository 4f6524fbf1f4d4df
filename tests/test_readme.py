"""The README's quick start runs as written, and its config table names
every config key."""

import re
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

from clustercal.harness import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_quick_start"})
    out = capsys.readouterr().out
    assert re.search(r"^CECE: \d", out, re.M) and re.search(r"^ECE: +\d", out, re.M)


def config_keys(cls, prefix=""):
    """The dotted keys ``ExperimentConfig.from_dict`` accepts: the fields of
    its section dataclasses, a section without fields counting as one key."""
    keys, hints = [], get_type_hints(cls)
    for f in fields(cls):
        if not f.init:
            continue
        if is_dataclass(hints[f.name]) and fields(hints[f.name]):
            keys += config_keys(hints[f.name], f"{prefix}{f.name}.")
        else:
            keys.append(prefix + f.name)
    return keys


def readme_keys():
    """The first column of the README's config table; a row such as
    `` `a.b.c`, `.d` `` names ``a.b.c`` and ``a.b.d``."""
    text = README.read_text(encoding="utf-8")
    table = text.split("| key | type | default | allowed |\n|---|---|---|---|\n")[1]
    keys = []
    for line in table.split("\n\n")[0].splitlines():
        for name in re.findall(r"`([^`]+)`", line.split("|")[1]):
            keys.append(keys[-1].rsplit(".", 1)[0] + name if name.startswith(".") else name)
    return keys


def test_config_table_names_every_key_the_parser_accepts():
    keys = config_keys(ExperimentConfig)
    assert len(keys) == len(set(keys))
    assert sorted(readme_keys()) == sorted(keys)
