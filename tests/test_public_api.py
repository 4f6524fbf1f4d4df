"""Every name a module exports through ``__all__`` exists in it, and every
name it imports is used in it or exported."""

import ast
import importlib
import importlib.util
import pkgutil

import pytest

import clustercal

MODULES = ["clustercal"] + [f"clustercal.{m.name}" for m in pkgutil.iter_modules(clustercal.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"


def _bound_by_imports(tree) -> set:
    """The names the module's import statements bind, ``__future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used_or_exported(name):
    with open(importlib.util.find_spec(name).origin, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = _bound_by_imports(tree) - used - set(getattr(importlib.import_module(name),
                                                          "__all__", ()))
    assert not unused, f"{name} imports names it neither uses nor exports: {sorted(unused)}"
