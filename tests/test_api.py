"""The public surface: every ``__all__`` name exists and is re-exported.

Tools that walk ``__all__`` (``from uhfkron.x import *``, tracers that wrap
each public function) break on a stale entry, so each one is resolved.
A module-level import that the module neither uses nor exports is dead
weight, so none is allowed; the check reads the source with ``ast``.
"""

import ast
import importlib
from pathlib import Path

import pytest

import uhfkron

MODULES = ["algebra", "atoms", "checks", "cli", "gns", "parser", "states"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_are_reexported(name):
    mod = importlib.import_module(f"uhfkron.{name}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    for attr in mod.__all__:
        assert hasattr(mod, attr), f"uhfkron.{name}.{attr} is missing"
        assert getattr(uhfkron, attr, None) is getattr(mod, attr), (
            f"uhfkron does not re-export {name}.{attr}"
        )


def _unused_imports(path):
    # names bound by module-level imports that the module neither reads
    # nor lists in __all__ (``from __future__`` binds nothing)
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items()
            if name not in read and name not in exported]


@pytest.mark.parametrize("path", sorted(
    p for p in Path(uhfkron.__file__).parent.glob("*.py")
    if p.name != "__init__.py"), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path) == []
