"""The public surface: every ``__all__`` name exists and is re-exported.

Tools that walk ``__all__`` (``from uhfkron.x import *``, tracers that wrap
each public function) break on a stale entry, so each one is resolved.
"""

import importlib

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
