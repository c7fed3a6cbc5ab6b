"""The public surface: every ``__all__`` name exists and is re-exported.

Tools that walk ``__all__`` (``from uhfkron.x import *``, tracers that wrap
each public function) break on a stale entry, so each one is resolved.
A module-level import that the module neither uses nor exports is dead
weight, and so is a module-level private function, class or constant that
no module of the package reads, or a ``__slots__`` attribute that no code
of the project reads; none is allowed.  Nor is a parameter whose default
is ``True`` or ``False``: a switch that turns a check or a path off, nor a
read of the environment or a small float literal inside a function (a
hidden tolerance): settings that no call shows.  These checks read the
source with ``ast``.
"""

import ast
import importlib
from pathlib import Path

import pytest

import uhfkron

MODULES = ["algebra", "atoms", "checks", "cli", "errors", "gns", "labels",
           "parser", "states", "sweeps"]


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
    Path(uhfkron.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path) == []


SOURCES = sorted(Path(uhfkron.__file__).parent.glob("*.py"))


def _private_definitions(tree):
    # module-level private names bound by def, class or assignment
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno


def test_no_unused_private_names():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in SOURCES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unused = [f"{name}:{line} {ident}"
              for name, tree in trees.items()
              for ident, line in _private_definitions(tree)
              if ident.startswith("_") and not ident.startswith("__")
              and ident not in read]
    assert unused == []


ROOT = Path(__file__).resolve().parents[1]


def _attribute_reads(tree):
    # attribute names read: loaded, or by getattr(x, "name")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value


def test_no_unread_slots():
    # a slot that is written but never read anywhere in the project is
    # state nothing uses
    read = set()
    for folder in ("src", "tests", "demos", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            read.update(_attribute_reads(ast.parse(path.read_text())))
    unread = []
    for path in SOURCES:
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in node.targets):
                    unread += [f"{path.name}:{node.lineno} {cls.name}.{name}"
                               for name in ast.literal_eval(node.value)
                               if name not in read]
    assert unread == []


def test_no_boolean_switches():
    # a parameter defaulting to True or False lets a caller switch part of
    # a function off, and every caller after it has to guard against that
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaults = list(zip(positional[len(positional)
                                           - len(args.defaults):],
                                args.defaults))
            defaults += [(a, d) for a, d in zip(args.kwonlyargs,
                                                args.kw_defaults) if d]
            found += [f"{path.name}:{arg.lineno} {arg.arg}"
                      for arg, default in defaults
                      if isinstance(default, ast.Constant)
                      and isinstance(default.value, bool)]
    assert found == []


def test_no_tolerance_literal_inside_a_function():
    # a tolerance is a module constant or the caller's ``tol``: a small
    # float written into a function body is a second tolerance that no
    # call shows (such as a floor ``max(tol, 1e-10)``)
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            found += [f"{path.name}:{const.lineno} {const.value!r}"
                      for stmt in node.body for const in ast.walk(stmt)
                      if isinstance(const, ast.Constant)
                      and type(const.value) is float
                      and 0 < abs(const.value) < 1e-3]
    assert found == []


# The message shapes of a bound check, and the readers in errors.py, the
# only functions that may build them (``_guard_units`` says "would check more
# than", which is none of them)
BOUND_SHAPES = (" is < ", " outside ", "exceeds guard", "is not a finite number")
READERS = ("_integer", "_guard", "_finite")


def test_bound_messages_are_built_only_by_the_readers():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        readers = set()
        if path.name == "errors.py":
            readers = {id(node) for top in tree.body
                       if isinstance(top, ast.FunctionDef)
                       and top.name in READERS for node in ast.walk(top)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.JoinedStr) or id(node) in readers:
                continue
            text = "".join(part.value for part in node.values
                           if isinstance(part, ast.Constant))
            found += [f"{path.name}:{node.lineno} {shape!r}"
                      for shape in BOUND_SHAPES if shape in text]
    assert found == []



# os names that read the environment
ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    # every value a call uses is one of its arguments or a module constant
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ENVIRONMENT_READS
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"):
                found.append(f"{path.name}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno} os.{alias.name}"
                          for alias in node.names
                          if alias.name in ENVIRONMENT_READS]
    assert found == []
