"""What a CLI request and the package import, each read in a fresh interpreter.

A CLI request imports only the modules its subcommand uses, so ``eval``
compiles and runs no ``atoms``, ``checks``, ``gns`` or ``sweeps``, and
``coproduct`` no ``states`` either.  A request that does no array work
(``atom-product``, help, a usage error, a bad ``--tol``) loads only
``cli``, ``errors`` and ``labels``, and so no numpy: numpy comes with
``algebra``, and only with it.  ``import uhfkron`` alone loads no
module of the package and no numpy; the first read of a public name loads
every module and binds every module's ``__all__`` in the package, which
is what tools that walk the package's modules (such as perfbench's
tracer) rely on.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uhfkron
from uhfkron.cli import _SUBCOMMANDS

SRC = Path(__file__).resolve().parents[1] / "src"
# every module but errors, labels and sweeps is a layer perfbench's tracer
# reads from sys.modules
MODULES = ("algebra", "atoms", "checks", "cli", "errors", "gns", "labels",
           "parser", "states", "sweeps")

# print, as the last line of stdout, {"modules", "numpy", "result"}
REPORT = """
import json, sys
print(json.dumps({
    "modules": sorted(m.split(".", 1)[1] for m in sys.modules
                      if m.startswith("uhfkron.")),
    "numpy": "numpy" in sys.modules,
    "result": result}))
"""

RUN_CLI = """
import contextlib, io, json, sys
from uhfkron.cli import cli_run
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli_run(sys.argv[1:])
result = [code, json.loads(out.getvalue())]
"""


def _child(code: str, *argv) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", code + REPORT, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return json.loads(proc.stdout.splitlines()[-1])


GOOD_STATE = ("--T", "diag(1,0)", "--R", "diag(0,1)")
# what a request of eval, coproduct, tensor-state, boxtimes or distance
# never loads
LIGHT = {"atoms", "checks", "gns", "sweeps"}
# the modules that import numpy: a request that does no array work (help,
# a usage error, a bad --tol, atom-product) loads none of them
ARRAYS = LIGHT | {"algebra", "parser", "states"}
REQUESTS = [
    # (argv, exit code, error code or None, modules the request must not load)
    (["eval", "--state", "diag(1,0)", "--expr", "E[2](1,1)"], 0, None, LIGHT),
    (["eval", "--state", "diag(1,0)", "--expr", "E[2](1,"], 1, "parse-error",
     LIGHT),
    (["eval", "--state", "diag(1,0)"], 1, "usage", ARRAYS),
    (["--tol", "nan", "eval", "--state", "diag(1,0)", "--expr", "E[2](1,1)"],
     1, "validation", ARRAYS),
    (["nope"], 1, "usage", ARRAYS),
    (["-h"], 0, None, ARRAYS),
    (["atom-product", "-h"], 0, None, ARRAYS),
    (["coproduct", "--a", "2", "--b", "2", "--expr", "E[4](1,2)"], 0, None,
     LIGHT | {"states"}),
    (["coproduct", "--a", "2", "--b", "3", "--expr", "E[4](1,2)"], 1,
     "signature-mismatch", LIGHT | {"states"}),
    (["coproduct", "--a", "2_0", "--b", "2", "--expr", "E[4](1,2)"], 1,
     "validation", LIGHT | {"states"}),
    (["tensor-state", "--a", "2", "--b", "2", *GOOD_STATE,
      "--expr", "E[4](2,2)"], 0, None, LIGHT),
    (["tensor-state", "--a", "3", "--b", "2", *GOOD_STATE,
      "--expr", "E[4](2,2)"], 1, "signature-mismatch", LIGHT),
    (["boxtimes", *GOOD_STATE], 0, None, LIGHT),
    (["boxtimes", "--T", "diag(2,0)", "--R", "diag(0,1)"], 1, "validation",
     LIGHT),
    (["distance", *GOOD_STATE], 0, None, LIGHT),
    (["atom-product", "--n", "2", "--m", "3", "--J", "2", "--K", "1"], 0,
     None, ARRAYS),
    (["atom-product", "--n", "2", "--m", "3", "--J", "3", "--K", "1"], 1,
     "validation", ARRAYS),
    (["atom-product", "--n", "2", "--m", "3", "--J", "1,2", "--K", "1"], 1,
     "validation", ARRAYS),
    (["gns", "--state", "diag(0.5,0.5)"], 0, None, {"atoms", "checks"}),
    (["gns", "--state", "diag(0.5,0.6)"], 1, "validation",
     {"atoms", "checks"}),
    (["check", "--suite", "coassociativity", "--dims", "2,2,2"], 0, None,
     {"gns", "parser"}),
    (["check", "--suite", "atom-semigroup", "--dims", "2,2"], 0, None,
     {"gns", "parser"}),
    (["check", "--suite", "nope"], 1, "validation", {"gns", "parser"}),
]


@pytest.mark.parametrize("argv, code, error, absent", REQUESTS,
                         ids=[" ".join(request[0]) for request in REQUESTS])
def test_request_loads_only_its_subcommands_modules(argv, code, error,
                                                    absent):
    report = _child(RUN_CLI, *argv)
    got_code, payload = report["result"]
    assert got_code == code
    assert (payload.get("error") or {}).get("code") == error
    loaded = set(report["modules"])
    assert {"cli", "errors"} <= loaded
    assert not loaded & absent
    assert report["numpy"] == ("algebra" in loaded)


def test_building_the_parser_loads_no_subcommand_module():
    report = _child("from uhfkron.cli import _build_parser\n"
                    "_build_parser()\nresult = None\n")
    assert report["modules"] == ["cli", "errors"]
    assert not report["numpy"]


def test_import_alone_loads_no_module_and_no_numpy():
    report = _child("import uhfkron\nresult = hasattr(uhfkron, '__wrapped__')\n")
    assert report == {"modules": [], "numpy": False, "result": False}


@pytest.mark.parametrize("name", ["state_evaluate", "AtomLabel", "ParseError",
                                  "GNS_EIG_CUTOFF", "cli_run", "gns"])
def test_reading_one_public_name_loads_every_module(name):
    report = _child(f"import uhfkron\nresult = repr(uhfkron.{name})\n")
    assert report["modules"] == sorted(MODULES)


def test_star_import_binds_every_modules_names():
    report = _child(
        "import importlib\nfrom uhfkron import *\n"
        "ns = globals()\n"
        f"mods = [importlib.import_module('uhfkron.' + m) for m in {MODULES!r}]\n"
        "result = [f'{m.__name__}.{n}' for m in mods for n in m.__all__\n"
        "          if ns.get(n) is not getattr(m, n)]\n")
    assert report["result"] == []


def test_dir_lists_every_public_name_before_the_first_load():
    report = _child(
        "import uhfkron, importlib\nlisted = dir(uhfkron)\n"
        f"mods = [importlib.import_module('uhfkron.' + m) for m in {MODULES!r}]\n"
        "result = [n for m in mods for n in m.__all__ if n not in listed]\n")
    assert report["result"] == []


def test_unknown_name_is_the_standard_attribute_error():
    with pytest.raises(AttributeError,
                       match="^module 'uhfkron' has no attribute 'nope'$"):
        uhfkron.nope
    assert not hasattr(uhfkron, "__wrapped__")
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        from uhfkron import nope  # noqa: F401


def test_import_cost_tool_pairs_one_request_over_two_trees(capsys,
                                                          monkeypatch):
    # the tool as a module, with one subcommand's request: two interpreters
    root = SRC.parent
    spec = importlib.util.spec_from_file_location(
        "import_cost", root / "tools" / "import_cost.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert set(tool.REQUESTS) == set(_SUBCOMMANDS)
    monkeypatch.setattr(tool, "REQUESTS",
                        {"coproduct": tool.REQUESTS["coproduct"]})
    tool.main(["--rounds", "1", str(root), str(root)])
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["rounds"] == 1 and report["trees"] == [str(root)] * 2
    [ms] = report["median_ms"].values()
    assert list(report["median_ms"]) == ["coproduct"]
    assert len(ms) == 2 and min(ms) > 0
    assert list(report["median_paired_diff_ms"]) == ["coproduct"]
