"""Argument probe of the Python API: each call replaces one argument of a
valid baseline by one probe value and must return a result or raise
:class:`~uhfkron.errors.UhfError`.

This covers the checks layer (every suite, directly and through
``run_suite``, in each of ``dims``, ``level``, ``seed`` and ``tol``) and
``AtomLabel.entry`` / ``entries``.  A huge value runs in-process only where
a guard refuses it before anything is allocated: ``dims=10**30`` is no
sequence, ``level=10**30`` is refused by ``algebra._guard_units`` at its
first steps and ``entries(10**30)`` by the label level guard.  A huge seed
or tolerance has no such guard, so those calls run in a child process
with a 2 GB address-space cap.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from uhfkron.atoms import AtomLabel
from uhfkron.checks import SUITES, CheckReport, run_suite
from uhfkron.errors import ResourceGuardError, UhfError

SRC = Path(__file__).resolve().parents[1] / "src"

HUGE = 10**30
PROBES = [None, 2.5, "3", -1, 0, (), [2, "a"], math.nan, True, HUGE]

# a valid (dims, level) per suite, cheap at seed 0 and the default tol
BASELINES = {
    "coassociativity": ((2, 2, 2), 1),
    "compatibility": ((2, 2), 1),
    "star-isomorphism": ((2, 2), 1),
    "tensor-formula": ((2, 2), 1),
    "nonsymmetry": ((), 1),
    "atom-semigroup": ((2, 2), 1),
    "state-associativity": ((2, 2, 2), 1),
}
ARGS = ("dims", "level", "seed", "tol")


def _arguments(suite, arg, value) -> dict:
    dims, level = BASELINES[suite]
    kwargs = {"dims": dims, "level": level, "seed": 0, "tol": 1e-12}
    kwargs[arg] = value
    return kwargs


# a huge seed or tolerance is left to the capped child process
UNGUARDED = ("seed", "tol")
IN_PROCESS = [(suite, arg, value) for suite in sorted(SUITES)
              for arg in ARGS for value in PROBES
              if not (value is HUGE and arg in UNGUARDED)]


def test_baselines_cover_every_suite():
    assert set(BASELINES) == set(SUITES)
    for suite in SUITES:
        assert run_suite(suite, *BASELINES[suite]).ok


@pytest.mark.parametrize("suite, arg, value", IN_PROCESS,
                         ids=[f"{s}-{a}-{v!r}" for s, a, v in IN_PROCESS])
def test_suite_arguments_follow_the_contract(suite, arg, value):
    kwargs = _arguments(suite, arg, value)
    for call in (SUITES[suite], lambda **kw: run_suite(suite, **kw)):
        try:
            result = call(**kwargs)
        except UhfError as exc:
            if value is HUGE and arg == "level":
                assert isinstance(exc, ResourceGuardError)
        else:
            assert isinstance(result, CheckReport)


HUGE_CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from uhfkron.checks import SUITES
from uhfkron.errors import UhfError
for suite, arg, kwargs in json.loads(sys.argv[1]):
    kwargs[arg] = 10**30
    try:
        out = type(SUITES[suite](**kwargs)).__name__
    except UhfError:
        out = "UhfError"
    except BaseException as exc:
        out = repr(exc)
    print(suite, arg, out)
"""


def test_huge_seeds_and_tolerances_in_a_capped_child():
    calls = [(suite, arg, _arguments(suite, arg, 0))
             for suite in sorted(SUITES) for arg in UNGUARDED]
    proc = subprocess.run(
        [sys.executable, "-c", HUGE_CHILD, json.dumps(calls)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(calls)
    for line in lines:
        assert line.split(" ")[2] in ("CheckReport", "UhfError"), line


@pytest.mark.parametrize("value", PROBES, ids=repr)
@pytest.mark.parametrize("method", ["entry", "entries"])
def test_label_positions_follow_the_contract(method, value):
    for label in (AtomLabel(2, (1, 2), 1), AtomLabel(3, (3, 1))):
        try:
            getattr(label, method)(value)
        except UhfError as exc:
            if value is HUGE and method == "entries":
                assert isinstance(exc, ResourceGuardError)
