"""Argument probe of the Python API: each call replaces one argument of a
valid baseline by one probe value and must return a result or raise
:class:`~uhfkron.errors.UhfError`.

This covers the checks layer (every suite, directly and through
``run_suite``, in each of ``dims``, ``level``, ``seed`` and ``tol``),
``AtomLabel.entry`` / ``entries`` and the scalar arguments of the other
modules' constructors and maps (``API``).  A huge value runs in-process
only where a reader or guard refuses it before anything is allocated:
``dims=10**30`` is no sequence, ``level=10**30`` is refused by
``algebra._guard_units`` at its first steps, ``entries(10**30)`` by the
label level guard, a factor dimension by ``Signature``'s 2**62 bound, a
density dimension or term count by ``algebra._guard``.  A huge seed,
tolerance or label base has no such guard, so those calls run in a child
process with a 2 GB address-space cap; so do the factor dimensions
``BIG_DIM``, which ``Signature`` accepts but no dense array could hold.
``gns_build`` takes no scalar argument: its baseline only has to return.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from uhfkron.algebra import Signature, identity, matrix_unit
from uhfkron.atoms import AtomLabel, atom_check_product, atom_state
from uhfkron.checks import SUITES, CheckReport, run_suite
from uhfkron.errors import ResourceGuardError, UhfError
from uhfkron.gns import gns_build
from uhfkron.states import DensityFactor, ProductStateTrunc
from uhfkron.sweeps import (
    all_matrix_units,
    coproduct_phi_block,
    embed_psi,
    insert_identity_slot,
    product_phi_inverse,
    random_density,
    random_element,
    random_state,
)

SRC = Path(__file__).resolve().parents[1] / "src"

HUGE = 10**30
# a factor dimension below Signature's 2**62 bound, with 8 TiB of indices
BIG_DIM = 2**40
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


def _element():
    return matrix_unit((2, 3), (1, 2), (2, 1))


def _mixed():
    return DensityFactor.maximally_mixed(2)


# A valid call per public callable, each scalar argument a keyword with a
# valid default; a probe replaces one of them
API = {
    "Signature": lambda dim=3: Signature((2, dim)),
    "matrix_unit": lambda sig=3, rows=1, cols=2: matrix_unit(sig, rows, cols),
    "insert_identity_slot": lambda position=1, dim=3: insert_identity_slot(
        _element(), position, dim),
    "embed_psi": lambda next_dim=2: embed_psi(_element(), next_dim),
    "all_matrix_units": lambda dim=3: next(all_matrix_units((2, dim))),
    "coproduct_phi_block": lambda start=1, count=1: coproduct_phi_block(
        matrix_unit((2, 6), (2, 5), (1, 2)), start, count, (2,), (3,)),
    "product_phi_inverse": lambda level=1: product_phi_inverse(_element(),
                                                               level),
    "identity": lambda sig=(2, 3): identity(sig),
    "random_element": lambda sig=(2, 3), rng=0, n_terms=4: random_element(
        sig, rng, n_terms),
    "random_density": lambda dim=2, seed=0: random_density(dim, seed),
    "random_state": lambda dims=(2, 3), seed=0: random_state(dims, seed),
    "DensityFactor.maximally_mixed": lambda dim=2: (
        DensityFactor.maximally_mixed(dim)),
    "AtomLabel": lambda base=3, entry=2, tail=1: AtomLabel(base, (1, entry),
                                                           tail),
    "atom_state": lambda level=2: atom_state(AtomLabel(2, (1,), 2), level),
    "atom_check_product": lambda level=1: atom_check_product(
        AtomLabel(2, (1, 2)), AtomLabel(3, (3, 1)), level),
    "gns_build": lambda: gns_build(ProductStateTrunc([_mixed()])),
}
# the arguments whose huge value no reader or guard refuses at once
API_UNGUARDED = {("random_element", "rng"), ("random_density", "seed"),
                 ("random_state", "seed"), ("AtomLabel", "base")}
# the dimension arguments given BIG_DIM in the child
API_BIG_DIM = {("insert_identity_slot", "dim"), ("embed_psi", "next_dim"),
               ("all_matrix_units", "dim")}
API_ARGS = [(name, arg) for name, call in API.items()
            for arg in call.__code__.co_varnames[:call.__code__.co_argcount]]
API_IN_PROCESS = [(name, arg, value) for name, arg in API_ARGS
                  for value in PROBES
                  if not (value is HUGE and (name, arg) in API_UNGUARDED)]


@pytest.mark.parametrize("name", sorted(API))
def test_api_baselines_return(name):
    API[name]()


@pytest.mark.parametrize("name, arg, value", API_IN_PROCESS,
                         ids=[f"{n}-{a}-{v!r}" for n, a, v in API_IN_PROCESS])
def test_api_arguments_follow_the_contract(name, arg, value):
    try:
        API[name](**{arg: value})
    except UhfError:
        pass


API_HUGE_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
sys.path.insert(0, sys.argv[1])
import test_api_fuzz as probes
from uhfkron.errors import UhfError
for name, arg, value in zip(*[iter(sys.argv[2:])] * 3):
    try:
        probes.API[name](**{arg: getattr(probes, value)})
        out = "returned"
    except UhfError:
        out = "UhfError"
    except BaseException as exc:
        out = repr(exc)
    print(name, arg, value, out)
"""


def test_api_huge_unguarded_arguments_in_a_capped_child():
    calls = ([(*call, "HUGE") for call in sorted(API_UNGUARDED)]
             + [(*call, "BIG_DIM") for call in sorted(API_BIG_DIM)])
    proc = subprocess.run(
        [sys.executable, "-c", API_HUGE_CHILD, str(Path(__file__).parent),
         *(part for call in calls for part in call)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(calls)
    for line in lines:
        assert line.split(" ")[3] in ("returned", "UhfError"), line
