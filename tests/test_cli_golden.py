"""CLI stdout pinned byte for byte: sha256 of stdout and the exit code.

The requests are the benchmark's cli-session requests
(``perfbench/workloads.cli_requests(seed, "full")``) for seeds 401 and
402, which cover all eight subcommands and six error paths, plus ``check``
for every suite at levels 1 and 2 (two of them at ``--tol 0``, so the
failure lists and their printed differences are pinned too).  The argv
lists are regenerated here; their sha256 is stored as well, so a change of
the request generator shows as such and not as a change of the CLI.

``tests/data/cli_golden.json`` was recorded by running :func:`cases`
through :func:`run` and storing ``{"argv_sha256", "code", "stdout_sha256"}``
per case id.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import sys

import pytest

from uhfkron.cli import cli_run

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
GOLDEN = os.path.join(HERE, "data", "cli_golden.json")

SEEDS = (401, 402)
CHECKS = (
    ("coassociativity", "2,2,2"),
    ("compatibility", "2,3"),
    ("star-isomorphism", "2,3"),
    ("tensor-formula", "2,3"),
    ("nonsymmetry", ""),
    ("atom-semigroup", "2,2"),
    ("state-associativity", "2,2,2"),
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def cases() -> dict:
    """Case id -> argv, in a fixed order."""
    if PERFBENCH not in sys.path:
        sys.path.insert(0, PERFBENCH)
    import workloads

    out = {}
    for seed in SEEDS:
        for i, req in enumerate(workloads.cli_requests(seed, "full")):
            out[f"cli/{seed}/{i:02d}/{req.label}"] = list(req.argv)
    for suite, dims in CHECKS:
        for level in (1, 2):
            argv = ["check", "--suite", suite, "--level", str(level)]
            if dims:
                argv += ["--dims", dims]
            out[f"check/{suite}/L{level}"] = argv
    out["check/tensor-formula/L2/tol0"] = [
        "--tol", "0", "check", "--suite", "tensor-formula", "--dims", "2,3",
        "--level", "2"]
    out["check/state-associativity/L1/tol0/seed5"] = [
        "--tol", "0", "check", "--suite", "state-associativity", "--dims",
        "2,3,2", "--level", "1", "--seed", "5"]
    # requests that load no numpy: help, usage errors, the tolerance check
    # and an atom-product label error
    out["light/help"] = ["-h"]
    out["light/atom-product/help"] = ["atom-product", "-h"]
    out["light/usage/nope"] = ["nope"]
    out["light/tol-nan/eval"] = [
        "--tol", "nan", "eval", "--state", "diag(1,0)", "--expr", "E[2](1,1)"]
    out["light/atom-product/length-error"] = [
        "atom-product", "--n", "2", "--m", "3", "--J", "1,2", "--K", "1"]
    return out


def run(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_run(argv)
    return {"argv_sha256": _sha256(json.dumps(argv)), "code": code,
            "stdout_sha256": _sha256(buf.getvalue())}


with open(GOLDEN, encoding="utf-8") as fh:
    RECORDED = json.load(fh)


def test_golden_covers_every_case():
    assert sorted(RECORDED) == sorted(cases())


@pytest.mark.parametrize("case", sorted(RECORDED))
def test_cli_stdout_matches_golden(case):
    assert run(cases()[case]) == RECORDED[case]
