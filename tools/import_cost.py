"""What each CLI subcommand's import costs, paired across source trees.

For every subcommand one small request runs in a fresh interpreter per
tree.  The child first imports numpy and the standard-library modules the
package uses, untimed; then it times ``from uhfkron.cli import cli_run``
plus one ``cli_run`` of the request (stdout captured), with the package
compiled from source: no bytecode is read or written for it, as in a
checkout where none is cached.  The trees alternate: in each round and
for each subcommand the tree that runs first takes turns.  Only the
standard library is used.

Run from anywhere, with numpy importable:

    python tools/import_cost.py TREE [TREE ...] [--rounds N]

Each TREE is a checkout whose ``src/`` holds the package.  The last line
of stdout is one JSON object: per subcommand the median milliseconds of
each tree, in the order given, and with two or more trees the median of
each later tree's paired difference to the first one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# one small request per subcommand, each with exit code 0
REQUESTS = {
    "eval": ["eval", "--state", "diag(0.5,0.5);diag(0.25,0.75)",
             "--expr",
             "E[2](1,1) (x) E[2](2,2) + 0.5*E[2](1,2) (x) E[2](2,1)"],
    "coproduct": ["coproduct", "--a", "2,3", "--b", "2,2",
                  "--expr", "E[4](1,2) (x) E[6](3,4)"],
    "tensor-state": ["tensor-state", "--a", "2", "--b", "2",
                     "--T", "diag(1,0)", "--R", "diag(0,1)",
                     "--expr", "E[4](2,2) - E[4](3,3)"],
    "boxtimes": ["boxtimes", "--T", "diag(1,0)", "--R", "diag(0.5,0.5)"],
    "atom-product": ["atom-product", "--n", "2", "--m", "3",
                     "--J", "1,2", "--K", "3,1"],
    "gns": ["gns", "--state", "diag(0.5,0.5)"],
    "check": ["check", "--suite", "coassociativity", "--dims", "2,2,2"],
    "distance": ["distance", "--T", "diag(1,0)", "--R", "diag(0,1)"],
}

# argv: the request; prints {"ms", "code"}.  numpy and the standard library
# are imported before the clock starts.  A bytecode cache under os.devnull
# cannot be read or written, so every module imported after that point,
# the package's, compiles from source
CHILD = """
import argparse, cmath, collections.abc, contextlib, dataclasses, functools
import io, itertools, json, math, numbers, operator, os, re, sys, time
import types, typing
import numpy
sys.pycache_prefix = os.devnull
sys.dont_write_bytecode = True
start = time.perf_counter()
from uhfkron.cli import cli_run
with contextlib.redirect_stdout(io.StringIO()):
    code = cli_run(sys.argv[1:])
ms = (time.perf_counter() - start) * 1e3
print(json.dumps({"ms": ms, "code": code}))
"""


def time_request(tree: Path, argv: list[str]) -> float:
    """Milliseconds of the package import and one ``cli_run`` of ``argv``,
    in a fresh interpreter over ``tree/src``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                          cwd=tree, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(argv)} failed:\n{proc.stderr}")
    report = json.loads(proc.stdout.splitlines()[-1])
    if report["code"] != 0:
        raise SystemExit(f"{tree}: {' '.join(argv)} exited {report['code']}")
    return report["ms"]


def measure(trees: list[Path], rounds: int) -> dict:
    """Per subcommand, each tree's times over the rounds, in tree order."""
    times = {name: [[] for _ in trees] for name in REQUESTS}
    for r in range(rounds):
        for i, (name, argv) in enumerate(REQUESTS.items()):
            shift = (r + i) % len(trees)
            for t in range(shift, shift + len(trees)):
                t %= len(trees)
                times[name][t].append(time_request(trees[t], argv))
    return times


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="+", type=Path)
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args(argv)
    trees = [tree.resolve() for tree in args.trees]
    times = measure(trees, args.rounds)
    out = {
        "rounds": args.rounds,
        "trees": [str(tree) for tree in trees],
        "median_ms": {name: [statistics.median(t) for t in per_tree]
                      for name, per_tree in times.items()},
    }
    if len(trees) > 1:
        out["median_paired_diff_ms"] = {
            name: [statistics.median(b - a for a, b in zip(per_tree[0], t))
                   for t in per_tree[1:]]
            for name, per_tree in times.items()}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
