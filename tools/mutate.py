"""Tolerance mutants: does some test fail when a bound moves?

Each mutant scales the bound of one comparison in the package by a factor
(``diff <= tol`` becomes ``diff <= (100 * tol)``), in a temporary copy of
the repository, and runs ``python -m pytest -x -q tests`` there.  A mutant
is killed when a test fails and survives when every test passes; a
survivor is a bound that no test holds at its value.  The repository
itself is never written, and only the standard library is used: ``ast``
finds each comparison, and the bound's name is replaced in the source
text, so the rest of the file keeps its bytes.

Run from anywhere, with numpy and pytest importable:

    python tools/mutate.py          # every mutant, one after another
    python tools/mutate.py 2 5      # mutants 2 and 5 only

Each surviving mutant costs a full test run.  The exit status is 1 if any
mutant survives, else 0.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "uhfkron")

# (module, function, compared name, bound name, factor): in the function,
# the one comparison of the compared name with the bound name has its
# bound scaled by the factor; a factor below 1 tightens the bound
MUTANTS = [
    ("checks.py", "_record_values", "diff", "tol", 100),
    ("gns.py", "gns_intertwiner", "cyclic_defect", "GRAM_TOL", 1e6),
    ("states.py", "density_validate", "min_eig", "GNS_EIG_CUTOFF", 1e4),
    ("states.py", "_frame", "values", "GNS_EIG_CUTOFF", 1000),
    ("cli.py", "_cmd_gns", "err", "tol", 100),
    ("states.py", "density_validate", "trace_defect", "DENSITY_VALIDATE_TOL",
     1e4),
    ("states.py", "density_validate", "herm_defect", "GNS_EIG_CUTOFF", 100),
    ("errors.py", "_guard", "value", "cap", 1.5),
    ("algebra.py", "_kept", "_moduli", "COEFF_PRUNE_TOL", 2),
    ("gns.py", "gns_intertwiner", "cyclic_defect", "GRAM_TOL", 0.25),
    ("algebra.py", "_guard_units", "count", "cap", 1.5),
]

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", "BENCH_*.json")


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def site(source: str, function: str, compared: str, bound: str) -> ast.Name:
    """The bound's Name node in the one comparison of ``function`` that
    reads ``compared`` on its left and ``bound`` on its right."""
    found = [
        name
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, ast.FunctionDef) and fn.name == function
        for cmp in ast.walk(fn)
        if isinstance(cmp, ast.Compare) and compared in _names(cmp.left)
        for right in cmp.comparators
        for name in ast.walk(right)
        if isinstance(name, ast.Name) and name.id == bound
    ]
    if len(found) != 1:
        raise SystemExit(f"{function}: {len(found)} comparisons of "
                         f"{compared} with {bound}, need exactly one")
    return found[0]


def mutate(source: str, function: str, compared: str, bound: str,
           factor: float) -> str:
    """``source`` with the bound of that comparison scaled by ``factor``."""
    name = site(source, function, compared, bound)
    lines = source.splitlines(keepends=True)
    line = lines[name.lineno - 1]
    lines[name.lineno - 1] = (line[:name.col_offset]
                              + f"({factor!r} * {bound})"
                              + line[name.end_col_offset:])
    return "".join(lines)


def run(mutant, copy: Path) -> tuple[bool, str, float]:
    """Apply one mutant to a fresh copy and run the tests there: (killed,
    the first failing test or '', seconds)."""
    module, function, compared, bound, factor = mutant
    if copy.exists():
        shutil.rmtree(copy)
    shutil.copytree(ROOT, copy, ignore=IGNORED)
    path = copy / PACKAGE / module
    path.write_text(mutate(path.read_text(), function, compared, bound,
                           factor))
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "tests"], cwd=copy, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    failed = [line.split()[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode != 0, (failed or [""])[0], seconds


def main(argv: list[str]) -> int:
    chosen = [int(a) for a in argv] or range(1, len(MUTANTS) + 1)
    # every site must be found before any run starts
    for k in chosen:
        module, function, compared, bound, _ = MUTANTS[k - 1]
        site((ROOT / PACKAGE / module).read_text(), function, compared,
             bound)
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="uhfkron-mutant-") as tmp:
        for k in chosen:
            module, function, compared, bound, factor = MUTANTS[k - 1]
            killed, test, seconds = run(MUTANTS[k - 1], Path(tmp, "tree"))
            survivors += not killed
            verdict = f"killed by {test}" if killed else "SURVIVED"
            print(f"{k}. {module}:{function} {compared} vs "
                  f"{factor!r} * {bound}: {verdict} ({seconds:.0f} s)",
                  flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
