"""Finite tensor stages of UHF algebras.

Sparse matrix-unit algebra on stages M_{a_1} (x) ... (x) M_{a_n}, the
Kronecker coproduct that recodes a fused stage as a tensor product of two
stages, product states and their non-symmetric tensor product, GNS
representation data with the intertwining unitary, and the semigroup of
atom labels.  The command-line entry point is ``uhfkron``.

Importing the package loads none of its modules, and so not numpy.  The
first read of a public name (``uhfkron.X``, ``from uhfkron import X``,
``from uhfkron import *`` or ``dir(uhfkron)``) imports every module below
and binds the names in each module's ``__all__`` here (PEP 562).  A
module imported directly, such as ``uhfkron.cli`` by a CLI request, loads
only what it imports itself; ``sweeps``, the unit sweeps, dense oracle,
suite-only stage maps and samples, is loaded by ``checks``, ``atoms`` and
``gns`` alone.  ``errors`` (the exception types and the argument checks)
and ``labels`` (the atom-label arithmetic) import no numpy, so neither
does a request that loads only them and ``cli``.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("errors", "labels", "algebra", "states", "sweeps", "parser",
            "atoms", "checks", "gns", "cli")


def _load() -> None:
    # import every module once and bind its public names; __all__ is bound
    # last, so it marks a finished load.  A name that a module re-exports
    # (atoms' labels) is listed once
    if "__all__" in globals():
        return
    names = {}
    for module in _MODULES:
        mod = importlib.import_module(f"{__name__}.{module}")
        globals().update((name, getattr(mod, name)) for name in mod.__all__)
        names.update(dict.fromkeys(mod.__all__))
    globals()["__all__"] = list(names)


def __getattr__(name):
    # a dunder probe (other than __all__) loads nothing
    if name == "__all__" or not name.startswith("__"):
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    _load()
    return sorted(globals())
