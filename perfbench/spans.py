"""Span tracer that wraps uhfkron's public functions from outside the package.

:meth:`Tracer.install` replaces every public function of the layer modules
with a wrapper that records a span (name, start, end, parent id) and, for a
few functions, work counters.  A name is rebound everywhere it is bound:
``from .algebra import coproduct_phi`` copies the function into ``states``,
``checks``, ``gns`` and ``atoms``, so every ``uhfkron`` module namespace and
the ``SUITES`` table are patched, not only the defining module.  The calls
numpy.linalg receives from ``gns`` go through a numpy proxy bound as
``uhfkron.gns.np``.  :meth:`Tracer.uninstall` restores every original.

Spans live in flat integer arrays.  Whenever no span is open and the buffer
is large, self times (duration minus the duration of direct children) are
folded into per-name totals and the buffer is emptied, so memory stays
bounded on suites that make millions of calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

LAYERS = ("algebra", "states", "atoms", "gns", "parser", "checks", "cli")
_FOLD_AT = 1 << 18
_LINALG_CALLS = ("eigh", "eigvalsh", "eig", "svd", "pinv", "norm", "solve",
                 "lstsq", "qr", "matrix_rank")


def _terms_in(arg_pos, metric):
    def count(counters, args, kwargs, result):
        counters[metric] += len(args[arg_pos])
    return count


def _terms_out(metric):
    def count(counters, args, kwargs, result):
        counters[metric] += len(result)
    return count


def _mul_counts(counters, args, kwargs, result):
    counters["algebra.mul.terms_in"] += len(args[0]) + len(args[1])
    counters["algebra.mul.terms_out"] += len(result)


def _suite_units(suite):
    def count(counters, args, kwargs, result):
        counters[f"checks.{suite}.units"] += result.passed + result.failed
    return count


def _commutant_bytes(counters, args, kwargs, result):
    G = args[0]
    n_units = G.sig.total_dim ** 2
    counters["gns.commutant.bytes_computed"] += n_units * G.space_dim ** 4 * 16


def _intertwiner_bytes(counters, args, kwargs, result):
    # the two spanning families (D x n_units each) and the D x D unitary
    S, R = args[0], args[1]
    level = args[2] if len(args) > 2 else kwargs.get("level")
    fused = 1
    for a, b in list(zip(S.sig.dims, R.sig.dims))[:level]:
        fused *= a * b
    D = result.shape[0]
    counters["gns.intertwiner.bytes_computed"] += (2 * D * fused ** 2 + D * D) * 16


def _space_dim_max(counters, args, kwargs, result):
    counters["gns.space_dim_max"] = max(counters["gns.space_dim_max"],
                                        result.space_dim)


_COUNTERS = {
    "algebra.coproduct_phi": _terms_in(0, "algebra.coproduct_phi.terms_in"),
    "states.state_evaluate": _terms_in(1, "states.state_evaluate.terms_in"),
    "parser.parse_element": _terms_out("parser.parse_element.terms_out"),
    "gns.commutant_dimension": _commutant_bytes,
    "gns.gns_intertwiner": _intertwiner_bytes,
    "gns.gns_build": _space_dim_max,
}


class Tracer:
    """Records spans and counters while installed and :attr:`active`."""

    def __init__(self):
        self.active = True
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.spans = 0
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._base = 0
        self._reset_buffer()
        self._patches: list[tuple[object, str, object]] = []

    def _reset_buffer(self):
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._name = array("q")

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, count=None):
        """``fn`` recording one span named ``name`` per call while active."""
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = tracer._base + len(tracer._start)
            tracer._start.append(0)
            tracer._end.append(0)
            tracer._parent.append(stack[-1] if stack else -1)
            tracer._name.append(nid)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                i = sid - tracer._base
                tracer._start[i] = t0
                tracer._end[i] = t1
                stack.pop()
            if count is not None:
                count(tracer.counters, args, kwargs, result)
            if not stack and len(tracer._start) >= _FOLD_AT:
                tracer.fold()
            return result

        return traced

    def call(self, name: str, fn):
        """Run ``fn()`` inside a root span, the parent of its layer spans."""
        return self.wrap(fn, name)()

    def _counting(self, fn, metric: str):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                tracer.counters[metric] += 1
            return fn(*args, **kwargs)

        return counted

    def fold(self):
        """Fold the buffered spans into per-name calls and self times."""
        n = len(self._start)
        if not n:
            return
        start = np.frombuffer(self._start, dtype=np.int64)
        dur = (np.frombuffer(self._end, dtype=np.int64) - start).astype(float)
        parent = np.frombuffer(self._parent, dtype=np.int64) - self._base
        names = np.frombuffer(self._name, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        own = dur - child
        size = len(self._names)
        for nid, (calls, ns) in enumerate(zip(
                np.bincount(names, minlength=size),
                np.bincount(names, weights=own, minlength=size))):
            if calls:
                self.calls[self._names[nid]] += int(calls)
                self.self_ns[self._names[nid]] += float(ns)
        self.spans += n
        self._base += n
        self._reset_buffer()

    # -- patching -----------------------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def install(self):
        mods = {name: sys.modules[f"uhfkron.{name}"] for name in LAYERS}
        checks = mods["checks"]
        suite_of = {fn: key for key, fn in checks.SUITES.items()}
        wrapped = {}
        for short, mod in mods.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if inspect.isgeneratorfunction(fn):
                    wrapped[fn] = self._counting(fn, f"{short}.{attr}.calls")
                elif fn in suite_of:
                    suite = suite_of[fn]
                    wrapped[fn] = self.wrap(fn, f"checks.{suite}",
                                            _suite_units(suite))
                else:
                    name = f"{short}.{attr}"
                    wrapped[fn] = self.wrap(fn, name, _COUNTERS.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname != "uhfkron" and not modname.startswith("uhfkron."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(mod, attr, wrapped[value])
        for key, fn in list(checks.SUITES.items()):
            self._set(checks.SUITES, key, wrapped[fn])

        algebra, states, gns = mods["algebra"], mods["states"], mods["gns"]
        Elem = algebra.AlgebraElement
        mul = Elem.__mul__
        traced_mul = self.wrap(mul, "algebra.mul", _mul_counts)

        def elem_mul(a, b):
            # scalar scaling shares __mul__; only the algebra product is traced
            if isinstance(b, Elem):
                return traced_mul(a, b)
            return mul(a, b)

        self._set(Elem, "__mul__", elem_mul)
        self._set(Elem, "__eq__", self.wrap(Elem.__eq__, "algebra.eq"))
        self._set(gns.GnsTriplet, "expectation",
                  self.wrap(gns.GnsTriplet.expectation, "gns.expectation"))
        for cls, hook, metric in (
            (algebra.Signature, "__post_init__", "algebra.Signature.constructed"),
            (Elem, "__init__", "algebra.AlgebraElement.constructed"),
            (states.ProductStateTrunc, "__init__",
             "states.ProductStateTrunc.constructed"),
        ):
            self._set(cls, hook, self._counting(vars(cls)[hook], metric))

        real = gns.np
        linalg = types.ModuleType(real.linalg.__name__)
        linalg.__dict__.update(real.linalg.__dict__)
        for attr in _LINALG_CALLS:
            setattr(linalg, attr, self.wrap(getattr(real.linalg, attr),
                                            "gns.linalg"))
        proxy = types.ModuleType(real.__name__)
        proxy.__dict__.update(real.__dict__)
        proxy.linalg = linalg
        self._set(gns, "np", proxy)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()
        self.fold()
