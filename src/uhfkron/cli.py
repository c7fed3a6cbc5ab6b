"""Command-line interface: one JSON object per invocation on stdout.

Subcommands
-----------
eval          evaluate a product state on an element expression
coproduct     split an element and print its term list over the two blocks
tensor-state  evaluate the non-symmetric tensor product of two states
boxtimes      factorwise Kronecker product of two states' density data
atom-product  product of two atom labels
gns           GNS space data, expectation checks, commutant dimension
check         run a named property suite, report pass/fail counts
distance      trace-norm distance of two states at their common level

Complex values are printed as {"re": float, "im": float} at full double
precision; term lists are sorted lexicographically by index, so identical
invocations produce byte-identical output.  Failures exit nonzero with
{"error": {"code": ..., "message": ...}} on stdout, the code named by the
error's class ("usage" for a malformed command line).  ``-h``/``--help``
prints {"help": text} with the help text of the parser it was given to
and exits 0.  A result holding NaN or infinity is reported as a
"validation" error.  The flag --tol is the only comparison tolerance of
``check`` and ``gns`` (default 1e-12); it must be a finite number >= 0.
``gns`` fails every unit whose expectation deviates from the state's
value by a modulus above it.  No environment variable is read.

A request imports only the modules its subcommand uses.  At module level
this module imports only ``errors`` of the package, which brings no
numpy; each ``_cmd_*`` handler imports what it runs (``algebra``,
``parser``, ``states``, ``labels``, ``checks``, ``gns``, ``sweeps``, numpy)
when it is called, and ``parser`` imports ``states`` only to read a
state.  So ``eval``, ``tensor-state``, ``boxtimes`` and ``distance``
never load ``atoms``, ``checks``, ``gns`` or ``sweeps``, and
``coproduct`` not ``states`` either.  ``atom-product`` loads ``labels``
alone, and it, ``-h``, a usage error and a bad ``--tol`` load no numpy:
building the argument parser loads nothing.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import (
    COMPARE_TOL,
    SignatureError,
    UhfError,
    ValidationError,
    _finite,
)

__all__ = ["cli_run", "main"]


class _UsageError(UhfError):
    """The command line does not match the subcommand's arguments."""
    code = "usage"


class _HelpRequest(Exception):
    """``-h``/``--help`` was given; ``args[0]`` is the help text."""


class _ArgumentParser(argparse.ArgumentParser):
    # report usage errors as the JSON error object, not on stderr with exit
    # 2, and help as {"help": text}, not as plain text with exit 0; the help
    # text is wrapped at a fixed width, not at the terminal's, so that
    # identical invocations print identical bytes
    def error(self, message):
        raise _UsageError(message)

    def print_help(self, file=None):
        raise _HelpRequest(self.format_help())

    def _get_formatter(self):
        return self.formatter_class(prog=self.prog, width=80)


def _complex_json(value: complex) -> dict:
    return {"re": float(value.real), "im": float(value.imag)}


def _matrix_json(m) -> list:
    return [[_complex_json(v) for v in row] for row in m]


def _int(text: str) -> int:
    # an ASCII decimal integer, with an optional sign and surrounding
    # whitespace; int() alone would also read "2_0" as 20 and other
    # scripts' digits
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text):
        raise ValueError(f"not an ASCII decimal integer: {text!r}")
    return int(text)


# argparse names a flag's type in its error: "invalid int value: 'x'"
_int.__name__ = "int"


def _dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(_int(p) for p in text.split(","))
    except ValueError:
        raise ValidationError(f"expected comma-separated integers, got {text!r}")


def _terms_json(x) -> list:
    return [
        {
            "rows": list(idx.rows),
            "cols": list(idx.cols),
            "value": _complex_json(coeff),
        }
        for idx, coeff in x.sorted_terms()
    ]


def _check_state_sig(state, dims, flag: str):
    from .algebra import as_signature

    sig = as_signature(dims)
    if state.sig != sig:
        raise SignatureError(
            f"state signature {state.sig.dims} does not match {flag} "
            f"dims {sig.dims}"
        )


def _cmd_eval(args, tol: float) -> tuple[dict, int]:
    from .parser import parse_element, parse_state
    from .states import state_evaluate

    S = parse_state(args.state)
    x = parse_element(args.expr)
    return {"value": _complex_json(state_evaluate(S, x))}, 0


def _cmd_coproduct(args, tol: float) -> tuple[dict, int]:
    from .algebra import coproduct_phi
    from .parser import parse_element

    a, b = _dims(args.a), _dims(args.b)
    x = parse_element(args.expr)
    y = coproduct_phi(x, a, b)
    return {"sig": list(y.sig.dims), "terms": _terms_json(y)}, 0


def _cmd_tensor_state(args, tol: float) -> tuple[dict, int]:
    from .parser import parse_element, parse_state
    from .states import state_tensor_phi_eval

    S = parse_state(args.T)
    R = parse_state(args.R)
    _check_state_sig(S, _dims(args.a), "--a")
    _check_state_sig(R, _dims(args.b), "--b")
    x = parse_element(args.expr)
    return {"value": _complex_json(state_tensor_phi_eval(S, R, x))}, 0


def _cmd_boxtimes(args, tol: float) -> tuple[dict, int]:
    from .parser import parse_state
    from .states import state_boxtimes

    S = parse_state(args.T)
    R = parse_state(args.R)
    out = state_boxtimes(S, R)
    return {
        "sig": list(out.sig.dims),
        "factors": [_matrix_json(f.matrix) for f in out.factors],
    }, 0


def _cmd_atom_product(args, tol: float) -> tuple[dict, int]:
    from .labels import AtomLabel, atom_label_product

    J = AtomLabel(args.n, _dims(args.J))
    K = AtomLabel(args.m, _dims(args.K))
    out = atom_label_product(J, K)
    return {"base": out.base, "label": list(out.prefix)}, 0


def _cmd_gns(args, tol: float) -> tuple[dict, int]:
    import numpy as np

    from .algebra import _moduli
    from .gns import commutant_dimension, gns_build
    from .parser import parse_state
    from .states import _slot_products
    from .sweeps import _tagged_units

    S = parse_state(args.state)
    G = gns_build(S)
    table = S._entry_table()
    passed = failed = 0
    max_err = 0.0
    # every unit's two values, one chunk of units at a time; a chunk is its
    # own unit list, so its values need no tag read
    for x in _tagged_units(S.sig):
        err = _moduli(G.expectations(x) - _slot_products(table, x.rows, x.cols))
        ok = int(np.count_nonzero(err <= tol))
        passed += ok
        failed += len(err) - ok
        max_err = max(max_err, float(err.max()))
    payload = {
        "space_dim": G.space_dim,
        "cyclic_norm": float(np.linalg.norm(G.cyclic)),
        "expectation": {"passed": passed, "failed": failed,
                        "max_error": max_err},
        "commutant_dim": commutant_dimension(G),
    }
    return payload, 0 if failed == 0 else 1


def _cmd_check(args, tol: float) -> tuple[dict, int]:
    from .checks import run_suite

    dims = _dims(args.dims) if args.dims else ()
    report = run_suite(args.suite, dims, args.level, seed=args.seed, tol=tol)
    payload = {"passed": report.passed, "failed": report.failed}
    if report.failures:
        payload["failures"] = report.failures
    return payload, 0 if report.ok else 1


def _cmd_distance(args, tol: float) -> tuple[dict, int]:
    from .parser import parse_state
    from .states import state_trace_distance

    S = parse_state(args.T)
    R = parse_state(args.R)
    return {"distance": state_trace_distance(S, R)}, 0


# subcommand -> (help, handler, its flags as (name, add_argument options))
_SUBCOMMANDS = {
    "eval": ("evaluate a state on an element", _cmd_eval, (
        ("--state", {"required": True, "help": "state spec"}),
        ("--expr", {"required": True, "help": "element expression"}))),
    "coproduct": ("split an element into two blocks", _cmd_coproduct, (
        ("--a", {"required": True, "help": "first-block dims, e.g. 2,3"}),
        ("--b", {"required": True, "help": "second-block dims"}),
        ("--expr", {"required": True}))),
    "tensor-state": ("evaluate S tensor-phi R on an element",
                     _cmd_tensor_state, (
        ("--a", {"required": True, "help": "dims of the first state"}),
        ("--b", {"required": True, "help": "dims of the second state"}),
        ("--T", {"required": True, "help": "first state spec"}),
        ("--R", {"required": True, "help": "second state spec"}),
        ("--expr", {"required": True}))),
    "boxtimes": ("factorwise Kronecker state product", _cmd_boxtimes, (
        ("--T", {"required": True}),
        ("--R", {"required": True}))),
    "atom-product": ("product of two atom labels", _cmd_atom_product, (
        ("--n", {"type": _int, "required": True, "help": "base of J"}),
        ("--m", {"type": _int, "required": True, "help": "base of K"}),
        ("--J", {"required": True, "help": "comma-separated label"}),
        ("--K", {"required": True, "help": "comma-separated label"}))),
    "gns": ("GNS data of a product state", _cmd_gns, (
        ("--state", {"required": True}),)),
    "check": ("run a named property suite", _cmd_check, (
        ("--suite", {"required": True}),
        ("--dims", {"default": "", "help": "suite dims, e.g. 2,3,2"}),
        ("--level", {"type": _int, "default": 1}),
        ("--seed", {"type": _int, "default": 0}))),
    "distance": ("trace distance of two states", _cmd_distance, (
        ("--T", {"required": True}),
        ("--R", {"required": True}))),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="uhfkron",
        description="Matrix-unit tensor stages: coproducts, product states, "
                    "GNS data.",
    )
    parser.add_argument(
        "--tol", type=float, default=COMPARE_TOL,
        help="comparison tolerance (default 1e-12)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, func, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        for flag, options in flags:
            p.add_argument(flag, **options)
    return parser


def cli_run(argv=None) -> int:
    """Run one invocation; print a single JSON object; return the exit code."""
    try:
        args = _build_parser().parse_args(argv)
        payload, code = args.func(args, _finite(args.tol, "--tol"))
    except _HelpRequest as exc:
        payload, code = {"help": exc.args[0]}, 0
    except UhfError as exc:
        payload = {"error": {"code": exc.code, "message": str(exc)}}
        code = 1
    except OSError as exc:
        payload = {"error": {"code": "io-error", "message": str(exc)}}
        code = 1
    try:
        out = json.dumps(payload, separators=(",", ":"), allow_nan=False)
    except ValueError:
        # NaN and infinity have no strict-JSON spelling
        out = json.dumps(
            {"error": {"code": "validation",
                       "message": "result has a non-finite number"}},
            separators=(",", ":"),
        )
        code = 1
    print(out)
    return code


def main() -> None:
    sys.exit(cli_run(sys.argv[1:]))
