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
{"error": {"code": ..., "message": ...}} on stdout (code "usage" for a
malformed command line); a result holding NaN or infinity is reported as
a "validation" error.  The environment variable UHFKRON_TOL (or --tol)
overrides the default comparison tolerance 1e-12; it must be a finite
number >= 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .algebra import (
    COMPARE_TOL,
    all_matrix_units,
    as_signature,
    coproduct_phi,
    matrix_unit,
)
from .atoms import AtomLabel, atom_label_product
from .checks import run_suite
from .errors import (
    GramMismatchError,
    IndexRangeError,
    ParseError,
    ResourceGuardError,
    SignatureError,
    UhfError,
    ValidationError,
)
from .gns import GNS_EIG_CUTOFF, commutant_dimension, gns_build
from .parser import parse_element, parse_state
from .states import (
    state_boxtimes,
    state_evaluate,
    state_tensor_phi_eval,
    state_trace_distance,
)

__all__ = ["cli_run", "main"]


class _UsageError(UhfError):
    """The command line does not match the subcommand's arguments."""


class _ArgumentParser(argparse.ArgumentParser):
    # report usage errors as the JSON error object, not on stderr with exit 2
    def error(self, message):
        raise _UsageError(message)


_ERROR_CODES = [
    (_UsageError, "usage"),
    (ParseError, "parse-error"),
    (SignatureError, "signature-mismatch"),
    (IndexRangeError, "index-range"),
    (ValidationError, "validation"),
    (ResourceGuardError, "resource-guard"),
    (GramMismatchError, "gram-mismatch"),
]


def _error_code(exc: UhfError) -> str:
    for cls, code in _ERROR_CODES:
        if isinstance(exc, cls):
            return code
    return "error"


def _complex_json(value: complex) -> dict:
    return {"re": float(value.real), "im": float(value.imag)}


def _matrix_json(m: np.ndarray) -> list:
    return [[_complex_json(v) for v in row] for row in m]


def _dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
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
    sig = as_signature(dims)
    if state.sig != sig:
        raise SignatureError(
            f"state signature {state.sig.dims} does not match {flag} "
            f"dims {sig.dims}"
        )


def _cmd_eval(args, tol: float) -> tuple[dict, int]:
    S = parse_state(args.state)
    x = parse_element(args.expr)
    return {"value": _complex_json(state_evaluate(S, x))}, 0


def _cmd_coproduct(args, tol: float) -> tuple[dict, int]:
    a, b = _dims(args.a), _dims(args.b)
    x = parse_element(args.expr)
    y = coproduct_phi(x, a, b)
    return {"sig": list(y.sig.dims), "terms": _terms_json(y)}, 0


def _cmd_tensor_state(args, tol: float) -> tuple[dict, int]:
    S = parse_state(args.T)
    R = parse_state(args.R)
    _check_state_sig(S, _dims(args.a), "--a")
    _check_state_sig(R, _dims(args.b), "--b")
    x = parse_element(args.expr)
    return {"value": _complex_json(state_tensor_phi_eval(S, R, x))}, 0


def _cmd_boxtimes(args, tol: float) -> tuple[dict, int]:
    S = parse_state(args.T)
    R = parse_state(args.R)
    out = state_boxtimes(S, R)
    return {
        "sig": list(out.sig.dims),
        "factors": [_matrix_json(f.matrix) for f in out.factors],
    }, 0


def _cmd_atom_product(args, tol: float) -> tuple[dict, int]:
    J = AtomLabel(args.n, _dims(args.J))
    K = AtomLabel(args.m, _dims(args.K))
    out = atom_label_product(J, K)
    return {"base": out.base, "label": list(out.prefix)}, 0


def _cmd_gns(args, tol: float) -> tuple[dict, int]:
    S = parse_state(args.state)
    G = gns_build(S, cutoff=args.cutoff)
    passed = failed = 0
    max_err = 0.0
    for idx in all_matrix_units(S.sig):
        x = matrix_unit(S.sig, *idx)
        err = abs(G.expectation(x) - state_evaluate(S, x))
        max_err = max(max_err, err)
        if err <= max(tol, 1e-10):
            passed += 1
        else:
            failed += 1
    payload = {
        "space_dim": G.space_dim,
        "cyclic_norm": float(np.linalg.norm(G.cyclic)),
        "expectation": {"passed": passed, "failed": failed,
                        "max_error": max_err},
    }
    try:
        payload["commutant_dim"] = commutant_dimension(G)
    except ResourceGuardError:
        payload["commutant_dim"] = None
    return payload, 0 if failed == 0 else 1


def _cmd_check(args, tol: float) -> tuple[dict, int]:
    dims = _dims(args.dims) if args.dims else ()
    report = run_suite(args.suite, dims, args.level, seed=args.seed, tol=tol)
    payload = {"passed": report.passed, "failed": report.failed}
    if report.failures:
        payload["failures"] = report.failures
    return payload, 0 if report.ok else 1


def _cmd_distance(args, tol: float) -> tuple[dict, int]:
    S = parse_state(args.T)
    R = parse_state(args.R)
    return {"distance": state_trace_distance(S, R)}, 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="uhfkron",
        description="Matrix-unit tensor stages: coproducts, product states, "
                    "GNS data.",
    )
    parser.add_argument(
        "--tol", type=float, default=None,
        help="comparison tolerance (default: UHFKRON_TOL or 1e-12)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a state on an element")
    p.set_defaults(func=_cmd_eval)
    p.add_argument("--state", required=True, help="state spec")
    p.add_argument("--expr", required=True, help="element expression")

    p = sub.add_parser("coproduct", help="split an element into two blocks")
    p.set_defaults(func=_cmd_coproduct)
    p.add_argument("--a", required=True, help="first-block dims, e.g. 2,3")
    p.add_argument("--b", required=True, help="second-block dims")
    p.add_argument("--expr", required=True)

    p = sub.add_parser("tensor-state",
                       help="evaluate S tensor-phi R on an element")
    p.set_defaults(func=_cmd_tensor_state)
    p.add_argument("--a", required=True, help="dims of the first state")
    p.add_argument("--b", required=True, help="dims of the second state")
    p.add_argument("--T", required=True, help="first state spec")
    p.add_argument("--R", required=True, help="second state spec")
    p.add_argument("--expr", required=True)

    p = sub.add_parser("boxtimes", help="factorwise Kronecker state product")
    p.set_defaults(func=_cmd_boxtimes)
    p.add_argument("--T", required=True)
    p.add_argument("--R", required=True)

    p = sub.add_parser("atom-product", help="product of two atom labels")
    p.set_defaults(func=_cmd_atom_product)
    p.add_argument("--n", type=int, required=True, help="base of J")
    p.add_argument("--m", type=int, required=True, help="base of K")
    p.add_argument("--J", required=True, help="comma-separated label")
    p.add_argument("--K", required=True, help="comma-separated label")

    p = sub.add_parser("gns", help="GNS data of a product state")
    p.set_defaults(func=_cmd_gns)
    p.add_argument("--state", required=True)
    p.add_argument("--cutoff", type=float, default=GNS_EIG_CUTOFF,
                   help="eigenvalue rank cutoff")

    p = sub.add_parser("check", help="run a named property suite")
    p.set_defaults(func=_cmd_check)
    p.add_argument("--suite", required=True)
    p.add_argument("--dims", default="", help="suite dims, e.g. 2,3,2")
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("distance", help="trace distance of two states")
    p.set_defaults(func=_cmd_distance)
    p.add_argument("--T", required=True)
    p.add_argument("--R", required=True)

    return parser


def _tolerance(args) -> float:
    if args.tol is not None:
        tol, source = args.tol, "--tol"
    else:
        raw = os.environ.get("UHFKRON_TOL")
        if raw is None:
            return COMPARE_TOL
        try:
            tol, source = float(raw), "UHFKRON_TOL"
        except ValueError:
            raise ValidationError(
                f"UHFKRON_TOL={raw!r} is not a number") from None
    if not (math.isfinite(tol) and tol >= 0):
        raise ValidationError(f"{source} {tol!r} is not a finite number >= 0")
    return tol


def cli_run(argv=None) -> int:
    """Run one invocation; print a single JSON object; return the exit code."""
    try:
        args = _build_parser().parse_args(argv)
        payload, code = args.func(args, _tolerance(args))
    except UhfError as exc:
        payload = {"error": {"code": _error_code(exc), "message": str(exc)}}
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
