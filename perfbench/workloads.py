"""The four benchmark workloads: seeded inputs, timed operations, checks.

A workload turns ``(seed, scale)`` into inputs, and its inputs into a list
of :class:`Op`.  One pass runs every op once, closed loop, from one client.
Each op's ``run`` is the timed call into uhfkron; its ``check`` verifies the
output afterwards, outside the timed region, and returns ``None`` or a
failure message.  Sizes are fixed per scale; the seed changes only the
content (indices, coefficients, densities), so every seed costs the same.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

import uhfkron as U
from refclock import parse_report

SUITE_SWEEP = "suite-sweep"
BULK_ALGEBRA = "bulk-algebra"
GNS_DENSE = "gns-dense"
CLI_SESSION = "cli-session"
WORKLOADS = (SUITE_SWEEP, BULK_ALGEBRA, GNS_DENSE, CLI_SESSION)

# Nominal duration of one full-scale pass, in reference-speed seconds (see
# run.py), at the commit that defined the benchmark.  A run makes
# round(seconds / nominal) passes, so both sides of a comparison do the
# same work.
NOMINAL_PASS_S = {SUITE_SWEEP: 4.0, BULK_ALGEBRA: 1.2, GNS_DENSE: 1.7,
                  CLI_SESSION: 15.0}

HERE = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(HERE), "src")
REFCLOCK = os.path.join(HERE, "refclock.py")


@dataclass
class Op:
    label: str
    items: int
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _prod(values) -> int:
    return math.prod(int(v) for v in values)


def _fail_unless(ok: bool, message: str) -> str | None:
    return None if ok else message


# ---------------------------------------------------------------------------
# independent dense oracle and seeded inputs
# ---------------------------------------------------------------------------

def _strides(dims) -> np.ndarray:
    return np.array([_prod(dims[i + 1:]) for i in range(len(dims))])


def dense(x) -> np.ndarray:
    """Dense matrix of an element by direct scatter, independent of to_dense."""
    dims = x.sig.dims
    D = _prod(dims)
    out = np.zeros((D, D), dtype=complex)
    items = list(x.terms.items())
    if items:
        strides = _strides(dims)
        rows = np.array([idx.rows for idx, _ in items]) - 1
        cols = np.array([idx.cols for idx, _ in items]) - 1
        out[rows @ strides, cols @ strides] = [v for _, v in items]
    return out


class DenseCache:
    """Dense matrices of the inputs, built on first use by a check."""

    def __init__(self):
        self._cache = {}

    def __call__(self, x) -> np.ndarray:
        if id(x) not in self._cache:
            self._cache[id(x)] = (x, dense(x))
        return self._cache[id(x)][1]


def density_chain(S) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for f in S.factors:
        out = np.kron(out, f.matrix)
    return out


def random_terms(rng, dims, n: int) -> dict:
    """``n`` distinct matrix units with complex Gaussian coefficients."""
    D = _prod(dims)
    lin = rng.choice(D * D, size=n, replace=False)
    rows = (np.stack(np.unravel_index(lin // D, dims), axis=1) + 1).tolist()
    cols = (np.stack(np.unravel_index(lin % D, dims), axis=1) + 1).tolist()
    coeff = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).tolist()
    return {U.MatrixUnitIndex(tuple(r), tuple(c)): v
            for r, c, v in zip(rows, cols, coeff)}


def random_element(rng, dims, n: int):
    return U.AlgebraElement(dims, random_terms(rng, dims, n))


def random_density(rng, d: int) -> np.ndarray:
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    W = G @ G.conj().T
    return W / np.trace(W).real


def random_state(rng, dims):
    return U.ProductStateTrunc([random_density(rng, d) for d in dims])


def random_diag(rng, d: int) -> list[float]:
    w = rng.uniform(0.1, 1.0, size=d)
    return (w / w.sum()).tolist()


def _close(a: complex, b: complex, scale: float) -> bool:
    return abs(a - b) <= 1e-12 * (1.0 + scale)


# ---------------------------------------------------------------------------
# suite-sweep
# ---------------------------------------------------------------------------

_SUITES = (("coassociativity", (2, 3, 2)), ("compatibility", (2, 3)),
           ("tensor-formula", (3, 3)), ("state-associativity", (2, 2, 2)),
           ("atom-semigroup", (2, 3)))


def suite_units(name: str, dims, level: int) -> int:
    """Exact unit count: label pairs for atoms, fused-stage units otherwise."""
    if name == "atom-semigroup":
        return _prod(dims) ** level
    return _prod(dims) ** (2 * level)


def suite_sweep(seed: int, scale: str) -> list[Op]:
    level = 2 if scale == "full" else 1
    ops = []
    for name, dims in _SUITES:
        expected = suite_units(name, dims, level)

        def run(name=name, dims=dims):
            return U.run_suite(name, dims, level, seed=seed)

        def check(report, expected=expected):
            return _fail_unless(
                report.failed == 0 and report.passed == expected,
                f"{report.suite}: {report.passed} passed, {report.failed} "
                f"failed, expected {expected} passed",
            )

        ops.append(Op(f"{name}/L{level}", expected, run, check))
    return ops


# ---------------------------------------------------------------------------
# bulk-algebra
# ---------------------------------------------------------------------------

BULK_A = (2, 3, 2, 2)
BULK_B = (2, 2, 2, 2)
BULK_FUSED = tuple(a * b for a, b in zip(BULK_A, BULK_B))
BULK_SIZES = {"full": (2000, 20000), "tiny": (20, 200)}


def _dense_close(got, want, tol: float = 1e-10) -> bool:
    return bool(np.max(np.abs(got - want), initial=0.0) <= tol)


def bulk_algebra(seed: int, scale: str) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    S = random_state(rng, BULK_A)
    R = random_state(rng, BULK_B)
    level = len(BULK_FUSED)
    sizes = BULK_SIZES[scale]
    pairs = {n: (random_element(rng, BULK_FUSED, n),
                 random_element(rng, BULK_FUSED, n)) for n in sizes}
    y_small = pairs[sizes[0]][1]
    cached = DenseCache()
    ops = []
    for size, (x, y) in pairs.items():
        memo: dict = {}
        weight = float(sum(abs(v) for v in x.terms.values()))

        def add_op(kind, items, run, check, size=size):
            ops.append(Op(f"{kind}/{size}", items, run, check))

        add_op("mul", len(x) + len(y_small), lambda x=x: x * y_small,
               lambda p, x=x: _fail_unless(
                   _dense_close(dense(p), cached(x) @ cached(y_small)),
                   "product differs from the dense product"))
        add_op("adjoint", len(x), lambda x=x: x.adjoint(),
               lambda a, x=x: _fail_unless(
                   np.array_equal(dense(a), cached(x).conj().T),
                   "adjoint differs from the conjugate transpose"))
        add_op("add", len(x) + len(y), lambda x=x, y=y: x + y,
               lambda s, x=x, y=y: _fail_unless(
                   _dense_close(dense(s), cached(x) + cached(y), 1e-12),
                   "sum differs from the dense sum"))

        def coproduct(x=x, memo=memo):
            memo["cop"] = U.coproduct_phi(x, BULK_A, BULK_B)
            return memo["cop"]

        add_op("coproduct_phi", len(x), coproduct,
               lambda c, x=x: _fail_unless(
                   len(c) == len(x) and c.sig.dims == BULK_A + BULK_B,
                   "coproduct changed the term count or signature"))
        add_op("coproduct_phi_block", len(x),
               lambda x=x: U.coproduct_phi_block(x, 0, level, BULK_A, BULK_B),
               lambda c, memo=memo: _fail_unless(
                   c == memo["cop"],
                   "block coproduct differs from coproduct_phi"))
        add_op("product_phi_inverse", len(x),
               lambda memo=memo: U.product_phi_inverse(memo["cop"], level),
               lambda back, x=x: _fail_unless(
                   back == x, "product_phi_inverse(coproduct_phi(x)) != x"))

        def tensor_phi(x=x, memo=memo):
            memo["phi"] = U.state_tensor_phi_eval(S, R, x)
            return memo["phi"]

        add_op("state_tensor_phi_eval", len(x), tensor_phi,
               lambda v: _fail_unless(
                   isinstance(v, complex) and math.isfinite(abs(v)),
                   f"state_tensor_phi_eval returned {v!r}"))
        add_op("state_evaluate_boxtimes", len(x),
               lambda x=x: U.state_evaluate(U.state_boxtimes(S, R), x),
               lambda v, memo=memo, weight=weight: _fail_unless(
                   _close(v, memo["phi"], weight),
                   f"state products differ: {v!r} vs {memo['phi']!r}"))
    # the dense oracle adds a D x D block per term, so it gets a small element
    z = random_element(rng, BULK_FUSED, sizes[0] // 10)
    ops.append(Op(f"to_dense/{len(z)}", len(z), lambda: U.to_dense(z),
                  lambda m: _fail_unless(np.array_equal(m, cached(z)),
                                         "to_dense differs from scatter")))
    return ops


# ---------------------------------------------------------------------------
# gns-dense
# ---------------------------------------------------------------------------

# Several jobs of like cost sit at the median and at the top of the latency
# distribution, so op_p50_ms and op_tail_ms each pool many samples.
_GNS_FULL = {
    "build": ((2, 2), (2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2)),
    "intertwiner": (((2,), (2,)), ((3,), (2,)), ((2, 2), (2, 2)),
                    ((2, 3), (2, 2)), ((2, 2), (3, 2)), ((3, 2), (2, 2))),
    "commutant": ((2, 2), (4,), (3,)),
    "atom_commutant": (2, 2, 2),
}
_GNS_TINY = {
    "build": ((2, 2),),
    "intertwiner": (((2,), (2,)),),
    "commutant": ((2,),),
    "atom_commutant": (2, 2),
}


def _dims_label(dims) -> str:
    return "x".join(map(str, dims))


def _unit_order(sig):
    return [(idx.rows, idx.cols) for idx in U.all_matrix_units(sig)]


def gns_dense(seed: int, scale: str) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    plan = _GNS_FULL if scale == "full" else _GNS_TINY
    ops = []
    for dims in plan["build"]:
        S = random_state(rng, dims)

        def run(S=S):
            G = U.gns_build(S)
            sig = S.sig
            values = [G.expectation(U.matrix_unit(sig, r, c))
                      for r, c in _unit_order(sig)]
            return G.space_dim, values

        def check(out, S=S):
            space_dim, values = out
            rho = density_chain(S)
            strides = _strides(S.sig.dims)
            want = [rho[np.dot(np.array(c) - 1, strides),
                        np.dot(np.array(r) - 1, strides)]
                    for r, c in _unit_order(S.sig)]
            err = float(np.max(np.abs(np.array(values) - np.array(want))))
            return _fail_unless(
                space_dim == S.sig.total_dim ** 2 and err <= 1e-10,
                f"GNS of {S.sig.dims}: space_dim {space_dim}, "
                f"expectation error {err:.3e}")

        ops.append(Op(f"build/{_dims_label(dims)}/{len(ops)}", 1, run, check))

    for a, b in plan["intertwiner"]:
        S, R = random_state(rng, a), random_state(rng, b)
        D = _prod(x * y for x, y in zip(a, b)) ** 2

        def check(Uw, D=D):
            if Uw.shape != (D, D):
                return f"intertwiner shape {Uw.shape}, expected {(D, D)}"
            defect = float(np.max(np.abs(Uw.conj().T @ Uw - np.eye(D))))
            return _fail_unless(defect <= 1e-8,
                                f"intertwiner unitarity defect {defect:.3e}")

        ops.append(Op(f"intertwiner/{_dims_label(a)}-{_dims_label(b)}", 1,
                      lambda S=S, R=R: U.gns_intertwiner(S, R), check))

    states = [(random_state(rng, dims), _prod(dims) ** 2)
              for dims in plan["commutant"]]
    label = U.AtomLabel(2, tuple(int(j) for j in rng.integers(
        1, 3, size=len(plan["atom_commutant"]))))
    states.append((U.atom_state(label, len(plan["atom_commutant"])), 1))
    for S, expected in states:
        ops.append(Op(
            f"commutant/{_dims_label(S.sig.dims)}", 1,
            lambda S=S: U.commutant_dimension(U.gns_build(S)),
            lambda got, S=S, expected=expected: _fail_unless(
                got == expected,
                f"commutant of {S.sig.dims}: {got}, expected {expected}")))
    return ops


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

CLI_A = (2, 3, 2)
CLI_B = (2, 2, 2)
CLI_FUSED = tuple(a * b for a, b in zip(CLI_A, CLI_B))
_CLI_SIZES = {
    "full": {"eval": (1, 30, 300, 600, 1000, 1500),
             "coproduct": (1, 30, 300, 600, 1000, 1500),
             "tensor-state": (1, 30, 300, 600, 1000), "repeat": 3},
    "tiny": {"eval": (1, 20), "coproduct": (5,), "tensor-state": (3,),
             "repeat": 1},
}


def _state_spec(diags) -> str:
    return ";".join(f"diag({','.join(repr(v) for v in d)})" for d in diags)


def _diag_state(diags):
    return U.ProductStateTrunc([np.diag(np.array(d, dtype=complex))
                                for d in diags])


def _expr(terms: dict, dims) -> str:
    parts = []
    for (rows, cols), v in terms.items():
        chain = " (x) ".join(f"E[{d}]({j},{k})"
                             for d, j, k in zip(dims, rows, cols))
        parts.append(f"({v.real!r},{v.imag!r})*{chain}")
    return " + ".join(parts)


def strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _value_json(v: complex) -> dict:
    return {"re": float(v.real), "im": float(v.imag)}


def _value_close(got, want: complex, scale: float) -> bool:
    return (isinstance(got, dict) and set(got) == {"re", "im"}
            and _close(complex(got["re"], got["im"]), want, scale))


def _expect_value(compute, scale):
    def expect(payload):
        want = compute()
        return _fail_unless(
            set(payload) == {"value"}
            and _value_close(payload["value"], want, scale),
            f"value {payload} differs from in-process {want!r}")
    return expect


def _expect_equal(compute):
    def expect(payload):
        want = compute()
        return _fail_unless(payload == want,
                            f"payload differs from in-process {want}")
    return expect


def _expect_error(codes):
    def expect(payload):
        err = payload.get("error") if isinstance(payload, dict) else None
        return _fail_unless(
            isinstance(err, dict) and err.get("code") in codes
            and isinstance(err.get("message"), str) and set(payload) == {"error"},
            f"expected error code in {codes}, got {payload}")
    return expect


def _coproduct_payload(x):
    y = U.coproduct_phi(x, CLI_A, CLI_B)
    return {"sig": list(y.sig.dims),
            "terms": [{"rows": list(i.rows), "cols": list(i.cols),
                       "value": _value_json(v)} for i, v in y.sorted_terms()]}


def _gns_payload(S):
    def expect(payload):
        G = U.gns_build(S)
        units = S.sig.total_dim ** 2
        commutant = (U.commutant_dimension(G)
                     if G.space_dim ** 2 <= U.DENSE_DIM_GUARD else None)
        return _fail_unless(
            payload.get("space_dim") == G.space_dim
            and payload.get("commutant_dim") == commutant
            and payload.get("expectation", {}).get("passed") == units
            and payload["expectation"].get("failed") == 0
            and abs(payload.get("cyclic_norm", 0.0) - 1.0) <= 1e-12,
            f"gns payload {payload} differs from in-process "
            f"space_dim={G.space_dim} commutant={commutant}")
    return expect


@dataclass
class Request:
    label: str
    argv: list[str]
    code: int
    expect: Callable[[dict], str | None]


def cli_requests(seed: int, scale: str) -> list[Request]:
    """The session's requests: every subcommand, sizes from a fixed ladder."""
    rng = np.random.default_rng([seed, 4])
    sizes = _CLI_SIZES[scale]
    reqs: list[Request] = []
    fused_diags = [random_diag(rng, d) for d in CLI_FUSED]
    fused_state = _diag_state(fused_diags)

    for n in sizes["eval"]:
        terms = random_terms(rng, CLI_FUSED, n)
        x = U.AlgebraElement(CLI_FUSED, terms)
        scale_x = float(sum(abs(v) for v in terms.values()))
        reqs.append(Request(
            f"eval/{n}", ["eval", "--state", _state_spec(fused_diags),
                          "--expr", _expr(terms, CLI_FUSED)], 0,
            _expect_value(lambda x=x: U.state_evaluate(fused_state, x),
                          scale_x)))
    for n in sizes["coproduct"]:
        terms = random_terms(rng, CLI_FUSED, n)
        x = U.AlgebraElement(CLI_FUSED, terms)
        reqs.append(Request(
            f"coproduct/{n}", ["coproduct", "--a", ",".join(map(str, CLI_A)),
                               "--b", ",".join(map(str, CLI_B)),
                               "--expr", _expr(terms, CLI_FUSED)], 0,
            _expect_equal(lambda x=x: _coproduct_payload(x))))
    for n in sizes["tensor-state"]:
        terms = random_terms(rng, CLI_FUSED, n)
        x = U.AlgebraElement(CLI_FUSED, terms)
        t_diags = [random_diag(rng, d) for d in CLI_A]
        r_diags = [random_diag(rng, d) for d in CLI_B]
        S, R = _diag_state(t_diags), _diag_state(r_diags)
        reqs.append(Request(
            f"tensor-state/{n}",
            ["tensor-state", "--a", ",".join(map(str, CLI_A)),
             "--b", ",".join(map(str, CLI_B)), "--T", _state_spec(t_diags),
             "--R", _state_spec(r_diags), "--expr", _expr(terms, CLI_FUSED)],
            0, _expect_value(
                lambda S=S, R=R, x=x: U.state_tensor_phi_eval(S, R, x),
                float(sum(abs(v) for v in terms.values())))))

    repeat = sizes["repeat"]
    for i in range(repeat):
        dims_t = CLI_A[:i + 1]
        dims_r = CLI_B[:i + 1]
        t_diags = [random_diag(rng, d) for d in dims_t]
        r_diags = [random_diag(rng, d) for d in dims_r]
        S, R = _diag_state(t_diags), _diag_state(r_diags)

        def boxed(S=S, R=R):
            out = U.state_boxtimes(S, R)
            return {"sig": list(out.sig.dims),
                    "factors": [[[_value_json(v) for v in row]
                                 for row in f.matrix] for f in out.factors]}

        reqs.append(Request(
            f"boxtimes/{i + 1}", ["boxtimes", "--T", _state_spec(t_diags),
                                  "--R", _state_spec(r_diags)], 0,
            _expect_equal(boxed)))

        length = 3 + 2 * i
        J = U.AtomLabel(2, tuple(rng.integers(1, 3, size=length).tolist()))
        K = U.AtomLabel(3, tuple(rng.integers(1, 4, size=length).tolist()))
        reqs.append(Request(
            f"atom-product/{length}",
            ["atom-product", "--n", "2", "--m", "3",
             "--J", ",".join(map(str, J.prefix)),
             "--K", ",".join(map(str, K.prefix))], 0,
            _expect_equal(lambda J=J, K=K: {
                "base": 6, "label": list(U.atom_label_product(J, K).prefix)})))

        gdims = ((2, 2), (3,), (2, 3))[i]
        g_diags = [random_diag(rng, d) for d in gdims]
        if gdims == (2, 3):
            # rank-deficient factors keep the commutant system small
            g_diags = [[0.0, 1.0], [0.0] + random_diag(rng, 2)]
        reqs.append(Request(
            f"gns/{'x'.join(map(str, gdims))}",
            ["gns", "--state", _state_spec(g_diags)], 0,
            _gns_payload(_diag_state(g_diags))))

        suite, sdims = (("compatibility", (2, 2)), ("tensor-formula", (2, 3)),
                        ("coassociativity", (2, 2, 2)))[i]
        check_seed = int(rng.integers(0, 1000))
        reqs.append(Request(
            f"check/{suite}", ["check", "--suite", suite, "--dims",
                               ",".join(map(str, sdims)), "--level", "1",
                               "--seed", str(check_seed)], 0,
            _expect_equal(lambda suite=suite, sdims=sdims, s=check_seed: {
                "passed": U.run_suite(suite, sdims, 1, seed=s).passed,
                "failed": 0})))

        d_dims = CLI_FUSED[:i + 1]
        t_diags = [random_diag(rng, d) for d in d_dims]
        r_diags = [random_diag(rng, d) for d in d_dims]
        S, R = _diag_state(t_diags), _diag_state(r_diags)

        def distance(payload, S=S, R=R):
            want = U.state_trace_distance(S, R)
            got = payload.get("distance")
            return _fail_unless(
                set(payload) == {"distance"} and isinstance(got, float)
                and abs(got - want) <= 1e-12,
                f"distance {got} differs from in-process {want}")

        reqs.append(Request(
            f"distance/{i + 1}", ["distance", "--T", _state_spec(t_diags),
                                  "--R", _state_spec(r_diags)], 0, distance))

    good = _expr(random_terms(rng, CLI_FUSED, 3), CLI_FUSED)
    state = _state_spec(fused_diags)
    errors = [
        ("parse-error", ["eval", "--state", state, "--expr", good + " +"],
         ("parse-error",)),
        ("index-range", ["eval", "--state", state, "--expr",
                         "E[4](5,1) (x) E[6](1,1) (x) E[4](1,1)"],
         # the parser reports an out-of-range index with its position
         ("parse-error", "index-range")),
        ("signature-mismatch", ["eval", "--state", state, "--expr",
                                "E[4](1,1) (x) E[6](1,1)"],
         ("signature-mismatch",)),
    ]
    if scale == "full":
        errors += [
            ("parse-error", ["coproduct", "--a", "2,3,2", "--b", "2,2,2",
                             "--expr", good.replace("*", "* *", 1)],
             ("parse-error",)),
            ("index-range", ["eval", "--state", state, "--expr",
                             "E[4](1,1) (x) E[6](1,7) (x) E[4](1,1)"],
             ("parse-error", "index-range")),
            ("signature-mismatch",
             ["tensor-state", "--a", "2,3,2", "--b", "2,2,2",
              "--T", _state_spec([random_diag(rng, 2)] * 3),
              "--R", _state_spec([random_diag(rng, 2)] * 3), "--expr", good],
             ("signature-mismatch",)),
        ]
    for i, (kind, argv, codes) in enumerate(errors):
        reqs.append(Request(f"error/{kind}/{i}", argv, 1, _expect_error(codes)))
    return reqs


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    return env


class CliResult(NamedTuple):
    code: int
    stdout: str
    # (before, after, spent) of the reference task in the request's process
    reference: tuple[float, float, float] | None = None


def run_cli_subprocess(argv) -> CliResult:
    """One request in a fresh interpreter, which runs uhfkron as __main__
    bracketed by the reference task (see refclock.py)."""
    proc = subprocess.run([sys.executable, REFCLOCK, *argv],
                          capture_output=True, text=True, env=child_env(),
                          timeout=120)
    return CliResult(proc.returncode, proc.stdout, parse_report(proc.stderr))


def run_cli_in_process(argv) -> CliResult:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = U.cli_run(argv)
    return CliResult(code, buf.getvalue())


def check_cli(req: Request, result: CliResult) -> str | None:
    code, out, _ = result
    if code != req.code:
        return f"{req.label}: exit code {code}, expected {req.code}: {out[:200]}"
    lines = out.splitlines()
    if len(lines) != 1:
        return f"{req.label}: expected one line of JSON, got {len(lines)}"
    try:
        payload = strict_json(lines[0])
    except ValueError as exc:
        return f"{req.label}: stdout is not strict JSON: {exc}"
    if not isinstance(payload, dict):
        return f"{req.label}: stdout is not a JSON object"
    message = req.expect(payload)
    return None if message is None else f"{req.label}: {message}"


def cli_ops(requests, runner) -> list[Op]:
    return [Op(r.label, 1, lambda r=r: runner(r.argv),
               lambda res, r=r: check_cli(r, res)) for r in requests]


def cli_session(seed: int, scale: str) -> list[Op]:
    return cli_ops(cli_requests(seed, scale), run_cli_subprocess)


MAKE_OPS = {SUITE_SWEEP: suite_sweep, BULK_ALGEBRA: bulk_algebra,
            GNS_DENSE: gns_dense, CLI_SESSION: cli_session}


def traced_ops(workload: str, seed: int, scale: str) -> list[Op]:
    """Ops for the traced run, which must execute inside this process: the
    cli session calls ``cli_run`` directly instead of spawning."""
    if workload == CLI_SESSION:
        return cli_ops(cli_requests(seed, scale), run_cli_in_process)
    return MAKE_OPS[workload](seed, scale)
