"""Per-layer metrics: span aggregates of the traced run plus direct probes.

The probes time single layers outside the tracer: cost per term as a slope
between term counts (so a quadratic parse shows instead of averaging
away), import cost in fresh interpreters, and the process overhead of a
CLI request (subprocess wall time minus the same request run in-process).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import uhfkron as U
import workloads as W

PARSE_SIZES = (15, 150, 1500)
SUITE_NAMES = tuple(name for name, _ in W._SUITES)

# name -> (unit, better); the order is the order of the printed metrics
PER_LAYER = {
    "algebra.coproduct_phi.calls": ("count", "lower"),
    "algebra.coproduct_phi.self_ms": ("ms", "lower"),
    "algebra.coproduct_phi.terms_in": ("count", "lower"),
    "algebra.coproduct_phi.us_per_term": ("us", "lower"),
    "algebra.coproduct_phi_block.self_ms": ("ms", "lower"),
    "algebra.split_slot.self_ms": ("ms", "lower"),
    "algebra.permute_slots.self_ms": ("ms", "lower"),
    "algebra.insert_identity_slot.self_ms": ("ms", "lower"),
    "algebra.matrix_unit.calls": ("count", "lower"),
    "algebra.matrix_unit.self_ms": ("ms", "lower"),
    "algebra.mul.calls": ("count", "lower"),
    "algebra.mul.self_ms": ("ms", "lower"),
    "algebra.mul.terms_in": ("count", "lower"),
    "algebra.mul.terms_out": ("count", "lower"),
    "algebra.eq.self_ms": ("ms", "lower"),
    "algebra.product_phi_inverse.self_ms": ("ms", "lower"),
    "algebra.to_dense.self_ms": ("ms", "lower"),
    "algebra.Signature.constructed": ("count", "lower"),
    "algebra.AlgebraElement.constructed": ("count", "lower"),
    "states.state_evaluate.calls": ("count", "lower"),
    "states.state_evaluate.self_ms": ("ms", "lower"),
    "states.state_evaluate.terms_in": ("count", "lower"),
    "states.state_evaluate.us_per_term": ("us", "lower"),
    "states.state_tensor_phi_eval.self_ms": ("ms", "lower"),
    "states.state_boxtimes.self_ms": ("ms", "lower"),
    "states.state_trace_distance.self_ms": ("ms", "lower"),
    "states.ProductStateTrunc.constructed": ("count", "lower"),
    "states.density_validate.calls": ("count", "lower"),
    "atoms.atom_check_product.calls": ("count", "lower"),
    "atoms.atom_check_product.self_ms": ("ms", "lower"),
    "atoms.atom_state.calls": ("count", "lower"),
    **{f"checks.{s}.{q}": (u, b) for s in SUITE_NAMES
       for q, u, b in (("units", "count", "higher"), ("self_ms", "ms", "lower"))},
    "checks.all_matrix_units.calls": ("count", "lower"),
    "gns.gns_build.self_ms": ("ms", "lower"),
    "gns.expectation.self_ms": ("ms", "lower"),
    "gns.gns_intertwiner.self_ms": ("ms", "lower"),
    "gns.commutant_dimension.self_ms": ("ms", "lower"),
    "gns.linalg.self_ms": ("ms", "lower"),
    "gns.commutant.bytes_computed": ("B", "lower"),
    "gns.intertwiner.bytes_computed": ("B", "lower"),
    "gns.space_dim_max": ("count", "lower"),
    "parser.parse_element.calls": ("count", "lower"),
    "parser.parse_element.self_ms": ("ms", "lower"),
    "parser.parse_element.terms_out": ("count", "lower"),
    **{f"parser.parse_element.us_per_term.n{n}": ("us", "lower")
       for n in PARSE_SIZES[1:]},
    "parser.parse_state.self_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.import_numpy_ms": ("ms", "lower"),
    "cli.cli_run.self_ms": ("ms", "lower"),
    "cli.json_bytes_out": ("B", "lower"),
    "cli.process_overhead_ms": ("ms", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _slope_us(sizes, times) -> float:
    return (times[1] - times[0]) / (sizes[1] - sizes[0]) * 1e6


def term_slopes(seed: int, scale: str) -> dict:
    """Marginal cost per term of coproduct_phi, state_evaluate, parse_element."""
    reps = 3 if scale == "full" else 1
    rng = np.random.default_rng([seed, 5])
    sizes = W.BULK_SIZES[scale]
    elems = [W.random_element(rng, W.BULK_FUSED, n) for n in sizes]
    boxed = U.state_boxtimes(W.random_state(rng, W.BULK_A),
                             W.random_state(rng, W.BULK_B))
    cop = [_median_time(lambda x=x: U.coproduct_phi(x, W.BULK_A, W.BULK_B),
                        reps) for x in elems]
    ev = [_median_time(lambda x=x: U.state_evaluate(boxed, x), reps)
          for x in elems]
    texts = [W._expr(W.random_terms(rng, W.CLI_FUSED, n), W.CLI_FUSED)
             for n in PARSE_SIZES]
    parse = [_median_time(lambda t=t: U.parse_element(t), reps)
             for t in texts]
    out = {"algebra.coproduct_phi.us_per_term": _slope_us(sizes, cop),
           "states.state_evaluate.us_per_term": _slope_us(sizes, ev)}
    for i in range(1, len(PARSE_SIZES)):
        out[f"parser.parse_element.us_per_term.n{PARSE_SIZES[i]}"] = _slope_us(
            PARSE_SIZES[i - 1:i + 1], parse[i - 1:i + 1])
    return out


def import_ms(module: str, reps: int) -> float:
    """Median time of ``import module`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import " + module +
            "; print(time.perf_counter() - t)")
    times = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True,
                              env=W.child_env(), timeout=60)
        times.append(float(proc.stdout) * 1e3)
    return statistics.median(times)


def cli_overhead(requests) -> tuple[dict, list[str]]:
    """Process overhead and stdout bytes of a session's requests.

    Each request runs as a subprocess and then in-process; the overhead is
    the median over requests of the difference of the two wall times.
    """
    diffs, nbytes, failures = [], 0, []
    for req in requests:
        t0 = perf_counter()
        result = W.run_cli_subprocess(req.argv)
        t1 = perf_counter()
        W.run_cli_in_process(req.argv)
        t2 = perf_counter()
        diffs.append((t1 - t0 - result.reference[2]) - (t2 - t1))
        nbytes += len(result.stdout.encode())
        message = W.check_cli(req, result)
        if message:
            failures.append(message)
    return {"cli.process_overhead_ms": statistics.median(diffs) * 1e3,
            "cli.json_bytes_out": nbytes}, failures


def from_tracer(tracer) -> dict:
    """Span self times, span call counts and counters, by metric name."""
    out = {}
    for name in PER_LAYER:
        span, _, quantity = name.rpartition(".")
        if quantity == "self_ms":
            out[name] = tracer.self_ns.get(span, 0.0) / 1e6
        elif quantity == "calls" and name not in tracer.counters:
            out[name] = tracer.calls.get(span, 0)
        else:
            out[name] = tracer.counters.get(name, 0)
    # enumeration is defined in algebra but driven by the suites
    out["checks.all_matrix_units.calls"] = tracer.counters.get(
        "algebra.all_matrix_units.calls", 0)
    return out
