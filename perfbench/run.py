"""Benchmark of the uhfkron package: four seeded workloads, closed loop.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload suite-sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it holds the run's details (machine, sample counts, failures).  The
package is imported from ``src/`` of the checkout, never from elsewhere;
without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from refclock import SpeedProbe, reference_seconds, scaled

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cap_blas_threads():
    # must run before numpy is imported; children inherit the setting
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(_nproc())


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "uhfkron", "__init__.py")):
        sys.exit(f"perfbench: no uhfkron package under {SRC}")
    sys.path.insert(0, SRC)
    import uhfkron

    if os.path.dirname(os.path.dirname(os.path.abspath(uhfkron.__file__))) != SRC:
        sys.exit(f"perfbench: uhfkron imported from {uhfkron.__file__}, "
                 f"not from {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment() -> dict:
    import numpy as np

    return {"cpu": _cpu_model(), "nproc": _nproc(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


class Tally:
    """Latencies, walls, verified items and failures over passes.

    Every call is timed at the reference speed (see refclock.py).  A result
    with a ``reference`` attribute came from a child process that bracketed
    itself with the reference task; its own measurement is used instead."""

    def __init__(self):
        self.latencies: list[float] = []
        self.walls: list[float] = []
        self.raw_walls: list[float] = []
        self.rates: list[float] = []
        self.labels: list[str] = []
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, ops, tracer=None, record=True, sample=True):
        """Run every op once; time ``op.run`` only, then check its output.
        ``sample=False`` takes no speed samples inside the calls."""
        wall, raw_wall, items, lat = 0.0, 0.0, 0, []
        self.labels = [op.label for op in ops]
        for op in ops:
            self.attempted += 1
            out, message = None, None
            with SpeedProbe(sample) as probe:
                try:
                    if tracer is None:
                        out = op.run()
                    else:
                        out = tracer.call("bench." + op.label.split("/")[0],
                                          op.run)
                except Exception as exc:  # a crashing op is a failure only
                    message = f"{op.label}: {type(exc).__name__}: {exc}"
            raw, dt = probe.raw, probe.seconds
            if getattr(out, "reference", None) is not None:
                before, after, spent = out.reference
                raw -= spent
                dt = scaled(raw, before, after)
            raw_wall += raw
            wall += dt
            lat.append(dt)
            if message is None:
                if tracer is not None:
                    tracer.active = False
                try:
                    message = op.check(out)
                finally:
                    if tracer is not None:
                        tracer.active = True
            if message is None:
                items += op.items
            else:
                self.failures.append(message)
        if record:
            self.latencies += lat
            self.walls.append(wall)
            self.raw_walls.append(raw_wall)
            self.rates.append(items / wall)
        return wall


def tail(values) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it (nearest rank);
    the maximum when there are ten samples or fewer.  Returns (value,
    percentile)."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1], 100.0
    return v[n - 11], 100.0 * (n - 10) / n


def setup_seconds(workload: str, seed: int, scale: str) -> list[float]:
    """Process start to ready, in fresh interpreters that import the package
    and generate the workload's inputs.

    The child may run on the other CPU, so it times the reference task
    itself, at start and when ready, and reports those times and the time
    they took, which is not counted."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed), "--scale", scale]
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            raw = perf_counter() - t0
            proc.stdout.read()
        fields = line.split()
        if fields[:1] != ["ready"] or len(fields) != 4 or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {line!r}")
        before, after, spent = map(float, fields[1:])
        times.append(scaled(raw - spent, before, after))
    return times


def end_to_end(args, W) -> tuple[dict, Tally, dict]:
    make_ops = W.MAKE_OPS[args.workload]
    ops = make_ops(args.seed, args.scale)
    tally = Tally()
    tally.run_pass(make_ops(args.seed, "tiny"), record=False)   # warm-up
    passes = max(1, round(args.seconds / W.NOMINAL_PASS_S[args.workload]))
    if args.scale == "tiny":
        passes = 1
    for _ in range(passes):
        tally.run_pass(ops)
    who = (resource.RUSAGE_CHILDREN if args.workload == W.CLI_SESSION
           else resource.RUSAGE_SELF)
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    setups = setup_seconds(args.workload, args.seed, args.scale)
    tail_ms, tail_pct = tail(tally.latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(tally.walls),
        "throughput_per_s": statistics.median(tally.rates),
        "op_p50_ms": statistics.median(tally.latencies) * 1e3,
        "op_tail_ms": tail_ms * 1e3,
        "peak_rss_mb": peak_mb,
    }
    details = {"passes": passes, "ops_per_pass": len(ops),
               "latency_samples": len(tally.latencies),
               "tail_percentile": tail_pct, "setup_samples_s": setups,
               "pass_walls_s": tally.walls,
               "unscaled_pass_walls_s": tally.raw_walls,
               "op_median_ms": {
                   label: statistics.median(tally.latencies[i::len(ops)]) * 1e3
                   for i, label in enumerate(tally.labels)}}
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, tally, details


def traced(args, W) -> tuple[dict, Tally, dict]:
    import layers as L
    from spans import Tracer

    ops = W.traced_ops(args.workload, args.seed, args.scale)
    tally = Tally()
    tally.run_pass(W.traced_ops(args.workload, args.seed, "tiny"),
                   record=False)   # warm-up
    # speed samples would run inside spans, so neither pass takes them
    untraced_wall = tally.run_pass(ops, record=False, sample=False)
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall = tally.run_pass(ops, tracer, record=False, sample=False)
        # a tiny pass of every workload, so each layer is measured each run
        for name in W.WORKLOADS:
            tally.run_pass(W.traced_ops(name, args.seed, "tiny"), tracer,
                           record=False, sample=False)
    finally:
        tracer.uninstall()
    values = L.from_tracer(tracer)
    reps = 3 if args.scale == "full" else 1
    session = W.cli_requests(
        args.seed, args.scale if args.workload == W.CLI_SESSION else "tiny")
    cli, failures = L.cli_overhead(session)
    tally.attempted += len(session)
    tally.failures += failures
    values.update(cli)
    values.update(L.term_slopes(args.seed, args.scale))
    values["cli.import_ms"] = L.import_ms("uhfkron", reps)
    values["cli.import_numpy_ms"] = L.import_ms("numpy", reps)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    details = {"traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
               "spans": tracer.spans}
    metrics = {name: (values[name], unit)
               for name, (unit, _) in L.PER_LAYER.items()}
    return metrics, tally, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite-sweep", "bulk-algebra", "gns-dense",
                                 "cli-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and generate inputs, print 'ready'")
    args = parser.parse_args(argv)

    if args.setup_only:
        t0 = perf_counter()
        before = reference_seconds()
        spent = perf_counter() - t0
    _cap_blas_threads()
    _import_package()
    import workloads as W

    if args.setup_only:
        W.MAKE_OPS[args.workload](args.seed, args.scale)
        t0 = perf_counter()
        after = reference_seconds()
        spent += perf_counter() - t0
        print(f"ready {before!r} {after!r} {spent!r}", flush=True)
        return 0

    run = traced if args.trace else end_to_end
    metrics, tally, details = run(args, W)
    details.update(workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace, scale=args.scale,
                   environment=_environment(), failures=tally.failures[:20])
    failed = len(tally.failures)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{tally.attempted} ops, fail_ratio {failed / tally.attempted:g}",
          file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
