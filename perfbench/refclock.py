"""Reference clock: scale timings to a fixed machine speed.

The speed of a shared 2-vCPU host drifts by up to a factor of two over
seconds to minutes, in user CPU time as much as in wall time.  A timing is
therefore scaled to the speed at which a fixed pure-Python reference task
takes ``REF_NOMINAL_S`` (about its median on the reference box): the task
is timed before and after the call, and during it from a ``SIGALRM``
handler every ``SAMPLE_PERIOD_S`` (:class:`SpeedProbe`); the time spent in
those samples is not counted.

Run as a script, this module is a CLI request bracketed by the reference
task inside the request's own process (which may run on another CPU)::

    python3 perfbench/refclock.py <uhfkron arguments>

runs ``uhfkron`` as ``__main__``, as ``python -m uhfkron`` does, and writes
``refclock <before> <after> <spent>`` as the last line of stderr, where
``spent`` is the time the two reference measurements took.
"""

import runpy
import signal
import statistics
import sys
from time import perf_counter

REF_NOMINAL_S = 1.0e-3
SAMPLE_PERIOD_S = 0.2


def _reference_task() -> int:
    d = {}
    for i in range(4000):
        k = (i % 7, i % 11, i & 63)
        d[k] = d.get(k, 0) + i
    return len(d)


def reference_seconds() -> float:
    """Best of three times of the reference task."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _reference_task()
        best = min(best, perf_counter() - t0)
    return best


def scaled(raw: float, before: float, after: float) -> float:
    """``raw`` seconds at the reference speed, from the reference task's
    times just before and just after."""
    return raw * REF_NOMINAL_S / ((before + after) / 2)


class SpeedProbe:
    """Context manager timing one call; ``seconds`` is the scaled time and
    ``raw`` the unscaled time, both without the sampling time.  With
    ``sample=False`` only the before and after samples are taken, so no
    handler runs inside the call."""

    def __init__(self, sample: bool = True):
        self._sample = sample

    def _take(self, signum=None, frame=None):
        t0 = perf_counter()
        self.samples.append(reference_seconds())
        self.spent += perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [reference_seconds()], 0.0
        if self._sample:
            self._old = signal.signal(signal.SIGALRM, self._take)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                             SAMPLE_PERIOD_S)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        if self._sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)
        self.raw = perf_counter() - self._t0 - self.spent
        self.samples.append(reference_seconds())
        self.seconds = self.raw * REF_NOMINAL_S / statistics.mean(self.samples)
        return False


def parse_report(stderr: str) -> tuple[float, float, float]:
    """(before, after, spent) from the stderr of a bracketed request."""
    fields = stderr.rstrip().rsplit("\n", 1)[-1].split()
    if len(fields) != 4 or fields[0] != "refclock":
        raise ValueError(f"no refclock report in stderr: {stderr[-200:]!r}")
    before, after, spent = map(float, fields[1:])
    return before, after, spent


if __name__ == "__main__":
    t0 = perf_counter()
    before = reference_seconds()
    spent = perf_counter() - t0
    sys.argv = ["uhfkron", *sys.argv[1:]]
    try:
        runpy.run_module("uhfkron", run_name="__main__", alter_sys=True)
    finally:
        t0 = perf_counter()
        after = reference_seconds()
        spent += perf_counter() - t0
        print(f"refclock {before!r} {after!r} {spent!r}", file=sys.stderr)
