"""Host-speed calibration: a fixed pure-Python kernel timed between ops.

On a shared host a single-threaded Python loop runs at speeds up to 2x
apart, in phases of seconds to minutes that follow other tenants' load
(CPU time moves with wall time, so it is not stolen time but a slower
core).  Every timing the benchmark reports is therefore divided by the
kernel's time measured next to it and multiplied by the kernel's time on
an idle core, ``REF_KERNEL_S``.  The result, in ``ref_ms`` or ``ref_s``,
reads as milliseconds or seconds on an idle core of the reference machine
and cancels the host's phase.  The kernel is independent of genpos, so a
change to genpos moves the scaled times exactly as it moves raw times.

The kernel is a small bitset depth-first search over big-int rows, the
same mix of int bit operations, list indexing, calls and appends as the
genpos search loops.
"""

from __future__ import annotations

import random
import signal
import statistics
from time import perf_counter_ns

# Median kernel time, in seconds, on an idle core of the 2-vCPU x86 VM the
# benchmark was written on (Python 3.11).  It only sets the scale.
REF_KERNEL_S = 0.00028

_N = 96
_rng = random.Random(20190709)
_ROWS = [_rng.getrandbits(_N) | (1 << i) for i in range(_N)]
_NODE_LIMIT = 600

# Sampling period during an op: the handler costs ~2% of the op's time.
INTERVAL_S = 0.025


def _kernel() -> int:
    nodes = 0

    def rec(rows, cand):
        nonlocal nodes
        while cand and nodes < _NODE_LIMIT:
            bit = cand & -cand
            cand ^= bit
            v = bit.bit_length() - 1
            nodes += 1
            nc = cand
            for row in rows:
                nc &= row[v]
            if nc.bit_count() > 2:
                rows.append(_ROWS)
                rec(rows, nc)
                rows.pop()

    rec([_ROWS], (1 << _N) - 1)
    return nodes


def kernel_s(repeat: int = 3) -> float:
    """Median time of ``repeat`` kernel runs, in seconds."""
    times = []
    for _ in range(repeat):
        t0 = perf_counter_ns()
        _kernel()
        times.append((perf_counter_ns() - t0) / 1e9)
    return statistics.median(times)


def scale(kernel_times: list[float]) -> float:
    """Factor that turns a raw time into reference-core time, given kernel
    times sampled evenly over it: the mean of REF_KERNEL_S / kernel time."""
    return statistics.fmean(REF_KERNEL_S / k for k in kernel_times)


class Sampler:
    """Times the kernel before and after each op and, while it is
    installed, every ``INTERVAL_S`` of wall time from a SIGALRM handler.

    The host's speed flips within a second, so an op of several seconds
    needs samples taken during it, not only around it.  Signal handlers run
    between bytecodes of the main thread, so the samples fall inside the
    op's own Python code on whichever core it runs.  The handler's time is
    counted in ``spent_ns`` and taken out of the op's time.
    """

    def __init__(self):
        self.times: list[float] = []  # kernel seconds, in sampling order
        self.spent_ns = 0  # time spent in the signal handler
        self._busy = False
        self._previous = None

    def sample(self, repeat: int = 3) -> None:
        self._busy = True
        try:
            self.times.append(kernel_s(repeat))
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        t0 = perf_counter_ns()
        self.sample(1)
        self.spent_ns += perf_counter_ns() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
