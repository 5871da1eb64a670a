"""Speed probe: puts the benchmark's times on one scale on a host whose speed drifts.

On a shared host a virtual CPU switches, often several times a second,
between a fast and a slow state, and the share of time it spends slow
drifts over minutes.  On the 2-vCPU KVM guest this benchmark was written
on the two states were about 1.8x apart for pure-Python code, the two
vCPUs switched independently of each other, and a child's wall time
ranged 1.8x over a few minutes while its output and its work stayed the
same.  Medians over one run do not remove drift that spans runs.

So the harness pins itself, and with it every child it starts, to one
CPU (``pin``).  While a child runs, a thread of the harness wakes every
``INTERVAL_S`` and runs ``kernel``, a fixed piece of pure-Python work made
of the operations the program spends its time on (products of tuple
matrices of Python ints, as in the fusion trace, and accumulation into a
dict keyed by ints, as in the twisted-algebra product), and records how
much CPU time its own thread took for it.  Because the probe shares the
child's CPU, it sees the state the child runs in; because it is timed by
thread CPU time, it does not count the time the child preempts it.
``Probe.scale`` turns the mean probe time over a span of the child's life
into a factor, ``REFERENCE_NS`` over that mean, and a span of the child's
wall time times that factor is the time the span would have taken at the
speed at which ``kernel`` takes ``REFERENCE_NS``: seconds at reference
speed.  A change to the program does not change ``kernel``, so it moves
these times as it moves wall time.  The probes take about 5% of the CPU
the child runs on, the same share on every commit.
"""

from __future__ import annotations

import os
import threading
import time

INTERVAL_S = 0.005
#: ``kernel``'s thread CPU time in the fast state of the machine above,
#: rounded; it only sets the scale of the reported times.
REFERENCE_NS = 200_000

_N = 8
_SHIFT = tuple(tuple(1 if abs(i - j) == 1 else 0 for j in range(_N)) for i in range(_N))


def _mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def kernel() -> int:
    """A fixed piece of pure-Python work; its result never changes."""
    m = _SHIFT
    for _ in range(3):
        m = _mat_mul(m, _SHIFT)
    acc: dict[int, int] = {}
    for a in range(16):
        for b in range(16):
            key = a ^ b
            acc[key] = acc.get(key, 0) + (a + 1) * (b + 3)
    return m[0][3] + acc[5]


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def pin() -> int | None:
    """Pin this process, and every child it starts later, to one of its CPUs.

    Returns the CPU, or None where affinity cannot be set.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class Probe:
    """Times ``kernel`` every ``INTERVAL_S`` on a thread while the ``with`` block runs."""

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        #: (CLOCK_MONOTONIC ns at the end of a probe, its thread CPU ns)
        self.samples: list[tuple[int, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            started = time.thread_time_ns()
            kernel()
            took = time.thread_time_ns() - started
            self.samples.append((now_ns(), took))

    def __enter__(self) -> Probe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if not self.samples:  # a child too short for one probe
            started = time.thread_time_ns()
            kernel()
            self.samples.append((now_ns(), time.thread_time_ns() - started))

    def scale(self, start_ns: int, end_ns: int) -> float:
        """``REFERENCE_NS`` over the mean probe time in (start_ns, end_ns], or over all probes if none ended there."""
        times = [took for at, took in self.samples if start_ns < at <= end_ns]
        times = times or [took for _, took in self.samples]
        return REFERENCE_NS * len(times) / sum(times)
