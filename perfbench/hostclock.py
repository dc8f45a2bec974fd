"""Host CPU clock with an interleaved speed probe.

On a host shared with other guests, speed drifts by 15-50% over
seconds to minutes (README.md, "Noise on this host").  A probe taken
once before or after a ten-second repetition misses most of that, so
:class:`SpeedProbe` samples the host all through a repetition instead:
a CPU-time interval timer (``ITIMER_PROF``) fires every
``PERIOD_S`` seconds of this process's CPU time, and the ``SIGPROF``
handler, which Python runs in the main thread between two bytecodes,
times one fixed :func:`probe` and returns.

:func:`probe` mixes the two kinds of host work the workloads do: a
pure-Python integer loop (interpreter speed) and copies of a 1 MiB
buffer (memory and cache speed).  Each part is divided by its time on
the baseline host when nothing slowed it, and the probe's *slowdown*
is the mean of the two ratios: 1.0 on the baseline host unloaded, 1.4
when the host runs 40% slower.  It calls nothing in the library and
allocates nothing the collector tracks, so no library change can move
it.

:func:`cpu_ns` is the CPU time of the calling thread minus the time
spent in probes, so the probes do not count toward what they correct.
It reads the thread clock because, while a CPU-time timer is armed,
Linux updates the process clock only at scheduler ticks.  The simulator
runs in one thread, so the two clocks agree otherwise.
"""

# Host time is what this module measures.
# unrlint: disable-file=UNR012

from __future__ import annotations

import signal
from time import thread_time_ns
from typing import List, Optional

import numpy as np

__all__ = ["SpeedProbe", "cpu_ns", "probe"]

#: CPU seconds of this process between two probes.  A probe evicts
#: some of the workload's data from the caches, which slows the
#: iteration it interrupts; at this period that is about one in 400
#: iterations of the slowest closed loop, too few to move its p99.
PERIOD_S = 0.5
#: iterations of the probe's integer loop
LOOP_N = 16_000
#: timed 1 MiB copies per probe
COPIES = 8
#: CPU ns of the integer loop and of the copies on the 2.1 GHz Xeon
#: guest of the README's baseline when no other guest slows it down
LOOP_NS = 800_000
COPY_NS = 320_000

_src = np.ones(1 << 20, dtype=np.uint8)
_dst = np.empty_like(_src)

#: CPU ns spent in probes so far, in this process
_probe_ns = 0


def probe() -> float:
    """Time the fixed host work once; return its slowdown against the
    baseline host unloaded (see the module docstring).

    An untimed pass first brings the buffers and the loop back into the
    caches, so that what the workload evicted does not move the probe."""
    np.copyto(_dst, _src)
    for i in range(LOOP_N // 8):
        pass
    t0 = thread_time_ns()
    acc = 0
    for i in range(LOOP_N):
        acc += i * i
    t1 = thread_time_ns()
    for _ in range(COPIES // 2):
        np.copyto(_dst, _src)
        np.copyto(_src, _dst)
    t2 = thread_time_ns()
    return 0.5 * ((t1 - t0) / LOOP_NS + (t2 - t1) / COPY_NS)


def cpu_ns() -> int:
    """CPU ns of this thread, less the time spent in :class:`SpeedProbe` probes."""
    while True:
        spent = _probe_ns
        now = thread_time_ns()
        if spent == _probe_ns:  # no probe ran between the two reads
            return now - spent


class SpeedProbe:
    """While active, run :func:`probe` every ``period_s`` CPU seconds
    and keep each slowdown in :attr:`samples`."""

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.samples: List[float] = []
        self._old_handler: Optional[object] = None

    def _on_signal(self, signum: int, frame: object) -> None:
        global _probe_ns
        t0 = thread_time_ns()
        self.samples.append(probe())
        _probe_ns += thread_time_ns() - t0

    def __enter__(self) -> "SpeedProbe":
        self._old_handler = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old_handler)  # type: ignore[arg-type]
