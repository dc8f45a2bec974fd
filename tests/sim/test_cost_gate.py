"""Deterministic host-cost gate: Python calls in ``repro.sim`` per event.

Host time is noisy; the number of Python calls a fixed program makes is
not.  This gate profiles a fixed 8 B UNR notified ping-pong with
cProfile and divides the calls made to functions defined in
``repro.sim`` by the number of simulated events (``Environment.step``
calls).  The count is exact for a given interpreter and program, so the
ceiling has no slack: a change that adds kernel work per event fails
here, and one that removes work lowers the ceiling.

Measured on CPython 3.11: 15.87 calls/event before the run-scoped GC
policy and kernel diet (``__bool__``/``__len__`` per loop turn, the
``_run_deferred`` trampoline, ``Event.__init__`` under Timeout and
Deferred, the ``_step_send`` hop), 12.28 after.
"""

import cProfile
import os
import pstats

import numpy as np

import repro.sim
from repro.core import Unr
from repro.platforms import get_platform, make_job
from repro.runtime import run_job

SIM_CALLS_PER_EVENT_CEILING = 12.28
ITERS = 200

_SIM_DIR = os.path.dirname(repro.sim.__file__) + os.sep


def _profile_pingpong():
    job = make_job("th-xy", 2)
    unr = Unr(job, get_platform("th-xy").channel)

    def program(ctx):
        ep = unr.endpoint(ctx.rank)
        sig = ep.sig_init(1)
        blk = ep.blk_init(ep.mem_reg(np.zeros(8, dtype=np.uint8)), 0, 8, signal=sig)
        rmt = yield from ep.exchange_blk(1 - ctx.rank, blk)
        for _ in range(ITERS):
            if ctx.rank == 0:
                ep.put(blk, rmt, local_signal=None)
                yield from ep.sig_wait(sig)
                ep.sig_reset(sig)
            else:
                yield from ep.sig_wait(sig)
                ep.sig_reset(sig)
                ep.put(blk, rmt, local_signal=None)

    prof = cProfile.Profile()
    prof.runcall(run_job, job, program)
    events = sim_calls = 0
    for (path, _line, name), (_cc, ncalls, *_rest) in pstats.Stats(prof).stats.items():
        if path.startswith(_SIM_DIR):
            sim_calls += ncalls
            if name == "step":
                events += ncalls
    return events, sim_calls


def test_sim_calls_per_event_ceiling():
    events, sim_calls = _profile_pingpong()
    assert events > 10 * ITERS
    per_event = sim_calls / events
    assert per_event <= SIM_CALLS_PER_EVENT_CEILING, (
        f"{sim_calls} repro.sim calls over {events} events = {per_event:.3f}/event "
        f"exceeds the ceiling {SIM_CALLS_PER_EVENT_CEILING}"
    )
