"""Runs leave no cyclic garbage: the invariant behind the run-scoped GC policy.

``Environment.run`` raises the gen-0 collection threshold (see
``repro.sim.core.GC_GEN0_THRESHOLD``).  That is sound only while a run
creates no reference cycles, so that reference counting alone frees
every event, record and closure the run allocates.  Each golden corpus
scenario is run here with its job still referenced, and a full
collection afterwards must find nothing.  A cycle introduced anywhere
on the datapath fails this test.
"""

import gc

import pytest

from repro.bench.fingerprints import PLATFORMS, SCHEDULES, _setup_schedule
from repro.runtime import run_job


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("platform", PLATFORMS)
def test_golden_run_leaves_no_cyclic_garbage(platform, schedule):
    gc.collect()
    job, recorder, program = _setup_schedule(
        platform, schedule, 0xC0FFEE, observe_core=False)
    run_job(job, program)
    assert gc.collect() == 0
    assert recorder.transfers  # the job is alive and did run
