"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path
from time import thread_time_ns

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench.checks import (  # noqa: E402
    METRIC_NAME,
    METRIC_UNIT,
    Checker,
    check_metric_names,
    compare_reference,
)
from perfbench import hostclock  # noqa: E402
from perfbench.hostclock import SpeedProbe, cpu_ns  # noqa: E402
from perfbench.run import run_rep  # noqa: E402
from perfbench.tracer import Instrumentation, Tracer, timed_generator  # noqa: E402
from perfbench.workloads import WORKLOADS, Fig6HpcIb, PingPong8B  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFS = json.loads((ROOT / "perfbench" / "references.json").read_text())


class TinyPingPong(PingPong8B):
    round_trips = 5
    planned_ops = 10


# -- metric-name grammar -----------------------------------------------------

def test_declared_metrics_follow_the_grammar():
    for kind in ("end_to_end", "per_layer"):
        declared = SPEC[kind]
        check_metric_names(declared, {m["name"]: 1.0 for m in declared})
    names = [w["name"] for w in SPEC["workloads"]]
    assert all(METRIC_NAME.fullmatch(n) for n in names)
    assert sorted(names) == sorted(WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s"}


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "has space", "x" * 65, "a/b"])
def test_bad_metric_names_are_rejected(name):
    assert not METRIC_NAME.fullmatch(name)
    with pytest.raises(ValueError):
        check_metric_names([{"name": name, "unit": "s"}], {name: 1.0})


def test_units_and_metric_sets_are_checked():
    assert METRIC_UNIT.fullmatch("calls/op") and not METRIC_UNIT.fullmatch("micro seconds")
    declared = [{"name": "run_s", "unit": "s"}, {"name": "setup_s", "unit": "s"}]
    with pytest.raises(ValueError, match="missing"):
        check_metric_names(declared, {"run_s": 1.0})
    with pytest.raises(ValueError, match="extra"):
        check_metric_names(declared, {"run_s": 1.0, "setup_s": 1.0, "other": 2.0})


# -- checker --------------------------------------------------------------------

def test_checker_flags_a_corrupted_payload():
    chk = Checker()
    sent = np.arange(64, dtype=np.uint8)
    chk.payload(sent.copy(), sent, "clean")
    corrupted = sent.copy()
    corrupted[17] ^= 0x40
    chk.payload(corrupted, sent, "flipped bit")
    assert (chk.attempted, chk.failed) == (2, 1)
    assert chk.errors == ["flipped bit: payload mismatch"]


def test_checker_flags_a_mismatched_simulated_reference():
    ref = REFS["pingpong-8b"]
    assert compare_reference(dict(ref), ref) == []
    drifted = dict(ref, half_rtt=ref["half_rtt"] * (1 + 1e-15))
    assert compare_reference(drifted, ref) == ["half_rtt"]
    assert compare_reference(dict(ref, extra=1), ref) == ["extra"]
    fig6 = dict(REFS["fig6-hpcib"], speedup=0.99)
    assert Fig6HpcIb().reference_failures(fig6, fig6) == ["speedup <= 1"]


def test_a_reference_mismatch_fails_every_op_of_the_repetition():
    wl = TinyPingPong()
    clean = run_rep(wl, 0, None)
    assert (clean.attempted, clean.failed) == (10, 0)
    bad = run_rep(wl, 0, {"end_time": clean.outputs["end_time"], "half_rtt": 0.0})
    assert (bad.attempted, bad.failed) == (10, 10)
    assert "half_rtt" in bad.errors[0]


def test_powerllel_check_flags_bad_and_missing_ranks():
    good = {"time": 1.0, "phases": {"vel_update": 0.4, "ppe": 0.5, "other": 0.1, "total": 1.0}}
    bad = {"time": 1.0, "phases": dict(good["phases"], total=2.0)}
    chk = Checker()
    chk.powerllel({"ranks": {0: good, 1: bad}}, 3, "unr")
    assert (chk.attempted, chk.failed) == (3, 2)


# -- self-time arithmetic ---------------------------------------------------------

class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_of_a_nested_span_tree():
    # A(sim) [0,100] > B(core.api) [10,50] > C(runtime) [20,30];
    # A > D(netsim) [60,90];  E(sim) [200,210] at top level.
    tr = Tracer(clock=FakeClock([0, 10, 20, 30, 50, 60, 90, 100, 200, 210, 300]))
    tr.enter("A", "sim")
    tr.enter("B", "core.api")
    tr.enter("C", "runtime")
    tr.exit()
    tr.exit()
    tr.enter("D", "netsim")
    tr.exit()
    tr.exit()
    tr.enter("E", "sim")
    tr.exit()
    assert tr.self_ns == {"runtime": 10, "core.api": 30, "netsim": 30, "sim": 30 + 10}
    assert tr.top_ns == 110
    assert sum(tr.self_ns.values()) == tr.top_ns
    parents = {name: parent for _sid, parent, name, *_ in tr.spans}
    ids = {name: sid for sid, _parent, name, *_ in tr.spans}
    assert parents == {"A": 0, "B": ids["A"], "C": ids["B"], "D": ids["A"], "E": 0}
    with pytest.raises(RuntimeError):
        tr.enter("open", "sim")
        tr.begin()


# -- generator wrapper -----------------------------------------------------------

def test_generator_wrapper_passes_values_through():
    def inner():
        x = yield 1
        y = yield x + 1
        return y * 2

    tr = Tracer()
    gen = timed_generator(inner(), "g", "core.api", tr)
    assert next(gen) == 1
    assert gen.send(5) == 6
    with pytest.raises(StopIteration) as stop:
        gen.send(7)
    assert stop.value.value == 14
    assert tr.span_counts == {"g": 3}


def test_generator_wrapper_passes_throw_through():
    def inner():
        while True:
            try:
                yield "waiting"
            except ValueError as exc:
                yield f"caught {exc}"

    tr = Tracer()
    gen = timed_generator(inner(), "g", "core.api", tr)
    assert next(gen) == "waiting"
    assert gen.throw(ValueError("boom")) == "caught boom"
    with pytest.raises(KeyError):
        gen.throw(KeyError("unhandled"))
    assert tr.span_counts == {"g": 3}
    tr.begin()  # every span was closed


def test_generator_wrapper_passes_close_through():
    closed = []

    def inner():
        try:
            yield 1
            yield 2
        finally:
            closed.append(True)

    gen = timed_generator(inner(), "g", "core.api", Tracer())
    assert next(gen) == 1
    gen.close()
    assert closed == [True]
    with pytest.raises(StopIteration):
        next(gen)


# -- instrumentation ---------------------------------------------------------------

def test_instrumentation_is_passive_and_removed():
    from repro.core import UnrEndpoint
    from repro.sim import Environment

    originals = (Environment.step, Environment.process, UnrEndpoint.sig_wait)
    wl = TinyPingPong()
    plain = run_rep(wl, 3, None)
    tracer = Tracer()
    with Instrumentation(tracer):
        traced = run_rep(wl, 3, None, tracer=tracer)
    assert (Environment.step, Environment.process, UnrEndpoint.sig_wait) == originals
    assert traced.outputs == plain.outputs and traced.failed == 0
    assert tracer.calls["UnrEndpoint.put"] == 10
    assert tracer.span_counts["UnrEndpoint.sig_wait"] == 2 * tracer.calls["UnrEndpoint.sig_wait"]
    assert tracer.self_ns["workload"] > 0 and tracer.self_ns["sim"] > 0


# -- speed probe -------------------------------------------------------------------

def test_speed_probe_samples_the_host_and_leaves_its_time_out():
    handler = signal.getsignal(signal.SIGPROF)
    spent0 = hostclock._probe_ns
    t0, c0 = thread_time_ns(), cpu_ns()
    with SpeedProbe(period_s=0.005) as speed:
        acc = 0
        while thread_time_ns() - t0 < 200_000_000:
            acc += 1
    probe_ns = hostclock._probe_ns - spent0
    assert len(speed.samples) >= 5 and all(s > 0 for s in speed.samples)
    left_out = (thread_time_ns() - t0) - (cpu_ns() - c0)
    assert probe_ns > 0 and abs(left_out - probe_ns) < 1_000_000
    assert signal.getsignal(signal.SIGPROF) is handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_a_probed_repetition_reports_its_slowdown():
    wl = TinyPingPong()
    plain = run_rep(wl, 2, None)
    with SpeedProbe() as speed:
        probed = run_rep(wl, 2, None, speed=speed)
    assert plain.slowdown == 1.0 and probed.slowdown > 0
    assert probed.outputs == plain.outputs and probed.failed == 0
