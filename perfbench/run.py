"""Host-cost benchmark: the command-line entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload pingpong-8b --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures the per-layer split instead (README.md).  Host
times are CPU time of the simulator's one thread
(:func:`perfbench.hostclock.cpu_ns`): on a shared host it leaves out
the time the OS gives to other processes, and otherwise it equals wall
time.  End-to-end times are scaled to the baseline host's unloaded
speed by a probe that samples the host all through the run
(:mod:`perfbench.hostclock`).  The last line of standard output is the
result object; the line before it records the run's identity and
parameters.  Exits non-zero without a
result when the library sources are missing.
"""

# Host time is what this benchmark measures.
# unrlint: disable-file=UNR012

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / "perfbench" / "out"

#: Set-up is timed ``SETUPS`` times at the start of a run, before the
#: repetitions, and the median reported.  Later set-ups reuse memory that
#: earlier repetitions mapped, so their cost depends on what ran before.
#: The first ``SETUP_WARMUPS`` are not timed: the first set-up in a
#: process costs ten times the later ones, and the next few still fall.
SETUP_WARMUPS = 5
SETUPS = 30

#: speed probes taken after each timed set-up (README.md, "Noise on
#: this host")
SETUP_PROBES = 3


def _hermetic_exec() -> None:
    """Re-exec with a pinned string-hash seed and every ``UNR_*``
    switch cleared, so neither hash order nor an inherited
    ``UNR_OBSERVE``/``UNR_SANITIZE`` can change what is measured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("UNR_")}
    env["PYTHONHASHSEED"] = "0"
    if env != dict(os.environ):
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Rep:
    """One repetition: set-up, run and the checks of its outputs."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.run_s = 0.0
        self.run_wall_s = 0.0
        self.iter_p50_us = 0.0
        self.iter_p99_us = 0.0
        self.iter_count = 0
        #: the host's mean slowdown over the run (hostclock.probe)
        self.slowdown = 1.0
        self.outputs: Optional[Dict[str, Any]] = None
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.layers: Dict[str, Any] = {}


def run_rep(wl: Any, seed: int, reference: Optional[Dict[str, Any]], *,
            tracer: Any = None, gc_meter: Any = None, count: bool = False,
            speed: Any = None) -> Rep:
    """Set up and run ``wl`` once and check every output.

    ``tracer`` (already patched in) is reset between set-up and run, so
    it holds the run's spans only; ``gc_meter`` is armed over set-up and
    run; ``count`` runs under the call-counting profile hook; the
    samples an active ``speed`` probe takes during the run give the
    repetition's slowdown."""
    from repro import UnrSyncWarning

    from perfbench.checks import Checker
    from perfbench.hostclock import cpu_ns, probe
    from perfbench.tracer import count_calls

    rep, chk = Rep(), Checker()
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with gc_meter if gc_meter is not None else contextlib.nullcontext():
                t0 = cpu_ns()
                state = wl.setup(seed)
                t1, w1 = cpu_ns(), perf_counter_ns()
                first_sample = len(speed.samples) if speed is not None else 0
                if tracer is not None:
                    tracer.begin()
                if count:
                    (rep.outputs, iter_ns), rep.layers["calls"] = count_calls(
                        lambda: wl.run(state, chk))
                else:
                    rep.outputs, iter_ns = wl.run(state, chk)
                t2, w2 = cpu_ns(), perf_counter_ns()
            if speed is not None:
                rep.slowdown = statistics.fmean(speed.samples[first_sample:] or [probe()])
            # Only the percentiles are kept, so that peak RSS does not
            # grow with the number of repetitions.
            it_us = sorted(ns / 1e3 for ns in iter_ns)
            rep.iter_p50_us, rep.iter_p99_us = _percentile(it_us, 50), _percentile(it_us, 99)
            rep.iter_count = len(it_us)
            rep.setup_s, rep.run_s = (t1 - t0) / 1e9, (t2 - t1) / 1e9
            rep.run_wall_s = (w2 - w1) / 1e9
            del state
        except Exception as exc:  # noqa: BLE001  # unrlint: disable=UNR005 - a failed repetition is counted, not fatal
            last = traceback.extract_tb(exc.__traceback__)[-1]
            chk.fail_all(wl.planned_ops, f"{type(exc).__name__}: {exc} "
                                         f"({last.filename}:{last.lineno})")
    for w in caught:
        if issubclass(w.category, UnrSyncWarning):
            chk.fail_all(wl.planned_ops, f"UnrSyncWarning: {w.message}")
    if reference is not None and rep.outputs is not None:
        bad = wl.reference_failures(rep.outputs, reference)
        if bad:
            chk.fail_all(wl.planned_ops, f"simulated outputs differ from references: {bad}")
    rep.attempted, rep.failed, rep.errors = chk.attempted, chk.failed, chk.errors
    return rep


def _timed_reps(seconds: float, make: Any) -> List[Rep]:
    """Call ``make()`` at least once, and again while the last call's
    duration says another one still ends within ``seconds``."""
    reps: List[Rep] = []
    t_end = perf_counter_ns() + int(seconds * 1e9)
    last_ns = 0
    while not reps or perf_counter_ns() + last_ns <= t_end:
        t0 = perf_counter_ns()
        reps.append(make())
        last_ns = perf_counter_ns() - t0
    return reps


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(len(sorted_values) * q / 100) - 1)]


def end_to_end(wl: Any, seed: int, seconds: float, reference: Any) -> Dict[str, Any]:
    """``SETUPS`` timed set-ups, then repetitions for ``seconds``; each
    time is reported as the median over its samples.

    Iteration percentiles are taken within each repetition first: a
    spell of load on a shared host then spoils a few repetitions'
    tails instead of the reported p99.  Every time is divided by the
    host's slowdown while it was taken (:mod:`perfbench.hostclock`):
    ``SETUP_PROBES`` probes after each set-up, and the probes that a
    :class:`~perfbench.hostclock.SpeedProbe` takes all through each
    repetition's run."""
    from perfbench.hostclock import SpeedProbe, cpu_ns, probe

    for _ in range(SETUP_WARMUPS):
        wl.setup(seed)
    setups: List[float] = []
    setup_slowdowns: List[float] = []
    for _ in range(SETUPS):
        gc.collect()
        t0 = cpu_ns()
        state = wl.setup(seed)
        setup_ns = cpu_ns() - t0
        del state
        slowdown = statistics.median(probe() for _ in range(SETUP_PROBES))
        setups.append(setup_ns / 1e9 / slowdown)
        setup_slowdowns.append(slowdown)

    with SpeedProbe() as speed:
        reps = _timed_reps(seconds, lambda: run_rep(wl, seed, reference, speed=speed))
    iter_reps = [r for r in reps if r.iter_count]
    med = statistics.median
    values = {
        "setup_s": med(setups),
        "run_s": med(r.run_s / r.slowdown for r in reps),
        "iter_host_us_p50": med(r.iter_p50_us / r.slowdown for r in iter_reps),
        "iter_host_us_p99": med(r.iter_p99_us / r.slowdown for r in iter_reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"reps": len(reps), "setup_samples": len(setups),
              "iter_samples": sum(r.iter_count for r in iter_reps),
              "setup_slowdown": med(setup_slowdowns),
              "run_slowdown": med(r.slowdown for r in reps),
              "probe_samples": len(speed.samples)}
    return {"reps": reps, "values": values, "detail": detail}


def per_layer(wl: Any, seed: int, seconds: float, reference: Any) -> Dict[str, Any]:
    """Untraced reps (with the GC meter), then span reps, then one
    call-count rep; each third of ``seconds`` (at least one rep each)."""
    from perfbench.tracer import GcMeter, Instrumentation, Tracer

    def plain() -> Rep:
        meter = GcMeter()
        rep = run_rep(wl, seed, reference, gc_meter=meter)
        rep.layers["gc"] = meter
        return rep

    tracer = Tracer()

    def spanned() -> Rep:
        rep = run_rep(wl, seed, reference, tracer=tracer)
        rep.layers.update(self_ns=dict(tracer.self_ns), spans=dict(tracer.span_counts),
                          calls=dict(tracer.calls), top_ns=tracer.top_ns)
        return rep

    plain_reps = _timed_reps(seconds / 3, plain)
    with Instrumentation(tracer):
        span_reps = _timed_reps(seconds / 3, spanned)
    count_rep = run_rep(wl, seed, reference, count=True)

    values = layer_metrics(plain_reps, span_reps, count_rep)
    detail = {"plain_reps": len(plain_reps), "span_reps": len(span_reps)}
    # ``tracer`` still holds the last span repetition's spans.
    return {"reps": plain_reps + span_reps + [count_rep], "values": values,
            "detail": detail, "tracer": tracer}


def layer_metrics(plain_reps: List[Rep], span_reps: List[Rep], count_rep: Rep) -> Dict[str, float]:
    med = statistics.median

    def span_stat(fn: Any) -> float:
        return med(fn(r.layers) for r in span_reps)

    def calls(layers: Dict[str, Any], *names: str) -> int:
        return sum(layers["calls"].get(n, 0) for n in names)

    def self_s(*layer_names: str) -> float:
        return span_stat(lambda L: sum(L["self_ns"].get(n, 0) for n in layer_names) / 1e9)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def ops(L: Dict[str, Any]) -> int:
        return calls(L, "TransferEngine.post_op", "Comm.isend")

    pkg_calls = count_rep.layers.get("calls", {})
    core = ("core.api", "core.engine", "core.other")
    recorder = [n for n in span_reps[0].layers["calls"] if n.startswith("Recorder.")]
    run_s = med(r.run_s for r in span_reps)
    gcs = [r.layers["gc"] for r in plain_reps]
    return {
        "sim.events": span_stat(lambda L: calls(L, "Environment.step")),
        "sim.events_per_op": span_stat(lambda L: ratio(calls(L, "Environment.step"), ops(L))),
        "sim.self_s": self_s("sim"),
        "sim.calls": pkg_calls.get("sim", 0),
        "gc.collections": med(g.collections for g in gcs),
        "gc.pause_s": med(g.pause_ns / 1e9 for g in gcs),
        "gc.pause_share": med(ratio(g.pause_ns / 1e9, r.setup_s + r.run_s)
                              for g, r in zip(gcs, plain_reps)),
        "gc.collected_per_collection": med(ratio(g.collected, g.collections) for g in gcs),
        "runtime.lookups": span_stat(
            lambda L: calls(L, "Job.node_of", "Job.nic_of", "Job.local_index")),
        "runtime.self_s": self_s("runtime"),
        "runtime.calls": pkg_calls.get("runtime", 0),
        "core.api.self_s": self_s("core.api"),
        "core.engine.self_s": self_s("core.engine"),
        "core.self_s": self_s(*core),
        "core.sig_wait_resumes_per_wait": span_stat(lambda L: ratio(
            L["spans"].get("UnrEndpoint.sig_wait", 0), calls(L, "UnrEndpoint.sig_wait"))),
        "core.calls": sum(pkg_calls.get(n, 0) for n in core),
        "calls_per_op": ratio(sum(pkg_calls.values()), span_stat(ops)),
        "netsim.posts": span_stat(lambda L: calls(L, "Nic.post_put", "Nic.post_get")),
        "netsim.cq_polls": span_stat(lambda L: calls(
            L, "CompletionQueue.poll", "CompletionQueue.poll_batch",
            "CompletionQueue.poll_batch_into")),
        "netsim.cq_records_per_poll": span_stat(lambda L: ratio(
            calls(L, "CompletionQueue.get", "CompletionQueue.poll:items",
                  "CompletionQueue.poll_batch:items", "CompletionQueue.poll_batch_into:items"),
            calls(L, "CompletionQueue.poll", "CompletionQueue.poll_batch",
                  "CompletionQueue.poll_batch_into"))),
        "netsim.self_s": self_s("netsim"),
        "netsim.calls": pkg_calls.get("netsim", 0),
        "interconnect.posts": span_stat(lambda L: calls(L, "RmaChannel.put", "RmaChannel.get")),
        "interconnect.self_s": self_s("interconnect"),
        "interconnect.calls": pkg_calls.get("interconnect", 0),
        "obs.records": span_stat(lambda L: calls(L, *recorder)),
        "obs.self_s": self_s("obs"),
        "obs.calls": pkg_calls.get("obs", 0),
        "mpi.msgs": span_stat(lambda L: calls(L, "Comm.isend")),
        "mpi.self_s": self_s("mpi"),
        "mpi.calls": pkg_calls.get("mpi", 0),
        "powerllel.self_s": self_s("powerllel"),
        "powerllel.calls": pkg_calls.get("powerllel", 0),
        "trace.run_s": run_s,
        "trace.overhead_ratio": ratio(run_s, med(r.run_s for r in plain_reps)),
        "trace.unattributed_share": med(1.0 - r.layers["top_ns"] / 1e9 / r.run_wall_s
                                        for r in span_reps if r.run_wall_s),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _hermetic_exec()
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT)]

    import numpy as np

    from perfbench.checks import DEFAULT_SEED, check_metric_names
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    reference = None
    if args.seed == DEFAULT_SEED:
        refs = json.loads((ROOT / "perfbench" / "references.json").read_text())
        reference = refs[wl.name]

    measure = per_layer if args.trace else end_to_end
    out = measure(wl, args.seed, args.seconds, reference)
    check_metric_names(declared, out["values"])

    reps: List[Rep] = out["reps"]
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    record = {
        "git_sha": _git_sha(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": wl.name,
        "params": wl.params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "references_checked": reference is not None,
        "simulated_outputs": next((r.outputs for r in reversed(reps) if r.outputs), None),
        "errors": [e for r in reps for e in r.errors][:5],
        **out["detail"],
    }
    if args.trace:
        from perfbench.tracer import write_perfetto

        path = SPANS_DIR / f"spans-{wl.name}-seed{args.seed}.json"
        record["spans_file"] = str(path.relative_to(ROOT))
        write_perfetto(str(path), out["tracer"],
                       {k: record[k] for k in ("workload", "seed", "git_sha")})
    units = {m["name"]: m["unit"] for m in declared}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": out["values"][name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
