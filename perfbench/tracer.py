"""Host-time tracing for the benchmark's traced runs.

Everything here lives outside ``src/`` on purpose: the yardstick must
not move when a performance change edits the library's own profiler
or recorder.  Three independent meters, each armed for its own
repetition so that none distorts the others:

* :class:`Tracer` + :class:`Instrumentation` -- spans around calls into
  each layer's public functions, patched in from here.  A layer's self
  time is its span time minus the time of its child spans.
* :class:`GcMeter` -- collector pauses from ``gc.callbacks``.
* :func:`count_calls` -- Python calls per package from a ``cProfile``
  profile hook; the count is exact for a pinned interpreter.
"""

# Host time is what this benchmark measures, so it reads the host clock
# directly rather than through the library's profiler.
# unrlint: disable-file=UNR012

from __future__ import annotations

import cProfile
import functools
import gc
import inspect
import json
import os
from time import perf_counter_ns, process_time_ns
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "GcMeter",
    "Instrumentation",
    "Tracer",
    "count_calls",
    "layer_of",
    "timed_generator",
    "write_perfetto",
]

#: Spans kept for the Perfetto file; aggregates cover every span.  The
#: Fig 7 point makes millions of spans, far more than a trace viewer
#: (or this process's memory) wants.
SPAN_CAP = 50_000

_PERFBENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def _repro_dir() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


_layer_cache: Dict[str, str] = {}


def layer_of(filename: str) -> str:
    """Layer owning the source file ``filename``.

    ``repro/<pkg>/...`` maps to ``<pkg>``, except that ``core`` splits
    into ``core.api`` (the endpoint facade), ``core.engine`` (transfer
    and progress engines) and ``core.other``.  The benchmark's own
    files are ``workload``; everything else (stdlib, NumPy, builtins)
    is ``other``.
    """
    layer = _layer_cache.get(filename)
    if layer is not None:
        return layer
    path = os.path.abspath(filename) if filename[:1] not in ("<", "~") else filename
    repro_dir = _repro_dir()
    if path.startswith(repro_dir):
        parts = path[len(repro_dir):].split(os.sep)
        if len(parts) == 1:
            layer = parts[0][:-3] if parts[0].endswith(".py") else "other"
        elif parts[0] == "core":
            stem = parts[1][:-3]
            layer = f"core.{stem}" if stem in ("api", "engine") else "core.other"
        else:
            layer = parts[0]
    elif path.startswith(_PERFBENCH_DIR):
        layer = "workload"
    else:
        layer = "other"
    _layer_cache[filename] = layer
    return layer


class Tracer:
    """Span stack with online self-time arithmetic.

    ``enter``/``exit`` bracket one span.  On exit the span's duration
    is charged to its parent's child time, and ``duration - child
    time`` to its layer's self time, so nothing is counted twice and
    untraced code inside a span belongs to the innermost span.
    ``clock`` returns integer nanoseconds; tests inject a fake one.
    """

    def __init__(self, clock: Callable[[], int] = perf_counter_ns) -> None:
        self.clock = clock
        self._stack: List[list] = []
        self.begin()

    def begin(self) -> None:
        """Forget everything recorded so far (no span may be open)."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        #: self time per layer, span count per name, calls per wrapped
        #: name, and the time covered by top-level spans
        self.self_ns: Dict[str, int] = {}
        self.span_counts: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.top_ns = 0
        #: (id, parent id, name, layer, start ns, duration ns) of the
        #: first ``SPAN_CAP`` spans
        self.spans: List[Tuple[int, int, str, str, int, int]] = []
        self.dropped = 0
        self._next_id = 0

    def enter(self, name: str, layer: str) -> None:
        stack = self._stack
        self._next_id += 1
        parent = stack[-1][4] if stack else 0
        stack.append([name, layer, self.clock(), 0, self._next_id, parent])

    def exit(self) -> None:
        t = self.clock()
        name, layer, t0, child, sid, parent = self._stack.pop()
        dur = t - t0
        self_ns = self.self_ns
        self_ns[layer] = self_ns.get(layer, 0) + dur - child
        counts = self.span_counts
        counts[name] = counts.get(name, 0) + 1
        if self._stack:
            self._stack[-1][3] += dur
        else:
            self.top_ns += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent, name, layer, t0, dur))
        else:
            self.dropped += 1

    def count(self, name: str, n: int = 1) -> None:
        calls = self.calls
        calls[name] = calls.get(name, 0) + n


def timed_generator(gen: Iterator, name: str, layer: str, tracer: Tracer):
    """Wrap generator ``gen`` so that each resumption is one span.

    Values sent in, exceptions thrown in and ``close`` pass through to
    ``gen`` unchanged (the PEP 380 ``yield from`` expansion, with a
    span around every step of the inner generator).
    """
    enter, exit_ = tracer.enter, tracer.exit
    send, throw = gen.send, gen.throw
    value: Any = None
    exc: Optional[BaseException] = None
    while True:
        enter(name, layer)
        try:
            out = send(value) if exc is None else throw(exc)
        except StopIteration as stop:
            return stop.value
        finally:
            exit_()
        exc = None
        try:
            value = yield out
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as err:  # noqa: BLE001  # unrlint: disable=UNR005 - forwarded into gen, which re-raises it
            exc, value = err, None


def _wrap_call(fn: Callable, name: str, layer: str, tracer: Tracer,
               tally: Optional[Callable[[Any], int]]) -> Callable:
    enter, exit_, count = tracer.enter, tracer.exit, tracer.count
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args: Any, **kwargs: Any) -> Any:
            count(name)
            return timed_generator(fn(*args, **kwargs), name, layer, tracer)
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        count(name)
        enter(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if tally is not None:
            count(name + ":items", tally(result))
        return result
    return wrapper


def _targets() -> List[Tuple[type, str, Optional[Callable[[Any], int]]]]:
    """(class, method, tally) for every call the traced run brackets."""
    from repro.core import UnrEndpoint
    from repro.core.engine import TransferEngine
    from repro.interconnect import RmaChannel
    from repro.mpi import Comm
    from repro.netsim import Nic
    from repro.netsim.nic import CompletionQueue
    from repro.obs import Recorder
    from repro.runtime import Job
    from repro.sim import Environment
    from repro.sim.scheduler import CalendarScheduler

    targets: List[Tuple[type, str, Optional[Callable[[Any], int]]]] = [
        (Environment, "step", None),
        (CalendarScheduler, "push", None),
        (CalendarScheduler, "pop", None),
        (Job, "node_of", None),
        (Job, "nic_of", None),
        (Job, "local_index", None),
        (Nic, "post_put", None),
        (Nic, "post_get", None),
        (CompletionQueue, "get", None),
        (CompletionQueue, "poll", lambda r: 0 if r is None else 1),
        (CompletionQueue, "poll_batch", len),
        (CompletionQueue, "poll_batch_into", int),
        (RmaChannel, "put", None),
        (RmaChannel, "get", None),
        (TransferEngine, "prepare_put", None),
        (TransferEngine, "prepare_get", None),
        (TransferEngine, "prepare_ctrl", None),
        (TransferEngine, "post_op", None),
    ]
    for cls in (UnrEndpoint, Comm, Recorder):
        for attr, value in vars(cls).items():
            if not attr.startswith("_") and inspect.isfunction(value):
                targets.append((cls, attr, None))
    return targets


_MISSING = object()


class Instrumentation:
    """Context manager patching span wrappers into the library.

    Install it before the job is built, so that no library object has
    captured an unwrapped bound method, and leave it after the run:
    ``__exit__`` restores every patched attribute.  Besides the public
    methods of :func:`_targets`, ``Environment.process`` and
    ``Environment.defer`` are wrapped so that every process resumption
    and every deferred callback becomes a span of the layer whose code
    it runs.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[type, str, Any]] = []

    def _patch(self, cls: type, attr: str, value: Any) -> None:
        self._saved.append((cls, attr, cls.__dict__.get(attr, _MISSING)))
        setattr(cls, attr, value)

    def __enter__(self) -> "Instrumentation":
        from repro.sim import Environment

        tracer = self.tracer
        try:
            for cls, attr, tally in _targets():
                fn = getattr(cls, attr)
                name = f"{cls.__name__}.{attr}"
                self._patch(cls, attr, _wrap_call(
                    fn, name, layer_of(fn.__code__.co_filename), tracer, tally))
            self._patch(Environment, "process", _traced_process(Environment.process, tracer))
            self._patch(Environment, "defer", _traced_defer(Environment.defer, tracer))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._saved:
            cls, attr, old = self._saved.pop()
            if old is _MISSING:
                delattr(cls, attr)
            else:
                setattr(cls, attr, old)


def _traced_process(orig: Callable, tracer: Tracer) -> Callable:
    def process(env: Any, generator: Any, name: str = "") -> Any:
        code = getattr(generator, "gi_code", None)
        if code is None:  # not a plain generator: run it unwrapped
            return orig(env, generator, name)
        wrapped = timed_generator(
            generator, "resume " + code.co_qualname, layer_of(code.co_filename), tracer)
        wrapped.__name__ = generator.__name__  # Process names stay unchanged
        return orig(env, wrapped, name)
    return process


def _traced_defer(orig: Callable, tracer: Tracer) -> Callable:
    enter, exit_ = tracer.enter, tracer.exit

    def defer(env: Any, delay: float, fn: Callable[[Any], None], value: Any = None) -> Any:
        code = getattr(fn, "__code__", None)
        if code is None:  # not a Python function: run it unwrapped
            return orig(env, delay, fn, value)
        name, layer = "deferred " + code.co_qualname, layer_of(code.co_filename)

        def run(arg: Any) -> None:
            enter(name, layer)
            try:
                fn(arg)
            finally:
                exit_()
        return orig(env, delay, run, value)
    return defer


class GcMeter:
    """Collector pauses (process CPU time, like the end-to-end times),
    collections and objects collected, from ``gc.callbacks``; a context
    manager that installs and removes it."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_ns = 0
        self.collected = 0
        self._t0 = 0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._t0 = process_time_ns()
        else:
            self.pause_ns += process_time_ns() - self._t0
            self.collections += 1
            self.collected += info["collected"]

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self)


def count_calls(fn: Callable[[], Any]) -> Tuple[Any, Dict[str, int]]:
    """Run ``fn()`` under a ``cProfile`` hook; return its value and the
    number of calls (including generator resumptions) per layer.
    Built-in functions count under ``builtins``."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        value = fn()
    finally:
        prof.disable()
    calls: Dict[str, int] = {}
    for entry in prof.getstats():
        code = entry.code
        layer = "builtins" if isinstance(code, str) else layer_of(code.co_filename)
        calls[layer] = calls.get(layer, 0) + entry.callcount
    return value, calls


def write_perfetto(path: str, tracer: Tracer, metadata: Dict[str, Any]) -> None:
    """Write ``tracer.spans`` as Chrome/Perfetto trace-event JSON.

    Each span is a complete (``"X"``) event on one track, its layer as
    the category and ``args.parent`` linking it to the enclosing span
    (0 for a top-level span)."""
    spans = sorted(tracer.spans, key=lambda s: (s[4], -s[5]))
    base = spans[0][4] if spans else 0
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": "perfbench " + str(metadata.get("workload", ""))}},
    ]
    for sid, parent, name, layer, t0, dur in spans:
        events.append({
            "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
            "ts": (t0 - base) / 1000.0, "dur": dur / 1000.0,
            "args": {"id": sid, "parent": parent},
        })
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "metadata": dict(metadata, spans_kept=len(spans), spans_dropped=tracer.dropped),
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh)
