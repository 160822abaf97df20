"""In-memory spans around the program's public entry points.

A traced run installs :func:`probes`, which wraps the layer boundaries
the benchmark measures (trace generation, trace fingerprinting, the
result cache, every simulator's ``run_trace``, grid serialisation, the
service client, the blockcache's run-end report) so each call records
a :class:`Span`.  Spans stay in memory and are written out once, when
the benchmark ends.  Leaving the ``with`` block restores every
original attribute, so an untraced measurement never runs a wrapper.

Forked engine workers inherit the wrappers, but their spans die with
them; the per-cell :class:`~repro.obs.telemetry.CellTelemetry` the
engine already returns covers those cells.  Blockcache counters from
forked workers are appended to ``worker_log`` (one JSON line per
timing run) because nothing else carries them back.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional

#: Span names that time one simulator run (``timing.<simulator>``).
TIMING_PREFIX = "timing."


@dataclass
class Span:
    name: str
    id: int
    parent: Optional[int]
    thread: int
    start: float
    end: float = 0.0
    attrs: Dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict:
        return {
            "name": self.name, "id": self.id, "parent": self.parent,
            "thread": self.thread, "start": self.start, "end": self.end,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects nested spans per thread, plus named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.pid = os.getpid()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        span = Span(
            name=name, id=span_id,
            parent=stack[-1].id if stack else None,
            thread=threading.get_ident(), start=self.clock(), attrs=attrs,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def window(self, start: float, end: float) -> List[Span]:
        """Spans that began inside ``[start, end]``."""
        return [s for s in self.spans if start <= s.start <= end]

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({
                "spans": [s.to_dict() for s in self.spans],
                "counters": self.counters,
            }, handle)


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children
    (children nest inside their parent on one thread, so they never
    overlap each other)."""
    spans = list(spans)
    own = {s.id: s.duration for s in spans}
    for span in spans:
        if span.parent in own:
            own[span.parent] -= span.duration
    return own


def outermost(spans: Iterable[Span], prefix: str) -> List[Span]:
    """Spans named ``prefix*`` whose parent is not one as well (a
    simulator that delegates to another ``run_trace`` is timed once)."""
    spans = list(spans)
    named = {s.id for s in spans if s.name.startswith(prefix)}
    return [
        s for s in spans
        if s.name.startswith(prefix) and s.parent not in named
    ]


# ----------------------------------------------------------------------
# Probes: wrappers installed on the program's public entry points
# ----------------------------------------------------------------------

def _wrap(tracer: Tracer, original: Callable, name: Callable,
          after: Optional[Callable] = None) -> Callable:
    """Wrap ``original`` so each call records a span named
    ``name(args)``; ``after(span, result, args)`` adds attributes.
    ``functools.wraps`` keeps ``inspect.signature`` pointing at the
    original, which the harness reads to decide which keywords a
    ``run_trace`` accepts."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(name(args)) as span:
            result = original(*args, **kwargs)
            if after is not None:
                after(span, result, args)
            return result

    return wrapper


def _targets(tracer: Tracer, worker_log: Optional[str]):
    """(owner, attribute, replacement factory) for every probe."""
    from repro.core.blockcache import BlockCache
    from repro.core.simalpha import SimAlpha
    from repro.exec import engine
    from repro.exec.cache import ResultCache
    from repro.service.client import ServiceClient
    from repro.simulators.refmachine import NativeMachine
    from repro.simulators.simoutorder import SimOutOrder
    from repro.validation.harness import ResultGrid
    from repro.workloads import suite
    from repro.workloads.suite import WorkloadSet

    def fixed(label):
        return lambda args: label

    def count_instructions(span, result, args):
        span.attrs["instructions"] = len(result)

    def note_hit(span, result, args):
        span.attrs["hit"] = result is not None

    def note_run(span, result, args):
        span.attrs["workload"] = result.workload
        span.attrs["instructions"] = result.instructions

    def timing(args):
        return TIMING_PREFIX + args[0].name

    def finish(original):
        @functools.wraps(original)
        def wrapper(self, observer, instructions):
            original(self, observer, instructions)
            stats = self.stats()
            if os.getpid() == tracer.pid:
                tracer.count("blockcache.replayed_instructions",
                              stats["replayed_instructions"])
                tracer.count("blockcache.captures", stats["captures"])
                tracer.count("blockcache.failures", stats["failures"])
            elif worker_log is not None:
                with open(worker_log, "a") as handle:
                    handle.write(json.dumps(stats) + "\n")
        return wrapper

    yield WorkloadSet, "trace", lambda f: _wrap(
        tracer, f, fixed("functional.trace"))
    yield suite, "run_program", lambda f: _wrap(
        tracer, f, fixed("functional.run_program"), count_instructions)
    yield engine, "fingerprint_trace", lambda f: _wrap(
        tracer, f, fixed("cache.fingerprint"))
    yield ResultCache, "get", lambda f: _wrap(
        tracer, f, fixed("cache.get"), note_hit)
    yield ResultCache, "put", lambda f: _wrap(
        tracer, f, fixed("cache.put"))
    for simulator in (SimAlpha, NativeMachine, SimOutOrder):
        yield simulator, "run_trace", lambda f: _wrap(
            tracer, f, timing, note_run)
    yield ResultGrid, "to_json", lambda f: _wrap(
        tracer, f, fixed("serialize.to_json"))
    for method in ("submit", "wait", "result_text"):
        yield ServiceClient, method, lambda f, m=method: _wrap(
            tracer, f, fixed(f"service.{m}"))
    yield BlockCache, "finish", finish


@contextlib.contextmanager
def probes(tracer: Tracer, *, worker_log: Optional[str] = None):
    """Install every probe for the duration of the ``with`` block."""
    saved = []
    try:
        for owner, attr, make in _targets(tracer, worker_log):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def read_worker_log(path: str) -> Dict[str, int]:
    """Sum the blockcache counters forked workers appended."""
    totals = {"replayed_instructions": 0, "captures": 0, "failures": 0}
    if not os.path.exists(path):
        return totals
    with open(path) as handle:
        for line in handle:
            stats = json.loads(line)
            for key in totals:
                totals[key] += stats.get(key, 0)
    return totals
