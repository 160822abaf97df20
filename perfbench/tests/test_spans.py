"""Span self-time arithmetic, and that probes leave no trace behind."""

import inspect

from spans import Span, Tracer, outermost, probes, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("outer"):
        clock.now = 1.0
        with tracer.span("child"):
            clock.now = 3.0
            with tracer.span("grandchild"):
                clock.now = 3.5
        clock.now = 4.0
        with tracer.span("child"):
            clock.now = 6.0
        clock.now = 10.0
    by_name = {}
    own = self_times(tracer.spans)
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(own[span.id])
    assert by_name["outer"] == [10.0 - 2.5 - 2.0]
    assert sorted(by_name["child"]) == [2.0, 2.0]
    assert by_name["grandchild"] == [0.5]
    # Self times partition the outer span.
    assert sum(own.values()) == 10.0


def test_self_time_of_a_span_whose_parent_is_not_listed():
    spans = [Span("a", 1, parent=0, thread=1, start=0.0, end=2.0)]
    assert self_times(spans) == {1: 2.0}


def test_outermost_skips_nested_spans_of_the_same_family():
    spans = [
        Span("timing.DS-10L", 0, None, 1, 0.0, 5.0),
        Span("timing.DS-10L", 1, 0, 1, 0.5, 4.5),
        Span("cache.get", 2, None, 1, 5.0, 6.0),
        Span("timing.sim-alpha", 3, 2, 1, 5.1, 5.9),
    ]
    assert [s.id for s in outermost(spans, "timing.")] == [0, 3]


def test_window_selects_by_start_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    for start in (0.0, 1.0, 2.0):
        clock.now = start
        with tracer.span("s"):
            clock.now = start + 0.5
    assert [s.start for s in tracer.window(0.5, 2.0)] == [1.0, 2.0]


def test_probes_record_inside_and_are_removed_afterwards():
    from repro.core.simalpha import SimAlpha
    from repro.exec import engine
    from repro.exec.cache import ResultCache
    from repro.workloads import suite
    from repro.workloads.suite import WorkloadSet

    originals = (WorkloadSet.__dict__["trace"], suite.run_program,
                 engine.fingerprint_trace, ResultCache.__dict__["get"],
                 SimAlpha.__dict__["run_trace"])
    tracer = Tracer()
    with probes(tracer):
        assert WorkloadSet.__dict__["trace"] is not originals[0]
        # The harness reads run_trace's keywords through the wrapper.
        assert "blockcache" in inspect.signature(SimAlpha.run_trace).parameters
        WorkloadSet().trace("M-BANK")
    names = {s.name for s in tracer.spans}
    assert {"functional.trace", "functional.run_program"} <= names
    recorded = len(tracer.spans)

    assert (WorkloadSet.__dict__["trace"], suite.run_program,
            engine.fingerprint_trace, ResultCache.__dict__["get"],
            SimAlpha.__dict__["run_trace"]) == originals
    WorkloadSet().trace("M-BANK")
    assert len(tracer.spans) == recorded


def test_probes_are_removed_when_the_traced_run_raises():
    from repro.workloads.suite import WorkloadSet

    original = WorkloadSet.__dict__["trace"]
    try:
        with probes(Tracer()):
            raise RuntimeError("measurement failed")
    except RuntimeError:
        pass
    assert WorkloadSet.__dict__["trace"] is original
