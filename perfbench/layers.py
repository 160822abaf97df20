"""Per-layer metrics of a traced run, named after the program's modules.

Layer seconds are per unit (one cold grid, or one warm-service pass):
the spans that began inside a unit's window, summed, divided by the
unit count.  A layer a workload never reaches reads 0.
"""

from __future__ import annotations

from typing import Dict, List

import stats
from spans import TIMING_PREFIX, Tracer, outermost, self_times
from workloads import Measurement

SIMULATORS = ("DS-10L", "sim-initial", "sim-alpha", "sim-stripped",
              "sim-outorder")

#: Spans the harness opens while it computes a job (service worker
#: thread); whatever else a job's latency holds is service overhead.
HARNESS_SPANS = ("functional.", "cache.", TIMING_PREFIX, "serialize.")

#: End-to-end metrics whose tracing overhead is reported.
E2E = ("grid_wall_s", "job_p50_s", "job_p90_s", "peak_rss_mb", "setup_s")


def _total(spans, name: str) -> float:
    return sum(s.duration for s in spans if s.name == name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: Measurement, untraced: Measurement, tracer: Tracer,
              worker_counters: Dict[str, int]) -> Dict[str, float]:
    units = traced.units
    windows = [tracer.window(u.start, u.layer_end) for u in units]
    spans = [s for window in windows for s in window]
    n = len(units)
    out: Dict[str, float] = {}

    # functional / workloads
    run_program = [s for s in spans if s.name == "functional.run_program"]
    out["functional.trace_s"] = _total(spans, "functional.trace") / n
    out["functional.kips"] = _ratio(
        sum(s.attrs["instructions"] for s in run_program) / 1000.0,
        sum(s.duration for s in run_program))

    # exec.cache
    gets = [s for s in spans if s.name == "cache.get"]
    out["cache.fingerprint_s"] = _total(spans, "cache.fingerprint") / n
    out["cache.get_s"] = _total(spans, "cache.get") / n
    out["cache.put_s"] = _total(spans, "cache.put") / n
    out["cache.probes"] = len(gets) / n
    out["cache.hit_frac"] = _ratio(
        sum(1 for s in gets if s.attrs["hit"]), len(gets))

    # timing core: in-process run_trace spans, plus forked cells'
    # telemetry (their spans died with the worker).
    timing = outermost(spans, TIMING_PREFIX)
    seconds = {sim: 0.0 for sim in SIMULATORS}
    instructions = {sim: 0 for sim in SIMULATORS}
    for span in timing:
        sim = span.name[len(TIMING_PREFIX):]
        seconds[sim] = seconds.get(sim, 0.0) + span.duration
        instructions[sim] = instructions.get(sim, 0) + \
            span.attrs["instructions"]
    forked = [c for c in traced.cells if c.forked and c.ok]
    for cell in forked:
        seconds[cell.simulator] = seconds.get(cell.simulator, 0.0) + \
            cell.latency_s
        instructions[cell.simulator] = instructions.get(
            cell.simulator, 0) + cell.instructions
    for sim in SIMULATORS:
        out[f"timing.{sim}.s"] = seconds[sim] / n
        out[f"timing.{sim}.kips"] = _ratio(
            instructions[sim] / 1000.0, seconds[sim])
    cell_seconds = sum(seconds.values())
    timed_instructions = sum(instructions.values())

    # core.blockcache
    counters = dict(tracer.counters)
    for key, value in worker_counters.items():
        name = f"blockcache.{key}"
        counters[name] = counters.get(name, 0) + value
    out["blockcache.replayed_frac"] = _ratio(
        counters.get("blockcache.replayed_instructions", 0),
        timed_instructions)
    out["blockcache.captures"] = counters.get("blockcache.captures", 0) / n
    out["blockcache.failures"] = counters.get("blockcache.failures", 0) / n

    # integrity
    armed, unarmed = traced.armed_vs_unarmed or (0.0, 0.0)
    out["integrity.armed_ratio"] = _ratio(armed, unarmed)
    out["integrity.quarantined"] = sum(
        1 for c in traced.cells if c.kind == "invariant") / n

    # exec.engine (cold grids): what the layers above leave of the wall.
    cold = not units[0].job_windows
    if cold:
        own = self_times(spans)
        in_grid = [s for w, u in zip(windows, units) for s in w
                   if s.start <= u.end]
        layer_time = sum(own[s.id] for s in in_grid)
        jobs = units[0].jobs
        forked_time = sum(c.latency_s for c in traced.cells if c.forked)
        wall = sum(u.wall_s for u in units)
        out["engine.dispatch_s"] = (wall - layer_time - forked_time / jobs) / n
        out["engine.worker_busy_frac"] = _ratio(cell_seconds, jobs * wall)
    else:
        out["engine.dispatch_s"] = 0.0
        out["engine.worker_busy_frac"] = 0.0

    # service (warm-service): per-job medians.
    submit = [s.duration for s in spans if s.name == "service.submit"]
    result = [s.duration for s in spans if s.name == "service.result_text"]
    out["service.submit_s"] = stats.median(submit) if submit else 0.0
    out["service.result_s"] = stats.median(result) if result else 0.0
    out["service.overhead_s"] = (
        stats.median(_job_overheads(traced, tracer)) if not cold else 0.0)

    # validation.harness serialisation
    out["serialize.to_json_s"] = _total(spans, "serialize.to_json") / n

    out["cell_fail_frac"] = _ratio(traced.failed, traced.attempted)
    out["alpha_err_pct"] = traced.alpha_err()[0]

    traced_e2e, untraced_e2e = traced.end_to_end(), untraced.end_to_end()
    for name in E2E:
        out[f"trace_overhead.{name}"] = traced_e2e[name] - untraced_e2e[name]
    return out


def _job_overheads(traced: Measurement, tracer: Tracer) -> List[float]:
    """Per job: latency minus the harness spans it caused (the spans
    the service worker thread opened inside the job's window)."""
    overheads = []
    for unit in traced.units:
        for start, end in unit.job_windows:
            window = [s for s in tracer.window(start, end)
                      if s.name.startswith(HARNESS_SPANS)]
            own = self_times(window)
            overheads.append(end - start - sum(own.values()))
    return overheads
