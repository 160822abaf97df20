"""The benchmark-trajectory harness: pinned perf suite + regression gate.

ROADMAP item 1 wants the timing core 10-100x faster; a perf campaign
needs a *trajectory* — comparable measurements over time — or every
"optimization" is an anecdote.  :func:`run_bench` runs a pinned suite
and emits a schema-versioned artifact (``BENCH_<label>.json``); the
first artifact is committed with the PR that introduced the harness,
and every subsequent perf PR appends its own point.
:func:`compare_artifacts` diffs two artifacts and reports regressions
past a configurable threshold — the CLI (``repro bench --compare OLD
NEW``) exits non-zero on any, which is the CI gate.

Two kinds of metric, distinguished by their ``gate`` flag:

* **informational** (``gate=False``) — raw simulator throughput
  (per-workload KIPS).  Machine-dependent; tracked for the trajectory
  but never gated, because CI hardware is not your hardware.
* **gated** (``gate=True``) — machine-portable *ratios*: engine
  parallel speedup on sleep-bound cells, warm-cache hit rate,
  disabled-instrumentation overhead, profiler coverage, and the
  blockcache warm-replay speedup on M-LOOP (detailed wall / fast-path
  wall on the same trace — both sides run on the same host, so the
  ratio is hardware-independent).  These compare meaningfully across
  hosts, so a regression past the threshold is a real defect, not
  noise.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Tuple

from repro.core.simalpha import SimAlpha
from repro.exec.cache import ResultCache
from repro.exec.spec import RunOptions
from repro.obs.observer import Instrumentation
from repro.obs.provenance import _package_version
from repro.result import SimResult
from repro.validation.harness import Harness
from repro.workloads.suite import WorkloadSet

__all__ = [
    "BENCH_FORMAT",
    "DEFAULT_KIPS_WORKLOADS",
    "BLOCKCACHE_CHECK_WORKLOADS",
    "run_bench",
    "run_blockcache_check",
    "write_artifact",
    "load_artifact",
    "compare_artifacts",
    "render_comparison",
]

BENCH_FORMAT = "repro-bench/1"

#: The pinned KIPS suite: one compute-bound, one ILP, one memory-bound
#: microbenchmark (small enough for CI smoke, varied enough to catch a
#: hot-loop regression that only bites one behaviour class).
DEFAULT_KIPS_WORKLOADS: Tuple[str, ...] = ("C-S1", "E-D3", "M-D")

#: Wall seconds each sleep-bound fake cell "computes" for (the parallel
#: speedup probe; sleeping makes the measured speedup a property of the
#: engine's scheduling, not of host CPU count or speed).
_SLEEP_CELL_S = 0.05


class _SleepSim:
    """A simulator whose cost is pure wall time: the speedup probe.

    Sleep-bound cells parallelise perfectly, so serial/parallel wall
    time measures the engine's fan-out overhead and nothing about the
    host's arithmetic throughput — the most machine-portable speedup
    probe available.
    """

    name = "bench-sleep"

    def run_trace(self, trace, workload: str = "", *, observer=None,
                  watchdog=None, blockcache=None) -> SimResult:
        time.sleep(_SLEEP_CELL_S)
        return SimResult(
            simulator=self.name,
            workload=workload,
            cycles=1.0,
            instructions=len(trace),
        )


class _SleepSim2(_SleepSim):
    """Second sleep-bound identity (a grid needs distinct sim names)."""

    name = "bench-sleep-2"


def _metric(value: float, unit: str, *, gate: bool,
            higher_is_better: bool) -> Dict:
    return {
        "value": float(value),
        "unit": unit,
        "gate": gate,
        "higher_is_better": higher_is_better,
    }


def _bench_kips(workloads: WorkloadSet, names, rounds: int) -> Dict[str, Dict]:
    """Best-of-``rounds`` KIPS per pinned workload (informational)."""
    harness = Harness(workloads)
    metrics: Dict[str, Dict] = {}
    best: Dict[str, float] = {}
    for _ in range(rounds):
        for name in names:
            result = harness.run_one(SimAlpha, name)
            kips = result.telemetry.kips if result.telemetry else 0.0
            if kips > best.get(name, 0.0):
                best[name] = kips
    for name in names:
        metrics[f"kips.sim-alpha.{name}"] = _metric(
            best[name], "kips", gate=False, higher_is_better=True
        )
    return metrics


def _bench_parallel_speedup(workloads: WorkloadSet, names) -> Dict[str, Dict]:
    """Serial / jobs=2 wall-time ratio over sleep-bound fake cells."""
    # Two factories x the pinned workloads = enough cells for two
    # workers to stay busy; traces are already built (and cached) by
    # the KIPS pass, so only the sleeps are timed.
    factories = [_SleepSim, _SleepSim2]
    names = list(names)
    for name in names:
        workloads.trace(name)
    t0 = time.perf_counter()
    Harness(workloads).run_grid(factories, names)
    serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    Harness(workloads).run_grid(factories, names, RunOptions(jobs=2))
    parallel = time.perf_counter() - t0
    speedup = serial / parallel if parallel > 0 else 0.0
    return {
        "engine.parallel_speedup_j2": _metric(
            speedup, "x", gate=True, higher_is_better=True
        ),
    }


def _bench_warm_cache(workloads: WorkloadSet, names,
                      cache_root: str) -> Dict[str, Dict]:
    """Hit rate of a second grid run against a just-populated cache."""
    cold = ResultCache(cache_root)
    Harness(workloads).run_grid([SimAlpha], names, RunOptions(cache=cold))
    warm = ResultCache(cache_root)
    Harness(workloads).run_grid([SimAlpha], names, RunOptions(cache=warm))
    probes = warm.hits + warm.misses
    rate = warm.hits / probes if probes else 0.0
    return {
        "cache.warm_hit_rate": _metric(
            rate, "fraction", gate=True, higher_is_better=True
        ),
    }


def _bench_disabled_overhead(workloads: WorkloadSet, name: str,
                             rounds: int) -> Dict[str, Dict]:
    """Disabled-instrumentation / bare wall-time ratio (the <5%
    contract, continuously measured)."""
    trace = workloads.trace(name)
    baseline = float("inf")
    disabled = float("inf")
    for _ in range(max(2, rounds)):
        t0 = time.perf_counter()
        SimAlpha().run_trace(trace, name)
        baseline = min(baseline, time.perf_counter() - t0)
        inst = Instrumentation.disabled()
        harness = Harness(workloads)
        t0 = time.perf_counter()
        harness.run_one(SimAlpha, name, instrumentation=inst)
        disabled = min(disabled, time.perf_counter() - t0)
    ratio = disabled / baseline if baseline > 0 else 0.0
    return {
        "obs.disabled_overhead_ratio": _metric(
            ratio, "ratio", gate=True, higher_is_better=False
        ),
    }


def _bench_profiler_coverage(workloads: WorkloadSet,
                             name: str) -> Dict[str, Dict]:
    """Fraction of run wall-time the profiler's phase table explains
    (the >=95% attribution contract, continuously measured)."""
    inst = Instrumentation(profile=True)
    Harness(workloads).run_one(SimAlpha, name, instrumentation=inst)
    prof = inst.last_profiler()
    coverage = prof.coverage if prof is not None else 0.0
    return {
        "profiler.coverage": _metric(
            coverage, "fraction", gate=True, higher_is_better=True
        ),
    }


def _bench_blockcache(workloads: WorkloadSet, rounds: int) -> Dict[str, Dict]:
    """Blockcache off / on wall-time ratio on the M-LOOP kernel.

    M-LOOP is a steady all-hit loop, so the fast path replays nearly
    all of it; the detailed run and the fast run execute on the same
    host back to back, making the ratio machine-portable.  Gated: a
    drop means the trace-compilation layer stopped engaging (a
    steadiness or pre-scan regression), not that the host got slower.
    """
    from repro.workloads.micro import memory_loop

    workloads.register(memory_loop())
    trace = workloads.trace("M-LOOP")
    detailed = float("inf")
    fast = float("inf")
    for _ in range(max(2, rounds)):
        t0 = time.perf_counter()
        SimAlpha().run_trace(trace, "M-LOOP", blockcache=False)
        detailed = min(detailed, time.perf_counter() - t0)
        t0 = time.perf_counter()
        SimAlpha().run_trace(trace, "M-LOOP")
        fast = min(fast, time.perf_counter() - t0)
    speedup = detailed / fast if fast > 0 else 0.0
    return {
        "blockcache.warm_replay_speedup": _metric(
            speedup, "x", gate=True, higher_is_better=True
        ),
    }


#: The blockcache-check kernels: one replay-dominated loop (M-LOOP),
#: one moderately steady kernel (E-I), and three that must *fall back*
#: (branchy C-Ca, missing M-D, DRAM-bound M-ROW) — equivalence must
#: hold whether the fast path engages or not.
BLOCKCACHE_CHECK_WORKLOADS: Tuple[str, ...] = (
    "M-LOOP", "M-I", "E-I", "C-Ca", "M-D", "M-ROW",
)


def run_blockcache_check(
    *,
    workload_names=BLOCKCACHE_CHECK_WORKLOADS,
    workloads: Optional[WorkloadSet] = None,
) -> Tuple[str, bool]:
    """Byte-equivalence audit of the trace-compiled fast path.

    Runs every kernel twice — detailed loop only, then with the
    blockcache enabled — and compares the canonical serialisations
    (``ResultGrid.to_json(canonical=True)``), which cover every stat,
    CPI-relevant count, and provenance-stable field.  Returns the
    report and whether every pair was byte-identical.
    """
    from repro.validation.harness import ResultGrid
    from repro.workloads.micro import memory_loop

    workloads = workloads or WorkloadSet()
    if "M-LOOP" in workload_names:
        workloads.register(memory_loop())
    lines = []
    ok = True
    for name in workload_names:
        trace = workloads.trace(name)
        t0 = time.perf_counter()
        detailed = SimAlpha().run_trace(trace, name, blockcache=False)
        t_detailed = time.perf_counter() - t0
        t0 = time.perf_counter()
        fast = SimAlpha().run_trace(trace, name)
        t_fast = time.perf_counter() - t0
        grid_a = ResultGrid()
        grid_a.add(detailed)
        grid_b = ResultGrid()
        grid_b.add(fast)
        same = (
            grid_a.to_json(canonical=True) == grid_b.to_json(canonical=True)
        )
        ok = ok and same
        ratio = t_detailed / t_fast if t_fast > 0 else 0.0
        lines.append(
            f"{name:<8} {len(trace):>8} instrs  "
            f"{'identical' if same else 'DIVERGED':<10} "
            f"detailed {t_detailed:6.3f}s  fast {t_fast:6.3f}s  "
            f"({ratio:4.1f}x)"
        )
    verdict = (
        "blockcache equivalence: every kernel byte-identical"
        if ok else
        "blockcache equivalence FAILED: fast path diverged from the "
        "detailed loop"
    )
    return "\n".join(lines + [verdict]), ok


def run_bench(
    *,
    label: str = "local",
    workloads: Optional[WorkloadSet] = None,
    kips_workloads=DEFAULT_KIPS_WORKLOADS,
    rounds: int = 2,
    cache_root: Optional[str] = None,
    progress=None,
) -> Dict:
    """Run the pinned suite; returns the schema-versioned artifact.

    ``rounds`` controls best-of-N for the wall-time-sensitive probes.
    ``cache_root`` overrides where the warm-cache probe builds its
    scratch cache (a temporary directory by default).  ``progress`` is
    an optional ``callable(str)`` narrating the stages.
    """
    workloads = workloads or WorkloadSet()
    names = list(kips_workloads)

    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    metrics: Dict[str, Dict] = {}
    say(f"kips suite: {', '.join(names)} (best of {rounds})")
    metrics.update(_bench_kips(workloads, names, rounds))
    say("engine parallel speedup (sleep-bound cells, jobs=2)")
    metrics.update(_bench_parallel_speedup(workloads, names))
    say("warm-cache hit rate")
    if cache_root is not None:
        metrics.update(_bench_warm_cache(workloads, names, cache_root))
    else:
        import tempfile

        with tempfile.TemporaryDirectory() as scratch:
            metrics.update(_bench_warm_cache(workloads, names, scratch))
    say(f"disabled-instrumentation overhead on {names[0]}")
    metrics.update(_bench_disabled_overhead(workloads, names[0], rounds))
    say(f"profiler coverage on {names[0]}")
    metrics.update(_bench_profiler_coverage(workloads, names[0]))
    say("blockcache warm-replay speedup on M-LOOP")
    metrics.update(_bench_blockcache(workloads, rounds))

    return {
        "format": BENCH_FORMAT,
        "label": label,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "package_version": _package_version(),
        "metrics": metrics,
    }


def write_artifact(payload: Dict, path: str) -> None:
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_artifact(path: str) -> Dict:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != BENCH_FORMAT:
        raise ValueError(
            f"not a bench artifact: format={payload.get('format')!r} "
            f"(expected {BENCH_FORMAT!r})"
        )
    return payload


def compare_artifacts(
    old: Dict, new: Dict, *, threshold: float = 0.15
) -> Tuple[List[Dict], List[Dict]]:
    """Diff two artifacts; returns ``(rows, regressions)``.

    Every metric present in both artifacts gets a row (name, old, new,
    relative change, gated or not).  A *regression* is a gated metric
    whose value moved in its bad direction by more than ``threshold``
    (relative).  Informational metrics never regress, whatever they do.
    """
    rows: List[Dict] = []
    regressions: List[Dict] = []
    old_metrics = old.get("metrics", {})
    new_metrics = new.get("metrics", {})
    for name in sorted(set(old_metrics) & set(new_metrics)):
        before = old_metrics[name]
        after = new_metrics[name]
        ov, nv = before["value"], after["value"]
        change = (nv - ov) / ov if ov else 0.0
        gate = bool(before.get("gate")) and bool(after.get("gate"))
        higher = bool(after.get("higher_is_better", True))
        # Positive regress = moved in the bad direction.
        regress = -change if higher else change
        row = {
            "name": name,
            "old": ov,
            "new": nv,
            "change": change,
            "gate": gate,
            "regression": gate and regress > threshold,
        }
        rows.append(row)
        if row["regression"]:
            regressions.append(row)
    return rows, regressions


def render_comparison(rows: List[Dict], regressions: List[Dict],
                      *, threshold: float) -> str:
    """Human-readable comparison table plus verdict line."""
    lines = [f"{'metric':<34} {'old':>12} {'new':>12} {'change':>8}"]
    for row in rows:
        flag = ""
        if row["regression"]:
            flag = "  REGRESSION"
        elif not row["gate"]:
            flag = "  (info)"
        lines.append(
            f"{row['name']:<34} {row['old']:>12.3f} {row['new']:>12.3f} "
            f"{row['change'] * 100:>7.1f}%{flag}"
        )
    if regressions:
        lines.append(
            f"{len(regressions)} gated metric(s) regressed past "
            f"{threshold * 100:g}%"
        )
    else:
        lines.append(
            f"no gated regressions (threshold {threshold * 100:g}%)"
        )
    return "\n".join(lines)
