"""The parallel cached execution engine: pool speedup and warm-cache
replay.

Two claims are measured:

* fanning a 4-simulator x 6-microbenchmark grid over ``jobs=4`` worker
  processes beats the serial engine by >= 2x (the cells here are
  sleep-bound stand-ins with a fixed per-cell cost, so the ratio
  measures pool overlap rather than this host's core count);
* re-running a real-simulator grid against a populated cache is >= 90%
  hits and reproduces the cold grid's ``to_json`` byte-for-byte.
"""

import time
from dataclasses import dataclass

from repro.core.siminitial import make_sim_initial
from repro.core.simalpha import SimAlpha
from repro.core.simstripped import make_sim_stripped
from repro.exec.cache import ResultCache
from repro.exec.engine import ExperimentEngine
from repro.exec.spec import RunOptions
from repro.result import RunStats, SimResult
from repro.simulators.refmachine import make_native_machine

MICROS = ["C-Ca", "C-R", "C-S1", "E-I", "E-D3", "M-D"]

#: Fixed wall-clock cost of one sleep-bound cell (seconds).
CELL_SECONDS = 0.15


@dataclass(frozen=True)
class SleepConfig:
    name: str
    seconds: float = CELL_SECONDS


class SleepSim:
    """A fake simulator whose only cost is a fixed sleep, so the
    serial/parallel ratio isolates the pool's overlap."""

    def __init__(self, config: SleepConfig):
        self.config = config

    @property
    def name(self) -> str:
        return self.config.name

    def run_trace(self, trace, workload: str, *, observer=None,
                  watchdog=None, blockcache=None) -> SimResult:
        time.sleep(self.config.seconds)
        instructions = len(trace)
        return SimResult(
            simulator=self.name,
            workload=workload,
            cycles=2.0 * instructions,
            instructions=instructions,
            stats=RunStats(),
        )


def sleep_factory(name: str):
    config = SleepConfig(name=name)
    return lambda: SleepSim(config)


def test_pool_speedup_at_jobs_4(harness):
    factories = [sleep_factory(f"sleep-{index}") for index in range(4)]

    started = time.perf_counter()
    serial = ExperimentEngine(harness.workloads).run_grid(factories, MICROS)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel = ExperimentEngine(harness.workloads, RunOptions(jobs=4)).run_grid(
        factories, MICROS
    )
    parallel_s = time.perf_counter() - started

    speedup = serial_s / parallel_s
    cells = len(factories) * len(MICROS)
    print(f"\n{cells} cells x {CELL_SECONDS:.2f}s: "
          f"serial {serial_s:.2f}s, jobs=4 {parallel_s:.2f}s "
          f"-> {speedup:.1f}x")

    assert serial.failures == [] and parallel.failures == []
    assert speedup >= 2.0
    # The pool preserves serial grid order and contents exactly.
    assert parallel.to_json(canonical=True) == serial.to_json(canonical=True)


def test_warm_cache_replays_byte_identically(harness, tmp_path):
    factories = [
        make_native_machine, make_sim_initial, SimAlpha, make_sim_stripped
    ]
    cache = ResultCache(tmp_path / "cells")
    cells = len(factories) * len(MICROS)

    started = time.perf_counter()
    cold = ExperimentEngine(
        harness.workloads, RunOptions(cache=cache)
    ).run_grid(
        factories, MICROS
    )
    cold_s = time.perf_counter() - started
    assert cache.misses == cells and cache.stores == cells

    hits_before = cache.hits
    started = time.perf_counter()
    warm = ExperimentEngine(
        harness.workloads, RunOptions(jobs=4, cache=cache)
    ).run_grid(
        factories, MICROS
    )
    warm_s = time.perf_counter() - started

    hit_rate = (cache.hits - hits_before) / cells
    print(f"\ncold {cold_s:.2f}s -> warm {warm_s:.2f}s "
          f"({hit_rate:.0%} hits, {cache.stores} entries stored)")

    assert warm.failures == []
    assert hit_rate >= 0.90
    # Hits return the stored results verbatim, so even the volatile
    # provenance fields replay: plain to_json is byte-identical.
    assert warm.to_json() == cold.to_json()
