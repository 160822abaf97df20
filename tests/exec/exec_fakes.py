"""Fake simulators for the execution-engine tests.

The fakes follow the :class:`repro.result.Simulator` protocol but cost
nothing to run; their frozen-dataclass configs feed the provenance
hash, so distinct fakes get distinct cache keys exactly like real
simulators.  Worker processes are *forked*, so these classes work as
factories without being importable from the worker or picklable.
"""

import os
import time
from dataclasses import dataclass

from repro.result import RunStats, SimResult


@dataclass(frozen=True)
class FakeConfig:
    name: str
    flavor: str = "ok"
    cycles_per_instr: float = 2.0


class FakeSim:
    """Deterministic, instant fake simulator.

    ``flavor`` selects a failure mode, triggered only on the workload
    named by ``FAIL_WORKLOAD`` so fault isolation is observable next to
    healthy cells: ``"raise"`` throws, ``"crash"`` kills the worker
    process, ``"hang"`` sleeps past any sane timeout.
    """

    FAIL_WORKLOAD = "E-I"
    HANG_SECONDS = 30.0

    def __init__(self, config: FakeConfig):
        self.config = config

    @property
    def name(self) -> str:
        return self.config.name

    def run_trace(self, trace, workload: str, *, observer=None,
                  watchdog=None, blockcache=None) -> SimResult:
        flavor = self.config.flavor
        if workload == self.FAIL_WORKLOAD:
            if flavor == "raise":
                raise RuntimeError(f"{self.name} deliberately failed")
            if flavor == "crash":
                os._exit(17)
            if flavor == "hang":
                time.sleep(self.HANG_SECONDS)
        instructions = len(trace)
        stats = RunStats()
        stats.extra["fake_marker"] = float(instructions)
        return SimResult(
            simulator=self.name,
            workload=workload,
            cycles=instructions * self.config.cycles_per_instr,
            instructions=instructions,
            stats=stats,
        )


def fake_factory(name: str, flavor: str = "ok", cpi: float = 2.0):
    """A simulator factory for one :class:`FakeSim` configuration."""
    config = FakeConfig(name=name, flavor=flavor, cycles_per_instr=cpi)
    return lambda: FakeSim(config)
