"""The perfect machine: a dataflow-limit simulator.

An analytical upper bound on any configuration of any of our machines:
infinite fetch/issue/retire width, perfect prediction, a perfect
memory system (every load hits at the L1 latency), no structural
limits of any kind.  Only true data dependences and instruction
latencies remain, so ``cycles == the critical path of the dataflow
graph``.

The paper's framing makes such a bound useful twice over: it shows how
far *all* real machines sit from dataflow (sim-outorder's optimism is
a step in this direction, not the limit), and it gives a quick sanity
ceiling when tuning workload proxies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.functional.trace import DynInstr
from repro.isa.instructions import InstrClass
from repro.result import RunStats, SimResult

__all__ = ["PerfectConfig", "PerfectMachine"]


@dataclass(frozen=True)
class PerfectConfig:
    name: str = "perfect-dataflow"
    #: Load-to-use latency applied to every load (a perfect L1).
    load_latency: int = 3


class PerfectMachine:
    """Times traces at the dataflow limit."""

    def __init__(self, config: PerfectConfig | None = None):
        self.config = config or PerfectConfig()

    @property
    def name(self) -> str:
        return self.config.name

    def run_trace(
        self,
        trace: Sequence[DynInstr],
        workload: str = "",
        *,
        observer=None,
        watchdog=None,
        blockcache=None,
    ) -> SimResult:
        load_latency = self.config.load_latency
        reg_ready: Dict[str, float] = {}
        critical_path = 0.0
        for dyn in trace:
            start = 0.0
            for src in dyn.srcs:
                t = reg_ready.get(src)
                if t is not None and t > start:
                    start = t
            if dyn.is_load:
                latency = load_latency
            elif dyn.klass is InstrClass.NOP:
                latency = 0
            else:
                latency = dyn.latency
            done = start + latency
            if dyn.dest is not None and dyn.dest not in ("r31", "f31"):
                reg_ready[dyn.dest] = done
            if done > critical_path:
                critical_path = done
        return SimResult(
            simulator=self.config.name,
            workload=workload,
            cycles=max(critical_path, 1.0),
            instructions=len(trace),
            stats=RunStats(),
        )
