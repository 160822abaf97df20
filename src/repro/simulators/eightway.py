"""An idealized 8-way issue simulator (the Figure 2 comparison).

Paper Section 5.3: "A recent study measured the performance effects of
multi-cycle register file delays, with and without complete bypassing
[Cruz et al.].  That study used an in-house, 8-way issue simulator."
Figure 2 contrasts that simulator's IPCs (tall bars, large bypass
sensitivity) with sim-alpha configured alike (much lower IPCs, little
sensitivity at 2-cycle/partial).

We therefore need an *abstract, wide, unconstrained* machine: 8-wide
fetch/issue/commit, a 256-entry window, large predictors, no clusters,
no slotting, no replay traps, and an idealized memory system.  Its only
sharp edge is the register file under study: ``access_cycles`` deepens
the pipeline, and removing full bypass puts ``access_cycles - 1``
bubbles between dependent instructions — which, on a machine this
wide, is exactly what dominates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Sequence

from repro.core.config import RegFileConfig
from repro.functional.trace import DynInstr
from repro.isa.instructions import InstrClass
from repro.memory.cache import Cache, CacheConfig
from repro.predictors.ras import RasConfig, ReturnAddressStack
from repro.predictors.twolevel import TwoLevelConfig, TwoLevelPredictor
from repro.result import RunStats, SimResult

__all__ = ["EightWayConfig", "EightWaySim"]


@dataclass(frozen=True)
class EightWayConfig:
    name: str = "8-way-inhouse"
    width: int = 8
    window: int = 256
    front_depth: int = 3
    mispredict_penalty: int = 2
    regfile: RegFileConfig = field(default_factory=RegFileConfig)
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 2, 64, name="dl1")
    )
    l1_latency: int = 2
    l2_latency: int = 10
    dram_latency: int = 50
    predictor: TwoLevelConfig = field(
        default_factory=lambda: TwoLevelConfig(history_bits=14,
                                               pattern_entries=16384)
    )

    def with_regfile(self, access_cycles: int, full_bypass: bool) -> "EightWayConfig":
        label = (
            f"{self.name}-rf{access_cycles}"
            f"{'full' if full_bypass else 'partial'}"
        )
        return replace(
            self,
            name=label,
            regfile=RegFileConfig(access_cycles, full_bypass),
        )


class EightWaySim:
    """Dependence-limited timing for the idealized wide machine."""

    def __init__(self, config: EightWayConfig | None = None):
        self.config = config or EightWayConfig()

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
        cfg = self.config
        stats = RunStats()
        dl1 = Cache(cfg.l1d)
        l2 = Cache(CacheConfig(2 * 1024 * 1024, 1, 64, name="l2"))
        bpred = TwoLevelPredictor(cfg.predictor)
        ras = ReturnAddressStack(RasConfig(depth=32))

        regread_extra = cfg.regfile.access_cycles - 1
        bypass_penalty = (
            0 if cfg.regfile.full_bypass
            else max(0, cfg.regfile.access_cycles - 1)
        )
        depth = cfg.front_depth + regread_extra

        reg_ready: Dict[str, float] = {}
        window_ring: list = []
        window_head = 0
        issue_slots: Dict[int, int] = {}
        fetch_slots: Dict[int, int] = {}
        pending_redirect = 0.0
        fetch_cursor = 0.0
        last_commit = 0.0
        final_commit = 0.0

        for dyn in trace:
            klass = dyn.klass
            fetch_at = max(pending_redirect, fetch_cursor)
            cycle = int(fetch_at)
            while fetch_slots.get(cycle, 0) >= cfg.width:
                cycle += 1
            fetch_slots[cycle] = fetch_slots.get(cycle, 0) + 1
            fetch_time = float(cycle) if cycle > fetch_at else fetch_at
            fetch_cursor = float(cycle)

            if klass is InstrClass.HALT:
                final_commit = max(final_commit, fetch_time + depth + 1)
                continue

            dispatch = fetch_time + depth
            if len(window_ring) - window_head >= cfg.window:
                oldest = window_ring[window_head]
                window_head += 1
                if window_head > 8192:
                    del window_ring[:window_head]
                    window_head = 0
                if oldest > dispatch:
                    dispatch = oldest

            data_ready = dispatch + 1
            for src in dyn.srcs:
                t = reg_ready.get(src)
                if t is not None and t > data_ready:
                    data_ready = t

            issue_time = data_ready
            cycle = int(issue_time)
            while issue_slots.get(cycle, 0) >= cfg.width:
                cycle += 1
            issue_slots[cycle] = issue_slots.get(cycle, 0) + 1
            if cycle > issue_time:
                issue_time = float(cycle)

            if dyn.is_load:
                hit = dl1.access(dyn.eaddr).hit
                if hit:
                    complete = issue_time + cfg.l1_latency
                else:
                    stats.dcache_misses += 1
                    complete = issue_time + (
                        cfg.l2_latency if l2.access(dyn.eaddr).hit
                        else cfg.dram_latency
                    )
            elif dyn.is_store:
                dl1.access(dyn.eaddr, write=True)
                complete = issue_time + 1
            else:
                complete = issue_time + dyn.latency

            if dyn.is_control:
                mispredicted = False
                if klass is InstrClass.COND_BRANCH:
                    stats.branch_lookups += 1
                    if bpred.predict_and_train(dyn.pc, dyn.taken) != dyn.taken:
                        stats.branch_mispredicts += 1
                        mispredicted = True
                elif klass is InstrClass.RETURN:
                    if not ras.predict_and_pop(dyn.next_pc):
                        mispredicted = True
                elif klass is InstrClass.CALL:
                    ras.push(dyn.fallthrough_pc)
                if mispredicted:
                    pending_redirect = max(
                        pending_redirect, complete + cfg.mispredict_penalty
                    )

            if dyn.dest is not None and dyn.dest not in ("r31", "f31"):
                reg_ready[dyn.dest] = complete + bypass_penalty

            commit = max(complete + 1, last_commit)
            last_commit = commit
            final_commit = max(final_commit, commit)
            window_ring.append(commit)

            if len(fetch_slots) > 65536:
                horizon = int(fetch_time) - 64
                fetch_slots = {c: n for c, n in fetch_slots.items() if c > horizon}
                issue_slots = {c: n for c, n in issue_slots.items() if c > horizon}

        return SimResult(
            simulator=cfg.name,
            workload=workload,
            cycles=max(final_commit, 1.0),
            instructions=len(trace),
            stats=stats,
        )
