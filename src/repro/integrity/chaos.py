"""Chaos harness: prove the process pool survives real crashes.

:mod:`repro.integrity.faultinject` corrupts *simulators* and demands
the sanitizers catch them; this module attacks the **execution path**
one level up — the engine's fork-per-cell pool, the parent that
supervises it, and the checkpoint journal the parent writes — and
demands the grid invariants hold:

========================  =============================================
scenario                  what it proves
========================  =============================================
``clean-control``         an undisturbed ``jobs=2`` run is byte-identical
                          to the serial run (the yardstick every other
                          scenario is measured against)
``worker-sigkill``        SIGKILL a live pool worker mid-grid: with
                          ``retries=1`` its cell is retried and the grid
                          is byte-identical; with ``retries=0`` the cell
                          settles as a ``kind="crash"`` failure and every
                          other cell still completes
``parent-kill``           SIGKILL the parent (and its workers) of a
                          checkpointed ``jobs=2`` run, then resume: every
                          journaled cell is recovered (zero recompute of
                          completed work), the grid is byte-identical
``journal-corruption``    a damaged journal on resume raises a
                          ``ValueError`` naming its path and is left
                          untouched — raise, never discard
========================  =============================================

Every scenario must end **complete and byte-identical**
(``ResultGrid.to_json(canonical=True)`` against the serial baseline)
or with a diagnosable :class:`CellFailure` — never a hang and never a
silently missing or doubled cell.  :attr:`ChaosReport.all_passed` is
the CI gate (the ``chaos-smoke`` job runs the kill scenarios under a
hard wall-clock timeout precisely so a hang fails loudly).

The faults come from outside the engine — a signal from the
``progress`` callback, a killed process group, a file overwritten on
disk — so only production code paths run, with no test doubles inside
the engine.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import shutil
import signal
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.exec.spec import RunOptions
from repro.integrity.checkpoint import GridCheckpoint
from repro.obs.registry import MetricsRegistry
from repro.result import RunStats, SimResult
from repro.validation.harness import Harness
from repro.workloads.suite import WorkloadSet

__all__ = [
    "CHAOS_SCENARIOS",
    "ChaosOutcome",
    "ChaosReport",
    "run_chaos_scenario",
    "run_chaos_suite",
]

#: Workloads every scenario runs (small but two-family).
CHAOS_WORKLOADS = ("C-R", "E-I")
#: Simulator columns per scenario grid.
CHAOS_SIMS = 4
#: Pool width of every chaos grid.
CHAOS_JOBS = 2


# -- the workload under chaos ----------------------------------------------


@dataclass(frozen=True)
class _ChaosConfig:
    name: str
    cycles_per_instr: float = 2.0
    #: Per-cell wall-clock padding, widening the window in which a
    #: kill scenario can land mid-grid.
    delay_s: float = 0.0


class _ChaosSim:
    """Deterministic, nearly-free simulator for pool chaos runs (the
    faults live in the execution path here, never in the simulator)."""

    def __init__(self, config: _ChaosConfig):
        self.config = config

    @property
    def name(self) -> str:
        return self.config.name

    def run_trace(self, trace, workload: str, *, observer=None,
                  watchdog=None, blockcache=None) -> SimResult:
        if self.config.delay_s:
            time.sleep(self.config.delay_s)
        instructions = len(trace)
        stats = RunStats()
        stats.extra["chaos_marker"] = float(instructions)
        return SimResult(
            simulator=self.name,
            workload=workload,
            cycles=instructions * self.config.cycles_per_instr,
            instructions=instructions,
            stats=stats,
        )


def _chaos_factory(name: str, *, cpi: float, delay_s: float = 0.0):
    config = _ChaosConfig(
        name=name, cycles_per_instr=cpi, delay_s=delay_s
    )
    return lambda: _ChaosSim(config)


def _factories(delay_s: float = 0.0):
    return [
        _chaos_factory(f"chaos-{i}", cpi=1.0 + 0.5 * i, delay_s=delay_s)
        for i in range(CHAOS_SIMS)
    ]


def _baseline(workloads: WorkloadSet, names, delay_s: float = 0.0) -> str:
    """Canonical serialisation of the undisturbed serial run — the
    byte-identity yardstick.  Must use the *same* factories as the
    chaos run (``delay_s`` is part of the frozen config and therefore
    of the provenance hash, so the baseline cannot substitute faster
    ones)."""
    grid = Harness(workloads=workloads).run_grid(
        _factories(delay_s), list(names)
    )
    return grid.to_json(canonical=True)


def _counters(metrics: MetricsRegistry) -> Dict[str, int]:
    return {
        name: int(value)
        for name, value in metrics.snapshot()["counters"].items()
        if name.startswith("exec.")
    }


# -- outcomes ---------------------------------------------------------------


@dataclass
class ChaosOutcome:
    """Verdict of one chaos scenario."""

    scenario: str
    description: str
    passed: bool
    #: Final grid matched the serial baseline byte-for-byte under
    #: canonical serialisation (``journal-corruption``, which builds
    #: no grid: the damaged journal's bytes were left as they were).
    byte_identical: bool
    detail: str = ""
    elapsed_s: float = 0.0
    #: ``exec.*`` counters after the run — the engine's own account of
    #: what happened (retries, failures, resumed cells).
    counters: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)


@dataclass
class ChaosReport:
    """The full chaos verdict across scenarios."""

    outcomes: List[ChaosOutcome] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return bool(self.outcomes) and all(
            outcome.passed for outcome in self.outcomes
        )

    def to_json(self) -> str:
        payload = {"outcomes": [o.to_dict() for o in self.outcomes]}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def render(self) -> str:
        header = (
            f"{'scenario':<22} {'passed':<7} {'identical':<10} detail"
        )
        lines = [header, "-" * len(header)]
        for outcome in self.outcomes:
            lines.append(
                f"{outcome.scenario:<22} "
                f"{'yes' if outcome.passed else 'FAIL':<7} "
                f"{'yes' if outcome.byte_identical else 'NO':<10} "
                f"{outcome.detail}"
            )
        return "\n".join(lines)


def _outcome(name: str, started: float, identical: bool, problem: str,
             summary: str, counters: Dict[str, int]) -> ChaosOutcome:
    description, _ = CHAOS_SCENARIOS[name]
    passed = identical and not problem
    return ChaosOutcome(
        scenario=name, description=description, passed=passed,
        byte_identical=identical,
        detail=summary if passed else problem,
        elapsed_s=round(time.perf_counter() - started, 3),
        counters=counters,
    )


# -- scenarios --------------------------------------------------------------


def _scenario_clean_control(workloads: WorkloadSet) -> ChaosOutcome:
    names = list(CHAOS_WORKLOADS)
    baseline = _baseline(workloads, names)
    metrics = MetricsRegistry()
    started = time.perf_counter()
    grid = Harness(workloads, metrics=metrics).run_grid(
        _factories(), names, RunOptions(jobs=CHAOS_JOBS)
    )
    counters = _counters(metrics)
    identical = grid.to_json(canonical=True) == baseline
    problem = "" if identical else "grid diverged from serial baseline"
    if identical and (counters.get("exec.cells.retried")
                      or counters.get("exec.cells.failed")):
        problem = "control run should neither retry nor fail a cell"
    return _outcome(
        "clean-control", started, identical, problem,
        f"completed={counters.get('exec.cells.completed', 0)}", counters,
    )


class _WorkerKiller:
    """A ``progress`` callback that SIGKILLs the pool worker launched
    for the ``at``-th cell attempt, once.

    The engine calls ``progress`` in the parent right after forking a
    worker, so the only live child not seen at an earlier call is that
    cell's worker: killing it lands before the cell can report."""

    def __init__(self, at: int):
        self.at = at
        self.calls = 0
        self.seen: set = set()
        self.killed: Optional[tuple] = None

    def __call__(self, simulator: str, workload: str) -> None:
        self.calls += 1
        fresh = [
            child for child in multiprocessing.active_children()
            if child.pid not in self.seen
        ]
        self.seen.update(child.pid for child in fresh)
        if self.killed is None and self.calls >= self.at and len(fresh) == 1:
            os.kill(fresh[0].pid, signal.SIGKILL)
            self.killed = (simulator, workload)


def _scenario_worker_sigkill(workloads: WorkloadSet) -> ChaosOutcome:
    """SIGKILL one live worker per run: retried with ``retries=1``,
    settled as ``kind="crash"`` with ``retries=0``."""
    names = list(CHAOS_WORKLOADS)
    baseline = _baseline(workloads, names, 0.1)
    started = time.perf_counter()

    metrics = MetricsRegistry()
    killer = _WorkerKiller(at=3)
    grid = Harness(workloads, metrics=metrics).run_grid(
        _factories(0.1), names,
        RunOptions(jobs=CHAOS_JOBS, retries=1), progress=killer,
    )
    counters = _counters(metrics)
    identical = grid.to_json(canonical=True) == baseline
    problem = ""
    if killer.killed is None:
        problem = "no worker was killed (grid too fast?)"
    elif not identical:
        problem = (
            f"retried grid diverged from serial baseline "
            f"({len(grid.failures)} failures)"
        )
    elif counters.get("exec.cells.retried") != 1:
        problem = (
            f"expected one retry, engine counted "
            f"{counters.get('exec.cells.retried', 0)}"
        )
    if problem:
        return _outcome(
            "worker-sigkill", started, identical, problem, "", counters
        )

    # No retry budget: the killed cell must settle as a crash, and
    # every other cell must still equal its serial result.
    no_retry = _WorkerKiller(at=3)
    settled = Harness(workloads).run_grid(
        _factories(0.1), names,
        RunOptions(jobs=CHAOS_JOBS, retries=0), progress=no_retry,
    )
    def by_cell(text: str) -> Dict[tuple, Dict]:
        return {
            (entry["simulator"], entry["workload"]): entry
            for entry in json.loads(text)["results"]
        }

    expected = by_cell(baseline)
    survivors = by_cell(settled.to_json(canonical=True))
    failures = [(f.simulator, f.workload, f.kind)
                for f in settled.failures]
    if no_retry.killed is None:
        problem = "no worker was killed in the retries=0 run"
    elif failures != [no_retry.killed + ("crash",)]:
        problem = (
            f"killed {no_retry.killed} with retries=0 but the grid "
            f"recorded failures {failures}"
        )
    elif survivors != {
        cell: entry for cell, entry in expected.items()
        if cell != no_retry.killed
    }:
        problem = "surviving cells diverged from the serial baseline"
    sim, workload = no_retry.killed or ("", "")
    return _outcome(
        "worker-sigkill", started, identical, problem,
        f"retried={counters.get('exec.cells.retried', 0)}; retries=0: "
        f"{sim} on {workload} settled as crash",
        counters,
    )


def _parent_child(path: str, names: Sequence[str]) -> None:
    """Body of the victim parent: a checkpointed ``jobs=2`` grid."""
    os.setpgrp()  # its own process group, so the kill takes the pool too
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    Harness(WorkloadSet()).run_grid(
        _factories(0.25), list(names),
        RunOptions(jobs=CHAOS_JOBS, checkpoint=path),
    )
    os._exit(0)


def _journaled(path: str) -> int:
    """Cells in the journal at ``path`` (flushes are atomic renames, so
    a reader never sees a torn file)."""
    return len(GridCheckpoint(path).load())


def _scenario_parent_kill(workloads: WorkloadSet) -> ChaosOutcome:
    """SIGKILL a checkpointed grid's parent (and its pool workers)
    after at least two journaled cells; a resumed run must recover
    every journaled cell without recomputing it."""
    names = list(CHAOS_WORKLOADS)
    total = len(names) * CHAOS_SIMS
    baseline = _baseline(workloads, names, 0.25)
    tmp = tempfile.mkdtemp(prefix="repro-chaos-parent-")
    path = os.path.join(tmp, "grid.journal")
    ctx = multiprocessing.get_context("fork")
    started = time.perf_counter()
    child = ctx.Process(target=_parent_child, args=(path, names))
    child.start()
    try:
        deadline = time.monotonic() + 60.0
        while (time.monotonic() < deadline and child.is_alive()
               and _journaled(path) < 2):
            time.sleep(0.02)
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.join(timeout=10.0)
        journaled = _journaled(path)
        if not 2 <= journaled < total:
            return _outcome(
                "parent-kill", started, False,
                f"parent killed with {journaled} of {total} cells "
                f"journaled (needs at least 2 and not all)", "", {},
            )
        metrics = MetricsRegistry()
        grid = Harness(workloads, metrics=metrics).run_grid(
            _factories(0.25), names,
            RunOptions(jobs=CHAOS_JOBS, checkpoint=path, resume=True),
        )
        counters = _counters(metrics)
        identical = grid.to_json(canonical=True) == baseline
        resumed = counters.get("exec.checkpoint.resumed", 0)
        computed = counters.get("exec.cells.completed", 0)
        problem = ""
        if not identical:
            problem = "resumed grid diverged from serial baseline"
        elif resumed != journaled:
            problem = (
                f"{resumed} of {journaled} journaled cells resumed — "
                f"completed work was recomputed"
            )
        elif resumed + computed != total:
            problem = (
                f"resumed ({resumed}) + computed ({computed}) != total "
                f"cells ({total})"
            )
        return _outcome(
            "parent-kill", started, identical, problem,
            f"killed with {journaled} journaled, resumed={resumed}, "
            f"computed={computed}",
            counters,
        )
    finally:
        if child.is_alive():  # pragma: no cover - cleanup race
            child.kill()
            child.join(timeout=5.0)
        shutil.rmtree(tmp, ignore_errors=True)


def _scenario_journal_corruption(workloads: WorkloadSet) -> ChaosOutcome:
    """Resume over a damaged journal: the engine must raise a
    ``ValueError`` naming the path and leave the bytes on disk
    untouched, so no completed work is ever silently discarded."""
    names = list(CHAOS_WORKLOADS)
    tmp = tempfile.mkdtemp(prefix="repro-chaos-journal-")
    path = os.path.join(tmp, "grid.journal")
    damaged = b"{corrupt! this is not a journal"
    with open(path, "wb") as handle:
        handle.write(damaged)
    metrics = MetricsRegistry()
    started = time.perf_counter()
    try:
        try:
            Harness(workloads, metrics=metrics).run_grid(
                _factories(), names,
                RunOptions(jobs=CHAOS_JOBS, checkpoint=path, resume=True),
            )
        except ValueError as exc:
            error = str(exc)
        else:
            error = ""
        with open(path, "rb") as handle:
            untouched = handle.read() == damaged
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    counters = _counters(metrics)
    problem = ""
    if not error:
        problem = "resume over a damaged journal did not raise"
    elif path not in error:
        problem = f"the error does not name the journal: {error}"
    elif not untouched:
        problem = "the damaged journal was rewritten"
    elif counters.get("exec.cells.launched"):
        problem = "cells ran despite the damaged journal"
    return _outcome(
        "journal-corruption", started, untouched, problem,
        "raised ValueError naming the journal; file untouched", counters,
    )


#: scenario name -> (description, implementation).
CHAOS_SCENARIOS: Dict[str, tuple] = {
    "clean-control": (
        "undisturbed jobs=2 run, byte-identical to serial",
        _scenario_clean_control,
    ),
    "worker-sigkill": (
        "SIGKILL a pool worker mid-grid; retried, or settled as crash",
        _scenario_worker_sigkill,
    ),
    "parent-kill": (
        "SIGKILL a checkpointed parent, then resume from its journal",
        _scenario_parent_kill,
    ),
    "journal-corruption": (
        "resume over a damaged journal raises and leaves it untouched",
        _scenario_journal_corruption,
    ),
}


def run_chaos_scenario(
    name: str, workloads: Optional[WorkloadSet] = None,
) -> ChaosOutcome:
    """Run one scenario by registry name."""
    try:
        _, implementation = CHAOS_SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown chaos scenario {name!r}; known: "
            f"{', '.join(sorted(CHAOS_SCENARIOS))}"
        ) from None
    return implementation(workloads or WorkloadSet())


def run_chaos_suite(
    scenarios: Optional[Sequence[str]] = None,
    workloads: Optional[WorkloadSet] = None,
) -> ChaosReport:
    """Run the named scenarios (default: all, registry order)."""
    workloads = workloads or WorkloadSet()
    report = ChaosReport()
    for name in scenarios or list(CHAOS_SCENARIOS):
        report.outcomes.append(run_chaos_scenario(name, workloads))
    return report
