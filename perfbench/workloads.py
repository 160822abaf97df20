"""The benchmark's three workloads and their output checks.

Each workload is a closed loop driven from this process (at most two
worker processes).  :func:`prepare` makes a workload's inputs from the
seed, untimed; :func:`measure` then runs it for at least ``seconds``
seconds.  The per-layer view of a traced run comes from :mod:`layers`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exec.cache import ResultCache
from repro.exec.spec import (
    ExperimentSpec, RunOptions, register_simulator, simulator_registry,
)
from repro.service.app import ServiceApp, build_server
from repro.service.client import ServiceClient
from repro.simulators.refmachine import NativeMachine
from repro.validation.harness import Harness, ResultGrid
from repro.validation.metrics import percent_error_cpi
from repro.workloads.macro import SPEC2000_PROFILES, build_macro
from repro.workloads.suite import WORKLOAD_FAMILIES, WorkloadSet

import host
import stats
from spans import probes

#: Table 2 (microbenchmarks) and Table 3 (SPEC2000 proxies) columns.
TABLE2_SIMS = ("DS-10L", "sim-initial", "sim-alpha", "sim-outorder")
TABLE3_SIMS = ("DS-10L", "sim-alpha", "sim-stripped", "sim-outorder")

#: The microbenchmarks the cold micro grid and the service jobs use:
#: the first representative of each subsystem family the repository
#: defines (``WORKLOAD_FAMILIES``: control C-Ca, execute E-I, memory
#: M-D, DRAM M-ROW).  The full 23-kernel Table 2 grid takes about a
#: minute on a 2-core host, more than one run's time budget.
MICRO = tuple(members[0] for members in WORKLOAD_FAMILIES.values())
MACRO = tuple(SPEC2000_PROFILES)

#: Offset between the shipped proxy seeds and a re-seeded run's.
SEED_STRIDE = 1000

#: Pool width of the macro grid and the cache fill.
JOBS = 2

#: Service jobs a warm-service run completes at least, so p90 has ten
#: samples beyond it.
MIN_JOBS = stats.samples_for(90.0)

#: Import plus construction, timed in a fresh interpreter.
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
from repro.exec import engine
from repro.exec.cache import ResultCache
from repro.exec.spec import simulator_registry
from repro.validation.harness import Harness
from repro.workloads.suite import WorkloadSet
simulator_registry()
Harness(WorkloadSet(), metrics=None)
ResultCache(sys.argv[1])
print(time.perf_counter() - t0)
"""


def factories(names: Sequence[str]):
    """Zero-argument factories by simulator name.  ``DS-10L`` is
    registered (for service specs too) as the DCPI-measured
    :class:`NativeMachine` the Table 2/3 drivers use."""
    register_simulator("DS-10L", NativeMachine)
    registry = simulator_registry()
    return [registry[name] for name in names]


def macro_programs(seed: int):
    """The SPEC2000 proxy programs for ``seed`` (0: shipped profiles)."""
    programs = []
    for profile in SPEC2000_PROFILES.values():
        if seed:
            profile = dataclasses.replace(
                profile, seed=profile.seed + SEED_STRIDE * seed
            )
        programs.append(build_macro(profile))
    return programs


def fresh_workloads(programs) -> WorkloadSet:
    workloads = WorkloadSet()
    for program in programs:
        workloads.register(program)
    return workloads


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def stable_digest(text: str) -> str:
    """SHA-256 of a grid's canonical JSON with each failure's wall time
    (``elapsed_s``) zeroed: ``to_json(canonical=True)`` keeps that
    field, so a grid with quarantined cells never serialises the same
    way twice."""
    payload = json.loads(text)
    for failure in payload["failures"]:
        failure["elapsed_s"] = 0.0
    return digest(json.dumps(payload, sort_keys=True))


@dataclass
class Cell:
    simulator: str
    workload: str
    latency_s: float
    ok: bool
    #: Timed in a forked worker (its spans are lost; telemetry counts).
    forked: bool = False
    instructions: int = 0
    kind: str = "ok"


@dataclass
class Unit:
    """One timed unit: a cold grid, or one warm-service pass."""

    start: float
    end: float
    cells: List[Cell]
    grid: ResultGrid
    #: SHA-256 of ``to_json(canonical=True)``, and the
    #: :func:`stable_digest` the repeat check compares.
    digest: str
    stable: str
    problems: List[str]
    jobs: int = 1
    setup_s: Optional[float] = None
    #: warm-service: (submit, result received) per job.
    job_windows: List[Tuple[float, float]] = field(default_factory=list)
    #: When the unit's own serialisation (for its digest) finished;
    #: spans up to here are attributed to the unit.
    settled: float = 0.0
    peak_rss_mb: float = 0.0

    @property
    def layer_end(self) -> float:
        return max(self.end, self.settled)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


@dataclass
class Measurement:
    """The units one mode (untraced or traced) of a run measured."""

    workload: str
    units: List[Unit] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    #: integrity.armed_ratio inputs: (armed, unarmed) cell seconds.
    armed_vs_unarmed: Optional[Tuple[float, float]] = None

    @property
    def cells(self) -> List[Cell]:
        return [c for u in self.units for c in u.cells]

    def latencies(self) -> List[float]:
        """Per-job latency (warm-service) or per-cell latency (cold)."""
        if self.units and self.units[0].job_windows:
            return [e - s for u in self.units for s, e in u.job_windows]
        return [c.latency_s for c in self.cells]

    @property
    def jobs_done(self) -> int:
        return sum(len(u.job_windows) for u in self.units)

    @property
    def attempted(self) -> int:
        return len(self.cells)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cells if not c.ok)

    @property
    def problems(self) -> List[str]:
        return [p for u in self.units for p in u.problems]

    def alpha_err(self) -> Tuple[float, int]:
        return alpha_error(self.units[-1].grid)

    def end_to_end(self) -> Dict[str, float]:
        latencies = self.latencies()
        return {
            "grid_wall_s": stats.median([u.wall_s for u in self.units]),
            "job_p50_s": stats.percentile(latencies, 50.0),
            "job_p90_s": stats.percentile(latencies, 90.0),
            "peak_rss_mb": max(u.peak_rss_mb for u in self.units),
            "setup_s": stats.median(self.setup_s),
        }


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

def check_grid(grid: ResultGrid, sims: Sequence[str],
               names: Sequence[str], workloads: WorkloadSet) -> List[str]:
    """Problems with ``grid``: a missing or duplicated cell, a result
    that did not time its whole trace or has a non-finite IPC, or a
    canonical serialisation that does not round-trip byte-identically."""
    problems = []
    seen = [(r.simulator, r.workload)
            for per_sim in grid.results.values() for r in per_sim.values()]
    seen += [(f.simulator, f.workload) for f in grid.failures]
    expected = [(s, w) for w in names for s in sims]
    if sorted(seen) != sorted(expected):
        problems.append("grid cells do not match the requested grid")
    for per_sim in grid.results.values():
        for result in per_sim.values():
            if result.instructions != len(workloads.trace(result.workload)):
                problems.append(
                    f"{result.simulator}/{result.workload}: timed "
                    f"{result.instructions} of "
                    f"{len(workloads.trace(result.workload))} instructions")
            if not (math.isfinite(result.ipc) and result.ipc > 0):
                problems.append(
                    f"{result.simulator}/{result.workload}: IPC {result.ipc}")
    text = grid.to_json(canonical=True)
    if ResultGrid.from_json(text).to_json(canonical=True) != text:
        problems.append("canonical grid JSON does not round-trip")
    return problems


def alpha_error(grid: ResultGrid) -> Tuple[float, int]:
    """Mean |CPI error| (%) of sim-alpha against DS-10L over the
    workloads where both cells succeeded, and that workload count."""
    alpha = grid.results.get("sim-alpha", {})
    native = grid.results.get("DS-10L", {})
    errors = [
        abs(percent_error_cpi(alpha[w].cpi, native[w].cpi))
        for w in alpha if w in native
    ]
    if not errors:
        return float("nan"), 0
    return sum(errors) / len(errors), len(errors)


def grid_cells(grid: ResultGrid, parent_pid: int, pooled: bool) -> List[Cell]:
    cells = []
    for per_sim in grid.results.values():
        for result in per_sim.values():
            telemetry = result.telemetry
            cells.append(Cell(
                result.simulator, result.workload, telemetry.wall_s, True,
                forked=telemetry.pid != parent_pid,
                instructions=result.instructions,
            ))
    for failure in grid.failures:
        cells.append(Cell(
            failure.simulator, failure.workload, failure.elapsed_s, False,
            forked=pooled, kind=failure.kind,
        ))
    return cells


# ----------------------------------------------------------------------
# Cold grids
# ----------------------------------------------------------------------

def measure_setup(workdir: str, repeats: int) -> List[float]:
    """Import plus Harness/WorkloadSet/ResultCache construction, each
    timed in its own fresh interpreter."""
    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    samples = []
    for i in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE,
             os.path.join(workdir, f"setup-cache-{i}")],
            env=env, check=True, capture_output=True, text=True,
            timeout=120,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def cold_grid(sims, names, programs, workdir: str, *, jobs: int,
              sanitize: bool) -> Unit:
    """One cold grid: fresh WorkloadSet, empty result cache."""
    workloads = fresh_workloads(programs)
    cache_dir = os.path.join(workdir, f"cold-cache-{time.time_ns()}")
    cache = ResultCache(cache_dir)
    harness = Harness(workloads)
    options = RunOptions(jobs=jobs, cache=cache, sanitize=sanitize)
    makers = factories(sims)
    start = time.perf_counter()
    grid = harness.run_grid(makers, names, options)
    end = time.perf_counter()
    text = grid.to_json(canonical=True)
    settled = time.perf_counter()
    shutil.rmtree(cache_dir, ignore_errors=True)
    return Unit(start, end, grid_cells(grid, os.getpid(), jobs > 1), grid,
                digest(text), stable_digest(text),
                check_grid(grid, sims, names, workloads),
                jobs=jobs, settled=settled)


@dataclass
class Prepared:
    """Inputs made from the seed, before anything is timed."""

    workload: str
    workdir: str
    programs: list
    #: warm-service: job order, filled cache, canonical fill cells.
    order: List[str] = field(default_factory=list)
    fill_dir: str = ""
    expected: Dict[Tuple[str, str], str] = field(default_factory=dict)


def prepare(workload: str, seed: int, workdir: str) -> Prepared:
    programs = [] if workload == "micro-cold" else macro_programs(seed)
    prepared = Prepared(workload, workdir, programs)
    if workload == "warm-service":
        prepared.order = list(MICRO + MACRO)
        if seed:
            random.Random(seed).shuffle(prepared.order)
        prepared.fill_dir = os.path.join(workdir, "fill-cache")
        prepared.expected = fill_cache(programs, prepared.fill_dir)
    return prepared


def measure(prepared: Prepared, seconds: float, setup_repeats: int, say,
            tracer=None, worker_log: Optional[str] = None,
            deadline: float = math.inf) -> List[Measurement]:
    """Measure ``prepared`` for at least ``seconds``.

    Untraced, returns one :class:`Measurement`.  With a ``tracer``, every
    round runs one untraced and one traced unit, alternating which goes
    first, and returns both measurements (untraced first): neither side
    gets the warm-up of the first unit, so their difference is the
    tracing overhead rather than the order they ran in.

    No round starts that would end after ``deadline`` (a
    ``time.perf_counter()`` value, judged by the last round's length),
    so a slow host still finishes in time, with fewer samples.
    """
    modes = [None] if tracer is None else [None, tracer]
    runs = [Measurement(prepared.workload) for _ in modes]
    workload = prepared.workload
    cold = workload != "warm-service"
    if cold:
        setup = measure_setup(prepared.workdir, setup_repeats)
        for run in runs:
            run.setup_s = list(setup)
    began = time.perf_counter()
    rounds, round_s = 0, 0.0
    while (not rounds
           or time.perf_counter() - began < seconds * len(modes)
           or (not cold and runs[0].jobs_done < MIN_JOBS)):
        if rounds and time.perf_counter() + round_s > deadline:
            say(f"WARNING: stopping after {rounds} rounds to finish in "
                f"time; {len(runs[0].latencies())} samples")
            break
        round_began = time.perf_counter()
        order = list(range(len(modes)))
        if rounds % 2:
            order.reverse()
        for index in order:
            mode = modes[index]
            host.reset_peak_rss()
            with (probes(mode, worker_log=worker_log) if mode
                  else contextlib.nullcontext()):
                unit = cold_unit(prepared) if cold else service_pass(prepared)
            unit.peak_rss_mb = max(
                host.peak_rss_mb(),
                host.children_peak_rss_mb() if cold else 0.0)
            run = runs[index]
            run.units.append(unit)
            if not cold:
                run.setup_s.append(unit.setup_s)
            say(f"{workload} {'traced' if mode else 'untraced'} unit "
                f"{len(run.units)}: {unit.wall_s:.3f}s "
                f"failed_cells={sum(not c.ok for c in unit.cells)} "
                f"sha256={unit.digest} stable={unit.stable}")
        rounds += 1
        round_s = time.perf_counter() - round_began
    return runs


def cold_unit(prepared: Prepared) -> Unit:
    if prepared.workload == "micro-cold":
        return cold_grid(TABLE2_SIMS, MICRO, [], prepared.workdir,
                         jobs=1, sanitize=False)
    return cold_grid(TABLE3_SIMS, MACRO, prepared.programs,
                     prepared.workdir, jobs=JOBS, sanitize=True)


def armed_vs_unarmed(prepared: Prepared, armed: Unit) -> Tuple[float, float]:
    """Cell seconds of the macro grid armed vs unarmed, over the cells
    that succeeded in both."""
    unit = cold_grid(TABLE3_SIMS, MACRO, prepared.programs,
                     prepared.workdir, jobs=JOBS, sanitize=False)
    unarmed = {(c.simulator, c.workload): c.latency_s
               for c in unit.cells if c.ok}
    both = [(c.latency_s, unarmed[(c.simulator, c.workload)])
            for c in armed.cells
            if c.ok and (c.simulator, c.workload) in unarmed]
    return sum(a for a, _ in both), sum(u for _, u in both)


# ----------------------------------------------------------------------
# Warm service
# ----------------------------------------------------------------------

def job_sims(workload: str) -> Tuple[str, ...]:
    return TABLE3_SIMS if workload in MACRO else TABLE2_SIMS


def job_cells(sims, workload: str, latency_s: float, ok: bool) -> List[Cell]:
    """The cells of one one-workload service job; a failed job counts
    every one of them as failed."""
    return [Cell(sim, workload, latency_s, ok) for sim in sims]


def fill_cache(programs, cache_dir: str) -> Dict[Tuple[str, str], str]:
    """Run every Table 2 and Table 3 cell of the job set into
    ``cache_dir``; returns each cell's canonical JSON."""
    workloads = fresh_workloads(programs)
    cache = ResultCache(cache_dir)
    harness = Harness(workloads)
    canonical = {}
    for sims, names in ((TABLE2_SIMS, MICRO), (TABLE3_SIMS, MACRO)):
        grid = harness.run_grid(factories(sims), names,
                                RunOptions(jobs=JOBS, cache=cache))
        problems = check_grid(grid, sims, names, workloads)
        if problems or grid.failures:
            raise RuntimeError(f"cache fill failed: {problems or grid.failures}")
        for per_sim in grid.results.values():
            for result in per_sim.values():
                canonical[(result.simulator, result.workload)] = (
                    json.dumps(result.canonical_dict(), sort_keys=True))
    return canonical


class _Server:
    """A fresh ServiceApp + HTTP server on 127.0.0.1, stopped on exit."""

    def __init__(self, root: str, programs):
        self.app = ServiceApp(root, workloads=fresh_workloads(programs))
        self.server = build_server(self.app, host="127.0.0.1", port=0)
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True)
        self.thread.start()
        host_, port = self.server.server_address[:2]
        self.client = ServiceClient(host_, port, timeout=60.0)

    def wait_healthy(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            try:
                self.client.healthz()
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def close(self) -> None:
        self.server.shutdown()
        self.thread.join(timeout=30.0)
        self.server.server_close()
        self.app.shutdown(timeout=30.0)


def service_pass(prepared: Prepared) -> Unit:
    """One pass: fresh server, every job submitted and awaited in turn."""
    expected = prepared.expected
    root = os.path.join(prepared.workdir, f"service-{time.time_ns()}")
    shutil.copytree(prepared.fill_dir, os.path.join(root, "cache"))
    t0 = time.perf_counter()
    server = _Server(root, prepared.programs)
    problems, cells, windows, combined = [], [], [], ResultGrid()
    try:
        server.wait_healthy()
        setup = time.perf_counter() - t0
        start = time.perf_counter()
        for workload in prepared.order:
            sims = job_sims(workload)
            spec = ExperimentSpec(simulators=sims, workloads=(workload,))
            submitted = time.perf_counter()
            job = server.client.submit(spec, reuse=False)
            status = server.client.wait(job["id"], timeout=120.0)
            text = (server.client.result_text(job["id"])
                    if status["state"] == "done" else "")
            received = time.perf_counter()
            windows.append((submitted, received))
            ok = status["state"] == "done"
            if ok:
                grid = ResultGrid.from_json(text)
                ok = not grid.failures
                for per_sim in grid.results.values():
                    for result in per_sim.values():
                        combined.add(result)
                        key = (result.simulator, result.workload)
                        if json.dumps(result.canonical_dict(),
                                      sort_keys=True) != expected.get(key):
                            problems.append(
                                f"service result {key} differs from the "
                                f"cache-fill grid")
            cells += job_cells(sims, workload, received - submitted, ok)
        end = time.perf_counter()
    finally:
        server.close()
        shutil.rmtree(root, ignore_errors=True)
    text = combined.to_json(canonical=True)
    return Unit(start, end, cells, combined, digest(text),
                stable_digest(text), problems,
                setup_s=setup, job_windows=windows)
