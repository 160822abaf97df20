"""The validation harness: run simulator configurations over workload
sets and organise the results for the experiment drivers."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.exec.spec import RunOptions
from repro.integrity.sanitizers import InvariantViolation, Sanitizers
from repro.integrity.watchdog import Watchdog
from repro.obs.observer import Instrumentation, RunObserver
from repro.obs.provenance import capture_provenance
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import TelemetryProbe, mirror_to_metrics
from repro.result import SimResult
from repro.workloads.suite import WorkloadSet

__all__ = [
    "SimulatorFactory",
    "CellFailure",
    "ResultGrid",
    "Harness",
    "quarantine_failure",
]

#: A factory producing a *fresh* simulator per run (predictor and cache
#: state must not leak between workloads).
SimulatorFactory = Callable[[], object]

def _with_dram_backend(
    factory: SimulatorFactory, backend: str
) -> SimulatorFactory:
    """Wrap ``factory`` so the simulators it builds run DRAM backend
    ``backend`` (``RunOptions.dram_backend``).

    The override rewrites the simulator's frozen config
    (``config.memory.dram.backend``) and rebuilds the simulator from
    it, so the backend choice lands in the provenance ``config_hash``
    — and therefore the result-cache key — exactly like any other
    configuration change.  Simulators without a DRAM model (the native
    reference machine) or without a rebuildable config pass through
    untouched: the option selects the timing model under simulators
    that have one, it never invents one.
    """

    def build() -> object:
        simulator = factory()
        config = getattr(simulator, "config", None)
        memory = getattr(config, "memory", None)
        dram = getattr(memory, "dram", None)
        if dram is None or getattr(dram, "backend", None) == backend:
            return simulator
        new_config = dataclasses.replace(
            config,
            memory=dataclasses.replace(
                memory, dram=dram.with_backend(backend)
            ),
        )
        try:
            return type(simulator)(config=new_config)
        except TypeError:
            return simulator

    return build


@dataclass(frozen=True)
class CellFailure:
    """Structured record of one (simulator, workload) cell that could
    not produce a result.

    Produced by the execution engine (:mod:`repro.exec.engine`), which
    runs every grid: a cell that raises, crashes its worker process,
    or exceeds its timeout is recorded here — after exhausting
    its retry budget — instead of aborting the rest of the grid.  The
    integrity layer adds two kinds: ``"invariant"`` for results
    quarantined by the sanitizers (the violated invariant and its state
    snapshot land in ``snapshot``) and ``"stuck"`` for detected
    livelocks.
    """

    simulator: str
    workload: str
    #: One of ``"exception"``, ``"crash"``, ``"timeout"``,
    #: ``"invariant"``, ``"stuck"``.
    kind: str
    message: str = ""
    #: Total attempts made (1 + retries).
    attempts: int = 1
    #: Wall-clock seconds spent on the final attempt.
    elapsed_s: float = 0.0
    #: Diagnostic state captured at failure time (for ``"invariant"``
    #: kinds, the violation records under a ``"violations"`` key).
    snapshot: Optional[Dict] = None

    def describe(self) -> str:
        """One-line human summary (the CLI's failure listing)."""
        head = f"{self.simulator} on {self.workload}: {self.kind}"
        return f"{head} - {self.message}" if self.message else head

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    def canonical_dict(self) -> Dict:
        """:meth:`to_dict` with the wall time blanked: the failure,
        not how long it took, is the measurement."""
        return dict(self.to_dict(), elapsed_s=0.0)

    @classmethod
    def from_dict(cls, payload: Dict) -> "CellFailure":
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in names})


@dataclass
class ResultGrid:
    """Results indexed by (simulator name, workload name)."""

    results: Dict[str, Dict[str, SimResult]] = field(default_factory=dict)
    #: Cells that failed, were quarantined or livelocked, in grid
    #: order; every execution mode records them alike.
    failures: List[CellFailure] = field(default_factory=list)

    def add(self, result: SimResult) -> None:
        """Insert ``result``; duplicate (simulator, workload) cells are
        an error."""
        per_sim = self.results.setdefault(result.simulator, {})
        if result.workload in per_sim:
            raise ValueError(
                f"duplicate cell ({result.simulator!r}, "
                f"{result.workload!r}): the grid already holds a result "
                f"for this pair"
            )
        per_sim[result.workload] = result

    def _per_sim(self, simulator: str) -> Dict[str, SimResult]:
        per_sim = self.results.get(simulator)
        if per_sim is None:
            raise KeyError(
                f"unknown simulator {simulator!r}; grid has simulators: "
                f"{self.simulators()}"
            )
        return per_sim

    def get(self, simulator: str, workload: str) -> SimResult:
        per_sim = self._per_sim(simulator)
        result = per_sim.get(workload)
        if result is None:
            raise KeyError(
                f"no result for workload {workload!r} under simulator "
                f"{simulator!r}; that simulator has workloads: "
                f"{sorted(per_sim)}"
            )
        return result

    def simulators(self) -> List[str]:
        return list(self.results)

    def workloads(self) -> List[str]:
        names: List[str] = []
        for per_sim in self.results.values():
            for name in per_sim:
                if name not in names:
                    names.append(name)
        return names

    def ipcs(self, simulator: str) -> Dict[str, float]:
        return {
            workload: result.ipc
            for workload, result in self._per_sim(simulator).items()
        }

    # -- persistence ------------------------------------------------------

    def to_json(
        self,
        *,
        indent: Optional[int] = None,
        canonical: bool = False,
    ) -> str:
        """Serialise the whole grid (stats, ``extra``, CPI stacks,
        provenance, failure records included) for persistence and
        cross-run diffing.

        ``canonical=True`` blanks the provenance fields that vary from
        run to run on identical measurements (``created``, ``host``,
        ``platform``, ``python``) and each failure's ``elapsed_s``, so
        two runs of the same configurations serialise byte-identically
        iff they measured the same thing — the form the determinism
        tests and cross-run diffs compare.
        """
        entries = []
        for per_sim in self.results.values():
            for result in per_sim.values():
                # canonical_dict blanks volatile provenance and the
                # resource telemetry (wall time, RSS, pids): identical
                # measurements must serialise byte-identically.
                entries.append(
                    result.canonical_dict() if canonical
                    else result.to_dict()
                )
        payload = {
            "format": "repro-result-grid/1",
            "results": entries,
            "failures": [
                f.canonical_dict() if canonical else f.to_dict()
                for f in self.failures
            ],
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ResultGrid":
        """Inverse of :meth:`to_json`."""
        payload = json.loads(text)
        if payload.get("format") != "repro-result-grid/1":
            raise ValueError(
                f"not a serialised ResultGrid: format="
                f"{payload.get('format')!r}"
            )
        grid = cls()
        for entry in payload["results"]:
            grid.add(SimResult.from_dict(entry))
        for entry in payload.get("failures", ()):
            grid.failures.append(CellFailure.from_dict(entry))
        return grid


def quarantine_failure(
    violations: Sequence[InvariantViolation],
    *,
    simulator: str = "",
    workload: str = "",
    attempts: int = 1,
    elapsed_s: float = 0.0,
) -> CellFailure:
    """Build the ``kind="invariant"`` :class:`CellFailure` recording a
    quarantined result."""
    first = violations[0] if violations else None
    return CellFailure(
        simulator=(first.simulator if first else "") or simulator,
        workload=(first.workload if first else "") or workload,
        kind="invariant",
        message=str(first) if first else "invariant violation",
        attempts=attempts,
        elapsed_s=elapsed_s,
        snapshot={"violations": [v.to_dict() for v in violations]},
    )


class Harness:
    """Runs (simulator x workload) grids with cached traces.

    ``options`` (a :class:`~repro.exec.spec.RunOptions`) holds the
    harness-level execution defaults; per-call options merge over them
    (:meth:`RunOptions.merged_over`).  ``metrics`` (a
    :class:`repro.obs.MetricsRegistry`) makes the harness record
    per-cell wall times and run counts; it is shared by every grid this
    harness runs.  ``instrumentation`` passed to the run methods
    additionally threads pipeline observers (CPI stacks, tracing)
    through every simulator (those without a pipeline ignore them).

    ``sanitizers`` (a :class:`repro.integrity.Sanitizers`, otherwise
    built from the options' ``sanitize``/``strict`` flags; disabled by
    default) arms the invariant checkers: every cell is audited, and
    in grid runs a violating result is *quarantined* — recorded as a
    ``kind="invariant"`` :class:`CellFailure` instead of entering the
    grid (strict bundles raise :class:`IntegrityError` instead).  The
    options' ``watchdog_s`` arms a per-cell livelock watchdog with
    that stall budget (seconds).  Failures from every grid this
    harness runs accumulate on ``failed_cells``, which is what the
    CLI's exit status reports.
    """

    def __init__(
        self,
        workloads: Optional[WorkloadSet] = None,
        options: Optional[RunOptions] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        sanitizers: Optional[Sanitizers] = None,
    ):
        #: Harness-level execution defaults; per-call options merge
        #: over these (see :meth:`run_grid`).
        self.options = options if options is not None else RunOptions()
        self.workloads = workloads or WorkloadSet()
        self.metrics = metrics if metrics is not None else (
            MetricsRegistry.disabled()
        )
        self.sanitizers = sanitizers if sanitizers is not None else (
            self.options.sanitizer_bundle() or Sanitizers.disabled()
        )
        #: Violations found by the most recent cell (empty when the
        #: sanitizers are disabled or the cell was clean).
        self.last_violations: List[InvariantViolation] = []
        #: Every failed/quarantined cell across all grids this harness
        #: has run (the CLI exit-status source).
        self.failed_cells: List[CellFailure] = []

    def _run_cell(
        self,
        simulator,
        trace,
        workload: str,
        instrumentation: Optional[Instrumentation],
        options: RunOptions,
    ) -> SimResult:
        """Time one (simulator, workload) cell, instrumented.

        ``options`` is the call's merged, trimmed :class:`RunOptions`
        (sanitize/strict, watchdog_s, blockcache), so a caller carries
        per-call settings without mutating harness state (the job
        service runs grids from worker threads).  Every simulator takes
        the ``observer``/``watchdog``/``blockcache`` keywords of the
        :class:`~repro.result.Simulator` protocol.
        """
        name = simulator.name
        observer = None
        if instrumentation is not None:
            observer = instrumentation.observer(
                simulator=name, workload=workload
            )
        sanitizer = self._effective_sanitizers(options).run_sanitizer(
            simulator=name, workload=workload
        )
        if sanitizer is not None:
            # Ride the engine's observer hook (sharing the
            # instrumentation observer when there is one).
            if observer is None:
                observer = RunObserver(
                    sanitizer=sanitizer, simulator=name, workload=workload,
                )
            else:
                observer.sanitizer = sanitizer
        watchdog = (
            Watchdog(options.watchdog_s)
            if options.watchdog_s is not None else None
        )
        timer = self.metrics.timer(f"harness.cell.{name}.{workload}")
        probe = TelemetryProbe()
        with timer.time():
            result = simulator.run_trace(
                trace, workload, observer=observer, watchdog=watchdog,
                blockcache=options.blockcache,
            )
        if result.telemetry is None:
            result.telemetry = probe.finish(result.instructions)
        mirror_to_metrics(self.metrics, name, workload, result.telemetry)
        self.metrics.counter("harness.runs").inc()
        if result.provenance is None:
            result.provenance = capture_provenance(
                getattr(simulator, "config", None), name=name,
            )
        if sanitizer is not None:
            sanitizer.audit_result(
                result, expected_instructions=len(trace)
            )
            self.last_violations = list(sanitizer.violations)
        else:
            self.last_violations = []
        return result

    def _effective_sanitizers(self, options: RunOptions) -> Sanitizers:
        """The sanitizer bundle one run should use: an explicitly
        attached live bundle wins, else whatever ``options`` ask for."""
        if self.sanitizers.enabled:
            return self.sanitizers
        return options.sanitizer_bundle() or self.sanitizers

    def run_one(
        self,
        factory: SimulatorFactory,
        workload: str,
        *,
        instrumentation: Optional[Instrumentation] = None,
        options: Optional[RunOptions] = None,
    ) -> SimResult:
        """Run one simulator (fresh instance) on one workload.

        ``options`` applies the single-cell view of a
        :class:`RunOptions` (sanitize/strict, watchdog_s, blockcache,
        dram_backend — see :meth:`RunOptions.trimmed`) for this call
        only, merged over the harness-level defaults.
        """
        trace = self.workloads.trace(workload)
        opts = (options or RunOptions()).merged_over(self.options).trimmed()
        if opts.dram_backend is not None:
            factory = _with_dram_backend(factory, opts.dram_backend)
        return self._run_cell(
            factory(), trace, workload, instrumentation, opts
        )

    def run_grid(
        self,
        factories: Sequence[SimulatorFactory],
        workload_names: Iterable[str],
        options: Optional[RunOptions] = None,
        *,
        progress: Optional[Callable[[str, str], None]] = None,
        instrumentation: Optional[Instrumentation] = None,
    ) -> ResultGrid:
        """Run every factory over every workload on the execution
        engine (:mod:`repro.exec.engine`), the one grid loop.

        ``options`` (a :class:`repro.exec.spec.RunOptions`) carries
        every execution knob — jobs, cache, timeout, retries,
        checkpoint/resume, ledger, live_progress, sanitize,
        watchdog_s, blockcache, dram_backend — merged over the
        harness-level options
        (a field left at its default inherits the harness's value).

        Every mode settles cells alike: a cell that raises (or, with
        ``jobs > 1``, crashes its worker or exceeds ``timeout``) is
        retried up to ``retries`` times and then recorded as a
        :class:`CellFailure` on the returned grid; quarantines and
        livelocks are recorded at once.  Every other cell still
        completes, and the grid's failures are appended to
        :attr:`failed_cells`.  A strict sanitizer bundle's
        :class:`IntegrityError`, ``KeyboardInterrupt`` and anything
        ``progress`` raises propagate.

        ``progress(simulator, workload)`` is called before each
        attempt of each cell; with a metrics registry attached, each
        completed cell's wall time is recorded under
        ``exec.cell.<simulator>.<workload>``.
        """
        from repro.exec.engine import ExperimentEngine

        opts = (options or RunOptions()).merged_over(self.options)
        if opts.dram_backend is not None:
            # Wrapped before the engine probes each factory, so the
            # backend lands in the cache key (the pool forks, so
            # closures survive).
            factories = [
                _with_dram_backend(factory, opts.dram_backend)
                for factory in factories
            ]
        engine = ExperimentEngine(
            self.workloads, opts, metrics=self.metrics,
            sanitizers=self._effective_sanitizers(opts),
        )
        grid = engine.run_grid(
            factories, workload_names,
            instrumentation=instrumentation, progress=progress,
        )
        self.failed_cells.extend(grid.failures)
        return grid
