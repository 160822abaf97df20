"""The validation harness: run simulator configurations over workload
sets and organise the results for the experiment drivers."""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.exec.spec import RunOptions, fold_legacy_kwargs
from repro.integrity.sanitizers import (
    IntegrityError,
    InvariantViolation,
    Sanitizers,
)
from repro.integrity.watchdog import SimulationStuck, Watchdog
from repro.obs.observer import Instrumentation, RunObserver
from repro.obs.provenance import capture_provenance
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import (
    GridProgress,
    RunLedger,
    TelemetryProbe,
    mirror_to_metrics,
)
from repro.result import SimResult, VOLATILE_PROVENANCE_FIELDS
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

#: Backwards-compatible alias; the canonical list lives in
#: :mod:`repro.result` so checkpoint merges share it.
_VOLATILE_PROVENANCE_FIELDS = VOLATILE_PROVENANCE_FIELDS

#: Distinguishes "not passed" from an explicit ``None`` (a ``None``
#: watchdog/blockcache override is meaningful: disarmed / default).
_UNSET = object()


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

    Produced by the parallel execution engine
    (:mod:`repro.exec.engine`): a cell that raises, crashes its worker
    process, or exceeds its timeout is recorded here — after exhausting
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
    #: Cells that failed under the parallel engine (empty for serial
    #: runs, which propagate exceptions instead).
    failures: List[CellFailure] = field(default_factory=list)

    def add(self, result: SimResult, *, replace: bool = False) -> None:
        """Insert ``result``; duplicate (simulator, workload) cells are
        an error unless ``replace=True`` (the execution engine's
        cache-refresh path)."""
        per_sim = self.results.setdefault(result.simulator, {})
        if result.workload in per_sim and not replace:
            raise ValueError(
                f"duplicate cell ({result.simulator!r}, "
                f"{result.workload!r}): the grid already holds a result "
                f"for this pair; pass replace=True to overwrite it"
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


#: run_trace function -> its parameter-name set.  Keyed by the
#: underlying function object (bound methods are recreated on every
#: attribute access), so one inspect.signature pays for a whole grid.
_SIGNATURE_CACHE: "weakref.WeakKeyDictionary[Callable, frozenset]" = (
    weakref.WeakKeyDictionary()
)


def _signature_params(run_trace: Callable) -> frozenset:
    """The parameter names a simulator's ``run_trace`` accepts (cached)."""
    probe = getattr(run_trace, "__func__", run_trace)
    try:
        return _SIGNATURE_CACHE[probe]
    except (KeyError, TypeError):
        pass
    try:
        params = frozenset(inspect.signature(probe).parameters)
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        params = frozenset()
    try:
        _SIGNATURE_CACHE[probe] = params
    except TypeError:  # pragma: no cover - unweakrefable callable
        pass
    return params


def _accepts_observer(run_trace: Callable) -> bool:
    """Whether a simulator's ``run_trace`` takes the observer hook."""
    return "observer" in _signature_params(run_trace)


def quarantine_failure(
    violations: Sequence[InvariantViolation],
    *,
    simulator: str = "",
    workload: str = "",
    attempts: int = 1,
    elapsed_s: float = 0.0,
) -> CellFailure:
    """Build the ``kind="invariant"`` :class:`CellFailure` recording a
    quarantined result (shared by the harness and the execution
    engine)."""
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

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) makes the
    harness record per-cell wall times and run counts; it is shared by
    every grid this harness runs.  ``instrumentation`` passed to the
    run methods additionally threads pipeline observers (CPI stacks,
    tracing) through simulators that support them.

    ``sanitizers`` (a :class:`repro.integrity.Sanitizers`, disabled by
    default) arms the invariant checkers: every cell is audited, and
    in grid runs a violating result is *quarantined* — recorded as a
    ``kind="invariant"`` :class:`CellFailure` instead of entering the
    grid (strict bundles raise :class:`IntegrityError` instead).
    ``watchdog_s`` arms a per-cell livelock watchdog with that stall
    budget (seconds) on simulators that accept one.  Failures from
    every grid this harness runs accumulate on ``failed_cells``, which
    is what the CLI's exit status reports.
    """

    #: Keywords the pre-RunOptions constructor accepted; still folded
    #: in (with a DeprecationWarning) so old callers keep working.
    _LEGACY_INIT = (
        "watchdog_s", "checkpoint", "resume", "ledger", "live_progress",
        "blockcache", "shards",
    )
    #: The historical ``run_grid`` keyword surface, now RunOptions.
    _LEGACY_RUN_GRID = (
        "jobs", "cache", "timeout", "retries", "checkpoint", "resume",
        "ledger", "live_progress", "shards",
    )

    def __init__(
        self,
        workloads: Optional[WorkloadSet] = None,
        options: Optional[RunOptions] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        sanitizers: Optional[Sanitizers] = None,
        **legacy,
    ):
        #: Harness-level execution defaults; per-call options merge
        #: over these (see :meth:`run_grid`).
        self.options = fold_legacy_kwargs(
            options, legacy, allowed=self._LEGACY_INIT, owner="Harness()",
        )
        self.workloads = workloads or WorkloadSet()
        #: Trace-compilation control forwarded to simulators whose
        #: ``run_trace`` accepts it: ``None`` leaves each simulator's
        #: own default (enabled), ``False`` forces the pure detailed
        #: loop (the CLI's ``--no-blockcache``), ``True`` or a
        #: :class:`repro.core.blockcache.BlockCacheConfig` forces it on.
        self.blockcache = self.options.blockcache
        self.metrics = metrics if metrics is not None else (
            MetricsRegistry.disabled()
        )
        self.sanitizers = sanitizers if sanitizers is not None else (
            self.options.sanitizer_bundle() or Sanitizers.disabled()
        )
        self.watchdog_s = self.options.watchdog_s
        #: Views over :attr:`options`, kept for callers that still read
        #: the old attributes.
        self.checkpoint = self.options.checkpoint
        self.resume = self.options.resume
        self.ledger = self.options.ledger
        self.live_progress = self.options.live_progress
        self.shards = max(1, int(self.options.shards))
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
        *,
        sanitizers: Optional[Sanitizers] = None,
        watchdog_s=_UNSET,
        blockcache=_UNSET,
    ) -> SimResult:
        """Time one (simulator, workload) cell, instrumented.

        The keyword overrides let a caller carry per-call
        :class:`RunOptions` without mutating harness state (the job
        service runs grids from worker threads); unset, the harness's
        own settings apply.
        """
        sanitizer_bundle = (
            sanitizers if sanitizers is not None else self.sanitizers
        )
        watchdog_budget = (
            self.watchdog_s if watchdog_s is _UNSET else watchdog_s
        )
        blockcache_mode = (
            self.blockcache if blockcache is _UNSET else blockcache
        )
        observer = None
        run_trace = simulator.run_trace
        params = _signature_params(run_trace)
        if instrumentation is not None and instrumentation.enabled \
                and "observer" in params:
            observer = instrumentation.observer(
                simulator=simulator.name, workload=workload
            )
        sanitizer = None
        if sanitizer_bundle.enabled:
            sanitizer = sanitizer_bundle.run_sanitizer(
                simulator=simulator.name, workload=workload
            )
            if "observer" in params:
                # Ride the engine's observer hook (sharing the
                # instrumentation observer when there is one).
                if observer is None:
                    observer = RunObserver(
                        sanitizer=sanitizer,
                        simulator=simulator.name, workload=workload,
                    )
                else:
                    observer.sanitizer = sanitizer
        kwargs = {}
        if observer is not None:
            kwargs["observer"] = observer
        if watchdog_budget is not None and "watchdog" in params:
            kwargs["watchdog"] = Watchdog(watchdog_budget)
        if blockcache_mode is not None and "blockcache" in params:
            kwargs["blockcache"] = blockcache_mode
        timer = self.metrics.timer(f"harness.cell.{simulator.name}.{workload}")
        probe = TelemetryProbe()
        with timer.time():
            result = run_trace(trace, workload, **kwargs)
        if result.telemetry is None:
            result.telemetry = probe.finish(result.instructions)
        mirror_to_metrics(
            self.metrics, simulator.name, workload, result.telemetry
        )
        self.metrics.counter("harness.runs").inc()
        if result.provenance is None:
            result.provenance = capture_provenance(
                getattr(simulator, "config", None),
                name=getattr(simulator, "name", ""),
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
        if options is None:
            return self._run_cell(
                factory(), trace, workload, instrumentation
            )
        opts = options.merged_over(self.options).trimmed()
        if opts.dram_backend is not None:
            factory = _with_dram_backend(factory, opts.dram_backend)
        simulator = factory()
        return self._run_cell(
            simulator, trace, workload, instrumentation,
            sanitizers=self._effective_sanitizers(opts),
            watchdog_s=opts.watchdog_s,
            blockcache=opts.blockcache,
        )

    def run_grid(
        self,
        factories: Sequence[SimulatorFactory],
        workload_names: Iterable[str],
        options: Optional[RunOptions] = None,
        *,
        progress: Optional[Callable[[str, str], None]] = None,
        instrumentation: Optional[Instrumentation] = None,
        **legacy,
    ) -> ResultGrid:
        """Run every factory over every workload.

        ``options`` (a :class:`repro.exec.spec.RunOptions`) carries
        every execution knob — jobs, cache, timeout, retries,
        checkpoint/resume, ledger, live_progress, shards, sanitize,
        watchdog_s, blockcache, dram_backend — merged over the
        harness-level options
        (a field left at its default inherits the harness's value).
        The historical keyword arguments (``jobs=``, ``cache=``, ...)
        still work through a deprecation shim that folds them into the
        options object and warns once per call.

        ``progress(simulator, workload)`` is called before each cell;
        with a metrics registry attached, each cell's wall time is also
        recorded under ``harness.cell.<simulator>.<workload>``.

        Execution backend, chosen from the merged options:

        * ``shards > 1`` routes the grid through the crash-safe
          work-stealing :class:`~repro.exec.coordinator.
          ShardCoordinator` (runner loss recovered from fsynced shard
          journals; results byte-identical to the serial path);
        * ``jobs > 1``, a ``cache``, or a ``checkpoint`` delegates to
          the execution engine (:mod:`repro.exec.engine`), which also
          honours the per-cell ``timeout`` and ``retries`` budget and
          records failed cells as :class:`CellFailure` entries;
        * otherwise the in-process serial path runs, where a failing
          cell raises — except for integrity quarantines and detected
          livelocks, which are isolated per cell in every mode.

        ``ledger`` (a :class:`~repro.obs.telemetry.RunLedger` or JSONL
        path) appends one per-cell telemetry record per settled cell;
        ``live_progress=True`` renders a live
        ``cells done/total, cells/s, ETA`` line on stderr.  Both work
        in every execution mode.
        """
        names = list(workload_names)
        opts = fold_legacy_kwargs(
            options, legacy, allowed=self._LEGACY_RUN_GRID,
            owner="Harness.run_grid()",
        ).merged_over(self.options)
        if opts.dram_backend is not None:
            # Wrapping here covers every execution backend below (the
            # shard coordinator and engine fork, so closures survive).
            factories = [
                _with_dram_backend(factory, opts.dram_backend)
                for factory in factories
            ]
        sanitizers = self._effective_sanitizers(opts)
        if opts.shards > 1:
            from repro.exec.coordinator import ShardCoordinator

            coordinator = ShardCoordinator(
                self.workloads, opts,
                metrics=self.metrics, sanitizers=sanitizers,
            )
            grid = coordinator.run_grid(
                factories, names,
                instrumentation=instrumentation, progress=progress,
            )
            self.failed_cells.extend(grid.failures)
            return grid
        if (opts.jobs > 1 or opts.cache is not None
                or opts.checkpoint is not None):
            from repro.exec.engine import ExperimentEngine

            engine = ExperimentEngine(
                self.workloads, opts,
                metrics=self.metrics, sanitizers=sanitizers,
            )
            grid = engine.run_grid(
                factories, names,
                instrumentation=instrumentation, progress=progress,
            )
            self.failed_cells.extend(grid.failures)
            return grid
        ledger = opts.ledger
        owns_ledger = isinstance(ledger, (str, os.PathLike))
        if owns_ledger:
            ledger = RunLedger(ledger)
        progress_line = (
            GridProgress(len(names) * len(factories))
            if opts.live_progress else None
        )

        def note(simulator: str, workload: str, status: str,
                 telemetry=None) -> None:
            if ledger is not None:
                ledger.record(
                    simulator=simulator, workload=workload,
                    status=status, telemetry=telemetry,
                )
            if progress_line is not None:
                progress_line.update()

        grid = ResultGrid()
        try:
            for name in names:
                trace = self.workloads.trace(name)
                for factory in factories:
                    simulator = factory()
                    if progress is not None:
                        progress(simulator.name, name)
                    try:
                        result = self._run_cell(
                            simulator, trace, name, instrumentation,
                            sanitizers=sanitizers,
                            watchdog_s=opts.watchdog_s,
                            blockcache=opts.blockcache,
                        )
                    except IntegrityError as exc:
                        # Fatal violation mid-run: quarantine the cell
                        # (strict bundles never get here — the
                        # sanitizer's raise propagates before the
                        # result exists).
                        if sanitizers.strict:
                            raise
                        grid.failures.append(quarantine_failure(
                            [exc.violation],
                            simulator=simulator.name, workload=name,
                        ))
                        note(simulator.name, name, "invariant")
                    except SimulationStuck as exc:
                        grid.failures.append(CellFailure(
                            simulator=simulator.name,
                            workload=name,
                            kind="stuck",
                            message=str(exc),
                            snapshot={
                                "instructions": exc.instructions,
                                "retire": exc.retire,
                                "state": exc.state,
                            },
                        ))
                        note(simulator.name, name, "stuck")
                    else:
                        if self.last_violations:
                            grid.failures.append(quarantine_failure(
                                self.last_violations,
                                simulator=simulator.name, workload=name,
                            ))
                            note(simulator.name, name, "invariant")
                        else:
                            grid.add(result)
                            note(
                                simulator.name, name, "ok",
                                telemetry=result.telemetry,
                            )
        finally:
            if progress_line is not None:
                progress_line.close()
            if owns_ledger:
                ledger.close()
        self.failed_cells.extend(grid.failures)
        return grid
