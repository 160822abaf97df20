"""The experiment execution engine: parallel, cached, fault-isolated.

The paper's evaluation is one large (simulator x workload) grid
re-visited by every table.  Every grid runs here —
:meth:`Harness.run_grid <repro.validation.harness.Harness.run_grid>`
is a thin entry point — and its cells run

* **memoized** — each cell is content-addressed by its
  :class:`~repro.exec.cache.CacheKey` (configuration hash, workload
  program digest, package version) and recomputed only when an input
  changed.  Keys come from programs, not traces, so hits are resolved
  before any trace exists and a fully warm grid never runs the
  functional machine;
* **in parallel** — cache misses fan out over a pool of forked worker
  processes (``jobs`` wide), each timing one cell and shipping the
  :class:`~repro.result.SimResult` back over a pipe.  The traces of
  workloads with a cell left to run are built once in the parent and
  inherited by the workers through fork, so no worker ever rebuilds a
  workload;
* **fault-isolated** — a cell that raises, dies, or exceeds its
  per-cell ``timeout`` is retried up to ``retries`` times and then
  recorded as a :class:`~repro.validation.harness.CellFailure` on the
  returned grid; every other cell still completes.

``jobs=1`` times cells in this process instead of forking, but every
attempt in either mode goes through :func:`_attempt_cell` and settles
through :meth:`ExperimentEngine._settle`, and results are inserted
into the :class:`ResultGrid` in serial grid order, so a ``jobs=N``
grid serialises identically to a ``jobs=1`` one, failures included.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import os
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.blockcache import BLOCKCACHE_VERSION
from repro.exec.cache import CacheKey, ResultCache, fingerprint_trace
from repro.exec.spec import RunOptions
from repro.integrity.checkpoint import GridCheckpoint
from repro.integrity.sanitizers import (
    IntegrityError,
    InvariantViolation,
    Sanitizers,
)
from repro.integrity.watchdog import (
    SimulationStuck,
    install_escalation_handler,
)
from repro.obs.observer import Instrumentation
from repro.obs.provenance import _package_version, config_hash
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import GridProgress, RunLedger, mirror_to_metrics
from repro.result import SimResult
from repro.validation.harness import (
    CellFailure,
    Harness,
    ResultGrid,
    SimulatorFactory,
    quarantine_failure,
)
from repro.workloads.suite import WorkloadSet

__all__ = [
    "ExperimentEngine", "CellFailure", "RetryBackoff", "build_traces",
    "grid_cells",
]


class RetryBackoff:
    """Bounded exponential backoff with *deterministic* jitter.

    Retrying a failed cell immediately hammers whatever transient
    condition (memory pressure, a busy disk) just killed it.  Delays
    double from ``base_s`` up to ``cap_s``; jitter de-synchronises
    cells retrying in lockstep, but is derived by hashing the cell key
    and attempt number rather than from a random source, so a given
    grid run schedules identically every time (determinism is a
    project invariant).

    ``max_delay_s`` is an explicit hard ceiling on any single returned
    delay, independent of how ``cap_s`` was (mis)configured: the retry
    budget caps the *number* of attempts, but a pathological ``cap_s``
    could otherwise stall a grid for minutes between two attempts of
    one cell.
    """

    #: Hard ceiling on any single delay (seconds) unless overridden.
    MAX_DELAY_S = 30.0

    def __init__(
        self,
        base_s: float = 0.05,
        cap_s: float = 2.0,
        jitter: float = 0.25,
        max_delay_s: float = MAX_DELAY_S,
    ):
        if base_s < 0 or cap_s < 0 or not 0 <= jitter <= 1:
            raise ValueError(
                f"invalid backoff (base_s={base_s}, cap_s={cap_s}, "
                f"jitter={jitter})"
            )
        if max_delay_s < 0:
            raise ValueError(
                f"invalid backoff ceiling (max_delay_s={max_delay_s})"
            )
        self.base_s = base_s
        self.cap_s = cap_s
        self.jitter = jitter
        self.max_delay_s = max_delay_s

    def delay(self, key: str, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)
        of the cell identified by ``key``."""
        raw = min(self.cap_s, self.base_s * (2.0 ** max(0, attempt - 1)))
        digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return min(raw * (1.0 - self.jitter * fraction), self.max_delay_s)


@dataclass
class _Cell:
    """One (simulator, workload) unit of work, in serial grid order."""

    index: int
    sim_name: str
    factory: SimulatorFactory
    workload: str
    key: Optional[CacheKey]


@dataclass
class _Attempt:
    """A live worker process timing one cell."""

    cell: _Cell
    process: multiprocessing.Process
    conn: object
    started: float
    attempt: int


def _grid_cell_key(
    sim_name: str, cfg_hash: str, workload: str, program: str, blockcache
) -> CacheKey:
    version = _package_version()
    if blockcache is not False:
        # The fast path may engage for this cell: bind the entry to
        # the blockcache semantics version so a memoization change can
        # never serve stale cached results.
        version = f"{version}+bc{BLOCKCACHE_VERSION}"
    return CacheKey(
        simulator=sim_name,
        config_hash=cfg_hash,
        workload=workload,
        program_digest=program,
        package_version=version,
    )


def _simulator_identity(factory: SimulatorFactory) -> Tuple[str, str]:
    """``(name, config hash)`` of the simulator ``factory`` builds.

    A simulator whose results also depend on how it measures (the
    DCPI-sampled :class:`~repro.simulators.refmachine.NativeMachine`)
    declares that as a ``measurement`` string, folded into the hash so
    it never shares cache entries with an exact-cycle twin of the same
    configuration.
    """
    simulator = factory()
    cfg_hash = config_hash(getattr(simulator, "config", None))
    measurement = getattr(simulator, "measurement", None)
    if measurement:
        cfg_hash = f"{cfg_hash}+{measurement}"
    return simulator.name, cfg_hash


def build_traces(workloads: WorkloadSet, cells: Iterable[_Cell]) -> None:
    """Build (and cache in ``workloads``) the trace of every workload
    with a cell in ``cells``, in grid order: the parent does this for
    the cells left to run just before forking, so workers inherit the
    traces instead of rebuilding them."""
    for name in dict.fromkeys(cell.workload for cell in cells):
        workloads.trace(name)


def grid_cells(
    workloads: WorkloadSet,
    factories: Sequence[SimulatorFactory],
    workload_names: Sequence[str],
    *,
    blockcache=None,
    keyed: bool = True,
) -> List[_Cell]:
    """Build the (simulator x workload) cell list in serial grid order.

    Probes each factory once for its identity and content-addresses
    each cell when ``keyed``, from the workload's cached program digest
    — no trace is built here (see :func:`build_traces`).  The result
    cache and the checkpoint journal both key on these cells, so a
    journal entry and a cache entry refer to the same cell.
    """
    probes = [_simulator_identity(factory) for factory in factories]
    cells: List[_Cell] = []
    for name in workload_names:
        program = workloads.program_digest(name) if keyed else None
        for (sim_name, cfg_hash), factory in zip(probes, factories):
            key = (
                _grid_cell_key(sim_name, cfg_hash, name, program, blockcache)
                if keyed else None
            )
            cells.append(_Cell(len(cells), sim_name, factory, name, key))
    return cells


def _attempt_cell(harness: Harness, factory: SimulatorFactory,
                  workload: str, instrumentation) -> Tuple:
    """Time one attempt of one cell through ``harness`` and return the
    message :meth:`ExperimentEngine._settle` reads — the same tuple
    whether the attempt ran in-process or in a forked worker (which
    ships it over its pipe).  First element:

    * ``"ok"`` — the result follows;
    * ``"invariant"`` — the sanitizers flagged the run; a list of
      violation dicts follows and the result is withheld;
    * ``"stuck"`` — the watchdog diagnosed a livelock (or the parent
      escalated a wall-clock timeout over SIGUSR1); message + state
      snapshot follow;
    * ``"exception"`` — any other exception; its formatted traceback
      follows, caught in this frame in both modes so the text agrees.

    A strict bundle's :class:`IntegrityError` propagates.
    """
    try:
        result = harness.run_one(
            factory, workload, instrumentation=instrumentation
        )
    except IntegrityError as exc:
        if harness.sanitizers.strict:
            raise
        return ("invariant", [exc.violation.to_dict()])
    except SimulationStuck as exc:
        return ("stuck", str(exc), {
            "detail": exc.detail,
            "instructions": exc.instructions, "retire": exc.retire,
            "state": exc.state,
        })
    except Exception:
        return ("exception", traceback.format_exc(limit=20))
    if harness.last_violations:
        return ("invariant", [v.to_dict() for v in harness.last_violations])
    return ("ok", result)


def _worker_main(conn, factory, workload, workload_set, instrumentation,
                 sanitizers, options):
    """Body of one forked worker: time one cell, ship its
    :func:`_attempt_cell` message back.  A strict violation is sent as
    ``("strict", violation dict)``; the parent re-raises
    :class:`IntegrityError` and aborts the grid."""
    # A Ctrl-C in the parent delivers SIGINT to the whole foreground
    # process group.  The parent owns shutdown (it terminates and joins
    # the pool); workers ignoring SIGINT turn that into one clean
    # parent-side teardown instead of a KeyboardInterrupt
    # traceback stampede from every pool worker.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    install_escalation_handler()
    try:
        harness = Harness(
            workload_set, options.trimmed(), sanitizers=sanitizers
        )
        try:
            message = _attempt_cell(
                harness, factory, workload, instrumentation
            )
        except IntegrityError as exc:
            message = ("strict", exc.violation.to_dict())
        conn.send(message)
    except BaseException:
        try:
            conn.send(("exception", traceback.format_exc(limit=20)))
        except Exception:  # pragma: no cover - parent already gone
            pass
    finally:
        conn.close()


class ExperimentEngine:
    """Runs (simulator x workload) grids over a process pool with an
    on-disk result cache.

    Parameters
    ----------
    workloads:
        The shared :class:`WorkloadSet` (traces are built once here,
        in the parent, before any worker forks).
    options:
        A :class:`repro.exec.spec.RunOptions` carrying the execution
        envelope — ``jobs`` (pool width; ``1`` times cells in-process,
        still exercising cache and fault isolation), ``cache`` (a
        :class:`ResultCache` or directory path), ``timeout`` (per-cell
        wall-clock budget, pool mode; an expired worker is escalated
        over SIGUSR1 with ``escalation_grace_s`` to dump a
        :class:`SimulationStuck` diagnosis, then terminated),
        ``retries``, ``refresh`` (invalidate-and-recompute touched
        cache entries), ``checkpoint``/``resume`` (a
        :class:`repro.integrity.GridCheckpoint` or journal path;
        resume satisfies already-journaled cells), ``watchdog_s``
        (in-run livelock stall budget), and ``blockcache``
        (trace-compilation control, mixed into cache keys whenever the
        fast path may engage).
    metrics:
        A :class:`MetricsRegistry`; receives ``exec.cache.*`` traffic
        counters, per-cell ``exec.cell.*`` timers, and pool counters.
    sanitizers:
        A :class:`repro.integrity.Sanitizers` bundle (otherwise built
        from the options' ``sanitize``/``strict`` flags; disabled by
        default).  Enabled, every cell is invariant-checked and a
        violating result is quarantined (``kind="invariant"``); a
        strict bundle aborts the grid with :class:`IntegrityError`.
    backoff:
        A :class:`RetryBackoff` governing the delay between attempts
        of a failing cell (the default backs off from 50ms, doubling
        to a 2s cap, with deterministic jitter).
    """

    def __init__(
        self,
        workloads: Optional[WorkloadSet] = None,
        options: Optional[RunOptions] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        sanitizers: Optional[Sanitizers] = None,
        backoff: Optional[RetryBackoff] = None,
    ):
        opts = options if options is not None else RunOptions()
        self.options = opts
        self.workloads = workloads or WorkloadSet()
        self.blockcache = opts.blockcache
        self.jobs = max(1, int(opts.jobs))
        self.timeout = opts.timeout
        self.escalation_grace_s = max(0.0, float(opts.escalation_grace_s))
        self.retries = max(0, int(opts.retries))
        self.metrics = metrics if metrics is not None else (
            MetricsRegistry.disabled()
        )
        self.refresh = opts.refresh
        self.sanitizers = sanitizers if sanitizers is not None else (
            opts.sanitizer_bundle() or Sanitizers.disabled()
        )
        checkpoint = opts.checkpoint
        if isinstance(checkpoint, (str, os.PathLike)):
            checkpoint = GridCheckpoint(checkpoint)
        self.checkpoint: Optional[GridCheckpoint] = checkpoint
        self.resume = opts.resume
        self.backoff = backoff if backoff is not None else RetryBackoff()
        cache = opts.cache
        if isinstance(cache, (str, os.PathLike)):
            cache = ResultCache(cache, metrics=self.metrics)
        if cache is not None and cache.metrics is None:
            cache.metrics = self.metrics
        self.cache: Optional[ResultCache] = cache
        #: Live per-grid telemetry sinks (set for the duration of one
        #: :meth:`run_grid` call; ``None`` otherwise).
        self._ledger: Optional[RunLedger] = None
        self._progress_line: Optional[GridProgress] = None
        #: program digest -> trace fingerprint, stored beside every
        #: entry this engine puts (one fingerprint per program, taken
        #: on the miss path where the trace already exists).
        self._fingerprints: Dict[str, str] = {}
        self._ctx = (
            multiprocessing.get_context("fork")
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )

    # -- keys --------------------------------------------------------------

    def _cell_key(
        self, sim_name: str, cfg_hash: str, workload: str, program: str
    ) -> CacheKey:
        return _grid_cell_key(
            sim_name, cfg_hash, workload, program, self.blockcache
        )

    def _put(self, key: CacheKey, workload: str, result: SimResult) -> None:
        """Store a computed cell with its trace's fingerprint."""
        fingerprint = self._fingerprints.get(key.program_digest)
        if fingerprint is None:
            fingerprint = fingerprint_trace(self.workloads.trace(workload))
            self._fingerprints[key.program_digest] = fingerprint
        self.cache.put(key, result, trace_fingerprint=fingerprint)

    # -- the grid ----------------------------------------------------------

    def run_grid(
        self,
        factories: Sequence[SimulatorFactory],
        workload_names: Iterable[str],
        *,
        instrumentation: Optional[Instrumentation] = None,
        progress: Optional[Callable[[str, str], None]] = None,
    ) -> ResultGrid:
        """Run every factory over every workload; see the module doc.

        The returned grid holds a result for every cell that completed
        and a :class:`CellFailure` for every cell that did not, in
        serial iteration order.  ``progress(simulator, workload)`` is
        called before each attempt of each cell.

        The options' ``ledger`` (a
        :class:`~repro.obs.telemetry.RunLedger` or a JSONL path)
        appends one telemetry record per settled cell;
        ``live_progress`` renders a live ``cells done/total, cells/s,
        ETA`` line on stderr.
        """
        ledger = self.options.ledger
        names = list(workload_names)
        self.metrics.gauge("exec.jobs").set(self.jobs)

        # Content-addressed keys (from program digests: no trace is
        # built yet) serve both the result cache and the checkpoint
        # journal.
        keyed = self.cache is not None or self.checkpoint is not None
        cells = grid_cells(
            self.workloads, factories, names,
            blockcache=self.blockcache, keyed=keyed,
        )

        owns_ledger = isinstance(ledger, (str, os.PathLike))
        if owns_ledger:
            ledger = RunLedger(ledger)
        self._ledger = ledger
        self._progress_line = (
            GridProgress(len(cells)) if self.options.live_progress
            else None
        )

        # Resolve checkpointed cells (resuming) and cache hits (or,
        # refreshing, drop stale entries).
        checkpointed: Dict[str, SimResult] = {}
        if self.checkpoint is not None and self.resume:
            checkpointed = self.checkpoint.load()
            self.metrics.gauge("exec.checkpoint.entries").set(
                len(checkpointed)
            )
        results: Dict[int, SimResult] = {}
        to_run: List[_Cell] = []
        for cell in cells:
            if checkpointed:
                hit = checkpointed.get(cell.key.digest())
                if hit is not None:
                    results[cell.index] = hit
                    self.metrics.counter("exec.checkpoint.resumed").inc()
                    self._note_cell(
                        cell.sim_name, cell.workload, "ok",
                        source="checkpoint", telemetry=hit.telemetry,
                    )
                    continue
            if self.cache is not None and self.refresh:
                self.cache.invalidate(cell.key)
            elif self.cache is not None:
                hit = self.cache.get(cell.key)
                if hit is not None:
                    results[cell.index] = hit
                    self._note_cell(
                        cell.sim_name, cell.workload, "ok",
                        source="cache", telemetry=hit.telemetry,
                    )
                    continue
            to_run.append(cell)

        failures: Dict[int, CellFailure] = {}
        try:
            if to_run:
                # Only now build traces, and only for workloads with a
                # cell left: cached in the WorkloadSet, inherited by
                # workers through fork.
                build_traces(self.workloads, to_run)
                if self.jobs > 1 and self._ctx is not None:
                    self._run_pool(
                        to_run, results, failures, instrumentation, progress
                    )
                else:
                    self._run_inprocess(
                        to_run, results, failures, instrumentation, progress
                    )
        finally:
            if self.checkpoint is not None:
                self.checkpoint.flush()
            if self._progress_line is not None:
                self._progress_line.close()
            self._progress_line = None
            self._ledger = None
            if owns_ledger:
                ledger.close()

        grid = ResultGrid()
        for cell in cells:
            result = results.get(cell.index)
            if result is not None:
                grid.add(result)
        grid.failures.extend(
            failures[index] for index in sorted(failures)
        )
        return grid

    # -- execution backends ------------------------------------------------

    def _note_cell(self, simulator: str, workload: str, status: str,
                   *, source: str = "run", attempts: int = 1,
                   telemetry=None) -> None:
        """Report one settled cell to the run ledger and progress
        line, stamping the settling source onto its telemetry."""
        if telemetry is not None:
            telemetry.source = source
        if self._ledger is not None:
            self._ledger.record(
                simulator=simulator, workload=workload, status=status,
                source=source, attempts=attempts, telemetry=telemetry,
            )
        if self._progress_line is not None:
            self._progress_line.update()

    def _settle(self, cell: _Cell, message: Tuple, attempt: int,
                elapsed: float, results: Dict[int, SimResult],
                failures: Dict[int, CellFailure]) -> bool:
        """Settle one attempt of ``cell`` from its message (see
        :func:`_attempt_cell`; the pool adds ``"strict"``, ``"crash"``
        and ``"timeout"``) — the one settle path of both backends.

        Returns ``True`` when the cell should run again: exceptions,
        crashes and timeouts are retried up to ``retries`` times.
        Quarantines and livelocks are deterministic model defects, so
        they are never retried; no failure is ever cached.
        """
        kind = message[0]
        if kind == "strict":
            raise IntegrityError(InvariantViolation.from_dict(message[1]))
        if kind == "ok":
            result = message[1]
            results[cell.index] = result
            self.metrics.timer(
                f"exec.cell.{cell.sim_name}.{cell.workload}"
            ).observe(elapsed)
            self.metrics.counter("exec.cells.completed").inc()
            if self.cache is not None:
                self._put(cell.key, cell.workload, result)
            if self.checkpoint is not None:
                self.checkpoint.record(cell.key.digest(), result)
            self._note_cell(
                cell.sim_name, cell.workload, "ok",
                attempts=attempt, telemetry=result.telemetry,
            )
            return False
        if kind == "invariant":
            failure = quarantine_failure(
                [InvariantViolation.from_dict(v) for v in message[1]],
                simulator=cell.sim_name, workload=cell.workload,
                attempts=attempt, elapsed_s=elapsed,
            )
            self.metrics.counter("exec.cells.quarantined").inc()
        else:
            if kind != "stuck" and attempt <= self.retries:
                self.metrics.counter("exec.cells.retried").inc()
                return True
            failure = CellFailure(
                simulator=cell.sim_name,
                workload=cell.workload,
                kind=kind,
                message=message[1],
                attempts=attempt,
                elapsed_s=elapsed,
                snapshot=message[2] if len(message) > 2 else None,
            )
            self.metrics.counter("exec.cells.failed").inc()
        failures[cell.index] = failure
        self._note_cell(
            cell.sim_name, cell.workload, kind, attempts=attempt
        )
        return False

    def _retry_delay(self, cell: _Cell, attempt: int) -> float:
        return self.backoff.delay(
            f"{cell.sim_name}:{cell.workload}", attempt
        )

    def _run_inprocess(self, to_run, results, failures,
                       instrumentation, progress) -> None:
        """Serial backend (``jobs=1``): same settle path, no fork.

        Per-cell timeouts are not enforced here — there is no process
        to terminate — but the in-run watchdog still catches livelocks.
        """
        harness = Harness(
            self.workloads, self.options.trimmed(),
            metrics=self.metrics, sanitizers=self.sanitizers,
        )
        for cell in to_run:
            for attempt in itertools.count(1):
                if progress is not None:
                    progress(cell.sim_name, cell.workload)
                started = time.perf_counter()
                message = _attempt_cell(
                    harness, cell.factory, cell.workload, instrumentation
                )
                if not self._settle(
                    cell, message, attempt,
                    time.perf_counter() - started, results, failures,
                ):
                    break
                time.sleep(self._retry_delay(cell, attempt))

    def _escalate_timeout(
        self, attempt: _Attempt
    ) -> Optional[Tuple[str, str, Dict]]:
        """Ask a wall-clock-expired worker for a diagnosis before the
        kill: forward SIGUSR1 (the worker's escalation handler raises
        :class:`SimulationStuck` wherever it is hung) and grant
        ``escalation_grace_s`` for the resulting ``("stuck", ...)``
        dump to arrive on the pipe.  Returns that dump, or ``None`` if
        the worker could not be signalled or did not answer in time —
        either way the caller still terminates it."""
        if not hasattr(signal, "SIGUSR1"):  # pragma: no cover - non-POSIX
            return None
        try:
            os.kill(attempt.process.pid, signal.SIGUSR1)
        except (ProcessLookupError, OSError):
            return None
        try:
            if not attempt.conn.poll(self.escalation_grace_s):
                return None
            dumped = attempt.conn.recv()
        except (EOFError, OSError):
            return None
        if (isinstance(dumped, tuple) and len(dumped) == 3
                and dumped[0] == "stuck"):
            self.metrics.counter("exec.cells.escalated").inc()
            return dumped
        return None

    def _run_pool(self, to_run, results, failures,
                  instrumentation, progress) -> None:
        """Process-pool backend: up to ``jobs`` forked workers."""
        pending = deque(to_run)
        #: Cells awaiting their backoff delay: (ready_at, cell).
        delayed: List[Tuple[float, _Cell]] = []
        attempt_of: Dict[int, int] = {}
        live: Dict[object, _Attempt] = {}

        def launch(cell: _Cell) -> None:
            attempt = attempt_of.get(cell.index, 0) + 1
            attempt_of[cell.index] = attempt
            recv_end, send_end = self._ctx.Pipe(duplex=False)
            process = self._ctx.Process(
                target=_worker_main,
                args=(send_end, cell.factory, cell.workload,
                      self.workloads, instrumentation,
                      self.sanitizers, self.options),
                daemon=True,
            )
            process.start()
            send_end.close()  # keep only the child's copy writable
            live[recv_end] = _Attempt(
                cell, process, recv_end, time.perf_counter(), attempt
            )
            if progress is not None:
                progress(cell.sim_name, cell.workload)
            self.metrics.counter("exec.cells.launched").inc()

        def settle(attempt: _Attempt, message: Tuple,
                   elapsed: float) -> None:
            cell = attempt.cell
            if self._settle(cell, message, attempt.attempt, elapsed,
                            results, failures):
                delayed.append((
                    time.perf_counter()
                    + self._retry_delay(cell, attempt.attempt),
                    cell,
                ))

        try:
            while pending or live or delayed:
                if delayed:
                    # Promote cells whose backoff delay has elapsed.
                    now = time.perf_counter()
                    still_waiting: List[Tuple[float, _Cell]] = []
                    for ready_at, cell in delayed:
                        if ready_at <= now:
                            pending.append(cell)
                        else:
                            still_waiting.append((ready_at, cell))
                    delayed[:] = still_waiting

                while pending and len(live) < self.jobs:
                    launch(pending.popleft())

                if not live:
                    if delayed:
                        now = time.perf_counter()
                        time.sleep(max(0.0, min(
                            ready_at for ready_at, _ in delayed
                        ) - now))
                    continue

                wait_for = None
                now = time.perf_counter()
                if self.timeout is not None:
                    wait_for = max(0.0, min(
                        attempt.started + self.timeout - now
                        for attempt in live.values()
                    ))
                if delayed:
                    next_retry = max(0.0, min(
                        ready_at for ready_at, _ in delayed
                    ) - now)
                    wait_for = (
                        next_retry if wait_for is None
                        else min(wait_for, next_retry)
                    )
                ready = _connection_wait(list(live), timeout=wait_for)

                for conn in ready:
                    attempt = live.pop(conn)
                    elapsed = time.perf_counter() - attempt.started
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        message = None
                    conn.close()
                    attempt.process.join()
                    if not (isinstance(message, tuple) and message):
                        message = (
                            "crash",
                            f"worker exited with code "
                            f"{attempt.process.exitcode} before "
                            f"reporting a result",
                        )
                    elif message[0] == "ok":
                        # The worker's registry died with the worker;
                        # mirror its telemetry into the parent's.
                        mirror_to_metrics(
                            self.metrics, attempt.cell.sim_name,
                            attempt.cell.workload, message[1].telemetry,
                        )
                    settle(attempt, message, elapsed)

                if self.timeout is not None:
                    now = time.perf_counter()
                    for conn, attempt in list(live.items()):
                        if now - attempt.started < self.timeout:
                            continue
                        live.pop(conn)
                        dumped = self._escalate_timeout(attempt)
                        attempt.process.terminate()
                        attempt.process.join()
                        conn.close()
                        message = (
                            f"cell exceeded its {self.timeout:g}s "
                            f"timeout and was terminated"
                        )
                        snapshot = None
                        if dumped is not None:
                            message += (
                                f"; worker dumped a diagnosis on "
                                f"SIGUSR1: {dumped[1]}"
                            )
                            snapshot = dumped[2]
                        settle(
                            attempt, ("timeout", message, snapshot),
                            time.perf_counter() - attempt.started,
                        )
        finally:
            for attempt in live.values():
                attempt.process.terminate()
                attempt.process.join()
                attempt.conn.close()
