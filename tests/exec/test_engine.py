"""The parallel execution engine: determinism, fault isolation,
timeouts, and the retry budget."""

import os

import pytest

from exec_fakes import FakeConfig, FakeSim, fake_factory
from repro.exec.engine import ExperimentEngine
from repro.exec.spec import RunOptions
from repro.obs.observer import Instrumentation
from repro.obs.registry import MetricsRegistry
from repro.validation.harness import ResultGrid

QUICK = ["C-R", "E-I"]


class TestDeterminism:
    def test_parallel_matches_serial_with_fakes(self, harness):
        factories = [fake_factory("fake-a"), fake_factory("fake-b", cpi=3.0)]
        names = ["C-R", "E-I", "M-D"]
        serial = harness.run_grid(factories, names)
        parallel = harness.run_grid(factories, names, RunOptions(jobs=4))
        assert parallel.to_json(canonical=True) == \
            serial.to_json(canonical=True)
        assert parallel.simulators() == serial.simulators()
        assert parallel.workloads() == serial.workloads()

    def test_parallel_matches_serial_with_real_sims(self, harness):
        """The acceptance bar: a ``jobs=4`` run of real simulators with
        CPI-stack instrumentation serialises byte-identically to the
        serial run (``canonical=True`` blanks only the wall-clock
        provenance fields)."""
        from repro.core.siminitial import make_sim_initial
        from repro.simulators.refmachine import make_native_machine

        factories = [make_native_machine, make_sim_initial]
        serial = harness.run_grid(
            factories, QUICK, instrumentation=Instrumentation()
        )
        parallel = harness.run_grid(
            factories, QUICK, RunOptions(jobs=4),
            instrumentation=Instrumentation(),
        )
        assert parallel.to_json(canonical=True) == \
            serial.to_json(canonical=True)
        for simulator in serial.simulators():
            stack = parallel.get(simulator, "C-R").cpi_stack
            assert stack and stack == serial.get(simulator, "C-R").cpi_stack


class TestFaultIsolation:
    def test_raising_cell_becomes_exception_failure(self, harness):
        grid = harness.run_grid(
            [fake_factory("fake-ok"), fake_factory("fake-bad", "raise")],
            QUICK, RunOptions(jobs=2),
        )
        assert sorted(grid.ipcs("fake-ok")) == sorted(QUICK)
        assert list(grid.ipcs("fake-bad")) == ["C-R"]
        [failure] = grid.failures
        assert (failure.simulator, failure.workload) == ("fake-bad", "E-I")
        assert failure.kind == "exception"
        assert "deliberately failed" in failure.message
        assert failure.attempts == 1

    def test_crashing_worker_becomes_crash_failure(self, harness):
        grid = harness.run_grid(
            [fake_factory("fake-ok"), fake_factory("fake-dead", "crash")],
            QUICK, RunOptions(jobs=2),
        )
        assert sorted(grid.ipcs("fake-ok")) == sorted(QUICK)
        [failure] = grid.failures
        assert failure.kind == "crash"
        assert "17" in failure.message

    def test_hanging_cell_is_terminated_on_timeout(self, harness):
        grid = harness.run_grid(
            [fake_factory("fake-ok"), fake_factory("fake-hung", "hang")],
            QUICK, RunOptions(jobs=2, timeout=1.0),
        )
        assert sorted(grid.ipcs("fake-ok")) == sorted(QUICK)
        [failure] = grid.failures
        assert failure.kind == "timeout"
        assert failure.elapsed_s >= 0.9
        assert failure.elapsed_s < FakeSim.HANG_SECONDS

    def test_expired_worker_dumps_stuck_snapshot(self, harness):
        """SIGUSR1 escalation: a wall-clock-expired worker ships a
        SimulationStuck diagnosis home before the parent kills it."""
        registry = MetricsRegistry()
        engine = ExperimentEngine(
            harness.workloads, RunOptions(jobs=2, timeout=1.0),
            metrics=registry,
        )
        grid = engine.run_grid(
            [fake_factory("fake-ok"), fake_factory("fake-hung", "hang")],
            QUICK,
        )
        assert sorted(grid.ipcs("fake-ok")) == sorted(QUICK)
        [failure] = grid.failures
        assert failure.kind == "timeout"
        assert "SIGUSR1" in failure.message
        assert failure.snapshot is not None
        assert "escalated" in failure.snapshot["detail"]
        # The dump arrived over the pipe, not after HANG_SECONDS.
        assert failure.elapsed_s < FakeSim.HANG_SECONDS
        counters = registry.snapshot()["counters"]
        assert counters["exec.cells.escalated"] == 1

    def test_deaf_worker_is_still_terminated(self, harness):
        """A worker that blocks SIGUSR1 gets the grace period, no
        diagnosis, and the kill — escalation must never let a hung
        cell outlive its timeout by more than the grace."""
        import signal as signal_module
        import time as time_module

        class DeafSim(FakeSim):
            def run_trace(self, trace, workload, **_):
                if workload == self.FAIL_WORKLOAD:
                    signal_module.pthread_sigmask(
                        signal_module.SIG_BLOCK,
                        {signal_module.SIGUSR1},
                    )
                return super().run_trace(trace, workload)

        engine = ExperimentEngine(
            harness.workloads,
            RunOptions(jobs=2, timeout=0.5, escalation_grace_s=0.2),
        )
        started = time_module.perf_counter()
        grid = engine.run_grid(
            [lambda: DeafSim(FakeConfig(name="deaf", flavor="hang"))],
            ["E-I"],
        )
        elapsed = time_module.perf_counter() - started
        [failure] = grid.failures
        assert failure.kind == "timeout"
        assert failure.snapshot is None
        assert "SIGUSR1" not in failure.message
        assert elapsed < FakeSim.HANG_SECONDS / 2

    def test_inprocess_engine_isolates_exceptions(self, harness):
        engine = ExperimentEngine(harness.workloads)
        grid = engine.run_grid(
            [fake_factory("fake-ok"), fake_factory("fake-bad", "raise")],
            QUICK,
        )
        assert sorted(grid.ipcs("fake-ok")) == sorted(QUICK)
        [failure] = grid.failures
        assert failure.kind == "exception"
        assert "deliberately failed" in failure.message

    def test_failures_survive_json_round_trip(self, harness):
        grid = harness.run_grid(
            [fake_factory("fake-bad", "raise")], ["E-I"],
            RunOptions(jobs=2),
        )
        restored = ResultGrid.from_json(grid.to_json())
        assert restored.failures == grid.failures


class TestRetries:
    def test_exhausted_retries_count_attempts(self, harness):
        registry = MetricsRegistry()
        engine = ExperimentEngine(
            harness.workloads, RunOptions(jobs=2, retries=2),
            metrics=registry,
        )
        grid = engine.run_grid([fake_factory("fake-bad", "raise")], ["E-I"])
        [failure] = grid.failures
        assert failure.attempts == 3
        counters = registry.snapshot()["counters"]
        assert counters["exec.cells.retried"] == 2
        assert counters["exec.cells.failed"] == 1

    def test_flaky_cell_succeeds_within_budget(self, tmp_path, harness):
        """A cell that kills its worker on the first attempt and runs
        clean on the second must produce a result, not a failure."""
        marker = tmp_path / "first-attempt"

        class FlakyOnce(FakeSim):
            def run_trace(self, trace, workload, **_):
                if not marker.exists():
                    marker.write_text("started")
                    os._exit(3)
                return super().run_trace(trace, workload)

        registry = MetricsRegistry()
        engine = ExperimentEngine(
            harness.workloads, RunOptions(jobs=2, retries=1),
            metrics=registry,
        )
        grid = engine.run_grid(
            [lambda: FlakyOnce(FakeConfig(name="flaky"))], ["C-R"]
        )
        assert grid.failures == []
        assert grid.get("flaky", "C-R").stats.extra["fake_marker"] > 0
        counters = registry.snapshot()["counters"]
        assert counters["exec.cells.retried"] == 1
        assert counters["exec.cells.launched"] == 2

    def test_inprocess_retry_budget(self, harness):
        calls = []

        class FlakyInProcess(FakeSim):
            def run_trace(self, trace, workload, **_):
                if not calls:
                    calls.append(workload)
                    raise RuntimeError("transient")
                return super().run_trace(trace, workload)

        engine = ExperimentEngine(harness.workloads, RunOptions(retries=1))
        grid = engine.run_grid(
            [lambda: FlakyInProcess(FakeConfig(name="flaky"))], ["C-R"]
        )
        assert grid.failures == []
        assert len(calls) == 1
        assert grid.get("flaky", "C-R").instructions > 0
