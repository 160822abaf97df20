"""One settle path: a grid reports the same cells, failures included,
whatever ``jobs`` it ran with.

``jobs=1`` times cells in-process and ``jobs=2`` forks a worker per
cell, but both settle every attempt through the engine's one path, so
the canonical JSON and the run ledger must agree between them.  The
parity tests are marked ``exec_pool`` so the pool smoke job runs them.
"""

import json

import pytest

from exec_fakes import FakeConfig, FakeSim, fake_factory
from repro.exec.spec import RunOptions
from repro.integrity.watchdog import SimulationStuck
from repro.result import SimResult
from repro.validation.harness import Harness

NAMES = ["C-R", "E-I"]


class StuckSim(FakeSim):
    """Livelocks (as the watchdog reports it) on ``FAIL_WORKLOAD``."""

    def run_trace(self, trace, workload, **kwargs):
        if workload == self.FAIL_WORKLOAD:
            raise SimulationStuck(
                "retire frontier frozen", instructions=7, retire=3.0,
                state={"stage": "issue"},
            )
        return super().run_trace(trace, workload, **kwargs)


class LyingSim(FakeSim):
    """Reports an IPC far past any machine width on every workload."""

    def run_trace(self, trace, workload, **kwargs):
        return SimResult(
            self.name, workload,
            cycles=max(1.0, len(trace) / 100.0),
            instructions=len(trace),
        )


def mixed_factories():
    return [
        fake_factory("fake-ok"),
        fake_factory("fake-bad", "raise"),
        lambda: StuckSim(FakeConfig(name="fake-stuck")),
    ]


def ledger_cells(path):
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    return {
        (cell["simulator"], cell["workload"]):
            (cell["status"], cell["source"], cell["attempts"])
        for cell in lines[1:]
    }


@pytest.mark.exec_pool
class TestModesSettleAlike:
    def test_raising_cell_is_recorded_not_raised_at_jobs_1(self):
        """No cache, no pool: the healthy cells still finish and the
        raising one is a CellFailure, exactly as under jobs=2."""
        serial_harness = Harness()
        serial = serial_harness.run_grid(
            [fake_factory("fake-ok"), fake_factory("fake-bad", "raise")],
            NAMES,
        )
        assert sorted(serial.ipcs("fake-ok")) == sorted(NAMES)
        assert list(serial.ipcs("fake-bad")) == ["C-R"]
        [failure] = serial.failures
        assert (failure.simulator, failure.workload, failure.kind) == \
            ("fake-bad", "E-I", "exception")
        assert "deliberately failed" in failure.message
        assert serial_harness.failed_cells == [failure]

        parallel = Harness().run_grid(
            [fake_factory("fake-ok"), fake_factory("fake-bad", "raise")],
            NAMES, RunOptions(jobs=2),
        )
        assert parallel.to_json(canonical=True) == \
            serial.to_json(canonical=True)

    def test_every_failure_kind_serialises_identically(self):
        """Exceptions, livelocks and quarantines carry the same kind,
        message, attempts and snapshot in both modes."""
        factories = mixed_factories() + [
            lambda: LyingSim(FakeConfig(name="fake-lying")),
        ]
        serial = Harness().run_grid(
            factories, NAMES, RunOptions(sanitize=True),
        )
        parallel = Harness().run_grid(
            factories, NAMES, RunOptions(jobs=2, sanitize=True),
        )
        kinds = {(f.simulator, f.workload): f.kind for f in serial.failures}
        assert kinds == {
            ("fake-bad", "E-I"): "exception",
            ("fake-stuck", "E-I"): "stuck",
            ("fake-lying", "C-R"): "invariant",
            ("fake-lying", "E-I"): "invariant",
        }
        assert parallel.to_json(canonical=True) == \
            serial.to_json(canonical=True)

    def test_ledgers_carry_the_same_settlement_per_cell(self, tmp_path):
        ledgers = {}
        for jobs in (1, 2):
            path = tmp_path / f"jobs{jobs}.jsonl"
            Harness().run_grid(
                mixed_factories(), NAMES,
                RunOptions(jobs=jobs, ledger=path, retries=1),
            )
            ledgers[jobs] = ledger_cells(path)
        assert ledgers[1] == ledgers[2]
        assert ledgers[1][("fake-bad", "E-I")] == ("exception", "run", 2)
        assert ledgers[1][("fake-stuck", "E-I")] == ("stuck", "run", 1)
        assert ledgers[1][("fake-ok", "E-I")] == ("ok", "run", 1)


class TestInProcessRetries:
    def test_retries_apply_without_a_cache(self):
        attempts = []
        grid = Harness().run_grid(
            [fake_factory("fake-bad", "raise")], ["E-I"],
            RunOptions(retries=2),
            progress=lambda simulator, workload: attempts.append(workload),
        )
        [failure] = grid.failures
        assert failure.attempts == 3
        assert attempts == ["E-I"] * 3


class TestWhatStillPropagates:
    def test_keyboard_interrupt_from_a_cell(self):
        class InterruptedSim(FakeSim):
            def run_trace(self, trace, workload, **kwargs):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            Harness().run_grid(
                [lambda: InterruptedSim(FakeConfig(name="fake-int"))],
                ["C-R"], RunOptions(retries=2),
            )

    def test_progress_callback_exception(self):
        class Shutdown(Exception):
            pass

        def progress(simulator, workload):
            raise Shutdown(workload)

        harness = Harness()
        with pytest.raises(Shutdown):
            harness.run_grid(
                [fake_factory("fake-ok")], NAMES, progress=progress,
            )
        assert harness.failed_cells == []
