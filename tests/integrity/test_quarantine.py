"""Quarantine semantics: violating cells leave the grid, with their
diagnosis preserved through serialisation."""

import pytest

from repro.integrity.sanitizers import (
    IntegrityError,
    InvariantViolation,
    Sanitizers,
)
from repro.result import SimResult
from repro.exec.spec import RunOptions
from repro.validation.harness import (
    CellFailure,
    Harness,
    ResultGrid,
    quarantine_failure,
)


class LyingSim:
    """Reports half the cycles it should (IPC blows past any width)."""

    name = "sim-lying"

    def run_trace(self, trace, workload, **_):
        return SimResult(
            self.name, workload,
            cycles=max(1.0, len(trace) / 100.0),
            instructions=len(trace),
        )


class HonestSim:
    name = "sim-honest"

    def run_trace(self, trace, workload, **_):
        return SimResult(
            self.name, workload,
            cycles=len(trace) * 2.0,
            instructions=len(trace),
        )


class TestQuarantine:
    def test_violating_cell_is_quarantined_not_added(self):
        harness = Harness(sanitizers=Sanitizers())
        grid = harness.run_grid([LyingSim, HonestSim], ["C-R"])
        assert grid.simulators() == ["sim-honest"]
        [failure] = grid.failures
        assert failure.kind == "invariant"
        assert (failure.simulator, failure.workload) == ("sim-lying", "C-R")
        violations = failure.snapshot["violations"]
        assert any(v["invariant"] == "ipc_bound" for v in violations)
        assert harness.failed_cells == [failure]

    def test_strict_mode_raises_instead(self):
        harness = Harness(sanitizers=Sanitizers(strict=True))
        with pytest.raises(IntegrityError) as excinfo:
            harness.run_grid([LyingSim], ["C-R"])
        assert excinfo.value.violation.invariant == "ipc_bound"

    def test_clean_grid_stays_clean(self):
        harness = Harness(sanitizers=Sanitizers())
        grid = harness.run_grid([HonestSim], ["C-R", "E-I"])
        assert grid.failures == []
        assert harness.failed_cells == []

    def test_quarantine_is_not_retried_or_cached(self, tmp_path):
        """Deterministic violations must not burn the retry budget or
        poison the cache."""
        from repro.exec.cache import ResultCache

        cache = ResultCache(tmp_path / "cache")
        harness = Harness(sanitizers=Sanitizers())
        grid = harness.run_grid(
            [LyingSim], ["C-R"], RunOptions(cache=cache, retries=2),
        )
        [failure] = grid.failures
        assert failure.attempts == 1
        assert len(list((tmp_path / "cache").rglob("*.json"))) == 0


class TestFailureRoundTrip:
    def test_quarantined_failure_survives_json(self):
        violation = InvariantViolation(
            invariant="maf_occupancy",
            message="MAF peak occupancy 12 exceeds its 8 entries",
            simulator="sim-alpha", workload="M-M",
            snapshot={"peak": 12, "entries": 8},
        )
        grid = ResultGrid()
        grid.add(SimResult("sim-alpha", "C-R", cycles=10.0, instructions=5))
        grid.failures.append(quarantine_failure(
            [violation], simulator="sim-alpha", workload="M-M",
            attempts=2, elapsed_s=1.5,
        ))

        clone = ResultGrid.from_json(grid.to_json())
        [failure] = clone.failures
        assert failure.kind == "invariant"
        assert failure.attempts == 2
        assert failure.elapsed_s == 1.5
        restored = InvariantViolation.from_dict(
            failure.snapshot["violations"][0]
        )
        assert restored == violation

    def test_stuck_failure_survives_json(self):
        grid = ResultGrid()
        grid.failures.append(CellFailure(
            simulator="sim-alpha", workload="gzip", kind="stuck",
            message="simulation stuck: retire frontier frozen",
            snapshot={"instructions": 8192, "retire": 1e6},
        ))
        clone = ResultGrid.from_json(grid.to_json())
        [failure] = clone.failures
        assert failure.kind == "stuck"
        assert failure.snapshot == {"instructions": 8192, "retire": 1e6}

    def test_describe_is_one_line(self):
        failure = CellFailure(
            simulator="sim-alpha", workload="M-M", kind="invariant",
            message="ipc_bound violated",
        )
        text = failure.describe()
        assert "\n" not in text
        assert "sim-alpha" in text and "M-M" in text and "invariant" in text
