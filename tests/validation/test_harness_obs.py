"""Harness-level observability: grid errors, persistence, metrics."""

import pytest

from repro import SimAlpha
from repro.obs import Instrumentation, MetricsRegistry
from repro.result import RunStats, SimResult
from repro.validation.harness import Harness, ResultGrid


def make_result(sim="sim-alpha", workload="C-R", **kwargs):
    return SimResult(sim, workload, cycles=100.0, instructions=50, **kwargs)


class TestResultGridGet:
    def test_unknown_simulator_lists_known(self):
        grid = ResultGrid()
        grid.add(make_result("sim-alpha"))
        grid.add(make_result("sim-initial"))
        with pytest.raises(KeyError) as excinfo:
            grid.get("sim-outorder", "C-R")
        message = str(excinfo.value)
        assert "sim-outorder" in message
        assert "sim-alpha" in message and "sim-initial" in message

    def test_unknown_workload_lists_known(self):
        grid = ResultGrid()
        grid.add(make_result(workload="C-R"))
        grid.add(make_result(workload="M-D"))
        with pytest.raises(KeyError) as excinfo:
            grid.get("sim-alpha", "gzip")
        message = str(excinfo.value)
        assert "gzip" in message
        assert "C-R" in message and "M-D" in message

    def test_hit_still_works(self):
        grid = ResultGrid()
        result = make_result()
        grid.add(result)
        assert grid.get("sim-alpha", "C-R") is result


class TestResultGridAdd:
    def test_duplicate_cell_is_an_error(self):
        grid = ResultGrid()
        grid.add(make_result())
        with pytest.raises(ValueError) as excinfo:
            grid.add(make_result())
        message = str(excinfo.value)
        assert "sim-alpha" in message and "C-R" in message

    def test_same_workload_under_other_simulator_is_fine(self):
        grid = ResultGrid()
        grid.add(make_result("sim-alpha"))
        grid.add(make_result("sim-initial"))
        assert grid.simulators() == ["sim-alpha", "sim-initial"]

    def test_ipcs_unknown_simulator_lists_known(self):
        grid = ResultGrid()
        grid.add(make_result("sim-alpha"))
        with pytest.raises(KeyError) as excinfo:
            grid.ipcs("sim-outorder")
        message = str(excinfo.value)
        assert "sim-outorder" in message and "sim-alpha" in message


class TestCanonicalJson:
    def test_canonical_blanks_only_volatile_provenance(self):
        harness = Harness()
        grid = harness.run_grid([SimAlpha], ["E-I"])
        canonical = ResultGrid.from_json(grid.to_json(canonical=True))
        provenance = canonical.get("sim-alpha", "E-I").provenance
        original = grid.get("sim-alpha", "E-I").provenance
        assert provenance.created == ""
        assert provenance.host == ""
        assert provenance.platform == ""
        assert provenance.python == ""
        assert provenance.config_hash == original.config_hash
        assert provenance.config_name == original.config_name
        assert provenance.package_version == original.package_version

    def test_plain_json_keeps_provenance(self):
        harness = Harness()
        grid = harness.run_grid([SimAlpha], ["E-I"])
        clone = ResultGrid.from_json(grid.to_json())
        assert clone.get("sim-alpha", "E-I").provenance.created != ""


class TestResultGridJson:
    def test_round_trip_preserves_everything(self):
        stats = RunStats(branch_mispredicts=7, dcache_misses=3)
        stats.extra["window_size"] = 64
        stats.extra["window_retire_times"] = [10.0, 20.0]
        grid = ResultGrid()
        grid.add(make_result(
            stats=stats,
            cpi_stack={"base": 1.0, "memory": 1.0},
        ))
        grid.add(make_result("sim-initial", "M-D"))

        clone = ResultGrid.from_json(grid.to_json())
        assert clone.simulators() == grid.simulators()
        assert clone.workloads() == grid.workloads()
        restored = clone.get("sim-alpha", "C-R")
        assert restored.cycles == 100.0
        assert restored.instructions == 50
        assert restored.stats.branch_mispredicts == 7
        assert restored.stats.extra["window_size"] == 64
        assert restored.stats.extra["window_retire_times"] == [10.0, 20.0]
        assert restored.cpi_stack == {"base": 1.0, "memory": 1.0}

    def test_round_trip_preserves_provenance(self):
        harness = Harness()
        grid = harness.run_grid([SimAlpha], ["E-I"])
        clone = ResultGrid.from_json(grid.to_json())
        original = grid.get("sim-alpha", "E-I")
        restored = clone.get("sim-alpha", "E-I")
        assert restored.provenance == original.provenance
        assert restored.stats == original.stats

    def test_rejects_foreign_payloads(self):
        with pytest.raises(ValueError):
            ResultGrid.from_json('{"format": "something-else"}')


class TestHarnessMetrics:
    def test_run_grid_records_per_cell_timings(self):
        registry = MetricsRegistry()
        harness = Harness(metrics=registry)
        progress_calls = []
        harness.run_grid(
            [SimAlpha], ["E-I", "C-R"],
            progress=lambda sim, wl: progress_calls.append((sim, wl)),
        )
        assert progress_calls == [
            ("sim-alpha", "E-I"), ("sim-alpha", "C-R"),
        ]
        snap = registry.snapshot()
        assert snap["counters"]["harness.runs"] == 2
        assert snap["timers"]["harness.cell.sim-alpha.E-I"]["count"] == 1
        assert snap["timers"]["harness.cell.sim-alpha.C-R"]["total_s"] > 0

    def test_default_harness_records_nothing(self):
        harness = Harness()
        harness.run_one(SimAlpha, "E-I")
        assert harness.metrics.snapshot() == {
            "counters": {}, "gauges": {}, "timers": {},
        }


class TestInstrumentedGrid:
    def test_grid_runs_collect_stacks_and_hierarchy_traffic(self):
        instrumentation = Instrumentation()
        harness = Harness(metrics=instrumentation.registry)
        grid = harness.run_grid(
            [SimAlpha], ["E-I"], instrumentation=instrumentation
        )
        result = grid.get("sim-alpha", "E-I")
        assert result.cpi_stack is not None
        snap = instrumentation.registry.snapshot()
        assert snap["counters"]["pipeline.instructions"] == \
            result.instructions
        assert snap["counters"]["memory.ifetches"] > 0

    def test_tracer_ring_bound_respected_through_pipeline(self):
        instrumentation = Instrumentation(trace=True, trace_capacity=128)
        harness = Harness()
        result = harness.run_one(
            SimAlpha, "C-R", instrumentation=instrumentation
        )
        tracer = instrumentation.last_tracer()
        assert tracer.recorded == result.instructions
        assert len(tracer) == 128
        assert tracer.dropped == result.instructions - 128
        # Events arrive in retirement order with sane stage ordering.
        events = tracer.events
        assert all(
            events[i].retire <= events[i + 1].retire
            for i in range(len(events) - 1)
        )
        for event in events[:16]:
            assert event.fetch <= event.retire
            assert event.cause in (
                "base", "fetch", "issue", "memory", "trap", "bubble",
            )

    def test_disabled_instrumentation_is_inert(self):
        instrumentation = Instrumentation.disabled()
        harness = Harness()
        result = harness.run_one(
            SimAlpha, "E-I", instrumentation=instrumentation
        )
        assert result.cpi_stack is None
        assert instrumentation.runs == []
        assert instrumentation.last_tracer() is None
