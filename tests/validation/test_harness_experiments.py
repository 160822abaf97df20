"""Tests for the harness and (reduced) experiment drivers.

The drivers run on reduced workload lists here to keep the test suite
quick; the full-size runs live in ``benchmarks/``.
"""

import math

import pytest

from repro.core.simalpha import SimAlpha
from repro.simulators.simoutorder import SimOutOrder
from repro.validation.calibrate import calibrate_dram, sim_alpha_with_dram
from repro.dram.config import DramConfig
from repro.validation.experiments import (
    bug_walk,
    figure2_regfile,
    sampling_interval_study,
    table1_latencies,
    table2_micro,
    table3_macro,
    table4_features,
    table5_stability,
)
from repro.result import SimResult
from repro.validation.harness import CellFailure, Harness, ResultGrid


@pytest.fixture(scope="module")
def harness():
    return Harness()


class TestHarness:
    def test_run_one(self, harness):
        result = harness.run_one(SimAlpha, "E-D1")
        assert result.workload == "E-D1"
        assert result.cycles > 0

    def test_run_grid(self, harness):
        grid = harness.run_grid([SimAlpha, SimOutOrder], ["E-D1", "E-D2"])
        assert set(grid.simulators()) == {"sim-alpha", "sim-outorder"}
        assert set(grid.workloads()) == {"E-D1", "E-D2"}
        assert grid.get("sim-alpha", "E-D1").ipc > 0

    def test_grid_ipcs(self, harness):
        grid = harness.run_grid([SimAlpha], ["E-D1"])
        assert "E-D1" in grid.ipcs("sim-alpha")


class TestTable1:
    def test_measured_matches_configured(self):
        result = table1_latencies()
        assert result.max_deviation() < 0.15
        assert "Table 1" in result.render()


class TestTable2:
    def test_reduced_run_shape(self, harness):
        result = table2_micro(harness, benchmarks=["C-Ca", "E-D1", "E-DM1"])
        assert len(result.rows) == 3
        # The validated simulator beats sim-initial in aggregate.
        assert result.mean_alpha_error < result.mean_initial_error
        # C-Ca: sim-initial grossly underestimates (negative error).
        assert result.row("C-Ca").initial_error < -50
        # E-DM1: sim-initial grossly overestimates (positive error).
        assert result.row("E-DM1").initial_error > 50
        assert "Table 2" in result.render()


class TestTable3:
    def test_reduced_run_shape(self, harness):
        result = table3_macro(harness, benchmarks=["eon", "mesa", "art"])
        assert result.row("mesa").alpha_error < 0   # underestimated
        assert result.row("art").alpha_error > 0    # the outlier
        assert result.row("mesa").outorder_diff > result.row(
            "mesa"
        ).alpha_error
        assert result.native_hm_ipc > 0
        assert "Table 3" in result.render()

    def test_quarantined_cell_is_reported_not_raised(self, monkeypatch):
        """A benchmark missing a cell (here a fake DS-10L quarantine on
        ``mesa``) has no row and stays out of the means; the failure
        rides along on the result."""
        failure = CellFailure("DS-10L", "mesa", kind="invariant",
                              message="maf_peak_occupancy")
        grid = ResultGrid(failures=[failure])
        cycles = {"DS-10L": 200.0, "sim-alpha": 180.0,
                  "sim-stripped": 150.0, "sim-outorder": 120.0}
        for workload in ("gzip", "mesa"):
            for simulator, count in cycles.items():
                if (simulator, workload) != ("DS-10L", "mesa"):
                    grid.add(SimResult(simulator, workload, cycles=count,
                                       instructions=100))
        stub = Harness()
        monkeypatch.setattr(stub, "run_grid", lambda *args, **kw: grid)
        result = table3_macro(stub, benchmarks=["gzip", "mesa"])
        assert [row.benchmark for row in result.rows] == ["gzip"]
        assert result.failures == [failure]
        assert result.alpha_mean_error == pytest.approx(10.0)
        assert result.native_hm_ipc == pytest.approx(0.5)
        with pytest.raises(KeyError):
            result.row("mesa")
        rendered = result.render()
        assert "1 cell(s) missing" in rendered
        assert "DS-10L on mesa: invariant" in rendered


class TestTable4:
    def test_reduced_run_shape(self, harness):
        result = table4_features(
            harness, benchmarks=["art", "mesa"],
            features=["addr", "trap"],
        )
        addr = result.column("addr")
        trap = result.column("trap")
        # Removing an optimizing feature hurts; removing a
        # constraining feature helps.
        assert addr.mean_change < 0
        assert trap.mean_change > 0
        assert addr.stddev >= 0
        with pytest.raises(KeyError):
            result.column("warp")


class TestTable5:
    def test_reduced_run_shape(self, harness):
        result = table5_stability(
            harness, benchmarks=["gzip", "mesa"], features=["luse"],
        )
        faster_l1 = result.improvements["l1_latency_3_to_1"]
        # The 1-cycle L1 helps the baseline...
        assert faster_l1["sim-alpha"] > 0
        # ...and is n/a in the no-luse configuration, as in the paper.
        assert math.isnan(faster_l1["luse"])
        assert "sim-outorder" in result.configurations
        assert result.spread("l1_latency_3_to_1") >= 0
        assert "Table 5" in result.render()


class TestFigure2:
    def test_reduced_run_shape(self, harness):
        result = figure2_regfile(harness, benchmarks=["go", "swim"])
        # The 8-way machine is far faster in absolute IPC.
        hm8 = result.harmonic_means("8-way")
        hma = result.harmonic_means("sim-alpha")
        assert hm8[0] > hma[0]
        # Removing full bypass costs the 8-way machine much more.
        assert result.bypass_loss("8-way") < result.bypass_loss(
            "sim-alpha"
        ) - 1.0
        assert "Figure 2" in result.render()


class TestBugWalk:
    def test_reduced_run(self, harness):
        result = bug_walk(
            harness,
            benchmarks=["C-Ca", "C-S1"],
            bugs=["late_branch_recovery", "jmp_undercharge"],
        )
        assert result.mean_error["late_branch_recovery"] > (
            result.baseline_error
        )
        assert "late_branch_recovery" in result.render()


class TestSampling:
    def test_best_interval_is_40k(self):
        result = sampling_interval_study()
        assert result.best_interval() == 40_000
        assert len(result.rows) == 5


class TestCalibration:
    def test_tiny_sweep_structure(self, harness):
        configs = [
            DramConfig(page_policy="open"),
            DramConfig(page_policy="closed"),
            DramConfig(cas_cycles=2),
        ]
        result = calibrate_dram(
            harness, configs=configs, workloads=["M-M", "lmbench-memory"]
        )
        assert len(result.ranking) == 3
        errors = [error for _, error, _ in result.ranking]
        assert errors == sorted(errors)  # best first
        assert result.best_error == errors[0]
        assert set(result.residuals()) == {"M-M", "lmbench-memory"}
        assert "DRAM" in result.render()

    def test_sim_alpha_with_dram_names(self):
        sim = sim_alpha_with_dram(DramConfig(page_policy="closed"))
        assert "closed" in sim.name
