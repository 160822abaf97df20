"""Chaos harness: the process pool and its checkpoint under induced
failure.

Each scenario asserts the pool's invariant: every run ends complete
and byte-identical to the serial baseline (or with diagnosable
failures) — never a hang, never silent loss, never a double-count.
"""

import multiprocessing

import pytest

from repro.integrity.chaos import (
    CHAOS_SCENARIOS,
    CHAOS_SIMS,
    CHAOS_WORKLOADS,
    ChaosReport,
    run_chaos_scenario,
)

fork_available = "fork" in multiprocessing.get_all_start_methods()

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.skipif(
        not fork_available,
        reason="the process pool requires the fork start method",
    ),
]


class TestScenarioRegistry:
    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError):
            run_chaos_scenario("no-such-scenario")

    def test_registry_covers_the_required_failure_classes(self):
        assert set(CHAOS_SCENARIOS) == {
            "clean-control", "worker-sigkill", "parent-kill",
            "journal-corruption",
        }

    def test_empty_report_is_not_a_pass(self):
        assert not ChaosReport(outcomes=[]).all_passed


def _assert_passed(outcome):
    assert outcome.byte_identical, (
        f"{outcome.scenario} diverged: {outcome.detail}"
    )
    assert outcome.passed, f"{outcome.scenario}: {outcome.detail}"


class TestScenarios:
    """Each scenario must end byte-identical with the right recovery
    evidence in the engine's counters (the scenario's own checks)."""

    def test_clean_control(self):
        outcome = run_chaos_scenario("clean-control")
        _assert_passed(outcome)
        assert outcome.counters["exec.cells.completed"] == \
            len(CHAOS_WORKLOADS) * CHAOS_SIMS

    def test_worker_sigkill(self):
        outcome = run_chaos_scenario("worker-sigkill")
        _assert_passed(outcome)
        assert outcome.counters["exec.cells.retried"] == 1
        assert "settled as crash" in outcome.detail

    def test_journal_corruption(self):
        outcome = run_chaos_scenario("journal-corruption")
        _assert_passed(outcome)
        assert "exec.cells.launched" not in outcome.counters

    def test_parent_kill_resumes_without_recompute(self):
        outcome = run_chaos_scenario("parent-kill")
        _assert_passed(outcome)
        resumed = outcome.counters["exec.checkpoint.resumed"]
        computed = outcome.counters.get("exec.cells.completed", 0)
        assert resumed >= 2
        # every cell, exactly once
        assert resumed + computed == len(CHAOS_WORKLOADS) * CHAOS_SIMS
