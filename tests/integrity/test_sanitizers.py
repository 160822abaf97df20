"""Unit tests for the invariant sanitizers."""

import math

import pytest

from repro.integrity.sanitizers import (
    DEFAULT_IPC_BOUND,
    INVARIANTS,
    IntegrityError,
    InvariantViolation,
    RunSanitizer,
    Sanitizers,
)
from repro.result import RunStats, SimResult


def make_result(cycles=100.0, instructions=50, **kwargs):
    return SimResult(
        "sim-alpha", "C-R", cycles=cycles, instructions=instructions,
        **kwargs,
    )


class TestCommitChecks:
    def test_monotonic_retire_is_clean(self):
        sanitizer = RunSanitizer(window=1)
        for retire in (1.0, 2.0, 2.0, 5.0):
            sanitizer.on_commit(0.0, 0.0, 0.0, retire, retire)
        assert sanitizer.violations == []

    def test_retire_regression_is_caught(self):
        sanitizer = RunSanitizer()
        sanitizer.on_commit(0.0, 0.0, 0.0, 10.0, 10.0)
        sanitizer.on_commit(0.0, 0.0, 0.0, 4.0, 4.0, pc=0x120)
        [violation] = sanitizer.violations
        assert violation.invariant == "cycle_monotonicity"
        assert "0x120" in violation.message

    def test_nan_retire_is_caught(self):
        """NaN compares false with everything; the negated comparison
        must still flag it."""
        sanitizer = RunSanitizer()
        sanitizer.on_commit(0.0, 0.0, 0.0, 10.0, 10.0)
        sanitizer.on_commit(0.0, 0.0, 0.0, math.nan, math.nan)
        assert sanitizer.violations[0].invariant == "cycle_monotonicity"

    def test_repeats_count_but_record_once(self):
        sanitizer = RunSanitizer()
        sanitizer.on_commit(0.0, 0.0, 0.0, 10.0, 10.0)
        for _ in range(5):
            sanitizer.on_commit(0.0, 0.0, 0.0, 1.0, 1.0)
        assert len(sanitizer.violations) == 1
        assert sanitizer.counts["cycle_monotonicity"] == 5

    def test_stage_order_checked_per_window(self):
        sanitizer = RunSanitizer(window=2)
        sanitizer.on_commit(0.0, 1.0, 2.0, 3.0, 4.0)
        # Window boundary: issue precedes map.
        sanitizer.on_commit(0.0, 5.0, 1.0, 6.0, 7.0)
        [violation] = sanitizer.violations
        assert violation.invariant == "stage_order"


class TestFatalChecks:
    def test_nan_readiness_time_raises(self):
        sanitizer = RunSanitizer()
        with pytest.raises(IntegrityError) as excinfo:
            sanitizer.check_time("load", math.nan, pc=0x80)
        assert excinfo.value.violation.invariant == "finite_latency"
        assert sanitizer.violations  # recorded as well as raised

    def test_negative_readiness_time_raises(self):
        sanitizer = RunSanitizer()
        with pytest.raises(IntegrityError):
            sanitizer.check_time("ifetch", -1.0)

    def test_finite_time_passes(self):
        sanitizer = RunSanitizer()
        sanitizer.check_time("load", 123.5)
        assert sanitizer.violations == []


class TestStrictMode:
    def test_strict_raises_on_nonfatal_violation(self):
        sanitizer = RunSanitizer(strict=True)
        sanitizer.on_commit(0.0, 0.0, 0.0, 10.0, 10.0)
        with pytest.raises(IntegrityError) as excinfo:
            sanitizer.on_commit(0.0, 0.0, 0.0, 1.0, 1.0)
        assert excinfo.value.violation.invariant == "cycle_monotonicity"


class TestAudits:
    def test_clean_result_passes(self):
        sanitizer = RunSanitizer()
        violations = sanitizer.audit_result(
            make_result(), expected_instructions=50
        )
        assert violations == []

    def test_instruction_conservation(self):
        sanitizer = RunSanitizer()
        sanitizer.audit_result(make_result(), expected_instructions=99)
        [violation] = sanitizer.violations
        assert violation.invariant == "instruction_conservation"
        assert violation.snapshot == {"retired": 50, "expected": 99}

    def test_ipc_above_default_bound(self):
        sanitizer = RunSanitizer()
        sanitizer.audit_result(make_result(cycles=1.0))
        [violation] = sanitizer.violations
        assert violation.invariant == "ipc_bound"
        assert violation.snapshot["bound"] == DEFAULT_IPC_BOUND

    def test_ipc_bound_uses_attached_retire_width(self):
        from repro.core.config import MachineConfig

        sanitizer = RunSanitizer()
        config = MachineConfig()

        class _Hier:
            pass

        hier = _Hier()
        from repro.memory.mshr import MissAddressFile
        hier.maf_i = hier.maf_d = hier.maf_l2 = MissAddressFile()
        hier.l1d = hier.l1i = None
        sanitizer.attach(config, hier)
        sanitizer._hier = None  # skip the conservation audit
        # IPC of 50/4 = 12.5 exceeds the 21264's retire width of 11
        # but not the generous default bound of 16.
        sanitizer.audit_result(make_result(cycles=4.0))
        [violation] = sanitizer.violations
        assert violation.invariant == "ipc_bound"
        assert violation.snapshot["bound"] == float(config.retire_width)

    def test_stack_sum_mismatch(self):
        sanitizer = RunSanitizer()
        result = make_result(cpi_stack={"base": 1.0, "memory": 1.5})
        sanitizer.audit_result(result)  # cpi = 2.0, stack sums to 2.5
        [violation] = sanitizer.violations
        assert violation.invariant == "cpi_stack_sum"

    def test_exact_stack_passes(self):
        sanitizer = RunSanitizer()
        result = make_result(cpi_stack={"base": 1.5, "memory": 0.5})
        assert sanitizer.audit_result(result) == []

    def test_negative_counter_flagged(self):
        sanitizer = RunSanitizer()
        result = make_result(stats=RunStats(dcache_misses=-3))
        sanitizer.audit_result(result)
        [violation] = sanitizer.violations
        assert violation.invariant == "finite_stats"
        assert "dcache_misses" in violation.message

    def test_nonfinite_cycles_flagged(self):
        sanitizer = RunSanitizer()
        sanitizer.audit_result(make_result(cycles=math.inf))
        invariants = {v.invariant for v in sanitizer.violations}
        assert "finite_stats" in invariants

    def test_maf_peak_audit(self):
        from repro.memory.mshr import MafConfig, MissAddressFile

        sanitizer = RunSanitizer()
        maf = MissAddressFile(MafConfig(entries=2))
        # Three overlapping fills admitted (the PR 2 bug shape).
        for index in range(3):
            maf.record_fill(index * 64, 100.0, start=0.0)

        class _Hier:
            pass

        hier = _Hier()
        hier.maf_i = hier.maf_d = hier.maf_l2 = maf
        hier.l1d = hier.l1i = None
        sanitizer.attach(None, hier)
        sanitizer._hier = None
        sanitizer.audit_result(make_result())
        [violation] = sanitizer.violations
        assert violation.invariant == "maf_occupancy"
        assert violation.snapshot["peak"] == 3
        assert violation.snapshot["entries"] == 2


def _dram_hier(dram):
    """Minimal attached hierarchy exposing a DRAM model and clean,
    zero-miss caches (so the conservation audit passes through)."""
    from repro.memory.mshr import MissAddressFile

    class _Stats:
        misses = 0

    class _Cache:
        stats = _Stats()

    class _Hier:
        pass

    hier = _Hier()
    hier.maf_i = hier.maf_d = hier.maf_l2 = MissAddressFile()
    hier.l1d = hier.l1i = _Cache()
    hier.dram = dram
    return hier


def _exercised_sdram(policy="open"):
    """An Sdram that has absorbed a small mixed access pattern."""
    from repro.dram.config import DramConfig
    from repro.dram.sdram import Sdram

    dram = Sdram(DramConfig().with_policy(policy))
    time = 0.0
    for paddr in (0, 64, 4096, 0, 16384, 128):
        time = dram.access(time, paddr)
    return dram


def _dram_sanitizer(dram):
    sanitizer = RunSanitizer()
    sanitizer.attach(None, _dram_hier(dram))
    return sanitizer


class TestDramAudits:
    @pytest.mark.parametrize("policy", ["open", "closed"])
    def test_real_model_is_clean(self, policy):
        sanitizer = _dram_sanitizer(_exercised_sdram(policy))
        sanitizer._audit_dram()
        assert sanitizer.violations == []

    def test_missing_dram_is_skipped(self):
        sanitizer = RunSanitizer()
        hier = _dram_hier(None)
        del hier.dram
        sanitizer.attach(None, hier)
        sanitizer._audit_dram()
        assert sanitizer.violations == []

    def test_row_overcount_breaks_partition(self):
        dram = _exercised_sdram()
        dram.stats.row_hits += 2  # hits + misses no longer == accesses
        sanitizer = _dram_sanitizer(dram)
        sanitizer._audit_dram()
        [violation] = sanitizer.violations
        assert violation.invariant == "dram_row_accounting"
        assert violation.snapshot["accesses"] == dram.stats.accesses

    def test_negative_conflicts_flagged_as_accounting(self):
        dram = _exercised_sdram()
        dram.stats.bank_conflicts = -1
        sanitizer = _dram_sanitizer(dram)
        sanitizer._audit_dram()
        [violation] = sanitizer.violations
        assert violation.invariant == "dram_row_accounting"

    def test_conflict_overflow_flagged(self):
        dram = _exercised_sdram()
        dram.stats.bank_conflicts = dram.stats.accesses + 1
        sanitizer = _dram_sanitizer(dram)
        sanitizer._audit_dram()
        [violation] = sanitizer.violations
        assert violation.invariant == "dram_bank_conservation"

    def test_phantom_row_hit_under_closed_page(self):
        dram = _exercised_sdram("closed")
        # Move one access from the miss column to the hit column: the
        # partition still balances, but a closed-page bank can never
        # score a row hit.
        dram.stats.row_hits += 1
        dram.stats.row_misses -= 1
        sanitizer = _dram_sanitizer(dram)
        sanitizer._audit_dram()
        [violation] = sanitizer.violations
        assert violation.invariant == "dram_page_policy"
        assert violation.snapshot["page_policy"] == "closed"

    def test_excess_precharges_under_open_page(self):
        dram = _exercised_sdram("open")
        dram.stats.precharges = dram.stats.row_misses + 1
        sanitizer = _dram_sanitizer(dram)
        sanitizer._audit_dram()
        [violation] = sanitizer.violations
        assert violation.invariant == "dram_page_policy"

    def test_audit_result_reaches_dram(self):
        dram = _exercised_sdram()
        dram.stats.row_hits += 1
        sanitizer = _dram_sanitizer(dram)
        sanitizer.audit_result(make_result(), expected_instructions=50)
        assert [v.invariant for v in sanitizer.violations] == [
            "dram_row_accounting"
        ]


class TestViolationRecords:
    def test_round_trip(self):
        violation = InvariantViolation(
            invariant="ipc_bound", message="IPC 50 outside (0, 4]",
            simulator="sim-alpha", workload="M-M",
            snapshot={"ipc": 50.0},
        )
        clone = InvariantViolation.from_dict(violation.to_dict())
        assert clone == violation

    def test_str_names_cell(self):
        violation = InvariantViolation(
            invariant="ipc_bound", message="bad",
            simulator="sim-alpha", workload="M-M",
        )
        assert "sim-alpha" in str(violation)
        assert "M-M" in str(violation)

    def test_invariant_registry_is_complete(self):
        assert "maf_occupancy" in INVARIANTS
        assert len(INVARIANTS) == len(set(INVARIANTS))


class TestSanitizersBundle:
    def test_disabled_returns_none(self):
        assert Sanitizers.disabled().run_sanitizer() is None

    def test_enabled_hands_out_fresh_sanitizers(self):
        bundle = Sanitizers(strict=True, window=64)
        first = bundle.run_sanitizer(simulator="a", workload="x")
        second = bundle.run_sanitizer(simulator="b", workload="y")
        assert first is not second
        assert first.strict and first.window == 64

    def test_sanitized_runs_leave_no_hierarchy_alive(self):
        """The bundle keeps no per-run sanitizer, so no run's attached
        MemoryHierarchy outlives the run: a long-lived harness (or the
        job service) must not grow by one hierarchy per sanitized
        cell."""
        import gc

        from repro import SimAlpha
        from repro.memory.hierarchy import MemoryHierarchy
        from repro.validation.harness import Harness

        def live_hierarchies():
            gc.collect()
            return sum(
                isinstance(obj, MemoryHierarchy)
                for obj in gc.get_objects()
            )

        harness = Harness(sanitizers=Sanitizers())
        harness.run_one(SimAlpha, "C-R")  # warm the trace cache
        before = live_hierarchies()
        for workload in ("C-R", "E-I", "C-R"):
            harness.run_one(SimAlpha, workload)
            assert harness.last_violations == []
        assert live_hierarchies() == before
