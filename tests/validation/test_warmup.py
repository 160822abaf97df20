"""Tests for the warm-up / steady-state analysis."""

import pytest

from repro.result import RunStats, SimResult
from repro.validation.harness import Harness
from repro.validation.warmup import WarmupProfile, warmup_study


@pytest.fixture(scope="module")
def harness():
    return Harness()


class FakeWindowSim:
    """Emits hand-picked window marks so the windowed-IPC arithmetic is
    checkable exactly."""

    name = "fake-window"

    def __init__(self, marks, instructions, cycles):
        self.marks = marks
        self.instructions = instructions
        self.cycles = cycles

    def run_trace(self, trace, workload, window_size=4096, *,
                  observer=None, watchdog=None, blockcache=None):
        stats = RunStats()
        stats.extra["window_retire_times"] = list(self.marks)
        return SimResult(
            self.name, workload,
            cycles=self.cycles, instructions=self.instructions, stats=stats,
        )


def test_profile_structure(harness):
    profile = warmup_study("gzip", harness=harness, window_size=4096)
    assert len(profile.window_ipcs) >= 2
    assert profile.steady_ipc > 0
    assert "Warm-up profile" in profile.render()


def test_cold_start_is_slower(harness):
    """The first window carries cold caches/predictors: below steady."""
    profile = warmup_study("gzip", harness=harness, window_size=2048)
    assert profile.window_ipcs[0] < profile.steady_ipc


def test_settles(harness):
    profile = warmup_study("E-D2", harness=harness, window_size=4096,
                           tolerance=0.10)
    assert profile.settled_window is not None
    assert profile.settled_instructions <= 5 * 4096


def test_truncation_error_shrinks(harness):
    profile = warmup_study("gzip", harness=harness, window_size=2048)
    early = abs(profile.truncation_error(1))
    late = abs(profile.truncation_error(len(profile.window_ipcs)))
    assert late < early


def test_truncation_error_bounds(harness):
    profile = warmup_study("E-D1", harness=harness, window_size=4096)
    with pytest.raises(ValueError):
        profile.truncation_error(0)
    with pytest.raises(ValueError):
        profile.truncation_error(10_000)


def test_window_too_big_rejected(harness):
    with pytest.raises(ValueError, match="fewer than two"):
        warmup_study("E-D1", harness=harness, window_size=10**7)


def test_partial_final_window_is_scaled(harness):
    """350 instructions in 100-instruction windows: three full windows
    of IPC 1.0 and a 50-instruction tail taking 100 cycles — the tail's
    IPC must be 0.5 (retired/cycles), not window_size/cycles."""
    simulator = FakeWindowSim(
        marks=[100.0, 200.0, 300.0], instructions=350, cycles=400.0
    )
    profile = warmup_study(
        "E-I", harness=harness, simulator=simulator, window_size=100
    )
    assert profile.window_ipcs == [1.0, 1.0, 1.0, 0.5]
    assert profile.steady_ipc == pytest.approx(0.75)


def test_exact_multiple_has_no_phantom_window(harness):
    simulator = FakeWindowSim(
        marks=[100.0, 250.0, 350.0], instructions=300, cycles=350.0
    )
    profile = warmup_study(
        "E-I", harness=harness, simulator=simulator, window_size=100
    )
    assert len(profile.window_ipcs) == 3
    assert profile.window_ipcs == [
        pytest.approx(100 / 100), pytest.approx(100 / 150),
        pytest.approx(100 / 100),
    ]


def test_truncation_error_rejects_degenerate_windows():
    profile = WarmupProfile(
        workload="x", window_size=100, window_ipcs=[0.0, 1.0],
        steady_ipc=1.0, settled_window=None, tolerance=0.05,
    )
    with pytest.raises(ValueError, match="non-positive"):
        profile.truncation_error(1)
    assert profile.truncation_error(2) == pytest.approx(-100.0)
