"""Program-digest cache keys: a warm grid never runs the functional
machine, and every shortcut it takes stays checkable.

Cells are keyed on the workload's program digest, so hits are resolved
before any trace exists.  These tests pin the consequences: warm grids
build no trace and hash none (in-process, pooled and sharded) yet
serialise byte-identically to the cold grid; partially warm grids
build only what they run; every stored entry carries the fingerprint of
the trace that produced it, which ``cache-check`` re-derives.
"""

import json
import os

import pytest

from exec_fakes import fake_factory
from repro.exec import engine
from repro.exec.cache import CACHE_FORMAT, ResultCache, check_cache
from repro.exec.spec import RunOptions
from repro.integrity.sanitizers import Sanitizers
from repro.result import SimResult
from repro.simulators.refmachine import NativeMachine, make_native_machine
from repro.validation.cli import main
from repro.validation.exitcodes import ExitCode
from repro.validation.harness import Harness
from repro.workloads import suite
from repro.workloads.suite import WorkloadSet

WORKLOADS = ["E-DM1", "M-BANK", "M-ROW"]
FACTORIES = [fake_factory("fake-a"), fake_factory("fake-b", cpi=3.0)]


@pytest.fixture
def counted(monkeypatch):
    """Count functional-machine runs and trace fingerprints."""
    calls = {"run_program": 0, "fingerprint_trace": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(suite, "run_program",
                        counting("run_program", suite.run_program))
    monkeypatch.setattr(engine, "fingerprint_trace",
                        counting("fingerprint_trace",
                                 engine.fingerprint_trace))
    return calls


def run(cache_dir, options=RunOptions(), names=WORKLOADS):
    return Harness(WorkloadSet()).run_grid(
        FACTORIES, names, options.replace(cache=ResultCache(cache_dir)),
    )


class TestWarmGridSkipsTheEmulator:
    @pytest.mark.parametrize("options", [
        RunOptions(),
        pytest.param(RunOptions(jobs=2), marks=pytest.mark.exec_pool),
        RunOptions(shards=2),
    ], ids=["serial", "pool", "shards"])
    def test_warm_grid_builds_no_trace_and_matches_cold(
        self, tmp_path, counted, options
    ):
        cold = run(tmp_path, options)
        # One trace and one fingerprint per workload, in the parent.
        assert counted == {
            "run_program": len(WORKLOADS),
            "fingerprint_trace": 0 if options.shards > 1 else len(WORKLOADS),
        }
        counted.update(run_program=0, fingerprint_trace=0)
        warm = run(tmp_path, options)
        assert counted == {"run_program": 0, "fingerprint_trace": 0}
        assert warm.to_json(canonical=True) == cold.to_json(canonical=True)

    def test_partially_warm_grid_builds_only_missing_traces(
        self, tmp_path, counted
    ):
        run(tmp_path, names=WORKLOADS[:1])
        counted.update(run_program=0, fingerprint_trace=0)
        grid = run(tmp_path)
        assert counted == {"run_program": 2, "fingerprint_trace": 2}
        assert grid.workloads() == WORKLOADS

    def test_refresh_rebuilds_and_restores(self, tmp_path, counted):
        cold = run(tmp_path)
        refreshed = run(tmp_path, RunOptions(refresh=True))
        assert refreshed.to_json(canonical=True) == \
            cold.to_json(canonical=True)
        assert counted["run_program"] == 2 * len(WORKLOADS)


class TestStoredFingerprint:
    def test_entry_carries_the_producing_traces_fingerprint(
        self, tmp_path
    ):
        run(tmp_path, names=["M-BANK"])
        workloads = WorkloadSet()
        expected = engine.fingerprint_trace(workloads.trace("M-BANK"))
        payloads = [
            json.load(open(os.path.join(tmp_path, name)))
            for name in os.listdir(tmp_path) if name.endswith(".json")
        ]
        assert len(payloads) == len(FACTORIES)
        for payload in payloads:
            assert payload["format"] == CACHE_FORMAT
            assert payload["trace_fingerprint"] == expected
            assert payload["key"]["program_digest"] == \
                workloads.program_digest("M-BANK")
            assert "trace_fingerprint" not in payload["key"]

    def test_old_format_entry_misses(self, tmp_path):
        run(tmp_path, names=["M-BANK"])
        for name in os.listdir(tmp_path):
            path = os.path.join(tmp_path, name)
            payload = json.load(open(path))
            payload["format"] = "repro-result-cache/1"
            with open(path, "w") as handle:
                json.dump(payload, handle)
        cache = ResultCache(tmp_path)
        Harness(WorkloadSet()).run_grid(
            FACTORIES, ["M-BANK"], RunOptions(cache=cache),
        )
        assert (cache.hits, cache.misses) == (0, len(FACTORIES))


class TestCacheCheck:
    def test_clean_cache_passes(self, tmp_path, capsys):
        run(tmp_path, names=["M-BANK", "E-DM1"])
        assert main(["cache-check", str(tmp_path)]) == ExitCode.OK
        assert "4 verified, 0 mismatched" in capsys.readouterr().out

    def test_edited_fingerprint_exits_divergence(self, tmp_path, capsys):
        run(tmp_path, names=["M-BANK"])
        victim = sorted(
            name for name in os.listdir(tmp_path) if name.endswith(".json")
        )[0]
        path = os.path.join(tmp_path, victim)
        payload = json.load(open(path))
        payload["trace_fingerprint"] = "0" * 32
        with open(path, "w") as handle:
            json.dump(payload, handle)
        assert main(["cache-check", str(tmp_path)]) == ExitCode.DIVERGENCE
        out = capsys.readouterr().out
        assert f"MISMATCH {victim[:-5]} (M-BANK)" in out

    def test_entries_it_cannot_rederive_are_skipped(self, tmp_path):
        cache = ResultCache(tmp_path)
        run(tmp_path, names=["M-BANK"])
        workloads = WorkloadSet()
        program = workloads.program("M-BANK")
        program.data[0] = 1  # no longer the program the cells ran
        report = check_cache(cache, workloads)
        assert report.ok and report.verified == 0
        assert report.skipped == {
            "program differs from the current one": len(FACTORIES)
        }

    def test_missing_directory_is_a_usage_error(self, tmp_path):
        missing = str(tmp_path / "absent")
        assert main(["cache-check", missing]) == ExitCode.USAGE


class TestNativeMeasurementInKey:
    """The service's exact-cycle ``native`` and the DCPI-sampled
    :class:`NativeMachine` share a name and a configuration; their
    results differ, so they must never share a cache entry."""

    @pytest.mark.parametrize("first,second", [
        (make_native_machine, NativeMachine),
        (NativeMachine, make_native_machine),
    ], ids=["exact-then-sampled", "sampled-then-exact"])
    def test_second_machine_misses_and_matches_a_fresh_run(
        self, tmp_path, first, second
    ):
        cache = ResultCache(tmp_path)
        harness = Harness(WorkloadSet())
        harness.run_grid([first], ["E-I"], RunOptions(cache=cache))
        grid = harness.run_grid([second], ["E-I"], RunOptions(cache=cache))
        assert (cache.hits, cache.misses) == (0, 2)
        fresh = Harness(WorkloadSet()).run_grid([second], ["E-I"])
        assert grid.to_json(canonical=True) == fresh.to_json(canonical=True)

    def test_measurement_names_the_sampling(self):
        assert NativeMachine().measurement == "dcpi@40000"
        assert NativeMachine(sampling_interval=10).measurement == "dcpi@10"
        assert NativeMachine(measure=False).measurement == "exact"
        assert not hasattr(make_native_machine(), "measurement")


class LyingSim:
    """Claims an impossible IPC, so the sanitizers quarantine it."""

    name = "sim-lying"

    def run_trace(self, trace, workload):
        return SimResult(self.name, workload, cycles=1.0,
                         instructions=len(trace))


class TestCanonicalFailures:
    def test_quarantined_grid_serialises_identically_twice(self):
        def once():
            return Harness(WorkloadSet(), sanitizers=Sanitizers()).run_grid(
                [LyingSim, FACTORIES[0]], ["M-BANK"], RunOptions(jobs=2),
            )

        first, second = once(), once()
        assert [f.kind for f in first.failures] == ["invariant"]
        assert first.failures[0].elapsed_s > 0
        assert first.to_json(canonical=True) == second.to_json(canonical=True)
        assert '"elapsed_s": 0.0' in first.to_json(canonical=True)
