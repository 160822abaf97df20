"""Failure counting: cells attempted and failed, and a failed service
job counting every one of its cells."""

from repro.validation.harness import ResultGrid

import workloads
from workloads import Cell, Measurement, Unit, job_cells


def _measurement(cells):
    unit = Unit(start=0.0, end=1.0, cells=cells, grid=ResultGrid(),
                digest="", stable="", problems=[])
    return Measurement("warm-service", [unit], [0.1])


def test_a_failed_job_counts_all_of_its_cells():
    sims = workloads.TABLE3_SIMS
    cells = job_cells(sims, "gzip", 0.5, True)
    cells += job_cells(sims, "twolf", 0.7, False)
    measured = _measurement(cells)
    assert measured.attempted == 2 * len(sims)
    assert measured.failed == len(sims)


def test_quarantined_cells_count_as_failed():
    cells = [Cell("DS-10L", "twolf", 1.0, False, kind="invariant")]
    cells += [Cell("sim-alpha", w, 1.0, True) for w in ("gzip", "twolf")]
    measured = _measurement(cells)
    assert (measured.attempted, measured.failed) == (3, 1)


def test_cold_latencies_are_per_cell_and_warm_latencies_per_job():
    cold = _measurement([Cell("s", "w", 0.25, True),
                         Cell("s", "v", 0.75, True)])
    assert sorted(cold.latencies()) == [0.25, 0.75]
    warm = _measurement(job_cells(("a", "b"), "w", 0.5, True))
    warm.units[0].job_windows = [(10.0, 10.5)]
    assert warm.latencies() == [0.5]

