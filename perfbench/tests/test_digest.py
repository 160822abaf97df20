"""The repeat check's digest ignores only failure wall times."""

from repro.validation.harness import CellFailure, ResultGrid

from workloads import digest, stable_digest


def _grid(elapsed_s, message="MAF peak occupancy 9 exceeds its 8 entries"):
    grid = ResultGrid()
    grid.failures.append(CellFailure(
        simulator="DS-10L", workload="twolf", kind="invariant",
        message=message, elapsed_s=elapsed_s))
    return grid.to_json(canonical=True)


def test_failure_wall_time_does_not_change_the_stable_digest():
    first, second = _grid(0.81), _grid(0.93)
    assert digest(first) != digest(second)
    assert stable_digest(first) == stable_digest(second)


def test_any_other_difference_changes_the_stable_digest():
    assert stable_digest(_grid(0.8)) != stable_digest(
        _grid(0.8, message="a different violation"))
