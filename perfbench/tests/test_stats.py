"""The percentile rule: report the highest percentile that leaves at
least ten samples beyond it."""

import pytest

import stats


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([3.0], 90) == 3.0


def test_percentile_ignores_input_order():
    assert stats.percentile([5, 1, 4, 2, 3], 60) == 3


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_highest_percentile_leaves_ten_beyond(n, expected):
    assert stats.highest_percentile(n) == expected
    if expected is not None:
        assert stats.beyond(n, expected) >= stats.MIN_BEYOND


def test_samples_for_p90_is_one_hundred():
    assert stats.samples_for(90.0) == 100
    assert stats.beyond(100, 90.0) == 10
    assert stats.beyond(99, 90.0) < 10


def test_empty_samples_raise():
    with pytest.raises(ValueError):
        stats.median([])
    with pytest.raises(ValueError):
        stats.percentile([], 50)
