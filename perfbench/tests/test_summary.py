"""The percentile/sample-count rule and the quartile spread."""

import pytest

from summary import median, quartile_spread, tail_percentile


@pytest.mark.parametrize("n", [0, 1, 5, 10])
def test_no_tail_percentile_below_eleven_samples(n):
    assert tail_percentile(list(range(n))) is None


def test_eleven_samples_give_the_lowest_with_ten_above():
    percent, value = tail_percentile([float(x) for x in range(11, 0, -1)])
    assert value == 1.0
    assert percent == pytest.approx(100 / 11)


@pytest.mark.parametrize("n", [11, 20, 30, 101])
def test_exactly_ten_samples_lie_beyond_the_tail(n):
    samples = [float(x) for x in range(n)]
    percent, value = tail_percentile(samples)
    assert sum(1 for s in samples if s > value) == 10
    assert percent == pytest.approx(100 * (n - 10) / n)


def test_quartile_spread_is_a_share_of_the_median():
    # statistics.quantiles (exclusive): q1 = 1.5, q2 = 3, q3 = 4.5
    assert quartile_spread([1, 2, 3, 4, 5]) == pytest.approx(1.0)
    assert quartile_spread([10.0] * 4) == 0.0
    assert median([3, 1, 2]) == 2.0
