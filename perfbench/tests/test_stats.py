"""The benchmark's arithmetic: tail rule, error rate and ratio bases."""

import pytest

from perfbench import stats


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    tail = stats.tail(values)
    assert tail.qualified
    assert tail.samples == 100
    # index 89 holds 90; samples 91..100 (ten of them) lie beyond it
    assert tail.value == 90
    assert tail.percentile == 90.0
    assert sum(value > tail.value for value in values) == stats.TAIL_BEYOND


def test_tail_with_eleven_samples_is_the_minimum():
    tail = stats.tail([5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11])
    assert (tail.value, tail.samples, tail.qualified) == (1, 11, True)
    assert tail.percentile == pytest.approx(100 / 11)


def test_tail_without_enough_samples_reports_the_maximum_unqualified():
    tail = stats.tail([3.0, 1.0, 2.0])
    assert (tail.value, tail.percentile, tail.samples, tail.qualified) == (3.0, 100.0, 3, False)
    assert not stats.tail(range(10)).qualified
    with pytest.raises(ValueError):
        stats.tail([])


def test_tail_is_order_independent():
    values = [0.4, 0.1, 0.9, 0.3] * 10
    assert stats.tail(values) == stats.tail(sorted(values))


def test_error_rate_base_is_attempted():
    assert stats.error_rate(0, 40) == 0.0
    assert stats.error_rate(4, 48) == pytest.approx(1 / 12)
    with pytest.raises(ValueError):
        stats.error_rate(0, 0)
    with pytest.raises(ValueError):
        stats.error_rate(5, 4)


def test_ratio_base():
    assert stats.ratio(3, 4) == 0.75
    assert stats.ratio(0, 0) == 0.0  # no lookups: no hits to report
    with pytest.raises(ValueError):
        stats.ratio(-1, 4)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    import statistics

    first, _, third = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((third - first) / statistics.median(values))
    assert stats.quartile_spread([7.0]) == 0.0
