"""Tests for the statistics helpers."""

import pytest

from repro.metrics.stats import cdf_points, mean, percentile, percentiles, stdev


class TestPercentile:
    def test_matches_numpy_linear_interpolation(self):
        numpy = pytest.importorskip("numpy")
        data = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3]
        for p in (0, 10, 50, 90, 95, 99, 100):
            assert percentile(data, p) == pytest.approx(float(numpy.percentile(data, p)))

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_extremes(self):
        data = list(range(1, 101))
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 100
        assert percentile(data, 50) == pytest.approx(50.5)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_percentile_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 120)

    def test_percentiles_bundle(self):
        data = list(range(100))
        table = percentiles(data)
        assert set(table) == {90, 95, 99}
        assert table[90] < table[95] < table[99]


class TestAggregates:
    def test_mean_and_stdev(self):
        assert mean([1, 2, 3, 4]) == 2.5
        assert stdev([2, 2, 2]) == 0.0
        assert stdev([0, 10]) == 5.0

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            mean([])
        with pytest.raises(ValueError):
            stdev([])


class TestCdf:
    def test_cdf_points_monotone_and_ends_at_one(self):
        points = cdf_points([5.0, 1.0, 3.0])
        values = [v for v, _ in points]
        probs = [p for _, p in points]
        assert values == sorted(values)
        assert probs == sorted(probs)
        assert probs[-1] == 1.0

    def test_cdf_points_empty(self):
        assert cdf_points([]) == []
