import numpy as np
import pytest

import stats


def test_percentile_matches_numpy_linear_interpolation():
    rng = np.random.default_rng(3)
    xs = list(rng.exponential(size=137))
    for q in (0.0, 50.0, 90.0, 99.0, 100.0):
        assert stats.percentile(xs, q) == pytest.approx(np.percentile(xs, q), rel=1e-12)


def test_p90_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(100, 90.0) == 10
    assert stats.highest_reportable(100) == 90.0
    assert stats.samples_beyond(91, 90.0) == 9
    assert stats.highest_reportable(91) == 50.0
    assert stats.highest_reportable(1000) == 99.0
    assert stats.highest_reportable(15) is None


def test_median_of_even_count_interpolates():
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])
