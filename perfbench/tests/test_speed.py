"""Speed adjustment of wall times by the reference loop."""

import pytest

import speed


def test_a_steady_reference_scales_every_time_by_the_same_factor():
    refs = [2 * speed.REFERENCE_S] * 6
    assert speed.adjusted([1.0, 2.0, 3.0, 4.0, 5.0], refs) == [0.5, 1.0, 1.5, 2.0, 2.5]


def test_the_scale_uses_only_the_samples_near_each_timing():
    s = speed.REFERENCE_S
    refs = [s] * (speed.WINDOW + 1) + [3 * s] * 2 * speed.WINDOW
    times = [1.0] * (len(refs) - 1)
    scaled = speed.adjusted(times, refs)
    assert scaled[0] == pytest.approx(1.0)
    assert scaled[-1] == pytest.approx(1.0 / 3.0)


def test_every_timing_needs_a_sample_before_and_after():
    with pytest.raises(ValueError):
        speed.adjusted([1.0, 2.0], [speed.REFERENCE_S] * 2)


def test_the_reference_loop_takes_measurable_time():
    assert speed.reference_loop() > 0.0
