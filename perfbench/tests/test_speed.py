"""Speed scaling: segments scale by the mean of the probes around them."""

import pytest

import speed
from speed import REFERENCE_S, SpeedScale


def _probes(values):
    it = iter(values)
    return lambda: next(it)


def test_each_segment_scales_by_its_bracketing_probes():
    # probes: 1.0 (start), 2.0 after the first segment, 2.0 after the next
    scale = SpeedScale(every_s=1.0, probe_fn=_probes([1.0, 2.0, 2.0]))
    scale.segment(0, (3.0, 1.5))
    scale.segment(0, (2.0, 2.0))
    assert scale.probes == [1.0, 2.0, 2.0]
    factor_1 = REFERENCE_S * 2 / (1.0 + 2.0)
    factor_2 = REFERENCE_S * 2 / (2.0 + 2.0)
    assert scale.scaled[0] == pytest.approx(
        [3.0 * factor_1 + 2.0 * factor_2, 1.5 * factor_1 + 2.0 * factor_2])


def test_short_segments_share_a_probe_and_flush_ends_the_run():
    scale = SpeedScale(every_s=1.0, probe_fn=_probes([1.0, 0.5]))
    for index in range(3):
        scale.segment(index, (0.25,))
    assert scale.probes == [1.0]  # 0.75 s pending: no probe yet
    scale.flush()
    factor = REFERENCE_S * 2 / 1.5
    assert scale.scaled == {i: [pytest.approx(0.25 * factor)]
                            for i in range(3)}
    scale.flush()  # nothing pending: no further probe
    assert scale.probes == [1.0, 0.5]


def test_kernel_checksum_is_pinned():
    assert speed.kernel(1000) == speed.kernel(1000)
    assert speed.kernel() == speed.KERNEL_CHECKSUM
