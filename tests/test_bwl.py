"""Tests for Bloom-filter based wear leveling."""

import numpy as np

from repro.config import BWLConfig
from repro.pcm.array import PCMArray
from repro.wearlevel.bwl import BloomWearLeveling


def _make(n_pages=32, endurance=None, **overrides):
    if endurance is None:
        array = PCMArray.uniform(n_pages, 10**6)
    else:
        array = PCMArray(np.asarray(endurance))
    defaults = dict(
        bloom_bits=1024,
        prediction_writes_per_page=2.0,
        running_multiplier=4.0,
        hot_fraction=0.25,
    )
    defaults.update(overrides)
    return array, BloomWearLeveling(array, config=BWLConfig(**defaults), seed=1)


class TestHotDetection:
    def test_hammered_page_becomes_hot(self):
        _, scheme = _make()
        for _ in range(20):
            scheme.write(5)
        assert 5 in scheme._hot_set

    def test_threshold_rises_when_detection_too_fast(self):
        _, scheme = _make(n_pages=32, hot_fraction=0.25)
        initial = scheme.hot_threshold
        # Hammer many pages so the hot list fills before min phase.
        for step in range(2000):
            scheme.write(step % 8)
        assert scheme.hot_threshold >= initial

    def test_cold_queue_collects_once_written_pages(self):
        _, scheme = _make()
        scheme.write(3)
        assert 3 in scheme._cold_set


class TestSwapBehaviour:
    def test_mapping_bijective_after_phases(self):
        array, scheme = _make()
        for step in range(3000):
            scheme.write(step % 24)
        scheme.remap.validate()

    def test_rotation_under_repeat(self):
        array, scheme = _make(n_pages=16)
        frames = set()
        for _ in range(3000):
            scheme.write(0)
            frames.add(scheme.translate(0))
        assert len(frames) >= 3  # remaining-life placement rotates the page

    def test_swap_writes_accounted(self):
        array, scheme = _make()
        for step in range(3000):
            scheme.write(step % 4)
        assert array.total_writes == scheme.demand_writes + scheme.swap_writes

    def test_idle_resident_guard(self):
        # A frame whose resident was never observed keeps it: hammering
        # some pages must leave never-written pages' frames untouched by
        # cold placement most of the time.
        endurance = [100] + [10**6] * 31  # frame 0 weakest => most worn ranking
        array, scheme = _make(endurance=endurance)
        # LA 0 starts on frame 0; never write it, hammer others.
        for step in range(4000):
            scheme.write(1 + step % 8)
        # Frame 0 should have taken at most a few migration writes.
        assert array.page_writes(0) <= 6

    def test_remaining_life_view(self):
        array, scheme = _make(n_pages=8)
        scheme.write(0)
        remaining = scheme.remaining_life()
        assert remaining.shape == (8,)
        assert remaining[scheme.translate(0)] < 10**6


class TestPhaseAccounting:
    def test_phase_counter_advances(self):
        _, scheme = _make()
        for step in range(5000):
            scheme.write(step % 8)
        assert scheme.swap_phases_completed >= 1

    def test_filters_cleared_after_swap(self):
        _, scheme = _make()
        for step in range(5000):
            scheme.write(step % 8)
        # Right after a swap the detection state restarts; eventually the
        # detection-writes counter must be below a full phase.
        assert scheme._detection_writes < scheme._max_phase_writes


class TestBatchFailure:
    def test_failure_on_an_untriggered_window_end_ends_the_batch(self):
        """A window ends at the minimum phase length without a trigger
        when the hot list is empty.  If that write wears a page out, the
        batch ends there, as the per-write loop does: it used to run on
        for 110 more requests."""
        from repro.attacks.registry import make_attack
        from repro.wearlevel.base import WearLeveler

        seq = make_attack("random", 16, seed=1).next_writes(16 * 75 * 3)
        served = []
        for serve in (WearLeveler.write_batch, BloomWearLeveling.write_batch):
            array = PCMArray.uniform(16, 75)
            scheme = BloomWearLeveling(array, seed=1)
            served.append(serve(scheme, seq).size)
            assert scheme._detection_writes == scheme._min_phase_writes
            assert scheme._hot_list == []
            assert array.first_failure.device_writes == 934
        assert served == [884, 884]
