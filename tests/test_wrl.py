"""Tests for Wear Rate Leveling."""

import numpy as np

from repro.config import WRLConfig
from repro.pcm.array import PCMArray
from repro.wearlevel.wrl import PHASE_PREDICTION, PHASE_RUNNING, WearRateLeveling


def _make(n_pages=16, endurance=None, prediction=1.0, multiplier=2.0):
    if endurance is None:
        array = PCMArray.uniform(n_pages, 10**6)
    else:
        array = PCMArray(np.asarray(endurance))
    config = WRLConfig(
        prediction_writes_per_page=prediction, running_multiplier=multiplier
    )
    return array, WearRateLeveling(array, config=config, seed=1)


class TestPhases:
    def test_starts_in_prediction(self):
        _, scheme = _make()
        assert scheme.phase == PHASE_PREDICTION

    def test_transitions_to_running_after_prediction(self):
        _, scheme = _make(n_pages=4, prediction=1.0)
        for step in range(4):
            scheme.write(step % 4)
        assert scheme.phase == PHASE_RUNNING
        assert scheme.swap_phases_completed == 1

    def test_cycles_back_to_prediction(self):
        _, scheme = _make(n_pages=4, prediction=1.0, multiplier=2.0)
        for step in range(4 + 8):
            scheme.write(step % 4)
        assert scheme.phase == PHASE_PREDICTION
        assert scheme.wnt.total == 0  # cleared for the new phase


class TestSwapPlacement:
    def test_hot_page_lands_on_least_worn_per_endurance(self):
        endurance = [100, 10_000, 10_000, 10_000]
        array, scheme = _make(endurance=endurance, prediction=4.0)
        # Make page 0 clearly hottest during prediction (16 writes total).
        for _ in range(13):
            scheme.write(0)
        for la in (1, 2, 3):
            scheme.write(la)
        # After the swap phase, LA 0 must not sit on the weak frame 0
        # (writing frame 0 made its wear rate by far the highest).
        assert scheme.translate(0) != 0

    def test_mapping_bijective_after_many_phases(self):
        array, scheme = _make(n_pages=8, prediction=1.0, multiplier=1.0)
        for step in range(500):
            scheme.write((step * 3) % 8)
        scheme.remap.validate()

    def test_swap_costs_accounted(self):
        # A skewed stream forces migrations (uniform round-robin with
        # uniform endurance leaves the identity mapping optimal).
        endurance = [(k + 1) * 1000 for k in range(8)]
        array, scheme = _make(endurance=endurance, prediction=1.0, multiplier=1.0)
        for step in range(200):
            scheme.write(0 if step % 3 else step % 8)
        assert scheme.swap_writes > 0
        assert array.total_writes == scheme.demand_writes + scheme.swap_writes

    def test_rotation_under_repeat(self):
        # Wear-rate ranking must rotate a hammered page across frames.
        array, scheme = _make(n_pages=8, prediction=1.0, multiplier=1.0)
        frames = set()
        for _ in range(64):
            scheme.write(0)
            frames.add(scheme.translate(0))
        assert len(frames) >= 4


class TestWearRates:
    def test_wear_rates_shape(self):
        _, scheme = _make(n_pages=8)
        assert scheme.wear_rates().shape == (8,)

    def test_wear_rates_reflect_writes(self):
        endurance = [100, 200, 300, 400]
        array, scheme = _make(endurance=endurance, prediction=100.0)
        scheme.write(0)
        rates = scheme.wear_rates()
        assert rates[scheme.translate(0)] > 0

    def test_frame_writes_match_the_device_under_a_corrupted_rt(self):
        # A flipped RT entry (the 'rt' soft-error target with no
        # protection) leaves two logical pages on one frame, so a swap
        # phase can migrate onto the same frame twice; each of those
        # device writes is one controller-side frame write.
        rng = np.random.default_rng(1)
        array, scheme = _make(endurance=rng.integers(1000, 9000, 8))
        victim, twin = (int(page) for page in rng.choice(8, 2, replace=False))
        scheme.remap.poke_entry(victim, scheme.remap.lookup(twin))
        swap_phase = scheme._swap_phase
        migrations = []
        scheme._swap_phase = lambda: migrations.append(swap_phase()) or migrations[-1]
        for step in range(64):
            scheme.write(int(rng.integers(0, 8)) if step % 3 else victim)
        assert any(len(set(frames)) < len(frames) for frames in migrations)
        np.testing.assert_array_equal(scheme._frame_writes, array.write_counts())
