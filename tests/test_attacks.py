"""Tests for attack workloads."""

import pytest

from repro.attacks.inconsistent import InconsistentWriteAttack
from repro.attacks.random_attack import RandomWriteAttack
from repro.attacks.registry import attack_names, make_attack
from repro.attacks.repeat import RepeatWriteAttack
from repro.attacks.scan import ScanWriteAttack
from repro.errors import ConfigError


class TestRepeat:
    def test_fixed_address(self):
        attack = RepeatWriteAttack(16, target=5)
        assert [attack.next_write() for _ in range(5)] == [5] * 5

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            RepeatWriteAttack(16, target=16)

    def test_write_counter(self):
        attack = RepeatWriteAttack(4)
        for _ in range(7):
            attack.next_write()
        assert attack.writes_emitted == 7


class TestRandom:
    def test_in_range(self):
        attack = RandomWriteAttack(32, seed=1)
        for _ in range(1000):
            assert 0 <= attack.next_write() < 32

    def test_covers_space(self):
        attack = RandomWriteAttack(16, seed=1)
        seen = {attack.next_write() for _ in range(500)}
        assert seen == set(range(16))

    def test_deterministic(self):
        a = RandomWriteAttack(32, seed=5)
        b = RandomWriteAttack(32, seed=5)
        assert [a.next_write() for _ in range(50)] == [b.next_write() for _ in range(50)]


class TestScan:
    def test_sequential_with_wrap(self):
        attack = ScanWriteAttack(4, start=2)
        assert [attack.next_write() for _ in range(6)] == [2, 3, 0, 1, 2, 3]

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            ScanWriteAttack(4, start=4)


class TestInconsistent:
    def test_low_positions_cold_in_step_one(self):
        attack = InconsistentWriteAttack(
            256, n_targets=16, background_scan=False, initial_period=160
        )
        counts = {}
        for _ in range(sum(attack._staircase_weights())):
            page = attack.next_write()
            counts[page] = counts.get(page, 0) + 1
        assert counts[0] < counts[15]

    def test_reversal_on_detected_swap(self):
        attack = InconsistentWriteAttack(256, n_targets=16, background_scan=False)
        # Warm the detector baseline, then feed a blocking response.
        for _ in range(20):
            attack.next_write()
            attack.observe_response(2000.0)
        attack.observe_response(10_000.0)
        before = attack.reversals
        attack.next_write()
        assert attack.reversals == before + 1

    def test_reversal_flips_intensity(self):
        attack = InconsistentWriteAttack(
            256, n_targets=16, background_scan=False, initial_period=160
        )
        for _ in range(20):
            attack.next_write()
            attack.observe_response(2000.0)
        attack.observe_response(10_000.0)
        counts = {}
        for _ in range(sum(attack._staircase_weights())):
            page = attack.next_write()
            if page < 16:
                counts[page] = counts.get(page, 0) + 1
        assert counts[0] > counts[15]  # position 0 hammered after the flip

    def test_blind_flip_after_patience(self):
        attack = InconsistentWriteAttack(
            64, n_targets=8, patience=100, background_scan=False
        )
        for _ in range(150):
            attack.next_write()
            attack.observe_response(2000.0)
        assert attack.reversals >= 1

    def test_background_scan_touches_all_pages(self):
        attack = InconsistentWriteAttack(128, n_targets=16, initial_period=400)
        seen = set()
        for _ in range(3 * len(attack._pass_schedule)):
            seen.add(attack.next_write())
        assert seen == set(range(128))

    def test_victims_written_last_in_pass(self):
        attack = InconsistentWriteAttack(64, n_targets=8, initial_period=200)
        schedule = attack._pass_schedule
        tail = schedule[-attack.victim_count:]
        assert all(page < attack.n_targets for page in tail)

    def test_period_adaptation(self):
        attack = InconsistentWriteAttack(
            64, n_targets=8, background_scan=False, initial_period=64
        )
        for _ in range(20):
            attack.next_write()
            attack.observe_response(2000.0)
        for _ in range(300):
            attack.next_write()
            attack.observe_response(2000.0)
        attack.observe_response(10_000.0)
        assert attack.period_estimate > 64

    def test_victim_share_positive(self):
        attack = InconsistentWriteAttack(256, n_targets=16)
        assert 0 < attack.victim_share() < 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            InconsistentWriteAttack(16, n_targets=17)
        with pytest.raises(ConfigError):
            InconsistentWriteAttack(16, patience=0)
        with pytest.raises(ConfigError):
            InconsistentWriteAttack(16, n_targets=4, victim_count=5)


class TestNextWritesBatchIdentity:
    """``next_writes(n)`` must equal n serial ``next_write()`` calls.

    The vectorized overrides (scan, repeat) and the generic fallback
    all feed the batched engine; any drift here breaks the engine-wide
    batch-identity contract.
    """

    @pytest.mark.parametrize("name", attack_names())
    def test_matches_serial(self, name):
        # Chunks past 64 writes run the random attack's jump-ahead draw
        # (whole and partial doublings); 1000 pages is not a power of two.
        for n_pages, chunks in (
            (32, (1, 7, 40, 52)),
            (32, (63, 65, 129, 1000)),
            (1000, (1, 63, 65, 129, 1000, 4097)),
        ):
            serial = make_attack(name, n_pages, seed=9)
            batched = make_attack(name, n_pages, seed=9)
            expected = [serial.next_write() for _ in range(sum(chunks))]
            got = []
            for chunk in chunks:
                got.extend(batched.next_writes(chunk).tolist())
            assert got == expected
            assert batched.writes_emitted == serial.writes_emitted
            assert batched.next_write() == serial.next_write()

    def test_zero_length_batch(self):
        attack = make_attack("scan", 8, seed=1)
        assert attack.next_writes(0).size == 0
        assert attack.writes_emitted == 0

    def test_negative_batch_rejected(self):
        attack = make_attack("scan", 8, seed=1)
        with pytest.raises(ValueError):
            attack.next_writes(-1)


class TestRegistry:
    def test_names_in_paper_order(self):
        assert attack_names() == ["repeat", "random", "scan", "inconsistent"]

    def test_make_all(self):
        for name in attack_names():
            attack = make_attack(name, 64, seed=3)
            assert 0 <= attack.next_write() < 64

    def test_unknown(self):
        with pytest.raises(ConfigError):
            make_attack("zeroday", 64)
