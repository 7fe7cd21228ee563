"""Tests for the counting Bloom filter substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bloom.counting_bloom import CountingBloomFilter
from repro.bloom.hashes import HashFamily
from repro.errors import ConfigError


class TestHashFamily:
    def test_indices_in_range(self):
        family = HashFamily(3, 1024, seed=1)
        for key in range(200):
            for index in family.indices(key):
                assert 0 <= index < 1024

    def test_deterministic(self):
        a = HashFamily(3, 256, seed=9)
        b = HashFamily(3, 256, seed=9)
        assert a.indices(42) == b.indices(42)

    def test_seeds_differ(self):
        a = HashFamily(3, 256, seed=1)
        b = HashFamily(3, 256, seed=2)
        assert any(a.indices(k) != b.indices(k) for k in range(16))

    def test_spread(self):
        family = HashFamily(1, 256, seed=5)
        positions = {family.indices(k)[0] for k in range(256)}
        # Random balls-in-bins would occupy ~162 of 256 bins; the
        # multiply-shift family on sequential keys is somewhat clustered
        # but must not collapse onto a handful of positions.
        assert len(positions) > 90

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            HashFamily(2, 100)

    def test_rejects_zero_hashes(self):
        with pytest.raises(ConfigError):
            HashFamily(0, 256)

    def test_rejects_negative_key(self):
        with pytest.raises(ValueError):
            HashFamily(2, 256).indices(-1)

    @pytest.mark.parametrize("k, m", [(8, 2), (3, 1024), (1, 64), (5, 1 << 17)])
    def test_table_matches_indices(self, k, m):
        family = HashFamily(k, m, seed=7)
        table = family.table(300)
        assert table.shape == (300, k)
        assert [row.tolist() for row in table] == [
            family.indices(key) for key in range(300)
        ]
        if m == 2:
            # Eight probes onto two counters: every key's probes collide.
            assert all(len(set(row.tolist())) < k for row in table)


class TestCountingBloom:
    def test_estimate_upper_bounds_count(self):
        bloom = CountingBloomFilter(1024, 3, seed=3)
        for _ in range(7):
            bloom.insert(42)
        assert bloom.estimate(42) >= 7

    def test_absent_key_low_estimate(self):
        bloom = CountingBloomFilter(4096, 3, seed=3)
        for key in range(50):
            bloom.insert(key)
        assert bloom.estimate(99_999) <= 2

    def test_contains_threshold(self):
        bloom = CountingBloomFilter(1024, 3, seed=1)
        for _ in range(4):
            bloom.insert(7)
        assert bloom.estimate(7) >= 4
        assert bloom.estimate(12345) < 4

    def test_clear(self):
        bloom = CountingBloomFilter(256, 2, seed=1)
        bloom.insert(1)
        bloom.clear()
        assert bloom.estimate(1) == 0
        assert bloom.inserted == 0

    def test_counter_saturation(self):
        bloom = CountingBloomFilter(64, 1, counter_bits=2, seed=1)
        for _ in range(100):
            bloom.insert(5)
        assert bloom.estimate(5) == 3

    def test_rejects_bad_counter_width(self):
        with pytest.raises(ConfigError):
            CountingBloomFilter(256, 2, counter_bits=0)

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_count_min_property(self, keys):
        """Estimate never undercounts any inserted key."""
        bloom = CountingBloomFilter(512, 3, counter_bits=16, seed=11)
        for key in keys:
            bloom.insert(key)
        for key in set(keys):
            assert bloom.estimate(key) >= keys.count(key)

    def test_restore_round_trip(self):
        bloom = CountingBloomFilter(64, 2, counter_bits=2, seed=1)
        for key in (1, 1, 1, 1, 2):
            bloom.insert(key)
        other = CountingBloomFilter(64, 2, counter_bits=2, seed=1)
        other.restore(bloom.snapshot())
        assert other.snapshot() == bloom.snapshot()
        assert other.estimate(1) == 3

    @pytest.mark.parametrize("bad", [4, -1, 1.5, "2"])
    def test_restore_rejects_invalid_counters(self, bad):
        """Out-of-range counters would make the scalar insert (which
        leaves an above-max counter alone) and the saturating bulk
        commit disagree; non-integers are not counters at all."""
        bloom = CountingBloomFilter(8, 2, counter_bits=2, seed=1)
        state = bloom.snapshot()
        state["counters"][3] = bad
        with pytest.raises(ConfigError):
            bloom.restore(state)
        assert bloom.snapshot()["counters"] == [0] * 8


@given(
    shape=st.sampled_from([(2, 8), (8, 3), (64, 1), (64, 3)]),
    counter_bits=st.sampled_from([2, 12]),
    before=st.lists(st.integers(0, 40), max_size=30),
    keys=st.lists(st.integers(0, 40), min_size=1, max_size=80),
)
@settings(max_examples=60, deadline=None)
def test_bulk_estimates_and_commit_match_sequential(shape, counter_bits, before, keys):
    """``running_estimates`` and ``insert_rows`` equal sequential
    ``insert``/``estimate`` from any prior state: 2-bit counters
    exercise saturation (and 8 probes on 2 counters collide), 12-bit
    ones the wider-than-a-byte counters."""
    bits, hashes = shape
    serial = CountingBloomFilter(bits, hashes, counter_bits=counter_bits, seed=4)
    bulk = CountingBloomFilter(bits, hashes, counter_bits=counter_bits, seed=4)
    for key in before:
        serial.insert(key)
        bulk.insert(key)
    expected = []
    for key in keys:
        serial.insert(key)
        expected.append(serial.estimate(key))
    probes = bulk.probe_table(41)[np.array(keys)]
    prior = bulk.snapshot()
    assert bulk.running_estimates(probes).tolist() == expected
    assert bulk.snapshot() == prior  # estimating inserts nothing
    bulk.insert_rows(probes)
    assert bulk.snapshot() == serial.snapshot()
