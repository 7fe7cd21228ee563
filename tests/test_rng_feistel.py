"""Tests for the Feistel network RNG."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.rng.feistel import FeistelNetwork, FeistelRNG


class TestFeistelNetwork:
    def test_is_a_permutation(self):
        network = FeistelNetwork(bits=8, seed=7)
        outputs = network.permutation()
        assert sorted(outputs) == list(range(256))

    def test_decrypt_inverts_encrypt(self):
        network = FeistelNetwork(bits=8, seed=42)
        for value in range(256):
            assert network.decrypt(network.encrypt(value)) == value

    def test_different_seeds_differ(self):
        a = FeistelNetwork(bits=8, seed=1).permutation()
        b = FeistelNetwork(bits=8, seed=2).permutation()
        assert a != b

    def test_wide_network(self):
        network = FeistelNetwork(bits=16, seed=3)
        for value in (0, 1, 12345, 65535):
            encrypted = network.encrypt(value)
            assert 0 <= encrypted < 65536
            assert network.decrypt(encrypted) == value

    def test_rejects_odd_width(self):
        with pytest.raises(ConfigError):
            FeistelNetwork(bits=7)

    def test_rejects_zero_rounds(self):
        with pytest.raises(ConfigError):
            FeistelNetwork(bits=8, rounds=0)

    def test_rejects_out_of_domain(self):
        network = FeistelNetwork(bits=8)
        with pytest.raises(ValueError):
            network.encrypt(256)

    def test_explicit_keys_validated(self):
        with pytest.raises(ConfigError):
            FeistelNetwork(bits=8, keys=[1, 2, 3])  # wrong count for 4 rounds
        with pytest.raises(ConfigError):
            FeistelNetwork(bits=8, keys=[1, 2, 3, 999])  # key out of range

    def test_refuses_huge_materialization(self):
        with pytest.raises(ConfigError):
            FeistelNetwork(bits=22).permutation()

    @given(st.integers(min_value=0, max_value=65535), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, value, seed):
        network = FeistelNetwork(bits=16, seed=seed)
        assert network.decrypt(network.encrypt(value)) == value


class TestFeistelRNG:
    def test_full_period_epoch(self):
        generator = FeistelRNG(bits=8, seed=5)
        words = [generator.next_word() for _ in range(256)]
        assert sorted(words) == list(range(256))

    def test_key_rolls_between_epochs(self):
        generator = FeistelRNG(bits=8, seed=5)
        first = [generator.next_word() for _ in range(256)]
        second = [generator.next_word() for _ in range(256)]
        assert first != second
        assert sorted(second) == list(range(256))

    def test_next_unit_in_range(self):
        generator = FeistelRNG(bits=8, seed=9)
        for _ in range(512):
            value = generator.next_unit()
            assert 0.0 <= value < 1.0

    def test_next_below(self):
        generator = FeistelRNG(bits=8, seed=9)
        for _ in range(100):
            assert 0 <= generator.next_below(10) < 10

    def test_next_below_rejects_bad_bound(self):
        generator = FeistelRNG(bits=8)
        with pytest.raises(ValueError):
            generator.next_below(0)
        with pytest.raises(ValueError):
            generator.next_below(257)

    def test_mean_is_unbiased(self):
        generator = FeistelRNG(bits=8, seed=3)
        mean = sum(generator.next_unit() for _ in range(2560)) / 2560
        assert abs(mean - 0.5) < 0.01  # full-period structure keeps it tight
