"""Tests for the Galois LFSR."""

import pytest

from repro.errors import ConfigError
from repro.rng.lfsr import GaloisLFSR, MAXIMAL_TAPS


class TestGaloisLFSR:
    def test_maximal_period_width_8(self):
        lfsr = GaloisLFSR(width=8, seed=1)
        states = set()
        for _ in range(255):
            states.add(lfsr.step())
        assert len(states) == 255
        assert 0 not in states

    def test_maximal_period_width_4(self):
        lfsr = GaloisLFSR(width=4, seed=3)
        seen = [lfsr.step() for _ in range(15)]
        assert len(set(seen)) == 15

    def test_state_never_zero(self):
        lfsr = GaloisLFSR(width=8, seed=0xFF)
        for _ in range(1000):
            assert lfsr.step() != 0

    def test_deterministic(self):
        a = GaloisLFSR(width=16, seed=77)
        b = GaloisLFSR(width=16, seed=77)
        assert [a.step() for _ in range(50)] == [b.step() for _ in range(50)]

    def test_next_word_width(self):
        lfsr = GaloisLFSR(width=8, seed=1)
        for _ in range(20):
            assert 0 <= lfsr.next_word(5) < 32

    def test_next_word_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            GaloisLFSR(width=8, seed=1).next_word(0)

    def test_bit_stream_balanced(self):
        lfsr = GaloisLFSR(width=16, seed=0xACE1)
        ones = sum(lfsr.next_bit() for _ in range(4000))
        assert 1800 < ones < 2200

    def test_rejects_zero_seed(self):
        with pytest.raises(ConfigError):
            GaloisLFSR(width=8, seed=0)

    def test_rejects_unknown_width_without_taps(self):
        with pytest.raises(ConfigError):
            GaloisLFSR(width=17, seed=1)

    def test_explicit_taps_accepted(self):
        lfsr = GaloisLFSR(width=17, seed=1, taps=0x12000)
        assert lfsr.step() >= 0

    def test_all_builtin_taps_are_maximal_small_widths(self):
        for width in (4, 5, 6, 7, 8, 9, 10):
            lfsr = GaloisLFSR(width=width, seed=1, taps=MAXIMAL_TAPS[width])
            period = (1 << width) - 1
            states = {lfsr.step() for _ in range(period)}
            assert len(states) == period, f"width {width} not maximal"
