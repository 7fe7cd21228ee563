"""Tests for the xorshift32 generator."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.rng.xorshift import XorShift32

#: Around the serial head (64 words), inside, at and past whole
#: doublings, and a partial last doubling at several depths.
COUNTS = (0, 1, 63, 64, 65, 127, 128, 129, 1000, 4095, 4096, 4097, 70000)

#: Edge seeds plus arbitrary ones; 0 is a register poked to 0 by a soft
#: error (the constructor rejects it, so tests assign ``state``).
states = st.one_of(
    st.sampled_from([1, 0xFFFFFFFF, 0]), st.integers(min_value=1, max_value=0xFFFFFFFF)
)


def _generator(state: int) -> XorShift32:
    rng = XorShift32(seed=1)
    rng.state = state
    return rng


class TestXorShift32:
    def test_deterministic(self):
        a = XorShift32(seed=42)
        b = XorShift32(seed=42)
        assert [a.next_word() for _ in range(100)] == [b.next_word() for _ in range(100)]

    def test_seeds_differ(self):
        a = XorShift32(seed=1)
        b = XorShift32(seed=2)
        assert [a.next_word() for _ in range(10)] != [b.next_word() for _ in range(10)]

    def test_rejects_zero_seed(self):
        with pytest.raises(ConfigError):
            XorShift32(seed=0)

    def test_words_in_range(self):
        rng = XorShift32(seed=7)
        for _ in range(1000):
            assert 0 <= rng.next_word() <= 0xFFFFFFFF

    def test_unit_in_range(self):
        rng = XorShift32(seed=7)
        for _ in range(1000):
            assert 0.0 <= rng.next_unit() < 1.0

    def test_next_below_uniform_enough(self):
        rng = XorShift32(seed=7)
        counts = [0] * 8
        for _ in range(8000):
            counts[rng.next_below(8)] += 1
        assert min(counts) > 800
        assert max(counts) < 1200

    def test_next_below_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            XorShift32(seed=1).next_below(0)

    def test_no_short_cycles(self):
        rng = XorShift32(seed=99)
        seen = set()
        for _ in range(10_000):
            word = rng.next_word()
            assert word not in seen
            seen.add(word)


class TestNextWords:
    """``next_words(k)`` is ``k`` :meth:`next_word` calls, state included."""

    @pytest.mark.parametrize("count", COUNTS)
    @settings(max_examples=15, deadline=None)
    @given(state=states)
    def test_equals_serial_draws(self, count, state):
        batched, serial = _generator(state), _generator(state)
        words = batched.next_words(count)
        assert words.dtype == np.int64
        assert words.tolist() == [serial.next_word() for _ in range(count)]
        assert batched.state == serial.state

    @settings(max_examples=60, deadline=None)
    @given(
        state=states,
        calls=st.lists(
            st.one_of(st.none(), st.sampled_from(COUNTS[:-1]), st.integers(0, 300)),
            max_size=10,
        ),
    )
    def test_interleaved_with_next_word(self, state, calls):
        mixed, serial = _generator(state), _generator(state)
        for count in calls:
            if count is None:
                assert mixed.next_word() == serial.next_word()
            else:
                expected = [serial.next_word() for _ in range(count)]
                assert mixed.next_words(count).tolist() == expected
            assert mixed.state == serial.state

    @settings(max_examples=40, deadline=None)
    @given(
        state=states,
        before=st.sampled_from(COUNTS[:-1]),
        after=st.sampled_from(COUNTS[:-1]),
    )
    def test_snapshot_restore_mid_stream(self, state, before, after):
        rng = _generator(state)
        rng.next_words(before)
        saved = rng.snapshot()
        tail = rng.next_words(after).tolist()
        resumed = XorShift32(seed=1)
        resumed.restore(saved)
        assert resumed.next_words(after).tolist() == tail
        assert resumed.state == rng.state
        resumed.restore(saved)
        assert [resumed.next_word() for _ in range(after)] == tail

    def test_zero_state_stays_zero(self):
        rng = _generator(0)
        assert not rng.next_words(5000).any()
        assert rng.state == 0

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            XorShift32(seed=1).next_words(-1)

    def test_jump_tables_are_built_at_first_long_draw(self):
        # Import, scheme and attack construction and draws inside the
        # serial head build nothing; a 65-word draw squares up to T**64.
        script = (
            "import repro.rng.xorshift as xs\n"
            "from repro.attacks import make_attack\n"
            "from repro.pcm.array import PCMArray\n"
            "from repro.wearlevel.security_refresh import SecurityRefresh\n"
            "SecurityRefresh(PCMArray.uniform(64, 100))\n"
            "attack = make_attack('random', 64, seed=1)\n"
            "attack.next_writes(64)\n"
            "built = xs._jump_table.cache_info\n"
            "assert built().currsize == 0, built()\n"
            "attack.next_writes(65)\n"
            "assert built().currsize == 7, built()\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        subprocess.run([sys.executable, "-c", script], env=env, check=True)
