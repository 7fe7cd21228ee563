"""A 32-bit xorshift generator.

Used where the simulator needs a very cheap deterministic PRNG that is
independent of numpy (e.g. inside per-write hot loops of baseline
schemes).  Marsaglia's (13, 17, 5) triple; period ``2**32 - 1``.

The step ``T`` is three shift-and-xor operations, so it is linear over
GF(2)^32: ``T(a ^ b) == T(a) ^ T(b)``, and jumping ``k`` steps ahead
is one application of the matrix ``T**k``.  :meth:`XorShift32.next_words`
uses this to draw a batch without a Python step per word, and the
result is exactly the serial stream.  Because each word drawn is the
new register, the state after a draw is always the last word drawn.
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import ConfigError

_MASK32 = 0xFFFFFFFF

#: Words :meth:`XorShift32.next_words` steps serially before it starts
#: doubling with the jump tables (a power of two).
_SERIAL_HEAD = 64

#: The 32 unit vectors, as the columns of the identity matrix.
_BASIS = np.left_shift(np.uint32(1), np.arange(32, dtype=np.uint32))


def _step(x: int) -> int:
    x ^= (x << 13) & _MASK32
    x ^= x >> 17
    x ^= (x << 5) & _MASK32
    return x


def _byte_tables(columns: np.ndarray) -> np.ndarray:
    """XOR tables of a 32x32 GF(2) matrix given its 32 basis columns.

    Row ``b`` maps a byte value ``v`` to the image of ``v << 8*b``.
    """
    tables = np.zeros((4, 256), dtype=np.uint32)
    for byte in range(4):
        table = tables[byte]
        for bit in range(8):
            half = 1 << bit
            table[half : 2 * half] = table[:half] ^ columns[8 * byte + bit]
    tables.flags.writeable = False
    return tables


def _jump(tables: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Apply the matrix held in ``tables`` to every uint32 in ``words``."""
    return (
        tables[0][words & 0xFF]
        ^ tables[1][(words >> 8) & 0xFF]
        ^ tables[2][(words >> 16) & 0xFF]
        ^ tables[3][words >> 24]
    )


@functools.lru_cache(maxsize=None)
def _jump_table(power: int) -> np.ndarray:
    """Byte tables of ``T**(2**power)``, shape ``(4, 256)``, read-only.

    Constants of the recurrence, not generator state: derived on first
    use by squaring, ``T**(2m)`` being ``T**m`` applied to the columns
    of ``T**m``, and shared by every generator in the process.
    """
    if power == 0:
        columns = np.array([_step(1 << bit) for bit in range(32)], dtype=np.uint32)
    else:
        half = _jump_table(power - 1)
        columns = _jump(half, _jump(half, _BASIS))
    return _byte_tables(columns)


class XorShift32:
    """Marsaglia xorshift32 PRNG."""

    def __init__(self, seed: int = 0x1234_5678) -> None:
        seed &= _MASK32
        if seed == 0:
            raise ConfigError("xorshift seed must be non-zero")
        self.state = seed

    def next_word(self) -> int:
        """Next 32-bit word."""
        x = self.state
        x ^= (x << 13) & _MASK32
        x ^= x >> 17
        x ^= (x << 5) & _MASK32
        self.state = x
        return x

    def next_unit(self) -> float:
        """Next float in [0, 1)."""
        return self.next_word() / 4294967296.0

    def next_below(self, bound: int) -> int:
        """Next integer in [0, bound)."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_word() % bound

    def snapshot(self) -> dict:
        """The full register state (one 32-bit word)."""
        return {"state": self.state}

    def restore(self, state: dict) -> None:
        """Restore a state captured by :meth:`snapshot`."""
        self.state = int(state["state"])

    def next_words(self, count: int) -> np.ndarray:
        """The next ``count`` 32-bit words, as an ``int64`` array.

        Exactly the words ``count`` :meth:`next_word` calls would return,
        and the generator is left in the same state: the last word drawn
        (a register poked to 0 stays 0).  That is what lets batched paths
        pre-draw a batch's decisions and stay bit-identical to the serial
        path, and rewind to any word of the batch by assigning it to
        :attr:`state`.

        The first ``_SERIAL_HEAD`` words are stepped one by one; the rest
        are filled by doubling, ``out[m:2m] = T**m(out[:m])``, with the
        jump tables of the linear step (the last doubling may be
        partial).
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        out = np.empty(count, dtype=np.uint32)
        head = []
        x = self.state
        for _ in range(min(count, _SERIAL_HEAD)):
            x = _step(x)
            head.append(x)
        out[: len(head)] = head
        filled, power = _SERIAL_HEAD, _SERIAL_HEAD.bit_length() - 1
        while filled < count:
            span = min(filled, count - filled)
            out[filled : filled + span] = _jump(_jump_table(power), out[:span])
            filled += span
            power += 1
        if count:
            self.state = int(out[-1])
        return out.astype(np.int64)
