"""Galois linear-feedback shift registers.

Security Refresh [12] generates its per-region random keys from a hardware
LFSR; we model the same primitive here.  Tap masks below give maximal
period (``2**width - 1``) for the listed widths.
"""

from __future__ import annotations

from typing import Dict

from ..errors import ConfigError

#: Maximal-length tap masks (Galois form) for common widths.
MAXIMAL_TAPS: Dict[int, int] = {
    4: 0x9,
    5: 0x12,
    6: 0x21,
    7: 0x41,
    8: 0x8E,
    9: 0x108,
    10: 0x204,
    11: 0x402,
    12: 0x829,
    13: 0x100D,
    14: 0x2015,
    15: 0x4001,
    16: 0x8016,
    20: 0x80004,
    24: 0x80000D,
    31: 0x40000004,
    32: 0x80000057,
}


class GaloisLFSR:
    """A Galois LFSR over ``width`` bits.

    The state never reaches zero (the all-zero state is a fixed point of
    the recurrence and is rejected as a seed), so the output cycles through
    ``2**width - 1`` distinct values for maximal tap masks.
    """

    def __init__(self, width: int, seed: int = 1, taps: int = 0) -> None:
        if width < 2:
            raise ConfigError(f"LFSR width must be >= 2, got {width}")
        if taps == 0:
            if width not in MAXIMAL_TAPS:
                raise ConfigError(
                    f"no built-in maximal taps for width {width}; "
                    f"supply taps= explicitly (known: {sorted(MAXIMAL_TAPS)})"
                )
            taps = MAXIMAL_TAPS[width]
        self.width = width
        self.taps = taps
        self._mask = (1 << width) - 1
        seed &= self._mask
        if seed == 0:
            raise ConfigError("LFSR seed must be non-zero")
        self.state = seed

    @property
    def period(self) -> int:
        """Sequence period for a maximal tap mask."""
        return (1 << self.width) - 1

    def snapshot(self) -> dict:
        """The full register state (one ``width``-bit word)."""
        return {"state": self.state}

    def restore(self, state: dict) -> None:
        """Restore a state captured by :meth:`snapshot`."""
        self.state = int(state["state"])

    def step(self) -> int:
        """Advance one step and return the new state."""
        lsb = self.state & 1
        self.state >>= 1
        if lsb:
            self.state ^= self.taps
        return self.state

    def next_bit(self) -> int:
        """Advance one step and return the output bit."""
        return self.step() & 1

    def next_word(self, bits: int) -> int:
        """Collect ``bits`` output bits into a word (MSB first)."""
        if bits < 1:
            raise ValueError("need at least one bit")
        word = 0
        for _ in range(bits):
            word = (word << 1) | self.next_bit()
        return word
