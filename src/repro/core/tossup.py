"""The "toss-up" component (paper Figure 4(b)).

Given the endurance values of the two pages of a pair, the hardware
compares a fresh random number against ``E_A / (E_A + E_B)`` to pick the
page that will physically take the write.  The comparison happens in
fixed point: the ratio is scaled to the RNG's word width, so an 8-bit RNG
resolves the probability to 1/256 — the same precision a real divider +
comparator datapath would deliver.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..rng.feistel import FeistelRNG


def toss_up_threshold(endurance_a: int, endurance_b: int, rng_bits: int = 8) -> int:
    """Fixed-point threshold ``round_down(2**bits * E_A / (E_A + E_B))``.

    A random word strictly below the threshold selects page A, so
    ``P(choose A) = threshold / 2**bits``.
    """
    if endurance_a <= 0 or endurance_b <= 0:
        raise ConfigError(
            f"endurance must be positive, got ({endurance_a}, {endurance_b})"
        )
    if not 1 <= rng_bits <= 32:
        raise ConfigError(f"rng_bits must be in [1, 32], got {rng_bits}")
    return (endurance_a << rng_bits) // (endurance_a + endurance_b)


class TossUp:
    """The toss-up datapath: RNG plus threshold comparator."""

    def __init__(self, rng_bits: int = 8, seed: int = 0):
        self.rng_bits = rng_bits
        self.rng = FeistelRNG(bits=rng_bits, seed=seed)
        self.decisions = 0
        self.chose_a = 0

    def snapshot(self) -> dict:
        """RNG registers plus decision counters (mid-run persistence)."""
        return {
            "chose_a": self.chose_a,
            "decisions": self.decisions,
            "rng": self.rng.snapshot(),
        }

    def restore(self, state: dict) -> None:
        """Restore a state captured by :meth:`snapshot`."""
        self.chose_a = int(state["chose_a"])
        self.decisions = int(state["decisions"])
        self.rng.restore(state["rng"])

    def choose_a(self, endurance_a: int, endurance_b: int) -> bool:
        """True when the toss-up selects page A for the write."""
        threshold = toss_up_threshold(endurance_a, endurance_b, self.rng_bits)
        alpha = self.rng.next_word()
        self.decisions += 1
        result = alpha < threshold
        if result:
            self.chose_a += 1
        return result
