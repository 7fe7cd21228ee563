"""Feistel-network random number generator.

A Feistel network over ``bits`` bits splits a word into two halves and runs
``rounds`` rounds of::

    L' = R
    R' = L xor F(R, K_i)

Because the construction is an involution-friendly permutation over
``[0, 2**bits)``, it serves two roles in this reproduction:

* as TWL's hardware RNG (counter mode: encrypt an incrementing counter),
  exactly the <128-gate design the paper adopts from Start-Gap [10];
* as a cheap keyed *address permutation* (Start-Gap's randomized layout and
  Security Refresh both need one).

The round function is a small key-dependent S-box style mixer chosen to be
implementable with a handful of gates while passing the statistical checks
in ``tests/test_rng_feistel.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigError

_DEFAULT_ROUNDS = 4

#: 4-bit S-box used by the default round function (PRESENT cipher S-box,
#: chosen because it is standard, tiny and maximally nonlinear for 4 bits).
_SBOX4 = (0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2)

#: The same S-box as a numpy lookup table for the vectorized data path.
_SBOX4_NP = np.array(_SBOX4, dtype=np.int64)


def _derive_round_keys(seed: int, rounds: int, half_bits: int) -> List[int]:
    """Derive ``rounds`` round keys of ``half_bits`` bits from a seed.

    Uses a splitmix-style mixer so nearby seeds give unrelated keys.
    """
    keys = []
    state = (seed * 0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019) & 0xFFFFFFFFFFFFFFFF
    mask = (1 << half_bits) - 1
    for _ in range(rounds):
        state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        z ^= z >> 31
        keys.append(z & mask)
    return keys


class FeistelNetwork:
    """A keyed Feistel permutation over ``[0, 2**bits)``.

    Parameters
    ----------
    bits:
        Total block width; must be even so the halves are equal.  The
        paper's RNG uses ``bits=8``.
    seed:
        Key material; round keys are derived deterministically from it.
    rounds:
        Number of Feistel rounds (4 by default — enough for statistical
        quality at these tiny widths while staying under the paper's
        128-gate budget, see ``repro.hwcost``).
    keys:
        Explicit round keys, overriding derivation from ``seed``.
    """

    def __init__(
        self,
        bits: int = 8,
        seed: int = 0,
        rounds: int = _DEFAULT_ROUNDS,
        keys: Optional[Sequence[int]] = None,
    ) -> None:
        if bits < 2 or bits % 2 != 0:
            raise ConfigError(f"Feistel width must be even and >= 2, got {bits}")
        if rounds < 1:
            raise ConfigError(f"Feistel needs at least one round, got {rounds}")
        self.bits = bits
        self.rounds = rounds
        self.half_bits = bits // 2
        self._half_mask = (1 << self.half_bits) - 1
        if keys is not None:
            if len(keys) != rounds:
                raise ConfigError(
                    f"expected {rounds} round keys, got {len(keys)}"
                )
            bad = [k for k in keys if not 0 <= k <= self._half_mask]
            if bad:
                raise ConfigError(f"round keys out of range: {bad}")
            self.keys = list(keys)
        else:
            self.keys = _derive_round_keys(seed, rounds, self.half_bits)

    @property
    def period(self) -> int:
        """Size of the permuted domain, ``2**bits``."""
        return 1 << self.bits

    def _round_function(self, value: int, key: int) -> int:
        """Key-dependent mixing of one half-word."""
        mixed = (value + key) & self._half_mask
        out = 0
        # Apply the 4-bit S-box nibble-wise (half widths are <= 32 bits).
        shift = 0
        while shift < self.half_bits:
            nibble = (mixed >> shift) & 0xF
            width = min(4, self.half_bits - shift)
            out |= (_SBOX4[nibble] & ((1 << width) - 1)) << shift
            shift += 4
        # Rotate by one so adjacent rounds diffuse across nibbles.
        out = ((out << 1) | (out >> (self.half_bits - 1))) & self._half_mask
        return out ^ key

    def encrypt(self, value: int) -> int:
        """Apply the permutation to ``value``."""
        self._check_domain(value)
        left = value >> self.half_bits
        right = value & self._half_mask
        for key in self.keys:
            left, right = right, left ^ self._round_function(right, key)
        return (left << self.half_bits) | right

    def _round_function_array(self, values: np.ndarray, key: int) -> np.ndarray:
        """Vectorized :meth:`_round_function` (bit-identical per element)."""
        mixed = (values + key) & self._half_mask
        out = np.zeros_like(mixed)
        shift = 0
        while shift < self.half_bits:
            nibble = (mixed >> shift) & 0xF
            width = min(4, self.half_bits - shift)
            out |= (_SBOX4_NP[nibble] & ((1 << width) - 1)) << shift
            shift += 4
        out = ((out << 1) | (out >> (self.half_bits - 1))) & self._half_mask
        return out ^ key

    def encrypt_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`encrypt` over an ``int64`` array.

        Element-for-element identical to the scalar path (enforced by
        ``tests/test_rng_feistel.py``) — this is what makes the batched
        TWL/Start-Gap data paths bit-identical to serial runs while
        skipping the per-call Python cost of the scalar rounds.
        """
        values = np.asarray(values, dtype=np.int64)
        if values.size and (
            int(values.min()) < 0 or int(values.max()) >= self.period
        ):
            bad = int(values[(values < 0) | (values >= self.period)][0])
            raise ValueError(
                f"value {bad} outside Feistel domain [0, {self.period})"
            )
        left = values >> self.half_bits
        right = values & self._half_mask
        for key in self.keys:
            left, right = right, left ^ self._round_function_array(right, key)
        return (left << self.half_bits) | right

    def decrypt(self, value: int) -> int:  # twl: allow(TWL011) reason=oracle: tests/test_rng_feistel.py inverts encrypt with it to prove the network is a permutation
        """Invert the permutation."""
        self._check_domain(value)
        left = value >> self.half_bits
        right = value & self._half_mask
        for key in reversed(self.keys):
            left, right = right ^ self._round_function(left, key), left
        return (left << self.half_bits) | right

    def _check_domain(self, value: int) -> None:
        if not 0 <= value < self.period:
            raise ValueError(
                f"value {value} outside Feistel domain [0, {self.period})"
            )

    def permutation(self) -> List[int]:
        """The full permutation as a list (small widths only)."""
        if self.bits > 20:
            raise ConfigError("refusing to materialize a >1M-entry permutation")
        return [self.encrypt(i) for i in range(self.period)]


class FeistelRNG:
    """Counter-mode RNG built on :class:`FeistelNetwork`.

    Encrypting an incrementing counter yields a full-period sequence of
    ``bits``-wide pseudorandom words — each value appears exactly once per
    period, matching the hardware design's behaviour.  The key is rolled
    automatically at the end of each period so long runs do not repeat.
    """

    #: Widths up to this many bits materialize the epoch's full word
    #: table (one vectorized pass) so ``next_word`` is a table read.
    _TABLE_BITS_MAX = 16

    def __init__(self, bits: int = 8, seed: int = 0, rounds: int = _DEFAULT_ROUNDS) -> None:
        self.bits = bits
        self._seed = seed
        self._epoch = 0
        self._counter = 0
        self._network = FeistelNetwork(bits=bits, seed=seed, rounds=rounds)
        self._rounds = rounds
        # Per-epoch word table: words[i] == network.encrypt(i).  Built
        # lazily on the first draw of an epoch and discarded on key
        # roll; position-independent, so external pokes of ``_counter``
        # (the soft-error fault surface) need no invalidation.
        self._words: Optional[np.ndarray] = None

    @property
    def period(self) -> int:
        """Values per key epoch."""
        return self._network.period

    def snapshot(self) -> dict:
        """The architectural registers: epoch and in-epoch counter.

        The per-epoch word table and the round-key network are pure
        functions of ``(seed, epoch)`` and are rebuilt on restore.
        """
        return {"counter": self._counter, "epoch": self._epoch}

    def restore(self, state: dict) -> None:
        """Restore a state captured by :meth:`snapshot`."""
        epoch = int(state["epoch"])
        self._epoch = epoch
        self._counter = int(state["counter"])
        # Epoch 0's key roll formula degenerates to the construction seed,
        # so one expression rebuilds the network for any epoch.
        self._network = FeistelNetwork(
            bits=self.bits,
            seed=self._seed + 0x10001 * epoch,
            rounds=self._rounds,
        )
        self._words = None

    def next_word(self) -> int:
        """Next pseudorandom word in ``[0, 2**bits)``."""
        if self.bits <= self._TABLE_BITS_MAX:
            if self._words is None:
                self._words = self._network.encrypt_array(  # twl: allow(TWL008) reason=lazy word table derived from (_seed, _epoch), which the snapshot captures
                    np.arange(self._network.period, dtype=np.int64)
                )
            value = int(self._words[self._counter])
        else:
            value = self._network.encrypt(self._counter)
        self._counter += 1
        if self._counter == self._network.period:
            self._counter = 0
            self._epoch += 1
            self._network = FeistelNetwork(  # twl: allow(TWL008) reason=epoch-keyed permutation rebuilt from (_seed, _epoch), which the snapshot captures
                bits=self.bits,
                seed=self._seed + 0x10001 * self._epoch,
                rounds=self._rounds,
            )
            self._words = None
        return value

    def next_unit(self) -> float:
        """Next value mapped to [0, 1): ``word / 2**bits``."""
        return self.next_word() / self.period

    def next_below(self, bound: int) -> int:
        """Next value reduced modulo ``bound`` (bound <= period)."""
        if not 0 < bound <= self.period:
            raise ValueError(f"bound must be in (0, {self.period}], got {bound}")
        return self.next_word() % bound
