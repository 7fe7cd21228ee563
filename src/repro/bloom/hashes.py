"""Hash family for Bloom filters.

Hardware Bloom filters use a small set of cheap independent hash
functions.  We model them with multiply-shift hashing (Dietzfelbinger et
al.): ``h_i(x) = (a_i * x + b_i) >> (64 - log2(m))``, which is 2-universal
and maps onto a multiplier plus a barrel shifter in hardware.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import ConfigError
from ..rng.streams import derive_seed

_MASK64 = 0xFFFFFFFFFFFFFFFF


class HashFamily:  # twl: allow(TWL008) reason=_cache memoizes a pure hash; rebuilding it after a restore is behaviour-neutral
    """``k`` independent multiply-shift hashes onto ``[0, m)``.

    ``m`` must be a power of two (the shift amount is 64 - log2(m)).
    """

    def __init__(self, k: int, m: int, seed: int = 0):
        if k < 1:
            raise ConfigError(f"need at least one hash, got {k}")
        if m < 2 or (m & (m - 1)) != 0:
            raise ConfigError(f"range m must be a power of two >= 2, got {m}")
        self.k = k
        self.m = m
        self._shift = 64 - (m.bit_length() - 1)
        self._params = []
        for i in range(k):
            a = derive_seed(seed, "bloom-a", i) | 1  # multiplier must be odd
            b = derive_seed(seed, "bloom-b", i)
            self._params.append((a & _MASK64, b & _MASK64))
        # Keys are page addresses and recur constantly in simulation hot
        # loops; memoizing the probe positions is behaviour-neutral (the
        # function is pure) and removes three wide multiplies per probe.
        self._cache = {}

    def indices(self, key: int) -> List[int]:
        """The ``k`` probe positions for ``key``."""
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if key < 0:
            raise ValueError(f"key must be non-negative, got {key}")
        out = []
        for a, b in self._params:
            out.append(((a * key + b) & _MASK64) >> self._shift)
        self._cache[key] = out
        return out

    def table(self, n_keys: int) -> np.ndarray:
        """Probe positions of keys ``0..n_keys-1`` as an ``(n_keys, k)`` array.

        Row ``key`` equals :meth:`indices` of ``key``: the same
        multiply-shift, computed in ``uint64`` whose wrap-around is the
        ``mod 2**64`` of the scalar form.  Stored in the narrowest
        unsigned dtype that holds ``m - 1``.
        """
        a, b = (np.array(column, dtype=np.uint64) for column in zip(*self._params))
        keys = np.arange(n_keys, dtype=np.uint64)[:, None]
        probes = (keys * a + b) >> np.uint64(self._shift)
        return probes.astype(np.min_scalar_type(self.m - 1))
