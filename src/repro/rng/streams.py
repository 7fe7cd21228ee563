"""Deterministic seed derivation for independent random streams.

Every stochastic component of the reproduction (endurance sampling, trace
generation, each wear-leveling scheme's internal RNG, attack address
choices) draws from its own stream derived from one experiment seed, so a
single integer reproduces an entire experiment bit-for-bit while streams
stay statistically independent.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

Label = Union[str, int]


def derive_seed(root_seed: int, *labels: Label) -> int:
    """Derive a 63-bit child seed from ``root_seed`` and a label path.

    Uses BLAKE2b over the canonical label path, so derivation is stable
    across Python versions and platforms (unlike ``hash()``).

    >>> derive_seed(2017, "trace", "vips") == derive_seed(2017, "trace", "vips")
    True
    >>> derive_seed(2017, "a") != derive_seed(2017, "b")
    True
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(root_seed)).encode())
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode())
    return int.from_bytes(h.digest(), "big") & 0x7FFF_FFFF_FFFF_FFFF


def make_generator(root_seed: int, *labels: Label) -> np.random.Generator:
    """A numpy Generator seeded from a derived stream."""
    return np.random.default_rng(derive_seed(root_seed, *labels))

