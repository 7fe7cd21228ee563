"""Random-number generation substrates.

The paper's TWL engine uses an 8-bit-wide Feistel network as its hardware
random number generator ("an 8-bit width Feistel Network is adopted to
generate random numbers, which costs less than 128 gates [10]").  This
subpackage implements that network bit-exactly as a keyed permutation plus
a counter-mode RNG on top of it, together with the simpler LFSR/xorshift
generators used by the baselines and deterministic seed-stream helpers
used everywhere in the simulator.
"""

from .feistel import FeistelNetwork, FeistelRNG
from .lfsr import GaloisLFSR, MAXIMAL_TAPS
from .xorshift import XorShift32
from .streams import derive_seed, make_generator

__all__ = [
    "FeistelNetwork",
    "FeistelRNG",
    "GaloisLFSR",
    "MAXIMAL_TAPS",
    "XorShift32",
    "derive_seed",
    "make_generator",
]
