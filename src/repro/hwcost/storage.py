"""Table storage accounting (paper Section 5.4).

TWL reserves, per PCM page: a write-counter entry (7 bits), an endurance
table entry (27 bits), a remapping table entry and a strong-weak pair
table entry (ceil(log2(n_pages)) bits each — 23 at the paper's 8.4M-page
scale).  That is 80 bits per 4 KB page, a 2.4e-3 storage overhead
("about 80bits/4KB = 2.5e-3").
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..config import (
    BWLConfig,
    PCMConfig,
    TWLConfig,
    PAPER_PCM,
    PROTECTION_NONE,
    PROTECTION_PARITY,
    PROTECTION_SECDED,
)
from ..errors import ConfigError


def _address_bits(n_pages: int) -> int:
    return max(1, (n_pages - 1).bit_length())


def twl_storage_bits_per_page(
    pcm: PCMConfig = PAPER_PCM,
    twl: TWLConfig = TWLConfig(),
    endurance_bits: int = 27,
) -> int:
    """Per-page SRAM bits TWL reserves (WCT + ET + RT + SWPT)."""
    if endurance_bits < 1:
        raise ConfigError("endurance entry width must be positive")
    address = _address_bits(pcm.n_pages)
    return twl.write_counter_bits + endurance_bits + 2 * address


def twl_storage_overhead(
    pcm: PCMConfig = PAPER_PCM,
    twl: TWLConfig = TWLConfig(),
    endurance_bits: int = 27,
) -> float:
    """TWL storage overhead as a fraction of PCM capacity."""
    bits_per_page = twl_storage_bits_per_page(pcm, twl, endurance_bits)
    return bits_per_page / (pcm.page_bytes * 8)


def scheme_table_geometry(
    scheme_name: str,
    pcm: PCMConfig = PAPER_PCM,
    twl: TWLConfig = TWLConfig(),
    bwl: BWLConfig = BWLConfig(),
) -> Dict[str, Tuple[int, int]]:
    """Per-structure ``(n_entries, entry_bits)`` geometry of a scheme.

    The entry is the protection codeword unit: parity/SECDED check bits
    are added per entry, so the geometry (not just the total bit count,
    ``n_entries * entry_bits``) determines the protection cost.
    Bit-array structures with no record substructure (Bloom filters,
    lone registers) count as a single wide entry.
    """
    name = scheme_name.lower()
    n = pcm.n_pages
    address = _address_bits(n)
    if name == "nowl":
        return {}
    if name == "startgap":
        return {"start_register": (1, address), "gap_register": (1, address)}
    if name == "sr":
        return {
            "region_keys": (2, address),
            "refresh_pointer": (1, address),
            "write_counter": (1, 16),
        }
    if name == "wrl":
        return {
            "remap_table": (n, address),
            "endurance_table": (n, 27),
            "write_number_table": (n, 16),
        }
    if name == "bwl":
        return {
            "remap_table": (n, address),
            "endurance_table": (n, 27),
            "bloom_filters": (2, bwl.bloom_bits * 8),
            "coldhot_lists": (8 * max(1, int(bwl.hot_fraction * n)), address),
        }
    if name in ("twl", "twl_swp", "twl_ap", "twl_random"):
        return {
            "remap_table": (n, address),
            "endurance_table": (n, 27),
            "pair_table": (n, address),
            "write_counter_table": (n, twl.write_counter_bits),
        }
    raise ConfigError(f"no storage model for scheme {scheme_name!r}")


def secded_check_bits(data_bits: int) -> int:
    """Check bits of a Hamming SEC-DED code over ``data_bits`` data bits.

    The smallest ``r`` with ``2**r >= data_bits + r + 1`` gives single
    error correction; one more overall-parity bit adds double error
    detection.  For the classic widths: 8 data bits need 5, 64 need 8.
    """
    if data_bits < 1:
        raise ConfigError("SECDED data width must be positive")
    r = 1
    while (1 << r) < data_bits + r + 1:
        r += 1
    return r + 1


def protection_bits_per_entry(entry_bits: int, protection: str) -> int:
    """Check bits one table entry needs under a protection level."""
    if entry_bits < 1:
        raise ConfigError("entry width must be positive")
    if protection == PROTECTION_NONE:
        return 0
    if protection == PROTECTION_PARITY:
        return 1
    if protection == PROTECTION_SECDED:
        return secded_check_bits(entry_bits)
    raise ConfigError(f"unknown protection level {protection!r}")


def scheme_protection_bits(
    scheme_name: str,
    protection: str,
    pcm: PCMConfig = PAPER_PCM,
    twl: TWLConfig = TWLConfig(),
    bwl: BWLConfig = BWLConfig(),
) -> Dict[str, int]:
    """Per-structure protection check bits of a scheme, device-wide.

    Returns structure-name -> total check bits (``n_entries`` times
    :func:`protection_bits_per_entry`) for every structure in
    :func:`scheme_table_geometry`.
    """
    geometry = scheme_table_geometry(scheme_name, pcm=pcm, twl=twl, bwl=bwl)
    return {
        structure: n_entries * protection_bits_per_entry(entry_bits, protection)
        for structure, (n_entries, entry_bits) in geometry.items()
    }


def protection_storage_overhead(
    scheme_name: str,
    protection: str,
    pcm: PCMConfig = PAPER_PCM,
    twl: TWLConfig = TWLConfig(),
    bwl: BWLConfig = BWLConfig(),
) -> float:
    """Protection check-bit cost as a fraction of PCM capacity."""
    total = sum(
        scheme_protection_bits(
            scheme_name, protection, pcm=pcm, twl=twl, bwl=bwl
        ).values()
    )
    return total / (pcm.n_pages * pcm.page_bytes * 8)
