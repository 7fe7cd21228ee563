"""Unit helpers and physical constants used throughout the reproduction.

The paper mixes binary sizes (32 GB PCM, 4 KB pages) with decimal
bandwidths (MBps in Table 2) and wall-clock lifetimes in years.  This
module is the single place where those conversions live.
"""

from __future__ import annotations

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

KB = 1000
MB = 1000 * KB
GB = 1000 * MB

SECONDS_PER_YEAR = 365.25 * 24 * 3600
SECONDS_PER_DAY = 24 * 3600


def mbps_to_bytes_per_second(mbps: float) -> float:
    """Convert a Table-2 style bandwidth in MBps to bytes/second.

    The paper's bandwidth figures are decimal megabytes per second.
    """
    if mbps < 0:
        raise ValueError(f"bandwidth must be non-negative, got {mbps}")
    return mbps * MB


def format_duration(seconds: float) -> str:
    """Human-readable duration, scaled to the most natural unit.

    >>> format_duration(98.0)
    '98.0 s'
    >>> format_duration(2.8 * SECONDS_PER_YEAR)
    '2.80 years'
    """
    if seconds < 0:
        raise ValueError(f"duration must be non-negative, got {seconds}")
    if seconds < 120:
        return f"{seconds:.1f} s"
    if seconds < 2 * 3600:
        return f"{seconds / 60:.1f} min"
    if seconds < 2 * SECONDS_PER_DAY:
        return f"{seconds / 3600:.1f} h"
    if seconds < 0.5 * SECONDS_PER_YEAR:
        return f"{seconds / SECONDS_PER_DAY:.1f} days"
    return f"{seconds / SECONDS_PER_YEAR:.2f} years"


def format_size(num_bytes: int) -> str:
    """Human-readable binary size string.

    >>> format_size(4096)
    '4.0 KiB'
    """
    if num_bytes < 0:
        raise ValueError(f"size must be non-negative, got {num_bytes}")
    value = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024 or unit == "TiB":
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.1f} {unit}"
        value /= 1024
    raise AssertionError("unreachable")
