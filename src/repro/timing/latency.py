"""Per-request latency accounting.

Each scheme adds a serialized control path in front of the PCM access:

* NOWL — none;
* Start-Gap — start/gap registers (pure arithmetic, one cycle);
* SR — region key/pointer registers plus the XOR stage;
* WRL — a remapping-table lookup (the WNT update is off the critical
  path: it happens while the write is in flight);
* BWL — two Bloom-filter probes plus the cold/hot list plus the
  remapping table, all serialized before the write can issue ("two bloom
  filters and a cold-hot list are accessed during every write");
* TWL — the remapping table on every access, plus the engine (SWPT + ET
  lookups, RNG, control logic) only when the write counter fires, i.e.
  amortized over the toss-up interval ("TWL engine functions only when
  write counter equals the toss-up interval").
"""

from __future__ import annotations

from ..config import TimingConfig, TWLConfig
from ..errors import ConfigError


def control_path_cycles(
    scheme_name: str,
    timing: TimingConfig = TimingConfig(),
    twl_config: TWLConfig = TWLConfig(),
) -> float:
    """Average serialized control cycles per demand write for a scheme."""
    name = scheme_name.lower()
    if name == "nowl":
        return 0.0
    if name == "startgap":
        return 1.0
    if name == "sr":
        return float(timing.table_cycles)
    if name == "wrl":
        return float(timing.table_cycles)
    if name == "bwl":
        return float(
            2 * timing.bloom_probe_cycles
            + timing.coldhot_list_cycles
            + timing.table_cycles
        )
    if name in ("twl", "twl_swp", "twl_ap", "twl_random"):
        engine = (
            timing.table_cycles  # SWPT + ET read, overlapped pairwise
            + timing.rng_cycles
            + timing.twl_logic_cycles
        )
        return float(timing.table_cycles) + engine / twl_config.toss_up_interval
    raise ConfigError(f"no control-path model for scheme {scheme_name!r}")

