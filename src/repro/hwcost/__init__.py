"""Hardware design-overhead models (paper Section 5.4).

* :mod:`repro.hwcost.gates` — gate-equivalent cost models for the
  datapath primitives (comparators, adders, a sequential divider, the
  iterative Feistel RNG core);
* :mod:`repro.hwcost.storage` — per-page table storage accounting;
* :mod:`repro.hwcost.synthesis` — assembles the full Section-5.4 report.
"""

from .gates import (
    comparator_gates,
    adder_gates,
    register_gates,
    mux_gates,
    sequential_divider_gates,
    feistel_rng_gates,
)
from .storage import (
    twl_storage_bits_per_page,
    twl_storage_overhead,
    scheme_table_geometry,
    secded_check_bits,
    protection_bits_per_entry,
    scheme_protection_bits,
    protection_storage_overhead,
)
from .synthesis import DesignOverheadReport, twl_design_overhead

__all__ = [
    "comparator_gates",
    "adder_gates",
    "register_gates",
    "mux_gates",
    "sequential_divider_gates",
    "feistel_rng_gates",
    "twl_storage_bits_per_page",
    "twl_storage_overhead",
    "scheme_table_geometry",
    "secded_check_bits",
    "protection_bits_per_entry",
    "scheme_protection_bits",
    "protection_storage_overhead",
    "DesignOverheadReport",
    "twl_design_overhead",
]
