"""Result analysis: statistics, calibration, tables, extrapolation."""

from .stats import geometric_mean, summarize
from .calibration import (
    PAPER_IDEAL_CALIBRATION,
    PAPER_ATTACK_BANDWIDTH_BYTES,
    ideal_lifetime_seconds,
    ideal_lifetime_years,
    attack_ideal_lifetime_years,
)
from .tables import ResultTable, format_table, ascii_bar_chart, grouped_bar_chart
from .extrapolate import (
    fraction_to_full_scale_years,
    targeted_attack_full_scale_seconds,
)
from .svg import svg_grouped_bars, svg_line_chart, svg_wear_heatmap, save_svg
from .models import (
    choose_a_probability,
    swap_probability,
    markov_swap_probability,
    pair_wear_shares,
    markov_pair_wear_shares,
    slot_repeat_probability,
    pair_lifetime_fraction,
    uniform_wear_lifetime_fraction,
    interval_swap_ratio,
)

__all__ = [
    "geometric_mean",
    "summarize",
    "PAPER_IDEAL_CALIBRATION",
    "PAPER_ATTACK_BANDWIDTH_BYTES",
    "ideal_lifetime_seconds",
    "ideal_lifetime_years",
    "attack_ideal_lifetime_years",
    "ResultTable",
    "format_table",
    "ascii_bar_chart",
    "grouped_bar_chart",
    "fraction_to_full_scale_years",
    "targeted_attack_full_scale_seconds",
    "svg_grouped_bars",
    "svg_line_chart",
    "svg_wear_heatmap",
    "save_svg",
    "choose_a_probability",
    "swap_probability",
    "markov_swap_probability",
    "markov_pair_wear_shares",
    "slot_repeat_probability",
    "pair_wear_shares",
    "pair_lifetime_fraction",
    "uniform_wear_lifetime_fraction",
    "interval_swap_ratio",
]
