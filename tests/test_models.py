"""Tests cross-validating the closed-form models against simulation.

These are the reproduction's strongest internal-consistency checks: the
paper's Equation-1/2 swap-probability model and our wear-share extension
must predict what the actual TWL engine does on isolated pairs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.models import (
    choose_a_probability,
    interval_swap_ratio,
    markov_pair_wear_shares,
    markov_swap_probability,
    pair_lifetime_fraction,
    slot_repeat_probability,
    swap_probability,
    uniform_wear_lifetime_fraction,
)
from repro.config import TWLConfig
from repro.core.twl import TossUpWearLeveling
from repro.errors import ConfigError
from repro.pcm.array import PCMArray
from repro.rng.xorshift import XorShift32


def _simulate_pair(endurance_a, endurance_b, p, writes=40_000, interval=1):
    """Drive an isolated TWL pair with i.i.d. slot choice."""
    array = PCMArray(np.array([endurance_a, endurance_b], dtype=np.int64))
    config = TWLConfig(toss_up_interval=interval, inter_pair_swap_interval=10**9)
    scheme = TossUpWearLeveling(array, config=config, seed=11)
    rng = XorShift32(seed=97)
    demand = 0
    for _ in range(writes):
        slot = 0 if rng.next_unit() < p else 1
        scheme.write(slot)
        demand += 1
        if array.failed:
            break
    return array, scheme, demand


class TestPaperEquation:
    def test_case_1_equal_endurance(self):
        assert swap_probability(0.7, 100, 100) == pytest.approx(0.5)

    def test_case_2_consistent_hot_on_strong(self):
        assert swap_probability(0.999, 10**6, 1) < 0.01

    def test_case_3_inverted(self):
        assert swap_probability(0.001, 10**6, 1) > 0.99

    def test_case_4_alternating(self):
        assert swap_probability(0.5, 10**6, 1) == pytest.approx(0.5)

    @given(
        st.floats(0.0, 1.0),
        st.floats(1.0, 1e6),
        st.floats(1.0, 1e6),
    )
    @settings(max_examples=100, deadline=None)
    def test_probability_bounds(self, p, ea, eb):
        assert 0.0 <= swap_probability(p, ea, eb) <= 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            swap_probability(1.5, 1, 1)
        with pytest.raises(ConfigError):
            swap_probability(0.5, 0, 1)


class TestSimulationAgreement:
    """The real engine must match the Markov closed forms on pairs."""

    @pytest.mark.parametrize(
        "ea,eb,p",
        [(900, 100, 0.5), (700, 300, 0.8), (500, 500, 0.5), (800, 200, 0.2)],
    )
    def test_wear_shares_match_markov(self, ea, eb, p):
        scale = 40  # scale endurance up so the pair survives the sample
        array, scheme, demand = _simulate_pair(ea * scale, eb * scale, p)
        predicted = markov_pair_wear_shares(p, ea, eb)
        wear = array.write_counts()
        measured_share_b = wear[1] / wear.sum()
        assert measured_share_b == pytest.approx(predicted.share_b, abs=0.02)

    @pytest.mark.parametrize(
        "ea,eb,p", [(900, 100, 0.5), (600, 400, 0.9), (700, 300, 0.8)]
    )
    def test_swap_ratio_matches_markov(self, ea, eb, p):
        array, scheme, demand = _simulate_pair(ea * 40, eb * 40, p)
        predicted = markov_swap_probability(p, ea, eb)
        measured = scheme.swap_judge.swapped / (
            scheme.swap_judge.swapped + scheme.swap_judge.direct
        )
        assert measured == pytest.approx(predicted, abs=0.02)

    def test_alternating_stream_wears_evenly(self):
        # s = 0: strict alternation defeats endurance-proportional
        # allocation entirely — the Case-4 bound made precise.
        array = PCMArray(np.array([90_000, 10_000], dtype=np.int64))
        config = TWLConfig(toss_up_interval=1, inter_pair_swap_interval=10**9)
        scheme = TossUpWearLeveling(array, config=config, seed=5)
        for step in range(40_000):
            scheme.write(step % 2)
        wear = array.write_counts()
        predicted = markov_pair_wear_shares(0.5, 9, 1, repeat_probability=0.0)
        assert wear[1] / wear.sum() == pytest.approx(predicted.share_b, abs=0.02)
        assert predicted.share_b == pytest.approx(0.5, abs=1e-9)

    def test_repeat_stream_wears_proportionally(self):
        # s = 1: a hammered page is allocated nearly proportionally to
        # endurance, the PV-protection the paper designs for.
        predicted = markov_pair_wear_shares(1.0, 900, 100, repeat_probability=1.0)
        assert predicted.share_b < 0.2

    def test_lifetime_fraction_matches(self):
        ea, eb, p = 30_000, 10_000, 0.5
        array, scheme, demand = _simulate_pair(ea, eb, p, writes=10**7)
        assert array.failed
        predicted = pair_lifetime_fraction(p, ea, eb)
        measured = demand / (ea + eb)
        assert measured == pytest.approx(predicted, rel=0.05)

    def test_interval_reduces_swap_ratio(self):
        # Interval gating cuts the swap/write ratio close to 1/interval;
        # the division is approximate because the partner's tosses can
        # displace a page between its own (rarer) tosses, raising the
        # per-toss swap probability somewhat.
        ea, eb, p = 36_000, 4_000, 0.5
        _, scheme_1, demand_1 = _simulate_pair(ea, eb, p, writes=30_000, interval=1)
        _, scheme_8, demand_8 = _simulate_pair(ea, eb, p, writes=30_000, interval=8)
        ratio_1 = scheme_1.swap_judge.swapped / demand_1
        ratio_8 = scheme_8.swap_judge.swapped / demand_8
        assert ratio_1 / 12 < ratio_8 < ratio_1 / 4
        predicted = interval_swap_ratio(markov_swap_probability(p, ea, eb), 8)
        assert ratio_8 == pytest.approx(predicted, rel=0.5)

    def test_paper_equation_agrees_where_memoryless(self):
        """Where arrangement memory is irrelevant, both models agree.

        Case-1/Case-4 (symmetric) coincide exactly; Case-2 (consistent
        hot-on-strong) agrees in the -> 0 limit.  Case-3 (p -> 0) is a
        *transient* in the paper's own words ("After Case-3 occurs ...
        the situation turns into Case-2"): the steady-state engine swaps
        once and then parks, which the Markov model captures and the
        memoryless equation does not.
        """
        assert markov_swap_probability(0.5, 1.0, 1.0) == pytest.approx(
            swap_probability(0.5, 1.0, 1.0)
        )
        assert markov_swap_probability(0.5, 9.0, 1.0) == pytest.approx(
            swap_probability(0.5, 9.0, 1.0)
        )
        assert markov_swap_probability(1.0, 1e6, 1.0) < 1e-5
        assert swap_probability(1.0, 1e6, 1.0) < 1e-5
        # The transient Case-3 disagreement, stated explicitly:
        assert swap_probability(0.0, 1e6, 1.0) > 0.99
        assert markov_swap_probability(0.0, 1e6, 1.0) < 1e-5

    def test_repeat_probability_formula(self):
        assert slot_repeat_probability(0.5) == pytest.approx(0.5)
        assert slot_repeat_probability(1.0) == pytest.approx(1.0)
        assert slot_repeat_probability(0.9) == pytest.approx(0.82)


class TestUniformWearBound:
    def test_pins_security_refresh(self):
        # SR at the paper's parameters: ~0.42-0.44 of ideal.
        bound = uniform_wear_lifetime_fraction(0.11, 8 * 1024 * 1024, 0.016)
        assert 0.40 < bound < 0.45

    def test_no_variation_is_unity(self):
        assert uniform_wear_lifetime_fraction(0.0, 10**6) == pytest.approx(1.0)

    def test_overhead_derates(self):
        base = uniform_wear_lifetime_fraction(0.11, 10**6)
        loaded = uniform_wear_lifetime_fraction(0.11, 10**6, overhead_ratio=0.5)
        assert loaded == pytest.approx(base / 1.5)

    def test_matches_measured_sr(self, small_scaled):
        from repro.sim.runner import measure_attack_lifetime

        result = measure_attack_lifetime("sr", "scan", scaled=small_scaled)
        bound = uniform_wear_lifetime_fraction(
            small_scaled.endurance_sigma_fraction,
            small_scaled.reference.n_pages,
            overhead_ratio=result.overhead_ratio,
        )
        assert result.lifetime_fraction == pytest.approx(bound, rel=0.15)

    def test_validation(self):
        with pytest.raises(ConfigError):
            uniform_wear_lifetime_fraction(1.5, 100)
        with pytest.raises(ConfigError):
            uniform_wear_lifetime_fraction(0.1, 0)
        with pytest.raises(ConfigError):
            uniform_wear_lifetime_fraction(0.1, 100, overhead_ratio=-1)


class TestChooseA:
    def test_proportional(self):
        assert choose_a_probability(300, 100) == pytest.approx(0.75)

    def test_validation(self):
        with pytest.raises(ConfigError):
            choose_a_probability(-1, 1)
