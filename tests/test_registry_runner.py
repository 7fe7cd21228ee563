"""Tests for the scheme registry and the experiment runner helpers."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.config import ScaledArrayConfig, TWLConfig
from repro.core.twl import TossUpWearLeveling
from repro.errors import ConfigError
from repro.pcm.array import PCMArray
from repro.sim.runner import build_array, measure_attack_lifetime, measure_trace_lifetime
from repro.traces.request import OP_WRITE
from repro.traces.trace import Trace
from repro.wearlevel.registry import make_scheme, scheme_names


class TestRegistry:
    def test_all_names_constructible(self):
        for name in scheme_names():
            array = PCMArray.uniform(64, 10_000)
            scheme = make_scheme(name, array, seed=1)
            assert scheme.write(0) >= 1

    def test_twl_alias_is_swp(self):
        array = PCMArray.uniform(16, 1000)
        scheme = make_scheme("twl", array, seed=1)
        assert isinstance(scheme, TossUpWearLeveling)
        assert scheme.config.pairing == "swp"

    def test_twl_variants_get_their_pairing(self):
        for name, pairing in (("twl_swp", "swp"), ("twl_ap", "ap"), ("twl_random", "random")):
            array = PCMArray.uniform(16, 1000)
            scheme = make_scheme(name, array, seed=1)
            assert scheme.config.pairing == pairing

    def test_twl_config_pairing_coerced(self):
        # Passing a mismatched config to a pairing-specific factory gets
        # the factory's pairing, keeping the registry labels truthful.
        array = PCMArray.uniform(16, 1000)
        scheme = make_scheme("twl_ap", array, seed=1, config=TWLConfig(pairing="swp"))
        assert scheme.config.pairing == "ap"

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            make_scheme("none", PCMArray.uniform(4, 10))


class TestBuildArray:
    def test_tail_faithful_default(self, small_scaled):
        array = build_array(small_scaled)
        assert array.n_pages == small_scaled.n_pages
        # Blom's plotting position for the weakest of the reference pages.
        population = small_scaled.reference.n_pages
        expected_min = small_scaled.endurance_mean * (
            1.0
            + small_scaled.endurance_sigma_fraction
            * scipy_stats.norm.ppf(0.625 / (population + 0.25))
        )
        assert array.endurance.min() == pytest.approx(expected_min, rel=0.05)

    def test_plain_sampling(self):
        scaled = ScaledArrayConfig(n_pages=128, endurance_mean=1536.0, tail_faithful=False)
        array = build_array(scaled)
        # Without tail pinning the minimum of 128 draws stays well above
        # the 8.4M-population minimum (~0.42 of the mean).
        assert array.endurance.min() > 0.5 * scaled.endurance_mean

    def test_deterministic_per_seed(self, small_scaled):
        a = build_array(small_scaled)
        b = build_array(small_scaled)
        assert (a.endurance == b.endurance).all()


class TestMeasureHelpers:
    def test_attack_lifetime(self, small_scaled):
        result = measure_attack_lifetime("nowl", "repeat", scaled=small_scaled)
        assert result.failed
        assert result.scheme == "nowl"
        assert result.workload == "repeat"

    def test_trace_lifetime(self, small_scaled):
        pages = np.arange(5000) % small_scaled.n_pages
        trace = Trace(np.full(pages.size, OP_WRITE), pages, name="sequential")
        result = measure_trace_lifetime("sr", trace, scaled=small_scaled)
        assert result.failed
        assert 0.2 < result.lifetime_fraction < 0.6

    def test_scheme_kwargs_forwarded(self, small_scaled):
        config = TWLConfig(toss_up_interval=4)
        result = measure_attack_lifetime(
            "twl_swp",
            "repeat",
            scaled=small_scaled,
            scheme_kwargs={"config": config},
        )
        assert result.failed

    def test_startgap_logical_space_respected(self, small_scaled):
        # Start-Gap exposes one page less; the attack must stay inside.
        result = measure_attack_lifetime("startgap", "scan", scaled=small_scaled)
        assert result.failed
