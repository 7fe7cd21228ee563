"""Tests for fast-forward lifetime estimation."""

import pytest

from repro.attacks.random_attack import RandomWriteAttack
from repro.attacks.scan import ScanWriteAttack
from repro.errors import SimulationError
from repro.pcm.array import PCMArray
from repro.sim.drivers import AttackDriver, TraceDriver
from repro.sim.fastforward import FastForwardConfig, fast_forward_to_failure
from repro.sim.lifetime import run_to_failure
from repro.traces.trace import Trace
from repro.wearlevel.nowl import NoWearLeveling
from repro.wearlevel.security_refresh import SecurityRefresh


def _ff_config():
    return FastForwardConfig(warmup_demand=5_000, window_demand=5_000)


class TestConfigValidation:
    def test_rejects_bad_safety(self):
        with pytest.raises(ValueError):
            FastForwardConfig(jump_safety=1.0)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            FastForwardConfig(window_demand=0)

    def test_rejects_negative_warmup(self):
        with pytest.raises(ValueError):
            FastForwardConfig(warmup_demand=-1)


class TestAgainstExact:
    def _pair(self, scheme_cls, attack_cls, n=64, endurance=200_000):
        results = []
        for estimator in ("exact", "ff"):
            array = PCMArray.uniform(n, endurance)
            scheme = scheme_cls(array) if scheme_cls is NoWearLeveling else scheme_cls(
                array, seed=3
            )
            driver = AttackDriver(attack_cls(n, seed=3) if attack_cls is RandomWriteAttack
                                  else attack_cls(n))
            if estimator == "exact":
                results.append(run_to_failure(scheme, driver))
            else:
                results.append(
                    fast_forward_to_failure(scheme, driver, config=_ff_config())
                )
        return results

    def test_nowl_scan_matches_exact(self):
        exact, ff = self._pair(NoWearLeveling, ScanWriteAttack)
        assert ff.failed
        assert ff.estimation == "fast-forward"
        assert ff.demand_writes == pytest.approx(exact.demand_writes, rel=0.05)

    def test_nowl_random_matches_exact(self):
        # Stochastic streams leave Poisson noise in the measured rates,
        # so fast-forward is approximate (and conservative) here; the
        # deterministic-stream tests above hold the tight bound.
        exact, ff = self._pair(NoWearLeveling, RandomWriteAttack)
        assert ff.demand_writes == pytest.approx(exact.demand_writes, rel=0.2)
        assert ff.demand_writes <= exact.demand_writes * 1.05

    def test_sr_scan_matches_exact(self):
        exact, ff = self._pair(SecurityRefresh, ScanWriteAttack)
        assert ff.demand_writes == pytest.approx(exact.demand_writes, rel=0.1)

    def test_ff_is_faster_in_exact_writes(self):
        # The fast-forward run must simulate far fewer exact writes than
        # the lifetime it reports (that's the point); the attack only
        # counts exactly-driven writes because jumps bypass the driver.
        array = PCMArray.uniform(64, 500_000)
        scheme = NoWearLeveling(array)
        attack = ScanWriteAttack(64)
        result = fast_forward_to_failure(
            scheme, AttackDriver(attack), config=_ff_config()
        )
        assert result.failed
        assert attack.writes_emitted < result.demand_writes / 3


class TestBulkPath:
    def test_trace_driver_supported(self):
        array = PCMArray.uniform(32, 300_000)
        scheme = NoWearLeveling(array)
        driver = TraceDriver(Trace.writes_only(list(range(32))), 32)
        result = fast_forward_to_failure(scheme, driver, config=_ff_config())
        assert result.failed
        expected = 32 * 300_000
        assert result.demand_writes == pytest.approx(expected, rel=0.05)

    def test_rejects_failed_array(self):
        array = PCMArray.uniform(2, 1)
        array.write(0)
        scheme = NoWearLeveling(array)
        with pytest.raises(SimulationError):
            fast_forward_to_failure(
                scheme, AttackDriver(ScanWriteAttack(2)), config=_ff_config()
            )
