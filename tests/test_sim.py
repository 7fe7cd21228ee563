"""Tests for drivers, run-to-failure and the lifetime record."""

import numpy as np
import pytest

from repro.attacks.inconsistent import InconsistentWriteAttack
from repro.attacks.repeat import RepeatWriteAttack
from repro.attacks.scan import ScanWriteAttack
from repro.engine import SimulationEngine
from repro.errors import SimulationError
from repro.pcm.array import PCMArray
from repro.sim.drivers import AttackDriver, StreamDriver
from repro.sim.lifetime import LifetimeResult, run_to_failure
from repro.sim.metrics import measure_scheme_overheads
from repro.traces.trace import Trace
from repro.wearlevel.nowl import NoWearLeveling
from repro.wearlevel.security_refresh import SecurityRefresh


class TestTraceDriver:
    """A finite trace looped by ``StreamDriver(trace.stream(), n)``."""

    @staticmethod
    def _engine(scheme, pages, n_pages=8):
        driver = StreamDriver(Trace.writes_only(pages).stream(), n_pages)
        return SimulationEngine(scheme, driver)

    def test_loops_trace(self):
        array = PCMArray.uniform(8, 10**6)
        engine = self._engine(NoWearLeveling(array), [0, 1, 2])
        served = engine.drive(10)
        assert served == 10
        assert engine.driver.loops_completed == 3
        assert array.page_writes(0) == 4

    def test_stops_on_failure(self):
        array = PCMArray.uniform(4, 5)
        engine = self._engine(NoWearLeveling(array), [0], n_pages=4)
        served = engine.drive(100)
        assert served == 5
        assert array.has_failure

    def test_position_persists_between_calls(self):
        array = PCMArray.uniform(8, 10**6)
        engine = self._engine(NoWearLeveling(array), [0, 1, 2, 3])
        engine.drive(2)
        engine.drive(2)
        assert array.page_writes(3) == 1

    def test_rejects_trace_outside_space(self):
        engine = self._engine(NoWearLeveling(PCMArray.uniform(8, 100)), [100])
        with pytest.raises(SimulationError, match="touches page 100"):
            engine.drive(1)

    def test_rejects_readonly_trace(self):
        trace = Trace(np.array([0], dtype=np.uint8), np.array([1], dtype=np.int64))
        driver = StreamDriver(trace.stream(), 8)
        with pytest.raises(SimulationError, match="contains no writes"):
            driver.next_batch(1)


class TestAttackDriver:
    def test_drives_attack(self):
        array = PCMArray.uniform(8, 10**6)
        engine = SimulationEngine(NoWearLeveling(array), AttackDriver(ScanWriteAttack(8)))
        assert engine.drive(16) == 16
        assert (array.write_counts() == 2).all()

    def test_feedback_reaches_attack(self):
        array = PCMArray.uniform(64, 10**6)
        scheme = SecurityRefresh(array, seed=1)
        attack = InconsistentWriteAttack(64)
        SimulationEngine(scheme, AttackDriver(attack), batch_size=64).drive(1000)
        assert attack.writes_emitted == 1000
        assert attack.detector.detections > 0
        assert attack.reversals > 0

    def test_workload_name(self):
        assert AttackDriver(RepeatWriteAttack(4)).workload_name == "repeat"


class TestRunToFailure:
    def test_result_fields(self):
        array = PCMArray.uniform(4, 100)
        scheme = NoWearLeveling(array)
        result = run_to_failure(scheme, AttackDriver(RepeatWriteAttack(4)))
        assert result.failed
        assert result.scheme == "nowl"
        assert result.workload == "repeat"
        assert result.demand_writes == 100
        assert result.device_writes == 100
        assert result.failure.physical_page == 0
        assert result.estimation == "exact"

    def test_lifetime_fraction(self):
        array = PCMArray.uniform(4, 100)
        scheme = NoWearLeveling(array)
        result = run_to_failure(scheme, AttackDriver(RepeatWriteAttack(4)))
        assert result.lifetime_fraction == pytest.approx(100 / 400)

    def test_cap_raises_without_failure(self):
        array = PCMArray.uniform(4, 10**6)
        scheme = NoWearLeveling(array)
        with pytest.raises(SimulationError):
            run_to_failure(scheme, AttackDriver(ScanWriteAttack(4)), max_demand=100)

    def test_cap_tolerated_when_not_required(self):
        array = PCMArray.uniform(4, 10**6)
        scheme = NoWearLeveling(array)
        result = run_to_failure(
            scheme,
            AttackDriver(ScanWriteAttack(4)),
            max_demand=100,
            require_failure=False,
        )
        assert not result.failed
        assert result.demand_writes == 100

    def test_rejects_failed_array(self):
        array = PCMArray.uniform(2, 1)
        array.write(0)
        scheme = NoWearLeveling(array)
        with pytest.raises(SimulationError):
            run_to_failure(scheme, AttackDriver(RepeatWriteAttack(2)))


class TestLifetimeResultConversions:
    def _result(self, fraction=0.5, n=1000, endurance=1000.0):
        return LifetimeResult(
            scheme="twl",
            workload="scan",
            n_pages=n,
            endurance_mean=endurance,
            demand_writes=int(fraction * n * endurance),
            device_writes=int(fraction * n * endurance),
            failed=True,
            failure=None,
        )

    def test_years_scales_with_fraction(self):
        full = self._result(1.0).years(100.0)
        half = self._result(0.5).years(100.0)
        assert half == pytest.approx(full / 2)

    def test_overhead_ratio(self):
        result = LifetimeResult(
            scheme="x",
            workload="y",
            n_pages=10,
            endurance_mean=10.0,
            demand_writes=100,
            device_writes=120,
            failed=True,
            failure=None,
        )
        assert result.overhead_ratio == pytest.approx(0.2)

    def test_years_at_bytes(self):
        result = self._result(1.0)
        mbps = result.years(100.0)
        direct = result.years_at_bytes_per_second(100e6)
        assert mbps == pytest.approx(direct)


class TestMetrics:
    def test_overheads_measured(self):
        array = PCMArray.uniform(64, 10**9)
        scheme = SecurityRefresh(array, seed=1)
        driver = AttackDriver(ScanWriteAttack(64))
        overheads = measure_scheme_overheads(scheme, driver, 20_000)
        assert overheads.demand_writes == 20_000
        assert overheads.swap_write_ratio == pytest.approx(2 / 128, rel=0.3)

    def test_rejects_zero_writes(self):
        array = PCMArray.uniform(8, 100)
        scheme = NoWearLeveling(array)
        with pytest.raises(ValueError):
            measure_scheme_overheads(scheme, AttackDriver(ScanWriteAttack(8)), 0)
