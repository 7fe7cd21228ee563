"""Edge-case coverage across modules."""

import numpy as np
import pytest

from repro.attacks.inconsistent import InconsistentWriteAttack
from repro.attacks.scan import ScanWriteAttack
from repro.engine import SimulationEngine
from repro.pcm.array import PCMArray
from repro.sim.drivers import AttackDriver
from repro.traces.request import OP_READ, OP_WRITE
from repro.traces.trace import Trace
from repro.wearlevel.nowl import NoWearLeveling


class TestDriverEdges:
    def test_negative_quota_rejected(self):
        array = PCMArray.uniform(4, 100)
        driver = AttackDriver(ScanWriteAttack(4))
        with pytest.raises(ValueError):
            SimulationEngine(NoWearLeveling(array), driver).drive(-1)
        with pytest.raises(ValueError):
            driver.next_batch(-1)

    def test_zero_quota_noop(self):
        array = PCMArray.uniform(4, 100)
        attack = InconsistentWriteAttack(4)
        engine = SimulationEngine(NoWearLeveling(array), AttackDriver(attack))
        assert engine.drive(0) == 0
        assert array.total_writes == 0
        assert attack.writes_emitted == 0


class TestTraceEdges:
    def test_reads_only_trace_histogram_is_empty(self):
        trace = Trace(
            np.array([OP_READ, OP_READ], dtype=np.uint8),
            np.array([1, 2], dtype=np.int64),
        )
        histogram = np.bincount(trace.write_pages(), minlength=4)
        assert histogram.sum() == 0

    def test_write_fraction_zero(self):
        trace = Trace(
            np.array([OP_READ], dtype=np.uint8), np.array([0], dtype=np.int64)
        )
        assert trace.write_fraction == 0.0
        assert list(trace.write_pages()) == []

    def test_repr_mentions_name(self):
        assert "demo" in repr(Trace(np.full(1, OP_WRITE), [0], name="demo"))


class TestArrayEdges:
    def test_wear_fraction_is_float(self):
        array = PCMArray.uniform(2, 7)
        array.write(0)
        fractions = array.wear_fraction()
        assert fractions.dtype == np.float64
        assert fractions[0] == pytest.approx(1 / 7)

    def test_write_counts_is_copy(self):
        array = PCMArray.uniform(2, 10)
        counts = array.write_counts()
        counts[0] = 99
        assert array.page_writes(0) == 0

    def test_endurance_copy_on_init(self):
        source = np.array([10, 20])
        array = PCMArray(source)
        source[0] = 999
        assert array.endurance[0] == 10


class TestConfigEdges:
    def test_timing_read_write_distinct(self):
        from repro.config import TimingConfig

        timing = TimingConfig()
        assert timing.read_cycles < timing.write_cycles
