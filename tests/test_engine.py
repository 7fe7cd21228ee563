"""Tests for the composable simulation engine (repro.engine)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.registry import make_attack
from repro.config import ScaledArrayConfig
from repro.engine import (
    BatchSnapshot,
    EngineObserver,
    SchemeOverheadsObserver,
    SimulationEngine,
    WearTimelineObserver,
)
from repro.errors import SimulationError
from repro.pcm.array import PCMArray
from repro.sim import measure_scheme_overheads
from repro.sim.drivers import AttackDriver
from repro.wearlevel.registry import make_scheme


def _engine(scheme_name="nowl", attack_name="scan", n_pages=64,
            endurance=500, **kwargs):
    array = PCMArray.uniform(n_pages, endurance)
    scheme = make_scheme(scheme_name, array, seed=3)
    attack = make_attack(attack_name, scheme.logical_pages, seed=3)
    return SimulationEngine(scheme, AttackDriver(attack), **kwargs)


class TestConstruction:
    def test_rejects_non_positive_batch_size(self):
        with pytest.raises(SimulationError, match="batch size"):
            _engine(batch_size=0)
        with pytest.raises(SimulationError, match="batch size"):
            _engine(batch_size=-4)

    def test_repr_names_scheme_and_workload(self):
        engine = _engine(batch_size=8)
        text = repr(engine)
        assert "nowl" in text and "scan" in text and "batch_size=8" in text


class TestDrive:
    def test_serves_exactly_the_quota(self):
        engine = _engine(endurance=10**6)
        assert engine.drive(1000) == 1000
        assert engine.demand_served == 1000
        assert engine.scheme.demand_writes == 1000

    def test_stops_at_failure(self):
        engine = _engine(n_pages=16, endurance=50)
        served = engine.drive(10**6)
        assert engine.scheme.array.failed
        assert served < 10**6
        assert engine.demand_served == served

    def test_batched_drive_respects_quota(self):
        engine = _engine(endurance=10**6, batch_size=64)
        assert engine.drive(100) == 100  # quota not a batch multiple
        assert engine.scheme.demand_writes == 100

    def test_rejects_negative_quota(self):
        with pytest.raises(ValueError):
            _engine().drive(-1)

    def test_simulated_time_accumulates_device_writes(self):
        engine = _engine(endurance=10**6)
        engine.drive(500)
        write_cycles = float(engine.timing.write_cycles)
        expected = write_cycles * engine.scheme.array.total_writes
        assert engine.simulated_cycles == pytest.approx(expected)
        assert engine.simulated_seconds() == pytest.approx(
            engine.timing.cycles_to_seconds(expected)
        )


class TestRun:
    def test_run_raises_on_prefailed_array(self):
        engine = _engine(n_pages=16, endurance=50)
        engine.run(10**6)
        fresh = SimulationEngine(engine.scheme, engine.driver)
        with pytest.raises(SimulationError, match="already failed"):
            fresh.run(10)

    def test_require_failure_raises_when_quota_too_small(self):
        engine = _engine(endurance=10**6)
        with pytest.raises(SimulationError, match="no failure within"):
            engine.run(100, require_failure=True)

    def test_outcome_fields(self):
        engine = _engine(n_pages=16, endurance=50)
        outcome = engine.run(10**6)
        assert outcome.failed
        assert outcome.failure is not None
        assert outcome.demand_writes == engine.demand_served
        assert outcome.device_writes == engine.scheme.array.total_writes
        assert outcome.batches == engine.batches


class _Recorder(EngineObserver):
    def __init__(self):
        self.started = 0
        self.ended = 0
        self.snapshots = []

    def on_run_start(self, engine):
        self.started += 1

    def on_batch(self, snapshot):
        self.snapshots.append(snapshot)

    def on_run_end(self, engine, outcome):
        self.ended += 1
        self.outcome = outcome


class TestObservers:
    def test_hooks_fire_in_order(self):
        recorder = _Recorder()
        engine = _engine(n_pages=16, endurance=50, batch_size=32,
                         observers=(recorder,))
        engine.run(10**6)
        assert recorder.started == 1
        assert recorder.ended == 1
        assert recorder.snapshots, "per-batch hook never fired"
        assert recorder.outcome.failed

    def test_snapshot_counters_are_cumulative(self):
        recorder = _Recorder()
        engine = _engine(endurance=10**6, batch_size=100,
                         observers=(recorder,))
        engine.drive(300)
        demands = [s.demand_writes for s in recorder.snapshots]
        assert demands == [100, 200, 300]
        assert [s.index for s in recorder.snapshots] == [0, 1, 2]
        assert all(isinstance(s, BatchSnapshot) for s in recorder.snapshots)

    def test_snapshot_wear_access(self):
        recorder = _Recorder()
        engine = _engine(endurance=10**6, batch_size=100,
                         observers=(recorder,))
        engine.drive(100)
        snapshot = recorder.snapshots[-1]
        assert snapshot.wear_counts().sum() == snapshot.device_writes
        assert snapshot.wear_fraction().max() <= 1.0
        assert "demand_writes" in snapshot.scheme_stats()

    def test_add_observer_after_construction(self):
        engine = _engine(endurance=10**6, batch_size=50)
        recorder = _Recorder()
        engine.add_observer(recorder)
        engine.drive(100)
        assert recorder.snapshots

    def test_wear_timeline_observer_thins_samples(self):
        timeline = WearTimelineObserver(every=2)
        engine = _engine(endurance=10**6, batch_size=10,
                         observers=(timeline,))
        engine.drive(100)  # 10 batches -> indices 0,2,4,6,8 sampled
        assert len(timeline.samples) == 5
        demand, wear = timeline.samples[0]
        assert demand == 10
        assert isinstance(wear, np.ndarray)

    def test_wear_timeline_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            WearTimelineObserver(every=0)

    def test_wear_timeline_samples_the_failing_step(self):
        # Steps of 10 writes with a stride of 3 sample indices 0 and 3;
        # the repeat attack kills a 50-write page in step 4, off the
        # stride, and that step must still leave a final sample.
        timeline = WearTimelineObserver(every=3)
        engine = _engine(attack_name="repeat", n_pages=4, endurance=50,
                         batch_size=10, observers=(timeline,))
        outcome = engine.run(10_000)
        assert outcome.failed
        assert outcome.batches == 5
        assert [demand for demand, _ in timeline.samples] == [10, 40, 50]
        assert timeline.samples[-1][1].max() >= 1.0

    def test_overheads_observer_matches_measure_function(self):
        observer = SchemeOverheadsObserver()
        engine = _engine("twl", endurance=10**7, observers=(observer,))
        engine.run(5000)
        array = PCMArray.uniform(64, 10**7)
        scheme = make_scheme("twl", array, seed=3)
        attack = make_attack("scan", scheme.logical_pages, seed=3)
        direct = measure_scheme_overheads(scheme, AttackDriver(attack), 5000)
        assert observer.overheads == direct


class _FlakyObserver(EngineObserver):
    def __init__(self, exc=RuntimeError("observer boom")):
        self.calls = 0
        self.exc = exc

    def on_batch(self, snapshot):
        self.calls += 1
        raise self.exc


class TestObserverDetach:
    """A broken metric observer degrades the run; it never aborts it."""

    def test_flaky_observer_detached_with_warning(self):
        flaky = _FlakyObserver()
        recorder = _Recorder()
        engine = _engine(endurance=10**6, batch_size=50,
                         observers=(flaky, recorder))
        with pytest.warns(RuntimeWarning, match="detached"):
            engine.drive(500)
        # Fired once, then detached; the healthy observer kept running.
        assert flaky.calls == 1
        assert len(recorder.snapshots) == 10

    def test_detached_observer_does_not_change_results(self):
        plain = _engine(n_pages=16, endurance=50)
        plain_outcome = plain.run(10**6)
        flaky = _engine(n_pages=16, endurance=50,
                        observers=(_FlakyObserver(),))
        with pytest.warns(RuntimeWarning):
            flaky_outcome = flaky.run(10**6)
        assert flaky_outcome == plain_outcome

    def test_critical_observer_propagates(self):
        flaky = _FlakyObserver()
        flaky.critical = True
        engine = _engine(endurance=10**6, observers=(flaky,))
        with pytest.raises(RuntimeError, match="observer boom"):
            engine.drive(500)
        assert flaky.calls == 1

    def test_flaky_run_end_hook_also_detaches(self):
        class EndFlaky(EngineObserver):
            def on_run_end(self, engine, outcome):
                raise ValueError("end boom")

        engine = _engine(n_pages=16, endurance=50,
                         observers=(EndFlaky(),))
        with pytest.warns(RuntimeWarning, match="on_run_end"):
            outcome = engine.run(10**6)
        assert outcome.failed


class TestRunnerIntegration:
    """The sim layer is a thin configuration of the engine."""

    def test_lifetime_batch_sizes_identical(self):
        from repro.sim import measure_attack_lifetime

        scaled = ScaledArrayConfig(n_pages=64, endurance_mean=768.0)
        serial = measure_attack_lifetime("startgap", "repeat", scaled=scaled)
        batched = measure_attack_lifetime(
            "startgap", "repeat", scaled=scaled, batch_size=256
        )
        assert serial == batched
