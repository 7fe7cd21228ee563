"""Sub-cell recovery: crash-consistent snapshot/restore bit-identity.

The contract under test (``docs/robustness.md``): a run killed at an
arbitrary demand index and resumed from its last snapshot produces a
:class:`~repro.sim.lifetime.LifetimeResult` bit-identical to the
uninterrupted run — for **every** registered scheme, under attacks and
under the streamed FTL workload, with and without soft-error injection.
Snapshot *emission* must be inert (a cadenced run equals a plain run),
and the container format must fail loudly on any corruption instead of
resuming from garbage.

The crash here is simulated in-process (drive partway, emit, abandon
the engine); the real-SIGKILL integration — fault-plan ``kill`` mode
through the process pool and the resume directory — lives in
``tests/test_resilience.py``.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.config import ScaledArrayConfig, SoftErrorConfig
from repro.attacks.registry import make_attack
from repro.engine import (
    SNAPSHOT_MAGIC,
    SimulationEngine,
    SnapshotPlan,
    discard_snapshot,
    read_snapshot,
    write_snapshot,
)
from repro.errors import ConfigError, SimulationError, SnapshotError
from repro.exec import attack_cell, cell_snapshot_path, run_cell, stream_cell
from repro.sim.drivers import AttackDriver, StreamDriver
from repro.sim.runner import (
    build_array,
    measure_attack_lifetime,
    measure_stream_lifetime,
)
from repro.traces.registry import make_stream
from repro.wearlevel.registry import make_scheme, scheme_names

SCALED = ScaledArrayConfig(n_pages=256, endurance_mean=1024.0)
SEED = 11
EVERY = 3000
#: Streamed runs are capped (the FTL generator is endless at this
#: scale for the strong schemes); identity is asserted on the capped
#: outcome either way.
STREAM_CAP = 120_000
CHUNK = 512


def _ftl_factory(n_pages: int):
    return make_stream("ftl", n_pages, seed=SEED, chunk_size=CHUNK)


def _attack_engine(
    scheme_name: str,
    plan: SnapshotPlan,
    attack_name: str = "scan",
    batch_size: int = 16,
) -> SimulationEngine:
    """A fresh attack engine matching ``measure_attack_lifetime``."""
    array = build_array(SCALED)
    scheme = make_scheme(scheme_name, array, seed=SEED)
    attack = make_attack(attack_name, scheme.logical_pages, seed=SEED)
    return SimulationEngine(
        scheme, AttackDriver(attack), batch_size=batch_size, snapshots=plan
    )


def _stream_engine(scheme_name: str, plan: SnapshotPlan) -> SimulationEngine:
    """A fresh streamed-FTL engine matching ``measure_stream_lifetime``."""
    array = build_array(SCALED)
    scheme = make_scheme(scheme_name, array, seed=SEED)
    stream = _ftl_factory(scheme.logical_pages)
    driver = StreamDriver(stream, scheme.logical_pages)
    return SimulationEngine(scheme, driver, batch_size=16, snapshots=plan)


class TestSnapshotContainer:
    def _state(self):
        return {
            "counters": np.arange(10, dtype=np.int64),
            "wear": np.linspace(0.0, 1.0, 7),
            "nested": {"gap": 3, "flags": [True, None, "x"]},
        }

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "s.snap")
        write_snapshot(path, self._state())
        state = read_snapshot(path)
        assert state["nested"] == {"gap": 3, "flags": [True, None, "x"]}
        assert np.array_equal(state["counters"], np.arange(10, dtype=np.int64))
        assert state["counters"].dtype == np.int64
        assert np.array_equal(state["wear"], np.linspace(0.0, 1.0, 7))

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "s.snap")
        with open(path, "wb") as handle:
            handle.write(b"NOTASNAP" + b"\x00" * 64)
        with pytest.raises(SnapshotError, match="bad magic"):
            read_snapshot(path)

    def test_truncation_rejected(self, tmp_path):
        path = str(tmp_path / "s.snap")
        write_snapshot(path, self._state())
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[:-5])
        with pytest.raises(SnapshotError, match="truncated"):
            read_snapshot(path)

    def test_corruption_fails_crc(self, tmp_path):
        path = str(tmp_path / "s.snap")
        write_snapshot(path, self._state())
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        blob[len(SNAPSHOT_MAGIC) + 25] ^= 0xFF  # flip a header byte
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(SnapshotError, match="CRC"):
            read_snapshot(path)

    def test_missing_file_is_a_snapshot_error(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            read_snapshot(str(tmp_path / "absent.snap"))

    def test_unserializable_state_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot serialize"):
            write_snapshot(str(tmp_path / "s.snap"), {"bad": object()})

    def test_discard_removes_snapshot_and_temps(self, tmp_path):
        path = str(tmp_path / "cell.snap")
        write_snapshot(path, self._state())
        for pid in (111, 222):
            with open(f"{path}.{pid}.tmp", "wb") as handle:
                handle.write(b"partial")
        discard_snapshot(path)
        assert os.listdir(str(tmp_path)) == []
        discard_snapshot(path)  # idempotent on missing files

    def test_plan_validation(self, tmp_path):
        with pytest.raises(SnapshotError):
            SnapshotPlan(path="")
        with pytest.raises(SnapshotError):
            SnapshotPlan(path="x.snap", every=0)


class TestEmissionInert:
    """A cadenced run computes exactly what a plain run computes."""

    @pytest.mark.parametrize("scheme_name", scheme_names())
    def test_attack_cadence_is_inert(self, scheme_name, tmp_path):
        plain = measure_attack_lifetime(
            scheme_name, "scan", scaled=SCALED, seed=SEED, batch_size=16
        )
        plan = SnapshotPlan(
            path=str(tmp_path / "cell.snap"), every=EVERY, resume=False
        )
        cadenced = measure_attack_lifetime(
            scheme_name,
            "scan",
            scaled=SCALED,
            seed=SEED,
            batch_size=16,
            snapshots=plan,
        )
        assert cadenced == plain
        assert os.path.exists(plan.path)  # it did emit


class TestKillResumeIdentity:
    """Crash at an arbitrary demand index; resume; compare bit-exactly."""

    def _crash_and_resume(
        self, scheme_name, build_engine, measure, tmp_path, every=EVERY
    ):
        path = str(tmp_path / "cell.snap")
        emit_plan = SnapshotPlan(path=path, every=every, resume=False)
        dying = build_engine(scheme_name, emit_plan)
        # "Crash" partway between two snapshot boundaries: the last
        # durable state is the every*2 boundary, and everything the
        # engine did after it is lost — exactly what SIGKILL leaves.
        dying.drive(every * 2 + 517)
        assert dying.snapshots_written >= 2
        saved = read_snapshot(path)
        assert saved["demand_served"] == (every * 2 + 517) // every * every
        resume_plan = SnapshotPlan(path=path, every=every, resume=True)
        return measure(scheme_name, snapshots=resume_plan)

    def _measure_attack(self, scheme_name, snapshots=None):
        return measure_attack_lifetime(
            scheme_name,
            "scan",
            scaled=SCALED,
            seed=SEED,
            batch_size=16,
            snapshots=snapshots,
        )

    def _measure_stream(self, scheme_name, snapshots=None):
        return measure_stream_lifetime(
            scheme_name,
            _ftl_factory,
            scaled=SCALED,
            seed=SEED,
            batch_size=16,
            max_demand=STREAM_CAP,
            require_failure=False,
            snapshots=snapshots,
        )

    @pytest.mark.parametrize("scheme_name", scheme_names())
    def test_attack_resume_is_bit_identical(self, scheme_name, tmp_path):
        clean = self._measure_attack(scheme_name)
        resumed = self._crash_and_resume(
            scheme_name, _attack_engine, self._measure_attack, tmp_path
        )
        assert resumed == clean

    @pytest.mark.parametrize("scheme_name", scheme_names())
    def test_adaptive_attack_resume_is_bit_identical(self, scheme_name, tmp_path):
        """The inconsistent attack's own state (pass schedule, swap
        detector, pending flip) survives a resume on a batched engine,
        which serves the attack in segments that end at its flips.

        Covered: crashes between snapshots, at a cadence of 1000 writes
        and at one of 37 writes, shorter than most segments, which cuts
        them; states captured where a kill point stops the engine,
        mid-warmup and mid-segment; and a state whose pass schedule is a
        list of ints, the format older snapshots hold.  Every crash
        lands before the quickest death."""

        def build(name, plan):
            return _attack_engine(name, plan, "inconsistent", batch_size=4096)

        def measure(name, snapshots=None):
            return measure_attack_lifetime(
                name,
                "inconsistent",
                scaled=SCALED,
                seed=SEED,
                batch_size=4096,
                snapshots=snapshots,
            )

        clean = measure(scheme_name)
        for every in (1000, 37):
            directory = tmp_path / str(every)
            directory.mkdir()
            resumed = self._crash_and_resume(
                scheme_name, build, measure, directory, every=every
            )
            assert resumed == clean

        path = str(tmp_path / "killed.snap")
        resume = SnapshotPlan(path=path, every=1000, resume=True)
        mid_segment = []
        for kill_at in (5, 1234, 2517):
            dying = build(scheme_name, None)
            dying.drive(kill_at)
            attack = dying.driver.attack
            mid_segment.append(attack._writes_since_flip > 0)
            write_snapshot(path, dying.snapshot_state())
            assert measure(scheme_name, snapshots=resume) == clean
        assert all(mid_segment)

        state = dying.snapshot_state()
        saved_attack = state["driver"]["attack"]["attack"]
        saved_attack["pass_schedule"] = [
            int(page) for page in saved_attack["pass_schedule"]
        ]
        write_snapshot(path, state)
        assert measure(scheme_name, snapshots=resume) == clean

    @pytest.mark.parametrize("scheme_name", scheme_names())
    def test_streamed_ftl_resume_is_bit_identical(self, scheme_name, tmp_path):
        clean = self._measure_stream(scheme_name)
        resumed = self._crash_and_resume(
            scheme_name, _stream_engine, self._measure_stream, tmp_path
        )
        assert resumed == clean

    @pytest.mark.parametrize("scheme_name", ("twl", "sr", "bwl"))
    def test_resume_with_soft_errors(self, scheme_name, tmp_path):
        """Restore must rebuild the injector against the fresh scheme."""
        faults = SoftErrorConfig(rate=2e-4)

        def build(name, plan):
            array = build_array(SCALED)
            scheme = make_scheme(name, array, seed=SEED)
            from repro.pcm.softerrors import SoftErrorInjector

            injector = SoftErrorInjector(scheme, faults)
            attack = make_attack("scan", scheme.logical_pages, seed=SEED)
            return SimulationEngine(
                scheme,
                AttackDriver(attack),
                batch_size=16,
                soft_errors=injector,
                snapshots=plan,
            )

        def measure(name, snapshots=None):
            return measure_attack_lifetime(
                name,
                "scan",
                scaled=SCALED,
                seed=SEED,
                batch_size=16,
                soft_errors=faults,
                snapshots=snapshots,
            )

        clean = measure(scheme_name)
        resumed = self._crash_and_resume(scheme_name, build, measure, tmp_path)
        assert resumed == clean

    def test_injector_mismatch_is_rejected(self, tmp_path):
        path = str(tmp_path / "cell.snap")
        plain = _attack_engine("twl", SnapshotPlan(path=path, resume=False))
        plain.drive(100)
        write_snapshot(path, plain.snapshot_state())
        faulted = measure_attack_lifetime  # resumed run *with* injector
        with pytest.raises(SnapshotError, match="mismatch"):
            faulted(
                "twl",
                "scan",
                scaled=SCALED,
                seed=SEED,
                batch_size=16,
                soft_errors=SoftErrorConfig(rate=2e-4),
                snapshots=SnapshotPlan(path=path, resume=True),
            )


class TestResumePolicy:
    def test_lenient_resume_falls_back_to_fresh_run(self, tmp_path):
        clean = measure_attack_lifetime(
            "nowl", "scan", scaled=SCALED, seed=SEED, batch_size=16
        )
        path = str(tmp_path / "cell.snap")
        with open(path, "wb") as handle:
            handle.write(b"garbage, not a snapshot")
        result = measure_attack_lifetime(
            "nowl",
            "scan",
            scaled=SCALED,
            seed=SEED,
            batch_size=16,
            snapshots=SnapshotPlan(path=path, resume=True),
        )
        assert result == clean

    def test_emit_without_plan_is_an_error(self):
        engine = _attack_engine("nowl", None)
        with pytest.raises(SimulationError, match="no snapshot plan"):
            engine.emit_snapshot()


class TestCellCheckpointing:
    """The executor face: fingerprint-named snapshots, spent on success."""

    def _cell(self, tmp_path, **extra):
        cell = attack_cell("sr", "scan", scaled=SCALED, seed=SEED)
        return dataclasses.replace(
            cell,
            batch_size=16,
            snapshot_every=EVERY,
            snapshot_dir=str(tmp_path / "snaps"),
            **extra,
        )

    def test_snapshot_path_requires_both_knobs(self, tmp_path):
        plain = attack_cell("sr", "scan", scaled=SCALED, seed=SEED)
        assert cell_snapshot_path(plain) is None
        assert cell_snapshot_path(
            dataclasses.replace(plain, snapshot_every=EVERY)
        ) is None
        armed = self._cell(tmp_path)
        path = cell_snapshot_path(armed)
        assert path is not None and path.endswith(".snap")
        # Knob changes must not orphan the snapshot (fingerprint-named).
        assert path == cell_snapshot_path(
            dataclasses.replace(armed, batch_size=1024, label="retry")
        )

    def _oracle(self):
        """The plain cell on the per-write oracle path (batch 1)."""
        cell = attack_cell("sr", "scan", scaled=SCALED, seed=SEED)
        return run_cell(dataclasses.replace(cell, batch_size=1))

    def test_checkpointed_cell_matches_plain_and_cleans_up(self, tmp_path):
        plain = self._oracle()
        cell = self._cell(tmp_path)
        assert run_cell(cell) == plain
        # The run completed: its snapshot is spent, the directory clean.
        assert os.listdir(cell.snapshot_dir) == []

    def test_cell_resumes_from_crashed_state(self, tmp_path):
        cell = self._cell(tmp_path)
        plain = self._oracle()
        # Plant the crashed run's snapshot exactly where the cell looks.
        os.makedirs(cell.snapshot_dir, exist_ok=True)
        path = cell_snapshot_path(cell)
        dying = _attack_engine(
            "sr", SnapshotPlan(path=path, every=EVERY, resume=False)
        )
        dying.drive(EVERY + 200)
        assert read_snapshot(path)["demand_served"] == EVERY
        assert run_cell(cell) == plain
        assert os.listdir(cell.snapshot_dir) == []

    def test_negative_cadence_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            dataclasses.replace(
                attack_cell("sr", "scan", scaled=SCALED), snapshot_every=-1
            )

    def test_stream_cell_checkpointing(self, tmp_path):
        base = stream_cell(
            "startgap",
            stream="ftl",
            scaled=SCALED,
            seed=SEED,
            chunk_size=CHUNK,
        )
        plain = run_cell(dataclasses.replace(base, batch_size=1))
        # Checkpointed on the default (batched) path, checked against
        # the per-write oracle.
        cell = dataclasses.replace(
            base,
            snapshot_every=EVERY,
            snapshot_dir=str(tmp_path / "snaps"),
        )
        assert run_cell(cell) == plain
        assert os.listdir(cell.snapshot_dir) == []
