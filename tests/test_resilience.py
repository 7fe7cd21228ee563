"""Fault-tolerant campaign execution, proven by deterministic fault injection.

Every recovery path of the executor is exercised here against
:mod:`repro.exec.faults`, whose injections are deterministic (keyed by
cell fingerprint + an injection seed) and cross the worker spawn
boundary via the ``REPRO_FAULTS`` environment variable:

* transient worker exceptions are retried and the final results are
  bit-identical to a clean serial run;
* a SIGKILL'd worker triggers a pool rebuild (and, past the rebuild
  budget, a halved pool) and the campaign completes, even when a cell
  dies again on the halved pool;
* a cell exceeding the per-cell timeout fails with a
  ``CellExecutionError`` naming it, and under ``keep-going`` does not
  block the remaining cells;
* a killed campaign resumed from its ``--resume`` directory re-runs
  only the unfinished cells and matches the clean run exactly — with
  the cache disabled.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.config import ScaledArrayConfig
from repro.errors import (
    CampaignError,
    CellExecutionError,
    CellTimeoutError,
    ConfigError,
)
from repro.exec import (
    CellCache,
    FailurePolicy,
    FaultPlan,
    attack_cell,
    cell_fingerprint,
    execute_cells,
    run_cells,
)
from repro.exec import executor as executor_module
from repro.exec import policy as policy_module
from repro.exec.cache import encode_result
from repro.exec.faults import (
    FAULTS_ENV,
    FaultInjectionError,
    _claim_injection,
    active_plan,
    maybe_inject,
)
from repro.exec.policy import ON_ERROR_KEEP_GOING, CellFailure, retry_delay
from repro.exec.pool import PoolSupervisor

SCALED = ScaledArrayConfig(n_pages=64, endurance_mean=768.0)


@pytest.fixture
def fast_retry(monkeypatch):
    """Retries in a test skip real backoff sleeping."""
    monkeypatch.setattr(policy_module, "BACKOFF_BASE", 0.0)


def _grid():
    """A 2×2 scheme/attack cell grid, small enough to run in <1 s."""
    return [
        attack_cell(scheme, attack, scaled=SCALED, seed=11)
        for scheme in ("nowl", "sr")
        for attack in ("repeat", "scan")
    ]


def _arm(monkeypatch, tmp_path, **kwargs):
    """Activate a fault plan through the environment (spawn-safe)."""
    kwargs.setdefault("state_dir", str(tmp_path / "fault-state"))
    plan = FaultPlan(**kwargs)
    monkeypatch.setenv(FAULTS_ENV, plan.to_env())
    return plan


class _InterruptAfter:
    """Progress hook raising KeyboardInterrupt after N completed cells."""

    def __init__(self, n: int):
        self.n = n
        self.lines = []

    def __call__(self, line: str) -> None:
        self.lines.append(line)
        if sum(1 for recorded in self.lines if "…" in recorded) >= self.n:
            raise KeyboardInterrupt


class TestFailurePolicy:
    def test_defaults_match_historical_behavior(self):
        policy = FailurePolicy()
        assert policy.max_retries == 0
        assert policy.timeout is None
        assert not policy.keep_going

    def test_validation(self):
        with pytest.raises(ConfigError):
            FailurePolicy(max_retries=-1)
        with pytest.raises(ConfigError):
            FailurePolicy(timeout=0.0)
        with pytest.raises(ConfigError):
            FailurePolicy(on_error="explode")

    def test_retry_delay_is_deterministic_and_grows(self):
        first = retry_delay("fp", 1)
        assert first == retry_delay("fp", 1)
        assert first != retry_delay("other", 1)
        # Jitter is bounded, so the exponential trend survives it.
        assert retry_delay("fp", 3) > retry_delay("fp", 1)

    @pytest.mark.usefixtures("fast_retry")
    def test_zero_base_disables_sleeping(self):
        assert retry_delay("fp", 5) == 0.0


class TestFaultPlan:
    def test_selection_is_deterministic(self):
        plan = FaultPlan(mode="transient", rate=0.5, seed=3)
        fingerprints = [cell_fingerprint(cell) for cell in _grid()]
        first = [plan.selects(fp) for fp in fingerprints]
        assert first == [plan.selects(fp) for fp in fingerprints]
        assert all(FaultPlan(mode="transient", rate=1.0).selects(fp) for fp in fingerprints)
        assert not any(FaultPlan(mode="transient", rate=0.0).selects(fp) for fp in fingerprints)

    def test_env_round_trip(self, monkeypatch, tmp_path):
        armed = _arm(monkeypatch, tmp_path, mode="transient", times=2, max_total=5)
        assert active_plan() == armed

    def test_inactive_without_env(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert active_plan() is None
        maybe_inject(_grid()[0])  # no-op

    def test_bad_plan_is_a_config_error(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "{not json")
        with pytest.raises(ConfigError):
            active_plan()
        monkeypatch.setenv(FAULTS_ENV, json.dumps({"mode": "nope"}))
        with pytest.raises(ConfigError):
            active_plan()

    def test_budgets_claimed_atomically_across_instances(self, tmp_path):
        plan = FaultPlan(mode="transient", times=2, state_dir=str(tmp_path))
        assert _claim_injection(plan, "fp")
        assert _claim_injection(plan, "fp")
        assert not _claim_injection(plan, "fp")
        # A fresh plan object (fresh process, same state_dir) sees the
        # same exhausted budget — this is what survives SIGKILL.
        again = FaultPlan(mode="transient", times=2, state_dir=str(tmp_path))
        assert not _claim_injection(again, "fp")

    def test_transient_injection_raises_once_per_budget(self, monkeypatch, tmp_path):
        _arm(monkeypatch, tmp_path, mode="transient", times=1)
        cell = _grid()[0]
        with pytest.raises(FaultInjectionError):
            maybe_inject(cell)
        maybe_inject(cell)  # budget spent: clean


class TestTransientRetry:
    """Acceptance (a): retried campaigns are bit-identical to clean runs."""

    @pytest.mark.usefixtures("fast_retry")
    def test_parallel_retry_identity(self, monkeypatch, tmp_path):
        cells = _grid()
        clean = run_cells(cells, jobs=1)
        _arm(monkeypatch, tmp_path, mode="transient", rate=1.0, times=1)
        policy = FailurePolicy(max_retries=2)
        assert run_cells(cells, jobs=2, policy=policy) == clean

    @pytest.mark.usefixtures("fast_retry")
    def test_serial_retry_identity(self, monkeypatch, tmp_path):
        cells = _grid()
        clean = run_cells(cells, jobs=1)
        _arm(monkeypatch, tmp_path, mode="transient", rate=1.0, times=1)
        policy = FailurePolicy(max_retries=1)
        assert run_cells(cells, jobs=1, policy=policy) == clean

    @pytest.mark.usefixtures("fast_retry")
    def test_exhausted_budget_fails_fast(self, monkeypatch, tmp_path):
        _arm(monkeypatch, tmp_path, mode="transient", rate=1.0, times=10)
        policy = FailurePolicy(max_retries=1)
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells(_grid(), jobs=1, policy=policy)
        assert "injected transient fault" in str(excinfo.value)

    @pytest.mark.usefixtures("fast_retry")
    def test_keep_going_finishes_siblings_and_summarizes(self, monkeypatch, tmp_path):
        cells = _grid()
        clean = run_cells(cells, jobs=1)
        # Enough injections to exhaust one cell's retries, no more:
        # serially, cell 0 burns the whole global budget and fails;
        # cells 1..3 find it empty and run clean.
        _arm(monkeypatch, tmp_path, mode="transient", rate=1.0, times=10, max_total=2)
        policy = FailurePolicy(max_retries=1, on_error=ON_ERROR_KEEP_GOING)
        cache = CellCache(str(tmp_path / "cache"))
        with pytest.raises(CampaignError) as excinfo:
            run_cells(cells, jobs=1, cache=cache, policy=policy)
        failures = excinfo.value.failures
        assert len(failures) == 1
        assert isinstance(failures[0], CellFailure)
        assert failures[0].cell == cells[0].describe()
        assert failures[0].attempts == 2
        # The siblings' results were kept (cached), so a repaired rerun
        # only pays for the failed cell.
        assert len(cache) == len(cells) - 1
        rerun = run_cells(cells, jobs=1, cache=CellCache(str(tmp_path / "cache")))
        assert rerun == clean


class TestLostResults:
    """Satellite: finished siblings are cached even when one cell fails."""

    def test_finished_siblings_cached_on_fail_fast(self, tmp_path):
        good = _grid()
        cells = [attack_cell("no_such_scheme", "scan", scaled=SCALED, seed=9)] + good
        cache = CellCache(str(tmp_path))
        with pytest.raises(CellExecutionError):
            run_cells(cells, jobs=2, cache=cache)
        # The bad cell fails almost instantly; every good cell that the
        # pool finished (including in-flight ones drained on abort)
        # must be in the cache.  All four run concurrently-ish, so all
        # four results are banked.
        assert len(cache) == len(good)


class TestTimeout:
    """Acceptance (c): per-cell wall-clock budget."""

    def test_timeout_names_cell_fail_fast(self, monkeypatch, tmp_path):
        cell = _grid()[0]
        _arm(monkeypatch, tmp_path, mode="hang", rate=1.0, times=1, hang_seconds=20.0)
        policy = FailurePolicy(timeout=0.3)
        with pytest.raises(CellTimeoutError) as excinfo:
            run_cells([cell], jobs=1, policy=policy)
        message = str(excinfo.value)
        assert cell.describe() in message
        assert "timed out" in message
        assert isinstance(excinfo.value, CellExecutionError)

    def test_timeout_keep_going_does_not_block_siblings(self, monkeypatch, tmp_path):
        cells = _grid()
        clean = run_cells(cells, jobs=1)
        _arm(
            monkeypatch, tmp_path,
            mode="hang", rate=1.0, times=1, max_total=1, hang_seconds=20.0,
        )
        policy = FailurePolicy(timeout=0.3, on_error=ON_ERROR_KEEP_GOING)
        cache = CellCache(str(tmp_path / "cache"))
        with pytest.raises(CampaignError) as excinfo:
            run_cells(cells, jobs=2, cache=cache, policy=policy)
        assert len(excinfo.value.failures) == 1
        assert "timed out" in excinfo.value.failures[0].error
        assert len(cache) == len(cells) - 1
        # The timed-out cell is pure; a clean rerun converges on the
        # clean campaign bit-for-bit.
        rerun = run_cells(cells, jobs=1, cache=CellCache(str(tmp_path / "cache")))
        assert rerun == clean

    @pytest.mark.usefixtures("fast_retry")
    def test_timed_out_cell_can_be_retried(self, monkeypatch, tmp_path):
        cells = _grid()
        clean = run_cells(cells, jobs=1)
        _arm(
            monkeypatch, tmp_path,
            mode="hang", rate=1.0, times=1, max_total=1, hang_seconds=20.0,
        )
        policy = FailurePolicy(timeout=0.3, max_retries=1)
        assert run_cells(cells, jobs=1, policy=policy) == clean


class TestWorkerCrashRecovery:
    """Acceptance (b): SIGKILL'd workers break the pool; we rebuild."""

    def test_sigkill_triggers_rebuild_and_completion(self, monkeypatch, tmp_path):
        cells = _grid()
        clean = run_cells(cells, jobs=1)
        _arm(monkeypatch, tmp_path, mode="kill", rate=1.0, times=1, max_total=1)
        lines = []
        results = run_cells(cells, jobs=2, progress=lines.append)
        assert results == clean
        assert any("rebuilding" in line for line in lines)

    def test_repeated_breaks_halve_the_pool(self, monkeypatch, tmp_path):
        cells = _grid()
        clean = run_cells(cells, jobs=1)
        # One kill, zero tolerated rebuilds: the first break rebuilds
        # the pool at half the width and marks it degraded.
        _arm(monkeypatch, tmp_path, mode="kill", rate=1.0, times=1, max_total=1)
        monkeypatch.setattr(executor_module, "MAX_POOL_REBUILDS", 0)
        lines = []
        results = run_cells(cells, jobs=2, progress=lines.append)
        assert results == clean
        assert any(
            "rebuilding at 1 worker(s), degraded" in line for line in lines
        ), lines

    def test_kills_past_the_rebuild_budget_stay_in_workers(self, tmp_path):
        """A cell killed again on the halved pool dies in a worker, and
        the charged retries carry the campaign to the clean results.

        Runs in a subprocess, so that a kill landing in the campaign
        process cannot take pytest with it.
        """
        plan = FaultPlan(
            mode="kill", rate=1.0, times=3, max_total=3,
            state_dir=str(tmp_path / "fault-state"),
        )
        script = (
            "import sys\n"
            "sys.path.insert(0, 'tests')\n"
            "from test_resilience import _grid\n"
            "from repro.exec import FailurePolicy, executor, run_cells\n"
            "from repro.exec import policy as backoff\n"
            "from repro.exec.cache import encode_result\n"
            "import json\n"
            "executor.MAX_POOL_REBUILDS = 0\n"
            "backoff.BACKOFF_BASE = 0\n"
            "policy = FailurePolicy(max_retries=3)\n"
            "results = run_cells(_grid(), jobs=2, policy=policy)\n"
            "print(json.dumps([encode_result(r) for r in results]))\n"
        )
        env = dict(os.environ, **{FAULTS_ENV: plan.to_env()})
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH", "")])
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        done = subprocess.run(
            [sys.executable, "-c", script],
            cwd=root, env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        clean = [list(encode_result(r)) for r in run_cells(_grid(), jobs=1)]
        assert json.loads(done.stdout) == json.loads(json.dumps(clean))


class TestPoolSupervisor:
    """The one worker-loss policy, without starting a worker."""

    def test_rebuilds_then_halves_and_charges_only_one_worker(self):
        supervisor = PoolSupervisor(workers=4, max_rebuilds=1)
        try:
            seen = []
            for _ in range(4):
                broken = supervisor.pool
                charged = supervisor.note_broken(broken)
                seen.append((charged, supervisor.workers, supervisor.degraded))
            assert seen == [
                (False, 4, False),
                (False, 2, True),
                (False, 1, True),
                (True, 1, True),
            ]
            assert supervisor.rebuilds == 4
        finally:
            supervisor.shutdown()

    def test_concurrent_breaks_rebuild_once(self):
        import threading

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                supervisor = PoolSupervisor(workers=2, max_rebuilds=0)
                broken = supervisor.pool
                start = threading.Barrier(8)
                charged = []

                def observe():
                    start.wait(timeout=10)
                    charged.append(supervisor.note_broken(broken))

                threads = [threading.Thread(target=observe) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                supervisor.shutdown()
                assert not any(thread.is_alive() for thread in threads)
                assert charged == [False] * 8
                assert supervisor.rebuilds == 1 and supervisor.workers == 1
                assert supervisor.pool is not broken
        finally:
            sys.setswitchinterval(interval)


class TestCheckpointResume:
    """Acceptance (d) + satellite: interruption leaves resumable state."""

    def _counting_run_cell(self, monkeypatch):
        from repro.exec import cells as cells_module

        calls = []
        original = cells_module.run_cell

        def counted(cell):
            calls.append(cell.describe())
            return original(cell)

        monkeypatch.setattr("repro.exec.executor.run_cell", counted)
        return calls

    def test_interrupt_serial_leaves_resumable_state(self, monkeypatch, tmp_path):
        cells = _grid()
        clean = run_cells(cells, jobs=1)
        cache = CellCache(str(tmp_path / "cache"))
        resume_dir = str(tmp_path / "campaign")
        hook = _InterruptAfter(2)
        with pytest.raises(KeyboardInterrupt):
            execute_cells(
                cells, jobs=1, cache=cache,
                resume=CellCache(resume_dir), progress=hook,
            )
        # Completed cells are durably recorded in both stores.
        assert len(cache) == 2
        resumed = CellCache(resume_dir)
        assert len(resumed) == 2
        # Resume re-runs only the unfinished cells and matches clean.
        calls = self._counting_run_cell(monkeypatch)
        results = run_cells(cells, jobs=1, resume=resumed)
        assert results == clean
        assert len(calls) == len(cells) - 2

    def test_interrupt_pool_leaves_resumable_state(self, monkeypatch, tmp_path):
        cells = _grid()
        clean = run_cells(cells, jobs=1)
        cache = CellCache(str(tmp_path / "cache"))
        resume_dir = str(tmp_path / "campaign")
        with pytest.raises(KeyboardInterrupt):
            execute_cells(
                cells, jobs=2, cache=cache,
                resume=CellCache(resume_dir), progress=_InterruptAfter(2),
            )
        resumed = CellCache(resume_dir)
        assert len(resumed) >= 2
        assert len(cache) >= 2
        assert run_cells(cells, jobs=1, resume=resumed) == clean

    def test_resume_without_cache_matches_clean_run(self, monkeypatch, tmp_path):
        cells = _grid()
        clean = run_cells(cells, jobs=1)
        resume_dir = str(tmp_path / "campaign")
        with pytest.raises(KeyboardInterrupt):
            execute_cells(
                cells, jobs=1, cache=None,
                resume=CellCache(resume_dir), progress=_InterruptAfter(2),
            )
        calls = self._counting_run_cell(monkeypatch)
        results = run_cells(cells, jobs=1, cache=None, resume=CellCache(resume_dir))
        assert results == clean
        assert len(calls) == len(cells) - 2

    def test_fully_journaled_campaign_reruns_nothing(self, monkeypatch, tmp_path):
        cells = _grid()
        resume_dir = str(tmp_path / "campaign")
        clean = run_cells(cells, jobs=1, resume=CellCache(resume_dir))

        def explode(cell):
            raise AssertionError("cell ran despite a complete resume directory")

        monkeypatch.setattr("repro.exec.executor.run_cell", explode)
        outcomes = execute_cells(cells, jobs=1, resume=CellCache(resume_dir))
        assert [outcome.result for outcome in outcomes] == clean
        assert all(outcome.resumed and outcome.cached for outcome in outcomes)

    def test_resume_hit_beats_the_shared_cache(self, tmp_path):
        """A cell in both stores is reported as resumed, and a shared-cache
        hit is copied into the resume directory."""
        cells = _grid()
        resume_dir = str(tmp_path / "campaign")
        cache = CellCache(str(tmp_path / "cache"))
        run_cells(cells[:2], jobs=1, cache=cache, resume=CellCache(resume_dir))
        run_cells(cells[2:], jobs=1, cache=cache)
        outcomes = execute_cells(cells, jobs=1, cache=cache, resume=CellCache(resume_dir))
        assert [outcome.resumed for outcome in outcomes] == [True, True, False, False]
        assert all(outcome.cached for outcome in outcomes)
        assert len(CellCache(resume_dir)) == len(cells)

    def test_truncated_entry_in_resume_dir_reruns_only_that_cell(
        self, monkeypatch, tmp_path
    ):
        cells = _grid()
        clean = run_cells(cells, jobs=1)
        resume = CellCache(str(tmp_path / "campaign"))
        run_cells(cells, jobs=1, resume=resume)
        # A crash mid-write: one entry holds only a prefix of its bytes.
        path = resume.path_for(cell_fingerprint(cells[1]))
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        calls = self._counting_run_cell(monkeypatch)
        resumed = CellCache(str(tmp_path / "campaign"))
        assert run_cells(cells, jobs=1, resume=resumed) == clean
        assert calls == [cells[1].describe()]
        assert resumed.corrupt == 1
        assert os.path.exists(f"{path}.corrupt")
        # The re-run wrote the entry back whole.
        assert CellCache(str(tmp_path / "campaign")).get(
            cell_fingerprint(cells[1])
        ) == clean[1]

    @pytest.mark.usefixtures("fast_retry")
    def test_failed_cells_are_rerun_on_resume(self, monkeypatch, tmp_path):
        cells = _grid()
        clean = run_cells(cells, jobs=1)
        resume_dir = str(tmp_path / "campaign")
        _arm(monkeypatch, tmp_path, mode="transient", rate=1.0, times=10, max_total=2)
        policy = FailurePolicy(max_retries=1, on_error=ON_ERROR_KEEP_GOING)
        with pytest.raises(CampaignError):
            run_cells(cells, jobs=1, policy=policy, resume=CellCache(resume_dir))
        monkeypatch.delenv(FAULTS_ENV)
        # A failed cell leaves no entry: it is simply not done yet.
        resumed = CellCache(resume_dir)
        assert len(resumed) == len(cells) - 1
        calls = self._counting_run_cell(monkeypatch)
        assert run_cells(cells, jobs=1, resume=resumed) == clean
        assert len(calls) == 1


class TestCacheRobustness:
    """Satellites: temp-file leak, corrupt-entry quarantine + counter."""

    def test_put_failure_leaves_no_temp_file(self, monkeypatch, tmp_path):
        cell = _grid()[0]
        result = run_cells([cell])[0]
        cache = CellCache(str(tmp_path))

        def exploding_fsync(fd):
            # The temp file holds the bytes; the disk fails before the
            # rename can publish them.
            raise OSError("disk full")

        monkeypatch.setattr("repro.engine.snapshot.os.fsync", exploding_fsync)
        with pytest.raises(OSError):
            cache.put(cell, cell_fingerprint(cell), result)
        assert os.listdir(str(tmp_path)) == []

    def test_corrupt_entry_is_counted_and_quarantined(self, tmp_path):
        cell = _grid()[0]
        cache = CellCache(str(tmp_path))
        cache.put(cell, cell_fingerprint(cell), run_cells([cell])[0])
        path = cache.path_for(cell_fingerprint(cell))
        with open(path, "w") as handle:
            handle.write("{not json")
        fresh = CellCache(str(tmp_path))
        assert fresh.get(cell_fingerprint(cell)) is None
        assert fresh.misses == 1
        assert fresh.corrupt == 1
        assert not os.path.exists(path)
        assert os.path.exists(f"{path}.corrupt")
        # Quarantined: the next lookup is a plain (non-corrupt) miss.
        assert fresh.get(cell_fingerprint(cell)) is None
        assert fresh.corrupt == 1
        assert "corrupt" in fresh.summary()

    def test_undecodable_payload_counts_as_corrupt(self, tmp_path):
        cell = _grid()[0]
        cache = CellCache(str(tmp_path))
        cache.put(cell, cell_fingerprint(cell), run_cells([cell])[0])
        path = cache.path_for(cell_fingerprint(cell))
        record = {"format": 1, "kind": "lifetime", "payload": {"nope": 1}}
        with open(path, "w") as handle:
            json.dump(record, handle)
        fresh = CellCache(str(tmp_path))
        assert fresh.get(cell_fingerprint(cell)) is None
        assert fresh.corrupt == 1
        assert os.path.exists(f"{path}.corrupt")

    def test_corrupt_fault_mode_end_to_end(self, monkeypatch, tmp_path):
        cells = _grid()
        clean = run_cells(cells, jobs=1)
        cache_dir = str(tmp_path / "cache")
        _arm(monkeypatch, tmp_path, mode="corrupt", rate=1.0, times=1)
        run_cells(cells, jobs=1, cache=CellCache(cache_dir))
        monkeypatch.delenv(FAULTS_ENV)
        # Every entry was garbled after write; the re-run quarantines
        # them all, recomputes, and still matches the clean campaign.
        recovery = CellCache(cache_dir)
        assert run_cells(cells, jobs=1, cache=recovery) == clean
        assert recovery.corrupt == len(cells)
        third = CellCache(cache_dir)
        assert run_cells(cells, jobs=1, cache=third) == clean
        assert third.hits == len(cells)
        assert third.corrupt == 0

    def test_cache_summary_reaches_progress_stream(self, tmp_path):
        cells = _grid()
        lines = []
        execute_cells(cells, jobs=1, cache=CellCache(str(tmp_path)), progress=lines.append)
        assert any(line.startswith("cache:") for line in lines)


class TestCLIResilienceFlags:
    def _tiny_setup(self):
        from repro.experiments.setups import ExperimentSetup

        return ExperimentSetup(
            scaled=ScaledArrayConfig(n_pages=64, endurance_mean=768.0),
            benchmarks=("vips",),
            trace_writes=5_000,
            overhead_writes=4_000,
        )

    def test_parser_accepts_resilience_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "fig6", "--quick", "--retries", "2",
                "--cell-timeout", "1.5", "--keep-going",
                "--resume", "/tmp/campaign",
            ]
        )
        assert args.retries == 2
        assert args.cell_timeout == 1.5
        assert args.keep_going
        assert args.resume == "/tmp/campaign"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6", "--retries", "-1"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6", "--cell-timeout", "0"])

    def test_cli_retries_through_faults(self, monkeypatch, tmp_path):
        from repro import cli

        monkeypatch.setattr(cli, "quick_setup", self._tiny_setup)
        clean_rc = cli.main(["fig6", "--quick", "--no-cache"])
        assert clean_rc == 0
        _arm(monkeypatch, tmp_path, mode="transient", rate=1.0, times=1)
        rc = cli.main(["fig6", "--quick", "--no-cache", "--jobs", "2", "--retries", "2"])
        assert rc == 0

    def test_cli_resume_completes_interrupted_campaign(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro import cli

        monkeypatch.setattr(cli, "quick_setup", self._tiny_setup)
        resume_dir = str(tmp_path / "campaign")
        argv = [
            "fig6", "--quick", "--no-cache", "--resume", resume_dir,
        ]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        # Second run: everything is served from the resume directory.
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == first
        assert "(resumed)" in captured.err

    def test_cli_no_cache_resume_twice_runs_no_cell(self, monkeypatch, tmp_path, capsys):
        from repro import cli

        monkeypatch.setattr(cli, "quick_setup", self._tiny_setup)
        argv = ["fig6", "--quick", "--no-cache", "--resume", str(tmp_path / "campaign")]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out

        def explode(cell):
            raise AssertionError(f"{cell.describe()} ran on a finished resume")

        monkeypatch.setattr("repro.exec.executor.run_cell", explode)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first

    def test_cli_resume_at_a_regular_file_is_a_config_error(
        self, monkeypatch, tmp_path, capsys
    ):
        """An old ``.jsonl`` resume file is refused by name, not a traceback."""
        from repro import cli

        monkeypatch.setattr(cli, "quick_setup", self._tiny_setup)
        old = tmp_path / "manifest.jsonl"
        old.write_text('{"format": 1, "status": "done"}\n')
        assert cli.main(["fig6", "--quick", "--no-cache", "--resume", str(old)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("twl-repro: error:")
        assert str(old) in err
        assert "Traceback" not in err

    def test_cli_surfaces_corrupt_entries(self, monkeypatch, tmp_path, capsys):
        from repro import cli

        monkeypatch.setattr(cli, "quick_setup", self._tiny_setup)
        cache_dir = str(tmp_path / "cache")
        argv = ["fig6", "--quick", "--cache-dir", cache_dir]
        assert cli.main(argv) == 0
        capsys.readouterr()
        entries = [
            name for name in os.listdir(cache_dir) if name.endswith(".json")
        ]
        assert entries
        with open(os.path.join(cache_dir, entries[0]), "w") as handle:
            handle.write("{bit rot")
        assert cli.main(argv) == 0
        assert "corrupt entr" in capsys.readouterr().err


class TestTimeoutOutsideMainThread:
    """Satellite: the portable deadline enforces on *any* thread.

    The SIGALRM-era timeout silently degraded to warn-and-run off the
    main thread — exactly where the campaign server drives cells.  The
    :class:`repro.exec.deadline.CellDeadline` watchdog replaces it:
    off-main-thread cells are now genuinely budgeted, and in-budget
    cells finish warning-free with the same result.
    """

    def test_enforces_off_main_thread(self, monkeypatch, tmp_path):
        import threading

        from repro.exec.executor import _execute_one

        cell = attack_cell("nowl", "scan", scaled=SCALED, seed=11)
        _arm(monkeypatch, tmp_path, mode="hang", rate=1.0, times=1, hang_seconds=20.0)
        outcome = {}

        def work():
            try:
                outcome["result"], _ = _execute_one(cell, timeout=0.3)
            except BaseException as error:  # noqa: B036 - recording for assert
                outcome["error"] = error

        thread = threading.Thread(target=work)
        thread.start()
        # Well under hang_seconds: the budget, not the hang, ends the cell.
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "timeout was not enforced off the main thread"
        error = outcome.get("error")
        assert isinstance(error, CellTimeoutError), outcome
        assert cell.describe() in str(error)
        assert "timed out" in str(error)

    def test_off_main_thread_in_budget_is_warning_free(self):
        import threading
        import warnings

        from repro.exec.executor import _execute_one

        cell = attack_cell("nowl", "scan", scaled=SCALED, seed=11)
        expected, _ = _execute_one(cell, timeout=None)
        outcome = {}

        def work():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                outcome["result"], _ = _execute_one(cell, timeout=30.0)
                outcome["messages"] = [str(w.message) for w in caught]

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        assert outcome["result"] == expected
        # The old degrade path warned "not enforceable" here; the
        # portable deadline enforces silently instead.
        assert not any(
            "not enforceable" in message for message in outcome["messages"]
        ), outcome["messages"]

    def test_main_thread_leaves_signals_untouched(self):
        import signal

        from repro.exec.executor import _execute_one

        cell = attack_cell("nowl", "scan", scaled=SCALED, seed=11)
        before = signal.getsignal(signal.SIGALRM)
        _execute_one(cell, timeout=30.0)
        # The deadline is signal-free: no handler swap, no pending
        # itimer — safe to nest under code that owns SIGALRM itself.
        assert signal.getsignal(signal.SIGALRM) == before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_deadline_fires_and_never_leaks_past_disarm(self):
        """An expired deadline surfaces exactly once, and disarm
        neutralizes any still-pending injection — later code on the
        same thread must never see a stray ``DeadlineReached``."""
        import time as _time

        from repro.exec.deadline import CellDeadline, DeadlineReached

        deadline = CellDeadline(0.05)
        fired_in_block = False
        try:
            with deadline:
                # One long C sleep: the watchdog fires mid-sleep and the
                # injection lands at the first bytecode after it returns.
                _time.sleep(0.3)
        except DeadlineReached:
            fired_in_block = True
        assert fired_in_block
        # No second delivery: plenty of bytecode boundaries follow.
        for _ in range(100000):
            pass


class TestTimeoutSnapshotCleanup:
    """Satellite: a timed-out cell never leaks snapshot files."""

    def test_timeout_discards_snapshot_and_temps(self, monkeypatch, tmp_path):
        import dataclasses

        from repro.engine import write_snapshot
        from repro.exec import cell_snapshot_path

        cell = dataclasses.replace(
            _grid()[0],
            snapshot_every=1_000,
            snapshot_dir=str(tmp_path / "snaps"),
        )
        os.makedirs(cell.snapshot_dir)
        # The state a killed-by-timeout run would leave behind: a
        # durable snapshot plus a torn temp sibling.
        path = cell_snapshot_path(cell)
        write_snapshot(path, {"demand_served": 1_000})
        with open(f"{path}.12345.tmp", "wb") as handle:
            handle.write(b"partial")
        _arm(monkeypatch, tmp_path, mode="hang", rate=1.0, times=1, hang_seconds=20.0)
        with pytest.raises(CellTimeoutError):
            run_cells([cell], jobs=1, policy=FailurePolicy(timeout=0.3))
        assert os.listdir(cell.snapshot_dir) == []


class TestKillAndResume:
    """Tentpole acceptance: SIGKILL at an armed mid-run demand index,
    resume from the on-disk snapshot, bit-identical outcome."""

    EVERY = 3_000
    KILL_AT = 7_500

    def _stream_cell(self, tmp_path, snapshots=True):
        import dataclasses

        from repro.exec import stream_cell

        cell = stream_cell("twl", stream="ftl", scaled=SCALED, seed=11, chunk_size=512)
        cell = dataclasses.replace(cell, batch_size=16)
        if snapshots:
            cell = dataclasses.replace(
                cell,
                snapshot_every=self.EVERY,
                snapshot_dir=str(tmp_path / "snaps"),
            )
        return cell

    def test_kill_plan_validation(self):
        with pytest.raises(ConfigError, match="kill"):
            FaultPlan(mode="transient", kill_at_demand=100)
        with pytest.raises(ConfigError, match=">= 1"):
            FaultPlan(mode="kill", kill_at_demand=0)
        plan = FaultPlan(mode="kill", kill_at_demand=100)
        assert '"kill_at_demand": 100' in plan.to_env()

    def test_sigkill_midrun_is_crash_consistent(self, tmp_path):
        """Die for real at the armed demand index; the last cadence
        boundary's snapshot must be durable, and resuming from it must
        reproduce the uninterrupted run bit-exactly."""
        import dataclasses
        import subprocess
        import sys

        import repro
        from repro.engine import read_snapshot
        from repro.exec import cell_snapshot_path, run_cell

        cell = self._stream_cell(tmp_path)
        clean = run_cell(
            dataclasses.replace(cell, snapshot_every=0, snapshot_dir=None)
        )
        assert clean.demand_writes > self.KILL_AT  # the kill is mid-run
        plan = FaultPlan(
            mode="kill",
            kill_at_demand=self.KILL_AT,
            state_dir=str(tmp_path / "fault-state"),
        )
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        script = (
            "import sys, dataclasses\n"
            f"sys.path.insert(0, {src_root!r})\n"
            "from repro.config import ScaledArrayConfig\n"
            "from repro.exec import stream_cell\n"
            "from repro.exec.executor import _execute_one\n"
            "cell = dataclasses.replace(\n"
            "    stream_cell('twl', stream='ftl',\n"
            f"                scaled=ScaledArrayConfig(n_pages={SCALED.n_pages},\n"
            f"                                         endurance_mean={SCALED.endurance_mean}),\n"
            "                seed=11, chunk_size=512),\n"
            f"    batch_size=16, snapshot_every={self.EVERY},\n"
            f"    snapshot_dir={str(tmp_path / 'snaps')!r})\n"
            "_execute_one(cell, timeout=None)\n"
        )
        env = dict(os.environ, REPRO_FAULTS=plan.to_env())
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True
        )
        assert proc.returncode == -9, proc.stderr.decode()  # SIGKILLed
        # Crash consistency: the last snapshot before the kill point is
        # complete and durable.
        path = cell_snapshot_path(cell)
        state = read_snapshot(path)
        assert state["demand_served"] == (self.KILL_AT // self.EVERY) * self.EVERY
        # Resume (no faults armed) and compare bit-exactly.
        result = run_cell(cell)
        assert result == clean
        assert os.listdir(cell.snapshot_dir) == []

    def test_pool_recovers_from_midrun_kill_and_matches(self, monkeypatch, tmp_path):
        import dataclasses

        from repro.exec import stream_cell

        # Two cells so the pool path engages (a single pending cell
        # runs serially in the parent — where an armed kill would take
        # the campaign process down, by design of the kill mode).
        cells = [
            dataclasses.replace(
                stream_cell(
                    "twl", stream="ftl", scaled=SCALED, seed=seed, chunk_size=512
                ),
                batch_size=16,
                snapshot_every=self.EVERY,
                snapshot_dir=str(tmp_path / "snaps"),
            )
            for seed in (11, 12)
        ]
        clean = run_cells(
            [
                dataclasses.replace(cell, snapshot_every=0, snapshot_dir=None)
                for cell in cells
            ],
            jobs=1,
        )
        _arm(
            monkeypatch, tmp_path,
            mode="kill", rate=1.0, times=1, max_total=1,
            kill_at_demand=self.KILL_AT,
        )
        lines = []
        results = run_cells(cells, jobs=2, progress=lines.append)
        assert results == clean
        assert any("rebuilding" in line for line in lines)
        assert os.listdir(str(tmp_path / "snaps")) == []

    def test_armed_kill_does_not_leak_into_next_cell(self, monkeypatch, tmp_path):
        """A kill armed past a short cell's lifetime must not survive
        into the next cell run by the same worker."""
        from repro.engine import interrupt

        _arm(
            monkeypatch, tmp_path,
            mode="kill", rate=1.0, times=1, max_total=1,
            kill_at_demand=10_000_000,  # far past any cell's lifetime
        )
        cells = _grid()
        results = run_cells(cells, jobs=1, policy=FailurePolicy())
        monkeypatch.delenv(FAULTS_ENV)
        assert results == run_cells(cells, jobs=1)
        assert interrupt.armed_kill_at() is None
