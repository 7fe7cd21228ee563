"""Tests for the parallel experiment executor and on-disk result cache."""

import ast
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import repro

from repro.config import ScaledArrayConfig, TWLConfig
from repro.errors import CellExecutionError, ConfigError, SimulationError, TraceError
from repro.exec import (
    DEFAULT_BATCH_SIZE,
    CellCache,
    ExperimentCell,
    attack_cell,
    cell_fingerprint,
    encode_result,
    execute_cells,
    overheads_cell,
    run_cell,
    run_cells,
    stream_cell,
    trace_cell,
)
from repro.exec.hashing import RESULT_SOURCES
from repro.pcm.faults import FirstFailure
from repro.sim.lifetime import LifetimeResult
from repro.sim.replicates import replicate_attack_lifetime
from repro.traces.chunked import save_chunked_trace
from repro.traces.request import OP_WRITE
from repro.traces.text_format import save_text_trace
from repro.traces.trace import Trace

SCALED = ScaledArrayConfig(n_pages=64, endurance_mean=768.0)

_FAILED = LifetimeResult(
    scheme="twl_swp", workload="scan", n_pages=64, endurance_mean=768.0,
    demand_writes=41_234, device_writes=45_678, failed=True,
    failure=FirstFailure(physical_page=17, device_writes=45_678, page_endurance=801),
)
_SURVIVED = LifetimeResult(
    scheme="sr", workload="vips", n_pages=64, endurance_mean=768.0,
    demand_writes=20_000, device_writes=21_500, failed=False, failure=None,
    estimation="fast-forward",
)
_FAULTED = LifetimeResult(
    scheme="twl_swp", workload="random", n_pages=64, endurance_mean=768.0,
    demand_writes=39_000, device_writes=43_210, failed=True,
    failure=FirstFailure(physical_page=3, device_writes=43_210, page_endurance=702),
    soft_errors={"silent": 1, "injected": 5, "corrected": 4},
)


def _grid():
    """A 2×2 scheme/attack cell grid, small enough to run in <1 s."""
    return [
        attack_cell(scheme, attack, scaled=SCALED, seed=11)
        for scheme in ("nowl", "sr")
        for attack in ("repeat", "scan")
    ]


class TestCellSpecs:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            ExperimentCell(kind="nope", scheme="sr", workload="scan")

    def test_trace_cell_needs_length(self):
        with pytest.raises(ConfigError):
            ExperimentCell(kind="trace", scheme="sr", workload="vips")

    def test_overheads_cell_needs_budget(self):
        with pytest.raises(ConfigError):
            ExperimentCell(
                kind="overheads", scheme="sr", workload="vips", trace_writes=100
            )

    def test_describe_includes_identity(self):
        cell = attack_cell("twl_swp", "scan", scaled=SCALED, seed=3, label="row=1")
        described = cell.describe()
        assert "twl_swp" in described
        assert "scan" in described
        assert "seed=3" in described
        assert "row=1" in described


class TestParallelIdentity:
    def test_parallel_bit_identical_to_serial(self):
        cells = _grid()
        serial = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=2)
        assert serial == parallel  # LifetimeResult dataclass equality

    def test_trace_and_overheads_cells_parallel(self):
        cells = [
            trace_cell("sr", "vips", trace_writes=5_000, scaled=SCALED, seed=5),
            trace_cell("nowl", "vips", trace_writes=5_000, scaled=SCALED, seed=5),
            overheads_cell(
                "twl",
                "vips",
                trace_writes=5_000,
                drive_writes=4_000,
                scaled=SCALED,
                seed=5,
                scheme_kwargs={"config": TWLConfig()},
            ),
        ]
        assert run_cells(cells, jobs=2) == run_cells(cells, jobs=1)

    def test_results_keep_input_order(self):
        cells = _grid()
        outcomes = execute_cells(cells, jobs=2)
        assert [o.cell for o in outcomes] == cells
        for outcome in outcomes:
            assert outcome.seconds >= 0.0
            assert not outcome.cached

    def test_pool_seconds_exclude_queue_wait(self):
        """Per-cell seconds time the run in the worker, not the wait
        behind busy workers: two workers can fit at most two seconds of
        cell time into one second of wall time."""
        scaled = ScaledArrayConfig(n_pages=128, endurance_mean=1024.0)
        cells = [attack_cell("twl", "repeat", scaled=scaled, seed=seed) for seed in range(6)]
        start = time.perf_counter()
        outcomes = execute_cells(cells, jobs=2, progress=False)
        wall = time.perf_counter() - start
        assert sum(outcome.seconds for outcome in outcomes) <= 2 * wall


class TestCache:
    def test_second_run_is_served_from_cache(self, tmp_path):
        cells = _grid()
        first_cache = CellCache(str(tmp_path))
        first = run_cells(cells, cache=first_cache)
        assert first_cache.misses == len(cells)
        assert first_cache.hits == 0

        second_cache = CellCache(str(tmp_path))
        second = run_cells(cells, cache=second_cache)
        assert second_cache.hits == len(cells)
        assert second_cache.misses == 0
        assert first == second

    def test_cache_hit_skips_simulation(self, tmp_path, monkeypatch):
        cells = _grid()
        run_cells(cells, cache=CellCache(str(tmp_path)))

        def boom(cell):
            raise AssertionError("simulation ran despite a warm cache")

        monkeypatch.setattr("repro.exec.executor.run_cell", boom)
        results = run_cells(cells, cache=CellCache(str(tmp_path)))
        assert len(results) == len(cells)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cell = _grid()[0]
        cache = CellCache(str(tmp_path))
        cache.put(cell, cell_fingerprint(cell), run_cells([cell])[0])
        cache.path_for(cell_fingerprint(cell))
        with open(cache.path_for(cell_fingerprint(cell)), "w") as handle:
            handle.write("{not json")
        fresh = CellCache(str(tmp_path))
        assert fresh.get(cell_fingerprint(cell)) is None
        assert fresh.misses == 1

    def test_overheads_round_trip(self, tmp_path):
        cell = overheads_cell(
            "twl", "vips", trace_writes=5_000, drive_writes=4_000,
            scaled=SCALED, seed=5,
        )
        cache = CellCache(str(tmp_path))
        direct = run_cells([cell], cache=cache)[0]
        cached = CellCache(str(tmp_path)).get(cell_fingerprint(cell))
        assert cached == direct

    @pytest.mark.parametrize(
        "result", [_FAILED, _SURVIVED, _FAULTED],
        ids=["failed", "survived", "soft-errors"],
    )
    def test_lifetime_round_trip(self, tmp_path, result):
        cell = _grid()[0]
        CellCache(str(tmp_path)).put(cell, cell_fingerprint(cell), result)
        fresh = CellCache(str(tmp_path))
        assert fresh.get(cell_fingerprint(cell)) == result
        assert fresh.hits == 1

    def test_lifetime_payload_is_pinned(self):
        # Cache entries and checkpoint journals store this payload; any
        # drift (a renamed key, an int turned float) orphans them all.
        kind, payload = encode_result(_FAULTED)
        expected = {
            "scheme": "twl_swp",
            "workload": "random",
            "n_pages": 64,
            "endurance_mean": 768.0,
            "demand_writes": 39_000,
            "device_writes": 43_210,
            "failed": True,
            "estimation": "exact",
            "failure": {
                "physical_page": 3,
                "device_writes": 43_210,
                "page_endurance": 702,
            },
            "soft_errors": {"corrected": 4, "injected": 5, "silent": 1},
        }
        assert kind == "lifetime"
        assert json.dumps(payload, sort_keys=True) == json.dumps(expected, sort_keys=True)


class TestFingerprint:
    def test_stable_for_equal_specs(self):
        assert cell_fingerprint(_grid()[0]) == cell_fingerprint(_grid()[0])

    def test_changes_with_spec(self):
        base = attack_cell("sr", "scan", scaled=SCALED, seed=11)
        assert cell_fingerprint(base) != cell_fingerprint(
            attack_cell("sr", "scan", scaled=SCALED, seed=12)
        )
        assert cell_fingerprint(base) != cell_fingerprint(
            attack_cell("nowl", "scan", scaled=SCALED, seed=11)
        )

    def test_changes_with_nested_config(self):
        base = attack_cell("twl_swp", "scan", scaled=SCALED, seed=11)
        tweaked = attack_cell(
            "twl_swp",
            "scan",
            scaled=SCALED,
            seed=11,
            scheme_kwargs={"config": TWLConfig(toss_up_interval=16)},
        )
        assert cell_fingerprint(base) != cell_fingerprint(tweaked)

    def test_changes_with_code_digest(self, monkeypatch):
        cell = _grid()[0]
        before = cell_fingerprint(cell)
        monkeypatch.setattr("repro.exec.hashing.code_digest", lambda: "edited")
        assert cell_fingerprint(cell) != before

    def test_code_change_invalidates_cache_entry(self, monkeypatch, tmp_path):
        # The cache file is addressed by fingerprint, so edited code
        # maps the same cell to a new key: nothing is found there.
        cell = _grid()[0]
        run_cells([cell], cache=CellCache(str(tmp_path)))
        monkeypatch.setattr("repro.exec.hashing.code_digest", lambda: "edited")
        cache = CellCache(str(tmp_path))
        assert cache.get(cell_fingerprint(cell)) is None
        run_cells([cell], cache=cache)
        assert cache.misses == 2
        assert len(cache) == 2

    def test_fingerprints_without_trace_path_are_pinned(self, monkeypatch):
        """Only cells that set ``trace_path`` hash file contents; every
        other cell's key is a pure function of its spec and the code."""
        monkeypatch.setattr("repro.exec.hashing.code_digest", lambda: "0" * 32)
        cells = {
            "f622dc33ffadde54abde61326b7be7de": attack_cell(
                "twl_swp", "scan", scaled=SCALED, seed=11
            ),
            "f24b41c6749b819d8e8894489e3ca4e0": trace_cell(
                "sr", "vips", trace_writes=5000, scaled=SCALED, seed=5
            ),
            "0011cce8e8ea1f6e6e6a767fddc2c76c": overheads_cell(
                "twl", "vips", trace_writes=5000, drive_writes=4000,
                scaled=SCALED, seed=5,
            ),
            "916208bba281aa8183c87db887a293a9": stream_cell(
                "twl", stream="ftl", scaled=SCALED, seed=11
            ),
        }
        for expected, cell in cells.items():
            assert cell_fingerprint(cell) == expected


class TestCodeDigest:
    """The fingerprint covers the result-bearing source: editing it moves
    every key, editing anything else moves none."""

    #: Prints the fingerprints of a small grid, one of each cell kind,
    #: under whatever ``repro`` is first on ``PYTHONPATH``.
    _SCRIPT = (
        "import json, repro\n"
        "from repro.config import ScaledArrayConfig\n"
        "from repro.exec import attack_cell, cell_fingerprint, overheads_cell, "
        "stream_cell, trace_cell\n"
        "s = ScaledArrayConfig(n_pages=64, endurance_mean=768.0)\n"
        "cells = [attack_cell('twl_swp', 'scan', scaled=s, seed=11),\n"
        "         attack_cell('bwl', 'inconsistent', scaled=s, seed=3),\n"
        "         trace_cell('sr', 'vips', trace_writes=5000, scaled=s, seed=5),\n"
        "         overheads_cell('twl', 'vips', trace_writes=5000,\n"
        "                        drive_writes=4000, scaled=s, seed=5),\n"
        "         stream_cell('twl', stream='ftl', scaled=s, seed=11)]\n"
        "print(json.dumps([repro.__file__] + [cell_fingerprint(c) for c in cells]))\n"
    )

    #: Modules in the import closure of ``repro/exec/cells.py`` that are
    #: deliberately not digested: none of them can change a result.
    _EXEMPT = {
        # The runtime determinism sanitizer only raises on global-RNG
        # use; it never changes a value.
        "devtools/__init__.py",
        "devtools/sanitize.py",
        # The static analyzer, reached only through the lazy
        # ``repro.devtools.__getattr__``; it never runs inside a cell.
        "devtools/lint.py",
    }

    def _fingerprints(self, root):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        out = subprocess.run(
            [sys.executable, "-c", self._SCRIPT],
            cwd=str(root), env=env, capture_output=True, text=True, check=True,
        ).stdout
        where, *fingerprints = json.loads(out)
        assert where.startswith(str(root / "src"))
        return fingerprints

    @staticmethod
    def _edit(path):
        with open(path, "ab") as handle:
            handle.write(b"#")

    def test_one_byte_edit_moves_every_fingerprint(self, tmp_path):
        package = os.path.dirname(repro.__file__)
        copy = tmp_path / "src" / "repro"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        before = self._fingerprints(tmp_path)
        assert len(set(before)) == len(before)
        # Serving code decides no result: the cache stays warm.
        self._edit(copy / "serve" / "server.py")
        assert self._fingerprints(tmp_path) == before
        # One byte of one scheme module moves every key.
        self._edit(copy / "wearlevel" / "bwl.py")
        after = self._fingerprints(tmp_path)
        assert all(old != new for old, new in zip(before, after))

    def test_import_closure_of_cells_is_digested(self):
        """Every module ``run_cell`` can reach is digested or exempt.

        The walk is static: ``import repro`` loads every package, so the
        modules loaded at run time cannot tell result-bearing code from
        the rest.  Imports inside functions count (schemes and trace
        readers are imported lazily); ``TYPE_CHECKING`` blocks do not.
        """
        root = os.path.dirname(repro.__file__)

        def module_file(name):
            path = os.path.join(root, *name.split(".")[1:])
            if os.path.isdir(path):
                return os.path.join(path, "__init__.py")
            return path + ".py" if os.path.exists(path + ".py") else None

        def imported(name, path):
            package = name if path.endswith("__init__.py") else name.rsplit(".", 1)[0]
            tree = ast.parse(open(path).read())
            skip = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.dump(node.test):
                    skip.update(id(child) for stmt in node.body for child in ast.walk(stmt))
            for node in ast.walk(tree):
                if id(node) in skip:
                    continue
                if isinstance(node, ast.ImportFrom):
                    if node.level:
                        parts = package.split(".")
                        base = parts[: len(parts) - node.level + 1]
                        target = ".".join(base + ([node.module] if node.module else []))
                    else:
                        target = node.module or ""
                    targets = [target] + [f"{target}.{alias.name}" for alias in node.names]
                elif isinstance(node, ast.Import):
                    targets = [alias.name for alias in node.names]
                else:
                    continue
                for target in targets:
                    if target.split(".")[0] == "repro" and module_file(target):
                        yield target

        def relative(name):
            return os.path.relpath(module_file(name), root).replace(os.sep, "/")

        def digested(rel):
            return any(rel == src or rel.startswith(src + "/") for src in RESULT_SOURCES)

        seen, stack = set(), ["repro.exec.cells"]
        while stack:
            name = stack.pop()
            if name in seen or relative(name) in self._EXEMPT:
                continue
            seen.add(name)
            stack.extend(imported(name, module_file(name)))
        closure = {relative(name) for name in seen}
        assert {"core/twl.py", "wearlevel/bwl.py", "traces/chunked.py"} <= closure
        assert sorted(rel for rel in closure if not digested(rel)) == []
        assert not any(digested(rel) for rel in self._EXEMPT)


class TestTraceContentFingerprint:
    """A ``trace_path`` cell is keyed on the file's contents, not just
    its path, so a trace rewritten in place is never served stale."""

    @staticmethod
    def _trace(pages):
        writes = list(pages) * 50
        return Trace(np.full(len(writes), OP_WRITE), writes, name="hot")

    def test_rewritten_twt_trace_is_recomputed(self, tmp_path):
        path = str(tmp_path / "hot.twt")
        save_chunked_trace(self._trace([0]), path, chunk_size=16)
        cell = stream_cell("twl", trace_path=path, scaled=SCALED, seed=3)
        first = run_cells([cell], cache=CellCache(str(tmp_path / "cache")))[0]
        save_chunked_trace(self._trace(range(8)), path, chunk_size=16)
        cache = CellCache(str(tmp_path / "cache"))
        second = run_cells([cell], cache=cache)[0]
        assert cache.hits == 0
        assert second == run_cell(cell)
        assert second != first

    def test_twt_digest_skips_payload_reads(self, tmp_path):
        path = str(tmp_path / "hot.twt")
        save_chunked_trace(self._trace([0, 1]), path, chunk_size=16)
        cell = stream_cell("twl", trace_path=path, scaled=SCALED, seed=3)
        before = cell_fingerprint(cell)
        with open(path, "r+b") as handle:
            handle.seek(-1, 2)
            last = handle.read(1)
            handle.seek(-1, 2)
            handle.write(bytes([last[0] ^ 0xFF]))
        # The payload changed under an unchanged chunk CRC record: the
        # digest never read it (the reader's CRC check catches it).
        assert cell_fingerprint(cell) == before

    def test_rewritten_text_trace_changes_fingerprint(self, tmp_path):
        path = str(tmp_path / "hot.trace")
        save_text_trace(self._trace([0]), path)
        cell = stream_cell("twl", trace_path=path, scaled=SCALED, seed=3)
        before = cell_fingerprint(cell)
        save_text_trace(self._trace([1]), path)
        assert cell_fingerprint(cell) != before

    def test_missing_trace_names_the_path(self, tmp_path):
        path = str(tmp_path / "absent.twt")
        cell = stream_cell("twl", trace_path=path, scaled=SCALED, seed=3)
        with pytest.raises(TraceError, match="absent.twt"):
            cell_fingerprint(cell)

    def test_unreadable_trace_names_the_path(self, tmp_path):
        cell = stream_cell("twl", trace_path=str(tmp_path), scaled=SCALED, seed=3)
        with pytest.raises(TraceError, match=str(tmp_path)):
            cell_fingerprint(cell)


class TestFailureIdentity:
    def test_worker_error_names_cell_serial(self):
        cells = [attack_cell("no_such_scheme", "scan", scaled=SCALED, seed=9)]
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells(cells, jobs=1)
        message = str(excinfo.value)
        assert "no_such_scheme" in message
        assert "seed=9" in message

    def test_worker_error_names_cell_parallel(self):
        cells = _grid() + [attack_cell("no_such_scheme", "scan", scaled=SCALED, seed=9)]
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells(cells, jobs=2)
        message = str(excinfo.value)
        assert "no_such_scheme" in message
        assert "seed=9" in message

    def test_cell_error_is_a_simulation_error(self):
        # Callers catching the package hierarchy keep working.
        assert issubclass(CellExecutionError, SimulationError)

    def test_replicate_failure_names_replicate(self):
        with pytest.raises(SimulationError) as excinfo:
            replicate_attack_lifetime(
                "no_such_scheme", "scan", n_replicates=1, scaled=SCALED
            )
        assert "replicate=0" in str(excinfo.value)
        assert "seed=" in str(excinfo.value)


class TestCLIParallelSmoke:
    """`make quick-parallel` path: fig6 --quick --jobs 2 through the CLI."""

    def _tiny_setup(self):
        from repro.experiments.setups import ExperimentSetup

        return ExperimentSetup(
            scaled=ScaledArrayConfig(n_pages=64, endurance_mean=768.0),
            benchmarks=("vips",),
            trace_writes=5_000,
            overhead_writes=4_000,
        )

    def test_fig6_quick_parallel_and_cached_rerun(self, tmp_path, capsys, monkeypatch):
        from repro import cli

        monkeypatch.setattr(cli, "quick_setup", self._tiny_setup)
        argv = [
            "fig6",
            "--quick",
            "--jobs",
            "2",
            "--cache-dir",
            str(tmp_path),
        ]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert "Figure 6" in first

        # Immediate re-run: identical output, every cell a cache hit.
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == first
        progress = captured.err
        assert "(cached)" in progress
        assert progress.count("(cached)") == progress.count("…")

    def test_no_cache_flag(self, tmp_path, monkeypatch):
        from repro import cli

        monkeypatch.setattr(cli, "quick_setup", self._tiny_setup)
        assert cli.main(["fig6", "--quick", "--jobs", "2", "--no-cache"]) == 0

    def test_unusable_cache_dir_is_a_clean_error(self, tmp_path, capsys, monkeypatch):
        from repro import cli

        monkeypatch.setattr(cli, "quick_setup", self._tiny_setup)
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        rc = cli.main(["fig6", "--quick", "--cache-dir", str(blocker)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "twl-repro: error:" in err
        assert str(blocker) in err

    def test_parser_accepts_executor_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["fig8", "--quick", "--jobs", "4", "--cache-dir", "/tmp/x"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/x"
        assert not args.no_cache
        assert args.batch_size == DEFAULT_BATCH_SIZE


class TestSetupWiring:
    def test_setup_has_executor_fields(self):
        from repro.experiments.setups import default_setup

        setup = default_setup()
        assert setup.jobs == 1
        assert setup.cache_dir is None
        assert setup.batch_size == DEFAULT_BATCH_SIZE
        assert attack_cell("sr", "scan").batch_size == DEFAULT_BATCH_SIZE

    def test_active_setup_reads_env(self, monkeypatch):
        from repro.experiments.setups import active_setup

        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/twl-cache")
        setup = active_setup()
        assert setup.jobs == 3
        assert setup.cache_dir == "/tmp/twl-cache"

    @pytest.mark.parametrize(
        "cell_batch, setup_batch", [(DEFAULT_BATCH_SIZE, 1), (1, DEFAULT_BATCH_SIZE)]
    )
    def test_setup_batch_size_reaches_every_cell(
        self, built_engines, cell_batch, setup_batch
    ):
        """The setup's batch size replaces the cell's in both directions,
        so ``--batch-size 1`` reaches the per-write oracle path."""
        import dataclasses

        from repro.exec import run_setup_cells
        from repro.experiments.setups import ExperimentSetup

        cells = [dataclasses.replace(cell, batch_size=cell_batch) for cell in _grid()]
        setup = ExperimentSetup(
            scaled=SCALED,
            benchmarks=(),
            trace_writes=1,
            overhead_writes=1,
            batch_size=setup_batch,
        )
        results = run_setup_cells(cells, setup, progress=False)
        assert [engine.batch_size for engine in built_engines] == [setup_batch] * len(cells)
        assert results == run_cells(_grid(), jobs=1)

    def test_no_cache_snapshots_live_in_the_resume_directory(self, monkeypatch, tmp_path):
        import repro.exec.executor as executor
        from repro.experiments.setups import ExperimentSetup

        handed = []
        monkeypatch.setattr(
            executor, "run_cells", lambda cells, **kwargs: handed.extend(cells) or []
        )
        resume = str(tmp_path / "resume")
        setup = ExperimentSetup(
            scaled=SCALED,
            benchmarks=(),
            trace_writes=1,
            overhead_writes=1,
            resume=resume,
            snapshot_every=20_000,
        )
        executor.run_setup_cells(_grid(), setup, progress=False)
        assert [(c.snapshot_every, c.snapshot_dir) for c in handed] == [
            (20_000, resume)
        ] * len(_grid())

    def test_snapshot_cadence_without_a_directory_is_a_usage_error(
        self, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.experiments.setups import active_setup

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_RESUME", raising=False)
        monkeypatch.setenv("REPRO_SNAPSHOT_EVERY", "5000")
        with pytest.raises(ConfigError, match="snapshots need a directory"):
            active_setup()
        assert main(["table1", "--quick", "--no-cache", "--snapshot-every", "5000"]) == 2
        assert "snapshots need a directory" in capsys.readouterr().err

    def test_replicates_parallel_identical(self):
        serial = replicate_attack_lifetime("sr", "scan", n_replicates=3, scaled=SCALED)
        parallel = replicate_attack_lifetime(
            "sr", "scan", n_replicates=3, scaled=SCALED, jobs=2
        )
        assert serial.fractions == parallel.fractions
