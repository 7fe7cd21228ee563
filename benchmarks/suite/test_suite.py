"""Self-tests of the benchmark, on smoke budgets.

    PYTHONPATH=src python -m pytest benchmarks/suite
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
from tracing import Tracer

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_suite(root: Path, *args: str):
    """Run ``run.py`` under ``root``; return (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "suite" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout.splitlines()


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """One untraced and one traced smoke report covering every workload."""
    out = {}
    for trace in ("0", "1"):
        path = tmp_path_factory.mktemp("reports") / f"trace{trace}.json"
        code, lines = run_suite(ROOT, "--smoke", "--trace", trace, "--json", str(path))
        assert code == 0, "\n".join(lines)
        out[trace] = json.loads(path.read_text())
    return out


def test_tracing_is_inert(reports):
    for workload, record in reports["0"]["workloads"].items():
        assert record["correct"], record["failures"]
        assert record["digests"] == reports["1"]["workloads"][workload]["digests"]


def test_emitted_names_match_benchmark_json(reports):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        declared = {entry["name"]: entry["unit"] for entry in SPEC[section]}
        for record in reports[trace]["workloads"].values():
            emitted = {name: metric["unit"] for name, metric in record["metrics"].items()}
            assert all(NAME.match(name) for name in emitted)
            assert emitted == declared


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/suite"]
    assert 1 <= SPEC["run_seconds"] <= 60
    every = [w["name"] for w in SPEC["workloads"]] + [
        m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
    ]
    assert len(every) == len(set(every)) and all(NAME.match(name) for name in every)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _copy_suite(root: Path) -> None:
    shutil.copytree(
        SUITE, root / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("__pycache__", "results"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")


def test_planted_digest_mismatch_fails_the_run(tmp_path):
    _copy_suite(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    expected_path = tmp_path / "benchmarks" / "suite" / "expected.json"
    expected = json.loads(expected_path.read_text())
    expected["smoke"]["scan_batched"]["nowl"] = "0" * 32
    expected_path.write_text(json.dumps(expected))
    code, lines = run_suite(tmp_path, "--workload", "scan_batched", "--smoke")
    result = json.loads(lines[-1])
    assert code != 0
    assert result["failed"] > 0 and not result["correct"]


def test_missing_package_fails_without_a_result(tmp_path):
    _copy_suite(tmp_path)
    code, lines = run_suite(tmp_path, "--workload", "scan_batched", "--smoke")
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


class _Layer:
    def __init__(self, inner=None):
        self.inner = inner

    def work(self, depth: int) -> int:
        time.sleep(0.002)
        if self.inner is not None:
            self.inner.work(depth + 1)
            self.inner.work(depth + 1)
        return depth


def test_nested_self_times_sum_to_the_wall(tmp_path):
    leaf = _Layer()
    outer = _Layer(_Layer(leaf))
    tracer = Tracer()
    tracer.wrap(leaf, "work", "leaf")
    tracer.wrap(outer.inner, "work", "middle")
    tracer.wrap(outer, "work", "outer")
    tracer.begin_run("test/run/0")
    assert outer.work(0) == 0
    path = tmp_path / "spans.ndjson"
    tracer.write_ndjson(str(path))
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert [span["name"] for span in spans].count("leaf") == 4
    assert {span["run"] for span in spans} == {"test/run/0"}
    root = spans[0]
    assert (root["name"], root["parent"]) == ("outer", -1)
    by_id = {span["id"]: span for span in spans}
    leaves = [span for span in spans if span["name"] == "leaf"]
    assert all(by_id[span["parent"]]["name"] == "middle" for span in leaves)
    wall = root["end"] - root["start"]
    assert sum(tracer.self_seconds.values()) == pytest.approx(wall, rel=1e-9)
    # Every level sleeps once per call, so none has zero self time.
    assert all(seconds >= 0.002 for seconds in tracer.self_seconds.values())


def _reports(tmp_path, side, name, values):
    paths = []
    for index, value in enumerate(values):
        path = tmp_path / f"{side}{index}.json"
        metric = {name: {"value": value, "unit": "s"}}
        path.write_text(json.dumps({"workloads": {"w": {"metrics": metric}}}))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize(
    "name, base, change, verdict",
    [
        ("cpu_s", [1.00, 1.01, 0.99], [1.00, 1.02, 0.98], "ok"),
        ("cpu_s", [1.00, 1.01, 0.99], [1.30, 1.31, 1.29], "regressed"),
        ("cpu_s", [1.00, 1.50, 0.70], [1.00, 1.40, 0.60], "unresolved"),
        # Wide spreads, but every change run is slower: resolved.
        ("cpu_s", [1.00, 1.20, 0.90], [2.00, 2.40, 1.80], "regressed"),
        # setup_s is judged on its median alone.
        ("setup_s", [1.00, 1.50, 0.70], [1.00, 1.40, 0.60], "ok"),
        ("setup_s", [1.00, 1.01, 0.99], [1.30, 1.31, 1.29], "regressed"),
    ],
)
def test_compare_verdicts(tmp_path, name, base, change, verdict):
    rows = compare.compare(
        compare.load(_reports(tmp_path, "a", name, base)),
        compare.load(_reports(tmp_path, "b", name, change)),
        SPEC,
    )
    assert [row["verdict"] for row in rows] == [verdict]
