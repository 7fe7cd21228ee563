"""Shared fixtures for the benchmark harness.

The harness runs every experiment with the CLI's default setup: the
default scale (set ``REPRO_QUICK=1`` for the quick scale of
``twl-repro --quick``) and the on-disk result cache at
``default_cache_dir()`` (``$TWL_REPRO_CACHE_DIR`` relocates it).  A
campaign run first, e.g. ``twl-repro all --jobs N``, fills that cache
in parallel and the harness then serves its cells from it.  So a plain
``pytest benchmarks/`` serves from the default cache, and once that
cache is warm its timings measure cache reads; ``make bench`` and
``make bench-quick`` point ``$TWL_REPRO_CACHE_DIR`` at a fresh
temporary directory so that they time computation.

Each reproduced table is recorded under ``benchmarks/results/`` so runs
can be diffed against EXPERIMENTS.md; quick runs record under the
git-ignored ``benchmarks/results/quick/`` instead, so they never
overwrite the default-scale tables.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro.exec.cache import default_cache_dir
from repro.experiments.setups import ExperimentSetup, default_setup, quick_setup

QUICK = os.environ.get("REPRO_QUICK", "").strip() in ("1", "true", "yes")

RESULTS_DIR = os.path.join(
    os.path.dirname(__file__), "results", *(["quick"] if QUICK else [])
)


@pytest.fixture(scope="session")
def setup() -> ExperimentSetup:
    """The experiment setup for the whole benchmark session."""
    base = quick_setup() if QUICK else default_setup()
    return replace(base, cache_dir=default_cache_dir())


@pytest.fixture(scope="session")
def record():
    """Persist a rendered table under the results directory and echo it."""

    def _record(name: str, text: str) -> None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")
        print()
        print(text)

    return _record
