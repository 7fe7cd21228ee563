"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ScaledArrayConfig, TWLConfig
from repro.engine import SimulationEngine
from repro.pcm.array import PCMArray


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic numpy generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_array() -> PCMArray:
    """A 8-page array with known, distinct endurance values."""
    return PCMArray(np.array([100, 200, 300, 400, 500, 600, 700, 800]))


@pytest.fixture
def uniform_array() -> PCMArray:
    """A 16-page array with identical endurance (no PV)."""
    return PCMArray.uniform(16, 1000)


@pytest.fixture
def small_scaled() -> ScaledArrayConfig:
    """A small scaled config for integration tests (ratio preserved)."""
    return ScaledArrayConfig(n_pages=128, endurance_mean=1536.0)


@pytest.fixture
def twl_config() -> TWLConfig:
    """The paper-default TWL configuration."""
    return TWLConfig()


@pytest.fixture
def built_engines(monkeypatch) -> list:
    """Every :class:`SimulationEngine` built in this process, in order.

    Lets a test that runs cells assert which path served them
    (``engine.batch_size``) and read the scheme's swap counters, which
    a cell's result does not carry.
    """
    engines: list = []
    original = SimulationEngine.__init__

    def spy(engine, *args, **kwargs):
        original(engine, *args, **kwargs)
        engines.append(engine)

    monkeypatch.setattr(SimulationEngine, "__init__", spy)
    return engines
