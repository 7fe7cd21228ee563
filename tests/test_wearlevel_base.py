"""Tests for the WearLeveler base class contract."""

import numpy as np
import pytest

from repro.errors import AddressError
from repro.pcm.array import PCMArray
from repro.wearlevel.base import SWAP_VISIBLE_THRESHOLD, WearLeveler
from repro.wearlevel.bwl import BloomWearLeveling
from repro.wearlevel.security_refresh import SecurityRefresh
from repro.wearlevel.start_gap import StartGap
from repro.wearlevel.wrl import WearRateLeveling


class _Dummy(WearLeveler):
    """Minimal subclass: identity mapping, swap every 4th write."""

    name = "dummy"

    def __init__(self, array):
        super().__init__(array)
        self._count = 0

    def translate(self, logical):
        self.check_logical(logical)
        return logical

    def write(self, logical):
        self.check_logical(logical)
        self.array.write(logical)
        self._count_demand()
        self._count += 1
        if self._count % 4 == 0:
            partner = (logical + 1) % self.array.n_pages
            self.array.write(partner)
            self._count_swap(1)
            return 2
        return 1


@pytest.fixture
def dummy():
    return _Dummy(PCMArray.uniform(8, 10_000))


class TestBaseContract:
    def test_logical_pages_defaults_to_physical(self, dummy):
        assert dummy.logical_pages == 8

    def test_check_logical_bounds(self, dummy):
        with pytest.raises(AddressError):
            dummy.check_logical(-1)
        with pytest.raises(AddressError):
            dummy.check_logical(8)
        dummy.check_logical(0)
        dummy.check_logical(7)

    def test_read_is_translate(self, dummy):
        assert dummy.read(3) == dummy.translate(3)
        assert dummy.array.total_writes == 0

    def test_counters_accumulate(self, dummy):
        for _ in range(8):
            dummy.write(0)
        assert dummy.demand_writes == 8
        assert dummy.swap_events == 2
        assert dummy.swap_writes == 2
        assert dummy.total_physical_writes == 10

    def test_swap_write_ratio(self, dummy):
        for _ in range(8):
            dummy.write(0)
        assert dummy.swap_write_ratio() == pytest.approx(0.25)

    def test_ratio_zero_before_writes(self, dummy):
        assert dummy.swap_write_ratio() == 0.0

    def test_stats_shape(self, dummy):
        dummy.write(0)
        stats = dummy.stats()
        assert set(stats) >= {
            "demand_writes",
            "swap_writes",
            "swap_events",
            "swap_write_ratio",
        }

    def test_swap_visibility_threshold(self, dummy):
        # The side channel: a swap-carrying request returns >= threshold.
        results = [dummy.write(0) for _ in range(4)]
        assert results[-1] >= SWAP_VISIBLE_THRESHOLD
        assert all(r < SWAP_VISIBLE_THRESHOLD for r in results[:-1])

    def test_repr_contains_counts(self, dummy):
        dummy.write(0)
        assert "demand_writes=1" in repr(dummy)


class TestGuardedSegments:
    """``_serve_segments`` plans a batch and commits it in one
    all-or-nothing apply; only a rejected commit reaches ``write()``."""

    SCHEMES = {
        "sr": SecurityRefresh,
        "bwl": BloomWearLeveling,
        "wrl": WearRateLeveling,
        "startgap": StartGap,
    }

    def _run(self, monkeypatch, name, stop_at, endurance):
        batched = self.SCHEMES[name](PCMArray(endurance), seed=5)
        serial = self.SCHEMES[name](PCMArray(endurance), seed=5)
        events = []
        real_apply, real_write = batched.array.apply_batch, batched.write

        def apply_batch(frames, all_or_nothing=False):
            applied = real_apply(frames, all_or_nothing=all_or_nothing)
            events.append(("commit", all_or_nothing, bool(applied)))
            return applied

        monkeypatch.setattr(batched.array, "apply_batch", apply_batch)
        monkeypatch.setattr(
            batched, "write", lambda logical: events.append("write") or real_write(logical)
        )
        n = batched.logical_pages
        addresses = np.random.default_rng(11).integers(0, n, size=400_000)
        start = batches = 0
        while not batched.array.failed and start < addresses.size:
            events.clear()
            chunk = addresses[start : start + 300]
            counts = batched.write_batch(chunk, stop_at)
            assert counts.tolist() == WearLeveler.write_batch(serial, chunk, stop_at).tolist()
            start += counts.size
            batches += 1
            if not batched.array.failed:
                assert events == [("commit", True, True)]
        assert batched.array.failed
        # The failing batch: one rejected commit, then the per-write loop.
        assert events[0] == ("commit", True, False)
        assert len(events) > 1 and events[1:] == ["write"] * (len(events) - 1)
        assert batched.array.first_failure == serial.array.first_failure
        assert _equal_trees(batched.snapshot(), serial.snapshot())
        assert batched.array.write_counts().tolist() == serial.array.write_counts().tolist()
        return batches

    @pytest.mark.parametrize("stop_at", [None, 2])
    @pytest.mark.parametrize("name", ["sr", "bwl", "wrl", "startgap"])
    def test_per_write_runs_only_in_the_failing_batch(self, monkeypatch, name, stop_at):
        endurance = np.random.default_rng(4).integers(1500, 4500, size=15)
        assert self._run(monkeypatch, name, stop_at, endurance) > 20

    @pytest.mark.parametrize("stop_at", [None, 2])
    def test_failing_write_is_an_event_migration(self, monkeypatch, stop_at):
        """Start-Gap's first gap move writes the spare frame, which no
        demand write reaches first: with an endurance of 1 there, the
        move's migration write is the one that fails."""
        endurance = np.full(15, 10**6)
        endurance[-1] = 1
        self._run(monkeypatch, "startgap", stop_at, endurance)


def _equal_trees(left, right):
    """Structural equality of two state trees that hold numpy arrays."""
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(
            _equal_trees(left[key], right[key]) for key in left
        )
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(map(_equal_trees, left, right))
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return np.array_equal(left, right)
    return left == right
