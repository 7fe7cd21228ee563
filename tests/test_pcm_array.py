"""Tests for the PCM array wear model."""

import numpy as np
import pytest

from repro.errors import AddressError, ConfigError, PageWornOutError
from repro.pcm.array import PCMArray


class TestConstruction:
    def test_from_endurance(self, tiny_array):
        assert tiny_array.n_pages == 8
        assert tiny_array.total_writes == 0
        assert not tiny_array.has_failure

    def test_uniform(self):
        array = PCMArray.uniform(4, 500)
        assert (array.endurance == 500).all()

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            PCMArray(np.array([], dtype=np.int64))

    def test_rejects_nonpositive_endurance(self):
        with pytest.raises(ConfigError):
            PCMArray(np.array([10, 0]))


class TestScalarWrites:
    def test_write_counts(self, tiny_array):
        tiny_array.write(3)
        tiny_array.write(3)
        assert tiny_array.page_writes(3) == 2
        assert tiny_array.total_writes == 2

    def test_failure_detected_at_endurance(self, tiny_array):
        for _ in range(100):
            tiny_array.write(0)
        assert tiny_array.has_failure
        failure = tiny_array.first_failure
        assert failure.physical_page == 0
        assert failure.device_writes == 100
        assert failure.page_endurance == 100

    def test_only_first_failure_recorded(self, tiny_array):
        for _ in range(100):
            tiny_array.write(0)
        for _ in range(200):
            tiny_array.write(1)
        assert tiny_array.first_failure.physical_page == 0

    def test_fail_fast_raises(self):
        array = PCMArray(np.array([3, 3]), fail_fast=True)
        array.write(0)
        array.write(0)
        with pytest.raises(PageWornOutError):
            array.write(0)

    def test_out_of_range(self, tiny_array):
        with pytest.raises(AddressError):
            tiny_array.write(8)
        with pytest.raises(AddressError):
            tiny_array.page_writes(-1)


class TestBulkApply:
    """``apply_write_counts`` takes a sparse ``{page: writes}`` tally."""

    def test_apply_counts(self, uniform_array):
        assert uniform_array.apply_write_counts({0: 10, 5: 3, 15: 1})
        assert uniform_array.total_writes == 14
        counts = uniform_array.write_counts()
        assert (counts[0], counts[5], counts[15]) == (10, 3, 1)
        assert counts.sum() == 14

    def test_counts_reaching_endurance_are_refused(self):
        array = PCMArray(np.array([100, 1000]))
        assert array.apply_write_counts({0: 99})
        # Page 0 would reach its endurance: nothing is applied, not even
        # page 1's writes, and the caller replays the writes in order.
        assert not array.apply_write_counts({1: 5, 0: 1})
        assert array.write_counts().tolist() == [99, 0]
        assert array.total_writes == 99
        assert not array.failed and array.first_failure is None

    def test_rejected_tally_leaves_writes_and_total_untouched(self, tiny_array):
        tiny_array.apply_batch([0, 1, 1, 7])
        before = tiny_array.writes.copy()
        assert not tiny_array.apply_write_counts({2: 4, 7: 799, 3: 1})
        assert tiny_array.writes.tolist() == before.tolist()
        assert tiny_array.total_writes == 4

    def test_counting_goes_on_after_the_first_failure(self):
        array = PCMArray(np.array([2, 1000]))
        array.apply_batch([0, 0])
        assert array.failed
        failure = array.first_failure
        # Past the first failure nothing is refused: writes just count.
        assert array.apply_write_counts({0: 5, 1: 3})
        assert array.write_counts().tolist() == [7, 3]
        assert array.total_writes == 10
        assert array.first_failure == failure

    def test_empty_tally(self, uniform_array):
        assert uniform_array.apply_write_counts({})
        assert uniform_array.total_writes == 0
        assert not uniform_array.write_counts().any()

    def test_mixed_scalar_then_bulk(self, uniform_array):
        uniform_array.write(0)
        uniform_array.apply_write_counts({page: 1 for page in range(16)})
        assert uniform_array.page_writes(0) == 2
        assert uniform_array.total_writes == 17

    @pytest.mark.parametrize("page", [-1, 16, 10**6])
    def test_rejects_out_of_range_key(self, uniform_array, page):
        with pytest.raises(AddressError):
            uniform_array.apply_write_counts({0: 1, page: 1})
        assert uniform_array.total_writes == 0
        assert not uniform_array.write_counts().any()

    def test_rejects_negative_counts(self, uniform_array):
        with pytest.raises(ConfigError):
            uniform_array.apply_write_counts({3: 2, 4: -1})
        assert uniform_array.total_writes == 0
        assert not uniform_array.write_counts().any()


class TestInspection:
    def test_remaining(self, tiny_array):
        tiny_array.apply_batch([0] * 40)
        remaining = tiny_array.remaining()
        assert remaining[0] == 60
        assert remaining[7] == 800

    def test_wear_fraction(self, tiny_array):
        tiny_array.apply_batch([1] * 100)
        assert tiny_array.wear_fraction()[1] == pytest.approx(0.5)

    def test_repr(self, tiny_array):
        assert "PCMArray" in repr(tiny_array)


class TestApplyBatch:
    """Ordered-batch application with exact first-failure attribution."""

    def test_matches_serial_writes_exactly(self, tiny_array):
        serial = PCMArray(tiny_array.endurance.copy())
        sequence = [0, 1, 2, 0, 1, 0, 7, 7, 3]
        for page in sequence:
            serial.write(page)
        applied = tiny_array.apply_batch(sequence)
        assert applied == len(sequence)
        assert np.array_equal(tiny_array.write_counts(), serial.write_counts())
        assert tiny_array.total_writes == serial.total_writes

    def test_failure_attributed_to_exact_write(self):
        array = PCMArray(np.array([3, 100]))
        # Page 0's 3rd write (position 4, device write 5) is the failure.
        applied = array.apply_batch([0, 1, 0, 1, 0, 1, 1])
        assert applied == 5  # application truncates at the failing write
        assert array.failed
        assert array.first_failure.physical_page == 0
        assert array.first_failure.device_writes == 5
        assert array.total_writes == 5

    def test_earliest_crossing_wins(self):
        array = PCMArray(np.array([2, 2]))
        # Both pages cross in this batch; page 1 crosses first (pos 2).
        array.apply_batch([0, 1, 1, 0])
        assert array.first_failure.physical_page == 1
        assert array.first_failure.device_writes == 3

    def test_identical_to_serial_at_failure(self, rng):
        endurance = rng.integers(20, 60, size=16)
        sequence = rng.integers(0, 16, size=2000).tolist()
        serial = PCMArray(endurance.copy())
        for page in sequence:
            serial.write(page)
            if serial.failed:
                break
        batched = PCMArray(endurance.copy())
        position = 0
        while position < len(sequence) and not batched.failed:
            batched.apply_batch(sequence[position : position + 37])
            position += 37
        assert batched.failed == serial.failed
        assert batched.first_failure == serial.first_failure

    def test_rejects_out_of_range(self, tiny_array):
        with pytest.raises(AddressError):
            tiny_array.apply_batch([0, 8])
        with pytest.raises(AddressError):
            tiny_array.apply_batch([-1])

    def test_rejects_non_1d(self, tiny_array):
        with pytest.raises(ConfigError):
            tiny_array.apply_batch(np.zeros((2, 2), dtype=np.int64))

    def test_empty_batch_is_noop(self, tiny_array):
        assert tiny_array.apply_batch([]) == 0
        assert tiny_array.total_writes == 0

    def test_fail_fast_raises_on_batch_failure(self):
        array = PCMArray(np.array([2, 50]), fail_fast=True)
        with pytest.raises(PageWornOutError):
            array.apply_batch([0, 0, 1])

    def test_all_or_nothing_applies_nothing_on_a_crossing(self):
        array = PCMArray(np.array([3, 100]), fail_fast=True)
        assert array.apply_batch([1, 0, 0, 1], all_or_nothing=True) == 4
        # Page 0's third write would wear it out: nothing lands.
        assert array.apply_batch([1, 0, 1], all_or_nothing=True) == 0
        assert array.write_counts().tolist() == [2, 2]
        assert array.total_writes == 4 and not array.failed


class TestCanonicalState:
    """The numpy arrays are the single source of truth for wear state."""

    def test_mixed_scalar_and_bulk_paths(self, tiny_array):
        tiny_array.write(0)
        tiny_array.apply_batch([1] * 10)
        tiny_array.apply_write_counts({0: 1, 2: 2})
        tiny_array.write(2)
        tiny_array.apply_batch([3, 3, 4])
        tiny_array.apply_batch([5] * 4)
        counts = tiny_array.write_counts()
        assert list(counts) == [2, 10, 3, 2, 1, 4, 0, 0]
        assert tiny_array.total_writes == 22
        assert tiny_array.page_writes(1) == 10  # scalar view agrees

    def test_scalar_writes_after_vectorized_batch(self, tiny_array):
        """The promoted-mirror hazard: scalar writes right after a bulk
        batch must land on the same canonical array the batch updated
        (the old design kept two copies and a dirty flag here)."""
        tiny_array.apply_batch([0] * 5 + [1] * 3)
        tiny_array.write(0)
        tiny_array.write(1)
        assert tiny_array.page_writes(0) == 6
        assert tiny_array.page_writes(1) == 4
        assert int(tiny_array.write_counts().sum()) == tiny_array.total_writes
        # ... and a bulk batch right after scalar writes sees them too:
        tiny_array.apply_batch([0])
        assert tiny_array.page_writes(0) == 7
        assert tiny_array.total_writes == 11

    def test_write_counts_returns_a_copy(self, tiny_array):
        tiny_array.write(0)
        snapshot = tiny_array.write_counts()
        snapshot[0] = 999
        assert tiny_array.page_writes(0) == 1

    def test_endurance_is_frozen_read_only(self, tiny_array):
        """Endurance is immutable after format time; an in-place
        mutation raises at the offending statement instead of silently
        corrupting later failure attribution."""
        with pytest.raises(ValueError, match="read-only"):
            tiny_array.endurance[0] += 1
        # Reads (and derived arrays) still work.
        assert tiny_array.page_endurance(0) == tiny_array.endurance[0]
        assert (tiny_array.remaining() == tiny_array.endurance).all()
